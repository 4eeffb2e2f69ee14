"""Every name a library or test module imports is used in that module,
only ``errors`` tests an argument's int or real type, only ``bilinear``
asks whether a form has signature (1, n), and only ``bilinear`` pairs
vectors one pair at a time.

The library's ``__init__.py`` is skipped by the import check: its
imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "periodmap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = "import os\nimport os.path\nfrom a import b as c, d\nd.e(os)\n"
    assert unused_imports(source) == ["c (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def hand_type_tests(source: str, exempt: str | None = None) -> list[int]:
    """Lines that test a type against numbers.Integral, numbers.Real or
    bool by hand, outside the function named exempt."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skip |= {n.lineno for n in ast.walk(node) if hasattr(n, "lineno")}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("Integral", "Real"):
            if isinstance(node.value, ast.Name) and node.value.id == "numbers":
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            found.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ):
            found.add(node.lineno)
    return sorted(found - skip)


def test_the_scan_sees_hand_written_type_tests():
    source = (
        "import numbers\n"
        "from numbers import Real\n"
        "def f(x):\n"
        "    return isinstance(x, numbers.Integral) and not isinstance(x, (bool, str))\n"
        "def _frac(x):\n"
        "    return isinstance(x, bool)\n"
        "isinstance(1, int)\n"
    )
    assert hand_type_tests(source) == [2, 4, 6]
    assert hand_type_tests(source, exempt="_frac") == [2, 4]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_only_errors_checks_number_types(path):
    # bilinear._frac reads exact numbers, so it tells a bool from an int itself
    exempt = "_frac" if path.name == "bilinear.py" else None
    assert hand_type_tests(path.read_text(), exempt) == []


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 1


def hand_lorentzian_tests(source: str) -> list[int]:
    """Lines that ask by hand whether a form is (1, n): a b_plus tested
    equal or unequal to 1, a triple (1, _, _) to anything, or a
    Signature(1, ...) built.  An order test such as b_plus > 1 asks
    something else."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and all(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            b_plus = any(isinstance(n, ast.Attribute) and n.attr == "b_plus" for n in operands)
            if (b_plus and any(map(_is_one, operands))) or any(
                isinstance(n, ast.Tuple) and len(n.elts) == 3 and _is_one(n.elts[0])
                for n in operands
            ):
                found.add(node.lineno)
        elif isinstance(node, ast.Call) and node.args and _is_one(node.args[0]):
            func = node.func
            if getattr(func, "id", None) == "Signature" or getattr(func, "attr", None) == "Signature":
                found.add(node.lineno)
    return sorted(found)


def test_the_scan_sees_hand_written_lorentzian_tests():
    source = (
        "if sig.b_plus != 1 or sig.b_null != 0: pass\n"
        "ok = sig == Signature(1, n, 0)\n"
        "ok = tuple(sig) == (1, 2, 0)\n"
        "ok = 1 == form._sig.b_plus\n"
        "ok = bilinear.Signature(1, 2, 0)\n"
        "ok = sig.b_plus == 0 and sig == Signature(n, 0, 0) and sig.b_minus == 1\n"
        "ok = sig.b_plus > 1 and (1, 2, 0) < sig\n"
    )
    assert hand_lorentzian_tests(source) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in ("bilinear.py", "render.py")),
    ids=lambda p: p.name,
)
def test_only_bilinear_asks_for_signature_1_n(path):
    # render's fixed-dimension checks, (1, 2) for the disk and (1, 1) for
    # the lattice, are drawing conditions that raise DomainError
    assert hand_lorentzian_tests(path.read_text()) == []


def pairing_calls(source: str) -> list[int]:
    """Lines that pair vectors one pair at a time: a call of a method
    named evaluate or apply.  A consumer reads its pairings from one
    X G X^t (``bilinear._gram_of``) instead."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("evaluate", "apply")
    )


def test_the_scan_sees_pairings_one_pair_at_a_time():
    source = (
        "c = q.evaluate(a, b)\n"
        "rows = [q.apply(v) for v in vs]\n"
        "c = evaluate(a, b)\n"
        "f = q.evaluate\n"
        "c = self.form.evaluate(w, w) + q.applied(v)\n"
    )
    assert pairing_calls(source) == [1, 2, 5]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in ("bilinear.py", "render.py")),
    ids=lambda p: p.name,
)
def test_only_bilinear_pairs_one_pair_at_a_time(path):
    # render colours its pencil with evaluate while drawing
    assert pairing_calls(path.read_text()) == []
