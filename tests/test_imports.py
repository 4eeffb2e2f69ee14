"""Every name a library or test module imports is used in that module,
and only ``errors`` tests an argument's int or real type.

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
