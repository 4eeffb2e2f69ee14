"""Every name a library or test module imports is used in that module,
only ``errors`` tests an argument's int or real type, only ``bilinear``
asks whether a form has signature (1, n), only ``bilinear`` pairs
vectors one pair at a time, only ``bilinear`` reads a split, no
library code draws random numbers but the two functions that take a
caller's ``random.Random``, none takes a determinant from
``np.linalg.det``, the coverage scan's crossings, winding numbers and
on-image marks live only in ``degree`` and do not branch on ``n``, no
library code masks a floating-point error with ``np.errstate``,
every float tolerance below 1e-6 is a named module constant, and every
Python file of the library, the tests and the benchmark parses under
the Python 3.10 grammar, the oldest that ``pyproject.toml`` allows.

The library's ``__init__.py`` is skipped by the import check: its
imports are the package's exports.
"""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "periodmap"
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


def split_reads(source: str) -> list[int]:
    """Lines that read a subspace's split (``_split``) or a form's
    (``_columns``).  A consumer asks ``bilinear`` for the positive part,
    radical or signature, which each subspace and form keeps, instead of
    deriving it from the split by hand."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("_split", "_columns")
    )


def test_the_scan_sees_split_reads():
    source = (
        "cols = sub._split()\n"
        "plus = [w for e, w, _, _ in form._columns if e > 0]\n"
        "split = sub._split\n"
        "n = sub.split() + len(columns) + getattr(form, '_columns_', 0)\n"
        "sig = subspace_signature(sub)\n"
    )
    assert split_reads(source) == [1, 2, 3]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "bilinear.py"), ids=lambda p: p.name
)
def test_only_bilinear_reads_a_split(path):
    assert split_reads(path.read_text()) == []


def random_draws(source: str, exempt: str | None = None) -> list[int]:
    """Lines that could draw random numbers, outside the function named
    exempt: an import of random (but a plain ``import random`` when there
    is an exempt function, whose annotation names ``random.Random``), of
    numpy.random or from either, a read of ``random.<name>`` or of
    ``np.random``, and any ``default_rng``.  A library answer depends
    only on its arguments."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == exempt:
            skip |= {n.lineno for n in ast.walk(node) if hasattr(n, "lineno")}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(
                alias.name == "numpy.random"
                or alias.name == "random" and (exempt is None or alias.asname)
                for alias in node.names
            ):
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("random", "numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                found.add(node.lineno)
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if (
                node.attr == "default_rng"
                or owner == "random"
                or node.attr == "random" and owner in ("np", "numpy")
            ):
                found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "default_rng":
            found.add(node.lineno)
    return sorted(found - skip)


def test_the_scan_sees_random_draws():
    source = (
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "x = np.random.default_rng(0).standard_gamma(1.0)\n"
        "def draw(rng: random.Random):\n"
        "    return rng.random()\n"
        "y = random.random()\n"
        "z = rng.random() + rng.default_rng\n"
        "from numpy import random as npr\n"
        "import random as r\n"
    )
    assert random_draws(source) == [1, 3, 4, 5, 7, 8, 9, 10]
    assert random_draws(source, exempt="draw") == [3, 4, 7, 8, 9, 10]


# the two functions that build random inputs from a caller's random.Random
_DRAWS_FROM_A_CALLERS_RNG = {
    "face_constraints.py": "random_config",
    "decomposition.py": "random_decomposition",
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_draws_no_random_numbers(path):
    exempt = _DRAWS_FROM_A_CALLERS_RNG.get(path.name)
    assert random_draws(path.read_text(), exempt) == []


def lapack_determinants(source: str) -> list[int]:
    """Lines that take a determinant from numpy's LAPACK routine: a read
    of ``<module>.linalg.det`` or ``linalg.det``, or an import of det
    from numpy.linalg.  The coverage scan reads every sign from one
    cofactor expansion, ``degree._det``, whose ties are broken alike
    at every n."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "det":
            owner = node.value
            if getattr(owner, "attr", None) == "linalg" or getattr(owner, "id", None) == "linalg":
                found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name == "det" for alias in node.names):
                found.add(node.lineno)
    return sorted(found)


def test_the_scan_sees_lapack_determinants():
    source = (
        "s = np.sign(np.linalg.det(m))\n"
        "from numpy.linalg import det, solve\n"
        "d = numpy.linalg.det(a) + linalg.det(b)\n"
        "x = np.linalg.solve(a, b) + np.linalg.norm(a)\n"
        "d = _det(m) + bilinear.det(m) + self.det + linalg.slogdet(a)\n"
        "from numpy.linalg import solve\n"
    )
    assert lapack_determinants(source) == [1, 2, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_takes_no_lapack_determinant(path):
    assert lapack_determinants(path.read_text()) == []


def branches_on_n(source: str, names: tuple[str, ...]) -> list[int]:
    """Lines, inside the functions named names and the functions they
    hold, of an ``if``, a ``while`` or a conditional expression whose
    test reads the name ``n``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            for branch in ast.walk(node):
                if isinstance(branch, (ast.If, ast.While, ast.IfExp)) and any(
                    isinstance(name, ast.Name) and name.id == "n" for name in ast.walk(branch.test)
                ):
                    found.add(branch.lineno)
    return sorted(found)


# the coverage scan's steps in degree, each one rule at every n
_ONE_RULE_AT_EVERY_N = ("_weights", "_crossings", "winding", "on_image")


def test_the_scan_sees_branches_on_n():
    source = (
        "def on_image(blocks, k):\n"
        "    n = len(blocks)\n"
        "    if n == 3:\n"
        "        pass\n"
        "    ends = pairs if n > 1 else [(0, 0)]\n"
        "    while k < n:\n"
        "        k += 1\n"
        "    if k > 1 and not blocks:\n"
        "        pass\n"
        "    rows = [j for j in range(n) if j != k]\n"
        "def winding(blocks, k):\n"
        "    def inner(n):\n"
        "        if self.n or blocks:\n"
        "            return n + 1 if k else 0\n"
        "        elif len(blocks) > n:\n"
        "            pass\n"
        "def _gaps(n):\n"
        "    if n == 2:\n"
        "        pass\n"
    )
    assert branches_on_n(source, _ONE_RULE_AT_EVERY_N) == [3, 5, 6, 15]


def test_the_coverage_scan_does_not_branch_on_n():
    source = (SRC / "degree.py").read_text()
    assert branches_on_n(source, _ONE_RULE_AT_EVERY_N) == []
    tree = ast.parse(source)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert set(_ONE_RULE_AT_EVERY_N) <= defined


# the functions of the scan: its determinant, boxes, weights, crossings,
# winding numbers and on-image marks, public or private
_SCAN = re.compile(r"_?(det|box_pairs|weights|crossings|winding|on_image)")


def scan_definitions(source: str) -> list[str]:
    """The names of the functions defined in source, at any depth, that
    are a step of the coverage scan (_SCAN)."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and _SCAN.fullmatch(node.name)
    )


def test_the_scan_sees_scan_definitions():
    source = (
        "def _det(m):\n"
        "    def winding(blocks):\n"
        "        pass\n"
        "def _crossings(corners):\n"
        "    pass\n"
        "def on_image(blocks, k):\n"
        "    pass\n"
        "def _first_crossing(p):\n"
        "    pass\n"
        "def determinant(m):\n"
        "    return _det(m) + _on_plane(m)\n"
    )
    assert scan_definitions(source) == ["_crossings", "_det", "on_image", "winding"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_degree_holds_the_scan(path):
    # coverage builds the blocks and reads the answers; every crossing,
    # winding number, on-image mark and scan determinant is degree's
    want = ["_box_pairs", "_crossings", "_det", "_weights", "on_image", "winding"]
    assert scan_definitions(path.read_text()) == (want if path.name == "degree.py" else [])


def errstate_uses(source: str) -> list[int]:
    """Lines that read ``errstate``: a name or attribute of that name, or
    an import of it.  A float pass under ``np.errstate`` computes values
    whose errors it masks and then discards them; the library divides
    only where it keeps the quotient (``np.divide(..., where=...)``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute) and node.attr == "errstate"
            or isinstance(node, ast.Name) and node.id == "errstate"
            or isinstance(node, ast.ImportFrom) and any(a.name == "errstate" for a in node.names)
        ):
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_sees_errstate():
    source = (
        "with np.errstate(divide='ignore'):\n"
        "    q = a / b\n"
        "from numpy import errstate, divide\n"
        "with errstate(all='raise'):\n"
        "    pass\n"
        "np.divide(a, b, out=q, where=b < 0)\n"
        "state = np.geterr()\n"
        "errstate_ok = 'np.errstate'\n"
    )
    assert errstate_uses(source) == [1, 3, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_masks_no_float_error(path):
    assert errstate_uses(path.read_text()) == []


def bare_tolerances(source: str) -> list[int]:
    """Lines of a float literal above 0 and below 1e-6 outside a
    module-level assignment to upper-case names: a tolerance that is not
    named once, at the top of its module, with its scale and the claim
    it guards."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                named |= {id(n) for n in ast.walk(node)}
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) is float
            and 0.0 < node.value < 1e-6
            and id(node) not in named
        }
    )


def test_the_scan_sees_bare_tolerances():
    source = (
        "TOL = 1e-9\n"
        "SCALED: float = 2.5e-12 * 4\n"
        "def f(x, slack=1e-9):\n"
        "    return x > 1e-15 and x < 1e-6 and x != 0.0 and -3e-7 < x\n"
        "class A:\n"
        "    EPS = 1e-10\n"
        "tol = 1e-8\n"
        "BIG, SMALL = 1e-5, 10**-9\n"
        "S = f('1e-9', 7)\n"
        "y = x + TOL * 1e-3\n"
    )
    assert bare_tolerances(source) == [3, 4, 6, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_names_every_small_tolerance(path):
    assert bare_tolerances(path.read_text()) == []


def grammar_error(source: str) -> str | None:
    """Why source does not parse under the Python 3.10 grammar, or None.
    The parser's feature_version check covers syntax only (``except*``,
    ``type`` statements, type parameters), not names added to the
    standard library later."""
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


def test_the_scan_sees_syntax_newer_than_3_10():
    assert "3.11" in grammar_error("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert grammar_error("match x:\n    case (1, y):\n        pass\n") is None


PY_FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", PY_FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_file_parses_as_python_3_10(path):
    assert grammar_error(path.read_text()) is None
