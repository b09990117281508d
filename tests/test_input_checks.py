"""Input validation that survives python -O.

Callers' mistakes must end in a typed error, never in an assert that -O
strips: a lint pass forbids assert statements in the package, and a
subprocess replays bad inputs with and without -O.  Three more lint passes
fail on imported names and on private module-level helpers the package
never reads, and on functions, classes and methods that nothing in the
package, its tests or its benchmark reads.  One more fails on any float
literal or float(...) call in the package, one on Fraction(x) outside the
scalar reader, two on any module but linalg importing fractions or ONE, and
one on any reassignment of a structure's maps after construction, which the
kept axiom results rely on.  One fails when importing the command line
loads dataclasses or the modules it pulls in, which cost more start-up time
than a small job.  The last three fail on GuardError raised anywhere but
the one size guard, on that size guard called from anything but the two
routes that price what they build, and on any read of the process
environment.
"""

import ast
import copy
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tdhom
from tdhom import corpus
from tdhom.checks import CheckResult, Witness
from tdhom.coalgebra import build_tensor_coalgebra
from tdhom.errors import AxiomError, MalformedInput, ParseError
from tdhom.files import parse_structure, serialize_structure
from tdhom.linalg import BasedSpace

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdhom"

# internal invariants that may stay asserts: (file, class, function)
ASSERT_ALLOWED = set()


def _allowed_asserts(path, tree):
    allowed = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if (path.name, cls.name, getattr(fn, "name", None)) in ASSERT_ALLOWED:
                allowed.update(id(node) for node in ast.walk(fn)
                               if isinstance(node, ast.Assert))
    return allowed


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = _allowed_asserts(path, tree)
        found.extend("%s:%d" % (path.relative_to(PACKAGE), node.lineno)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert) and id(node) not in allowed)
    assert found == [], "assert statements vanish under python -O: %s" % found


def test_package_reads_every_name_it_imports():
    # __init__.py imports to re-export, so it is exempt
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append("%s:%d %s" % (path.relative_to(PACKAGE),
                                                   node.lineno, bound))
    assert found == [], "imported names never read: %s" % found


def test_package_imports_its_modules_at_module_top():
    # tdhom/__init__ loads every module, so a function-level import of a
    # sibling breaks no cycle; it only hides a dependency
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        top = set(map(id, tree.body))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), node.lineno)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level
                     and id(node) not in top)
    assert found == [], "intra-package imports below module top: %s" % found


def _enclosing_calls(name):
    """(file:enclosing function) for every call to name in the package."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != name:
                continue
            inner = max((d for d in defs
                         if d.lineno <= node.lineno <= d.end_lineno),
                        key=lambda d: d.lineno, default=None)
            found.append("%s:%s" % (path.relative_to(PACKAGE),
                                    inner.name if inner else "<module>"))
    return sorted(found)


def test_package_raises_guard_error_in_one_size_guard():
    # each route prices what it builds through convolution.check_size
    assert _enclosing_calls("GuardError") == ["convolution.py:check_size"]


def test_package_prices_only_the_two_routes_that_refuse():
    # a size guard anywhere else would refuse a job no CLI route runs
    assert sorted(set(_enclosing_calls("check_size"))) == [
        "cohomology.py:classical_complex",
        "lie_rinehart.py:blinear_subspace"]


def test_package_induces_each_twisted_identity_from_its_classical_sum():
    # twisting by p and rearranging by p cancel, so no twisted identity
    # builds its terms one by one; the per-term forms are the oracles'
    assert _enclosing_calls("twisted_term") == []
    assert _enclosing_calls("factored_term") == []


def test_package_reads_no_environment():
    # the guard limit is an argument or a flag, never a process setting
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), node.lineno)
                     for node in ast.walk(tree)
                     if getattr(node, "attr", getattr(node, "id", None))
                     in ("environ", "environb", "getenv"))
    assert found == [], "environment reads: %s" % found


def _names_read(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_package_reads_every_private_helper():
    # a module-level _name that no statement outside its own definition
    # reads is dead code left behind
    statements = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        statements.extend((path, stmt) for stmt in tree.body)
    reads = [_names_read(stmt) for _, stmt in statements]
    found = []
    for i, (path, stmt) in enumerate(statements):
        if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and stmt.name.startswith("_")
                and not any(stmt.name in r for j, r in enumerate(reads) if j != i)):
            found.append("%s:%d %s" % (path.relative_to(PACKAGE), stmt.lineno,
                                       stmt.name))
    assert found == [], "private helpers nothing reads: %s" % found


def _name_reads(node):
    """How often each name is read under node, counted like _names_read."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            counts.update(alias.name for alias in sub.names)
    return counts


def test_every_definition_is_read():
    # a function, class or method of the package that nothing in the
    # package, its tests or its benchmark reads outside its own body is
    # dead code; dunder methods are called by Python itself
    repo = PACKAGE.parents[1]
    reads = Counter()
    package_trees = []
    for top in ("src", "tests", "perfbench"):
        for path in sorted((repo / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            reads.update(_name_reads(tree))
            if PACKAGE in path.parents:
                package_trees.append((path, tree))
    found = []
    for path, tree in package_trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] <= _name_reads(node)[name]:
                found.append("%s:%d %s" % (path.relative_to(PACKAGE),
                                           node.lineno, name))
    assert found == [], "definitions nothing reads: %s" % found


def _float_uses(tree):
    """Line numbers of float literals and float(...) calls under tree."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Constant) and type(node.value) is float)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float")]


def test_package_has_no_floats():
    # the arithmetic is exact: a float literal or a float(...) call in the
    # package would put an inexact number into an answer
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), line)
                     for line in _float_uses(tree))
    assert found == [], "floats in the package: %s" % found


def test_float_lint_sees_literals_and_calls():
    tree = ast.parse("a = 1\nb = 0.5\nc = float(a)\nd = 1e3\ne = a / 2\n")
    assert _float_uses(tree) == [2, 3, 4]


# the one function that turns a caller's scalar into a Fraction: linalg._exact
# refuses floats with ScalarError, and files._scalar reads through it
FRACTION_READERS = {("linalg.py", "_exact")}


def _one_argument_fractions(name, tree, readers=FRACTION_READERS):
    """Line numbers of Fraction(x) calls with one argument under tree,
    outside the module-level functions (name, function) in readers.
    Fraction(x) takes a float as its binary value; Fraction(p, q) refuses
    one with TypeError."""
    skip = set()
    for fn in tree.body:
        if (name, getattr(fn, "name", None)) in readers:
            skip.update(id(node) for node in ast.walk(fn))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in skip
            and (getattr(node.func, "id", None) == "Fraction"
                 or getattr(node.func, "attr", None) == "Fraction")
            and len(node.args) + len(node.keywords) == 1]


def test_package_reads_scalars_through_exact():
    # a scalar coerced with Fraction(x) anywhere else would turn 0.1 into
    # 3602879701896397/36028797018963968 instead of raising ScalarError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), line)
                     for line in _one_argument_fractions(path.name, tree))
    assert found == [], "Fraction(x) outside linalg._exact: %s" % found


def test_fraction_lint_sees_one_argument_calls():
    tree = ast.parse(
        "a = Fraction(1)\n"
        "b = Fraction(1, 2)\n"
        "c = fractions.Fraction(a)\n"
        "d = Fraction(numerator=a)\n"
        "e = Fraction()\n"
        "def _exact(x):\n"
        "    return Fraction(x)\n")
    assert _one_argument_fractions("linalg.py", tree) == [1, 3, 4]
    assert _one_argument_fractions("maps.py", tree) == [1, 3, 4, 7]


def _imports(tree, name):
    """Line numbers of imports under tree that bind the module or name
    `name`, as `import name`, `from name import ..` or `from .. import
    name`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(m.split(".")[0] == name for m in modules):
            lines.append(node.lineno)
    return lines


def _imports_outside_linalg(name):
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), line)
                     for line in _imports(tree, name))
    return found


def test_only_linalg_imports_fractions():
    # every other module works on the int stores and reads Fractions only
    # from their views, so the Fraction format is known in one place
    found = _imports_outside_linalg("fractions")
    assert found == [], "fractions imported outside linalg: %s" % found


def test_only_linalg_imports_one():
    # a sum started at ONE, or a product by it, makes a Fraction where the
    # int 1 makes none
    found = _imports_outside_linalg("ONE")
    assert found == [], "ONE imported outside linalg: %s" % found


def test_import_lint_sees_every_form():
    tree = ast.parse(
        "import fractions\n"
        "from fractions import Fraction\n"
        "import fractions as fr\n"
        "from .linalg import ONE, ZERO\n"
        "from .linalg import ZERO\n"
        "from . import fractions_util\n")
    assert _imports(tree, "fractions") == [1, 2, 3]
    assert _imports(tree, "ONE") == [4]


# the attributes a structure's classical checkers read; check_lie and its
# kind keep their result on the structure, which is sound only while none
# of these is reassigned after construction; likewise a sparse table's int
# store and denominator, which its kept Fraction view is built from
FROZEN_ATTRIBUTES = {"bracket", "action", "product", "bmodule", "coproduct",
                     "_store", "entries", "values", "_ints", "_denominator"}
# where they may be set: every __init__, the unchecked map and cochain
# constructors, and the SparseTable store setter they all go through
FROZEN_SETTERS = {("MultilinearMap", "_trusted"), ("AltCochain", "_from_ints"),
                  ("SparseTable", "_set_ints")}


def _frozen_assignments(tree):
    """Line numbers of assignments to FROZEN_ATTRIBUTES under tree, as
    targets or through setattr, outside the constructors that set them."""
    skip = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            name = getattr(fn, "name", None)
            if name == "__init__" or (cls.name, name) in FROZEN_SETTERS:
                skip.update(id(node) for node in ast.walk(fn))
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "setattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in FROZEN_ATTRIBUTES):
            lines.append(node.lineno)
            continue
        else:
            continue
        for target in targets:
            if any(isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                   and sub.attr in FROZEN_ATTRIBUTES for sub in ast.walk(target)):
                lines.append(node.lineno)
    return sorted(lines)


def test_package_never_reassigns_structure_maps():
    # a map reassigned after construction would leave a kept check_lie,
    # check_module, check_poisson, check_coassociativity or check_lr result
    # describing maps the structure no longer has
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), line)
                     for line in _frozen_assignments(tree))
    assert found == [], "structure maps reassigned: %s" % found


def test_frozen_lint_sees_assignments_outside_constructors():
    tree = ast.parse(
        "class LieAlgebra:\n"
        "    def __init__(self, bracket):\n"
        "        self.bracket = bracket\n"
        "    def rebase(self, bracket):\n"
        "        self.bracket = bracket\n"
        "class MultilinearMap:\n"
        "    def _trusted(self, table):\n"
        "        self.entries = table\n"
        "    def _like(self, table):\n"
        "        self.entries, self.domain = table, None\n"
        "def grow(m, t, C):\n"
        "    m.values += t\n"
        "    C.coproduct: dict = {}\n"
        "    setattr(m, 'action', t)\n"
        "    m.entries[0] = 1\n"
        "    m.name = 'x'\n"
        "class AltCochain:\n"
        "    def _from_ints(cls, ints, den):\n"
        "        f._ints, f._denominator = ints, den\n"
        "    def rescale(self, k):\n"
        "        self._denominator *= k\n"
        "        self._ints = {}\n"
        "        self._values = None\n"
        "    @property\n"
        "    def values(self):\n"
        "        setattr(self, '_denominator', 1)\n")
    assert _frozen_assignments(tree) == [5, 10, 12, 13, 14, 21, 22, 26]



def _clear_denominators_uses(tree):
    """Line numbers of imports and attribute reads of clear_denominators."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                and any(alias.name.split(".")[-1] == "clear_denominators"
                        for alias in node.names))
            or (isinstance(node, ast.Attribute)
                and node.attr == "clear_denominators")]


def test_only_linalg_clears_denominators():
    # the int-over-denominator format is known in linalg alone: every other
    # module reads SparseTable and RationalMatrix stores, or their views
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend("%s:%d" % (path.relative_to(PACKAGE), line)
                     for line in _clear_denominators_uses(tree))
    assert found == [], "clear_denominators outside linalg: %s" % found


def test_clear_denominators_lint_sees_imports_and_attributes():
    tree = ast.parse(
        "from .linalg import ZERO, clear_denominators\n"
        "from . import linalg\n"
        "a = linalg.clear_denominators([{}])\n"
        "b = clear_denominators\n")
    assert _clear_denominators_uses(tree) == [1, 3]

BAD_INPUTS = """
import json

from tdhom import corpus
from tdhom.algebra import AssociativeAlgebra, LieAlgebra, LieModule, PoissonAlgebra
from tdhom.coalgebra import Coalgebra
from tdhom.cohomology import AltCochain
from tdhom.convolution import HomElement, induced, matrix_units
from tdhom.errors import MalformedInput, ParseError, ScalarError, ShapeError
from tdhom.files import parse_structure
from tdhom.linalg import BasedSpace, Permutation, RationalMatrix, solve
from tdhom.maps import MultilinearMap

V = BasedSpace("V", ["x", "y"])
W = BasedSpace("W", ["w"])
ternary = MultilinearMap([V] * 3, V, {((0, 1, 0), 1): 1})
binary = MultilinearMap([V, V], V, {})
into_w = MultilinearMap([V, V], W, {})
sl2 = corpus.load("sl2")
heis = corpus.load("heisenberg")
t2 = corpus.get_coalgebra("tensor-ab-2")
tx3 = corpus.get_coalgebra("tensor-x-3")
op = induced(sl2.bracket, t2)
lie_v = LieAlgebra(V, binary)


def sl2_with_domain_entry(value):
    doc = json.loads(corpus.fixture_text("sl2"))
    doc["maps"][0]["domain"][1] = value
    return json.dumps(doc)


cases = [
    (ShapeError, lambda: LieAlgebra(V, ternary)),
    (ShapeError, lambda: LieAlgebra(V, into_w)),
    (ShapeError, lambda: LieModule(lie_v, V, ternary)),
    (ShapeError, lambda: LieModule(lie_v, W, into_w)),
    (ShapeError, lambda: AssociativeAlgebra(V, ternary)),
    (ShapeError, lambda: PoissonAlgebra(V, binary, into_w)),
    (ShapeError, lambda: PoissonAlgebra(V, ternary, binary)),
    (MalformedInput, lambda: HomElement(t2, sl2.space, {(9, 0): 1})),
    (MalformedInput, lambda: HomElement(t2, sl2.space, {(0, -1): 1})),
    (ShapeError, lambda: HomElement(t2, sl2.space, [[1, 0]] * 3)),
    (ShapeError, lambda: op.apply(matrix_units(tx3, sl2.space)[:2])),
    (ShapeError, lambda: op.apply(matrix_units(t2, sl2.space)[:1])),
    (ShapeError, lambda: op.apply(matrix_units(t2, V)[:2])),
    (ValueError, lambda: t2.iterated_terms(0)),
    (ShapeError, lambda: sl2.bracket.apply_basis((0,))),
    (ShapeError, lambda: sl2.bracket.precompose_perm(Permutation.identity(3))),
    (ShapeError, lambda: op.materialize().argument_permute(Permutation.identity(3))),
    (ShapeError, lambda: op.materialize().sub(
        induced(sl2.bracket.compose_at(sl2.bracket, 1), t2).materialize())),
    (ShapeError, lambda: sl2.bracket.add(heis.bracket)),
    (ShapeError, lambda: HomElement.zero(t2, V).add(HomElement.zero(tx3, V))),
    (ShapeError, lambda: AltCochain(V, W, 1, {}).sub(AltCochain(V, W, 2, {}))),
    (ParseError, lambda: parse_structure(sl2_with_domain_entry([1]))),
    (ParseError, lambda: parse_structure(sl2_with_domain_entry({"L": 1}))),
    (ScalarError, lambda: RationalMatrix.from_rows([[0.1, 1]])),
    (ScalarError, lambda: RationalMatrix.from_rows([["x"]])),
    (ScalarError, lambda: RationalMatrix.zero(1, 1).set(0, 0, 0.5)),
    (ScalarError, lambda: solve(RationalMatrix.identity(1), [0.1])),
    (ScalarError, lambda: MultilinearMap([V], V, {((0,), 1): 0.1})),
    (ScalarError, lambda: HomElement(t2, sl2.space, {(0, 0): 0.1})),
    (ScalarError, lambda: Coalgebra(V, [(0, 0, 0, 0.5)])),
    (ScalarError, lambda: AltCochain(V, W, 1, {((0,), 0): 0.5})),
    (ScalarError, lambda: RationalMatrix.from_rows([[True, 0], [0, 1]])),
    (ScalarError, lambda: RationalMatrix.zero(1, 1).set(0, 0, False)),
    (ScalarError, lambda: solve(RationalMatrix.identity(1), [True])),
    (ScalarError, lambda: MultilinearMap([V], V, {((0,), 1): True})),
    (ScalarError, lambda: sl2.bracket.scale(True)),
    (ScalarError, lambda: HomElement(t2, sl2.space, {(0, 0): True})),
    (ScalarError, lambda: Coalgebra(V, [(0, 0, 0, True)])),
    (ScalarError, lambda: AltCochain(V, W, 1, {((0,), 0): False})),
    (MalformedInput, lambda: MultilinearMap([V], V, {((0.5,), 0): 1})),
    (MalformedInput, lambda: MultilinearMap([V], V, {((True,), 0): 1})),
    (MalformedInput, lambda: MultilinearMap([V], V, {((0,), 1.0): 1})),
    (MalformedInput, lambda: Coalgebra(V, [(0.5, 0, 0, 1)])),
    (MalformedInput, lambda: Coalgebra(V, [(0, True, 0, 1)])),
    (MalformedInput, lambda: Coalgebra(V, {(0, 0, 1.0): 1})),
    (MalformedInput, lambda: HomElement(t2, sl2.space, {(True, 0): 1})),
    (MalformedInput, lambda: HomElement(t2, sl2.space, {(0, 1.0): 1})),
    (MalformedInput, lambda: AltCochain(V, W, 1, {((True,), 0): 1})),
    (MalformedInput, lambda: AltCochain(V, W, 1, {((0,), 0.0): 1})),
    (MalformedInput, lambda: AltCochain(V, W, 1, {((1.0,), 0): 1})),
    (MalformedInput, lambda: AltCochain(V, W, 0, {((), False): 1})),
    (ShapeError, lambda: AltCochain(V, W, 1, {((2,), 0): 1})),
    (ShapeError, lambda: AltCochain(V, W, 2, {((1, 0), 0): 1})),
]
for pos, (error, case) in enumerate(cases):
    try:
        case()
    except error:
        continue
    except Exception as exc:
        raise SystemExit("case %d raised %r, expected %s" % (pos, exc, error.__name__))
    raise SystemExit("case %d raised nothing, expected %s" % (pos, error.__name__))
print("ok")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_bad_inputs_raise_typed_errors(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdhom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", BAD_INPUTS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "ok"


# dataclasses imports inspect, and inspect imports ast, dis and tokenize
STARTUP_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdhom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, tdhom.cli; print(sorted(m for m in %r "
            "if m in sys.modules))" % (STARTUP_HEAVY,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCheckRecords:
    """Witness and CheckResult keep the behaviour of the frozen
    dataclasses they replaced."""

    def test_fields_defaults_and_equality(self):
        w = Witness(("x", "y"), (("z", 1),))
        r = CheckResult("lie", False, w)
        assert (r.name, r.ok, r.witness, r.detail) == ("lie", False, w, "")
        assert r == CheckResult("lie", False, Witness(("x", "y"), (("z", 1),)))
        assert r != CheckResult("lie", False, w, detail="jacobi")
        assert hash(r) == hash(CheckResult("lie", False, w, ""))
        assert w != (("x", "y"), (("z", 1),))
        assert CheckResult("lie", True) != ("lie", True, None, "")
        assert repr(CheckResult("lie", True)) == "CheckResult('lie', True, None, '')"

    def test_immutable_and_copyable(self):
        r = CheckResult("lie", True, detail="2 checks")
        with pytest.raises(AttributeError):
            r.ok = False
        with pytest.raises(AttributeError):
            del r.detail
        with pytest.raises(AttributeError):
            r.extra = 1
        assert copy.copy(r) == copy.deepcopy(r) == r
        assert r.ok and r.detail == "2 checks"


# every shipped fixture, plus a coalgebra document, which no fixture is
FUZZ_SEEDS = [json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURES]
FUZZ_SEEDS.append(json.loads(serialize_structure(
    build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 2), name="tensor-ab-2")))

# a deleted key or list element, swapped types, negative and out-of-range
# indices, and a zero denominator
DELETE = object()
MUTATIONS = (DELETE, None, True, 0, -1, 2, 99, 1.5, "", "L", "1/0", "x",
             [], [0], [[1]], {}, {"L": 1})


def _paths_by_field(doc):
    """Every path into doc, grouped by field: list positions read as '*'."""
    groups = {}
    stack = [((), doc)]
    while stack:
        path, node = stack.pop()
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            field = tuple("*" if isinstance(k, int) else k for k in path + (key,))
            groups.setdefault(field, []).append(path + (key,))
            stack.append((path + (key,), child))
    return groups


def _mutate(doc, path, mutation):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)


def _parse_or_typed_error(text, skip_axioms=False):
    # the CLI turns exactly these into exit 2; anything else is a traceback
    try:
        parse_structure(text, unsafe_skip_axioms=skip_axioms)
    except (ParseError, MalformedInput, AxiomError):
        pass


def test_every_single_mutation_fails_only_with_typed_errors():
    # each field of each seed document, at its first occurrence, under
    # each mutation: rare fields get the same attention as coefficients
    for seed in FUZZ_SEEDS:
        for paths in _paths_by_field(seed).values():
            for mutation in MUTATIONS:
                doc = copy.deepcopy(seed)
                _mutate(doc, paths[0], mutation)
                for skip_axioms in (False, True):
                    _parse_or_typed_error(json.dumps(doc), skip_axioms)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        by_field = _paths_by_field(doc)
        paths = by_field[draw(st.sampled_from(sorted(by_field)))]
        _mutate(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(MUTATIONS)))
    return json.dumps(doc)


@given(mutated_documents(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_documents_fail_only_with_typed_errors(text, skip_axioms):
    _parse_or_typed_error(text, skip_axioms)
