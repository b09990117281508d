"""Input validation that survives python -O.

Callers' mistakes must end in a typed error, never in an assert that -O
strips: a lint pass forbids assert statements in the package, and a
subprocess replays bad inputs with and without -O.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdhom

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tdhom"

# internal invariants that may stay asserts: (file, class, function)
ASSERT_ALLOWED = {("linalg.py", "RationalMatrix", "_echelon")}


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


BAD_INPUTS = """
from tdhom import corpus
from tdhom.algebra import AssociativeAlgebra, LieAlgebra, LieModule, PoissonAlgebra
from tdhom.cohomology import AltCochain
from tdhom.convolution import HomElement, induced, matrix_units
from tdhom.errors import MalformedInput, ShapeError
from tdhom.linalg import BasedSpace, Permutation
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
