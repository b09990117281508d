"""Named example structures shipped with the package.

Algebraic structures live as structure files under fixtures/ and load
through the ordinary parser; coalgebras are built from the generators in
the coalgebra module.  Names are stable and used by the command line.
"""

from importlib import resources

from .coalgebra import (
    Coalgebra,
    build_exterior_square_coalgebra,
    build_symmetric_coalgebra,
    build_tensor_coalgebra,
)
from .files import parse_structure
from .linalg import BasedSpace

_COALGEBRA_BUILDERS = {
    "tensor-ab-2": lambda: build_tensor_coalgebra(
        BasedSpace("V", ("a", "b")), 2),
    "tensor-ab-3": lambda: build_tensor_coalgebra(
        BasedSpace("V", ("a", "b")), 3),
    "tensor-x-3": lambda: build_tensor_coalgebra(
        BasedSpace("V", ("x",)), 3),
    "symmetric-xy-2": lambda: build_symmetric_coalgebra(
        BasedSpace("V", ("x", "y")), 2),
    "exterior-ab": lambda: build_exterior_square_coalgebra(
        BasedSpace("V", ("a", "b"))),
    "zero-ab": lambda: Coalgebra(BasedSpace("V", ("a", "b")), []),
}

FIXTURES = (
    "sl2", "heisenberg", "abelian2", "vol3", "poisson3",
    "sl2-adjoint", "sl2-trivial", "heis-adjoint", "abelian2-trivial",
    "lr-trivial", "lr-dualnum", "lr-derx3",
    "broken-jacobi", "broken-skew",
)

LIE_NAMES = ("sl2", "heisenberg", "abelian2")
MODULE_NAMES = ("sl2-adjoint", "sl2-trivial", "heis-adjoint",
                "abelian2-trivial")
PAIR_NAMES = ("lr-trivial", "lr-dualnum", "lr-derx3")

_cache = {}


def coalgebra_names():
    return tuple(sorted(_COALGEBRA_BUILDERS))


def get_coalgebra(name):
    if name not in _COALGEBRA_BUILDERS:
        raise KeyError("unknown coalgebra %r" % name)
    if ("C", name) not in _cache:
        C = _COALGEBRA_BUILDERS[name]()
        C.structure_name = name
        _cache[("C", name)] = C
    return _cache[("C", name)]


def coalgebras():
    return {name: get_coalgebra(name) for name in coalgebra_names()}


def fixture_text(name):
    if name not in FIXTURES:
        raise KeyError("unknown fixture %r" % name)
    return (resources.files("tdhom") / "fixtures" / (name + ".json")) \
        .read_text(encoding="utf-8")


def load(name, unsafe_skip_axioms=False):
    """A fixture structure by name, parsed on first use and then cached in
    _cache per (name, unsafe_skip_axioms); every call with the same pair
    returns the same object.  Its axioms are checked unless
    unsafe_skip_axioms is set."""
    key = ("F", name, unsafe_skip_axioms)
    if key not in _cache:
        _cache[key] = parse_structure(
            fixture_text(name), unsafe_skip_axioms=unsafe_skip_axioms)
    return _cache[key]


def modules():
    return {name: load(name) for name in MODULE_NAMES}


def pairs():
    return {name: load(name) for name in PAIR_NAMES}


def skew_maps():
    """The named skew-symmetric maps used by the twisted-skew checks."""
    return {
        "sl2": load("sl2").bracket,
        "heisenberg": load("heisenberg").bracket,
        "vol3": load("vol3"),
    }


def td_check_pairs():
    """(structure name, coalgebra name) combinations small enough for the
    brute-force twisted-identity checks."""
    combos = []
    for lie in LIE_NAMES:
        for c in ("tensor-ab-2", "tensor-x-3", "symmetric-xy-2",
                  "exterior-ab", "zero-ab"):
            combos.append((lie, c))
    return tuple(combos)
