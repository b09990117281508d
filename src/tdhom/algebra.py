"""Lie algebras, Lie modules and Poisson algebras by structure constants.

Axiom checks run eagerly on construction and raise AxiomError; pass
check=False to build a deliberately broken structure (the test suite and the
CLI's unsafe flag need that).  Checkers verify identities on every basis
tuple, with the permutations written out, and report the lexicographically
first failing tuple.
"""

from .checks import combine
from .errors import AxiomError, ShapeError
from .linalg import Permutation, table_sum
from .maps import map_identity_check

# cycle 0 -> 1 -> 2 -> 0 on three slots: the Jacobi sum runs over its powers
JACOBI_CYCLE = Permutation([1, 2, 0])
# its two nontrivial powers, the rearrangements added to the nested term
JACOBI_ROTATIONS = (JACOBI_CYCLE, JACOBI_CYCLE.then(JACOBI_CYCLE))
# the inverse cycle: moves the last argument in front, fixing the order of
# the other two; this is the twist in the bracket/product compatibility law
PRODUCT_CYCLE = Permutation([2, 0, 1])
SWAP = Permutation([1, 0])
SWAP_FIRST_TWO = Permutation([1, 0, 2])


def _require_binary(op, space, what):
    """ShapeError unless op is a binary map into space."""
    if op.arity != 2 or op.codomain is not space:
        raise ShapeError("%s must be a binary map into %s" % (what, space.name))


class LieAlgebra:
    def __init__(self, space, bracket, check=True, name=""):
        _require_binary(bracket, space, "bracket")
        self.space = space
        self.bracket = bracket
        self.name = name or space.name
        if check:
            result = check_lie(self)
            if not result:
                raise AxiomError("Lie axioms fail: " + result.describe(), result)

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.space.dim)


class LieModule:
    def __init__(self, base, space, action, check=True, name=""):
        _require_binary(action, space, "action")
        if action.domain[0] is not base.space or action.domain[1] is not space:
            raise ShapeError("action must map %s x %s -> %s"
                             % (base.space.name, space.name, space.name))
        self.base = base
        self.space = space
        self.action = action
        self.name = name or "%s-module" % base.name
        if check:
            result = check_module(self)
            if not result:
                raise AxiomError("module axiom fails: " + result.describe(), result)

    def __repr__(self):
        return "LieModule(%s on %s)" % (self.base.name, self.space.name)


class AssociativeAlgebra:
    def __init__(self, space, product, check=True, name=""):
        _require_binary(product, space, "product")
        self.space = space
        self.product = product
        self.name = name or space.name
        if check:
            result = check_associative(self.product)
            if not result:
                raise AxiomError("associativity fails: " + result.describe(), result)


class PoissonAlgebra:
    def __init__(self, space, bracket, product, check=True, name=""):
        _require_binary(bracket, space, "bracket")
        _require_binary(product, space, "product")
        self.space = space
        self.bracket = bracket
        self.product = product
        self.name = name or space.name
        if check:
            result = check_poisson(self)
            if not result:
                raise AxiomError("Poisson axioms fail: " + result.describe(), result)

    def __repr__(self):
        return "PoissonAlgebra(%s, dim=%d)" % (self.name, self.space.dim)


def skew_symmetry_check(bracket):
    flipped = bracket.precompose_perm(SWAP)
    return map_identity_check("skew-symmetry", flipped, bracket.scale(-1))


def jacobi_check(bracket):
    """bracket(1 x bracket) summed over the three cyclic rotations is zero."""
    nested = bracket.compose_at(bracket, 1)
    total = table_sum([nested] + [nested.precompose_perm(r) for r in JACOBI_ROTATIONS])
    return map_identity_check("jacobi", total, total.scale(0))


def check_lie(L):
    return combine("lie", [skew_symmetry_check(L.bracket), jacobi_check(L.bracket)])


def check_module(M):
    """action(bracket x 1) = action(1 x action) - action(1 x action) . swap."""
    lhs = M.action.compose_at(M.base.bracket, 0)
    nested = M.action.compose_at(M.action, 1)
    rhs = nested.sub(nested.precompose_perm(SWAP_FIRST_TWO))
    return map_identity_check("module", lhs, rhs)


def check_associative(product):
    lhs = product.compose_at(product, 0)
    rhs = product.compose_at(product, 1)
    return map_identity_check("associativity", lhs, rhs)


def check_commutative(product):
    return map_identity_check("commutativity", product.precompose_perm(SWAP), product)


def leibniz_check(bracket, product):
    """bracket(1 x product) = product(1 x bracket) . rot + product(1 x bracket) . swap01.

    rot moves the last factor in front: evaluated on (x, y, z) the right side
    is product(z, bracket(x, y)) + product(y, bracket(x, z)), which together
    with commutativity is the derivation property of bracket(x, -).
    """
    lhs = bracket.compose_at(product, 1)
    mixed = product.compose_at(bracket, 1)
    rhs = mixed.precompose_perm(PRODUCT_CYCLE).add(mixed.precompose_perm(SWAP_FIRST_TWO))
    return map_identity_check("leibniz", lhs, rhs)


def check_poisson(P):
    return combine("poisson", [
        skew_symmetry_check(P.bracket),
        jacobi_check(P.bracket),
        check_associative(P.product),
        check_commutative(P.product),
        leibniz_check(P.bracket, P.product),
    ])


def load_structure_constants(text, unsafe_skip_axioms=False):
    """Parse a structure file; axiom failures raise unless explicitly skipped."""
    from .files import parse_structure

    return parse_structure(text, unsafe_skip_axioms=unsafe_skip_axioms)
