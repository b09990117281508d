"""Lie algebras, Lie modules and Poisson algebras by structure constants.

Axiom checks run eagerly on construction and raise AxiomError; pass
check=False to build a deliberately broken structure (the test suite and the
CLI's unsafe flag need that).  Checkers verify identities on every basis
tuple, with the permutations written out, and report the lexicographically
first failing tuple.

Results are kept.  A structure's maps are never reassigned after
construction, so check_lie, check_module and check_poisson decide once per
structure and keep the result on it: the construction-time check fills the
slot, and every later call (a verify entry, a twisted checker's
precondition) returns the kept result.  A structure built with check=False
decides on first use.
"""

from .checks import combine, decided_once, require
from .errors import ShapeError
from .linalg import Permutation, common_ints
from .maps import map_identity_check, signed_sum

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
            require(check_lie(self), "Lie axioms fail: ")

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
        self._cleared = None
        if check:
            require(check_module(self), "module axiom fails: ")

    def cleared_constants(self):
        """(N, pairs, acting): the bracket and action constants as ints.

        N is the least common denominator of all of them.  pairs[a] lists
        (x, y, N c) for each bracket constant [e_x, e_y] = c e_a with
        x < y, and acting[(t, b)] is {o: N r} for each action constant
        e_t . e_b = r e_o.  Built on first use and cached, like the maps'
        own groupings: neither map changes after construction.
        """
        if self._cleared is None:
            (bracket, action), N = common_ints([self.base.bracket, self.action])
            pairs, acting = {}, {}
            for ((x, y), a), c in bracket.items():
                if x < y:
                    pairs.setdefault(a, []).append((x, y, c))
            for (tb, o), r in action.items():
                acting.setdefault(tb, {})[o] = r
            self._cleared = N, pairs, acting
        return self._cleared

    def __repr__(self):
        return "LieModule(%s on %s)" % (self.base.name, self.space.name)


class AssociativeAlgebra:
    def __init__(self, space, product, check=True, name=""):
        _require_binary(product, space, "product")
        self.space = space
        self.product = product
        self.name = name or space.name
        if check:
            require(check_associative(self.product), "associativity fails: ")


class PoissonAlgebra:
    def __init__(self, space, bracket, product, check=True, name=""):
        _require_binary(bracket, space, "bracket")
        _require_binary(product, space, "product")
        self.space = space
        self.bracket = bracket
        self.product = product
        self.name = name or space.name
        if check:
            require(check_poisson(self), "Poisson axioms fail: ")

    def __repr__(self):
        return "PoissonAlgebra(%s, dim=%d)" % (self.name, self.space.dim)


def skew_symmetry_check(bracket):
    flipped = bracket.precompose_perm(SWAP)
    return map_identity_check("skew-symmetry", flipped, bracket.scale(-1))


def jacobi_check(bracket):
    """bracket(1 x bracket) summed over the three cyclic rotations is zero."""
    nested = bracket.compose_at(bracket, 1)
    total = signed_sum((1, nested, r) for r in (None,) + JACOBI_ROTATIONS)
    return map_identity_check("jacobi", total, total.scale(0))


@decided_once
def check_lie(L):
    return combine("lie", [skew_symmetry_check(L.bracket), jacobi_check(L.bracket)])


@decided_once
def check_module(M):
    """action(bracket x 1) = action(1 x action) - action(1 x action) . swap,
    decided on the defect, left side minus right, summed in ints."""
    bracketed = M.action.compose_at(M.base.bracket, 0)
    nested = M.action.compose_at(M.action, 1)
    defect = signed_sum([(1, bracketed, None), (-1, nested, None),
                         (1, nested, SWAP_FIRST_TWO)])
    return map_identity_check("module", defect, defect.scale(0))


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


@decided_once
def check_poisson(P):
    return combine("poisson", [
        skew_symmetry_check(P.bracket),
        jacobi_check(P.bracket),
        check_associative(P.product),
        check_commutative(P.product),
        leibniz_check(P.bracket, P.product),
    ])
