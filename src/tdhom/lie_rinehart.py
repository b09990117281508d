"""Lie algebra / commutative ring pairs and their coalgebra-twisted images.

A pair consists of a Lie bracket on L, a commutative associative product on
B, an action of L on B by derivations, and a B-module structure on L, tied
together by two compatibility identities (the action is B-linear in its L
argument; the bracket interacts with the module structure through a twisted
Leibniz rule).  Everything is checked by exact map equality.

The twisted half lifts all four operations to operators on maps out of a
coalgebra and re-verifies the compatibilities, with the argument-swap terms
replaced by their twisted counterparts.
"""

from .algebra import (
    PRODUCT_CYCLE,
    SWAP_FIRST_TWO,
    LieAlgebra,
    LieModule,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
)
from .checks import CheckResult, combine
from .cohomology import AltCochain, TDCochain, alt_basis, td_differential_induced
from .convolution import (
    compose_induced,
    induced,
    operator_identity_check,
    resolve_guard_limit,
    twisted_term,
)
from .errors import AxiomError, ShapeError
from .linalg import Permutation, RationalMatrix, SparseColumns, solve, table_sum
from .maps import map_identity_check
from .td_structures import TDLieStructure, TDModuleStructure


class LieRinehartPair:
    """bracket: L,L -> L; product: B,B -> B; action: L,B -> B;
    bmodule: B,L -> L."""

    def __init__(self, lie_space, ring_space, bracket, product, action,
                 bmodule, check=True, name=""):
        if tuple(bracket.domain) != (lie_space, lie_space) \
                or bracket.codomain is not lie_space:
            raise ShapeError("bracket must map L,L -> L")
        if tuple(product.domain) != (ring_space, ring_space) \
                or product.codomain is not ring_space:
            raise ShapeError("product must map B,B -> B")
        if tuple(action.domain) != (lie_space, ring_space) \
                or action.codomain is not ring_space:
            raise ShapeError("action must map L,B -> B")
        if tuple(bmodule.domain) != (ring_space, lie_space) \
                or bmodule.codomain is not lie_space:
            raise ShapeError("bmodule must map B,L -> L")
        self.lie_space = lie_space
        self.ring_space = ring_space
        self.bracket = bracket
        self.product = product
        self.action = action
        self.bmodule = bmodule
        self.name = name
        if check:
            result = check_lr(self)
            if not result:
                raise AxiomError("pair axioms fail: " + result.describe(), result)

    @property
    def lie(self):
        return LieAlgebra(self.lie_space, self.bracket, check=False,
                          name=self.name)


def _derivation_check(pair):
    """action(x, product(a, b)) = product(action(x, a), b)
    + product(a, action(x, b))."""
    lhs = pair.action.compose_at(pair.product, 1)
    left_leg = pair.product.compose_at(pair.action, 0)
    right_leg = pair.product.compose_at(pair.action, 1) \
        .precompose_perm(SWAP_FIRST_TWO)
    return map_identity_check("derivation", lhs, left_leg.add(right_leg))


def _bmodule_assoc_check(pair):
    """bmodule(a, bmodule(b, x)) = bmodule(product(a, b), x)."""
    lhs = pair.bmodule.compose_at(pair.bmodule, 1)
    rhs = pair.bmodule.compose_at(pair.product, 0)
    return map_identity_check("bmodule-associative", lhs, rhs)


def _linearity_check(pair):
    """action(bmodule(a, x), b) = product(a, action(x, b))."""
    lhs = pair.action.compose_at(pair.bmodule, 0)
    rhs = pair.product.compose_at(pair.action, 1)
    return map_identity_check("action-linearity", lhs, rhs)


def _leibniz_rhs(pair):
    """bmodule(a, bracket(x, y)) + bmodule(action(x, a), y) on (x, a, y)."""
    scaled = pair.bmodule.compose_at(pair.bracket, 1) \
        .precompose_perm(SWAP_FIRST_TWO)
    poked = pair.bmodule.compose_at(pair.action, 0)
    return scaled.add(poked)


def _leibniz_check(pair):
    """bracket(x, bmodule(a, y)) = bmodule(a, bracket(x, y))
    + bmodule(action(x, a), y)."""
    lhs = pair.bracket.compose_at(pair.bmodule, 1)
    return map_identity_check("module-leibniz", lhs, _leibniz_rhs(pair))


def _rewritten_rhs(pair):
    """bmodule(a, bracket(x, y)) - bmodule(action(y, a), x) on (a, x, y)."""
    first = pair.bmodule.compose_at(pair.bracket, 1)
    second = pair.bmodule.compose_at(pair.action, 0) \
        .precompose_perm(PRODUCT_CYCLE)
    return first.sub(second)


def _rewritten_check(pair):
    """bracket(bmodule(a, x), y) = bmodule(a, bracket(x, y))
    - bmodule(action(y, a), x); the skew-rearranged form of module-leibniz."""
    lhs = pair.bracket.compose_at(pair.bmodule, 0)
    return map_identity_check("module-leibniz-rewritten", lhs, _rewritten_rhs(pair))


def _forms_agree_check(pair):
    """The rewritten right side is minus the plain right side with the
    arguments cycled, so the two displays state the same identity."""
    transported = _leibniz_rhs(pair).precompose_perm(PRODUCT_CYCLE).scale(-1)
    return map_identity_check("leibniz-forms-agree", _rewritten_rhs(pair),
                              transported)


def check_lr(pair):
    """Every classical pair axiom, one witness-carrying result per axiom."""
    module = LieModule(
        LieAlgebra(pair.lie_space, pair.bracket, check=False),
        pair.ring_space, pair.action, check=False)
    return combine("lie-rinehart", [
        check_lie(module.base),
        check_associative(pair.product),
        check_commutative(pair.product),
        _bmodule_assoc_check(pair),
        check_module(module),
        _derivation_check(pair),
        _linearity_check(pair),
        _leibniz_check(pair),
        _rewritten_check(pair),
        _forms_agree_check(pair),
    ])


class TDLRStructure:
    """A pair together with a coalgebra; the four operations become induced
    operators on maps out of the coalgebra."""

    def __init__(self, pair, coalgebra):
        self.pair = pair
        self.coalgebra = coalgebra
        self.bracket_op = induced(pair.bracket, coalgebra)
        self.product_op = induced(pair.product, coalgebra)
        self.action_op = induced(pair.action, coalgebra)
        self.bmodule_op = induced(pair.bmodule, coalgebra)


def _td_identity(name, s, lhs_op, untwisted, twisted_parts):
    """lhs = sum of untwisted induced composites plus twisted terms.

    untwisted: list of (map, sign); twisted_parts: list of (map, perm, sign).
    """
    C = s.coalgebra
    lhs = lhs_op.materialize()
    total = table_sum(
        [induced(m, C).materialize().scale(sign) for m, sign in untwisted]
        + [twisted_term(m, C, perm).scale(sign) for m, perm, sign in twisted_parts])
    return operator_identity_check(name, lhs, total)


def check_td_lr(s):
    """The twisted pair identities, plus the agreement of the two twisted
    Leibniz displays, checked as exact operator equalities."""
    pair, C = s.pair, s.coalgebra
    linearity_lhs = compose_induced(s.action_op, s.bmodule_op, 0)
    leibniz_lhs = compose_induced(s.bracket_op, s.bmodule_op, 1)
    rewritten_lhs = compose_induced(s.bracket_op, s.bmodule_op, 0)
    derivation_lhs = compose_induced(s.action_op, s.product_op, 1)
    results = [
        _td_identity(
            "td-action-linearity", s, linearity_lhs,
            [(pair.product.compose_at(pair.action, 1), 1)], []),
        _td_identity(
            "td-module-leibniz", s, leibniz_lhs,
            [(pair.bmodule.compose_at(pair.action, 0), 1)],
            [(pair.bmodule.compose_at(pair.bracket, 1), SWAP_FIRST_TWO, 1)]),
        _td_identity(
            "td-module-leibniz-rewritten", s, rewritten_lhs,
            [(pair.bmodule.compose_at(pair.bracket, 1), 1)],
            [(pair.bmodule.compose_at(pair.action, 0), PRODUCT_CYCLE, -1)]),
        _td_identity(
            "td-derivation", s, derivation_lhs,
            [(pair.product.compose_at(pair.action, 0), 1)],
            [(pair.product.compose_at(pair.action, 1), SWAP_FIRST_TWO, 1)]),
        _td_untwisted_bmodule(s),
    ]
    return combine("td-lie-rinehart", results)


def _td_untwisted_bmodule(s):
    """Induced product and module operators compose with no twist at all."""
    lhs = compose_induced(s.bmodule_op, s.bmodule_op, 1).materialize()
    rhs = compose_induced(s.bmodule_op, s.product_op, 0).materialize()
    return operator_identity_check("td-bmodule-associative", lhs, rhs)


def linearity_twist(i, n):
    """How the slot-i ring-scaling identity on n-ary operators reads its
    right side: scaling inside slot i puts the ring argument at position
    i-1, pulling it out leaves it at the front, and this cycle carries the
    front back to position i-1 while the slots it crossed shift down.

    Flipping the cycle is not harmless: over a coalgebra with four-letter
    words and a free rank-three module the flipped reading empties the
    degree-3 linear subspace that the straight reading keeps 2-dimensional.
    """
    if not 1 <= i <= n:
        raise ValueError("slot must lie in 1..%d, got %d" % (n, i))
    return Permutation([i - 1] + list(range(i - 1)) + list(range(i, n + 1)))


def _slot_defect(fmap, i, s, limit):
    """Left minus right side of the slot-i scaling identity, materialized."""
    pair, C = s.pair, s.coalgebra
    lhs = induced(fmap.compose_at(pair.bmodule, i - 1), C).materialize(limit)
    scaled = pair.product.compose_at(fmap, 1)
    rhs = twisted_term(scaled, C, linearity_twist(i, fmap.arity), limit)
    return lhs.sub(rhs)


def blinear_subspace(n, s, guard_limit=None):
    """Basis, in cochain coordinates, of the degree-n cochains whose
    induced operators let ring factors pass out through every slot.

    Degree zero has no slots, so all of the ring space qualifies.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    pair = s.pair
    L, B = pair.lie_space, pair.ring_space
    limit = resolve_guard_limit(guard_limit)
    basis = alt_basis(L, B, n)
    stacked = SparseColumns(len(basis))
    if n >= 1:
        for ci, key in enumerate(basis):
            fmap = AltCochain(L, B, n, {key: 1}).as_map()
            for i in range(1, n + 1):
                defect = _slot_defect(fmap, i, s, limit)
                for op_key, q in defect.entries.items():
                    stacked.add(ci, (i, op_key), q)
    return stacked.kernel_basis()


def _hom_module(s):
    lie = LieAlgebra(s.pair.lie_space, s.pair.bracket, check=False,
                     name=s.pair.name)
    module = LieModule(lie, s.pair.ring_space, s.pair.action, check=False,
                       name="%s-ring" % s.pair.name)
    td = TDLieStructure(lie, s.coalgebra, check=False)
    return TDModuleStructure(td, module, check=False)


def _violating_slot(cochain, s, limit):
    fmap = cochain.as_map()
    for i in range(1, cochain.degree + 1):
        if not _slot_defect(fmap, i, s, limit).is_zero():
            return i
    return 0


def check_subcomplex(s, maxdeg, guard_limit=None):
    """The differential keeps ring-linear cochains ring-linear, degree by
    degree up to maxdeg; membership is decided by one exact solve per degree.

    A cochain escaping the subspace would be a counterexample to the
    underlying structure theorem, so that raises instead of reporting.
    """
    result = check_td_lr(s)
    if not result:
        raise AxiomError(
            "precondition failed (%s): %s" % (result.name, result.describe()),
            result)
    pair = s.pair
    L, B = pair.lie_space, pair.ring_space
    limit = resolve_guard_limit(guard_limit)
    tdm = _hom_module(s)
    checked = 0
    current = blinear_subspace(0, s, limit)
    for n in range(maxdeg + 1):
        target = blinear_subspace(n + 1, s, limit)
        if current:
            nrows = len(alt_basis(L, B, n + 1))
            images = [
                td_differential_induced(
                    TDCochain(AltCochain.from_vector(L, B, n, vec), s.coalgebra),
                    tdm, limit).inducing
                for vec in current]
            span = RationalMatrix.from_columns(nrows, target)
            rhs = RationalMatrix.from_columns(
                nrows, [image.components() for image in images])
            for image, x in zip(images, solve(span, rhs)):
                if x is None:
                    slot = _violating_slot(image, s, limit)
                    raise AxiomError(
                        "image %r of a linear degree-%d cochain leaves the "
                        "linear subspace (slot %d fails)" % (image, n, slot))
            checked += len(images)
        current = target
    return CheckResult("td-subcomplex", True,
                       detail="%d images checked" % checked)
