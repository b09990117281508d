"""Lie algebra / commutative ring pairs and their coalgebra-twisted images.

A pair consists of a Lie bracket on L, a commutative associative product on
B, an action of L on B by derivations, and a B-module structure on L, tied
together by two compatibility identities (the action is B-linear in its L
argument; the bracket interacts with the module structure through a twisted
Leibniz rule).  Everything is checked by exact map equality.

Each identity is stated once, in PAIR_IDENTITIES, and decided both as maps
(check_lr) and as operators on maps out of a coalgebra, each rearrangement
twisted (check_td_lr); both read the composites the pair builds once.
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
from .checks import CheckResult, combine, decided_once, require
from .cohomology import AltCochain, alt_basis, ce_differential
from .convolution import (
    DEFAULT_GUARD_LIMIT,
    check_size,
    operator_identity_check,
    twisted_sum,
)
from .errors import AxiomError, ShapeError
from .linalg import (
    RationalMatrix,
    SparseColumns,
    common_ints,
    solve,
)
from .maps import map_identity_check, term_sum

# (name, left terms, right terms); a term (outer, inner, slot, p, sign) is
# sign * (outer . inner at slot) . p, maps named by pair attribute, p None
# for no rearrangement.  A witness is labelled by the left side's domain.
PAIR_IDENTITIES = (
    # action(bmodule(a, x), b) = product(a, action(x, b))
    ("action-linearity", (("action", "bmodule", 0, None, 1),),
     (("product", "action", 1, None, 1),)),
    # bracket(x, bmodule(a, y))
    #   = bmodule(a, bracket(x, y)) + bmodule(action(x, a), y)
    ("module-leibniz", (("bracket", "bmodule", 1, None, 1),),
     (("bmodule", "bracket", 1, SWAP_FIRST_TWO, 1),
      ("bmodule", "action", 0, None, 1))),
    # bracket(bmodule(a, x), y)
    #   = bmodule(a, bracket(x, y)) - bmodule(action(y, a), x)
    ("module-leibniz-rewritten", (("bracket", "bmodule", 0, None, 1),),
     (("bmodule", "bracket", 1, None, 1),
      ("bmodule", "action", 0, PRODUCT_CYCLE, -1))),
    # action(x, product(a, b))
    #   = product(action(x, a), b) + product(a, action(x, b))
    ("derivation", (("action", "product", 1, None, 1),),
     (("product", "action", 0, None, 1),
      ("product", "action", 1, SWAP_FIRST_TWO, 1))),
    # bmodule(a, bmodule(b, x)) = bmodule(product(a, b), x)
    ("bmodule-associative", (("bmodule", "bmodule", 1, None, 1),),
     (("bmodule", "product", 0, None, 1),)),
    # classical only: the rewritten right side is minus the plain one with
    # the arguments cycled, so the two Leibniz displays state one identity
    ("leibniz-forms-agree",
     (("bmodule", "bracket", 1, None, 1),
      ("bmodule", "action", 0, PRODUCT_CYCLE, -1)),
     (("bmodule", "bracket", 1, SWAP_FIRST_TWO.then(PRODUCT_CYCLE), -1),
      ("bmodule", "action", 0, PRODUCT_CYCLE, -1))),
)


class LieRinehartPair:
    """bracket: L,L -> L; product: B,B -> B; action: L,B -> B;
    bmodule: B,L -> L.  lie (L with its bracket) and ring_module (L acting
    on the ring B) are built once, unchecked, so the results their checkers
    keep last as long as the pair."""

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
        self.lie = LieAlgebra(lie_space, bracket, check=False, name=name)
        self.ring_module = LieModule(self.lie, ring_space, action, check=False,
                                     name="%s-ring" % name)
        self._composites = {}
        if check:
            require(check_lr(self), "pair axioms fail: ")

    def terms(self, side):
        """A side of a PAIR_IDENTITIES row as (map, p, sign) terms.  Each
        composite is built on first use and kept: the maps never change."""
        out = []
        for outer, inner, slot, p, sign in side:
            key = outer, inner, slot
            if key not in self._composites:
                self._composites[key] = getattr(self, outer).compose_at(
                    getattr(self, inner), slot)
            out.append((self._composites[key], p, sign))
        return out


@decided_once
def check_lr(pair):
    """Every classical pair axiom, one witness-carrying result per axiom."""
    linearity, leibniz, rewritten, derivation, bmodule_assoc, forms_agree = [
        map_identity_check(name, term_sum(pair.terms(left)),
                           term_sum(pair.terms(right)))
        for name, left, right in PAIR_IDENTITIES]
    return combine("lie-rinehart", [
        check_lie(pair.lie),
        check_associative(pair.product),
        check_commutative(pair.product),
        bmodule_assoc,
        check_module(pair.ring_module),
        derivation,
        linearity,
        leibniz,
        rewritten,
        forms_agree,
    ])


class TDLRStructure:
    """A pair together with a coalgebra, over which its identities are
    decided as operators on maps out of the coalgebra."""

    def __init__(self, pair, coalgebra):
        self.pair = pair
        self.coalgebra = coalgebra


@decided_once
def check_td_lr(s):
    """The twisted pair identities, every row of PAIR_IDENTITIES but the
    classical last, checked as exact operator equalities.  They are
    decided once per structure; later calls return the kept result."""
    pair, C = s.pair, s.coalgebra
    return combine("td-lie-rinehart", [
        operator_identity_check("td-" + name,
                                twisted_sum(pair.terms(left), C),
                                twisted_sum(pair.terms(right), C))
        for name, left, right in PAIR_IDENTITIES[:-1]])


def _slot_defect(fmap, pair):
    """Base map of the slot-1 scaling identity, left side minus right, on
    (B, L, .., L) -> B: both sides are untwisted induced operators, so the
    identity holds exactly when this map or the coproduct of its arity
    vanishes.  For a skew fmap the slot-i defect is (-1)^(i-1) times this
    one with the i-th Lie argument moved to the front, so slot 1 decides
    every slot."""
    return fmap.compose_at(pair.bmodule, 0).sub(
        pair.product.compose_at(fmap, 1))


def blinear_subspace(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """Basis, in cochain coordinates, of the degree-n cochains whose
    induced operators let ring factors pass out through every slot.

    Degree zero has no slots, so all of the ring space qualifies.  While
    Delta^(n+1) lives, the subspace is the kernel of the slot-1 defects
    stacked over cochains, one per cochain and priced by their number for
    check_size; after, every defect vanishes and nothing is built.
    tests/td_oracle.py still decides every slot's defect on
    InducedOperators as the oracle.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    pair, C = s.pair, s.coalgebra
    L, B = pair.lie_space, pair.ring_space
    basis = alt_basis(L, B, n)
    stacked = SparseColumns(len(basis))
    if n >= 1 and basis and C.iterated_terms(n + 1):
        check_size(len(basis), guard_limit)
        defects = [
            _slot_defect(AltCochain._from_ints(L, B, n, {key: 1}, 1).as_map(),
                         pair)
            for key in basis]
        # over one common denominator: the matrix is scaled, its kernel is not
        tables, _ = common_ints(defects)
        for ci, table in enumerate(tables):
            for row, v in table.items():
                stacked.add(ci, row, v)
    return stacked.kernel_basis()


def check_subcomplex(s, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    """The differential keeps ring-linear cochains ring-linear, degree by
    degree up to maxdeg; membership is decided by one exact solve per degree.

    The images are classical differentials, which td_differential_induced
    would return.  A cochain escaping the subspace would be a
    counterexample to the underlying structure theorem, so that raises
    instead of reporting; the subspace is cut out by the slot-1 defects,
    so the error names slot 1.
    """
    result = check_td_lr(s)
    if not result:
        raise AxiomError(
            "precondition failed (%s): %s" % (result.name, result.describe()),
            result)
    pair = s.pair
    L, B = pair.lie_space, pair.ring_space
    M = pair.ring_module
    checked = 0
    current = blinear_subspace(0, s, guard_limit)
    for n in range(maxdeg + 1):
        target = blinear_subspace(n + 1, s, guard_limit)
        if current:
            index = {key: i for i, key in enumerate(alt_basis(L, B, n + 1))}
            images = [ce_differential(AltCochain.from_vector(L, B, n, vec), M)
                      for vec in current]
            # both sides written as sparse rows: the span from the nonzero
            # coordinates of the target basis, the images from their values
            span = [{} for _ in index]
            for j, vec in enumerate(target):
                for c, q in enumerate(vec):
                    if q:
                        span[c][j] = q
            # each image times its denominator: as solvable as the image
            rhs = [{} for _ in index]
            for j, image in enumerate(images):
                for key, v in image._ints.items():
                    rhs[index[key]][j] = v
            solutions = solve(RationalMatrix._from_sparse_rows(len(target), span),
                              RationalMatrix._from_sparse_rows(len(images), rhs))
            for image, x in zip(images, solutions):
                if x is None:
                    # the target is the kernel of the slot-1 defects, so an
                    # image outside it fails at slot 1; the image is named
                    # by its nonzero values in key order
                    values = ", ".join(str(q) for _key, q
                                       in sorted(image.values.items()))
                    raise AxiomError(
                        "image [%s] of a linear degree-%d cochain leaves the "
                        "linear subspace (slot 1 fails)" % (values, n))
            checked += len(images)
        current = target
    return CheckResult("td-subcomplex", True,
                       detail="%d images checked" % checked)
