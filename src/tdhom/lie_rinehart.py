"""Lie algebra / commutative ring pairs and their coalgebra-twisted images.

A pair consists of a Lie bracket on L, a commutative associative product on
B, an action of L on B by derivations, and a B-module structure on L, tied
together by two compatibility identities (the action is B-linear in its L
argument; the bracket interacts with the module structure through a twisted
Leibniz rule).  Everything is decided exactly.

Each identity is stated once, in PAIR_IDENTITIES, and its int defect,
the difference of its sides, is summed once in an int pass building no
map (row_defects, through algebra.composite_defect); check_lr decides the
rows off it.  check_td_lr decides the rows as operators out of a
coalgebra, each rearrangement twisted.  Twisting by p and then
rearranging by p cancel, so a twisted row's sides differ by its classical
defect induced: a row whose defect is zero passes with no map built, and
a failing row is decided, with its witness, on that one operator
(convolution.zero_check), which is never laid out.

check_subcomplex shows that d keeps ring-linear cochains ring-linear: by
Rinehart's theorem where the pair's kept check_lr passes, ranking the
slot-1 defects only, and else by the sweep the tests keep as its oracle.
"""

from .algebra import (
    PRODUCT_CYCLE,
    SWAP_FIRST_TWO,
    LieAlgebra,
    LieModule,
    _decide,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
    composite_defect,
)
from .checks import CheckResult, Witness, combine, decided_once, kept, require
from .cohomology import AltCochain, alt_basis, ce_differential, increasing_tuples
from .convolution import DEFAULT_GUARD_LIMIT, check_size, induced, zero_check
from .errors import AxiomError, ShapeError
from .linalg import RationalMatrix, SparseColumns, common_ints, solve
from .maps import MultilinearMap

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
        if check:
            require(check_lr(self), "pair axioms fail: ")


@decided_once
def row_defects(pair):
    """Every PAIR_IDENTITIES row's defect (domain, codomain, ints, den), in
    table order, by composite_defect."""
    def named(side):
        return [(getattr(pair, outer), getattr(pair, inner), *rest)
                for outer, inner, *rest in side]
    return [composite_defect(named(left), named(right))
            for _name, left, right in PAIR_IDENTITIES]


def classical_rows(pair):
    """Every PAIR_IDENTITIES row decided off its kept defect."""
    return [_decide(name, *defect)
            for (name, _, _), defect in zip(PAIR_IDENTITIES, row_defects(pair))]


@decided_once
def check_lr(pair):
    """Every classical pair axiom, one witness-carrying result per axiom."""
    linearity, leibniz, rewritten, derivation, bmodule_assoc, forms_agree = \
        classical_rows(pair)
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
    classical last, each passing where its kept defect is zero and else
    decided on that defect induced.  They are decided once per structure;
    later calls return the kept result."""
    C = s.coalgebra
    return combine("td-lie-rinehart", [
        zero_check("td-" + name, induced(MultilinearMap._trusted(*defect), C))
        if any(defect[2].values()) else CheckResult("td-" + name, True)
        for (name, _, _), defect in zip(PAIR_IDENTITIES[:-1], row_defects(s.pair))])


def blinear_defects(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """The slot-1 defects of the degree-n basis cochains, one column each,
    whose kernel is blinear_subspace and whose rank is its codimension.

    The slot-1 scaling identity compares two untwisted induced operators,
    so it holds exactly when Delta^(n+1) or its base map, the defect
    f(bmodule(a, x1), R) - product(a, f(x1, R)), is zero.  For a skew f
    the slot-i defect is (-1)^(i-1) times this one with the i-th Lie
    argument moved to the front, so slot 1 decides every slot.  Degree 0
    has no slots, and no column has an entry there or where Delta^(n+1)
    is zero.  Elsewhere the columns are priced by their number for
    check_size: column (S, b) gets sign bm[a, x1]^t at row (a, x1, R, b)
    and -sign pr[a, b]^o at (a, t, R, o), for each t not in R with (t, R)
    sorting to S by sign.  The defect alternates in R, so a row with R not
    increasing is +- a row kept and only increasing R are written (the map
    route in tests/td_oracle.py writes them all)."""
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    pair, C = s.pair, s.coalgebra
    L, B = pair.lie_space, pair.ring_space
    basis = alt_basis(L, B, n)
    stacked = SparseColumns(len(basis))
    if n >= 1 and basis and C.lives(n + 1):
        check_size(len(basis), guard_limit)
        # over one common denominator: the matrix is scaled, its kernel is not
        (bm, pr), _ = common_ints([pair.bmodule, pair.product])
        first = {S: i * B.dim for i, S in enumerate(increasing_tuples(L.dim, n))}
        for R in increasing_tuples(L.dim, n - 1):
            for t in set(range(L.dim)).difference(R):
                k = sum(r < t for r in R)
                sign, col = (-1) ** k, first[R[:k] + (t,) + R[k:]]
                for ((a, x1), u), v in bm.items():
                    if u == t:
                        for b in range(B.dim):
                            stacked.add(col + b, (a, x1, R, b), sign * v)
                for ((a, b), o), v in pr.items():
                    stacked.add(col + b, (a, t, R, o), -sign * v)
    return stacked


def blinear_subspace(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """Basis, in cochain coordinates, of the degree-n cochains whose
    induced operators let ring factors pass out through every slot: the
    kernel of their slot-1 defects (blinear_defects)."""
    return blinear_defects(n, s, guard_limit).kernel_basis()


def check_subcomplex(s, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    """The differential keeps ring-linear cochains ring-linear, degree by
    degree up to maxdeg, counting the images d f, f in a basis of the
    linear degree-n cochains V_n, n <= maxdeg.

    Where the pair's kept check_lr passes this is Rinehart's theorem
    (Trans. AMS 108, 1963): action-linearity, the derivation rule and
    module-Leibniz make d f linear whenever f is.  So dim V_n, dim C^n less
    the rank of the slot-1 defects, is counted, and degree maxdeg + 1 is
    stacked only so that the guard refuses where the sweep would.

    Any other pair is swept, the tests' oracle: the images are classical
    differentials, which td_differential_induced would return, and
    membership is decided by one exact solve per degree.  An image escaping
    the subspace, cut out by the slot-1 defects, would be a counterexample
    to the theorem, so that raises, naming slot 1, instead of reporting.
    """
    require(check_td_lr(s), "precondition failed (td-lie-rinehart): ")
    pair = s.pair
    if kept(pair, check_lr):
        stacks = [blinear_defects(n, s, guard_limit) for n in range(maxdeg + 2)]
        return CheckResult("td-subcomplex", True, detail="%d images checked"
                           % sum(d.ncols - d.rank() for d in stacks[:-1]))
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
            # the images as sparse rows, each times its denominator: as
            # solvable as the image
            rhs = [{} for _ in index]
            for j, image in enumerate(images):
                for key, v in image._ints.items():
                    rhs[index[key]][j] = v
            solutions = solve(RationalMatrix.from_columns(len(index), target),
                              RationalMatrix._from_sparse_rows(len(images), rhs))
            for image, x in zip(images, solutions):
                if x is None:
                    # the target is the kernel of the slot-1 defects, so an
                    # image outside it fails at slot 1; the image is named
                    # by its nonzero values in key order
                    values = ", ".join(Witness.printed(q) for _key, q
                                       in sorted(image.values.items()))
                    raise AxiomError(
                        "image [%s] of a linear degree-%d cochain leaves the "
                        "linear subspace (slot 1 fails)" % (values, n))
            checked += len(images)
        current = target
    return CheckResult("td-subcomplex", True,
                       detail="%d images checked" % checked)
