"""Operator-space constructions that closed forms replaced: test oracles.

TDComplexData reads every field off classical_complex, cut at the depth
where the coproduct dies.  eager_quotient keeps the eager assembly it
replaced: every whole quotient differential and the kernel of the first.
MaterializedTDComplexData keeps the construction before that, which
materializes and eliminates every induction matrix, every induced
differential and every twisted term, and runs the consistency checks that
the closed form shows can never fire.

The linear-subcomplex sweep (blinear_subspace, td_differential_induced,
check_subcomplex) writes its slot-1 defects straight from the bmodule and
product constants, on increasing arguments, and reads its images off
classical cochains.  map_blinear_subspace keeps the route that replaced:
each basis cochain's slot-1 defect built as a map (slot_defect) on every
arrangement of its arguments.  The factored_* functions keep the sweep
before that, which decides the defect of every slot, read through
linearity_twist, and the induction kernel, on laid-out operators.

td_differential_direct returns d f unless f reads the bracket's
symmetric part, and TDCochain.same_as compares names by the injectivity
of induction.  unshuffle_td_differential_direct keeps the route the
closed form replaced: the formula's one map psi summed from its unshuffle
maps (unshuffle_map, unshuffles, term_sum) and tested for skewness by
is_skew.  materialized_td_differential_direct keeps the route before
that: the formula laid out term by term (materialized_twisted_formula)
and solved against the induction matrix; materialized_same_as keeps the
test on the laid-out difference.

The package keeps an operator as one part, a base map psi and a twist
sigma, and decides an identity whose sides differ by one such part in
closed form (convolution.zero_check): psi (x) D_sigma is zero exactly
when psi or Delta^(n) is, and its first entry is read off the pairs of
psi entries and coproduct terms.  operator_identity_check keeps the route
that replaced, now the one way to decide an identity of several parts:
each side laid out (materialize), the tables summed, scaled and permuted
as MaterializedOperators, and compared by first_difference.

InducedOperator.apply contracts the pairs of psi entries and coproduct
terms with its arguments; laid_out_apply keeps the contraction of the
laid-out table it replaced.

check_td_skew decides twisted skew symmetry on the adjacent
transpositions; enumerated_td_skew keeps the enumeration of all n!
permutations it replaced, on laid-out tables.

algebra.composite_defect takes its terms uncomposed; composed and
pair_terms build their maps for the operator routes.  A twisted side is
the classical side induced: twisted_sum builds that side as one map
(term_sum) and induces it, where the package induces the kept int defect
of a failing pair row only;
factored_term keeps the per-term form it replaced, each rearranged term
twisted and rearranged as an operator.  The twisted checkers read each
identity off its kept classical result; operator_check_td_lie,
operator_check_td_module, operator_check_td_poisson and
operator_check_td_lr keep the route they replaced, every identity decided
on its laid-out operators (td_jacobi_sum builds the cyclic one).
check_cocommutative_collapse and check_jordan read their rows off
check_lie and refuse a coalgebra that is not coassociative;
operator_check_collapse and operator_check_jordan decide them on laid-out
operators over any coalgebra, the oracle over coassociative ones.

invariants_h0 stacks the action constants once per e_t;
matrix_unit_invariants keeps the stacking over every matrix unit it
replaced.

ce_parts_unshuffle and ce_differential_unshuffle keep the unshuffle form of
the classical differential, which evaluates full maps and checks the
result is skew; ce_differential pushes stored values forward instead.
The package pushes them forward on bitmask keys (cohomology._pushed);
tuple_pushed keeps the push-forward on increasing tuples it replaced,
positions found by bisect, over its own cleared constants.
differentials reads a ComplexMatrices, which holds each d_k transposed,
back as the d_k.

SWAP, JACOBI_CYCLE, JACOBI_ROTATIONS, unshuffles, is_skew, signed,
term_sum and twisted_sum are map arithmetic no checker in the package uses
any more: each identity there is decided on its int defect, and Jacobi on
increasing triples once skew symmetry holds.  They stay here as the
oracles' tools.

dual_module builds the coefficients of Hazewinkel duality from M's
constants alone, sharing no code with the complex it checks.

The oracles price what they materialize by their own arithmetic
(check_materialization_size); each route in the package prices what it
builds instead.

Nothing in the package uses this module; tests compare against it.
"""

import math
from bisect import bisect_left
from itertools import combinations

from tdhom.algebra import (
    SWAP_FIRST_TWO,
    LieAlgebra,
    LieModule,
    check_lie,
    check_module,
    check_poisson,
    leibniz_identity,
)
from tdhom.checks import CheckResult, Witness, combine, require
from tdhom.coalgebra import check_coassociativity
from tdhom.cohomology import (
    AltCochain,
    TDCochain,
    _check_module_shapes,
    _differential_matrix,
    alt_basis,
    alt_dim,
    ce_differential,
    induction_matrix,
)
from tdhom.convolution import (
    DEFAULT_GUARD_LIMIT,
    HomElement,
    InducedOperator,
    check_size,
    induced,
    matrix_units,
    operator_witness,
    twisted,
)
from tdhom.errors import AxiomError, GuardError, ShapeError
from tdhom.lie_rinehart import PAIR_IDENTITIES, check_td_lr
from tdhom.linalg import (
    ZERO,
    BasedSpace,
    Permutation,
    RationalMatrix,
    SparseColumns,
    all_permutations,
    common_ints,
    kernel_basis,
    rank,
    solve,
)
from tdhom.maps import MultilinearMap
from tdhom.td_structures import TDLieStructure, TDModuleStructure
from linalg_oracle import table_sum, transposed


SWAP = Permutation([1, 0])
# cycle 0 -> 1 -> 2 -> 0 on three slots: the Jacobi sum runs over its powers
JACOBI_CYCLE = Permutation([1, 2, 0])
# its two nontrivial powers, the rearrangements added to the nested term
JACOBI_ROTATIONS = (JACOBI_CYCLE, JACOBI_CYCLE.then(JACOBI_CYCLE))


def unshuffles(k, m):
    """Permutations of k+m symbols ascending on the first k slots and on
    the last m, lexicographic; these index the differential's summands."""
    if k < 0 or m < 0:
        raise ValueError("block sizes must be nonnegative, got (%d, %d)" % (k, m))
    n = k + m
    out = []
    for first in combinations(range(n), k):
        chosen = set(first)
        rest = [i for i in range(n) if i not in chosen]
        out.append(Permutation(list(first) + rest))
    return out


def is_skew(f):
    """True iff f . t = -f for every adjacent transposition t (hence all of S_n)."""
    for i in range(f.arity - 1):
        t = Permutation.transposition(i, i + 1, f.arity)
        if not f.precompose_perm(t).add(f).is_zero():
            return False
    return True


def signed(x, sign):
    """sign * x, or x itself for sign 1."""
    return x if sign == 1 else x.scale(sign)


def term_sum(terms):
    """One side of an identity as a map: the sum over its terms (f, p,
    sign) of sign * (f . p), where p None leaves f's arguments in place."""
    return table_sum(signed(f if p is None else f.precompose_perm(p), sign)
                     for f, p, sign in terms)


def twisted_sum(terms, C):
    """term_sum(terms) over C, each rearrangement f . p replaced by its
    twisted counterpart, twisted by p and then rearranged by p.  The two
    cancel, so the counterpart is induced(f . p, C) and the sum is the
    classical side induced; factored_term keeps the sum of the twisted
    and rearranged terms."""
    return induced(term_sum(terms), C)


def check_materialization_size(domain, coalgebra, limit):
    """Refuse, through check_size, an operator with arguments in Hom(C, V)
    for V in domain when its potential dense columns, the product of the
    argument Hom dimensions, exceed limit."""
    check_size(math.prod(space.dim * coalgebra.dim for space in domain), limit)


def eager_quotient(tdm, maxdeg):
    """(quotient_matrices, h0_kernel) as TDComplexData once assembled them,
    with no guard and no d squared check: d_k whole (_differential_matrix)
    while Delta^(k) and Delta^(k+1) live and alt_dim is nonzero in both
    degrees, else the zero matrix of that shape; and the kernel of the
    first.  The shapes give the cochain dims."""
    M, C = tdm.module, tdm.coalgebra
    L, B = M.base.space, M.space
    td_dims = [alt_dim(L, B, k) if k == 0 or C.iterated_terms(k) else 0
               for k in range(maxdeg + 2)]
    quotient = [
        transposed(_differential_matrix(M, k)) if td_dims[k] and td_dims[k + 1]
        else RationalMatrix.zero(td_dims[k + 1], td_dims[k])
        for k in range(maxdeg + 1)]
    return quotient, kernel_basis(quotient[0])


def differentials(cx):
    """The differentials d_k of a ComplexMatrices, which holds each as its
    transpose."""
    return [transposed(t) for t in cx.transposes]


class MaterializedTDComplexData:
    """Dimensions, ranks and consistency checks for one Hom-space complex,
    built in the operator spaces.

    Two routes produce the cohomology dimensions: counting in the classical
    spaces (cochain dim minus composite rank minus kernel dim minus previous
    composite rank), and assembling the differential on explicit quotient
    bases where the squared differential is also checked.  The constructor
    insists the routes agree.  direct_vs_induced compares the twisted formula
    with the induced differential per basis cochain.
    """

    def __init__(self, tdm, maxdeg=2, guard_limit=DEFAULT_GUARD_LIMIT,
                 max_arity=3):
        if maxdeg < 0:
            raise ValueError("maxdeg must be nonnegative")
        if maxdeg + 1 > max_arity:
            raise GuardError(
                "degree %d needs arity %d > cap %d; raise max_arity to override"
                % (maxdeg, maxdeg + 1, max_arity))
        M = tdm.module
        C = tdm.coalgebra
        L, B = M.base.space, M.space

        self.tdm = tdm
        self.maxdeg = maxdeg
        self.alt_dims = [alt_dim(L, B, k) for k in range(maxdeg + 2)]

        iotas, kernels, pivots = [], [], []
        self.td_dims, self.ker_dims = [], []
        for k in range(maxdeg + 2):
            # every operator built below, direct_vs_induced's too, has the
            # arguments of a degree-k basis cochain for some k <= maxdeg + 1
            if k and self.alt_dims[k]:
                check_materialization_size([L] * k, C, guard_limit)
            sc = induction_matrix(k, L, B, C)
            ech = sc.echelon()
            iotas.append(sc)
            kernels.append(ech.kernel_basis())
            pivots.append(ech.pivot_columns())
            self.td_dims.append(ech.rank)
            self.ker_dims.append(len(kernels[k]))

        self.a_ranks = []
        self.composites = []  # column ci: d of basis cochain ci, induced
        quotient = []
        for k in range(maxdeg + 1):
            composite = _induced_columns(
                [ce_differential(AltCochain(L, B, k, {key: 1}), M)
                 for key in alt_basis(L, B, k)], C)
            ech = composite.echelon()
            self.composites.append(composite)
            self.a_ranks.append(ech.rank)
            if k == 0:
                self.h0_kernel = ech.kernel_basis()

            # names of zero must map to names of zero
            for v in kernels[k]:
                image = {}
                for ci, coeff in enumerate(v):
                    if coeff == 0:
                        continue
                    for row_key, q in composite.columns[ci].items():
                        image[row_key] = image.get(row_key, ZERO) + coeff * q
                if any(image.values()):
                    raise AxiomError(
                        "differential leaves the induction kernel at degree %d" % k)

            # differential on the quotient bases: the images of the quotient
            # basis columns, solved against the next basis in one elimination
            iota = iotas[k + 1]
            keys = iota.row_keys()
            pos = {key: i for i, key in enumerate(keys)}
            sub = RationalMatrix.from_columns(
                len(keys), [[iota.columns[c].get(key, ZERO) for key in keys]
                            for c in pivots[k + 1]])
            rhs = RationalMatrix.zero(len(keys), len(pivots[k]))
            for j, ci in enumerate(pivots[k]):
                for row_key, q in composite.columns[ci].items():
                    if row_key not in pos:
                        raise AxiomError(
                            "induced image leaves the induction row space at degree %d" % k)
                    rhs.set(pos[row_key], j, q)
            solved = solve(sub, rhs)
            if None in solved:
                raise AxiomError(
                    "quotient differential is unsolvable at degree %d" % k)
            quotient.append(RationalMatrix.from_columns(len(pivots[k + 1]), solved))

        for a, b in zip(quotient, quotient[1:]):
            if not b.matmul(a).is_zero():
                raise AxiomError("quotient differentials do not square to zero")
        self.quotient_matrices = quotient
        self.q_ranks = [rank(m) for m in quotient]

        self.h_dims = []
        for k in range(maxdeg + 1):
            below = self.a_ranks[k - 1] if k > 0 else 0
            direct = self.alt_dims[k] - self.a_ranks[k] - self.ker_dims[k] - below
            q_below = self.q_ranks[k - 1] if k > 0 else 0
            via_quotient = self.td_dims[k] - self.q_ranks[k] - q_below
            if direct != via_quotient:
                raise AxiomError(
                    "cohomology routes disagree at degree %d: %d vs %d"
                    % (k, direct, via_quotient))
            self.h_dims.append(direct)

    def direct_vs_induced(self):
        """Return "agree", or "disagree at degree k" at the first basis
        cochain whose twisted-formula image differs from its composite column.

        A mismatch goes to materialized_td_differential_direct, which
        raises AxiomError if the output is not induced, as the per-cochain
        comparison does.
        """
        L, B = self.tdm.module.base.space, self.tdm.module.space
        for k, composite in enumerate(self.composites):
            for ci, key in enumerate(alt_basis(L, B, k)):
                f = AltCochain(L, B, k, {key: 1})
                op = materialized_twisted_formula(f, self.tdm)
                if op.entries != composite.columns[ci]:
                    materialized_td_differential_direct(
                        TDCochain(f, self.tdm.coalgebra), self.tdm)
                    return "disagree at degree %d" % k
        return "agree"


def _induced_columns(cochains, C):
    """Column j: the materialized operator induced by cochains[j], which
    must have degree >= 1; a zero cochain gives a zero column."""
    sc = SparseColumns(len(cochains))
    for ci, f in enumerate(cochains):
        if f.is_zero():
            continue
        for row_key, q in induced(f.as_map(), C).materialize().entries.items():
            sc.add(ci, row_key, q)
    return sc


def materialized_twisted_formula(f, tdm):
    """The displayed twisted formula applied to the cochain f, laid out:
    the sum over its unshuffle terms of each rearrangement twisted and
    then rearranged (factored_term); in degree 0, d f induced."""
    M, C, n = tdm.module, tdm.coalgebra, f.degree
    if n == 0:
        return induced(ce_differential(f, M).as_map(), C).materialize()
    L, B = M.base.space, M.space
    fmap = MultilinearMap([L] * n, B, f.as_map().entries)
    acted = M.action.compose_at(fmap, 1)
    bracketed = fmap.compose_at(M.base.bracket, 0)
    return table_sum(
        [factored_term(acted, C, s).materialize().scale(s.sign())
         for s in unshuffles(1, n)]
        + [factored_term(bracketed, C, s).materialize().scale(-s.sign())
           for s in unshuffles(2, n - 1)])


def unshuffle_map(f, tdm):
    """The one map psi whose induced operator is the displayed twisted
    formula applied to the cochain f: its unshuffle terms, each
    rearrangement twisted, sum to induced(psi) (twisted_sum), psi their
    classical sum.  In degree 0 psi is d f as a map."""
    M, n = tdm.module, f.degree
    if n == 0:
        return ce_differential(f, M).as_map()
    L, B = M.base.space, M.space
    fmap = MultilinearMap([L] * n, B, f.as_map().entries)
    acted = M.action.compose_at(fmap, 1)
    bracketed = fmap.compose_at(M.base.bracket, 0)
    return term_sum([(acted, s, s.sign()) for s in unshuffles(1, n)]
                    + [(bracketed, s, -s.sign()) for s in unshuffles(2, n - 1)])


def unshuffle_td_differential_direct(F, tdm):
    """td_differential_direct as the map route built it: psi summed from
    its unshuffle maps (unshuffle_map), a cochain exactly when is_skew
    holds, and the zero name where Delta^(n+1) is zero."""
    M, C, n = tdm.module, tdm.coalgebra, F.degree
    L, B = M.base.space, M.space
    if not C.iterated_terms(n + 1):
        return TDCochain(AltCochain(L, B, n + 1, {}), C)
    psi = unshuffle_map(F.inducing, tdm)
    if not is_skew(psi):
        raise AxiomError(
            "twisted differential output is not induced at degree %d" % (n + 1))
    return TDCochain(AltCochain.from_map(psi, check=False), C)


def materialized_td_differential_direct(F, tdm):
    """td_differential_direct as it was built: the twisted formula laid
    out, then an inducing cochain recovered by solving against the
    degree n+1 induction matrix; AxiomError when no solution exists."""
    L, B = tdm.module.base.space, tdm.module.space
    n = F.degree
    op = materialized_twisted_formula(F.inducing, tdm)
    iota = induction_matrix(n + 1, L, B, tdm.coalgebra)
    keys, m = iota.to_dense()
    # an entry on a key outside keys is a row no combination reaches
    x = solve(m, [op.entries.get(k, ZERO) for k in keys]) \
        if set(op.entries) <= set(keys) else None
    if x is None:
        raise AxiomError(
            "twisted differential output is not induced at degree %d" % (n + 1))
    return TDCochain(AltCochain.from_vector(L, B, n + 1, x), tdm.coalgebra)


def materialized_same_as(F, G):
    """TDCochain.same_as on the laid-out operator: equal degree and
    coalgebra, and a difference that is zero in degree 0 and induces the
    zero table above."""
    if F.degree != G.degree or F.coalgebra is not G.coalgebra:
        return False
    diff = F.inducing.sub(G.inducing)
    if F.degree == 0 or diff.is_zero():
        return diff.is_zero()
    return induced(diff.as_map(), F.coalgebra).materialize().is_zero()


def enumerated_td_skew(phi, C):
    """check_td_skew by enumeration: every sigma of S_n but the identity in
    lexicographic order, each decided on laid-out tables by
    operator_identity_check, the first failure's witness prefixed with
    sigma's images."""
    n = phi.arity
    if any(space is not phi.domain[0] for space in phi.domain):
        raise ShapeError("td-skew needs a map whose arguments share one space")
    plain = induced(phi, C).materialize()
    perms = all_permutations(n)
    for sigma in perms[1:]:
        result = operator_identity_check(
            "td-skew", plain.argument_permute(sigma),
            twisted(phi, C, sigma.inverse()).materialize().scale(sigma.sign()))
        if not result:
            w = result.witness
            return CheckResult("td-skew", False,
                               Witness((sigma.images,) + w.args, w.residual))
    return CheckResult("td-skew", True, detail="%d permutations" % len(perms))


def factored_term(phi, C, sigma):
    """The twisted counterpart of phi . sigma, not laid out: the operator
    twisted by sigma, rearranged by sigma.  That carries the twist back to
    the identity, leaving (phi . sigma, identity)."""
    return twisted(phi, C, sigma).argument_permute(sigma)


def laid_out(op):
    """op's table: an InducedOperator materialized, a table as it is."""
    return op.materialize() if isinstance(op, InducedOperator) else op


def laid_out_apply(op, fs):
    """op.apply(fs) on op's laid-out table, the route apply replaced: each
    table value times argument i's coefficient at the matrix unit cols[i],
    summed in Fractions per (output, source) key."""
    out = {}
    for (o, c, cols), v in op.materialize().entries.items():
        for f, (t, leg) in zip(fs, cols):
            v *= f.coefficient(t, leg)
        out[(o, c)] = out.get((o, c), 0) + v
    return HomElement(op.coalgebra, op.codomain, out)


def operator_identity_check(name, lhs, rhs=None):
    """CheckResult for lhs = rhs, or lhs = 0 when rhs is None, decided on
    the laid-out tables of operators of any number of parts: the route
    convolution.zero_check replaced.  A failing identity is witnessed at
    the first key where the tables differ, on lhs's arguments."""
    table = laid_out(lhs)
    found = table.first_difference(
        table.scale(0) if rhs is None else laid_out(rhs))
    if found is None:
        return CheckResult(name, True)
    return CheckResult(name, False, operator_witness(table, found))


def composed(side):
    """Terms (outer, inner, slot, p, sign), as algebra.composite_check
    reads them, as (map, p, sign) terms with each composite built."""
    return [(outer.compose_at(inner, slot), p, sign)
            for outer, inner, slot, p, sign in side]


def pair_terms(pair, side):
    """A side of a PAIR_IDENTITIES row, maps named by pair attribute, as
    (map, p, sign) terms with each composite built."""
    return composed([(getattr(pair, outer), getattr(pair, inner), *rest)
                     for outer, inner, *rest in side])


def td_jacobi_sum(bracket, C):
    """The cyclic identity's three summands: the plain nested operator,
    then its twisted rearrangements along the rotation and its square."""
    nested = bracket.compose_at(bracket, 1)
    return twisted_sum([(nested, None, 1)]
                       + [(nested, r, 1) for r in JACOBI_ROTATIONS], C)


def operator_check_td_lie(lie, C):
    """check_td_lie with both identities decided on operators."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    skew = enumerated_td_skew(lie.bracket, C)
    jacobi = operator_identity_check("td-jacobi", td_jacobi_sum(lie.bracket, C))
    return combine("td-lie", [skew, jacobi])


def operator_check_td_poisson(poisson, C):
    """check_td_poisson with every identity decided on operators."""
    require(check_poisson(poisson), "precondition failed (Poisson axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    lie_part = operator_check_td_lie(poisson, C)
    prod = induced(poisson.product, C)
    commut = operator_identity_check(
        "td-commutativity",
        prod.argument_permute(SWAP),
        twisted(poisson.product, C, SWAP))
    left, right = (composed(side) for side in
                   leibniz_identity(poisson.bracket, poisson.product))
    leibniz = operator_identity_check("td-leibniz", twisted_sum(left, C),
                                      twisted_sum(right, C))
    return combine("td-poisson", [lie_part, commut, leibniz])


def operator_check_td_module(tdm):
    """check_td_module decided on operators."""
    require(check_lie(tdm.td.lie), "precondition failed (Lie axioms): ")
    require(check_module(tdm.module), "precondition failed (module axiom): ")
    C = tdm.coalgebra
    action = tdm.module.action
    nested = action.compose_at(action, 1)
    left = ((action.compose_at(tdm.td.lie.bracket, 0), None, 1),)
    right = ((nested, None, 1), (nested, SWAP_FIRST_TWO, -1))
    return operator_identity_check("td-module", twisted_sum(left, C),
                                   twisted_sum(right, C))


def _untwisted_jacobi_check(name, bracket, C):
    """The plain cyclic identity for the induced bracket: the nested
    operator plus its untwisted rearrangements along the rotation and its
    square sums to zero."""
    nested = induced(bracket.compose_at(bracket, 1), C).materialize()
    total = table_sum([nested] + [nested.argument_permute(r) for r in JACOBI_ROTATIONS])
    return operator_identity_check(name, total)


def operator_check_collapse(lie, C):
    """check_cocommutative_collapse's rows decided on operators, over any
    C, past its symmetry-class refusal."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    plain = induced(lie.bracket, C).materialize()
    skew = operator_identity_check(
        "collapse-skew", plain.argument_permute(SWAP), plain.scale(-1))
    jacobi = _untwisted_jacobi_check("collapse-jacobi", lie.bracket, C)
    return combine("cocommutative-collapse", [skew, jacobi])


def operator_check_jordan(lie, C):
    """check_jordan's rows decided on operators, over any C, past its
    symmetry-class refusal."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    op = induced(lie.bracket, C).materialize()
    sym = operator_identity_check(
        "jordan-symmetry", op.argument_permute(SWAP), op)
    jacobi = _untwisted_jacobi_check("jordan-jacobi", lie.bracket, C)
    return combine("jordan", [sym, jacobi])


def operator_check_td_lr(s):
    """check_td_lr with every row decided on operators."""
    pair, C = s.pair, s.coalgebra
    return combine("td-lie-rinehart", [
        operator_identity_check("td-" + name,
                                twisted_sum(pair_terms(pair, left), C),
                                twisted_sum(pair_terms(pair, right), C))
        for name, left, right in PAIR_IDENTITIES[:-1]])


def matrix_unit_invariants(tdm):
    """invariants_h0 by stacking the action of every matrix-unit argument
    E[t, c] on every target basis vector, then taking the kernel."""
    M = tdm.module
    C = tdm.coalgebra
    L, B = M.base.space, M.space
    stacked = SparseColumns(B.dim)
    for ui, alpha in enumerate(matrix_units(C, L)):
        (t, _c) = next(iter(alpha.entries))
        for b in range(B.dim):
            for o, q in M.action.apply_basis((t, b)).items():
                stacked.add(b, (ui, o), q)
    return stacked.kernel_basis()


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


def slot_defect(fmap, pair):
    """Base map of the slot-1 scaling identity, left side minus right, on
    (B, L, .., L) -> B, built as maps."""
    return fmap.compose_at(pair.bmodule, 0).sub(
        pair.product.compose_at(fmap, 1))


def map_blinear_subspace(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """blinear_subspace with each basis cochain's slot-1 defect built as a
    map, on every arrangement of the Lie arguments, and stacked."""
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    pair, C = s.pair, s.coalgebra
    L, B = pair.lie_space, pair.ring_space
    basis = alt_basis(L, B, n)
    stacked = SparseColumns(len(basis))
    if n >= 1 and basis and C.iterated_terms(n + 1):
        check_size(len(basis), guard_limit)
        defects = [
            slot_defect(AltCochain._from_ints(L, B, n, {key: 1}, 1).as_map(),
                        pair)
            for key in basis]
        tables, _ = common_ints(defects)
        for ci, table in enumerate(tables):
            for row, v in table.items():
                stacked.add(ci, row, v)
    return stacked.kernel_basis()


def factored_slot_defect(fmap, i, s, limit):
    """Left minus right side of the slot-i scaling identity, laid out, the
    right side twisted and rearranged (factored_term).  The guard refuses
    what materializing either side would have; both have the same argument
    spaces in another order."""
    pair, C = s.pair, s.coalgebra
    lhs = induced(fmap.compose_at(pair.bmodule, i - 1), C)
    check_materialization_size(lhs.domain, C, limit)
    scaled = pair.product.compose_at(fmap, 1)
    rhs = factored_term(scaled, C, linearity_twist(i, fmap.arity))
    return lhs.materialize().sub(rhs.materialize())


def factored_blinear_subspace(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """blinear_subspace with the defect of every slot laid out
    (factored_slot_defect) and the tables stacked as columns."""
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    pair = s.pair
    L, B = pair.lie_space, pair.ring_space
    basis = alt_basis(L, B, n)
    stacked = SparseColumns(len(basis))
    if n >= 1:
        for ci, key in enumerate(basis):
            fmap = AltCochain(L, B, n, {key: 1}).as_map()
            for i in range(1, n + 1):
                defect = factored_slot_defect(fmap, i, s, guard_limit)
                for row, q in defect.entries.items():
                    stacked.add(ci, (i, row), q)
    return stacked.kernel_basis()


def factored_td_differential_induced(F, tdm, guard_limit=DEFAULT_GUARD_LIMIT):
    """td_differential_induced with its legality check run: the degree-n
    induction kernel, rebuilt on every call, and the vanishing of each
    kernel vector's differential, decided on laid-out operators."""
    M = tdm.module
    C = tdm.coalgebra
    n = F.degree
    if n >= 1:
        L, B = M.base.space, M.space
        basis = alt_basis(L, B, n)
        iota = SparseColumns(len(basis))
        for ci, key in enumerate(basis):
            op = induced(AltCochain(L, B, n, {key: 1}).as_map(), C)
            check_materialization_size(op.domain, C, guard_limit)
            for row, q in op.materialize().entries.items():
                iota.add(ci, row, q)
        for v in iota.kernel_basis():
            dv = ce_differential(AltCochain.from_vector(L, B, n, v), M)
            if dv.is_zero():
                continue
            op = induced(dv.as_map(), C)
            check_materialization_size(op.domain, C, guard_limit)
            if not op.materialize().is_zero():
                raise AxiomError(
                    "differential leaves the induction kernel at degree %d" % n)
    return TDCochain(ce_differential(F.inducing, M), C)


def _hom_module(s):
    lie = LieAlgebra(s.pair.lie_space, s.pair.bracket, check=False,
                     name=s.pair.name)
    module = LieModule(lie, s.pair.ring_space, s.pair.action, check=False,
                       name="%s-ring" % s.pair.name)
    td = TDLieStructure(lie, s.coalgebra, check=False)
    return TDModuleStructure(td, module, check=False)


def _factored_violating_slot(cochain, s, limit):
    fmap = cochain.as_map()
    for i in range(1, cochain.degree + 1):
        if not factored_slot_defect(fmap, i, s, limit).is_zero():
            return i
    return 0


def factored_check_subcomplex(s, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    """check_subcomplex on the factored sweep, one
    factored_td_differential_induced call per linear cochain."""
    result = check_td_lr(s)
    if not result:
        raise AxiomError(
            "precondition failed (%s): %s" % (result.name, result.describe()),
            result)
    pair = s.pair
    L, B = pair.lie_space, pair.ring_space
    tdm = _hom_module(s)
    checked = 0
    current = factored_blinear_subspace(0, s, guard_limit)
    for n in range(maxdeg + 1):
        target = factored_blinear_subspace(n + 1, s, guard_limit)
        if current:
            nrows = len(alt_basis(L, B, n + 1))
            images = [
                factored_td_differential_induced(
                    TDCochain(AltCochain.from_vector(L, B, n, vec), s.coalgebra),
                    tdm, guard_limit).inducing
                for vec in current]
            span = RationalMatrix.from_columns(nrows, target)
            rhs = RationalMatrix.from_columns(
                nrows, [image.components() for image in images])
            for image, x in zip(images, solve(span, rhs)):
                if x is None:
                    slot = _factored_violating_slot(image, s, guard_limit)
                    values = ", ".join(str(q) for q in image.components() if q)
                    raise AxiomError(
                        "image [%s] of a linear degree-%d cochain leaves the "
                        "linear subspace (slot %d fails)" % (values, n, slot))
            checked += len(images)
        current = target
    return CheckResult("td-subcomplex", True,
                       detail="%d images checked" % checked)


def ce_parts_unshuffle(f, M):
    """The differential's two summands in unshuffle form, as full maps.

    Each is skew on its own; the caller subtracts the second from the first.
    """
    _check_module_shapes(f, M)
    n = f.degree
    if n < 1:
        raise ShapeError("unshuffle form needs degree >= 1")
    # rebuilt over the module's own spaces so compositions type-check
    fmap = MultilinearMap([M.base.space] * n, M.space, f.as_map().entries)
    acted = M.action.compose_at(fmap, 1)
    part1 = table_sum(acted.precompose_perm(s).scale(s.sign())
                      for s in unshuffles(1, n))
    bracketed = fmap.compose_at(M.base.bracket, 0)
    part2 = table_sum(bracketed.precompose_perm(s).scale(s.sign())
                      for s in unshuffles(2, n - 1))
    return part1, part2


def tuple_pushed(ints, M):
    """cohomology._pushed on increasing-tuple keys, {(T, o): int} maybe
    holding zeros, in the same order: N times d of the cochain whose
    stored ints are ints, N the common denominator of the bracket and
    action constants."""
    (bracket, action), _ = common_ints([M.base.bracket, M.action])
    pairs, acting = {}, {}
    for ((x, y), a), c in bracket.items():
        if x < y:
            pairs.setdefault(a, []).append((x, y, c))
    for ((t, b), o), r in action.items():
        acting.setdefault(b, {}).setdefault(t, []).append((o, r))
    acc = {}
    for (S, b), q in ints.items():
        for t, images in sorted(acting.get(b, {}).items()):
            if t in S:
                continue
            i = bisect_left(S, t)
            T = S[:i] + (t,) + S[i:]
            sq = q if i % 2 == 0 else -q
            for o, r in images:
                acc[(T, o)] = acc.get((T, o), 0) + sq * r
        for p, a in enumerate(S):
            rest = S[:p] + S[p + 1:]
            for x, y, c in pairs.get(a, ()):
                if x in rest or y in rest:
                    continue
                j = bisect_left(rest, x)
                k = bisect_left(rest, y)
                # x lands at position j of T and y at position k + 1
                T = rest[:j] + (x,) + rest[j:k] + (y,) + rest[k:]
                sq = q * c if (p + j + k + 1) % 2 == 0 else -q * c
                acc[(T, b)] = acc.get((T, b), 0) + sq
    return acc


def ce_differential_unshuffle(f, M):
    """Alternate unshuffle description; skewness is checked, not assumed.
    In degree 0, (d m)(x) = x . m, read off the action map."""
    if f.degree == 0:
        _check_module_shapes(f, M)
        values = {}
        for ((), b), q in f.values.items():
            for t in range(M.base.space.dim):
                for o, r in M.action.apply_basis((t, b)).items():
                    values[((t,), o)] = values.get(((t,), o), 0) + q * r
        return AltCochain(M.base.space, M.space, 1, values)
    part1, part2 = ce_parts_unshuffle(f, M)
    return AltCochain.from_map(part1.sub(part2), check=True)


def dual_module(M):
    """M* (x) k_tr: e_t . m^o = -sum_b r m^b, over every e_t . m_b = r m_o
    (the action transposed and negated), plus tr ad_(e_t) m^o.  Hazewinkel
    duality ("A duality theorem for cohomology of Lie algebras", Math. USSR
    Sbornik 12, 1970): dim H^k(L, M) = dim H^(n-k)(L, dual_module(M)) for
    n = dim L."""
    L, V = M.base.space, M.space
    dual = BasedSpace(V.name + "*", [label + "*" for label in V.labels])
    trace = [0] * L.dim
    for ((t, a), o), c in M.base.bracket.entries.items():
        if a == o:
            trace[t] += c
    entries = {}
    for ((t, b), o), r in M.action.entries.items():
        entries[((t, o), b)] = entries.get(((t, o), b), 0) - r
    for t, c in enumerate(trace):
        for o in range(V.dim):
            entries[((t, o), o)] = entries.get(((t, o), o), 0) + c
    return LieModule(M.base, dual, MultilinearMap([L, dual], dual, entries))
