"""Operator-space constructions that closed forms replaced: test oracles.

TDComplexData reads every field off classical_complex, cut at the depth
where the coproduct dies.  eager_quotient keeps the eager assembly it
replaced: every whole quotient differential and the kernel of the first.
MaterializedTDComplexData keeps the construction before that, which
materializes and eliminates every induction matrix, every induced
differential and every twisted term, and runs the consistency checks that
the closed form shows can never fire.

The linear-subcomplex sweep (blinear_subspace, td_differential_induced,
check_subcomplex) reads its slot-1 defects and images off classical maps.
The factored_* functions keep the sweep it replaced, which decides the
defect of every slot, read through linearity_twist, and the induction
kernel on InducedOperators.

check_td_skew decides twisted skew symmetry on the adjacent
transpositions; enumerated_td_skew keeps the enumeration of all n!
permutations it replaced.

twisted_sum induces the classical side of an identity as one map;
factored_term keeps the per-term form it replaced, each rearranged term
twisted and rearranged as an operator.  invariants_h0 stacks the action
constants once per e_t; matrix_unit_invariants keeps the stacking over
every matrix unit it replaced.

ce_parts_unshuffle and ce_differential_unshuffle keep the unshuffle form of
the classical differential, which evaluates full maps and checks the
result is skew; ce_differential pushes stored values forward instead.
differentials reads a ComplexMatrices, which holds each d_k transposed,
back as the d_k.

The oracles price what they materialize by their own arithmetic
(check_materialization_size); each route in the package prices what it
builds instead.

Nothing in the package uses this module; tests compare against it.
"""

import math

from tdhom.algebra import LieAlgebra, LieModule
from tdhom.checks import CheckResult, Witness
from tdhom.cohomology import (
    AltCochain,
    TDCochain,
    _check_module_shapes,
    _differential_matrix,
    _induced_columns,
    _twisted_operator,
    alt_basis,
    alt_dim,
    ce_differential,
    induction_matrix,
    td_differential_direct,
    unshuffles,
)
from tdhom.convolution import (
    DEFAULT_GUARD_LIMIT,
    check_size,
    induced,
    matrix_units,
    operator_identity_check,
    twisted,
)
from tdhom.errors import AxiomError, GuardError, ShapeError
from tdhom.lie_rinehart import check_td_lr
from tdhom.linalg import (
    ZERO,
    Permutation,
    RationalMatrix,
    SparseColumns,
    all_permutations,
    kernel_basis,
    rank,
    solve,
    table_sum,
)
from tdhom.maps import MultilinearMap
from tdhom.td_structures import TDLieStructure, TDModuleStructure
from linalg_oracle import transposed


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

        A mismatch goes to td_differential_direct, which raises AxiomError
        if the output is not induced, as the per-cochain comparison does.
        """
        L, B = self.tdm.module.base.space, self.tdm.module.space
        for k, composite in enumerate(self.composites):
            for ci, key in enumerate(alt_basis(L, B, k)):
                f = AltCochain(L, B, k, {key: 1})
                op = _twisted_operator(f, self.tdm)
                if op.entries != composite.columns[ci]:
                    td_differential_direct(TDCochain(f, self.tdm.coalgebra),
                                           self.tdm)
                    return "disagree at degree %d" % k
        return "agree"


def enumerated_td_skew(phi, C):
    """check_td_skew by enumeration: every sigma of S_n but the identity in
    lexicographic order, each decided by operator_identity_check, the first
    failure's witness prefixed with sigma's images."""
    n = phi.arity
    if any(space is not phi.domain[0] for space in phi.domain):
        raise ShapeError("td-skew needs a map whose arguments share one space")
    plain = induced(phi, C)
    perms = all_permutations(n)
    for sigma in perms[1:]:
        result = operator_identity_check(
            "td-skew", plain.argument_permute(sigma),
            twisted(phi, C, sigma.inverse()).scale(sigma.sign()))
        if not result:
            w = result.witness
            return CheckResult("td-skew", False,
                               Witness((sigma.images,) + w.args, w.residual))
    return CheckResult("td-skew", True, detail="%d permutations" % len(perms))


def factored_term(phi, C, sigma):
    """The twisted counterpart of phi . sigma, not laid out: the operator
    twisted by sigma, rearranged by sigma.  That carries the twist back to
    the identity, leaving the one part {identity: phi . sigma}."""
    return twisted(phi, C, sigma).argument_permute(sigma)


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


def reduced_column(op):
    """op.reduced() as one sparse column, {(rho images, map key): q}, for
    stacking InducedOperators into a SparseColumns."""
    return {(rho.images, key): q for rho, psi in op.reduced().items()
            for key, q in psi.entries.items()}


def factored_slot_defect(fmap, i, s, limit):
    """Left minus right side of the slot-i scaling identity, factored: one
    untwisted part.  The guard refuses what materializing either side
    would have; both have the same argument spaces in another order."""
    pair, C = s.pair, s.coalgebra
    lhs = induced(fmap.compose_at(pair.bmodule, i - 1), C)
    check_materialization_size(lhs.domain, C, limit)
    scaled = pair.product.compose_at(fmap, 1)
    rhs = factored_term(scaled, C, linearity_twist(i, fmap.arity))
    return lhs.sub(rhs)


def factored_blinear_subspace(n, s, guard_limit=DEFAULT_GUARD_LIMIT):
    """blinear_subspace with each slot defect reduced in factored form: one
    untwisted part reduces to its base map or nothing, so stacking the
    reduced columns gives the kernel of the materialized defects."""
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
                for row, q in reduced_column(defect).items():
                    stacked.add(ci, (i, row), q)
    return stacked.kernel_basis()


def factored_td_differential_induced(F, tdm, guard_limit=DEFAULT_GUARD_LIMIT):
    """td_differential_induced with its legality check run: the degree-n
    induction kernel, rebuilt on every call, and the vanishing of each
    kernel vector's differential, decided on factored operators."""
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
            for row, q in reduced_column(op).items():
                iota.add(ci, row, q)
        for v in iota.kernel_basis():
            dv = ce_differential(AltCochain.from_vector(L, B, n, v), M)
            if dv.is_zero():
                continue
            op = induced(dv.as_map(), C)
            check_materialization_size(op.domain, C, guard_limit)
            if not op.vanishes():
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
        if not factored_slot_defect(fmap, i, s, limit).vanishes():
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
