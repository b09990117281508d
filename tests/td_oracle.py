"""The materializing Hom-space complex: the test oracle for TDComplexData.

TDComplexData computes every field in closed form from the classical
differentials and the depth of the coproduct.  This module keeps the
construction it replaced, which materializes and eliminates every induction
matrix, every induced differential and every twisted term, and runs the
consistency checks that the closed form shows can never fire.  Nothing in
the package uses it; tests compare TDComplexData against it field by field.
"""

from tdhom.cohomology import (
    AltCochain,
    TDCochain,
    _induced_columns,
    _twisted_operator,
    alt_basis,
    alt_dim,
    ce_differential,
    induction_matrix,
    td_differential_direct,
)
from tdhom.convolution import resolve_guard_limit
from tdhom.errors import AxiomError, GuardError
from tdhom.linalg import ZERO, RationalMatrix, rank, solve


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

    def __init__(self, tdm, maxdeg=2, guard_limit=None, max_arity=3):
        if maxdeg < 0:
            raise ValueError("maxdeg must be nonnegative")
        if maxdeg + 1 > max_arity:
            raise GuardError(
                "degree %d needs arity %d > cap %d; raise max_arity to override"
                % (maxdeg, maxdeg + 1, max_arity))
        M = tdm.module
        C = tdm.coalgebra
        L, B = M.base.space, M.space
        limit = resolve_guard_limit(guard_limit)

        self.tdm = tdm
        self.maxdeg = maxdeg
        self.guard_limit = limit
        self.alt_dims = [alt_dim(L, B, k) for k in range(maxdeg + 2)]

        iotas, kernels, pivots = [], [], []
        self.td_dims, self.ker_dims = [], []
        for k in range(maxdeg + 2):
            sc = induction_matrix(k, L, B, C, limit)
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
                 for key in alt_basis(L, B, k)], C, limit)
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
                op = _twisted_operator(f, self.tdm, self.guard_limit)
                if op.entries != composite.columns[ci]:
                    td_differential_direct(TDCochain(f, self.tdm.coalgebra),
                                           self.tdm, self.guard_limit)
                    return "disagree at degree %d" % k
        return "agree"
