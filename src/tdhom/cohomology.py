"""Chevalley-Eilenberg cohomology, classically and on Hom spaces.

Classical cochains are skew maps stored by their values on strictly
increasing basis tuples; differentials become exact rational matrices in
that basis and ranks decide everything.

The Hom-space complex never works in the huge operator spaces directly: a
cochain there is named by an inducing classical cochain, two names being
equal when their difference is killed by the induction map.  The twisted
differential is then the classical one pushed to the quotient, with the
kernel containment that makes this legal verified numerically, and the
displayed twisted-unshuffle formula evaluated separately as a cross-check.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb

from .convolution import induced, matrix_units, resolve_guard_limit, twisted_term
from .errors import AxiomError, GuardError, ShapeError
from .linalg import (
    ZERO,
    Permutation,
    RationalMatrix,
    SparseColumns,
    SparseTable,
    kernel_basis,
    table_sum,
    pivot_columns,
    rank,
    solve,
)
from .maps import MultilinearMap


def increasing_tuples(dim, n):
    """Strictly increasing n-tuples over range(dim), lexicographic."""
    return list(combinations(range(dim), n))


def alt_basis(L, B, n):
    """(tuple, output index) pairs indexing skew cochains, tuple-major."""
    return [(tup, o)
            for tup in increasing_tuples(L.dim, n)
            for o in range(B.dim)]


def alt_dim(L, B, n):
    return comb(L.dim, n) * B.dim


def sorting_sign(tup):
    """(sign, sorted tuple), or None when an index repeats."""
    if len(set(tup)) < len(tup):
        return None
    lst = list(tup)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


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


class AltCochain(SparseTable):
    """A skew multilinear map into a module, compressed to increasing tuples.

    Degree zero is an element of the target space, stored under the empty
    tuple.  Values off the increasing tuples are recovered by sign.
    """

    TABLE = "values"

    def __init__(self, lie_space, target, degree, values):
        table = {}
        for (tup, o), q in values.items():
            if len(tup) != degree:
                raise ShapeError("tuple %r in a degree-%d cochain" % (tup, degree))
            if any(tup[i] >= tup[i + 1] for i in range(len(tup) - 1)):
                raise ShapeError("tuple %r is not strictly increasing" % (tup,))
            if tup and not (0 <= tup[0] and tup[-1] < lie_space.dim):
                raise ShapeError("tuple %r out of range" % (tup,))
            if not 0 <= o < target.dim:
                raise ShapeError("output index %d out of range" % o)
            q = Fraction(q)
            if q != 0:
                table[(tup, o)] = q
        self.lie_space = lie_space
        self.target = target
        self.degree = degree
        self.values = table

    @classmethod
    def from_map(cls, m, check=True):
        """Compress a full skew map; checks all adjacent transpositions."""
        n = m.arity
        if n < 1:
            raise ShapeError("degree-0 cochains have no map form")
        if check:
            for i in range(n - 1):
                t = Permutation.transposition(i, i + 1, n)
                if m.precompose_perm(t) != m.scale(-1):
                    raise AxiomError(
                        "map is not skew under the (%d %d) transposition" % (i, i + 1))
        values = {
            (tup, o): q for (tup, o), q in m.entries.items()
            if all(tup[i] < tup[i + 1] for i in range(n - 1))
        }
        return cls(m.domain[0], m.codomain, n, values)

    @classmethod
    def from_vector(cls, L, B, degree, vec):
        basis = alt_basis(L, B, degree)
        if len(vec) != len(basis):
            raise ShapeError("vector length %d vs basis size %d" % (len(vec), len(basis)))
        return cls(L, B, degree, dict(zip(basis, vec)))

    def components(self):
        return [self.values.get(key, ZERO) for key in alt_basis(self.lie_space, self.target, self.degree)]

    def eval_basis(self, tup):
        """Value on an arbitrary basis tuple: {output index: Fraction}."""
        hit = sorting_sign(tup)
        if hit is None:
            return {}
        sign, sorted_tup = hit
        out = {}
        for o in range(self.target.dim):
            q = self.values.get((sorted_tup, o), ZERO)
            if q != 0:
                out[o] = sign * q
        return out

    def as_map(self):
        """The full skew multilinear map."""
        if self.degree == 0:
            raise ShapeError("degree-0 cochains have no map form")
        entries = {}
        for (tup, o), q in self.values.items():
            for arrangement in permutations(tup):
                sign, _ = sorting_sign(arrangement)
                entries[(arrangement, o)] = sign * q
        return MultilinearMap([self.lie_space] * self.degree, self.target, entries)

    def _like(self, table):
        return AltCochain(self.lie_space, self.target, self.degree, table)

    def _check_compatible(self, other):
        if self.degree != other.degree:
            raise ShapeError("degree %d vs %d" % (self.degree, other.degree))

    def __eq__(self, other):
        return (
            isinstance(other, AltCochain)
            and self.degree == other.degree
            and self.lie_space.dim == other.lie_space.dim
            and self.target.dim == other.target.dim
            and self.values == other.values
        )

    def __repr__(self):
        return "AltCochain(degree=%d, %d values)" % (self.degree, len(self.values))


def _check_module_shapes(f, M):
    if f.lie_space.dim != M.base.space.dim or f.target.dim != M.space.dim:
        raise ShapeError("cochain spaces do not match the module")


def ce_differential(f, M):
    """The degree-raising double sum, computed on increasing tuples.

    Evaluated on t_1 < ... < t_{n+1}: act with the removed argument on the
    rest, then feed each bracketed pair back in with the alternating signs.
    """
    _check_module_shapes(f, M)
    L, B = M.base.space, M.space
    n = f.degree
    action, bracket = M.action, M.base.bracket
    out_values = {}
    for T in increasing_tuples(L.dim, n + 1):
        acc = {}
        for i in range(n + 1):
            inner = f.eval_basis(T[:i] + T[i + 1:])
            if not inner:
                continue
            sign = 1 if i % 2 == 0 else -1
            for b, q in inner.items():
                for o, p in action.apply_basis((T[i], b)).items():
                    acc[o] = acc.get(o, ZERO) + sign * q * p
        for j in range(n + 1):
            for k in range(j + 1, n + 1):
                sign = 1 if (j + k) % 2 == 0 else -1
                rest = T[:j] + T[j + 1:k] + T[k + 1:]
                for a, c in bracket.apply_basis((T[j], T[k])).items():
                    for o, q in f.eval_basis((a,) + rest).items():
                        acc[o] = acc.get(o, ZERO) + sign * c * q
        for o, q in acc.items():
            if q != 0:
                out_values[(T, o)] = q
    return AltCochain(L, B, n + 1, out_values)


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
    """Alternate unshuffle description; skewness is checked, not assumed."""
    if f.degree == 0:
        return ce_differential(f, M)
    part1, part2 = ce_parts_unshuffle(f, M)
    return AltCochain.from_map(part1.sub(part2), check=True)


class ComplexMatrices:
    """Consecutive differentials in the increasing-tuple bases.

    Construction verifies shapes chain and that consecutive products vanish
    exactly, so holding one of these is holding a certified complex.
    """

    def __init__(self, matrices):
        matrices = list(matrices)
        for a, b in zip(matrices, matrices[1:]):
            if b.cols != a.rows:
                raise ShapeError("differential shapes do not chain: %r then %r" % (a, b))
            if not b.matmul(a).is_zero():
                raise AxiomError("consecutive differentials do not compose to zero")
        self.matrices = matrices
        self._ranks = None

    def cochain_dims(self):
        dims = [m.cols for m in self.matrices]
        if self.matrices:
            dims.append(self.matrices[-1].rows)
        return dims

    def ranks(self):
        if self._ranks is None:
            self._ranks = [rank(m) for m in self.matrices]
        return self._ranks

    def cohomology_dims(self):
        """dim ker d_k minus rank d_{k-1}, for each k with d_k present."""
        ranks = self.ranks()
        out = []
        for k, m in enumerate(self.matrices):
            below = ranks[k - 1] if k > 0 else 0
            out.append(m.cols - ranks[k] - below)
        return out


def ce_complex(M, maxdeg):
    """Differentials d_0 .. d_maxdeg of the classical complex."""
    L, B = M.base.space, M.space
    if not 0 <= maxdeg <= L.dim:
        raise ValueError("maxdeg must lie in 0..%d, got %d" % (L.dim, maxdeg))
    matrices = []
    for k in range(maxdeg + 1):
        source = alt_basis(L, B, k)
        target_index = {key: i for i, key in enumerate(alt_basis(L, B, k + 1))}
        m = RationalMatrix.zero(len(target_index), len(source))
        for ci, key in enumerate(source):
            df = ce_differential(AltCochain(L, B, k, {key: 1}), M)
            for out_key, q in df.values.items():
                m.set(target_index[out_key], ci, q)
        matrices.append(m)
    return ComplexMatrices(matrices)


def induction_matrix(n, L, B, C, guard_limit=None):
    """Columns: materialized operators induced by the degree-n basis
    cochains; the kernel of this matrix is what cochain names forget."""
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    if n == 0:
        sc = SparseColumns(B.dim)
        for b in range(B.dim):
            sc.add(b, (b,), 1)
        return sc
    basis = [AltCochain(L, B, n, {key: 1}) for key in alt_basis(L, B, n)]
    return _induced_columns(basis, C, resolve_guard_limit(guard_limit))


def _induced_columns(cochains, C, limit):
    """Column j: the materialized operator induced by cochains[j], which
    must have degree >= 1; a zero cochain gives a zero column."""
    sc = SparseColumns(len(cochains))
    for ci, f in enumerate(cochains):
        if f.is_zero():
            continue
        for row_key, q in induced(f.as_map(), C).materialize(limit).entries.items():
            sc.add(ci, row_key, q)
    return sc


class TDCochain:
    """A Hom-space cochain named by an inducing classical one."""

    def __init__(self, inducing, coalgebra):
        self.inducing = inducing
        self.coalgebra = coalgebra

    @property
    def degree(self):
        return self.inducing.degree

    def operator(self, guard_limit=None):
        """The materialized operator this cochain is, for degree >= 1."""
        limit = resolve_guard_limit(guard_limit)
        return induced(self.inducing.as_map(), self.coalgebra).materialize(limit)

    def same_as(self, other, guard_limit=None):
        """Equality as cochains: the difference of names induces zero."""
        if self.degree != other.degree or self.coalgebra is not other.coalgebra:
            return False
        diff = self.inducing.sub(other.inducing)
        if self.degree == 0:
            return diff.is_zero()
        if diff.is_zero():
            return True
        limit = resolve_guard_limit(guard_limit)
        return induced(diff.as_map(), self.coalgebra).materialize(limit).is_zero()

    def __repr__(self):
        return "TDCochain(degree=%d over %s)" % (self.degree, self.coalgebra.space.name)


def td_differential_induced(F, tdm, guard_limit=None):
    """Apply the classical differential to the inducing cochain.

    Legality (names of zero stay names of zero) is verified on the kernel
    of the induction map before returning; a failure there would be an
    internal inconsistency, so it raises rather than reports.
    """
    M = tdm.module
    C = tdm.coalgebra
    n = F.degree
    limit = resolve_guard_limit(guard_limit)
    if n >= 1:
        L, B = M.base.space, M.space
        iota = induction_matrix(n, L, B, C, limit)
        _, dense = iota.to_dense()
        for v in kernel_basis(dense):
            dv = ce_differential(AltCochain.from_vector(L, B, n, v), M)
            if not (dv.is_zero()
                    or induced(dv.as_map(), C).materialize(limit).is_zero()):
                raise AxiomError(
                    "differential leaves the induction kernel at degree %d" % n)
    return TDCochain(ce_differential(F.inducing, M), C)


def td_differential_direct(F, tdm, guard_limit=None):
    """Evaluate the displayed twisted formula in the operator space, then
    recover an inducing cochain by solving against the induction matrix.

    No solution would falsify the containment the construction rests on,
    so that case raises instead of reporting.
    """
    M = tdm.module
    C = tdm.coalgebra
    L, B = M.base.space, M.space
    n = F.degree
    limit = resolve_guard_limit(guard_limit)
    if n == 0:
        op = induced(ce_differential(F.inducing, M).as_map(), C).materialize(limit)
    else:
        fmap = MultilinearMap([L] * n, B, F.inducing.as_map().entries)
        acted = M.action.compose_at(fmap, 1)
        bracketed = fmap.compose_at(M.base.bracket, 0)
        parts = ([(acted, s, s.sign()) for s in unshuffles(1, n)]
                 + [(bracketed, s, -s.sign()) for s in unshuffles(2, n - 1)])
        op = table_sum(twisted_term(m, C, s, limit).scale(sign)
                       for m, s, sign in parts)
    iota = induction_matrix(n + 1, L, B, C, limit)
    keys = sorted(set(iota.row_keys()) | set(op.entries))
    dense = RationalMatrix.from_columns(
        len(keys), [[col.get(k, ZERO) for k in keys] for col in iota.columns])
    x = solve(dense, [op.entries.get(k, ZERO) for k in keys])
    if x is None:
        raise AxiomError(
            "twisted differential output is not induced at degree %d" % (n + 1))
    return TDCochain(AltCochain.from_vector(L, B, n + 1, x), C)


class TDComplexData:
    """Dimensions, ranks and consistency checks for one Hom-space complex.

    Two independent routes produce the cohomology dimensions: counting in
    the classical spaces (cochain dim minus composite rank minus kernel dim
    minus previous composite rank), and assembling the differential on
    explicit quotient bases where the squared differential is also checked.
    The constructor insists the routes agree.
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
        self.alt_dims = [alt_dim(L, B, k) for k in range(maxdeg + 2)]

        dense_iotas, iota_keys = [], []
        self.td_dims, self.ker_dims = [], []
        kernels, pivots = [], []
        for k in range(maxdeg + 2):
            sc = induction_matrix(k, L, B, C, limit)
            keys, dense = sc.to_dense()
            kern = kernel_basis(dense)
            dense_iotas.append(dense)
            iota_keys.append({key: i for i, key in enumerate(keys)})
            kernels.append(kern)
            pivots.append(pivot_columns(dense))
            self.td_dims.append(rank(dense))
            self.ker_dims.append(len(kern))

        self.a_ranks = []
        quotient = []
        for k in range(maxdeg + 1):
            composite = _induced_columns(
                [ce_differential(AltCochain(L, B, k, {key: 1}), M)
                 for key in alt_basis(L, B, k)], C, limit)
            _, dense_a = composite.to_dense()
            self.a_ranks.append(rank(dense_a))

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
            pos = iota_keys[k + 1]
            iota = dense_iotas[k + 1]
            sub = RationalMatrix.from_columns(
                iota.rows, [iota.column(c) for c in pivots[k + 1]])
            rhs = RationalMatrix.zero(len(pos), len(pivots[k]))
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
            if k == 0:
                self.h0_kernel = kernel_basis(dense_a)

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


def td_cohomology_dims(tdm, maxdeg=2, guard_limit=None, max_arity=3):
    """Cohomology dimensions H^0 .. H^maxdeg of the Hom-space complex."""
    return TDComplexData(tdm, maxdeg, guard_limit, max_arity).h_dims


def invariants_h0(tdm):
    """Basis of the target vectors every spanning Hom element acts to zero on.

    Stacks the action of each matrix-unit argument and takes the kernel;
    the result is the degree-0 cohomology.
    """
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
