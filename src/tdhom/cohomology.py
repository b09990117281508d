"""Chevalley-Eilenberg cohomology, classically and on Hom spaces.

Classical cochains are skew maps stored by their values on strictly
increasing basis tuples, as ints over one canonical denominator (values
is a read-only Fraction view); differentials become exact rational
matrices in that basis and ranks decide everything.  A differential is
pushed forward from the cochain's stored ints through the bracket and
action indexed by output and by input, so its cost follows the nonzeros,
not the number of tuples.  The push-forward runs in ints, over the
bracket and action constants cleared by their common denominator N, so
d_k is assembled as the int matrix N d_k, which has the same rank and
squares to zero with its neighbours exactly when d_k does; no Fraction
is made on the way.  Once d squared is checked to vanish, each d_k is
ranked by its columns off the pivot coordinates of d_(k-1) (clearing).

A torus element is a basis element h of L acting diagonally on L and M,
[h, e_s] = lam(s) e_s and h . m_b = mu(b) m_b, with a weight nonzero.  Under
theta_h = d iota_h + iota_h d (Cartan; Hochschild & Serre 1953) e^S (x) m_b
has weight w = mu(b) - sum_{s in S} lam(s), so d keeps weights and iota_h / w
contracts each block with w != 0.  classical_complex assembles, squares (so
certifies d squared = 0 only there) and ranks the block of weight 0 under
every torus element, then rank d_k = rank d_k^0 + sum_{i <= k} (-1)^(k-i)
(dim C^i - dim C^i_0).  That needs the axioms: without kept passing checks
(check=False, --unsafe-skip-axioms) the route is ce_complex, the oracle.

A Hom-space cochain is named by an inducing classical cochain, two names
being equal when their difference is killed by the induction map, and the
twisted differential is the classical one pushed to the quotient.  The
induction map is the outer product f (x) Delta^(n), so it is injective
while the n-fold coproduct is nonzero and zero from the cut depth D, the
first n >= 1 where it dies: the Hom-space complex is the classical one cut
below degree D.  TDComplexData ranks it by classical_complex to degree
D - 2, so d squared = 0 is certified on the weight-0 block when M has a
torus.  The eager assembly and the materializing construction it
replaced are the test oracles in tests/td_oracle.py.  induction_matrix,
td_differential_direct and TDCochain work in the operator spaces one
cochain at a time; they are the per-cochain library API and the oracle's
building blocks, and the displayed twisted formula they evaluate is one
induced map, its unshuffle terms summed as maps (twisted_sum).
td_differential_induced is the classical differential: the same depth
argument shows that its legality check cannot fail.  invariants_h0 reads
H^0 off the action constants, as the vectors every e_t kills.  The size
guard of both routes is classical_complex's: the keys it pushes.
"""

from bisect import bisect_left
from itertools import combinations, permutations
from math import comb
from operator import lt

from .algebra import check_lie, check_module
from .checks import kept
from .convolution import (
    DEFAULT_GUARD_LIMIT,
    check_size,
    induced,
    twisted_sum,
)
from .errors import AxiomError, ShapeError
from .linalg import (
    ZERO,
    Permutation,
    RationalMatrix,
    SparseColumns,
    SparseTable,
    _exact,
    common_ints,
    pivot_columns,
    rank,
    solve,
)
from .maps import MultilinearMap, _check_int


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

    Stored as a SparseTable keyed by (tuple, output index), with values as
    its read-only Fraction view.
    """

    TABLE = "values"
    SHAPE = ("lie_space", "target", "degree")
    values = SparseTable.entries

    def __init__(self, lie_space, target, degree, values):
        table = {}
        dim, out_dim = lie_space.dim, target.dim
        for key, q in values.items():
            tup, o = key
            if len(tup) != degree:
                raise ShapeError("tuple %r in a degree-%d cochain" % (tup, degree))
            for i in tup:
                _check_int(i, "input", lie_space)
            _check_int(o, "output", target)
            if not all(map(lt, tup, tup[1:])):
                raise ShapeError("tuple %r is not strictly increasing" % (tup,))
            if tup and not (0 <= tup[0] and tup[-1] < dim):
                raise ShapeError("tuple %r out of range" % (tup,))
            if not 0 <= o < out_dim:
                raise ShapeError("output index %d out of range" % o)
            table[key] = _exact(q)
        self.lie_space = lie_space
        self.target = target
        self.degree = degree
        self._set_table(table)

    @classmethod
    def _from_ints(cls, lie_space, target, degree, ints, den):
        """The cochain ints / den on in-range increasing keys, such as
        assembly and arithmetic build, unchecked."""
        f = cls.__new__(cls)
        f.lie_space, f.target, f.degree = lie_space, target, degree
        f._set_ints(ints, den)
        return f

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
        ints = {}
        for (tup, o), v in self._ints.items():
            for arrangement in permutations(tup):
                sign, _ = sorting_sign(arrangement)
                ints[(arrangement, o)] = sign * v
        return MultilinearMap._trusted([self.lie_space] * self.degree, self.target,
                                       ints, self._denominator)

    def _dims(self):
        return self.degree, self.lie_space.dim, self.target.dim

    def _check_compatible(self, other):
        if self.degree != other.degree:
            raise ShapeError("degree %d vs %d" % (self.degree, other.degree))

    def __repr__(self):
        return "AltCochain(degree=%d, %d values)" % (self.degree, len(self._ints))


def _check_module_shapes(f, M):
    if f.lie_space.dim != M.base.space.dim or f.target.dim != M.space.dim:
        raise ShapeError("cochain spaces do not match the module")


def ce_differential(f, M):
    """The degree-raising double sum, pushed forward from f's stored values
    by _pushed: its int sums over N times f's denominator."""
    _check_module_shapes(f, M)
    return AltCochain._from_ints(M.base.space, M.space, f.degree + 1,
                                 _pushed(f._ints, M),
                                 f._denominator * M.cleared_constants()[0])


def _pushed(ints, M):
    """{(T, o): int}, maybe holding zeros: N times d of the cochain whose
    stored ints are ints, over the N of M.cleared_constants().

    On an increasing tuple T = (t_0 < .. < t_n) the differential is

        sum_i (-1)^i t_i . f(T without t_i)
          + sum_{j<k} (-1)^(j+k) f([t_j, t_k], T without t_j, t_k).

    Instead of evaluating every T, each stored value f(S) = q e_b is sent
    to the tuples whose summands read it:

    - action: each t outside S that moves e_b lands at position i of
      T = sorted(S + t) and gives (-1)^i q (t . e_b) at T;
    - bracket: each a at position p of S may be the bracket of a pair
      x < y outside S - a, with coefficient c.  Then T = sorted(S - a + x
      + y), x and y sit at positions j < k of T, and the (j, k) summand
      reads f(a, S - a), which sorting turns into (-1)^p f(S); so it gives
      (-1)^(p+j+k) q c e_b at T.

    Only bracket entries with x < y are read, exactly the pairs the sum
    over j < k evaluates, so the result does not assume a skew bracket.
    """
    _, pairs, acting = M.cleared_constants()
    acc = {}
    for (S, b), q in ints.items():
        for t, images in acting.get(b, ()):
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


class ComplexMatrices:
    """Consecutive differentials in the increasing-tuple bases, each held
    by columns as its transpose T_k (_differential_matrix): row j of T_k is
    d_k of the basis cochain j.

    Construction verifies shapes chain and that consecutive products vanish
    exactly, then ranks them: holding one is holding a certified complex.
    Given dims, the matrices are the weight-0 block of a complex with
    those cochain dims, exact off that block, and report for all of it.
    """

    def __init__(self, transposes, dims=None):
        self.transposes = list(transposes)
        ranks = _certified_ranks(
            self.transposes, "consecutive differentials do not compose to zero")
        block = [t.rows for t in self.transposes] + [t.cols for t in self.transposes[-1:]]
        self._dims = list(dims or block)
        exact = 0  # the rank of d_k off the block
        for k, r in enumerate(ranks):
            exact = self._dims[k] - block[k] - exact
            ranks[k] = r + exact
        self._ranks = ranks

    def cochain_dims(self):
        return list(self._dims)

    def ranks(self):
        return self._ranks

    def cohomology_dims(self):
        """dim ker d_k minus rank d_{k-1}, for each k with d_k present."""
        ranks = self._ranks
        return [n - r - below
                for n, r, below in zip(self._dims, ranks, [0] + ranks)]


def _certified_ranks(transposes, message):
    """Ranks of consecutive differentials d_0, d_1, .., given as their
    transposes T_k, taken only once their shapes chain and each T_k T_(k+1)
    = (d_(k+1) d_k)^T vanishes: ShapeError, or AxiomError(message), comes
    before any elimination.

    By clearing: eliminating T_(k-1), the columns of d_(k-1), picks pivot
    coordinates P of C^k that im d_(k-1) fills one to one, so, as d_k
    kills im d_(k-1), rank d_k is the rank of T_k with the rows in P
    emptied.  The last T_k, whose pivots nothing reads, is only ranked.
    """
    for a, b in zip(transposes, transposes[1:]):
        if a.cols != b.rows:
            raise ShapeError("differential shapes do not chain: %r then %r" % (a, b))
        if not a.matmul(b).is_zero():
            raise AxiomError(message)
    ranks, cleared = [], set()
    for k, t in enumerate(transposes):
        held = RationalMatrix._from_int_rows(
            t.cols, [{} if i in cleared else row for i, row in enumerate(t._rows)], 1)
        if k + 1 < len(transposes):
            cleared = set(pivot_columns(held))
            ranks.append(len(cleared))
        else:
            ranks.append(rank(held))
    return ranks


def _differential_matrix(M, k, source=None, target=None):
    """d_k transposed, or its block from source keys to target keys, which
    no image may leave, in the increasing-tuple bases: row j is d_k of the
    basis cochain j, held as the ints of N d_k over the N of the module's
    cleared constants.  The whole d_k pushes each basis cochain through
    ce_differential; a block pushes each key through _pushed."""
    L, B = M.base.space, M.space
    N = M.cleared_constants()[0]
    whole = source is None
    if whole:
        source, target = alt_basis(L, B, k), alt_basis(L, B, k + 1)
    target_index = {key: i for i, key in enumerate(target)}
    columns = []
    for key in source:
        if whole:
            df = ce_differential(AltCochain._from_ints(L, B, k, {key: 1}, 1), M)
            # df's canonical denominator divides N
            image, scale = df._ints, N // df._denominator
        else:
            image, scale = _pushed({key: 1}, M), 1
        column = {}
        for out_key, v in image.items():
            if v:
                i = target_index.get(out_key)
                if i is None:
                    raise AxiomError("d of the basis cochain %r leaves its "
                                     "weight block at %r" % (key, out_key))
                column[i] = v * scale
        columns.append(column)
    return RationalMatrix._from_int_rows(len(target), columns, N)


def ce_complex(M, maxdeg):
    """d_0 .. d_maxdeg of the whole classical complex; classical_complex's oracle."""
    L = M.base.space
    if not 0 <= maxdeg <= L.dim:
        raise ValueError("maxdeg must lie in 0..%d, got %d" % (L.dim, maxdeg))
    return ComplexMatrices(_differential_matrix(M, k) for k in range(maxdeg + 1))


def torus(M):
    """(lam, mu) per torus element h: [h, e_s] = lam[s] e_s, h . m_b = mu[b]
    m_b, ints over the common denominator of bracket and action.  Empty
    unless M's kept check_module and its base's kept check_lie pass."""
    if not (kept(M, check_module) and kept(M.base, check_lie)):
        return []
    L, B = M.base.space, M.space
    lam, mu = ([[0] * d for _ in range(L.dim)] for d in (L.dim, B.dim))
    diagonal = [True] * L.dim
    tables, _ = common_ints([M.base.bracket, M.action])
    for weights, table in zip((lam, mu), tables):
        for ((h, x), o), v in table.items():
            weights[h][x] = v
            diagonal[h] = diagonal[h] and o == x
    return [(lam[h], mu[h]) for h in range(L.dim)
            if diagonal[h] and (any(lam[h]) or any(mu[h]))]


def weight_zero_keys(M, weights, top):
    """Basis keys (S, b) of C^0 .. C^top in alt_basis order with mu(b) =
    sum_{s in S} lam(s) for every (lam, mu) in weights.  The increasing
    tuples S grow degree by degree with their running weight sums, each
    packed into one int as sum_c entry_c B^c, B above twice any |entry| of
    a module weight or of a sum of up to top weights, so that sums pack
    equal exactly when they are.  The module basis is grouped by packed
    weight, and a tuple of degree top is built only when its sum is one."""
    n = M.base.space.dim
    B = 2 * max([1] + [abs(v) * (top + 1) for lam, mu in weights for v in lam + mu]) + 1
    step = [sum(lam[s] * B ** c for c, (lam, _) in enumerate(weights)) for s in range(n)]
    by_weight = {}
    for b in range(M.space.dim):
        w = sum(mu[b] * B ** c for c, (_, mu) in enumerate(weights))
        by_weight.setdefault(w, []).append(b)
    level, keys = [((), 0)], [[((), b) for b in by_weight.get(0, ())]]
    for k in range(1, top + 1):
        level = [(S + (t,), w + step[t]) for S, w in level
                 for t in range(S[-1] + 1 if S else 0, n)
                 if k < top or w + step[t] in by_weight]
        keys.append([(S, b) for S, w in level for b in by_weight.get(w, ())])
    return keys


def classical_complex(M, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    """The classical complex to degree maxdeg, ranked on its weight-0 block
    (ce_complex, which refuses a maxdeg out of range, without a torus).

    Priced before anything is assembled by the basis keys whose images it
    pushes, those of C^0 .. C^maxdeg in the block or the whole complex,
    and refused by check_size above guard_limit."""
    weights, L, B = torus(M), M.base.space, M.space
    if not weights or not 0 <= maxdeg <= L.dim:
        check_size(sum(alt_dim(L, B, k) for k in range(maxdeg + 1)),
                   guard_limit)
        return ce_complex(M, maxdeg)
    keys = weight_zero_keys(M, weights, maxdeg + 1)
    check_size(sum(map(len, keys[:-1])), guard_limit)
    return ComplexMatrices((_differential_matrix(M, k, keys[k], keys[k + 1])
                            for k in range(maxdeg + 1)),
                           [alt_dim(L, B, k) for k in range(maxdeg + 2)])


def induction_matrix(n, L, B, C):
    """Columns: materialized operators induced by the degree-n basis
    cochains; the kernel of this matrix is what cochain names forget."""
    if n < 0:
        raise ValueError("degree must be nonnegative, got %d" % n)
    if n == 0:
        sc = SparseColumns(B.dim)
        for b in range(B.dim):
            sc.add(b, (b,), 1)
        return sc
    basis = [AltCochain._from_ints(L, B, n, {key: 1}, 1) for key in alt_basis(L, B, n)]
    return _induced_columns(basis, C)


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


class TDCochain:
    """A Hom-space cochain named by an inducing classical one."""

    def __init__(self, inducing, coalgebra):
        self.inducing = inducing
        self.coalgebra = coalgebra

    @property
    def degree(self):
        return self.inducing.degree

    def operator(self):
        """The materialized operator this cochain is, for degree >= 1."""
        return induced(self.inducing.as_map(), self.coalgebra).materialize()

    def same_as(self, other):
        """Equality as cochains: the difference of names induces zero."""
        if self.degree != other.degree or self.coalgebra is not other.coalgebra:
            return False
        diff = self.inducing.sub(other.inducing)
        if self.degree == 0:
            return diff.is_zero()
        if diff.is_zero():
            return True
        return induced(diff.as_map(), self.coalgebra).materialize().is_zero()

    def __repr__(self):
        return "TDCochain(degree=%d over %s)" % (self.degree, self.coalgebra.space.name)


def td_differential_induced(F, tdm):
    """Apply the classical differential to the inducing cochain.

    Names of zero stay names of zero without a check: the degree-n
    induction map is injective while Delta^(n) lives, and where Delta^(n)
    is zero so is Delta^(n+1), and every image names zero.
    tests/td_oracle.py keeps the factored legality check as the oracle.
    """
    return TDCochain(ce_differential(F.inducing, tdm.module), tdm.coalgebra)


def _twisted_operator(f, tdm):
    """The displayed twisted formula applied to the cochain f: the
    operator d f, evaluated in the operator space.  Its unshuffle terms,
    each rearrangement twisted, are one induced map (twisted_sum), laid
    out."""
    M, C, n = tdm.module, tdm.coalgebra, f.degree
    if n == 0:
        return induced(ce_differential(f, M).as_map(), C).materialize()
    L, B = M.base.space, M.space
    fmap = MultilinearMap([L] * n, B, f.as_map().entries)
    acted = M.action.compose_at(fmap, 1)
    bracketed = fmap.compose_at(M.base.bracket, 0)
    terms = ([(acted, s, s.sign()) for s in unshuffles(1, n)]
             + [(bracketed, s, -s.sign()) for s in unshuffles(2, n - 1)])
    return twisted_sum(terms, C).materialize()


def td_differential_direct(F, tdm):
    """Evaluate the displayed twisted formula in the operator space, then
    recover an inducing cochain by solving against the induction matrix.

    No solution would falsify the containment the construction rests on,
    so that case raises instead of reporting.
    """
    L, B = tdm.module.base.space, tdm.module.space
    n = F.degree
    op = _twisted_operator(F.inducing, tdm)
    iota = induction_matrix(n + 1, L, B, tdm.coalgebra)
    keys, m = iota.to_dense()
    # an entry on a key outside keys is a row no combination reaches
    x = solve(m, [op.entries.get(k, ZERO) for k in keys]) \
        if set(op.entries) <= set(keys) else None
    if x is None:
        raise AxiomError(
            "twisted differential output is not induced at degree %d" % (n + 1))
    return TDCochain(AltCochain.from_vector(L, B, n + 1, x), tdm.coalgebra)


class TDComplexData:
    """Dimensions and ranks of one Hom-space complex: the classical complex
    cut below the depth D, the first k >= 1 with Delta^(k) zero (maxdeg + 2
    when none up to maxdeg + 1 is).

    - td_dims[k] is alt_dims[k] for k < D, else 0; ker_dims[k] is the rest;
    - the quotient differential is d_k for k <= D - 2 and zero after, so
      q_ranks, which the report also gives as the composite ranks, are
      classical_complex's ranks to degree min(maxdeg, D - 2, dim L),
      padded with zeros.  A failed d squared check, on the weight-0 block
      when M has a torus, reads "quotient differentials do not square to
      zero".

    The size guard is classical_complex's, priced by the keys it pushes
    below the cut; errors keep the messages of the materializing
    construction, tests/td_oracle.py's oracle.
    """

    def __init__(self, tdm, maxdeg=2, guard_limit=DEFAULT_GUARD_LIMIT):
        if maxdeg < 0:
            raise ValueError("maxdeg must be nonnegative")
        M = tdm.module
        C = tdm.coalgebra
        L, B = M.base.space, M.space

        self.tdm = tdm
        self.maxdeg = maxdeg
        self.alt_dims = [alt_dim(L, B, k) for k in range(maxdeg + 2)]
        self.depth = next((k for k in range(1, maxdeg + 2)
                           if not C.iterated_terms(k)), maxdeg + 2)
        self.td_dims = [n if k < self.depth else 0
                        for k, n in enumerate(self.alt_dims)]
        self.ker_dims = [a - t for a, t in zip(self.alt_dims, self.td_dims)]
        # With iota injective or zero in every degree, names of zero map to
        # names of zero, the quotient differential is always solvable and
        # the counting route equals the quotient route; only d squared fails.
        top = min(maxdeg, self.depth - 2, L.dim)
        try:
            ranks = (classical_complex(M, top, guard_limit).ranks()
                     if top >= 0 else [])
        except AxiomError:
            raise AxiomError(
                "quotient differentials do not square to zero") from None
        self.q_ranks = ranks + [0] * (maxdeg + 1 - len(ranks))
        self.h_dims = [t - r - below for t, r, below in
                       zip(self.td_dims, self.q_ranks, [0] + self.q_ranks)]

    def direct_vs_induced(self):
        """Return "agree", or raise AxiomError at the first degree whose
        twisted-formula images are not all induced.

        The twisted formula is induced(part1 - part2) from the unshuffle
        parts, and on increasing tuples part1 - part2 is d f, so where
        Delta^(k+1) lives it is induced, and then by d f, exactly when it
        is skew.  part1 is skew, and swapping adjacent arguments of part2
        leaves f([x, y] + [y, x], rest) over, so some basis cochain of
        degree k >= 1 fails exactly when the bracket's symmetric part is
        nonzero.  Where Delta^(k+1) is zero, and in degree 0, both sides
        are the same operator.  tests/test_cohomology.py keeps the
        per-cochain skewness test as the oracle.
        """
        bracket = self.tdm.module.base.bracket._ints
        symmetric = any(v + bracket.get(((y, x), o), 0)
                        for ((x, y), o), v in bracket.items())
        for k in range(1, self.maxdeg + 1):
            if symmetric and self.alt_dims[k] and k + 1 < self.depth:
                raise AxiomError(
                    "twisted differential output is not induced at "
                    "degree %d" % (k + 1))
        return "agree"


def td_cohomology_dims(tdm, maxdeg=2, guard_limit=DEFAULT_GUARD_LIMIT):
    """Cohomology dimensions H^0 .. H^maxdeg of the Hom-space complex."""
    return TDComplexData(tdm, maxdeg, guard_limit).h_dims


def invariants_h0(tdm):
    """Basis of the target vectors every Hom element acts to zero on: the
    degree-0 cohomology.

    A matrix unit E[t, c] acts on e_b through e_t alone, so the vectors
    are those every e_t kills, the kernel of the action constants stacked
    by (t, o); when C is zero-dimensional there is no Hom element and all
    of B is invariant.  tests/td_oracle.py keeps the stacking over every
    matrix unit as the oracle.
    """
    M = tdm.module
    stacked = SparseColumns(M.space.dim)
    if tdm.coalgebra.space.dim:
        # over the action's denominator: the matrix is scaled, its kernel is not
        for ((t, b), o), v in M.action._ints.items():
            stacked.add(b, (t, o), v)
    return stacked.kernel_basis()
