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
is made on the way, and each tuple is held as a bitmask (_pushed).  With
d squared zero, each d_k is ranked by its columns off the pivot
coordinates of d_(k-1) (clearing, _cleared_ranks).

A torus element is a basis element h of L acting diagonally on L and M,
[h, e_s] = lam(s) e_s and h . m_b = mu(b) m_b, with a weight nonzero.  Under
theta_h = d iota_h + iota_h d (Cartan; Hochschild & Serre 1953) e^S (x) m_b
has weight w = mu(b) - sum_{s in S} lam(s), so d keeps weights and iota_h / w
contracts each block with w != 0.  classical_complex ranks the block of
weight 0 under every torus element, then rank d_k = rank d_k^0 + sum_{i <=
k} (-1)^(k-i) (dim C^i - dim C^i_0).  That needs the axioms, which also
make d squared zero, so the block takes no product and pushes only the
rows clearing ranks.  Without kept passing checks (check=False,
--unsafe-skip-axioms) the route is ce_complex, the oracle, which
certifies d squared = 0 by products.

A Hom-space cochain is named by an inducing classical cochain, two names
being equal when their difference is killed by the induction map, and the
twisted differential is the classical one pushed to the quotient.  The
induction map is the outer product f (x) Delta^(n), so it is injective
while the n-fold coproduct is nonzero and zero from the cut depth D, the
first n >= 1 where it dies: the Hom-space complex is the classical one cut
below degree D.  D is the first n where C.lives(n) is false, decided
source by source: a live Delta^(n) is seen at its first nonzero source,
and no full expansion is built.  TDComplexData ranks the complex by
classical_complex to degree D - 2, so d squared = 0 holds by theorem when
M has a torus.  The eager assembly and the materializing construction it
replaced are the test oracles in tests/td_oracle.py.

TDCochain, td_differential_direct and td_differential_induced are the
per-cochain library API, and they decide by the same injectivity without
laying an operator out.  Two names of degree n >= 1 are the same cochain
exactly when they are equal or Delta^(n) is zero.  The displayed twisted
formula is one induced map psi (x) Delta^(n+1), psi its unshuffle terms
summed as maps; psi is d f on increasing tuples, and skew exactly when f
reads nothing of the bracket's symmetric part (algebra.swap_defect), so
the formula names d f then, and zero where Delta^(n+1) is.
td_differential_induced is the classical differential: the same depth
argument shows that its legality check cannot fail.  induction_matrix
and TDCochain.operator lay operators out for a caller that asks for the
table; tests/td_oracle.py keeps psi built from its unshuffle maps, and
the formula materialized and solved against induction_matrix, as the
oracles of td_differential_direct.  invariants_h0 reads H^0 off the action
constants, as the vectors every e_t kills.  The size guard of both
routes is classical_complex's: the keys it may push.
"""

from itertools import combinations, permutations
from math import comb
from operator import lt

from .algebra import check_lie, check_module, swap_defect
from .checks import kept
from .convolution import DEFAULT_GUARD_LIMIT, check_size, induced
from .errors import AxiomError, ShapeError
from .linalg import (
    ZERO,
    RationalMatrix,
    SparseColumns,
    SparseTable,
    _exact,
    common_ints,
    pivot_columns,
    rank,
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
        """Compress a full skew map; checks every adjacent transposition
        t = (i i+1) on the int store: each value's t-swapped key holds its
        negative, on slots of one dimension."""
        n = m.arity
        if n < 1:
            raise ShapeError("degree-0 cochains have no map form")
        if check:
            ints = m._ints
            for i in range(n - 1):
                if m.domain[i].dim != m.domain[i + 1].dim or any(
                        ints.get((tup[:i] + (tup[i + 1], tup[i]) + tup[i + 2:], o)) != -v
                        for (tup, o), v in ints.items()):
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
    images = _pushed({(_mask(S), b): q for (S, b), q in f._ints.items()}, M)
    return AltCochain._from_ints(M.base.space, M.space, f.degree + 1,
                                 {(_bits(T), o): v for (T, o), v in images.items()},
                                 f._denominator * M.cleared_constants()[0])


def _mask(S):
    """The increasing tuple S as the int sum_{s in S} 2^s."""
    m = 0
    for s in S:
        m |= 1 << s
    return m


def _bits(m):
    """The mask m as its increasing tuple of set bits."""
    S = []
    while m:
        low = m & -m
        S.append(low.bit_length() - 1)
        m ^= low
    return tuple(S)


def _pushed(ints, M):
    """{(T, o): int}, maybe holding zeros: N times d of the cochain whose
    stored ints are ints, over the N of M.cleared_constants().  Keys hold
    each increasing tuple S as its mask m = sum_{s in S} 2^s.

    On an increasing tuple T = (t_0 < .. < t_n) the differential is

        sum_i (-1)^i t_i . f(T without t_i)
          + sum_{j<k} (-1)^(j+k) f([t_j, t_k], T without t_j, t_k).

    Instead of evaluating every T, each stored value f(S) = q e_b is sent
    to the tuples whose summands read it:

    - action: each t outside S that moves e_b lands at position i of
      T = m | 2^t, i = popcount(m & (2^t - 1)) the elements of S below t,
      and gives (-1)^i q (t . e_b) at T;
    - bracket: each a at position p of S may be the bracket of a pair
      x < y outside rest = m - 2^a, with coefficient c.  Then T = rest |
      2^x | 2^y, x and y sit at positions j < k of T, and the (j, k)
      summand reads f(a, S - a), which sorting turns into (-1)^p f(S); so
      it gives (-1)^(p+j+k) q c e_b at T.  Here j and k - 1 count the
      elements of rest below x and below y, so, x not being in rest,
      j + k - 1 has the parity of popcount(rest & (2^y - 2^x)).

    Only bracket entries with x < y are read, exactly the pairs the sum
    over j < k evaluates, so the result does not assume a skew bracket.
    """
    _, pairs, acting = M.cleared_constants()
    acc = {}
    for (m, b), q in ints.items():
        for bit, below, images in acting.get(b, ()):
            if m & bit:
                continue
            T = m | bit
            sq = -q if (m & below).bit_count() & 1 else q
            for o, r in images:
                acc[(T, o)] = acc.get((T, o), 0) + sq * r
        rem, p = m, 0
        while rem:
            low = rem & -rem
            rem ^= low
            rest = m ^ low
            for xy, between, c in pairs.get(low, ()):
                if not rest & xy:
                    key = (rest | xy, b)
                    sq = q * c
                    acc[key] = acc.get(key, 0) + (
                        sq if (p + (rest & between).bit_count()) & 1 else -sq)
            p += 1
    return acc


class ComplexMatrices:
    """Consecutive differentials in the increasing-tuple bases, each held
    by columns as its transpose T_k (_differential_matrix): row j of T_k is
    d_k of the basis cochain j.

    Construction verifies shapes chain and that consecutive products vanish
    exactly, then ranks them: holding one is holding a certified complex.
    _from_block holds no matrix (transposes is None): the ranks of the
    weight-0 block of a complex with the given cochain dims, which the
    caller certified, exact off that block, reported for all of it.
    """

    def __init__(self, transposes):
        self.transposes = list(transposes)
        self._ranks = _certified_ranks(
            self.transposes, "consecutive differentials do not compose to zero")
        self._dims = [t.rows for t in self.transposes] + [t.cols for t in self.transposes[-1:]]

    @classmethod
    def _from_block(cls, dims, block, ranks):
        cx = cls.__new__(cls)
        cx.transposes, cx._dims, cx._ranks, exact = None, dims, [], 0
        for n, m, r in zip(dims, block, ranks):
            exact = n - m - exact  # the rank of d_k off the block
            cx._ranks.append(r + exact)
        return cx

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
    before any elimination.  Then each T_k is ranked by _cleared_ranks,
    its rows in P_(k-1) emptied.
    """
    for a, b in zip(transposes, transposes[1:]):
        if a.cols != b.rows:
            raise ShapeError("differential shapes do not chain: %r then %r" % (a, b))
        if not a.matmul(b).is_zero():
            raise AxiomError(message)
    return _cleared_ranks(len(transposes), lambda k, cleared: RationalMatrix._from_int_rows(
        transposes[k].cols,
        [{} if i in cleared else row for i, row in enumerate(transposes[k]._rows)], 1))


def _cleared_ranks(count, held):
    """Ranks of d_0 .. d_(count-1) of a complex, d squared being zero, by
    clearing: eliminating T_(k-1), the columns of d_(k-1), picks pivot
    coordinates P_(k-1) of C^k that im d_(k-1) fills one to one, so, as d_k
    kills im d_(k-1), rank d_k is the rank of the rows of T_k outside
    P_(k-1): held(k, P_(k-1)) is T_k with the rows in P_(k-1) emptied or
    left out.  The last T_k, whose pivots nothing reads, is only ranked.
    """
    ranks, cleared = [], set()
    for k in range(count):
        m = held(k, cleared)
        if k + 1 < count:
            cleared = set(pivot_columns(m))
            ranks.append(len(cleared))
        else:
            ranks.append(rank(m))
    return ranks


def _differential_matrix(M, k):
    """d_k transposed in the increasing-tuple bases: row j is d_k of the
    basis cochain j, pushed through ce_differential and held as the ints of
    N d_k over the N of the module's cleared constants."""
    L, B = M.base.space, M.space
    N = M.cleared_constants()[0]
    target_index = {key: i for i, key in enumerate(alt_basis(L, B, k + 1))}
    columns = []
    for key in alt_basis(L, B, k):
        df = ce_differential(AltCochain._from_ints(L, B, k, {key: 1}, 1), M)
        # df's canonical denominator divides N
        scale = N // df._denominator
        columns.append({target_index[out_key]: v * scale
                        for out_key, v in df._ints.items()})
    return RationalMatrix._from_int_rows(len(target_index), columns, N)


def _weight_block(M, source, target):
    """The block of d transposed from the source keys (mask, b) to the
    target keys, which no image may leave: row j is N d of source key j
    (_pushed), over the N of M.cleared_constants()."""
    N = M.cleared_constants()[0]
    target_index = {key: i for i, key in enumerate(target)}
    columns = []
    for key in source:
        column = {}
        for out_key, v in _pushed({key: 1}, M).items():
            if v:
                i = target_index.get(out_key)
                if i is None:
                    raise AxiomError(
                        "d of the basis cochain %r leaves its weight block at %r"
                        % ((_bits(key[0]), key[1]), (_bits(out_key[0]), out_key[1])))
                column[i] = v
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
    """Basis keys (m, b) of C^0 .. C^top in alt_basis order, the increasing
    tuple S held as the mask m = sum_{s in S} 2^s, with mu(b) = sum_{s in
    S} lam(s) for every (lam, mu) in weights.  The tuples grow degree by
    degree as (mask, running weight sum, next index), each sum packed into
    one int as sum_c entry_c B^c, B = (top + 1) max |v| + 1 over the weight
    entries v.  The module basis is grouped by packed weight, and a tuple of
    degree top is built only when its sum is one.  Each lookup compares a
    sum of at most top weights with a module weight, so their difference
    has digits of size at most (top + 1) max |v| < B; a lowest digit below
    B in size that is 0 mod B is 0, so digit by digit the packed sums are
    equal exactly when the vectors are."""
    n = M.base.space.dim
    B = max([1] + [abs(v) * (top + 1) for lam, mu in weights for v in lam + mu]) + 1
    step = [sum(lam[s] * B ** c for c, (lam, _) in enumerate(weights)) for s in range(n)]
    by_weight = {}
    for b in range(M.space.dim):
        w = sum(mu[b] * B ** c for c, (_, mu) in enumerate(weights))
        by_weight.setdefault(w, []).append(b)
    level, keys = [(0, 0, 0)], [[(0, b) for b in by_weight.get(0, ())]]
    for k in range(1, top + 1):
        level = [(m | 1 << t, w + step[t], t + 1) for m, w, start in level
                 for t in range(start, n)
                 if k < top or w + step[t] in by_weight]
        keys.append([(m, b) for m, w, _ in level for b in by_weight.get(w, ())])
    return keys


def classical_complex(M, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    """The classical complex to degree maxdeg, ranked on its weight-0 block
    (ce_complex, which refuses a maxdeg out of range, without a torus).

    A torus needs kept passing axioms, which make d squared zero
    (Chevalley & Eilenberg 1948): the block takes no product, and C^k
    pushes only its keys off the pivots of d_(k-1) (_cleared_ranks).

    Priced before anything is assembled by the basis keys whose images it
    may push, those of C^0 .. C^maxdeg in the block or the whole complex,
    and refused by check_size above guard_limit."""
    weights, L, B = torus(M), M.base.space, M.space
    if not weights or not 0 <= maxdeg <= L.dim:
        check_size(sum(alt_dim(L, B, k) for k in range(maxdeg + 1)),
                   guard_limit)
        return ce_complex(M, maxdeg)
    keys = weight_zero_keys(M, weights, maxdeg + 1)
    check_size(sum(map(len, keys[:-1])), guard_limit)
    ranks = _cleared_ranks(maxdeg + 1, lambda k, cleared: _weight_block(
        M, [key for i, key in enumerate(keys[k]) if i not in cleared],
        keys[k + 1]))
    return ComplexMatrices._from_block([alt_dim(L, B, k) for k in range(maxdeg + 2)],
                                       list(map(len, keys)), ranks)


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
    basis = alt_basis(L, B, n)
    sc = SparseColumns(len(basis))
    for ci, key in enumerate(basis):
        f = AltCochain._from_ints(L, B, n, {key: 1}, 1)
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
        """Equality as cochains: the difference of names induces zero.

        In degree 0 the name is the cochain.  In degree n >= 1 a name f
        induces f (x) Delta^(n), an outer product, which is zero exactly
        when f or Delta^(n) is; so two names are the same cochain exactly
        when they are equal or Delta^(n) is zero, and nothing is laid out.
        tests/td_oracle.py keeps the test on the materialized operator as
        the oracle.
        """
        if self.degree != other.degree or self.coalgebra is not other.coalgebra:
            return False
        return (self.inducing.sub(other.inducing).is_zero()
                or self.degree >= 1 and not self.coalgebra.lives(self.degree))

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


def _reads_symmetric_part(f, bracket):
    """True when f(S(a, b), R) is nonzero for some a <= b and R, S(a, b) =
    [a, b] + [b, a] the bracket's symmetric part (swap_defect at sign 1).
    Each stored f(T) = q e_o is pushed through T's elements: for c at
    position p of T, f(e_c, T - c) = (-1)^p q e_o, and S(a, b) = s e_c
    adds s times that at (a, b, T - c, o).  f alternates in R, so the
    increasing R, the T - c, decide."""
    reading = {}
    for ((a, b), c), s in swap_defect(bracket, 1)[0].items():
        if s:
            reading.setdefault(c, []).append(((a, b), s))
    acc = {}
    for (T, o), q in f._ints.items():
        for p, c in enumerate(T):
            for ab, s in reading.get(c, ()):
                key = (ab, T[:p] + T[p + 1:], o)
                acc[key] = acc.get(key, 0) + (-s if p & 1 else s) * q
    return any(acc.values())


def td_differential_direct(F, tdm):
    """The displayed twisted formula as a Hom-space cochain.

    The formula is psi (x) Delta^(n+1), psi = part1 - part2 its unshuffle
    terms summed as maps, each rearrangement twisted (twisting and then
    rearranging cancel).  Where Delta^(n+1) is zero every name names the
    zero cochain, and the zero name is returned.  Elsewhere the outer
    product with Delta^(n+1) is injective, so psi names a cochain exactly
    when it is skew, and that cochain is d f, which psi is on increasing
    tuples.  part1 is skew, and swapping adjacent arguments of part2
    leaves -f(S(x, y), rest) over, S(x, y) = [x, y] + [y, x], so for
    n >= 1 psi is skew exactly when f reads no value of S
    (_reads_symmetric_part).  A psi that is not would falsify the
    containment the construction rests on, so that case raises instead of
    reporting.  tests/td_oracle.py keeps psi built from its unshuffle
    maps, and the formula materialized and solved against the induction
    matrix, as the oracles.
    """
    M, C, n = tdm.module, tdm.coalgebra, F.degree
    if not C.lives(n + 1):
        return TDCochain(AltCochain(M.base.space, M.space, n + 1, {}), C)
    df = ce_differential(F.inducing, M)
    if n >= 1 and _reads_symmetric_part(F.inducing, M.base.bracket):
        raise AxiomError(
            "twisted differential output is not induced at degree %d" % (n + 1))
    return TDCochain(df, C)


class TDComplexData:
    """Dimensions and ranks of one Hom-space complex: the classical complex
    cut below the depth D, the first k >= 1 where C.lives(k) is false,
    decided source by source (maxdeg + 2 when none up to maxdeg + 1 is).

    - td_dims[k] is alt_dims[k] for k < D, else 0; ker_dims[k] is the rest;
    - the quotient differential is d_k for k <= D - 2 and zero after, so
      q_ranks, which the report also gives as the composite ranks, are
      classical_complex's ranks to degree min(maxdeg, D - 2, dim L),
      padded with zeros.  A failed d squared check, which only the
      ce_complex route takes, reads "quotient differentials do not square
      to zero".

    The size guard is classical_complex's, priced by the keys it may push
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
                           if not C.lives(k)), maxdeg + 2)
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
        symmetric = any(swap_defect(self.tdm.module.base.bracket, 1)[0].values())
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
