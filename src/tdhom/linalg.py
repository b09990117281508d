"""Exact rational linear algebra: permutations, tensors, matrices.

Scalars are fractions.Fraction throughout: always lowest terms, positive
denominator, exact field arithmetic.  Nothing in the package ever touches a
float.

Every rank, pivot set, kernel and solve comes from one sparse echelon form
(Echelon): rows stored as {column: Fraction} dicts, fed shortest first and
reduced by their leading column.  Its answers are the unique ones fixed by
the lexicographically first independent column set, so they are
reproducible bit for bit whatever the row order.  The dense fraction-free
elimination RationalMatrix._echelon is kept only as the test oracle.

SparseTable holds the sparse arithmetic (add, sub, scale, is_zero) shared by
every class stored as a {key: Fraction} table with no zero entry: maps,
Hom elements, materialized operators and cochains.
"""

import functools
import itertools
from fractions import Fraction

from .errors import InvalidPermutation, ShapeError

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class BasedSpace:
    """A finite-dimensional vector space with a named basis."""

    def __init__(self, name, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ShapeError("duplicate basis labels in %r" % (name,))
        self.name = name
        self.labels = labels

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)

    def __repr__(self):
        return "BasedSpace(%r, dim=%d)" % (self.name, self.dim)


def tensor_space(spaces):
    """Product-basis space for a list of factors; labels joined with |."""
    labels = [
        "|".join(combo)
        for combo in itertools.product(*(s.labels for s in spaces))
    ]
    name = "(" + "*".join(s.name for s in spaces) + ")"
    return BasedSpace(name, labels)


class Permutation:
    """A bijection of {0,..,n-1} stored by its image array.

    Composition is left to right: a.then(b) applies a first.

    >>> s = Permutation.cycle([0, 1, 2], 3)   # 0->1->2->0
    >>> s.images
    (1, 2, 0)
    >>> s.then(s).then(s) == Permutation.identity(3)
    True
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise InvalidPermutation("not a bijection: %r" % (images,))
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def transposition(cls, i, j, n):
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(images)

    @classmethod
    def cycle(cls, points, n):
        """The cycle sending points[0] -> points[1] -> ... -> points[0]."""
        images = list(range(n))
        for idx, a in enumerate(points):
            images[a] = points[(idx + 1) % len(points)]
        return cls(images)

    @property
    def size(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def inverse(self):
        images = [0] * self.size
        for i, j in enumerate(self.images):
            images[j] = i
        return Permutation(images)

    def then(self, other):
        """self followed by other: (self.then(other))(k) = other(self(k))."""
        if self.size != other.size:
            raise ShapeError("cannot compose permutations of sizes %d and %d"
                             % (self.size, other.size))
        return Permutation(other.images[j] for j in self.images)

    def sign(self):
        # inversion count; the test suite cross-checks via cycle parity
        inv = 0
        im = self.images
        for i in range(len(im)):
            for j in range(i + 1, len(im)):
                if im[i] > im[j]:
                    inv += 1
        return -1 if inv % 2 else 1

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)


def permutation_sign(p):
    """The sign as an exact Scalar, +1 or -1."""
    return Fraction(p.sign())


def all_permutations(n):
    """All of S_n in lexicographic order of image arrays."""
    return [Permutation(im) for im in itertools.permutations(range(n))]


def gather(p, seq):
    """Reorder seq so position i holds seq[p(i)].

    This is how a permutation acts on an argument list: applying p to
    (f_0,..,f_{n-1}) yields (f_{p(0)},..,f_{p(n-1)}).

    >>> gather(Permutation.cycle([0, 1, 2], 3), "abc")
    ('b', 'c', 'a')
    """
    return tuple(seq[p(i)] for i in range(len(seq)))


def scatter(p, seq):
    """Inverse transport: position p(i) holds seq[i]; gather(p, scatter(p, s)) == s.

    >>> s = Permutation.cycle([0, 1, 2], 3)
    >>> gather(s, scatter(s, "abc"))
    ('a', 'b', 'c')
    """
    out = [None] * len(seq)
    for i, x in enumerate(seq):
        out[p(i)] = x
    return tuple(out)


class DenseTensor:
    """Row-major dense tensor of Fractions, for small orders (<= 4)."""

    def __init__(self, shape, entries):
        shape = tuple(shape)
        entries = list(entries)
        total = 1
        for d in shape:
            total *= d
        if len(entries) != total:
            raise ShapeError("entry count %d does not match shape %r" % (len(entries), shape))
        self.shape = shape
        self.entries = entries

    @classmethod
    def zero(cls, shape):
        total = 1
        for d in shape:
            total *= d
        return cls(shape, [ZERO] * total)

    def flat(self, idx):
        if len(idx) != len(self.shape):
            raise ShapeError("index %r for a tensor of shape %r" % (idx, self.shape))
        pos = 0
        for i, d in zip(idx, self.shape):
            if not 0 <= i < d:
                raise ShapeError("index %r out of range for shape %r" % (idx, self.shape))
            pos = pos * d + i
        return pos

    def get(self, idx):
        return self.entries[self.flat(idx)]

    def set(self, idx, value):
        self.entries[self.flat(idx)] = value

    def indices(self):
        return itertools.product(*(range(d) for d in self.shape))

    def __eq__(self, other):
        return (
            isinstance(other, DenseTensor)
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __repr__(self):
        return "DenseTensor(shape=%r)" % (self.shape,)


def tensor_leg_permute(t, p):
    """Permute tensor legs: output entry at (i_{p(0)},..,i_{p(n-1)}) is the
    input entry at (i_0,..,i_{n-1})."""
    if p.size != len(t.shape):
        raise ShapeError("permutation size %d vs tensor order %d" % (p.size, len(t.shape)))
    out = DenseTensor.zero(gather(p, t.shape))
    for idx in t.indices():
        out.set(gather(p, idx), t.get(idx))
    return out


def _clear_denominators(row):
    """Scale a Fraction row to integers (keeps the row space)."""
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            g = _gcd(lcm, d)
            lcm = lcm // g * d
    return [int(x * lcm) for x in row]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class RationalMatrix:
    """Dense matrix of Fractions; eliminate it with rank, solve and friends."""

    def __init__(self, rows, cols, entries):
        entries = [x if type(x) is Fraction else Fraction(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeError("need %d entries, got %d" % (rows * cols, len(entries)))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for r in rows_list:
            if len(r) != cols:
                raise ShapeError("ragged rows: %d entries, expected %d" % (len(r), cols))
        return cls(rows, cols, [x for r in rows_list for x in r])

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix whose column j is the dense vector columns[j]."""
        for c in columns:
            if len(c) != rows:
                raise ShapeError("column of %d entries, expected %d" % (len(c), rows))
        return cls(rows, len(columns), [c[i] for i in range(rows) for c in columns])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i * n + i] = ONE
        return m

    def get(self, i, j):
        return self.entries[i * self.cols + j]

    def set(self, i, j, value):
        self.entries[i * self.cols + j] = Fraction(value)

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j):
        return self.entries[j::self.cols]

    def matmul(self, other):
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        n = other.cols
        out = RationalMatrix.zero(self.rows, n)
        other_rows = _row_dicts(other)
        for i, row in enumerate(_row_dicts(self)):
            base = i * n
            for k, a in row.items():
                for j, b in other_rows[k].items():
                    out.entries[base + j] += a * b
        return out

    def is_zero(self):
        return all(x == 0 for x in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return "RationalMatrix(%dx%d)" % (self.rows, self.cols)

    def _echelon(self):
        """Fraction-free (Bareiss) forward elimination: the test oracle only.

        Nothing in the package calls it; the tests compare Echelon against it.

        Returns (echelon integer rows, pivots, row_origin) where pivots is a
        list of (echelon row, column) pairs and row_origin[r] is the input row
        that echelon row r came from.  First-nonzero pivoting: columns are
        scanned left to right, the topmost remaining row with a nonzero entry
        is swapped up.
        """
        work = [_clear_denominators(self.row(i)) for i in range(self.rows)]
        origin = list(range(self.rows))
        pivots = []
        prev_pivot = 1
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if work[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            work[r], work[pr] = work[pr], work[r]
            origin[r], origin[pr] = origin[pr], origin[r]
            piv = work[r][c]
            for i in range(r + 1, self.rows):
                row_i = work[i]
                row_r = work[r]
                f = row_i[c]
                for j in range(self.cols):
                    num = row_i[j] * piv - f * row_r[j]
                    q, rem = divmod(num, prev_pivot)
                    assert rem == 0, "fraction-free division failed"
                    row_i[j] = q
            prev_pivot = piv
            pivots.append((r, c))
            r += 1
            if r == self.rows:
                break
        return work, pivots, origin


class SparseTable:
    """Shared arithmetic for objects stored as one {key: Fraction} table.

    A stored table never holds a zero entry; the subclass constructor drops
    them, so sums are accumulated plainly and handed to it.  A subclass
    names its table attribute in TABLE, rebuilds itself from a table in
    _like, and raises ShapeError from _check_compatible when the other
    operand does not live on the same spaces.
    """

    TABLE = "entries"

    def add(self, other):
        self._check_compatible(other)
        table = dict(getattr(self, self.TABLE))
        for k, v in getattr(other, self.TABLE).items():
            table[k] = table.get(k, ZERO) + v
        return self._like(table)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, q):
        q = Fraction(q)
        if q == 0:
            return self._like({})
        return self._like({k: q * v for k, v in getattr(self, self.TABLE).items()})

    def is_zero(self):
        return not getattr(self, self.TABLE)


def table_sum(terms):
    """The sum of a nonempty iterable of SparseTables of one shape."""
    return functools.reduce(lambda a, b: a.add(b), terms)


def _subtract_scaled(target, a, source):
    """target -= a * source on sparse dicts, dropping entries that cancel."""
    for k, v in source.items():
        new = target.get(k, ZERO) - a * v
        if new:
            target[k] = new
        else:
            del target[k]


class Echelon:
    """Sparse exact row echelon form of a matrix given by its rows.

    Rows are dicts {column: Fraction} holding the nonzero entries.  They are
    fed shortest first, and each is reduced by its leading column against
    the pivot rows stored so far, until its leading column carries no pivot
    (it becomes a pivot row, scaled to a leading 1) or nothing is left.

    In any row echelon form the leading columns are the lexicographically
    first independent column set, so pivot columns, the kernel basis (one
    free variable 1, the others 0) and solutions (free variables 0) do not
    depend on the order rows are fed or on which rows end up as pivots.

    Right-hand sides ride along: rhs[i] is a dict {index: Fraction} of the
    entries of row i in each right-hand side, reduced with the row.  A row
    whose matrix part reduces to zero is a left-null residue, and right-hand
    side t is inconsistent exactly when some residue is nonzero at t.
    """

    def __init__(self, ncols, rows, rhs=None):
        self.ncols = ncols
        self.pivots = {}      # leading column -> (row, rhs part), row[col] == 1
        self.origin = {}      # leading column -> index of the row fed there
        self.inconsistent = set()
        for i in sorted(range(len(rows)), key=lambda k: (len(rows[k]), k)):
            row = dict(rows[i])
            extra = dict(rhs[i]) if rhs else {}
            while row:
                c = min(row)
                hit = self.pivots.get(c)
                if hit is None:
                    inv = ONE / row[c]
                    self.pivots[c] = ({j: v * inv for j, v in row.items()},
                                      {t: v * inv for t, v in extra.items()})
                    self.origin[c] = i
                    break
                f = row[c]
                _subtract_scaled(row, f, hit[0])
                _subtract_scaled(extra, f, hit[1])
            else:
                self.inconsistent.update(extra)

    @property
    def rank(self):
        return len(self.pivots)

    def pivot_columns(self):
        return sorted(self.pivots)

    def kernel_basis(self):
        """One null vector per free column, in column order: entry 1 at its
        free column, 0 at every other free column."""
        free = [c for c in range(self.ncols) if c not in self.pivots]
        values = self._back_substitute({f: {f: ONE} for f in free}, False)
        return self._vectors(values, free)

    def solutions(self, count):
        """For right-hand sides 0..count-1, the solution with every free
        variable zero, or None where the right-hand side is inconsistent."""
        values = self._back_substitute({}, True)
        vectors = self._vectors(values, range(count))
        return [None if t in self.inconsistent else vectors[t]
                for t in range(count)]

    def _back_substitute(self, values, with_rhs):
        """Fill in values[c] for every pivot column c, highest first, from
        its pivot row: x_c = rhs_c - sum over j > c of row[j] x_j.

        values maps a column to {index: Fraction}, one entry per kernel
        vector or right-hand side; a column missing from it is zero.
        """
        for c in sorted(self.pivots, reverse=True):
            row, extra = self.pivots[c]
            acc = dict(extra) if with_rhs else {}
            for j, v in row.items():
                if j != c and j in values:
                    _subtract_scaled(acc, v, values[j])
            values[c] = acc
        return values

    def _vectors(self, values, indices):
        """Transpose {column: {index: value}} into one dense list per index."""
        out = {t: [ZERO] * self.ncols for t in indices}
        for c, column in values.items():
            for t, v in column.items():
                out[t][c] = v
        return [out[t] for t in indices]


def _row_dicts(m):
    n = m.cols
    return [{j: x for j, x in enumerate(m.entries[i * n:(i + 1) * n]) if x}
            for i in range(m.rows)]


def echelon(m):
    """The sparse echelon form of a RationalMatrix."""
    return Echelon(m.cols, _row_dicts(m))


def rank(m):
    """Exact rank."""
    return echelon(m).rank


def pivot_rows(m):
    """Original indices of the rows the echelon form took as pivot rows,
    ascending; deterministic, and a basis of the row space."""
    return sorted(echelon(m).origin.values())


def pivot_columns(m):
    """Columns carrying pivots, ascending: the lexicographically first
    maximal independent column set."""
    return echelon(m).pivot_columns()


def kernel_basis(m):
    """Basis of the null space, one vector per free column, in column order.

    The vector for free column f has entry 1 at f and 0 at every other free
    column; pivot entries are back-substituted exactly.
    """
    return echelon(m).kernel_basis()


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.  When b
    is a RationalMatrix, each of its columns is a right-hand side, all are
    solved in one elimination, and the result is a list with one solution
    (or None) per column.
    """
    if isinstance(b, RationalMatrix):
        if b.rows != m.rows:
            raise ShapeError("rhs has %d rows vs %d" % (b.rows, m.rows))
        return Echelon(m.cols, _row_dicts(m), _row_dicts(b)).solutions(b.cols)
    if len(b) != m.rows:
        raise ShapeError("rhs length %d vs %d rows" % (len(b), m.rows))
    rhs = [{0: Fraction(x)} if x else {} for x in b]
    return Echelon(m.cols, _row_dicts(m), rhs).solutions(1)[0]


class SparseColumns:
    """A tall sparse matrix stored column by column.

    Rows are keyed by arbitrary sortable keys (the materialized-operator
    coordinates); only rows with a nonzero entry in some column exist.  Rank
    and kernel come from the echelon form of those rows, built straight from
    the columns; to_dense gives the same matrix as a RationalMatrix.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.columns = [dict() for _ in range(ncols)]

    def add(self, col, row_key, value):
        """Add value at (row_key, col), dropping the entry if it cancels."""
        d = self.columns[col]
        new = d.get(row_key, ZERO) + value
        if new:
            d[row_key] = new
        else:
            d.pop(row_key, None)

    def row_keys(self):
        keys = set()
        for d in self.columns:
            keys.update(d)
        return sorted(keys)

    def to_dense(self):
        """(sorted row keys, RationalMatrix restricted to nonzero rows)."""
        keys = self.row_keys()
        pos = {k: i for i, k in enumerate(keys)}
        m = RationalMatrix.zero(len(keys), self.ncols)
        for c, d in enumerate(self.columns):
            for k, v in d.items():
                m.set(pos[k], c, v)
        return keys, m

    def echelon(self):
        rows = {}
        for c, d in enumerate(self.columns):
            for k, v in d.items():
                rows.setdefault(k, {})[c] = v
        return Echelon(self.ncols, list(rows.values()))

    def rank(self):
        return self.echelon().rank

    def kernel_basis(self):
        return self.echelon().kernel_basis()
