"""Exact rational linear algebra: permutations, spaces, matrices.

Scalars are exact rationals: Python ints, fractions.Fraction (lowest
terms, positive denominator) or "p/q" strings, all read through one helper
that refuses floats and everything else with ScalarError.  Nothing in the
package ever touches a float.

Every stored scalar is an int over a positive common denominator in
canonical form: the gcd of the denominator and all the ints is 1, so two
tables or matrices are equal exactly when their ints and denominators
are (_lowest_terms makes the form).  RationalMatrix keeps one zero-free
{column: int} dict per row; SparseTable, under maps, Hom elements,
materialized operators, cochains and coproducts, keeps one zero-free
{key: int} dict, and does its add, sub, scale, is_zero and == on the ints.
Only this module makes Fractions, where a caller reads them: matrix
entries, the tables' views, ratio, kernel vectors and solutions.

Every rank, pivot set, kernel and solve comes from one sparse,
fraction-free echelon form (Echelon) of int rows, fed shortest first and
reduced by their leading column.  Its answers are the unique ones fixed by
the lexicographically first independent column set, so they are
reproducible bit for bit whatever the row order.  A complex with d squared
zero is ranked by clearing (cohomology._cleared_ranks): im d_(k-1) fills
the pivot columns of d_(k-1) transposed, so d_k is ranked off them, and
the weight-0 route never assembles the rows there.  The
dense fraction-free elimination that preceded the sparse one is the test
oracle in tests/linalg_oracle.py.
"""

import itertools
import numbers
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType

from .errors import InvalidPermutation, ScalarError, ShapeError

ZERO = Fraction(0, 1)
ONE = Fraction(1, 1)


def _exact(x):
    """x as an int or a Fraction: ints, Fractions, other rationals and
    "p/q" strings are read exactly; floats, bools and non-numbers raise
    ScalarError.  int() and ratio read a strict "-?digits(/digits)", the
    denominator nonzero; Fraction every other string, "+3" or "3/0"."""
    if type(x) is int or type(x) is Fraction:
        return x
    try:  # ValueError also from int()'s digit limit
        if type(x) is str:
            num, slash, den = x.partition("/")
            if x.isascii() and num.removeprefix("-").isdigit() and (
                    not slash or den.isdigit() and den.strip("0")):
                return ratio(int(num), int(den or 1))
            return Fraction(x)
        if isinstance(x, numbers.Rational) and type(x) is not bool:
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise ScalarError("not an exact rational scalar: %r" % (x,))


def ratio(v, den):
    """v / den exactly, for ints v and den > 0: v itself when den is 1."""
    return v if den == 1 else Fraction(v, den)


def clear_denominators(tables):
    """(int tables, den): tables of exact scalars written as ints over the
    least common denominator of all their values, so that
    tables[i][k] == ints[i][k] / den."""
    den = 1
    for table in tables:
        for v in table.values():
            d = v.denominator
            if d != 1 and den % d:
                den = lcm(den, d)
    if den == 1:
        return [{k: v.numerator for k, v in t.items()} for t in tables], 1
    return [{k: v.numerator * (den // v.denominator) for k, v in t.items()}
            for t in tables], den


def _lowest_terms(tables, den):
    """(tables, den) for the values tables[i][k] / den in canonical form:
    the gcd of den and every int entry divided out.  den must be positive;
    tables come back as given when nothing divides out."""
    if den != 1:
        g = den
        for table in tables:
            if table:
                g = gcd(g, *table.values())
                if g == 1:
                    return tables, den
        tables = [{k: v // g for k, v in t.items()} for t in tables]
        den //= g
    return tables, den


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


def all_permutations(n):
    """All of S_n in lexicographic order of image arrays."""
    return [Permutation(im) for im in itertools.permutations(range(n))]


def getter(p):
    """The function seq -> gather(p, seq), built once to move many tuples
    of p's size: an operator.itemgetter, except at sizes 0 and 1, where
    itemgetter would return no tuple.  scatter(p, .) is getter(p.inverse())."""
    images = p.images
    if len(images) > 1:
        return itemgetter(*images)
    return lambda seq: tuple(seq[i] for i in images)


def gather(p, seq):
    """Reorder seq so position i holds seq[p(i)].

    This is how a permutation acts on an argument list: applying p to
    (f_0,..,f_{n-1}) yields (f_{p(0)},..,f_{p(n-1)}).

    >>> gather(Permutation.cycle([0, 1, 2], 3), "abc")
    ('b', 'c', 'a')
    """
    return getter(p)(seq)


def scatter(p, seq):
    """Inverse transport: position p(i) holds seq[i]; gather(p, scatter(p, s)) == s.

    >>> s = Permutation.cycle([0, 1, 2], 3)
    >>> gather(s, scatter(s, "abc"))
    ('a', 'b', 'c')
    """
    return getter(p.inverse())(seq)


class RationalMatrix:
    """Sparse matrix of exact rationals; eliminate it with rank, solve and
    friends.

    Stored as one {column: int} dict per row that never holds a zero, over
    one positive common denominator: entry (i, j) is _rows[i][j] / _den.
    The form is canonical (_den is the least denominator that works), so
    == compares the stored ints, and matmul and is_zero work on them.  The
    readers get, row, column and entries return Fractions; a matrix with
    few nonzeros costs what its nonzeros cost.
    """

    def __init__(self, rows, cols, entries):
        _check_shape(rows, cols)
        entries = list(entries)
        if len(entries) != rows * cols:
            raise ShapeError("need %d entries, got %d" % (rows * cols, len(entries)))
        self._init(cols, *clear_denominators(
            [_sparse_row(entries[i * cols:(i + 1) * cols]) for i in range(rows)]))

    def _init(self, cols, int_rows, den):
        self.rows = len(int_rows)
        self.cols = cols
        self._rows = int_rows
        self._den = den

    @classmethod
    def _from_int_rows(cls, cols, int_rows, den):
        """The matrix int_rows / den, brought to canonical form: each row a
        dict {column in range(cols): nonzero int}, den a positive int."""
        m = cls.__new__(cls)
        m._init(cols, *_lowest_terms(int_rows, den))
        return m

    @classmethod
    def _from_sparse_rows(cls, cols, sparse_rows):
        """The matrix whose rows are sparse_rows, each a dict {column in
        range(cols): nonzero int or Fraction}."""
        return cls._from_int_rows(cols, *clear_denominators(sparse_rows))

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for r in rows_list:
            if len(r) != cols:
                raise ShapeError("ragged rows: %d entries, expected %d" % (len(r), cols))
        return cls._from_sparse_rows(cols, [_sparse_row(r) for r in rows_list])

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix whose column j is the dense vector columns[j]."""
        sparse_rows = [{} for _ in range(rows)]
        for j, c in enumerate(columns):
            if len(c) != rows:
                raise ShapeError("column of %d entries, expected %d" % (len(c), rows))
            for i, x in _sparse_row(c).items():
                sparse_rows[i][j] = x
        return cls._from_sparse_rows(len(columns), sparse_rows)

    @classmethod
    def zero(cls, rows, cols):
        _check_shape(rows, cols)
        return cls._from_int_rows(cols, [{} for _ in range(rows)], 1)

    @classmethod
    def identity(cls, n):
        _check_shape(n, n)
        return cls._from_int_rows(n, [{i: 1} for i in range(n)], 1)

    def _value(self, row, j):
        """Entry j of a stored row, as a Fraction."""
        v = row.get(j)
        return ZERO if v is None else Fraction(v, self._den)

    def _dense(self, row):
        """A stored row as the dense list of its Fractions."""
        out = [ZERO] * self.cols
        for j, v in row.items():
            out[j] = Fraction(v, self._den)
        return out

    @property
    def entries(self):
        """The row-major dense list of all rows * cols entries."""
        out = []
        for r in self._rows:
            out.extend(self._dense(r))
        return out

    def _check_index(self, what, index, bound):
        if not 0 <= index < bound:
            raise ShapeError("%s %d outside a %dx%d matrix"
                             % (what, index, self.rows, self.cols))

    def get(self, i, j):
        self._check_index("row", i, self.rows)
        self._check_index("column", j, self.cols)
        return self._value(self._rows[i], j)

    def set(self, i, j, value):
        self._check_index("row", i, self.rows)
        self._check_index("column", j, self.cols)
        value = _exact(value)
        den = lcm(self._den, value.denominator)
        rows = self._rows
        if den != self._den:
            rows = [{c: v * (den // self._den) for c, v in r.items()} for r in rows]
        if value:
            rows[i][j] = value.numerator * (den // value.denominator)
        else:
            rows[i].pop(j, None)
        m = self._from_int_rows(self.cols, rows, den)
        self._init(self.cols, m._rows, m._den)

    def row(self, i):
        self._check_index("row", i, self.rows)
        return self._dense(self._rows[i])

    def column(self, j):
        self._check_index("column", j, self.cols)
        return [self._value(r, j) for r in self._rows]

    def matmul(self, other):
        if self.cols != other.rows:
            raise ShapeError("cannot multiply %dx%d by %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        other_rows = other._rows
        out = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in other_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return RationalMatrix._from_int_rows(other.cols, out, self._den * other._den)

    def is_zero(self):
        return not any(self._rows)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and (self.rows, self.cols, self._den) == (other.rows, other.cols, other._den)
            and self._rows == other._rows
        )

    def __repr__(self):
        return "RationalMatrix(%dx%d)" % (self.rows, self.cols)


def _check_shape(rows, cols):
    if rows < 0 or cols < 0:
        raise ShapeError("negative shape %dx%d" % (rows, cols))


def _sparse_row(dense):
    """{column: int or Fraction} for the nonzero entries of a dense row."""
    out = {}
    for j, x in enumerate(dense):
        x = _exact(x)
        if x:
            out[j] = x
    return out


class SparseTable:
    """The one store of every exact sparse table: maps, Hom elements,
    materialized operators and cochains.

    _ints maps each key to a nonzero int, over one positive _denominator in
    canonical form (see _lowest_terms), and nothing changes them once set:
    the constructors hand a table to _set_table (ints and Fractions) or to
    _set_ints (ints over a denominator, such as arithmetic builds), which
    drop the zeros and make the form canonical.  add, sub, scale, is_zero
    and == run on the ints; the Fraction table named by TABLE (entries, or
    values on a cochain) is a read-only view, built on first read and kept.

    A subclass names in SHAPE the attributes that place it on its spaces,
    which a result of arithmetic copies, compares in _dims what == needs
    besides the store, and raises ShapeError from _check_compatible when
    the other operand does not live on the same spaces.
    """

    TABLE = "entries"
    _view = None

    def _set_ints(self, ints, den):
        """Store the values ints[k] / den, den positive, in canonical form."""
        ints = {k: v for k, v in ints.items() if v}
        if den != 1:
            (ints,), den = _lowest_terms([ints], den)
        self._ints = ints
        self._denominator = den

    def _set_table(self, table):
        """Store a table of ints and Fractions."""
        (ints,), den = clear_denominators([table])
        self._set_ints(ints, den)

    @classmethod
    def _stored(cls, ints, den, **shape):
        """The table ints / den on the given SHAPE attributes, unchecked."""
        t = cls.__new__(cls)
        t.__dict__.update(shape)
        t._set_ints(ints, den)
        return t

    @classmethod
    def _read(cls, table, **shape):
        """_stored for a table of ints and Fractions that a file reader has
        checked key by key and scalar by scalar."""
        (ints,), den = clear_denominators([table])
        return cls._stored(ints, den, **shape)

    def _like(self, ints, den):
        return self._stored(ints, den, **{a: getattr(self, a) for a in self.SHAPE})

    @property
    def entries(self):
        """The stored values as a read-only {key: Fraction}."""
        if self._view is None:
            den = self._denominator
            self._view = MappingProxyType(
                {k: Fraction(v, den) for k, v in self._ints.items()})
        return self._view

    def _plus(self, other):
        """(ints, den) of self + other, cancelled entries not yet dropped."""
        (ints, more), den = common_ints([self, other])
        ints = dict(ints)
        for k, v in more.items():
            ints[k] = ints.get(k, 0) + v
        return ints, den

    def add(self, other):
        self._check_compatible(other)
        return self._like(*self._plus(other))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, q):
        q = _exact(q)
        p = q.numerator
        return self._like({k: p * v for k, v in self._ints.items()},
                          self._denominator * q.denominator)

    def is_zero(self):
        return not self._ints

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._dims() == other._dims()
            and self._denominator == other._denominator
            and self._ints == other._ints
        )


def common_ints(tables):
    """([ints], den): the stores of SparseTables written over one common
    denominator, the least common multiple of theirs; a store already over
    it is handed back as it is, not copied."""
    den = 1
    for t in tables:
        if den % t._denominator:
            den = lcm(den, t._denominator)
    return [t._ints if t._denominator == den else
            {k: v * (den // t._denominator) for k, v in t._ints.items()}
            for t in tables], den


def _eliminate(target, b, a, source):
    """target <- b * target - a * source on sparse dicts, dropping entries
    that cancel."""
    if b != 1:
        for k in target:
            target[k] *= b
    for k, v in source.items():
        new = target.get(k, 0) - a * v
        if new:
            target[k] = new
        else:
            del target[k]


def _divide_content(row, extra):
    """Divide the int dicts row and extra by the gcd of all their entries."""
    g = gcd(*row.values(), *extra.values())
    if g > 1:
        for table in (row, extra):
            for k in table:
                table[k] //= g


class Echelon:
    """Sparse fraction-free row echelon form of a matrix given by its rows.

    Rows are dicts {column: int} of the nonzero entries, copied on entry
    and fed shortest first; a caller clears Fractions for the whole matrix
    at once.  A row is reduced by its leading column c against the
    pivot row h stored there: with a = row[c] and b = h[c], both divided by
    their gcd, the step is row <- b * row - a * h, which stays in the
    integers.  When the leading column carries no pivot, the row's content
    is taken out and it becomes the pivot row of that column; when nothing
    is left, only its right-hand side tail remains.  No Fraction is
    created while reducing.

    In any row echelon form the leading columns are the lexicographically
    first independent column set, so pivot columns, the kernel basis (one
    free variable 1, the others 0) and solutions (free variables 0) do not
    depend on the order rows are fed or on which rows end up as pivots.
    Back-substitution divides by the pivots, so kernel vectors and
    solutions are made as Fractions there.

    Right-hand sides ride along: rhs[i] is a dict {index: int} of the
    entries of row i in each right-hand side, copied and reduced with the
    row as the tail of one integer row.  Right-hand side t is inconsistent
    exactly when some row whose matrix part reduces to zero keeps a nonzero
    tail entry at t; those t are kept in inconsistent.
    """

    def __init__(self, ncols, rows, rhs=None):
        self.ncols = ncols
        self.pivots = {}      # leading column -> (int row, int rhs part)
        self.inconsistent = set()
        for i in sorted(range(len(rows)), key=lambda k: (len(rows[k]), k)):
            row, extra = dict(rows[i]), dict(rhs[i] if rhs else {})
            _divide_content(row, extra)
            while row:
                c = min(row)
                hit = self.pivots.get(c)
                if hit is None:
                    _divide_content(row, extra)
                    self.pivots[c] = (row, extra)
                    break
                pivot, pivot_extra = hit
                a, b = row[c], pivot[c]
                g = gcd(a, b)
                if g != 1:
                    a, b = a // g, b // g
                _eliminate(row, b, a, pivot)
                if extra or pivot_extra:
                    _eliminate(extra, b, a, pivot_extra)
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
        its pivot row: x_c = (rhs_c - sum over j > c of row[j] x_j) / row[c].

        values maps a column to {index: Fraction}, one entry per kernel
        vector or right-hand side; a column missing from it is zero.
        """
        for c in sorted(self.pivots, reverse=True):
            row, extra = self.pivots[c]
            acc = dict(extra) if with_rhs else {}
            for j, v in row.items():
                if j != c and j in values:
                    _eliminate(acc, 1, v, values[j])
            p = row[c]
            values[c] = {t: Fraction(v, p) for t, v in acc.items()}
        return values

    def _vectors(self, values, indices):
        """Transpose {column: {index: value}} into one dense list per index."""
        out = {t: [ZERO] * self.ncols for t in indices}
        for c, column in values.items():
            for t, v in column.items():
                out[t][c] = v
        return [out[t] for t in indices]


def echelon(m):
    """The sparse echelon form of a RationalMatrix."""
    return Echelon(m.cols, m._rows)


def rank(m):
    """Exact rank."""
    return echelon(m).rank


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
    vector = not isinstance(b, RationalMatrix)
    if vector:
        b = RationalMatrix.from_columns(m.rows, [b])
    if b.rows != m.rows:
        raise ShapeError("rhs has %d rows vs %d" % (b.rows, m.rows))
    # m / dm x = b / db is (db m) x = dm b
    rows = _scaled_rows(m._rows, b._den)
    rhs = _scaled_rows(b._rows, m._den)
    solutions = Echelon(m.cols, rows, rhs).solutions(b.cols)
    return solutions[0] if vector else solutions


def _scaled_rows(rows, factor):
    """Int rows times an int factor; the rows themselves when it is 1."""
    if factor == 1:
        return rows
    return [{j: v * factor for j, v in row.items()} for row in rows]


class SparseColumns:
    """A tall sparse matrix stored column by column.

    Rows are keyed by arbitrary sortable keys (the materialized-operator
    coordinates); only rows with a nonzero entry in some column exist.  Rank
    and kernel come from the echelon form of those rows, all cleared over
    one denominator; to_dense gives the same matrix as a RationalMatrix.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.columns = [dict() for _ in range(ncols)]

    def add(self, col, row_key, value):
        """Add value at (row_key, col), dropping the entry if it cancels."""
        d = self.columns[col]
        new = d.get(row_key, 0) + value
        if new:
            d[row_key] = new
        else:
            d.pop(row_key, None)

    def row_keys(self):
        keys = set()
        for d in self.columns:
            keys.update(d)
        return sorted(keys)

    def _rows_by_key(self):
        rows = {}
        for c, d in enumerate(self.columns):
            for k, v in d.items():
                rows.setdefault(k, {})[c] = v
        return rows

    def to_dense(self):
        """(sorted row keys, RationalMatrix restricted to nonzero rows)."""
        rows = self._rows_by_key()
        keys = sorted(rows)
        return keys, RationalMatrix._from_sparse_rows(
            self.ncols, [rows[k] for k in keys])

    def echelon(self):
        rows, _ = clear_denominators(list(self._rows_by_key().values()))
        return Echelon(self.ncols, rows)

    def rank(self):
        return self.echelon().rank

    def kernel_basis(self):
        return self.echelon().kernel_basis()
