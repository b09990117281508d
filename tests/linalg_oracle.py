"""Dense fraction-free elimination: the test oracle for linalg.Echelon.

The package eliminates sparse row dicts (linalg.Echelon).  This module
keeps the dense Bareiss elimination it replaced, with dense
back-substitution, working on plain lists of Fractions read off a
RationalMatrix row by row; transposed reads a matrix held by columns back
by rows.  table_sum adds SparseTables one by one, as the map-level
identity routes the package's int defects replaced did.  Nothing in the
package uses it; tests compare the sparse echelon form against it.
"""

import functools
from fractions import Fraction
from math import gcd

from tdhom.linalg import RationalMatrix


def clear_denominators(row):
    """Scale a Fraction row to integers (keeps the row space)."""
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    return [int(x * lcm) for x in row]


def bareiss_echelon(dense_rows, ncols):
    """Fraction-free (Bareiss) forward elimination of dense Fraction rows.

    Returns (echelon integer rows, pivots, row_origin) where pivots is a
    list of (echelon row, column) pairs and row_origin[r] is the input row
    that echelon row r came from.  First-nonzero pivoting: columns are
    scanned left to right, the topmost remaining row with a nonzero entry
    is swapped up.
    """
    nrows = len(dense_rows)
    work = [clear_denominators(row) for row in dense_rows]
    origin = list(range(nrows))
    pivots = []
    prev_pivot = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        origin[r], origin[pr] = origin[pr], origin[r]
        piv = work[r][c]
        for i in range(r + 1, nrows):
            row_i = work[i]
            row_r = work[r]
            f = row_i[c]
            for j in range(ncols):
                num = row_i[j] * piv - f * row_r[j]
                q, rem = divmod(num, prev_pivot)
                assert rem == 0, "fraction-free division failed"
                row_i[j] = q
        prev_pivot = piv
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return work, pivots, origin


def transposed(m):
    """The transpose of a RationalMatrix, entry by stored entry."""
    rows = [{} for _ in range(m.cols)]
    for i, row in enumerate(m._rows):
        for j, v in row.items():
            rows[j][i] = v
    return RationalMatrix._from_int_rows(m.rows, rows, m._den)


def _echelon(m):
    return bareiss_echelon([m.row(i) for i in range(m.rows)], m.cols)


def oracle_pivot_columns(m):
    _, pivots, _ = _echelon(m)
    return [c for _, c in pivots]


def oracle_kernel_basis(m):
    work, pivots, _ = _echelon(m)
    pivot_cols = [c for _, c in pivots]
    basis = []
    for f in (c for c in range(m.cols) if c not in pivot_cols):
        x = [Fraction(0)] * m.cols
        x[f] = Fraction(1)
        for r, c in reversed(pivots):
            s = sum((Fraction(work[r][j]) * x[j] for j in range(c + 1, m.cols)),
                    Fraction(0))
            x[c] = -s / work[r][c]
        basis.append(x)
    return basis


def oracle_solve(m, b):
    work, pivots, _ = bareiss_echelon(
        [m.row(i) + [Fraction(b[i])] for i in range(m.rows)], m.cols + 1)
    if any(c == m.cols for _, c in pivots):
        return None
    x = [Fraction(0)] * m.cols
    for r, c in reversed(pivots):
        s = Fraction(work[r][m.cols]) - sum(
            (work[r][j] * x[j] for j in range(c + 1, m.cols)), Fraction(0))
        x[c] = s / work[r][c]
    return x


def table_sum(terms):
    """The sum of a nonempty iterable of SparseTables of one shape."""
    return functools.reduce(lambda a, b: a.add(b), terms)
