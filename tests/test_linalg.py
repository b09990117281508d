"""Permutations and exact elimination.

Oracles here are deliberately independent of the implementation: signs come
from cycle parity instead of inversion counts, ranks from sympy or hand
determinants, the sparse echelon form from dense fraction-free Bareiss
elimination (tests/linalg_oracle.py), and the sparse RationalMatrix from
plain nested lists.
"""

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import tdhom
from tdhom.errors import InvalidPermutation, ScalarError, TdhomError
from tdhom.linalg import (
    Echelon,
    Permutation,
    RationalMatrix,
    SparseColumns,
    all_permutations,
    gather,
    getter,
    kernel_basis,
    pivot_columns,
    rank,
    scatter,
    solve,
)
from linalg_oracle import oracle_kernel_basis, oracle_pivot_columns, oracle_solve


def sign_by_cycles(p):
    # independent oracle: parity from the cycle decomposition
    seen = [False] * p.size
    sign = 1
    for start in range(p.size):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p(i)
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perms(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


class TestPermutation:
    def test_identity_sign(self):
        assert Permutation.identity(4).sign() == Fraction(1)

    def test_transposition_sign(self):
        assert Permutation.transposition(0, 1, 2).sign() == Fraction(-1)

    def test_three_cycle_sign(self):
        p = Permutation.cycle([0, 1, 2], 3)
        assert p.sign() == Fraction(1)
        assert sign_by_cycles(p) == 1

    def test_malformed_rejected(self):
        with pytest.raises(InvalidPermutation):
            Permutation([0, 0, 2])
        with pytest.raises(InvalidPermutation):
            Permutation([1, 2, 3])

    def test_cycle_convention(self):
        # cycle([a, b, c]) sends a to b
        p = Permutation.cycle([2, 0], 3)
        assert p(2) == 0 and p(0) == 2 and p(1) == 1

    def test_inverse(self):
        p = Permutation([2, 0, 3, 1])
        assert p.then(p.inverse()) == Permutation.identity(4)
        assert p.inverse().then(p) == Permutation.identity(4)

    @given(perms(6))
    def test_sign_matches_cycle_oracle(self, p):
        assert p.sign() == sign_by_cycles(p)

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.permutations(list(range(n))).map(Permutation),
        st.permutations(list(range(n))).map(Permutation))))
    def test_sign_multiplicative(self, pair):
        a, b = pair
        assert a.then(b).sign() == a.sign() * b.sign()

    def test_gather_scatter_roundtrip(self):
        p = Permutation([1, 2, 0, 3])
        assert gather(p, scatter(p, "wxyz")) == tuple("wxyz")
        assert scatter(p, gather(p, "wxyz")) == tuple("wxyz")

    def test_kernels_match_the_definitional_loops(self):
        # gather and scatter apply one itemgetter; sizes 0 and 1, where an
        # itemgetter gives no tuple, included
        for n in range(6):
            seq = tuple("abcdef"[:n])
            for p in all_permutations(n):
                placed = [None] * n
                for i, x in enumerate(seq):
                    placed[p(i)] = x
                assert gather(p, seq) == tuple(seq[p(i)] for i in range(n))
                assert getter(p)(list(seq)) == gather(p, seq)
                assert scatter(p, seq) == tuple(placed)
                assert gather(p, scatter(p, seq)) == seq


def random_matrix(rng, rows, cols):
    return RationalMatrix(
        rows, cols,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rows * cols)],
    )


class TestElimination:
    def test_identity_rank(self):
        assert rank(RationalMatrix.identity(3)) == 3

    def test_zero_rank(self):
        assert rank(RationalMatrix.zero(3, 4)) == 0

    def test_proportional_rows(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        # oracle: 2x2 determinant 1*4 - 2*2 = 0, so rank < 2; first row nonzero
        assert rank(m) == 1

    def test_identity_kernel_empty(self):
        assert kernel_basis(RationalMatrix.identity(3)) == []

    def test_zero_kernel_full(self):
        basis = kernel_basis(RationalMatrix.zero(2, 2))
        assert len(basis) == 2

    def test_hand_solved_kernel(self):
        basis = kernel_basis(RationalMatrix.from_rows([[1, 1]]))
        # x + y = 0 by hand: span{(1, -1)} up to scale; our convention fixes
        # the free variable to 1 in the second slot
        assert len(basis) == 1
        x, y = basis[0]
        assert x + y == 0 and (x, y) != (0, 0)

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(3)
        m = random_matrix(rng, 4, 6)
        for v in kernel_basis(m):
            for i in range(m.rows):
                assert sum(m.get(i, j) * v[j] for j in range(m.cols)) == 0

    def test_rank_against_sympy(self):
        rng = random.Random(11)
        for _ in range(10):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            sm = sympy.Matrix(rows, cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])
            assert rank(m) == sm.rank()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_plus_nullity(self, data):
        rows = data.draw(st.integers(1, 5))
        cols = data.draw(st.integers(1, 5))
        entries = [
            Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 3)))
            for _ in range(rows * cols)
        ]
        m = RationalMatrix(rows, cols, entries)
        assert rank(m) + len(kernel_basis(m)) == cols

    def test_solve_consistent(self):
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        x = solve(m, [Fraction(5), Fraction(11)])
        assert x == [Fraction(1), Fraction(2)]

    def test_solve_inconsistent(self):
        m = RationalMatrix.from_rows([[1, 1], [2, 2]])
        assert solve(m, [Fraction(1), Fraction(3)]) is None

    def test_solve_underdetermined_deterministic(self):
        m = RationalMatrix.from_rows([[1, 1]])
        x = solve(m, [Fraction(4)])
        # free variable pinned to zero
        assert x == [Fraction(4), Fraction(0)]
        assert solve(m, [Fraction(4)]) == x

    @pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), 1j, Decimal("0.1"),
                                     "x", "1/0", "", None, [1], True, False])
    def test_inexact_scalars_refused(self, bad):
        # refused on every way in: constructors, set and a solve's list rhs
        cases = [
            lambda: RationalMatrix.from_rows([[bad, 1]]),
            lambda: RationalMatrix(1, 2, [1, bad]),
            lambda: RationalMatrix.from_columns(1, [[bad]]),
            lambda: RationalMatrix.zero(1, 1).set(0, 0, bad),
            lambda: solve(RationalMatrix.identity(1), [bad]),
        ]
        for case in cases:
            with pytest.raises(ScalarError) as info:
                case()
            assert isinstance(info.value, TdhomError)

    def test_exact_scalars_read_exactly(self):
        m = RationalMatrix.from_rows([[1, Fraction(-2, 3), "5/7", "-4"]])
        assert m.row(0) == [Fraction(1), Fraction(-2, 3), Fraction(5, 7),
                            Fraction(-4)]
        m.set(0, 0, "1/3")
        assert m.get(0, 0) == Fraction(1, 3)
        assert solve(RationalMatrix.identity(2), ["1/3", 2]) == [
            Fraction(1, 3), Fraction(2)]

    def test_scalar_normalization_roundtrip(self):
        # Fraction is the Scalar type: lowest terms, positive denominator
        a = Fraction(2, -4)
        assert (a.numerator, a.denominator) == (-1, 2)
        b = Fraction(3, 9) + Fraction(1, 6)
        c = Fraction(1, 2)
        assert b == c and b.denominator > 0

    @given(st.integers(-40, 40), st.integers(1, 24), st.integers(-40, 40), st.integers(1, 24))
    def test_scalar_two_route_addition(self, a, b, c, d):
        left = Fraction(a, b) + Fraction(c, d)
        right = Fraction(a * d + c * b, b * d)
        assert left == right and right.denominator > 0


class TestSparseColumns:
    def test_matches_dense(self):
        sc = SparseColumns(3)
        sc.add(0, ("r", 0), Fraction(1))
        sc.add(1, ("r", 0), Fraction(2))
        sc.add(2, ("r", 0), Fraction(3))
        sc.add(0, ("r", 1), Fraction(1))
        sc.add(2, ("r", 1), Fraction(1))
        keys, m = sc.to_dense()
        assert len(keys) == 2
        assert sc.rank() == rank(m) == 2
        assert len(sc.kernel_basis()) == 1

    def test_cancellation_drops_row(self):
        sc = SparseColumns(1)
        sc.add(0, "k", Fraction(2))
        sc.add(0, "k", Fraction(-2))
        assert sc.row_keys() == []
        assert sc.rank() == 0
        assert len(sc.kernel_basis()) == 1

    def test_empty_kernel_is_identity(self):
        sc = SparseColumns(2)
        basis = sc.kernel_basis()
        assert len(basis) == 2


# entry sizes: small fractions; integers up to 10^12, which make the
# fraction-free elimination remove content and grow coefficients; and
# rationals with denominators up to 10^6, which a matrix clears to one
# large common denominator
SIZES = ("small", "big-int", "big-fraction")


def rationals(data, density, size="small"):
    if data.draw(st.floats(0, 1)) >= density:
        return Fraction(0)
    if size == "big-int":
        return Fraction(data.draw(st.integers(-10 ** 12, 10 ** 12)))
    if size == "big-fraction":
        return Fraction(data.draw(st.integers(-10 ** 6, 10 ** 6)),
                        data.draw(st.integers(1, 10 ** 6)))
    return Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4)))


def draw_matrix(data, rows, cols, density, size="small"):
    return RationalMatrix(rows, cols, [rationals(data, density, size)
                                       for _ in range(rows * cols)])


def all_fractions(values):
    """Every value is a Fraction: never an int, never a float."""
    return all(type(x) is Fraction for x in values)


def flatten(cells):
    return [x for row in cells for x in row]


class TestMatrixAgainstNestedLists:
    """Every public RationalMatrix method against plain nested lists."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_methods_match_nested_lists(self, data):
        rows = data.draw(st.integers(0, 5), label="rows")
        cols = data.draw(st.integers(0, 5), label="cols")
        density = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="density")
        size = data.draw(st.sampled_from(SIZES), label="size")
        cells = [[rationals(data, density, size) for _ in range(cols)]
                 for _ in range(rows)]
        columns = [[cells[i][j] for i in range(rows)] for j in range(cols)]
        m = RationalMatrix(rows, cols, flatten(cells))
        built = [RationalMatrix.from_columns(rows, columns)]
        if rows:
            built.append(RationalMatrix.from_rows(cells))
        for other in built:
            assert (other.rows, other.cols) == (rows, cols)
            assert other == m
        assert m.entries == flatten(cells)
        assert all_fractions(m.entries)
        assert [m.row(i) for i in range(rows)] == cells
        assert [m.column(j) for j in range(cols)] == columns
        assert all(m.get(i, j) == cells[i][j]
                   for i in range(rows) for j in range(cols))
        assert all_fractions(x for i in range(rows) for x in m.row(i))
        assert all_fractions(x for j in range(cols) for x in m.column(j))
        assert all_fractions(m.get(i, j)
                             for i in range(rows) for j in range(cols))
        is_zero = all(x == 0 for x in flatten(cells))
        assert m.is_zero() == is_zero
        assert (m == RationalMatrix.zero(rows, cols)) == is_zero
        assert m != RationalMatrix.zero(rows, cols + 1)
        assert m != RationalMatrix.zero(rows + 1, cols)
        assert RationalMatrix.identity(rows).matmul(m) == m

        # naive triple loop
        inner = data.draw(st.integers(0, 5), label="inner")
        right = [[rationals(data, density, size) for _ in range(inner)]
                 for _ in range(cols)]
        product = [[sum((cells[i][k] * right[k][j] for k in range(cols)),
                        Fraction(0))
                    for j in range(inner)] for i in range(rows)]
        got = m.matmul(RationalMatrix(cols, inner, flatten(right)))
        assert (got.rows, got.cols) == (rows, inner)
        assert got.entries == flatten(product)
        assert all_fractions(got.entries)
        assert got == RationalMatrix(rows, inner, flatten(product))
        assert got.is_zero() == all(x == 0 for x in flatten(product))

        # each write lands in its own cell; writing zero removes the entry
        for _ in range(data.draw(st.integers(0, 6)) if rows and cols else 0):
            i = data.draw(st.integers(0, rows - 1))
            j = data.draw(st.integers(0, cols - 1))
            cells[i][j] = rationals(data, 0.5, size)
            m.set(i, j, cells[i][j])
            assert m.entries == flatten(cells)
            assert m == RationalMatrix(rows, cols, flatten(cells))
        for i in range(rows):
            for j in range(cols):
                m.set(i, j, 0)
        assert m == RationalMatrix.zero(rows, cols) and m.is_zero()

    def test_identity_and_int_entries(self):
        assert RationalMatrix.identity(3).entries == [
            Fraction(int(i == j)) for i in range(3) for j in range(3)]
        m = RationalMatrix(1, 3, [0, 2, "1/3"])
        assert m.entries == [Fraction(0), Fraction(2), Fraction(1, 3)]
        assert m == RationalMatrix.from_columns(1, [[0], [2], [Fraction(1, 3)]])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equal_values_compare_equal(self, data):
        """Matrices built from ints, from Fractions, from "p/q" strings and
        from a product compare == exactly when their values agree."""
        rows = data.draw(st.integers(0, 4), label="rows")
        cols = data.draw(st.integers(0, 4), label="cols")
        ints = [data.draw(st.integers(-10 ** 12, 10 ** 12)) for _ in range(rows * cols)]
        d = data.draw(st.integers(1, 10 ** 6), label="denominator")
        m = RationalMatrix(rows, cols, ints)
        built = [
            RationalMatrix(rows, cols, [Fraction(x) for x in ints]),
            RationalMatrix(rows, cols, ["%d/1" % x for x in ints]),
            # (m / d) (d I) and (d I) (m / d), through denominators d and d^2
            RationalMatrix(rows, cols, [Fraction(x, d) for x in ints]).matmul(
                RationalMatrix(cols, cols, [d * (i == j) for i in range(cols)
                                            for j in range(cols)])),
            RationalMatrix(rows, rows, [Fraction(d) * (i == j) for i in range(rows)
                                        for j in range(rows)]).matmul(
                RationalMatrix(rows, cols, [Fraction(x, d) for x in ints])),
        ]
        for other in built:
            assert other == m and m == other
            assert other.entries == m.entries
        halved = RationalMatrix(rows, cols, [Fraction(x, 2) for x in ints])
        assert (halved == m) == all(x == 0 for x in ints)

    def test_product_drops_cancelled_entries(self):
        m = RationalMatrix.from_rows([[1, 1], [2, 0]])
        got = m.matmul(RationalMatrix.from_rows([[1], [-1]]))
        assert got.entries == [Fraction(0), Fraction(2)]
        assert got == RationalMatrix.from_rows([[0], [2]])
        d1 = RationalMatrix.from_rows([[1, -1]])
        d0 = RationalMatrix.from_rows([[1], [1]])
        assert d1.matmul(d0).is_zero()
        assert d1.matmul(d0) == RationalMatrix.zero(1, 1)


class TestEchelonAgainstDenseOracle:
    """The sparse echelon form gives exactly the Fractions of dense Bareiss
    (tests/linalg_oracle.py)."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_rank_pivots_kernel_solve(self, data):
        rows = data.draw(st.integers(0, 7), label="rows")
        cols = data.draw(st.integers(0, 7), label="cols")
        density = data.draw(st.sampled_from([0.15, 0.4, 1.0]), label="density")
        size = data.draw(st.sampled_from(SIZES), label="size")
        m = draw_matrix(data, rows, cols, density, size)

        pivots = oracle_pivot_columns(m)
        assert rank(m) == len(pivots)
        assert pivot_columns(m) == pivots
        kernel = kernel_basis(m)
        assert kernel == oracle_kernel_basis(m)
        assert all(all_fractions(v) for v in kernel)

        # consistent: b = m x; arbitrary: often inconsistent when rank < rows
        x = [rationals(data, density, size) for _ in range(cols)]
        consistent = [sum((m.get(i, j) * x[j] for j in range(cols)), Fraction(0))
                      for i in range(rows)]
        arbitrary = [rationals(data, density, size) for _ in range(rows)]
        for b in (consistent, arbitrary):
            got = solve(m, b)
            assert got == oracle_solve(m, b)
            assert got is None or all_fractions(got)
        assert solve(m, consistent) is not None

        # one batched elimination equals the single solves one by one, and
        # right-hand sides given as ints or as "p/q" strings solve alike
        rhs = [consistent, arbitrary, [Fraction(0)] * rows]
        batch = RationalMatrix(rows, len(rhs),
                               [b[i] for i in range(rows) for b in rhs])
        solutions = solve(m, batch)
        assert solutions == [solve(m, b) for b in rhs]
        assert all(all_fractions(v) for v in solutions if v is not None)
        assert solve(m, [str(q) for q in arbitrary]) == solve(m, arbitrary)
        scaled = [q * 10 ** 6 for q in consistent]
        if all(q.denominator == 1 for q in scaled):
            assert solve(m, [int(q) for q in scaled]) == \
                [q * 10 ** 6 for q in solve(m, consistent)]

        # the elimination copies the int rows the matrix stores and leaves
        # them as they are; the same rows times one nonzero int have the
        # same pivots, and with rhs[i] = {i: 1} some right-hand side is
        # inconsistent exactly when the rows are dependent
        stored_rows = [dict(row) for row in m._rows]
        ech = Echelon(cols, m._rows, [{i: 1} for i in range(rows)])
        assert m._rows == stored_rows
        assert ech.pivot_columns() == pivots
        assert bool(ech.inconsistent) == (len(pivots) < rows)
        factor = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool),
                           label="factor")
        scaled = Echelon(cols, [{j: v * factor for j, v in row.items()}
                                for row in m._rows],
                         [{i: 1} for i in range(rows)])
        assert scaled.inconsistent == ech.inconsistent
        assert scaled.pivot_columns() == pivots

        other = draw_matrix(data, cols, data.draw(st.integers(0, 4)), density, size)
        expected = [sum((m.get(i, k) * other.get(k, j) for k in range(cols)),
                        Fraction(0))
                    for i in range(rows) for j in range(other.cols)]
        assert m.matmul(other).entries == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_columns_match_oracle(self, data):
        ncols = data.draw(st.integers(0, 6))
        size = data.draw(st.sampled_from(SIZES), label="size")
        sc = SparseColumns(ncols)
        for _ in range(data.draw(st.integers(0, 20)) if ncols else 0):
            sc.add(data.draw(st.integers(0, ncols - 1)),
                   ("r", data.draw(st.integers(0, 8))),
                   rationals(data, 0.8, size))
        _, m = sc.to_dense()
        assert sc.rank() == len(oracle_pivot_columns(m))
        kernel = sc.kernel_basis()
        assert kernel == oracle_kernel_basis(m)
        assert all(all_fractions(v) for v in kernel)

    def test_inconsistent_batch_column_is_none(self):
        m = RationalMatrix.from_rows([[1, 1], [2, 2], [0, 0]])
        batch = RationalMatrix.from_rows([[1, 1], [2, 3], [0, 0]])
        assert solve(m, batch) == [[Fraction(1), Fraction(0)], None]
        assert solve(m, [1, 2, 1]) is None

    def test_empty_shapes(self):
        assert rank(RationalMatrix(0, 3, [])) == 0
        assert kernel_basis(RationalMatrix(0, 2, [])) == [
            [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert solve(RationalMatrix(0, 2, []), []) == [Fraction(0)] * 2
        assert kernel_basis(RationalMatrix(3, 0, [])) == []
        assert solve(RationalMatrix(2, 0, []), [0, 0]) == []
        assert solve(RationalMatrix(2, 0, []), [0, 1]) is None


def test_shape_checks_survive_optimize_flag():
    """Input checks raise ShapeError, not assert, so python -O keeps them."""
    script = """
from tdhom.errors import ShapeError
from tdhom.linalg import BasedSpace, Permutation, RationalMatrix
cases = [
    lambda: Permutation.identity(2).then(Permutation.identity(3)),
    lambda: RationalMatrix.from_rows([[1, 2], [3]]),
    lambda: BasedSpace("V", ("a", "a")),
    lambda: RationalMatrix.zero(2, 3).set(0, 3, 5),
    lambda: RationalMatrix.zero(2, 3).set(2, 0, 5),
    lambda: RationalMatrix.zero(2, 3).get(-1, -1),
    lambda: RationalMatrix.zero(2, 3).get(0, -1),
    lambda: RationalMatrix.zero(2, 3).row(2),
    lambda: RationalMatrix.zero(2, 3).column(3),
    lambda: RationalMatrix.zero(-1, 2),
    lambda: RationalMatrix(-1, -1, [1]),
    lambda: RationalMatrix.identity(-1),
]
for case in cases:
    try:
        case()
    except ShapeError:
        continue
    raise SystemExit("no ShapeError from case %d" % cases.index(case))
print("ok")
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tdhom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.strip() == "ok"

