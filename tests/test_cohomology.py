"""Classical complex, induction matrices, and the Hom-space complex.

Classical golden dimensions have outside confirmation: the trivial sl2
module gives 1,0,0,1 and the adjoint one vanishes (semisimplicity), the
adjoint Heisenberg numbers 1,4,5,2 have Euler characteristic zero against
cochain dimensions 3,9,9,3, and a trivial module over an abelian algebra
has zero differentials, so its cohomology is the binomial row 1,2,1.

Hom-space goldens were frozen after the two internal routes agreed and
after independent sanity checks: over the three-letter one-variable words
every induction map below arity four is injective, so the twisted numbers
must reproduce the classical ones, and they do; with a zero coproduct the
complex dies above degree one and H^1 = 9 - 3 by hand.

The weight-0 route of the classical complex is checked against ce_complex
and against two closed forms: Kostant's inversion counts for n_n acting
trivially, and the Poincare polynomial of H*(gl_n, gl_n).  Both routes are
checked against Hazewinkel duality, which mirrors the dims of M in those of
its dual module, and against Kunneth, which multiplies the Poincare
polynomials of two Lie algebras into that of their direct sum.
"""

import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdhom import cli, cohomology, corpus, linalg
from tdhom.algebra import (
    SWAP_FIRST_TWO,
    LieAlgebra,
    LieModule,
    check_lie,
    check_module,
)
from tdhom.checks import CheckResult, Witness, combine
from tdhom.coalgebra import Coalgebra, build_tensor_coalgebra
from tdhom.cohomology import (
    AltCochain,
    ComplexMatrices,
    TDCochain,
    TDComplexData,
    alt_basis,
    alt_dim,
    ce_complex,
    ce_differential,
    classical_complex,
    increasing_tuples,
    induction_matrix,
    invariants_h0,
    sorting_sign,
    td_cohomology_dims,
    td_differential_direct,
    td_differential_induced,
    torus,
    weight_zero_keys,
)
from tdhom.convolution import DEFAULT_GUARD_LIMIT, induced, operator_witness
from tdhom.errors import AxiomError, GuardError, MalformedInput, ShapeError
from tdhom.files import parse_structure
from tdhom.lie_rinehart import TDLRStructure, blinear_subspace, check_td_lr
from tdhom.linalg import BasedSpace, Permutation, RationalMatrix, kernel_basis, rank
from tdhom.maps import MultilinearMap
from tdhom.td_structures import (
    TDLieStructure,
    TDModuleStructure,
    check_td_lie,
    check_td_module,
    self_module,
)
from linalg_oracle import bareiss_echelon, transposed
from lr_oracle import oracle_check_td_lr
from td_oracle import (
    JACOBI_ROTATIONS,
    SWAP,
    MaterializedTDComplexData,
    ce_differential_unshuffle,
    ce_parts_unshuffle,
    differentials,
    dual_module,
    eager_quotient,
    factored_blinear_subspace,
    factored_td_differential_induced,
    is_skew,
    materialized_same_as,
    materialized_td_differential_direct,
    matrix_unit_invariants,
    tuple_pushed,
    unshuffle_td_differential_direct,
    unshuffles,
)
from structures import (
    adjoint_module,
    diagonal,
    direct_sum,
    incidence_coalgebra,
    matrix_unit_adjoint,
    matrix_unit_lie,
    materialized_sum,
    rebased,
    rebased_adjoint,
    trivial_module,
)

ONE = Fraction(1)


def hom_self(lie_name, coalgebra_name):
    s = TDLieStructure(corpus.load(lie_name), corpus.get_coalgebra(coalgebra_name),
                       check=False)
    return self_module(s)


def hom_module(module_name, coalgebra_name):
    M = corpus.load(module_name)
    s = TDLieStructure(M.base, corpus.get_coalgebra(coalgebra_name), check=False)
    return TDModuleStructure(s, M, check=False)


@pytest.fixture(scope="module")
def adjoint():
    return corpus.load("sl2-adjoint")


def classical_module(name):
    return matrix_unit_adjoint("gl", 2) if name == "gl2-adjoint" \
        else corpus.load(name)


class TestUnshuffles:
    @pytest.mark.parametrize("k,m,count", [(1, 2, 3), (2, 1, 3), (0, 3, 1),
                                           (3, 0, 1), (1, 1, 2), (2, 2, 6)])
    def test_counts(self, k, m, count):
        assert len(unshuffles(k, m)) == count == comb(k + m, k)

    def test_blocks_ascend(self):
        for k, m in [(1, 3), (2, 2), (3, 1)]:
            for s in unshuffles(k, m):
                images = [s(i) for i in range(k + m)]
                assert images[:k] == sorted(images[:k])
                assert images[k:] == sorted(images[k:])

    def test_lex_order(self):
        got = [tuple(s(i) for i in range(3)) for s in unshuffles(1, 2)]
        assert got == [(0, 1, 2), (1, 0, 2), (2, 0, 1)]

    def test_distinct_and_exhaustive(self):
        seen = {tuple(s(i) for i in range(4)) for s in unshuffles(2, 2)}
        assert len(seen) == 6

    def test_negative_block(self):
        with pytest.raises(ValueError):
            unshuffles(-1, 2)


class TestSortingSign:
    def test_repeat_is_none(self):
        assert sorting_sign((1, 1)) is None
        assert sorting_sign((0, 2, 0)) is None

    def test_sorted_tuple(self):
        assert sorting_sign((0, 2, 5)) == (1, (0, 2, 5))

    def test_single_swap(self):
        assert sorting_sign((2, 0)) == (-1, (0, 2))

    def test_matches_permutation_sign(self):
        for tup in permutations(range(4)):
            sign, sorted_tup = sorting_sign(tup)
            assert sorted_tup == (0, 1, 2, 3)
            assert sign == Permutation(list(tup)).sign()


class TestAltCochain:
    def test_vector_round_trip(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        vec = [Fraction(i - 4, 3) for i in range(alt_dim(L, B, 2))]
        f = AltCochain.from_vector(L, B, 2, vec)
        assert f.components() == vec

    def test_vector_length_checked(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        with pytest.raises(ShapeError):
            AltCochain.from_vector(L, B, 2, [ONE])

    def test_eval_signs(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 2, {((0, 2), 1): Fraction(3)})
        assert f.eval_basis((0, 2)) == {1: Fraction(3)}
        assert f.eval_basis((2, 0)) == {1: Fraction(-3)}
        assert f.eval_basis((2, 2)) == {}
        assert f.eval_basis((0, 1)) == {}

    def test_map_round_trip(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 2, {((0, 1), 0): ONE, ((1, 2), 2): Fraction(-2)})
        m = f.as_map()
        assert m.apply_basis((1, 0)) == {0: Fraction(-1)}
        assert AltCochain.from_map(m) == f

    def test_from_map_rejects_non_skew(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        lopsided = MultilinearMap([L, L], B, {((0, 1), 0): ONE})
        with pytest.raises(AxiomError, match="not skew"):
            AltCochain.from_map(lopsided)

    def test_degree_zero_has_no_map(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 0, {((), 1): ONE})
        with pytest.raises(ShapeError):
            f.as_map()

    def test_tuple_validation(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        with pytest.raises(ShapeError, match="degree"):
            AltCochain(L, B, 2, {((0,), 0): ONE})
        with pytest.raises(ShapeError, match="increasing"):
            AltCochain(L, B, 2, {((1, 1), 0): ONE})
        with pytest.raises(ShapeError, match="range"):
            AltCochain(L, B, 2, {((1, 3), 0): ONE})
        with pytest.raises(ShapeError, match="output"):
            AltCochain(L, B, 2, {((0, 1), 7): ONE})

    def test_arithmetic(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 1, {((0,), 0): ONE})
        g = AltCochain(L, B, 1, {((0,), 0): Fraction(2), ((1,), 1): ONE})
        assert f.scale(2).sub(g).values == {((1,), 1): Fraction(-1)}
        assert f.sub(f).is_zero()
        assert not f.add(g).is_zero()
        with pytest.raises(ShapeError):
            f.add(AltCochain(L, B, 2, {}))

    def test_zero_values_dropped(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 1, {((0,), 0): Fraction(0)})
        assert f.is_zero() and f.values == {}

    def test_index_types_checked(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        for key in [((True,), 0), ((0,), 0.0), ((1.0,), 0), ((0,), False),
                    ((0, 1.0), 0)]:
            with pytest.raises(MalformedInput, match="not an integer"):
                AltCochain(L, B, len(key[0]), {key: 1})

    def test_values_are_a_read_only_view(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 1, {((0,), 0): Fraction(1, 2), ((2,), 1): 3})
        assert f.values == {((0,), 0): Fraction(1, 2), ((2,), 1): Fraction(3)}
        assert f.values is f.values
        with pytest.raises(TypeError):
            f.values[((1,), 0)] = ONE
        assert f == AltCochain(L, B, 1, dict(f.values))


def cochain_scalars():
    """Integers up to 10^12, and rationals with numerators that large over
    denominators up to 10^6, with zeros among them."""
    big = st.integers(-10 ** 12, 10 ** 12)
    return st.one_of(st.integers(-2, 2), big,
                     st.builds(Fraction, big, st.integers(1, 10 ** 6)))


@st.composite
def cochain_pairs(draw):
    """Two value tables on one degree of sl2-adjoint's cochains."""
    M = corpus.load("sl2-adjoint")
    L, B = M.base.space, M.space
    degree = draw(st.integers(0, 3))
    keys = st.sampled_from(alt_basis(L, B, degree))
    tables = [draw(st.dictionaries(keys, cochain_scalars(), max_size=9))
              for _ in range(2)]
    return L, B, degree, tables


def fraction_table(table):
    """table with its zeros dropped and every value a Fraction."""
    return {key: Fraction(q) for key, q in table.items() if q}


class TestIntStorage:
    """AltCochain stores ints over one canonical denominator; what it
    returns and how it compares are checked against Fraction dicts."""

    @given(cochain_pairs())
    @settings(max_examples=60, deadline=None)
    def test_values_are_the_input_as_fractions(self, case):
        L, B, degree, (table, _) = case
        f = AltCochain(L, B, degree, table)
        assert all(type(q) is Fraction for q in f.values.values())
        assert f.values == fraction_table(table)
        assert f.components() == [fraction_table(table).get(key, 0)
                                  for key in alt_basis(L, B, degree)]
        assert gcd(f._denominator, *f._ints.values()) == 1

    @given(cochain_pairs(), st.integers(1, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_equal_values_compare_equal_over_any_denominator(self, case, m):
        L, B, degree, (table, _) = case
        f = AltCochain(L, B, degree, table)
        scaled = AltCochain._from_ints(
            L, B, degree, {key: v * m for key, v in f._ints.items()},
            f._denominator * m)
        as_strings = AltCochain(L, B, degree,
                                {key: str(q) for key, q in table.items()})
        for g in (scaled, as_strings):
            assert g == f and g.values == f.values
            assert (g._denominator, g._ints) == (f._denominator, f._ints)

    @given(cochain_pairs(), cochain_scalars())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_agrees_with_fraction_dicts(self, case, q):
        L, B, degree, (t1, t2) = case
        f, g = AltCochain(L, B, degree, t1), AltCochain(L, B, degree, t2)
        a, b = fraction_table(t1), fraction_table(t2)
        keys = set(a) | set(b)
        summed = {k: a.get(k, 0) + b.get(k, 0) for k in keys}
        differ = {k: a.get(k, 0) - b.get(k, 0) for k in keys}
        assert f.add(g).values == fraction_table(summed)
        assert f.sub(g).values == fraction_table(differ)
        assert f.scale(q).values == fraction_table({k: q * v for k, v in a.items()})
        for h in (f.add(g), f.sub(g), f.scale(q)):
            assert all(type(v) is Fraction for v in h.values.values())
            assert gcd(h._denominator, *h._ints.values()) == 1
        assert f.sub(g).add(g) == f


CLASSICAL_GOLDENS = {
    "sl2-trivial": [1, 0, 0, 1],
    "sl2-adjoint": [0, 0, 0, 0],
    "heis-adjoint": [1, 4, 5, 2],
    "abelian2-trivial": [1, 2, 1],
}


# the corpus modules through degree 3 or their top degree, whose ids
# predate gl2-adjoint, and gl2-adjoint through its top degree 4, whose
# differential lands in zero
UNSHUFFLE_CASES = (
    [pytest.param(m, d, id="%d-%s" % (d, m))
     for d in (1, 2, 3) for m in sorted(CLASSICAL_GOLDENS)
     if d <= corpus.load(m).base.space.dim]
    + [pytest.param("gl2-adjoint", d, id="%d-gl2-adjoint" % d)
       for d in (1, 2, 3, 4)])


class TestClassicalComplex:
    @pytest.mark.parametrize("mname", sorted(CLASSICAL_GOLDENS))
    def test_square_zero_and_dims(self, mname):
        M = corpus.load(mname)
        L, B = M.base.space, M.space
        cx = ce_complex(M, L.dim)  # constructor certifies d.d = 0
        assert cx.cochain_dims() == [comb(L.dim, k) * B.dim
                                     for k in range(L.dim + 2)]

    @pytest.mark.parametrize("mname", sorted(CLASSICAL_GOLDENS))
    def test_golden_cohomology(self, mname):
        M = corpus.load(mname)
        cx = ce_complex(M, M.base.space.dim)
        assert cx.cohomology_dims() == CLASSICAL_GOLDENS[mname]

    def test_degree_zero_is_the_action(self, adjoint):
        for M in (adjoint, matrix_unit_adjoint("gl", 2)):
            L, B = M.base.space, M.space
            for b in range(B.dim):
                d0 = ce_differential(AltCochain(L, B, 0, {((), b): ONE}), M)
                assert d0.values == {
                    ((t,), o): q for t in range(L.dim)
                    for o, q in M.action.apply_basis((t, b)).items()}

    def test_maxdeg_bounds(self, adjoint):
        with pytest.raises(ValueError):
            ce_complex(adjoint, 4)
        with pytest.raises(ValueError):
            ce_complex(adjoint, -1)

    @pytest.mark.parametrize("mname,degree", UNSHUFFLE_CASES)
    def test_unshuffle_form_agrees(self, mname, degree):
        M = classical_module(mname)
        L, B = M.base.space, M.space
        for key in alt_basis(L, B, degree):
            f = AltCochain(L, B, degree, {key: 1})
            assert ce_differential_unshuffle(f, M) == ce_differential(f, M)

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9),
           st.integers(1, 4).flatmap(lambda d: st.tuples(
               st.just(d), st.lists(st.integers(-3, 3), min_size=4 * comb(4, d),
                                    max_size=4 * comb(4, d)))))
    @settings(max_examples=20, deadline=None)
    def test_unshuffle_form_agrees_on_random_cochains(self, ints, gl2_cochain):
        M = corpus.load("heis-adjoint")
        L, B = M.base.space, M.space
        f = AltCochain.from_vector(L, B, 2, [Fraction(i) for i in ints])
        assert ce_differential_unshuffle(f, M) == ce_differential(f, M)
        degree, gl2_ints = gl2_cochain
        M = matrix_unit_adjoint("gl", 2)
        L, B = M.base.space, M.space
        f = AltCochain.from_vector(L, B, degree, [Fraction(i) for i in gl2_ints])
        assert ce_differential_unshuffle(f, M) == ce_differential(f, M)

    def test_gl3_adjoint_through_degree_three(self):
        # Whitehead: H*(sl3; sl3) = 0, and gl3 = sl3 + k, so by Kunneth
        # H*(gl3; gl3) = H*(sl3; k) (x) Lambda[z], which is 1, 1, 0, 1 in
        # degrees 0..3; the ranks then follow from the cochain dimensions
        cx = ce_complex(matrix_unit_adjoint("gl", 3), 3)
        assert cx.cochain_dims() == [9, 81, 324, 756, 1134]
        assert cx.ranks() == [8, 72, 252, 503]
        assert cx.cohomology_dims() == [1, 1, 0, 1]

    def test_gl4_adjoint_through_degree_two(self):
        # H*(gl4; gl4) = H*(sl4; k) (x) Lambda[z] is 1, 1, 0 in degrees 0..2
        cx = ce_complex(matrix_unit_adjoint("gl", 4), 2)
        assert cx.cochain_dims() == [16, 256, 1920, 8960]
        assert cx.ranks() == [15, 240, 1680]
        assert cx.cohomology_dims() == [1, 1, 0]

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    @settings(max_examples=20, deadline=None)
    def test_each_summand_block_is_skew(self, ints):
        # both halves of the unshuffle form are skew on their own, not
        # just their difference; from_map(check=True) is the verifier
        M = corpus.load("sl2-adjoint")
        L, B = M.base.space, M.space
        f = AltCochain.from_vector(L, B, 2, [Fraction(i) for i in ints])
        part1, part2 = ce_parts_unshuffle(f, M)
        AltCochain.from_map(part1, check=True)
        AltCochain.from_map(part2, check=True)

    def test_summand_blocks_skew_in_degree_one(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        for key in alt_basis(L, B, 1):
            part1, part2 = ce_parts_unshuffle(AltCochain(L, B, 1, {key: 1}),
                                              adjoint)
            AltCochain.from_map(part1, check=True)
            AltCochain.from_map(part2, check=True)


class TestComplexMatrices:
    def test_shape_chain_checked(self):
        a = RationalMatrix.zero(2, 1)
        b = RationalMatrix.zero(3, 3)
        with pytest.raises(ShapeError, match="chain"):
            ComplexMatrices([a, b])

    def test_square_zero_checked(self):
        a = RationalMatrix.zero(1, 1)
        a.set(0, 0, ONE)
        with pytest.raises(AxiomError, match="compose to zero"):
            ComplexMatrices([a, a])

    def test_small_complex_dims(self):
        d0 = RationalMatrix.zero(2, 1)
        d0.set(0, 0, ONE)
        d1 = RationalMatrix.zero(1, 2)
        d1.set(0, 1, ONE)
        cx = ComplexMatrices([transposed(d0), transposed(d1)])
        assert cx.cochain_dims() == [1, 2, 1]
        assert cx.ranks() == [1, 1]
        assert cx.cohomology_dims() == [0, 0]


def dense_differential(M, k):
    """d_k filled cell by cell into nested lists of Fractions, one column
    per basis cochain: the dense assembly that ce_complex replaced by
    writing sparse rows, kept as its oracle."""
    L, B = M.base.space, M.space
    source = alt_basis(L, B, k)
    target_index = {key: i for i, key in enumerate(alt_basis(L, B, k + 1))}
    cells = [[Fraction(0)] * len(source) for _ in target_index]
    for ci, key in enumerate(source):
        df = ce_differential(AltCochain(L, B, k, {key: 1}), M)
        for out_key, q in df.values.items():
            cells[target_index[out_key]][ci] = q
    return cells


def assembly_case(name):
    """(module, maxdeg): a corpus module or the nilpotent n_4 to its top
    degree, or gl3-adjoint in a shuffled, rescaled basis to degree 2.
    n_4 and rebased gl3 are built afresh, so no constants cleared by an
    earlier test hide a Fraction made while assembling."""
    if name == "gl3-adjoint-rebased":
        return rebased_adjoint(matrix_unit_adjoint("gl", 3), 7), 2
    if name == "n4-adjoint":
        M = adjoint_module(matrix_unit_lie("n", 4))
    else:
        M = corpus.load(name)
    return M, M.base.space.dim


# (family, n, seed of rebased_adjoint or None) for sweep_module
SWEEP_MODULES = [("gl", 3, None), ("gl", 3, 7), ("b", 4, None), ("b", 4, 5),
                 ("n", 4, None)]


@lru_cache(maxsize=None)
def sweep_module(family, n, seed):
    """A matrix-unit adjoint, rebased by the seed, or, when n is None, the
    corpus module named family."""
    if n is None:
        return corpus.load(family)
    return rebased_adjoint(matrix_unit_adjoint(family, n), seed)


class TestDifferentialAssembly:
    @pytest.mark.parametrize("name", sorted(corpus.MODULE_NAMES)
                             + ["gl3-adjoint-rebased", "n4-adjoint"])
    def test_sparse_rows_match_dense_fill(self, name, monkeypatch):
        M, maxdeg = assembly_case(name)
        L, B = M.base.space, M.space
        calls = []

        def counted(f, module):
            calls.append(f.degree)
            return ce_differential(f, module)

        monkeypatch.setattr(cohomology, "ce_differential", counted)
        cx = ce_complex(M, maxdeg)
        monkeypatch.undo()
        # one push-forward per basis cochain
        assert calls == [k for k in range(maxdeg + 1)
                         for _ in range(alt_dim(L, B, k))]
        for k, m in enumerate(differentials(cx)):
            cells = dense_differential(M, k)
            flat = [x for row in cells for x in row]
            assert (m.rows, m.cols) == (alt_dim(L, B, k + 1), alt_dim(L, B, k))
            assert m.entries == flat
            assert m == RationalMatrix(m.rows, m.cols, flat)

    @pytest.mark.parametrize("name", ["gl3-adjoint-rebased", "n4-adjoint"])
    def test_assembly_builds_no_fraction(self, name, monkeypatch):
        # cochains are pushed forward and written into N d_k as ints: a
        # Fraction made anywhere while d_k is assembled raises
        M, maxdeg = assembly_case(name)

        def refused(*args, **kwargs):
            raise AssertionError("Fraction built during assembly")

        monkeypatch.setattr(Fraction, "__new__", refused)
        transposes = [cohomology._differential_matrix(M, k)
                      for k in range(maxdeg + 1)]
        monkeypatch.undo()
        matrices = [transposed(t) for t in transposes]
        if name == "gl3-adjoint-rebased":
            assert M.cleared_constants()[0] > 1
        for k, m in enumerate(matrices):
            cells = dense_differential(M, k)
            assert m.entries == [x for row in cells for x in row]

    @pytest.mark.parametrize("family,n,seed", [("gl", 3, 7), ("b", 4, 5)])
    def test_weight_zero_route_builds_no_fraction(self, family, n, seed,
                                                 monkeypatch):
        # classical_complex pushes each weight-0 key by _pushed, with no
        # cochain object and no ce_differential call, and certifies and
        # ranks the block in ints: a Fraction made anywhere from assembly
        # through ranking raises
        M = rebased_adjoint(matrix_unit_adjoint(family, n), seed)
        assert M.cleared_constants()[0] > 1
        calls = []

        def counted(f, module):
            calls.append(f.degree)
            return ce_differential(f, module)

        def refused(*args, **kwargs):
            raise AssertionError("Fraction built during assembly")

        monkeypatch.setattr(cohomology, "ce_differential", counted)
        monkeypatch.setattr(Fraction, "__new__", refused)
        cx = classical_complex(M, 2)
        monkeypatch.undo()
        assert calls == []
        whole = ce_complex(M, 2)
        assert cx.ranks() == whole.ranks()
        assert cx.cohomology_dims() == whole.cohomology_dims()

    def test_whole_route_keeps_the_traced_calls(self, monkeypatch):
        # mirrors perfbench/tests/test_perfbench_tracing.py::
        # test_traced_job_keeps_its_body_and_attributes_its_time: heis has
        # no torus, so ce_complex pushes each basis cochain through
        # ce_differential, checks d squared by two products of transposes
        # and eliminates the transposes of d_0, d_1 and d_2
        M = corpus.load("heis-adjoint")
        assert torus(M) == []
        calls, products, shapes = [], [], []
        multiply = RationalMatrix.matmul

        def counted(f, module):
            calls.append(f.degree)
            return ce_differential(f, module)

        def counted_matmul(a, b):
            products.append(((a.rows, a.cols), (b.rows, b.cols)))
            return multiply(a, b)

        class Counted(linalg.Echelon):
            def __init__(self, ncols, rows, rhs=None):
                shapes.append((len(rows), ncols))
                super().__init__(ncols, rows, rhs)

        monkeypatch.setattr(cohomology, "ce_differential", counted)
        monkeypatch.setattr(RationalMatrix, "matmul", counted_matmul)
        monkeypatch.setattr(linalg, "Echelon", Counted)
        cx = classical_complex(M, 2)
        assert calls == [0] * 3 + [1] * 9 + [2] * 9
        assert products == [((3, 9), (9, 9)), ((9, 9), (9, 3))]
        assert shapes == [(3, 9), (9, 9), (9, 3)]
        assert cx.cochain_dims() == [3, 9, 9, 3]

    def test_rebased_gl3_keeps_ranks(self):
        cx = ce_complex(rebased_adjoint(matrix_unit_adjoint("gl", 3), 7), 2)
        assert cx.ranks() == [8, 72, 252]

    @pytest.mark.parametrize("seed", [7, 11])
    def test_rebased_gl3_is_int_rows_over_n(self, seed):
        """With rational constants, d_k is held transposed, as int rows
        over the common denominator N of the constants (or a divisor of
        it, once the matrix is in canonical form), and those ints over it
        are the Fraction assembly cell for cell."""
        M = rebased_adjoint(matrix_unit_adjoint("gl", 3), seed)
        constants = list(M.base.bracket.entries.values()) \
            + list(M.action.entries.values())
        N = M.cleared_constants()[0]
        assert N == lcm(*(q.denominator for q in constants)) > 1
        for k, t in enumerate(ce_complex(M, 2).transposes):
            cells = dense_differential(M, k)
            assert N % t._den == 0
            assert all(type(v) is int and v
                       for row in t._rows for v in row.values())
            assert [[Fraction(row.get(i, 0), t._den) for i in range(t.cols)]
                    for row in t._rows] == [list(c) for c in zip(*cells)]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_unshuffle_form_agrees_on_matrix_unit_adjoints(self, data):
        # random multi-term cochains of degree 0..3; the oracle reads
        # degree 0 off the action map and the rest off full maps, so no
        # degree shares code with the push-forward
        M = sweep_module(*data.draw(st.sampled_from(SWEEP_MODULES)))
        L, B = M.base.space, M.space
        degree = data.draw(st.integers(0, 3))
        keys = data.draw(st.lists(st.sampled_from(alt_basis(L, B, degree)),
                                  min_size=1, max_size=4, unique=True))
        f = AltCochain(L, B, degree, {
            key: Fraction(data.draw(st.integers(-9, 9)),
                          data.draw(st.integers(1, 6))) for key in keys})
        assert ce_differential_unshuffle(f, M) == ce_differential(f, M)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_rational_cochains_on_rational_constants(self, data):
        # the push-forward clears the cochain's denominators and the
        # constants' separately; the unshuffle form uses neither
        M = rebased_adjoint(matrix_unit_adjoint("gl", 2),
                            data.draw(st.integers(0, 50)))
        L, B = M.base.space, M.space
        degree = data.draw(st.integers(1, 3))
        vec = [Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 12)))
               for _ in alt_basis(L, B, degree)]
        f = AltCochain.from_vector(L, B, degree, vec)
        assert ce_differential_unshuffle(f, M) == ce_differential(f, M)


class TestInductionMatrix:
    def test_degree_zero_is_identity(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        sc = induction_matrix(0, L, B, corpus.get_coalgebra("tensor-ab-2"))
        keys, dense = sc.to_dense()
        assert keys == [(b,) for b in range(B.dim)]
        assert rank(dense) == B.dim and kernel_basis(dense) == []

    @pytest.mark.parametrize("cname", ["tensor-ab-2", "tensor-x-3",
                                       "symmetric-xy-2", "exterior-ab",
                                       "zero-ab"])
    def test_degree_one_always_injective(self, adjoint, cname):
        # composing with matrix units reads every value back off
        L, B = adjoint.base.space, adjoint.space
        sc = induction_matrix(1, L, B, corpus.get_coalgebra(cname))
        _, dense = sc.to_dense()
        assert rank(dense) == alt_dim(L, B, 1)

    def test_zero_coproduct_kills_degree_two(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        sc = induction_matrix(2, L, B, corpus.get_coalgebra("zero-ab"))
        _, dense = sc.to_dense()
        assert rank(dense) == 0
        assert len(kernel_basis(dense)) == alt_dim(L, B, 2)

    def test_short_words_kill_degree_three(self, adjoint):
        # two-letter words have no triple coproduct
        L, B = adjoint.base.space, adjoint.space
        sc = induction_matrix(3, L, B, corpus.get_coalgebra("tensor-ab-2"))
        _, dense = sc.to_dense()
        assert rank(dense) == 0

    def test_degree_two_injective_on_two_letter_words(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        sc = induction_matrix(2, L, B, corpus.get_coalgebra("tensor-ab-2"))
        _, dense = sc.to_dense()
        assert rank(dense) == alt_dim(L, B, 2) == 9

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    def test_rank_is_alt_dim_while_the_coproduct_lives(self, adjoint, cname, n):
        # iota_n(f) = f (x) Delta^(n): injective or zero, never in between
        L, B = adjoint.base.space, adjoint.space
        C = corpus.get_coalgebra(cname)
        sc = induction_matrix(n, L, B, C)
        live = n == 0 or C.iterated_terms(n)
        assert sc.rank() == (alt_dim(L, B, n) if live else 0)

    def test_negative_degree(self, adjoint):
        with pytest.raises(ValueError):
            induction_matrix(-1, adjoint.base.space, adjoint.space,
                             corpus.get_coalgebra("zero-ab"))



class TestTDCochain:
    def test_same_name_same_cochain(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        C = corpus.get_coalgebra("tensor-ab-2")
        f = AltCochain(L, B, 2, {((0, 1), 0): ONE})
        assert TDCochain(f, C).same_as(TDCochain(f.scale(1), C))

    def test_distinct_names_same_operator(self, adjoint):
        # with a zero coproduct every degree-2 name induces the zero
        # operator, so all names are the same cochain there and only there
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 2, {((0, 1), 0): ONE})
        g = AltCochain(L, B, 2, {((1, 2), 2): Fraction(5)})
        zc = corpus.get_coalgebra("zero-ab")
        assert TDCochain(f, zc).same_as(TDCochain(g, zc))
        assert TDCochain(f, zc).operator() == TDCochain(g, zc).operator()
        wc = corpus.get_coalgebra("tensor-ab-2")
        assert not TDCochain(f, wc).same_as(TDCochain(g, wc))
        assert TDCochain(f, wc).operator() != TDCochain(g, wc).operator()

    def test_degree_zero_compares_values(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        C = corpus.get_coalgebra("zero-ab")
        f = AltCochain(L, B, 0, {((), 0): ONE})
        g = AltCochain(L, B, 0, {((), 1): ONE})
        assert TDCochain(f, C).same_as(TDCochain(f, C))
        assert not TDCochain(f, C).same_as(TDCochain(g, C))

    def test_mismatches(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 1, {((0,), 0): ONE})
        g = AltCochain(L, B, 2, {((0, 1), 0): ONE})
        C = corpus.get_coalgebra("tensor-ab-2")
        assert not TDCochain(f, C).same_as(TDCochain(g, C))
        assert not TDCochain(f, C).same_as(
            TDCochain(f, corpus.get_coalgebra("zero-ab")))

    def test_repr(self, adjoint):
        L, B = adjoint.base.space, adjoint.space
        f = AltCochain(L, B, 1, {((0,), 0): ONE})
        assert "degree=1" in repr(TDCochain(f, corpus.get_coalgebra("zero-ab")))

    def test_operator_is_the_materialized_induced_operator(self, adjoint):
        # once refused at the dense price of its arguments, (3 * 14)^3 =
        # 74088, though the table it lays out has 48 entries
        L, B = adjoint.base.space, adjoint.space
        C = corpus.get_coalgebra("tensor-ab-3")
        f = AltCochain(L, B, 3, {alt_basis(L, B, 3)[0]: 1})
        table = TDCochain(f, C).operator()
        assert table == induced(f.as_map(), C).materialize()
        assert len(table.entries) == 48

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_as_matches_the_laid_out_difference(self, data):
        # the outer product f (x) Delta^(n) vanishes exactly when f or
        # Delta^(n) does; degree 0 compares the difference itself
        M = corpus.load(data.draw(st.sampled_from(corpus.MODULE_NAMES)))
        C = sweep_coalgebra(data.draw(st.sampled_from(SWEEP_COALGEBRAS)))
        L, B = M.base.space, M.space
        n = data.draw(st.integers(0, min(3, L.dim)))
        values = st.lists(st.integers(-2, 2), min_size=alt_dim(L, B, n),
                          max_size=alt_dim(L, B, n))
        f = AltCochain.from_vector(L, B, n, data.draw(values))
        g = f if data.draw(st.booleans()) else \
            AltCochain.from_vector(L, B, n, data.draw(values))
        F, G = TDCochain(f, C), TDCochain(g, C)
        assert F.same_as(G) == materialized_same_as(F, G)


SWEEP_COALGEBRAS = corpus.coalgebra_names() + ("zero-dim",)


def sweep_coalgebra(name):
    """A corpus coalgebra, or with "zero-dim" one with no basis at all."""
    if name == "zero-dim":
        return Coalgebra(BasedSpace("E", ()), {})
    return corpus.get_coalgebra(name)


TD_PAIRS = [
    ("sl2", "tensor-ab-2"),
    ("sl2", "symmetric-xy-2"),
    ("heisenberg", "tensor-x-3"),
    ("abelian2", "exterior-ab"),
]


class TestTDDifferential:
    @pytest.mark.parametrize("lname,cname", TD_PAIRS)
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_direct_matches_induced(self, lname, cname, degree):
        tdm = hom_self(lname, cname)
        L, B = tdm.module.base.space, tdm.module.space
        for key in alt_basis(L, B, degree):
            F = TDCochain(AltCochain(L, B, degree, {key: 1}), tdm.coalgebra)
            assert td_differential_direct(F, tdm).same_as(
                td_differential_induced(F, tdm))

    def test_kernel_preservation_runs_on_degenerate_coalgebra(self, adjoint):
        # zero coproduct: the degree-2 induction kernel is everything, so
        # the factored legality check of the oracle walks every vector of
        # it; the route runs no check and prices nothing
        tdm = hom_module("sl2-adjoint", "zero-ab")
        L, B = adjoint.base.space, adjoint.space
        F = TDCochain(AltCochain(L, B, 2, {((0, 1), 0): ONE}), tdm.coalgebra)
        assert td_differential_induced(F, tdm).inducing \
            == factored_td_differential_induced(F, tdm, 10 ** 12).inducing

    @pytest.mark.parametrize("cname", SWEEP_COALGEBRAS)
    @pytest.mark.parametrize("mname", corpus.MODULE_NAMES
                             + ("bracket-symmetric",))
    def test_closed_form_matches_materialized_oracle(self, mname, cname):
        # the same inducing cochain, or the same refusal, on every basis
        # cochain below the top degree
        M = (heis_adjoint_with("bracket", SYMMETRIC_BRACKET)
             if mname == "bracket-symmetric" else corpus.load(mname))
        C = sweep_coalgebra(cname)
        tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                                check=False)
        L, B = M.base.space, M.space
        for n in range(min(3, L.dim)):
            for key in alt_basis(L, B, n):
                F = TDCochain(AltCochain(L, B, n, {key: 1}), C)
                assert raised_or(lambda: td_differential_direct(F, tdm).inducing) \
                    == raised_or(lambda: materialized_td_differential_direct(
                        F, tdm).inducing), (n, key)

    def test_differential_raises_degree(self, adjoint):
        tdm = hom_module("sl2-adjoint", "tensor-ab-2")
        L, B = adjoint.base.space, adjoint.space
        F = TDCochain(AltCochain(L, B, 1, {((1,), 1): ONE}), tdm.coalgebra)
        out = td_differential_direct(F, tdm)
        assert out.degree == 2
        assert td_differential_induced(F, tdm).degree == 2


TD_GOLDENS = [
    # lie, coalgebra, td cochain dims, cohomology
    ("sl2", "tensor-ab-2", [3, 9, 9, 0], [0, 0, 3]),
    ("sl2", "tensor-x-3", [3, 9, 9, 3], [0, 0, 0]),
    ("heisenberg", "tensor-x-3", [3, 9, 9, 3], [1, 4, 5]),
    ("sl2", "zero-ab", [3, 9, 0, 0], [0, 6, 0]),
]


class TestTDComplex:
    @pytest.mark.parametrize("lname,cname,td_dims,h_dims", TD_GOLDENS)
    def test_golden_dims(self, lname, cname, td_dims, h_dims):
        data = TDComplexData(hom_self(lname, cname), maxdeg=2)
        assert data.td_dims == td_dims
        assert data.h_dims == h_dims
        assert data.alt_dims == [3, 9, 9, 3]

    def test_quotient_matrices_square_to_zero(self):
        quotient, _ = eager_quotient(hom_self("heisenberg", "tensor-x-3"), 2)
        for a, b in zip(quotient, quotient[1:]):
            assert b.matmul(a).is_zero()

    def test_injective_induction_reproduces_classical(self):
        # every induction map on one-variable words of length three is
        # injective through arity three, so the twisted complex must agree
        # with the classical one including the top degree
        data = TDComplexData(hom_self("heisenberg", "tensor-x-3"), maxdeg=3)
        assert data.h_dims == CLASSICAL_GOLDENS["heis-adjoint"]
        data = TDComplexData(hom_self("sl2", "tensor-x-3"), maxdeg=3)
        assert data.h_dims == CLASSICAL_GOLDENS["sl2-adjoint"]

    def test_trivial_module_keeps_everything(self):
        tdm = hom_module("abelian2-trivial", "symmetric-xy-2")
        data = TDComplexData(tdm, maxdeg=2)
        assert data.h_dims == data.td_dims[:3] == [1, 2, 1]

    def test_convenience_wrapper(self):
        assert td_cohomology_dims(hom_self("sl2", "zero-ab")) == [0, 6, 0]

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            TDComplexData(hom_self("sl2", "tensor-x-3"), maxdeg=-1)

    def test_size_guard(self):
        # priced by classical_complex below the cut: the 7 weight-0 keys
        # of C^0 .. C^2, not the (3 * 15)^3 of materializing degree 3
        tdm = hom_module("sl2-adjoint", "tensor-ab-3")
        with pytest.raises(GuardError, match="size 7 exceeds limit 6"):
            TDComplexData(tdm, maxdeg=2, guard_limit=6)
        assert TDComplexData(tdm, maxdeg=2, guard_limit=7).h_dims \
            == TDComplexData(tdm, maxdeg=2).h_dims == [0, 0, 0]


def per_cochain_direct_vs_induced(tdm, maxdeg):
    """Oracle for TDComplexData.direct_vs_induced: both differentials of
    every basis cochain, each rebuilt on its own, compared by same_as."""
    L, B = tdm.module.base.space, tdm.module.space
    for n in range(maxdeg + 1):
        for key in alt_basis(L, B, n):
            F = TDCochain(AltCochain(L, B, n, {key: 1}), tdm.coalgebra)
            a = td_differential_induced(F, tdm)
            b = td_differential_direct(F, tdm)
            if not a.same_as(b):
                return "disagree at degree %d" % n
    return "agree"


def heis_adjoint_with(map_name, entries):
    """heis-adjoint with one map's entries replaced, loaded unchecked."""
    doc = json.loads(corpus.fixture_text("heis-adjoint"))
    for m in doc["maps"]:
        if m["name"] == map_name:
            m["entries"] = entries
    return parse_structure(json.dumps(doc), unsafe_skip_axioms=True)


def td_module_over(M, coalgebra_name):
    s = TDLieStructure(M.base, corpus.get_coalgebra(coalgebra_name), check=False)
    return TDModuleStructure(s, M, check=False)


ADJOINT = [[[0, 1], 2, "1"], [[1, 0], 2, "-1"]]
SYMMETRIC_BRACKET = [[[0, 1], 2, "1"], [[1, 0], 2, "1"]]


@st.composite
def unchecked_module_cochain(draw):
    """A module with random, unchecked bracket and action tables (so neither
    need be skew nor satisfy Jacobi), and a random cochain on it."""
    ldim, bdim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    L = BasedSpace("L", ["x%d" % i for i in range(ldim)])
    B = BasedSpace("B", ["e%d" % i for i in range(bdim)])
    coeff = st.integers(-2, 2)
    bracket = draw(st.dictionaries(
        st.tuples(st.tuples(st.integers(0, ldim - 1), st.integers(0, ldim - 1)),
                  st.integers(0, ldim - 1)), coeff, max_size=6))
    if draw(st.booleans()):
        skew = {}
        for ((x, y), o), q in bracket.items():
            if x != y:
                skew[((x, y), o)] = skew.get(((x, y), o), 0) + q
                skew[((y, x), o)] = skew.get(((y, x), o), 0) - q
        bracket = skew
    action = draw(st.dictionaries(
        st.tuples(st.tuples(st.integers(0, ldim - 1), st.integers(0, bdim - 1)),
                  st.integers(0, bdim - 1)), coeff, max_size=6))
    lie = LieAlgebra(L, MultilinearMap([L, L], L, bracket), check=False)
    M = LieModule(lie, B, MultilinearMap([L, B], B, action), check=False)
    degree = draw(st.integers(1, ldim))
    values = draw(st.lists(coeff, min_size=alt_dim(L, B, degree),
                           max_size=alt_dim(L, B, degree)))
    return M, AltCochain.from_vector(L, B, degree, values)


class TestDirectVsInduced:
    @given(unchecked_module_cochain())
    @settings(max_examples=80, deadline=None)
    def test_unshuffle_difference_is_the_differential(self, case):
        # why direct_vs_induced cannot disagree: on increasing tuples
        # part1 - part2 is d f, for any bracket and action, and part1 is
        # skew; and why it only reads the bracket: part1 - part2 fails to
        # be skew for some basis cochain exactly when [x, y] + [y, x] is
        # not zero
        M, f = case
        part1, part2 = ce_parts_unshuffle(f, M)
        diff = part1.sub(part2)
        increasing = {(tup, o): q for (tup, o), q in diff.entries.items()
                      if list(tup) == sorted(set(tup))}
        assert increasing == ce_differential(f, M).values
        assert is_skew(part1)
        L, B = M.base.space, M.space
        failing = False
        for key in alt_basis(L, B, f.degree):
            part1, part2 = ce_parts_unshuffle(
                AltCochain(L, B, f.degree, {key: 1}), M)
            failing = failing or not is_skew(part1.sub(part2))
        bracket = M.base.bracket
        swap = Permutation([1, 0])
        assert failing == (not bracket.add(bracket.precompose_perm(swap))
                           .is_zero())

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("mname", ("bracket-x<y", "bracket-symmetric",
                                       "bracket-extra"))
    def test_non_skew_brackets_match_per_cochain_oracle(self, mname, cname):
        tdm = td_module_over(heis_adjoint_with(*HEIS_VARIANTS[mname]), cname)
        data = TDComplexData(tdm, maxdeg=2)
        assert raised_or(data.direct_vs_induced) == raised_or(
            lambda: per_cochain_direct_vs_induced(tdm, 2))

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("mname", corpus.MODULE_NAMES)
    def test_matches_per_cochain_oracle(self, mname, cname):
        tdm = hom_module(mname, cname)
        data = TDComplexData(tdm, maxdeg=2)
        expected = per_cochain_direct_vs_induced(tdm, 2)
        assert data.direct_vs_induced() == expected == "agree"

    def test_non_skew_bracket_raises_like_the_oracle(self):
        tdm = td_module_over(
            heis_adjoint_with("bracket", SYMMETRIC_BRACKET), "tensor-ab-2")
        data = TDComplexData(tdm, maxdeg=2)
        with pytest.raises(AxiomError) as new:
            data.direct_vs_induced()
        with pytest.raises(AxiomError) as old:
            per_cochain_direct_vs_induced(tdm, 2)
        assert str(new.value) == str(old.value) \
            == "twisted differential output is not induced at degree 2"

    def test_non_skew_bracket_agrees_over_zero_coproduct(self):
        tdm = td_module_over(
            heis_adjoint_with("bracket", SYMMETRIC_BRACKET), "zero-ab")
        assert TDComplexData(tdm, maxdeg=2).direct_vs_induced() \
            == per_cochain_direct_vs_induced(tdm, 2) == "agree"


HEIS_VARIANTS = {
    "bracket-x<y": ("bracket", [[[0, 1], 2, "1"]]),
    "bracket-symmetric": ("bracket", SYMMETRIC_BRACKET),
    "bracket-extra": ("bracket", ADJOINT + [[[0, 0], 0, "1"]]),
    "action-extra": ("action", ADJOINT + [[[0, 0], 0, "1"]]),
    "action-x<y": ("action", [[[0, 1], 2, "1"]]),
}

TD_FIELDS = ("alt_dims", "td_dims", "ker_dims", "q_ranks", "h_dims",
             "maxdeg")


def raised_or(thunk):
    """thunk's result, or the type and message of what it raised."""
    try:
        return thunk()
    except (AxiomError, GuardError) as exc:
        return type(exc), str(exc)


def td_outcome(cls, tdm, maxdeg, guard_limit=DEFAULT_GUARD_LIMIT):
    data = raised_or(lambda: cls(tdm, maxdeg, guard_limit))
    if isinstance(data, tuple):
        return data
    assert data.tdm is tdm
    fields = {name: getattr(data, name) for name in TD_FIELDS}
    # the oracle ranks the composites on their own; TDComplexData's
    # composite ranks are its q_ranks
    fields["a_ranks"] = data.q_ranks if cls is TDComplexData else data.a_ranks
    # TDComplexData assembles no quotient matrix; the eager assembly it
    # replaced stands in for it
    fields["quotient_matrices"], fields["h0_kernel"] = (
        eager_quotient(tdm, maxdeg) if cls is TDComplexData
        else (data.quotient_matrices, data.h0_kernel))
    return fields, raised_or(data.direct_vs_induced)


class TestMaterializingOracle:
    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("mname", corpus.MODULE_NAMES + tuple(HEIS_VARIANTS))
    def test_closed_form_matches_oracle(self, mname, cname):
        if mname in HEIS_VARIANTS:
            tdm = td_module_over(heis_adjoint_with(*HEIS_VARIANTS[mname]), cname)
        else:
            tdm = hom_module(mname, cname)
        # the route at its default guard, the oracle with its own lifted
        for maxdeg in (0, 1, 2):
            assert td_outcome(TDComplexData, tdm, maxdeg) \
                == td_outcome(MaterializedTDComplexData, tdm, maxdeg,
                              10 ** 12), maxdeg


class TestCutRoute:
    """TDComplexData against the eager assembly it replaced, on modules
    with a torus, where classical_complex ranks the weight-0 block only;
    the corpus sweep above reaches that branch only through sl2."""

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("family,n,seed", [
        (family, n, seed) for family, n in (("gl", 3), ("gl", 4), ("b", 4))
        for seed in (None, 3, 7)])
    def test_ranks_match_eager_assembly(self, family, n, seed, cname):
        tdm = td_module_over(
            rebased_adjoint(matrix_unit_adjoint(family, n), seed), cname)
        for maxdeg in range(4):
            data = TDComplexData(tdm, maxdeg, 10 ** 12)
            quotient, _ = eager_quotient(tdm, maxdeg)
            td_dims = [m.cols for m in quotient] + [quotient[-1].rows]
            ranks = cohomology._certified_ranks(
                [transposed(m) for m in quotient], "not a complex")
            assert data.td_dims == td_dims
            assert data.q_ranks == ranks
            assert data.h_dims == [t - r - below for t, r, below in
                                   zip(td_dims, ranks, [0] + ranks)]

    def test_assembles_only_the_weight_zero_block(self, monkeypatch):
        # over T3(ab) Delta^(4) is zero, so the cut depth is 4 and only
        # d_0 .. d_2 are ranked, each on its weight-0 block, from the keys
        # of C^k_0 outside the pivots of d_(k-1)^0: |C^k_0| - rank d_(k-1)^0
        M = matrix_unit_adjoint("gl", 3)
        keys = weight_zero_keys(M, torus(M), 2)
        r0, r1 = (rank(cohomology._weight_block(M, keys[k], keys[k + 1]))
                  for k in range(2))
        columns, eliminations = [], []
        assemble = cohomology._weight_block

        def counted(M, source, target):
            m = assemble(M, source, target)
            columns.append(m.rows)
            return m

        class Counted(linalg.Echelon):
            def __init__(self, *args):
                eliminations.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cohomology, "_weight_block", counted)
        monkeypatch.setattr(linalg, "Echelon", Counted)
        data = TDComplexData(td_module_over(M, "tensor-ab-3"), 3, 10 ** 12)
        assert data.depth == 4
        assert [len(block) for block in keys] == [3, 15, 42]
        assert columns == [3, 15 - r0, 42 - r1] == [3, 13, 30]
        assert data.alt_dims[:3] == [9, 81, 324]
        route = len(eliminations)
        classical_complex(M, 2)
        assert len(eliminations) == 2 * route > 0


@st.composite
def posets(draw):
    n = draw(st.integers(1, 5))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []


def materialized_check(name, C, lhs, rhs):
    """CheckResult for lhs = rhs, each a term list of materialized_sum (an
    empty rhs is zero), decided and witnessed on the laid-out tables."""
    table = materialized_sum(C, lhs)
    found = table.first_difference(
        materialized_sum(C, rhs) if rhs else table.scale(0))
    return CheckResult(name, found is None,
                       None if found is None else operator_witness(table, found))


def materialized_check_td_lie(lie, C):
    """check_td_lie on materialized tables: the swap of the induced bracket
    against minus the swap-twisted bracket, then the twisted cyclic sum."""
    phi, one = lie.bracket, Permutation.identity(2)
    skew = materialized_check("td-skew", C, [(phi, one, SWAP, 1)],
                              [(phi, SWAP, one, -1)])
    if skew:
        skew = CheckResult("td-skew", True, detail="2 permutations")
    else:
        w = skew.witness
        skew = CheckResult("td-skew", False,
                           Witness((SWAP.images,) + w.args, w.residual))
    nested, one = phi.compose_at(phi, 1), Permutation.identity(3)
    jacobi = materialized_check(
        "td-jacobi", C,
        [(nested, one, one, 1)] + [(nested, r, r, 1) for r in JACOBI_ROTATIONS],
        [])
    return combine("td-lie", [skew, jacobi])


def materialized_check_td_module(tdm):
    """check_td_module on materialized tables."""
    action, one = tdm.module.action, Permutation.identity(3)
    nested = action.compose_at(action, 1)
    return materialized_check(
        "td-module", tdm.coalgebra,
        [(action.compose_at(tdm.td.lie.bracket, 0), one, one, 1)],
        [(nested, one, one, 1),
         (nested, SWAP_FIRST_TWO, SWAP_FIRST_TWO, -1)])


class TestIncidenceCoalgebras:
    """The one family whose coproduct never dies, so the cut never comes
    and the Hom-space complex is the whole classical complex."""

    def test_chain_coproduct(self):
        C = incidence_coalgebra(3, [(0, 1), (1, 2)])
        assert C.dim == 6
        assert len(C.coproduct) == 10
        assert all(C.iterated_terms(k) for k in range(1, 6))

    @given(posets(), st.sampled_from(corpus.MODULE_NAMES), st.integers(0, 2))
    @example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "sl2-adjoint", 2)
    @settings(max_examples=40, deadline=None)
    def test_matches_materialized_oracle(self, poset, mname, maxdeg):
        M = corpus.load(mname)
        C = incidence_coalgebra(*poset)
        tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                                check=False)
        assert td_outcome(TDComplexData, tdm, maxdeg, 10 ** 6) \
            == td_outcome(MaterializedTDComplexData, tdm, maxdeg, 10 ** 6)
        data = TDComplexData(tdm, maxdeg, 10 ** 6)
        assert data.depth == maxdeg + 2
        assert data.td_dims == data.alt_dims
        assert data.h_dims == ce_complex(M, maxdeg).cohomology_dims()

    @given(posets(), st.sampled_from(corpus.PAIR_NAMES), st.integers(0, 3))
    @example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "lr-derx3", 2)
    @settings(max_examples=40, deadline=None)
    def test_blinear_subspace_matches_factored_oracle(self, poset, pname, n):
        # Delta^(n+1) never dies, so every slot defect is stacked, at the
        # default guard; the oracle's materialization guard is lifted
        s = TDLRStructure(corpus.load(pname), incidence_coalgebra(*poset))
        assert blinear_subspace(n, s) \
            == factored_blinear_subspace(n, s, 10 ** 12)

    @given(posets(), st.sampled_from(corpus.MODULE_NAMES),
           st.sampled_from(corpus.PAIR_NAMES))
    @example((5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "sl2-adjoint", "lr-derx3")
    @settings(max_examples=30, deadline=None)
    def test_twisted_checks_match_materialized_oracles(self, poset, mname,
                                                       pname):
        # the factored checkers, decided on operator parts, against the
        # identities laid out as tables
        C = incidence_coalgebra(*poset)
        M = corpus.load(mname)
        assert check_td_lie(M.base, C) == materialized_check_td_lie(M.base, C)
        tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                                check=False)
        assert check_td_module(tdm) == materialized_check_td_module(tdm)
        s = TDLRStructure(corpus.load(pname), C)
        assert check_td_lr(s) == oracle_check_td_lr(s)


class TestInvariants:
    def test_trivial_action_keeps_all_of_target(self):
        tdm = hom_module("abelian2-trivial", "tensor-ab-2")
        assert invariants_h0(tdm) == [[ONE]]
        tdm = hom_module("sl2-trivial", "symmetric-xy-2")
        assert invariants_h0(tdm) == [[ONE]]

    def test_semisimple_adjoint_has_none(self):
        assert invariants_h0(hom_self("sl2", "tensor-ab-2")) == []

    def test_center_survives(self):
        inv = invariants_h0(hom_self("heisenberg", "tensor-x-3"))
        assert inv == [[Fraction(0), Fraction(0), ONE]]

    @pytest.mark.parametrize("lname,cname", TD_PAIRS)
    def test_matches_kernel_of_first_differential(self, lname, cname):
        tdm = hom_self(lname, cname)
        data = TDComplexData(tdm, maxdeg=1)
        assert invariants_h0(tdm) == eager_quotient(tdm, 1)[1]
        assert len(invariants_h0(tdm)) == data.h_dims[0]

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("mname", corpus.MODULE_NAMES)
    def test_matches_matrix_unit_stacking(self, mname, cname):
        # zero-ab among them: its matrix units still act through e_t
        tdm = hom_module(mname, cname)
        assert invariants_h0(tdm) == matrix_unit_invariants(tdm)

    @pytest.mark.parametrize("mname", corpus.MODULE_NAMES)
    def test_zero_dimensional_coalgebra_keeps_all_of_target(self, mname):
        M = corpus.load(mname)
        E = Coalgebra(BasedSpace("E", ()), {})
        tdm = TDModuleStructure(TDLieStructure(M.base, E, check=False), M,
                                check=False)
        n = M.space.dim
        everything = [[ONE if i == j else 0 for j in range(n)]
                      for i in range(n)]
        assert invariants_h0(tdm) == matrix_unit_invariants(tdm) == everything


def dense_rank(m):
    """Rank by the dense Bareiss oracle, eliminating m by its columns."""
    _, pivots, _ = bareiss_echelon([m.column(j) for j in range(m.cols)], m.rows)
    return len(pivots)


def elementary_pair(n, ops):
    """(P, P^-1) as dense Fraction lists: P is the product of the
    elementary matrices I + c E_ij (i != j) and diag(.., c at i, ..)
    (i == j, c != 0) named by ops, and the inverse is tracked alongside."""
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for i, j, c in ops:
        if i != j:
            # P <- P (I + c E_ij), Q <- (I - c E_ij) Q
            for row in P:
                row[j] += c * row[i]
            Q[i] = [a - c * b for a, b in zip(Q[i], Q[j])]
        elif c:
            for row in P:
                row[i] *= c
            Q[i] = [a / c for a in Q[i]]
    return P, Q


def dense_product(a, b, cols):
    """a times b on dense lists, b having cols columns and maybe no rows."""
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0))
             for j in range(cols)] for row in a]


@st.composite
def conjugated_complexes(draw):
    """(differentials, ranks) of d_k = P_(k+1) J_k P_k^-1, where J_k sends
    the unit vectors r_(k-1) .. r_(k-1) + r_k - 1 of C^k to the first r_k
    unit vectors of C^(k+1), so J_k J_(k-1) = 0 and rank d_k = r_k.
    Dimensions may be 0 and ranks 0, ends included."""
    dims = draw(st.lists(st.integers(0, 5), min_size=2, max_size=5))
    ranks, below = [], 0
    for n, above in zip(dims, dims[1:]):
        # drawn down from the largest rank, which shrinking then prefers
        top = min(n - below, above)
        below = top - draw(st.integers(0, top))
        ranks.append(below)
    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pairs = [elementary_pair(n, draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), scalars),
        min_size=n, max_size=3 * n)) if n else []) for n in dims]
    matrices, below = [], 0
    for k, r in enumerate(ranks):
        n, above = dims[k], dims[k + 1]
        J = [[Fraction(int(j == below + i and i < r)) for j in range(n)]
             for i in range(above)]
        d = dense_product(pairs[k + 1][0], dense_product(J, pairs[k][1], n), n)
        matrices.append(RationalMatrix(above, n, [x for row in d for x in row]))
        below = r
    return matrices, ranks


class TestClearedRanks:
    """The ranks of a certified complex, taken by clearing, against
    per-matrix ranks of its rows and the dense Bareiss oracle."""

    @staticmethod
    def assert_oracles_agree(cx):
        assert cx.ranks() == [rank(m) for m in differentials(cx)] \
            == [dense_rank(m) for m in differentials(cx)]

    @pytest.mark.parametrize("name", sorted(corpus.MODULE_NAMES))
    def test_corpus_modules(self, name):
        M = corpus.load(name)
        self.assert_oracles_agree(ce_complex(M, min(M.base.space.dim, 3)))

    @pytest.mark.parametrize("name", ["gl3-adjoint-rebased", "n4-adjoint"])
    def test_larger_complexes(self, name):
        M, maxdeg = assembly_case(name)
        if name == "gl3-adjoint-rebased":
            assert M.cleared_constants()[0] > 1
        self.assert_oracles_agree(ce_complex(M, maxdeg))

    @given(conjugated_complexes())
    @settings(max_examples=100, deadline=None)
    def test_conjugated_complexes(self, case):
        matrices, ranks = case
        cx = ComplexMatrices([transposed(m) for m in matrices])
        assert cx.ranks() == ranks
        self.assert_oracles_agree(cx)

    @pytest.mark.parametrize("lname,cname", TD_PAIRS)
    def test_hom_space_complexes(self, lname, cname):
        tdm = hom_self(lname, cname)
        data = TDComplexData(tdm, maxdeg=2)
        quotient, _ = eager_quotient(tdm, 2)
        assert data.q_ranks \
            == [rank(m) for m in quotient] \
            == [dense_rank(m) for m in quotient]

    def test_gl3_feeds_only_what_the_degree_below_leaves(self, monkeypatch):
        # with clearing, degree k feeds dim C^k - rank d_(k-1) columns of
        # d_k and exactly h_k of them reduce to zero; ranking d_k by its
        # 81, 324 and 756 rows would feed all of them
        fed, residues = [], []

        class Counted(linalg.Echelon):
            def __init__(self, ncols, rows, rhs=None):
                super().__init__(ncols, rows, rhs)
                fed.append(sum(1 for row in rows if row))
                # a nonzero row fed either becomes a pivot or reduces to zero
                residues.append(fed[-1] - self.rank)

        monkeypatch.setattr(linalg, "Echelon", Counted)
        cx = ce_complex(matrix_unit_adjoint("gl", 3), 2)
        assert cx.ranks() == [8, 72, 252]
        assert fed == [9, 73, 252]
        assert residues == cx.cohomology_dims() == [1, 1, 0]


def refuse_elimination(*args, **kwargs):
    raise AssertionError("eliminated before d squared was checked")


class TestSquareZeroCheckedFirst:
    def test_complex_matrices(self, monkeypatch):
        # d_1 d_0 = 0, so only the second product can tell
        d0 = RationalMatrix.from_rows([[1], [0]])
        d1 = RationalMatrix.from_rows([[0, 1]])
        d2 = RationalMatrix.from_rows([[1]])
        transposes = [transposed(d) for d in (d0, d1, d2)]
        monkeypatch.setattr(linalg, "Echelon", refuse_elimination)
        with pytest.raises(AxiomError) as exc:
            ComplexMatrices(transposes)
        assert str(exc.value) == "consecutive differentials do not compose to zero"

    def test_hom_space_complex(self, monkeypatch):
        tdm = td_module_over(heis_adjoint_with(*HEIS_VARIANTS["action-extra"]),
                             "tensor-ab-2")
        monkeypatch.setattr(linalg, "Echelon", refuse_elimination)
        with pytest.raises(AxiomError) as exc:
            TDComplexData(tdm, maxdeg=2)
        assert str(exc.value) == "quotient differentials do not square to zero"


# (family, n, seed of rebased_adjoint or None, maxdeg)
ROUTE_CASES = [
    ("gl", 3, None, 3), ("gl", 4, None, 2), ("b", 4, None, 4),
    ("b", 5, None, 3), ("gl", 3, 0, 2), ("gl", 3, 1, 2), ("gl", 3, 3, 2),
    ("gl", 3, 7, 2), ("gl", 4, 3, 2), ("gl", 4, 12, 2), ("b", 4, 5, 3),
    ("b", 4, 9, 3), ("b", 5, 2, 2), ("b", 5, 7, 2)]


@pytest.fixture
def ce_calls(monkeypatch):
    """The modules classical_complex hands to ce_complex, looked up
    through the module global as the command line does."""
    calls = []

    def counted(M, maxdeg):
        calls.append(M)
        return ce_complex(M, maxdeg)

    monkeypatch.setattr(cohomology, "ce_complex", counted)
    return calls


def assert_same_complex(cx, oracle):
    assert cx.cochain_dims() == oracle.cochain_dims()
    assert cx.ranks() == oracle.ranks()
    assert cx.cohomology_dims() == oracle.cohomology_dims()


class TestTorus:
    def test_corpus_tori(self):
        # sl2 = span(e, f, h): [h, e] = 2e, [h, f] = -2f
        assert torus(corpus.load("sl2-adjoint")) == [([2, -2, 0], [2, -2, 0])]
        assert torus(corpus.load("sl2-trivial")) == [([2, -2, 0], [0])]
        # heis's z is diagonal with every weight 0, so it is no torus
        # element and heis-adjoint keeps the whole-complex route
        assert torus(corpus.load("heis-adjoint")) == []
        assert torus(corpus.load("abelian2-trivial")) == []

    def test_matrix_unit_families(self):
        assert len(torus(matrix_unit_adjoint("gl", 3))) == 3
        assert len(torus(matrix_unit_adjoint("b", 4))) == 4
        assert torus(matrix_unit_adjoint("n", 4)) == []

    def test_jordan_blocks_are_no_torus(self):
        # ad_h fixes x and sends y to x + y; then h acting on a plane the
        # same way, over the line it spans: h reads one diagonal weight in
        # each, but neither action is diagonal
        L = BasedSpace("J", ["h", "x", "y"])
        jordan = {((0, 1), 1): 1, ((0, 2), 1): 1, ((0, 2), 2): 1,
                  ((1, 0), 1): -1, ((2, 0), 1): -1, ((2, 0), 2): -1}
        bracket = MultilinearMap([L, L], L, jordan)
        line = BasedSpace("k", ["1"])
        h = BasedSpace("h", ["h"])
        plane = BasedSpace("V", ["v", "w"])
        modules = [
            LieModule(LieAlgebra(L, bracket), L, bracket),
            LieModule(LieAlgebra(L, bracket), line,
                      MultilinearMap([L, line], line, {})),
            LieModule(LieAlgebra(h, MultilinearMap([h, h], h, {})), plane,
                      MultilinearMap([h, plane], plane, {
                          ((0, 0), 0): 1, ((0, 1), 0): 1, ((0, 1), 1): 1}))]
        for M in modules:
            assert torus(M) == []
            top = M.base.space.dim
            assert_same_complex(classical_complex(M, top), ce_complex(M, top))

    def test_only_on_kept_passing_axioms(self):
        text = corpus.fixture_text("sl2-adjoint")
        M = parse_structure(text, unsafe_skip_axioms=True)
        assert torus(M) == []
        check_module(M)
        assert torus(M) == []
        check_lie(M.base)
        assert torus(M) == torus(parse_structure(text)) != []
        unchecked_base = LieAlgebra(M.base.space, M.base.bracket, check=False)
        assert torus(LieModule(unchecked_base, M.space, M.action)) == []

    def test_fraction_scaled_torus_element(self, ce_calls):
        # h scaled by 2/3 and e by 5/2: weights 4/3 and -4/3, compared as
        # ints over N = 3
        sl2 = corpus.load("sl2-adjoint")
        M = rebased(sl2, diagonal([Fraction(5, 2), ONE, Fraction(2, 3)]))
        N = M.cleared_constants()[0]
        assert N > 1 and N % 3 == 0
        ((lam, mu),) = torus(M)
        assert [Fraction(v, N) for v in lam] == [Fraction(4, 3), Fraction(-4, 3), 0]
        assert lam == mu
        for maxdeg in range(4):
            assert_same_complex(classical_complex(M, maxdeg), ce_complex(M, maxdeg))
        assert ce_calls == []


def mask_of(tup):
    return sum(1 << s for s in tup)


def tuple_of(m):
    return tuple(s for s in range(m.bit_length()) if m >> s & 1)


def tuple_keys(blocks):
    """weight_zero_keys's blocks with each mask read back as its increasing
    tuple of bits."""
    return [[(tuple_of(m), b) for m, b in keys] for keys in blocks]


def brute_force_weight_zero_keys(M, weights, top):
    """weight_zero_keys as it was, and its oracle: every increasing tuple of
    each degree with its weights summed, the module basis grouped by
    weight."""
    by_weight, n = {}, M.base.space.dim
    for b in range(M.space.dim):
        by_weight.setdefault(tuple(mu[b] for _, mu in weights), []).append(b)
    step = [tuple(lam[s] for lam, _ in weights) for s in range(n)]
    zero = (0,) * len(weights)
    return [[(S, b) for S in increasing_tuples(n, k) for b in by_weight.get(
        tuple(map(sum, zip(zero, *(step[s] for s in S)))), ())]
        for k in range(top + 1)]


class TestWeightZeroKeys:
    @pytest.mark.parametrize("family,n,seed,top", [
        ("gl", 3, None, 9), ("gl", 4, None, 5), ("gl", 5, None, 4),
        ("b", 4, None, 10), ("b", 5, None, 6), ("gl", 3, 7, 9),
        ("gl", 4, 3, 5), ("gl", 5, 4, 3), ("b", 4, 9, 10), ("b", 5, 2, 6)])
    def test_degree_by_degree_walk_matches_brute_force(self, family, n, seed, top):
        M = rebased_adjoint(matrix_unit_adjoint(family, n), seed)
        weights = torus(M)
        assert len(weights) == n
        for t in (0, 1, top):
            assert tuple_keys(weight_zero_keys(M, weights, t)) \
                == brute_force_weight_zero_keys(M, weights, t)

    def test_fraction_weights_and_empty_block(self):
        # weights over a denominator, and a torus with no weight-0 key
        sl2 = corpus.load("sl2-adjoint")
        M = rebased(sl2, diagonal([Fraction(5, 2), ONE, Fraction(2, 3)]))
        L, V = BasedSpace("a", ["h", "z"]), BasedSpace("V", ["v", "w"])
        plane = LieModule(LieAlgebra(L, MultilinearMap([L, L], L, {})), V,
                          MultilinearMap([L, V], V, {((0, 0), 0): Fraction(1, 2),
                                                     ((0, 1), 1): 3, ((1, 1), 1): 1}))
        for module in (M, plane):
            weights = torus(module)
            assert weights
            assert tuple_keys(weight_zero_keys(module, weights, 2)) \
                == brute_force_weight_zero_keys(module, weights, 2)
        assert weight_zero_keys(plane, torus(plane), 2) == [[], [], []]

    def test_packing_base_just_above_the_digit_bound(self):
        # top 1 and entries of size 1 pack in base 3: lam(h) = (1, 0) and
        # mu(w) = (-1, 1) differ by digits (2, -1), which base 2 would
        # carry into one packed value, 1 = -1 + 1 * 2
        L, V = BasedSpace("a", ["h"]), BasedSpace("V", ["v", "w"])
        M = LieModule(LieAlgebra(L, MultilinearMap([L, L], L, {})), V,
                      MultilinearMap([L, V], V, {}))
        weights = [([1], [0, -1]), ([0], [0, 1])]
        assert tuple_keys(weight_zero_keys(M, weights, 1)) == [[((), 0)], []] \
            == brute_force_weight_zero_keys(M, weights, 1)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 4),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_integer_weights(self, ldim, vdim, top, data):
        # weight_zero_keys reads only the dimensions and the weights
        L = BasedSpace("a", ["x%d" % i for i in range(ldim)])
        V = BasedSpace("V", ["v%d" % i for i in range(vdim)])
        M = LieModule(LieAlgebra(L, MultilinearMap([L, L], L, {}), check=False),
                      V, MultilinearMap([L, V], V, {}), check=False)
        entries = st.integers(-3, 3)
        weights = data.draw(st.lists(st.tuples(
            st.lists(entries, min_size=ldim, max_size=ldim),
            st.lists(entries, min_size=vdim, max_size=vdim)),
            min_size=1, max_size=3))
        assert tuple_keys(weight_zero_keys(M, weights, top)) \
            == brute_force_weight_zero_keys(M, weights, top)


class TestWeightZeroRoute:
    @pytest.mark.parametrize("name", sorted(corpus.MODULE_NAMES))
    def test_corpus_modules(self, name, ce_calls):
        M = corpus.load(name)
        for maxdeg in range(M.base.space.dim + 1):
            assert_same_complex(classical_complex(M, maxdeg), ce_complex(M, maxdeg))
        assert len(ce_calls) == (0 if torus(M) else M.base.space.dim + 1)

    @pytest.mark.parametrize("family,n,seed,maxdeg", ROUTE_CASES)
    def test_matrix_unit_adjoints(self, family, n, seed, maxdeg, ce_calls):
        M = rebased_adjoint(matrix_unit_adjoint(family, n), seed)
        assert len(torus(M)) == n
        assert_same_complex(classical_complex(M, maxdeg), ce_complex(M, maxdeg))
        assert ce_calls == []

    @pytest.mark.parametrize("seed", [None, 3])
    def test_block_is_the_weight_zero_part_of_d(self, seed):
        # each d_k^0 is d_k restricted to the weight-0 keys, and d_k sends
        # no weight-0 cochain anywhere else
        M = rebased_adjoint(matrix_unit_adjoint("gl", 3), seed)
        L, B = M.base.space, M.space
        masks = weight_zero_keys(M, torus(M), 3)
        blocks = tuple_keys(masks)
        assert [len(keys) for keys in blocks] == [3, 15, 42, 84]
        whole = differentials(ce_complex(M, 2))
        for k, d in enumerate(whole):
            d0 = transposed(cohomology._weight_block(M, masks[k], masks[k + 1]))
            row_of = {key: i for i, key in enumerate(alt_basis(L, B, k + 1))}
            col_of = {key: j for j, key in enumerate(alt_basis(L, B, k))}
            rows = [row_of[key] for key in blocks[k + 1]]
            cols = [col_of[key] for key in blocks[k]]
            assert [[d0.get(i, j) for j in range(d0.cols)] for i in range(d0.rows)] \
                == [[d.get(i, j) for j in cols] for i in rows]
            inside = set(rows)
            assert all(d.get(i, j) == 0 for j in cols
                       for i in range(d.rows) if i not in inside)

    def test_empty_weight_zero_block(self, ce_calls):
        # an abelian plane acting on a plane by nonzero diagonal weights:
        # no cochain has weight 0, so the whole complex is acyclic
        L, V = BasedSpace("a", ["h", "z"]), BasedSpace("V", ["v", "w"])
        M = LieModule(LieAlgebra(L, MultilinearMap([L, L], L, {})), V,
                      MultilinearMap([L, V], V, {((0, 0), 0): Fraction(1, 2),
                                                 ((0, 1), 1): 3, ((1, 1), 1): 1}))
        assert torus(M) == [([0, 0], [1, 6]), ([0, 0], [0, 2])]
        for maxdeg in range(3):
            keys = weight_zero_keys(M, torus(M), maxdeg + 1)
            assert all((m.rows, m.cols) == (0, 0) for m in (
                cohomology._weight_block(M, keys[k], keys[k + 1])
                for k in range(maxdeg + 1)))
            cx = classical_complex(M, maxdeg)
            assert_same_complex(cx, ce_complex(M, maxdeg))
            assert cx.cohomology_dims() == [0] * (maxdeg + 1)
        assert ce_calls == []

    def test_column_off_its_block_is_an_axiom_error(self):
        # d of the degree-0 cochain e meets f . e = -h at ((1,), 2) first;
        # keys are named by increasing tuples, not by masks
        M = corpus.load("sl2-adjoint")
        with pytest.raises(AxiomError) as refused:
            cohomology._weight_block(M, [(0, 0)], [(0, 1)])
        assert str(refused.value) == ("d of the basis cochain ((), 0) leaves "
                                      "its weight block at ((1,), 2)")
        with pytest.raises(AxiomError) as refused:
            cohomology._weight_block(M, [(mask_of((0,)), 0)],
                                     [(mask_of((0, 1)), 1)])
        assert str(refused.value) == ("d of the basis cochain ((0,), 0) leaves "
                                      "its weight block at ((0, 1), 2)")
        # gl3 acting by zero: only bracket terms, named in _pushed's order,
        # [E12, E21] = E11 before [E13, E31] = E11
        M = trivial_module(matrix_unit_lie("gl", 3))
        for S, T in (((0,), (1, 3)), ((0, 4), (1, 3, 4))):
            with pytest.raises(AxiomError) as refused:
                cohomology._weight_block(M, [(mask_of(S), 0)], [])
            assert str(refused.value) == (
                "d of the basis cochain (%r, 0) leaves its weight block at "
                "(%r, 0)" % (S, T))

    def test_maxdeg_bounds(self, adjoint):
        for maxdeg in (-1, 4):
            with pytest.raises(ValueError):
                classical_complex(adjoint, maxdeg)


# (family, n): corpus modules by name, and the matrix-unit adjoints
MASK_SWEEP = [(name, None) for name in sorted(corpus.MODULE_NAMES)] + [
    (family, n) for family in ("gl", "b", "n") for n in (2, 3, 4)]


class TestMaskPushForward:
    """The push-forward on mask keys against the one on increasing tuples
    it replaced, on every key of a degree, weight 0 or not: the whole of
    C^k taken as one block, which no image leaves."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_key_matches_the_tuple_push_forward(self, data):
        family, n = data.draw(st.sampled_from(MASK_SWEEP))
        seed = None if n is None else data.draw(st.one_of(
            st.none(), st.integers(0, 50)))
        M = sweep_module(family, n, seed)
        L, B = M.base.space, M.space
        N = M.cleared_constants()[0]
        degree = data.draw(st.integers(0, min(L.dim, 3)))
        source, target = (alt_basis(L, B, k) for k in (degree, degree + 1))
        index = {key: i for i, key in enumerate(target)}
        # the whole of C^degree as one block, target masks in alt_basis order
        block = cohomology._weight_block(
            M, [(mask_of(S), b) for S, b in source],
            [(mask_of(T), o) for T, o in target])
        assert (block.rows, block.cols) == (len(source), len(target))
        for key, row in zip(source, block._rows):
            assert {i: Fraction(v, block._den) for i, v in row.items()} == {
                index[out]: Fraction(v, N) for out, v in
                tuple_pushed({key: 1}, M).items() if v}
        # a cochain of several keys with int values: the same sums, zeros
        # and order included
        ints = data.draw(st.dictionaries(st.sampled_from(source),
                                         st.integers(-5, 5), max_size=4))
        assert [((tuple_of(T), o), v) for (T, o), v in cohomology._pushed(
            {(mask_of(S), b): q for (S, b), q in ints.items()}, M).items()] \
            == list(tuple_pushed(ints, M).items())
        maxdeg = max(k for k in range(L.dim + 1)
                     if sum(alt_dim(L, B, i) for i in range(k + 2)) <= 1500)
        maxdeg = data.draw(st.integers(0, maxdeg))
        assert_same_complex(classical_complex(M, maxdeg, 10 ** 6),
                            ce_complex(M, maxdeg))


# (family, n, seed, maxdeg) for sweep_module: every corpus module
# with a torus, and gl_n and b_n adjoints for n <= 4, each to its top
# degree but gl4, whose weight-0 blocks pass 3,000 keys above degree 5
SQUARE_ZERO_CASES = [
    (name, None, None, corpus.load(name).base.space.dim)
    for name in sorted(corpus.MODULE_NAMES) if torus(corpus.load(name))] + [
    (family, n, seed, maxdeg)
    for family, n, maxdeg in (("gl", 2, 4), ("gl", 3, 9), ("gl", 4, 5),
                              ("b", 2, 3), ("b", 3, 6), ("b", 4, 10))
    for seed in (None, 5)]


class TestSquareZeroByTheorem:
    """The weight-0 route takes no product: the kept axioms make d squared
    zero.  Here the full weight-0 blocks are assembled and multiplied, and
    the route's block ranks, from only the rows it pushes, are the
    clearing ranks of those full blocks."""

    @pytest.mark.parametrize("family,n,seed,maxdeg", SQUARE_ZERO_CASES)
    def test_full_blocks_square_to_zero(self, family, n, seed, maxdeg,
                                        monkeypatch):
        M = sweep_module(family, n, seed)
        keys = weight_zero_keys(M, torus(M), maxdeg + 1)
        blocks = [cohomology._weight_block(M, keys[k], keys[k + 1])
                  for k in range(maxdeg + 1)]
        for a, b in zip(blocks, blocks[1:]):
            assert a.matmul(b).is_zero()
        lazy, cleared = [], cohomology._cleared_ranks

        def recorded(count, held):
            lazy.append(cleared(count, held))
            return lazy[-1]

        monkeypatch.setattr(cohomology, "_cleared_ranks", recorded)
        classical_complex(M, maxdeg, 10 ** 6)
        monkeypatch.undo()
        assert lazy == [cohomology._certified_ranks(blocks, "not a complex")]


# source keys of d_0 .. d_2: the weight-0 block under a torus, else the
# whole complex (heis-adjoint has no torus element: 3 + 9 + 9)
PRICED = {"sl2-adjoint": 7, "gl3-adjoint": 60, "heis-adjoint": 21}


def priced_module(name):
    return matrix_unit_adjoint("gl", 3) if name == "gl3-adjoint" \
        else corpus.load(name)


class TestSizeGuard:
    """classical_complex is priced by the basis keys whose images it
    pushes, before it assembles anything."""

    @pytest.mark.parametrize("name", sorted(PRICED))
    def test_priced_by_source_keys(self, name):
        M, keys = priced_module(name), PRICED[name]
        with pytest.raises(GuardError) as refused:
            classical_complex(M, 2, keys - 1)
        assert str(refused.value).startswith(
            "size %d exceeds limit %d;" % (keys, keys - 1))
        assert_same_complex(classical_complex(M, 2, keys), ce_complex(M, 2))

    @pytest.mark.parametrize("name", sorted(PRICED))
    def test_refused_before_assembly(self, name, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a refused job assembled a differential")

        M = priced_module(name)
        for assembler in ("_differential_matrix", "_weight_block", "_pushed"):
            monkeypatch.setattr(cohomology, assembler, forbidden)
        with pytest.raises(GuardError):
            classical_complex(M, 2, PRICED[name] - 1)
        with pytest.raises(AssertionError):
            classical_complex(M, 2, PRICED[name])

    def test_command_line_names_the_price(self, capsys):
        code = cli.main(["cohomology", "--module", "sl2-adjoint",
                         "--maxdeg", "2", "--guard-limit", "6"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err == ("guard refused: size 7 exceeds limit 6; pass a larger "
                       "guard_limit (see --guard-limit)\n")


def poincare_coefficients(factors, top):
    """Coefficients of t^0 .. t^top in the product of the polynomials
    given as coefficient lists."""
    coeffs = [1] + [0] * top
    for factor in factors:
        coeffs = [sum(factor[i] * coeffs[k - i]
                      for i in range(min(k, len(factor) - 1) + 1))
                  for k in range(top + 1)]
    return coeffs


def inversion_counts(n):
    """Number of permutations of n with k inversions, k = 0 .. n(n-1)/2."""
    counts = Counter(sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
                     for p in permutations(range(n)))
    return [counts[k] for k in range(n * (n - 1) // 2 + 1)]


class TestTheoremOracles:
    """Closed forms on rungs the whole-complex route cannot reach cheaply."""

    @pytest.mark.parametrize("n,maxdeg", [(2, 4), (3, 3), (4, 4), (5, 3)])
    def test_reductive(self, n, maxdeg, ce_calls):
        # H*(gl_n, gl_n) = H*(gl_n) (x) Z(gl_n) has Poincare polynomial
        # prod_{i=1..n} (1 + t^(2i-1)) (Hochschild & Serre 1953)
        expected = poincare_coefficients(
            ([1] + [0] * (2 * i - 2) + [1] for i in range(1, n + 1)), maxdeg)
        cx = classical_complex(matrix_unit_adjoint("gl", n), maxdeg)
        assert cx.cohomology_dims() == expected
        assert ce_calls == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kostant(self, n, ce_calls):
        # dim H^k(n_n, k) is the number of permutations of n with k
        # inversions (Kostant 1961); n_n has no torus, so this is the
        # whole-complex route
        M = trivial_module(matrix_unit_lie("n", n))
        top = M.base.space.dim
        assert classical_complex(M, top).cohomology_dims() == inversion_counts(n)
        assert ce_calls == [M]


# algebra name -> its adjoint module; heis and n4 have no torus
DUALITY_ADJOINTS = {
    "gl2": lambda: matrix_unit_adjoint("gl", 2),
    "gl3": lambda: matrix_unit_adjoint("gl", 3),
    "b3": lambda: matrix_unit_adjoint("b", 3),
    "n4": lambda: matrix_unit_adjoint("n", 4),
    "sl2": lambda: corpus.load("sl2-adjoint"),
    "heis": lambda: corpus.load("heis-adjoint")}
DUALITY_CASES = [("trivial", name) for name in ("gl2", "gl3", "b3", "n4")] + [
    ("adjoint", name) for name in ("sl2", "heis", "b3", "n4", "gl2")]


class TestDuality:
    """An oracle that shares no code with assembly: the dims of M and of
    its Hazewinkel dual, both computed to full degree, mirror each other."""

    @pytest.mark.parametrize("seed", [None, 3, 7])
    @pytest.mark.parametrize("coefficients,algebra", DUALITY_CASES)
    def test_hazewinkel(self, coefficients, algebra, seed, ce_calls):
        # dim H^k(L, M) = dim H^(n-k)(L, M* (x) k_tr), n = dim L; without
        # k_tr it fails on b3, which is not unimodular
        adjoint = DUALITY_ADJOINTS[algebra]()
        adjoint = rebased_adjoint(adjoint, seed)
        M = adjoint if coefficients == "adjoint" else trivial_module(adjoint.base)
        D = dual_module(M)
        n = M.base.space.dim
        assert classical_complex(M, n).cohomology_dims() \
            == classical_complex(D, n).cohomology_dims()[::-1]
        # both routes: the torus one and, off a torus, the whole complex
        assert ce_calls == ([M, D] if algebra in ("heis", "n4") else [])


# (L1, L2) as (family, n): every sum but n3 + n3 has a torus, from its
# gl or b summand
KUNNETH_CASES = [(("gl", 2), ("n", 3)), (("n", 3), ("b", 2)),
                 (("b", 2), ("b", 2)), (("gl", 2), ("b", 3)),
                 (("n", 4), ("b", 2)), (("gl", 3), ("n", 3)),
                 (("n", 3), ("n", 3))]


class TestKunneth:
    """Another oracle that shares no code with assembly: H*(L1 (+) L2, k)
    is H*(L1, k) (x) H*(L2, k), so the Poincare polynomial of a direct
    sum, to full degree, is the product of its summands'."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("first,second", KUNNETH_CASES,
                             ids=["%s%d+%s%d" % (first + second)
                                  for first, second in KUNNETH_CASES])
    def test_poincare_polynomials_multiply(self, first, second, seed,
                                           ce_calls):
        factors = [trivial_module(matrix_unit_lie(*summand))
                   for summand in (first, second)]
        total = direct_sum(factors[0].base, factors[1].base)
        M = trivial_module(rebased_adjoint(adjoint_module(total), seed).base)
        dims = [classical_complex(N, N.base.space.dim).cohomology_dims()
                for N in factors + [M]]
        assert dims[2] == poincare_coefficients(dims[:2], total.space.dim)
        # n_n has no torus: a summand n_n, or a sum of two, takes the
        # whole-complex route, and the rest the weight-0 one
        whole = [first[0] == "n", second[0] == "n"]
        whole.append(all(whole))
        assert ce_calls == [N for N, w in zip(factors + [M], whole) if w]


def symmetric_perturbed(M, x, y, o, q):
    """M with q e_o added to both [e_x, e_y] and [e_y, e_x] of its
    bracket, action kept: a bracket with a nonzero symmetric part."""
    L = M.base.space
    entries = dict(M.base.bracket.entries)
    for key in {((x, y), o), ((y, x), o)}:
        entries[key] = entries.get(key, 0) + q
    lie = LieAlgebra(L, MultilinearMap([L, L], L, entries), check=False)
    return LieModule(lie, M.space, M.action, check=False)


DIRECT_MODULES = (
    [corpus.load(name) for name in corpus.MODULE_NAMES]
    + [heis_adjoint_with(*HEIS_VARIANTS[name]) for name in
       ("bracket-x<y", "bracket-symmetric", "bracket-extra")]
    + [matrix_unit_adjoint(family, n) for family, n in (
        ("gl", 2), ("gl", 3), ("b", 2), ("b", 3), ("n", 3), ("n", 4))])


DIRECT_COALGEBRAS = dict(
    {name: sweep_coalgebra(name) for name in SWEEP_COALGEBRAS},
    T4ab=build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 4))


@st.composite
def direct_cases(draw):
    """(tdm, F): a module (corpus, gl_n, b_n or n_n adjoint, a heis-adjoint
    variant, any of those with a symmetric part added to its bracket, or
    random unchecked tables), a sweep coalgebra or T4(ab), and a sparse
    random cochain of degree 0 to 3 on it."""
    kind = draw(st.sampled_from(["listed", "symmetric", "random"]))
    if kind == "random":
        M, f = draw(unchecked_module_cochain())
    else:
        M = draw(st.sampled_from(DIRECT_MODULES))
        L, B = M.base.space, M.space
        if kind == "symmetric":
            index = st.integers(0, L.dim - 1)
            M = symmetric_perturbed(M, draw(index), draw(index), draw(index),
                                    draw(st.sampled_from([1, -1, Fraction(1, 2)])))
        basis = alt_basis(L, B, draw(st.integers(0, min(3, L.dim))))
        values = draw(st.dictionaries(st.sampled_from(basis), st.integers(-2, 2),
                                      min_size=1, max_size=4))
        f = AltCochain(L, B, len(basis[0][0]), values)
    # mostly a coalgebra whose Delta^(n+1) lives, where the formula bites
    coalgebras = [DIRECT_COALGEBRAS[name] for name in sorted(DIRECT_COALGEBRAS)]
    if draw(st.integers(0, 3)):
        coalgebras = [C for C in coalgebras if C.iterated_terms(f.degree + 1)]
    C = draw(st.sampled_from(coalgebras))
    tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                            check=False)
    return tdm, TDCochain(f, C)


class TestDirectClosedFormAgainstUnshuffleMaps:
    """td_differential_direct, d f unless f reads the bracket's symmetric
    part, against the map route it replaced (tests/td_oracle.py
    unshuffle_td_differential_direct): the same inducing cochain, or the
    same error type and message."""

    @given(direct_cases())
    @settings(max_examples=400, deadline=None)
    def test_direct_sweep(self, case):
        tdm, F = case
        assert raised_or(lambda: td_differential_direct(F, tdm).inducing) \
            == raised_or(lambda: unshuffle_td_differential_direct(F, tdm).inducing)

    def test_reads_of_the_symmetric_part_cancel_by_position(self):
        # S(e2, e2) = 2 e0 + 2 e3, and f(e0, e1) = f(e1, e3) = 1: f(S, e1)
        # is f(e0, e1) - f(e1, e3) = 0, the two reads at positions 0 and 1
        # of their tuples, so psi is skew and names d f
        L, B = BasedSpace("L", "wxyz"), BasedSpace("B", "b")
        bracket = MultilinearMap([L, L], L, {((2, 2), 0): 1, ((2, 2), 3): 1})
        M = LieModule(LieAlgebra(L, bracket, check=False), B,
                      MultilinearMap([L, B], B, {}), check=False)
        C = corpus.get_coalgebra("tensor-ab-3")
        tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                                check=False)
        F = TDCochain(AltCochain(L, B, 2, {((0, 1), 0): 1, ((1, 3), 0): 1}), C)
        assert td_differential_direct(F, tdm).inducing \
            == unshuffle_td_differential_direct(F, tdm).inducing \
            == ce_differential(F.inducing, M)
        G = TDCochain(AltCochain(L, B, 2, {((0, 1), 0): 1, ((1, 3), 0): -1}), C)
        with pytest.raises(AxiomError, match="not induced at degree 3"):
            td_differential_direct(G, tdm)
        with pytest.raises(AxiomError, match="not induced at degree 3"):
            unshuffle_td_differential_direct(G, tdm)

    def test_sweep_reaches_both_outcomes(self):
        seen = set()

        @given(direct_cases())
        @settings(max_examples=200, deadline=None)
        def collect(case):
            tdm, F = case
            seen.add(type(raised_or(
                lambda: unshuffle_td_differential_direct(F, tdm))))

        collect()
        assert seen == {TDCochain, tuple}
