"""Coalgebra builders, coassociativity, iterated coproducts, symmetry classes,
and lives(n), whose oracle is the full n-fold expansion tested for truth.

The iterated-coproduct oracles are hand expansions of deconcatenation and
deshuffle splits, written down before the implementation ran.
"""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.checks import CheckResult, Witness
from tdhom.coalgebra import (
    COCOMMUTATIVE,
    NEITHER,
    SKEW_COCOMMUTATIVE,
    Coalgebra,
    build_exterior_square_coalgebra,
    build_symmetric_coalgebra,
    build_tensor_coalgebra,
    check_coassociativity,
    symmetry_class,
)
from tdhom.convolution import HomElement, twisted
from tdhom.errors import MalformedInput, TdhomError
from tdhom.linalg import ZERO, BasedSpace, all_permutations
from structures import (SMALL_SPACES, base_maps, cancelling_coalgebra, diagonal,
                        legs_table, rebased)

V2 = BasedSpace("V", ["a", "b"])
V1 = BasedSpace("V", ["x"])
VXY = BasedSpace("V", ["x", "y"])


def label_terms(C, n, word_label):
    """{(leg labels): q} for the n-fold expansion of the named basis vector."""
    i = C.space.index(word_label)
    out = {}
    for legs, q in C.iterated_terms(n).get(i, []):
        out[tuple(C.space.labels[x] for x in legs)] = q
    return out


class TestBuilders:
    def test_tensor_basis(self):
        C = build_tensor_coalgebra(V2, 3)
        assert C.dim == 2 + 4 + 8
        assert "aba" in C.space.labels

    def test_tensor_small(self):
        C = build_tensor_coalgebra(V1, 2)
        assert list(C.space.labels) == ["x", "xx"]
        assert C.splits(C.space.index("x")) == []
        i = C.space.index("xx")
        j = C.space.index("x")
        assert C.splits(i) == [(j, j, Fraction(1))]

    def test_tensor_maxdeg1_zero(self):
        C = build_tensor_coalgebra(V2, 1)
        assert C.coproduct == {}

    def test_tensor_aba_splits(self):
        C = build_tensor_coalgebra(V2, 3)
        assert label_terms(C, 2, "aba") == {
            ("a", "ba"): Fraction(1),
            ("ab", "a"): Fraction(1),
        }

    def test_counital_variant(self):
        C = build_tensor_coalgebra(V1, 2, include_empty_word=True)
        assert "1" in C.space.labels
        # full deconcatenation: x splits as 1|x + x|1
        assert label_terms(C, 2, "x") == {
            ("1", "x"): Fraction(1),
            ("x", "1"): Fraction(1),
        }

    def test_symmetric_square_coefficient(self):
        C = build_symmetric_coalgebra(V1, 2)
        assert label_terms(C, 2, "x·x") == {("x", "x"): Fraction(2)}

    def test_symmetric_mixed(self):
        C = build_symmetric_coalgebra(VXY, 2)
        assert label_terms(C, 2, "x·y") == {
            ("x", "y"): Fraction(1),
            ("y", "x"): Fraction(1),
        }

    def test_symmetric_maxdeg1_zero(self):
        C = build_symmetric_coalgebra(VXY, 1)
        assert C.coproduct == {}

    def test_exterior_wedge(self):
        C = build_exterior_square_coalgebra(V2)
        assert label_terms(C, 2, "a∧b") == {
            ("a", "b"): Fraction(1),
            ("b", "a"): Fraction(-1),
        }
        assert C.splits(C.space.index("a")) == []

    def test_exterior_needs_two(self):
        with pytest.raises(ValueError):
            build_exterior_square_coalgebra(V1)

    def test_bad_maxdeg(self):
        with pytest.raises(ValueError):
            build_tensor_coalgebra(V2, 0)
        with pytest.raises(ValueError):
            build_symmetric_coalgebra(V2, 0)

    def test_all_builders_coassociative(self):
        for C in [
            build_tensor_coalgebra(V2, 3),
            build_tensor_coalgebra(V1, 3),
            build_symmetric_coalgebra(VXY, 2),
            build_symmetric_coalgebra(V1, 3),
            build_exterior_square_coalgebra(V2),
            build_tensor_coalgebra(V2, 2, include_empty_word=True),
        ]:
            assert check_coassociativity(C).ok


class TestCoassociativity:
    def test_zero_coproduct_passes(self):
        C = Coalgebra(V2, [])
        assert check_coassociativity(C).ok

    def test_grouplike_comodule_is_coassociative(self):
        # c1 grouplike, c2 splitting as c1|c2: both triple routes give
        # c1|c1|c2, so this one passes (hand expansion)
        space = BasedSpace("C", ["c1", "c2"])
        C = Coalgebra(space, [(0, 0, 0, 1), (1, 0, 1, 1)])
        assert check_coassociativity(C).ok

    def test_inconsistent_split_fails(self):
        space = BasedSpace("C", ["c1", "c2"])
        # c2 splits as c1|c2 but c1 does not split at all: the left route
        # on c2 is zero while the right route gives c1|c1|c2
        bad = Coalgebra(space, [(1, 0, 1, 1)], check=False)
        result = check_coassociativity(bad)
        assert not result.ok
        assert result.witness.args == ("c2",)
        assert result.witness.residual == (("c1|c1|c2", Fraction(-1)),)

    def test_eager_check_on_construction(self):
        space = BasedSpace("C", ["c1", "c2"])
        with pytest.raises(TdhomError):
            Coalgebra(space, [(1, 0, 1, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(MalformedInput):
            Coalgebra(V2, [(0, 0, 5, 1)])


class TestIteratedCoproduct:
    def test_n1_identity(self):
        C = build_tensor_coalgebra(V2, 2)
        assert C.iterated_terms(1) == {i: [((i,), Fraction(1))]
                                       for i in range(C.dim)}

    def test_ab_single_split(self):
        C = build_tensor_coalgebra(V2, 2)
        assert label_terms(C, 2, "ab") == {("a", "b"): Fraction(1)}

    def test_abc_triple(self):
        W = BasedSpace("V", ["a", "b", "c"])
        C = build_tensor_coalgebra(W, 3)
        assert label_terms(C, 3, "abc") == {("a", "b", "c"): Fraction(1)}

    def test_bad_order(self):
        C = build_tensor_coalgebra(V2, 2)
        with pytest.raises(ValueError):
            C.iterated_terms(0)
        with pytest.raises(ValueError):
            C.lives(0)

    def test_association_orders_agree(self):
        # expand the last leg instead of the first; coassociativity says equal
        for C in [
            build_tensor_coalgebra(V2, 3),
            build_symmetric_coalgebra(VXY, 2),
            build_symmetric_coalgebra(V1, 3),
            build_exterior_square_coalgebra(V2),
        ]:
            for n in (2, 3, 4):
                left = C.iterated_terms(n)
                right = _iterate_rightmost(C, n)
                assert left == right, (C, n)

    def test_degenerate_truncation(self):
        # maxdeg-2 words cannot split three ways
        C = build_tensor_coalgebra(V2, 2)
        assert C.iterated_terms(3) == {}


def _iterate_rightmost(C, n):
    """Right-leg iteration, an independent association order."""
    from tdhom.linalg import ZERO

    terms = {i: [((i,), Fraction(1))] for i in range(C.dim)}
    for _ in range(n - 1):
        new = {}
        for c, entries in terms.items():
            acc = {}
            for legs, q in entries:
                for j, k, p in C.splits(legs[-1]):
                    key = legs[:-1] + (j, k)
                    val = acc.get(key, ZERO) + q * p
                    if val == 0:
                        acc.pop(key, None)
                    else:
                        acc[key] = val
            if acc:
                new[c] = sorted(acc.items())
        terms = new
    return terms


def scan_splits(C, i):
    """Oracle for Coalgebra.splits: a scan of the whole coproduct."""
    return sorted((j, k, q) for (si, j, k), q in C.coproduct.items() if si == i)


def scan_coassociativity(C):
    """Oracle for check_coassociativity: both legs of every entry expanded
    by scanning the whole coproduct for the leg's source."""
    diff = {}
    for (i, j, k), q in C.coproduct.items():
        for (sj, a, b), p in C.coproduct.items():
            if sj == j:
                key = (i, (a, b, k))
                diff[key] = diff.get(key, ZERO) + q * p
        for (sk, a, b), p in C.coproduct.items():
            if sk == k:
                key = (i, (j, a, b))
                diff[key] = diff.get(key, ZERO) - q * p
    bad = sorted((i, legs) for (i, legs), v in diff.items() if v != 0)
    if not bad:
        return CheckResult("coassociativity", True)
    first_i = bad[0][0]
    labels = C.space.labels
    residual = tuple(
        ("|".join(labels[x] for x in legs), diff[(i, legs)])
        for i, legs in bad if i == first_i)
    return CheckResult("coassociativity", False,
                       Witness((labels[first_i],), residual))


@st.composite
def random_coproducts(draw):
    """Triples over a small space, some repeated and some cancelled."""
    dim = draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    triples = draw(st.lists(st.tuples(index, index, index, st.integers(-2, 2)),
                            max_size=10))
    for i, j, k, q in draw(st.lists(st.sampled_from(triples), max_size=4)
                           if triples else st.just([])):
        triples.append((i, j, k, -q))
    return Coalgebra(BasedSpace("C", ["c%d" % n for n in range(dim)]),
                     triples, check=False)


class TestSourceIndex:
    @given(random_coproducts())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_scans(self, C):
        for i in range(C.dim):
            assert C.splits(i) == scan_splits(C, i)
        assert check_coassociativity(C) == scan_coassociativity(C)


class TestSymmetryClass:
    def test_symmetric_cocommutative(self):
        assert symmetry_class(build_symmetric_coalgebra(VXY, 2)) == COCOMMUTATIVE

    def test_exterior_skew(self):
        assert symmetry_class(build_exterior_square_coalgebra(V2)) == SKEW_COCOMMUTATIVE

    def test_deconcatenation_neither(self):
        assert symmetry_class(build_tensor_coalgebra(V2, 2)) == NEITHER

    def test_zero_cocommutative_by_convention(self):
        assert symmetry_class(Coalgebra(V2, [])) == COCOMMUTATIVE

    def test_single_letter_tensor_cocommutative(self):
        # words in one letter: splits are symmetric
        assert symmetry_class(build_tensor_coalgebra(V1, 3)) == COCOMMUTATIVE


# integral coalgebras that rebased by Fraction scales get a coproduct with a
# denominator > 1, which no corpus or benchmark coalgebra has
INTEGRAL = {"T3ab": build_tensor_coalgebra(V2, 3),
            "symmetric-xy-2": build_symmetric_coalgebra(VXY, 2)}
SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rebasings(draw):
    """(C, s, R): an integral coalgebra C, nonzero Fraction scales s, and C
    rebased by them, whose coproduct has a denominator > 1."""
    C = INTEGRAL[draw(st.sampled_from(sorted(INTEGRAL)))]
    s = [Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 4)))
         for _ in range(C.dim)]
    R = rebased(C, diagonal(s))
    assume(any(q.denominator > 1 for q in R.coproduct.values()))
    return C, s, R


class TestRebasedCoalgebra:
    """The int store over a denominator > 1 against Fraction computations:
    the rescaled integral coalgebra, the right-leg iteration, the full
    scans and the legs tables D_rho."""

    @given(rebasings())
    @settings(max_examples=40, deadline=None)
    def test_readers_and_witness(self, case):
        C, s, R = case
        # a coefficient at source c and legs picks up s_c / prod s_leg
        assert R.coproduct == {(i, j, k): q * s[i] / (s[j] * s[k])
                               for (i, j, k), q in C.coproduct.items()}
        for i in range(R.dim):
            assert R.splits(i) == scan_splits(R, i)
        for n in (1, 2, 3, 4):
            terms = R.iterated_terms(n)
            assert terms == _iterate_rightmost(R, n)
            assert terms == {
                c: [(legs, q * s[c] / math.prod(s[leg] for leg in legs))
                    for legs, q in expansion]
                for c, expansion in C.iterated_terms(n).items()}
        assert check_coassociativity(R).ok
        assert symmetry_class(R) == symmetry_class(C)
        # c0 -> c0 (x) c1 with c1 = b or y, which does not split: the left
        # route gives c0|c1|c1 (and more), the right route nothing
        broken = Coalgebra(R.space, [key + (q,) for key, q in R.coproduct.items()]
                           + [(0, 0, 1, Fraction(1, 3))], check=False)
        result = check_coassociativity(broken)
        assert not result.ok
        assert result == scan_coassociativity(broken)

    @given(rebasings(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_operators(self, case, data):
        C, _s, R = case
        n = data.draw(st.sampled_from((1, 2, 3)), label="arity")
        V, W = data.draw(st.sampled_from(SMALL_SPACES)), data.draw(
            st.sampled_from(SMALL_SPACES))
        phi = data.draw(base_maps([V] * n, W)).scale(
            Fraction(1, data.draw(st.integers(1, 3), label="phi den")))
        rho, other = data.draw(st.sampled_from(all_permutations(n))), data.draw(
            st.sampled_from(all_permutations(n)))
        expected = {}
        for (c, routed), q in legs_table(R, n, rho).items():
            for (tup, o), p in phi.entries.items():
                key = (o, c, tuple(zip(tup, routed)))
                expected[key] = expected.get(key, 0) + q * p
        expected = {key: v for key, v in expected.items() if v}
        op = twisted(phi, R, rho)
        assert op.materialize().entries == expected

        fs = [HomElement(R, V, data.draw(st.dictionaries(
            st.tuples(st.integers(0, V.dim - 1), st.integers(0, R.dim - 1)),
            SMALL_Q, max_size=6))) for _ in range(n)]
        applied = {}
        for (o, c, cols), v in expected.items():
            for f, (t, leg) in zip(fs, cols):
                v *= f.coefficient(t, leg)
            applied[(o, c)] = applied.get((o, c), 0) + v
        assert op.apply(fs).entries == {k: v for k, v in applied.items() if v}

        # being zero does not depend on the basis, for one operator, decided
        # in closed form, and for a difference of two, laid out; on
        # symmetric-xy-2 the twists' D_rho agree, so that is often zero
        assert (op.first_entry() is None) == op.materialize().is_zero() \
            == (twisted(phi, C, rho).first_entry() is None)
        diff = op.materialize().sub(twisted(phi, R, other).materialize())
        assert diff.is_zero() == twisted(phi, C, rho).materialize().sub(
            twisted(phi, C, other).materialize()).is_zero()


ORDERS = range(1, 7)
VABC = BasedSpace("V", ["a", "b", "c"])
LIVES_CASES = {
    **{name: partial(corpus.get_coalgebra, name) for name in corpus.coalgebra_names()},
    **{"T%d(ab)" % d: partial(build_tensor_coalgebra, V2, d) for d in range(1, 6)},
    **{"T%d(ab) counital" % d: partial(build_tensor_coalgebra, V2, d, True)
       for d in range(1, 6)},
    **{"S%d(xy)" % d: partial(build_symmetric_coalgebra, VXY, d) for d in range(1, 6)},
    "Ext(ab)": partial(build_exterior_square_coalgebra, V2),
    "Ext(abc)": partial(build_exterior_square_coalgebra, VABC),
    "cancelling": cancelling_coalgebra,
}


def fresh(C):
    """A new coalgebra with C's space and coproduct and nothing expanded."""
    return Coalgebra(C.space, C.coproduct, check=False)


def assert_lives_is_the_full_expansion(C):
    """lives(n) == bool(iterated_terms(n)) for n = 1..6, asked in rising
    and in falling order, and every expansion read after lives is the one
    a fresh coalgebra gives."""
    oracle = fresh(C)
    expansions = [oracle.iterated_terms(n) for n in ORDERS]
    rising, falling = fresh(C), fresh(C)
    assert [rising.lives(n) for n in ORDERS] == [bool(e) for e in expansions]
    assert [falling.lives(n) for n in reversed(ORDERS)] == [
        bool(e) for e in reversed(expansions)]
    for D in (rising, falling):
        assert [D.iterated_terms(n) for n in ORDERS] == expansions


class TestLives:
    """lives(n) decides whether Delta^(n) is nonzero source by source."""

    @pytest.mark.parametrize("name", sorted(LIVES_CASES))
    def test_builders_and_corpus(self, name):
        assert_lives_is_the_full_expansion(LIVES_CASES[name]())

    def test_cancelling_source(self):
        C = cancelling_coalgebra()
        assert C.lives(2) and not C.lives(3)

    @given(rebasings())
    @settings(max_examples=30, deadline=None)
    def test_rebased(self, case):
        _C, _s, R = case
        assert_lives_is_the_full_expansion(R)

    @given(random_coproducts())
    @settings(max_examples=100, deadline=None)
    def test_unchecked_coproducts(self, C):
        assert_lives_is_the_full_expansion(C)

    def test_stops_at_the_first_live_source(self):
        C = build_tensor_coalgebra(V2, 4)
        assert C.lives(3)
        grown = [c for c, chain in enumerate(C._chains) if len(chain) > 1]
        # the six words of length <= 2 have no Delta^(3); "aaa" is the first
        # source that does, and no later source is expanded
        assert grown == list(range(7)) and C.space.labels[6] == "aaa"
        assert len(grown) < C.dim == 30
