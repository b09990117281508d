"""Sparse multilinear maps: composition, argument rearrangement, skewness."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom.errors import MalformedInput, ShapeError
from tdhom.linalg import BasedSpace, Permutation, all_permutations
from tdhom.maps import MultilinearMap, first_difference, is_skew, map_identity_check

L = BasedSpace("L", ("e", "f", "h"))


def entries_strategy(arity, dim=3):
    idx = st.tuples(*[st.integers(0, dim - 1)] * arity)
    q = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.tuples(idx, st.integers(0, dim - 1)), q,
                           max_size=8)


def random_map(entries, arity):
    return MultilinearMap((L,) * arity, L, entries)


class TestBasics:
    def test_rejects_bad_index(self):
        with pytest.raises(MalformedInput):
            MultilinearMap((L,), L, {((5,), 0): Fraction(1)})
        with pytest.raises(ShapeError):
            MultilinearMap((L,), L, {((0, 0), 0): Fraction(1)})

    def test_zero_and_arith(self):
        z = MultilinearMap.zero((L, L), L)
        assert z.is_zero()
        m = random_map({((0, 1), 2): Fraction(2)}, 2)
        assert m.add(z) == m
        assert m.sub(m).is_zero()
        assert m.scale(Fraction(1, 2)).entries == {((0, 1), 2): Fraction(1)}
        assert m.scale(0).is_zero()

    def test_apply_basis(self):
        m = random_map({((0, 1), 2): Fraction(2), ((0, 1), 0): Fraction(-1)}, 2)
        assert m.apply_basis((0, 1)) == {2: Fraction(2), 0: Fraction(-1)}
        assert m.apply_basis((1, 0)) == {}
        assert m.coefficient((0, 1), 2) == 2
        assert m.coefficient((1, 1), 2) == 0


class TestIndexes:
    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), entries_strategy(n))))
    @settings(max_examples=50)
    def test_indexes_regroup_the_stored_entries(self, drawn):
        arity, entries = drawn
        m = random_map(entries, arity)
        for tup in product(range(L.dim), repeat=arity):
            scan = {o: q for (k, o), q in m.entries.items() if k == tup}
            assert m.apply_basis(tup) == scan
        regrouped = {(tup, o): q for o, group in m.by_output().items()
                     for tup, q in group.items()}
        assert regrouped == m.entries
        assert all(m.by_output().values())

    def test_apply_basis_returns_a_copy(self):
        m = random_map({((0, 1), 2): Fraction(2)}, 2)
        m.apply_basis((0, 1))[2] = Fraction(5)
        assert m.apply_basis((0, 1)) == {2: Fraction(2)}


class TestComposeAt:
    def test_hand_oracle(self):
        # outer(x, y) = e whenever (x, y) = (e, f); inner(h) = f
        outer = random_map({((0, 1), 0): Fraction(1)}, 2)
        inner = MultilinearMap((L,), L, {((2,), 1): Fraction(1)})
        # plug inner into slot 1: (x, z) -> outer(x, inner(z))
        m = outer.compose_at(inner, 1)
        assert m.entries == {((0, 2), 0): Fraction(1)}
        # slot 0 needs an inner map that can hit e
        inner_e = MultilinearMap((L,), L, {((2,), 0): Fraction(1)})
        m0 = outer.compose_at(inner_e, 0)
        assert m0.entries == {((2, 1), 0): Fraction(1)}
        # and the f-valued inner cannot feed slot 0 of this outer at all
        assert outer.compose_at(inner, 0).is_zero()

    def test_slot_out_of_range(self):
        outer = random_map({((0, 1), 0): Fraction(1)}, 2)
        with pytest.raises(ShapeError):
            outer.compose_at(outer, 2)

    @given(entries_strategy(2), entries_strategy(1))
    @settings(max_examples=30)
    def test_bilinear_in_inner(self, oe, ie):
        outer = random_map(oe, 2)
        inner = MultilinearMap((L,), L, ie)
        doubled = outer.compose_at(inner.scale(2), 0)
        assert doubled == outer.compose_at(inner, 0).scale(2)


class TestPrecompose:
    @given(entries_strategy(3), st.sampled_from(all_permutations(3)),
           st.sampled_from(all_permutations(3)))
    @settings(max_examples=40)
    def test_composition_law(self, e, s, r):
        m = random_map(e, 3)
        assert m.precompose_perm(s).precompose_perm(r) \
            == m.precompose_perm(s.then(r))

    @given(entries_strategy(2))
    @settings(max_examples=30)
    def test_identity(self, e):
        m = random_map(e, 2)
        assert m.precompose_perm(Permutation.identity(2)) == m

    def test_value_oracle(self):
        # m(x, y) nonzero only at (e, f); m . swap must fire at (f, e)
        m = random_map({((0, 1), 2): Fraction(1)}, 2)
        swapped = m.precompose_perm(Permutation((1, 0)))
        assert swapped.entries == {((1, 0), 2): Fraction(1)}


class TestSkew:
    def test_skew_detects(self):
        skew = random_map({((0, 1), 2): Fraction(1), ((1, 0), 2): Fraction(-1)}, 2)
        sym = random_map({((0, 1), 2): Fraction(1), ((1, 0), 2): Fraction(1)}, 2)
        assert is_skew(skew)
        assert not is_skew(sym)
        assert not is_skew(random_map({((0, 0), 2): Fraction(1)}, 2))

    def test_first_difference_orders(self):
        a = random_map({((0, 0), 0): Fraction(1), ((1, 1), 1): Fraction(1)}, 2)
        b = random_map({((1, 1), 1): Fraction(2)}, 2)
        tup, residual = first_difference(a, b)
        assert tup == (0, 0)
        assert residual == ((0, Fraction(1)),)
        assert first_difference(a, a) is None

    def test_identity_check_witness_labels(self):
        a = random_map({((0, 1), 2): Fraction(1)}, 2)
        result = map_identity_check("probe", a, MultilinearMap.zero((L, L), L))
        assert not result.ok
        assert result.witness.args == ("e", "f")
        assert result.witness.residual == (("h", Fraction(1)),)
