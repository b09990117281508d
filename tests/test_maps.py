"""Sparse multilinear maps: composition, argument rearrangement, and the
oracles' map-level skewness and first-difference helpers."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.algebra import check_lie, check_module
from tdhom.errors import MalformedInput, ScalarError, ShapeError
from tdhom.linalg import BasedSpace, Permutation, all_permutations
from tdhom.maps import MultilinearMap
from lr_oracle import first_difference, map_identity_check
from td_oracle import is_skew
from structures import adjoint_module, matrix_unit_lie, rebased

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
        for key in (((0.5,), 0), ((True,), 0), ((0,), 1.0), ((0,), False),
                    ((-1,), 0), (("0",), 0)):
            with pytest.raises(MalformedInput):
                MultilinearMap((L,), L, {key: Fraction(1)})

    def test_rejects_inexact_scalars(self):
        for q in (0.1, 1.0, None, "x", complex(1, 0)):
            with pytest.raises(ScalarError):
                MultilinearMap((L,), L, {((0,), 1): q})

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
        regrouped = {(tup, o): q for tup, group in m.by_input().items()
                     for o, q in group.items()}
        assert regrouped == m.entries
        assert all(m.by_input().values())

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


M = BasedSpace("M", ("u", "v"))

# few distinct values, so that sums and compositions cancel often
VALUES = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1), Fraction(2),
                          Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])


@st.composite
def maps_on(draw, domain, codomain):
    idx = st.tuples(*[st.integers(0, s.dim - 1) for s in domain])
    key = st.tuples(idx, st.integers(0, codomain.dim - 1))
    entries = draw(st.dictionaries(key, VALUES, max_size=10))
    return MultilinearMap(domain, codomain, entries)


def assert_checked_form(r):
    """r is what the checked constructor makes of its own table."""
    checked = MultilinearMap(r.domain, r.codomain, r.entries)
    assert checked.domain == r.domain and checked.codomain is r.codomain
    assert checked.entries == r.entries
    assert all(r.entries.values())
    assert all(type(q) is Fraction for q in r.entries.values())


def fraction_compose_at(outer, inner, slot):
    """compose_at's table summed in Fractions, as before it ran in ints."""
    table = {}
    for (tup, out), q in outer.entries.items():
        for (itup, o), p in inner.entries.items():
            if o == tup[slot]:
                key = (tup[:slot] + itup + tup[slot + 1:], out)
                table[key] = table.get(key, Fraction(0)) + q * p
    return {key: q for key, q in table.items() if q}


def sub_then_scan(f, g):
    """first_difference as it was: subtract, then scan the difference."""
    diff = f.sub(g)
    if diff.is_zero():
        return None
    first = min(tup for (tup, _out) in diff.entries)
    return first, tuple(sorted((out, q) for (tup, out), q in diff.entries.items()
                               if tup == first))


class TestTrustedResults:
    """Arithmetic builds its results without the constructor's checks; each
    result must be exactly what the checked constructor would build."""

    @given(maps_on((L, M), L), maps_on((M,), M), maps_on((L, L), M), st.data())
    @settings(max_examples=80)
    def test_compose_at(self, outer, inner, inner2, data):
        for slot, feed in ((1, inner), (1, inner2)):
            r = outer.compose_at(feed, slot)
            assert_checked_form(r)
            assert r.entries == fraction_compose_at(outer, feed, slot)
        square = data.draw(maps_on((L, L), L))
        slot = data.draw(st.integers(0, 1))
        r = square.compose_at(square, slot)
        assert_checked_form(r)
        assert r.entries == fraction_compose_at(square, square, slot)

    @given(maps_on((L, M, L), L), st.sampled_from(all_permutations(3)))
    @settings(max_examples=50)
    def test_precompose_perm(self, m, p):
        assert_checked_form(m.precompose_perm(p))

    @given(maps_on((L, M), L), maps_on((L, M), L),
           st.sampled_from([0, 1, -1, 3, Fraction(-2, 3), "3/4"]))
    @settings(max_examples=80)
    def test_add_sub_scale(self, f, g, q):
        for r in (f.add(g), f.sub(g), f.scale(q), f.sub(f), f.add(f.scale(-1))):
            assert_checked_form(r)

    def test_checked_constructor_stores_fractions(self):
        m = MultilinearMap((L,), L, {((0,), 1): 2, ((1,), 1): "1/3", ((2,), 0): 0})
        assert m.entries == {((0,), 1): Fraction(2), ((1,), 1): Fraction(1, 3)}
        assert all(type(q) is Fraction for q in m.entries.values())


class TestSignedSum:
    def test_int_constant_checks_make_no_fraction(self, monkeypatch):
        # gl3 acting on itself: its compositions and defects stay ints
        M = adjoint_module(matrix_unit_lie("gl", 3, check=False), check=False)

        def refused(*args, **kwargs):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(Fraction, "__new__", refused)
        lie, module = check_lie(M.base), check_module(M)
        monkeypatch.undo()
        assert lie and module


class TestFirstDifference:
    @given(maps_on((L, M), L), maps_on((L, M), L))
    @settings(max_examples=80)
    def test_unequal_pairs_match_sub_then_scan(self, f, g):
        assert first_difference(f, g) == sub_then_scan(f, g)
        assert first_difference(g, f) == sub_then_scan(g, f)

    @given(maps_on((L, M), L), maps_on((L, M), L))
    @settings(max_examples=50)
    def test_equal_pairs_built_differently(self, f, g):
        # the same map reached through another table, and a rebuilt copy
        for same in (f.add(g).sub(g), f.scale(-1).scale(-1),
                     MultilinearMap(f.domain, f.codomain, dict(f.entries))):
            assert first_difference(f, same) is None
            assert sub_then_scan(f, same) is None

    def test_incompatible_maps_still_refused(self):
        f = random_map({((0, 1), 2): Fraction(1)}, 2)
        with pytest.raises(ShapeError):
            first_difference(f, MultilinearMap.zero((L, M), L))
        with pytest.raises(ShapeError):
            first_difference(f, MultilinearMap.zero((L, L), M))


class TestRebased:
    """The tests' one change of basis (tests/structures.py)."""

    def test_inverse_basis_restores_the_map(self):
        # f_0 = e_0, f_1 = 2 e_0 + e_1, f_2 = e_2, and back
        sl2 = corpus.load("sl2")
        P = [[1, 2, 0], [0, 1, 0], [0, 0, 1]]
        there = rebased(sl2.bracket, P, sl2.space)
        assert there != sl2.bracket
        assert rebased(sl2, P).bracket == there
        back = [[1, -2, 0], [0, 1, 0], [0, 0, 1]]
        assert rebased(there, back, sl2.space) == sl2.bracket

    def test_singular_basis_is_refused(self):
        sl2 = corpus.load("sl2")
        with pytest.raises(ValueError, match="singular"):
            rebased(sl2.bracket, [[1, 1, 0], [1, 1, 0], [0, 0, 1]], sl2.space)
