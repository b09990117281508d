"""The shared sparse arithmetic and the rule that no stored table holds a zero.

Every sparse class accumulates sums plainly and relies on its constructor to
drop the entries that cancelled.  These tests fail if that pruning is lost:
cancellations are built in on purpose, and every stored value is inspected.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.cohomology import AltCochain, alt_basis
from tdhom.coalgebra import (
    NEITHER,
    Coalgebra,
    build_tensor_coalgebra,
    check_coassociativity,
    symmetry_class,
)
from tdhom.convolution import HomElement, MaterializedOperator, induced
from tdhom.linalg import BasedSpace
from tdhom.maps import MultilinearMap
from tdhom.td_structures import (
    TDLieStructure,
    TDModuleStructure,
    check_td_lie,
    check_td_module,
)
from structures import cancelling_coalgebra

V5 = BasedSpace("C", ["c0", "c1", "c2", "c3", "c4"])
W1 = BasedSpace("W", ["w"])
U2 = BasedSpace("U", ["u", "v"])


class TestPruningAtTheEnd:
    def test_coalgebra_constructor_drops_cancelled_triples(self):
        C = Coalgebra(V5, [(0, 1, 1, 1), (0, 1, 1, -1)], check=False)
        assert C.coproduct == {}

    def test_coalgebra_constructor_keeps_partial_sums(self):
        C = Coalgebra(V5, [(0, 1, 1, 1), (0, 1, 1, Fraction(1, 2))], check=False)
        assert C.coproduct == {(0, 1, 1): Fraction(3, 2)}

    def test_iterated_terms_omits_a_source_whose_expansion_cancels(self):
        C = cancelling_coalgebra()
        assert C.iterated_terms(2)[0] == [((1, 3), 1), ((2, 3), -1)]
        assert 0 not in C.iterated_terms(3)
        for expansion in C.iterated_terms(3).values():
            assert all(q != 0 for _legs, q in expansion)

    def test_arity_three_map_over_cancelling_coalgebra_materializes_to_zero(self):
        C = cancelling_coalgebra()
        phi = MultilinearMap([W1] * 3, W1, {((0, 0, 0), 0): 1})
        op = induced(phi, C).materialize()
        assert op.is_zero()
        assert op.entries == {}

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_induced_skew_bracket_squares_to_stored_zero(self, data):
        """Over a cocommutative coalgebra the induced sl2 bracket is skew, so
        [f, f] cancels term by term inside apply and must store nothing."""
        L = corpus.load("sl2").space
        C = corpus.get_coalgebra("symmetric-xy-2")
        entries = data.draw(st.dictionaries(
            st.tuples(st.integers(0, L.dim - 1), st.integers(0, C.dim - 1)),
            st.integers(-3, 3), max_size=6))
        f = HomElement(C, L, entries)
        square = induced(corpus.load("sl2").bracket, C).apply([f, f])
        assert square.entries == {}


Q = st.fractions(min_value=-2, max_value=2, max_denominator=3)
C_T2 = corpus.get_coalgebra("tensor-ab-2")


def map_tables():
    keys = st.tuples(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                     st.integers(0, 1))
    return st.dictionaries(keys, Q, max_size=8)


def hom_tables():
    keys = st.tuples(st.integers(0, U2.dim - 1), st.integers(0, C_T2.dim - 1))
    return st.dictionaries(keys, Q, max_size=8)


def operator_tables():
    cols = st.tuples(*[st.tuples(st.integers(0, 1), st.integers(0, C_T2.dim - 1))] * 2)
    keys = st.tuples(st.integers(0, 1), st.integers(0, C_T2.dim - 1), cols)
    return st.dictionaries(keys, Q, max_size=8)


def cochain_tables():
    return st.dictionaries(st.sampled_from(alt_basis(V5, U2, 2)), Q, max_size=8)


BUILDERS = {
    "MultilinearMap": (map_tables, lambda t: MultilinearMap([U2, U2], U2, t)),
    "HomElement": (hom_tables, lambda t: HomElement(C_T2, U2, t)),
    "MaterializedOperator": (
        operator_tables,
        lambda t: MaterializedOperator(2, C_T2, (U2, U2), U2, t)),
    "AltCochain": (cochain_tables, lambda t: AltCochain(V5, U2, 2, t)),
}


def stored_values(x):
    return list(getattr(x, x.TABLE).values())


def fraction_sum(s, t):
    """The oracle for add: two Fraction dicts summed key by key, zeros
    dropped."""
    out = dict(s)
    for k, v in t.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def assert_canonical(x):
    """The one store: nonzero ints over a positive denominator that shares
    no factor with all of them, and a Fraction view that agrees."""
    assert x._denominator > 0
    assert gcd(x._denominator, *x._ints.values()) == 1
    assert all(type(v) is int and v != 0 for v in x._ints.values())
    assert getattr(x, x.TABLE) == {k: Fraction(v, x._denominator)
                                   for k, v in x._ints.items()}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_arithmetic_laws(kind, data):
    tables, build = BUILDERS[kind]
    ta, tb = data.draw(tables()), data.draw(tables())
    a, b = build(ta), build(tb)
    q = data.draw(Q)
    assert a.add(b).sub(b) == a
    assert a.sub(a).is_zero()
    assert a.scale(0).is_zero()
    assert a.add(b) == b.add(a)
    fa, fb = fraction_sum(ta, {}), fraction_sum(tb, {})
    assert dict(getattr(a.add(b), a.TABLE)) == fraction_sum(fa, fb)
    assert dict(getattr(a.scale(q), a.TABLE)) == fraction_sum(
        {k: q * v for k, v in fa.items()}, {})
    for x in (a, b, a.add(b), a.sub(b), a.scale(q), a.add(a.scale(-1)),
              a.scale(0)):
        assert all(v != 0 for v in stored_values(x))
        assert_canonical(x)



def test_integral_coalgebra_and_twisted_checks_build_no_fraction(monkeypatch):
    # an integral coproduct stays ints from the builder through its
    # expansions to the twisted identities decided over it; only the
    # fixture's parsed coefficients, read before counting, are Fractions
    heis = corpus.load("heis-adjoint")
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    C = build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 4)
    assert check_coassociativity(C).ok
    assert [len(C.iterated_terms(n)) for n in (1, 2, 3, 4)] == [30, 28, 24, 16]
    assert symmetry_class(C) == NEITHER
    td = TDLieStructure(heis.base, C, check=False)
    assert check_td_lie(heis.base, C).ok
    assert check_td_module(TDModuleStructure(td, heis, check=False)).ok
    monkeypatch.undo()
    assert made == []
