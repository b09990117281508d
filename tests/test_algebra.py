"""Classical structure checkers against the shipped examples.

Failure expectations were worked out by hand first: the scaled sl2 constant
leaves the cyclic sum at -h on (e, f, h), and the non-negated bracket shows
up at (e, f).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.algebra import (
    JACOBI_CYCLE,
    PRODUCT_CYCLE,
    SWAP,
    AssociativeAlgebra,
    LieAlgebra,
    LieModule,
    PoissonAlgebra,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
    check_poisson,
    jacobi_check,
    leibniz_check,
    skew_symmetry_check,
)
from tdhom.errors import AxiomError
from tdhom.files import parse_structure
from tdhom.linalg import BasedSpace
from tdhom.maps import MultilinearMap

L3 = BasedSpace("L", ("e", "f", "h"))


def bilinear(entries, space=L3):
    return MultilinearMap((space, space), space,
                          {(t, o): Fraction(q) for t, o, q in entries})


class TestLie:
    @pytest.mark.parametrize("name", corpus.LIE_NAMES)
    def test_corpus_passes(self, name):
        assert check_lie(corpus.load(name)).ok

    def test_broken_skew_witness(self):
        bad = corpus.load("broken-skew", unsafe_skip_axioms=True)
        result = check_lie(bad)
        assert not result.ok
        assert result.detail == "skew-symmetry"
        assert result.witness.args == ("e", "f")

    def test_broken_jacobi_witness(self):
        bad = corpus.load("broken-jacobi", unsafe_skip_axioms=True)
        result = check_lie(bad)
        assert not result.ok
        assert result.detail == "jacobi"
        assert result.witness.args == ("e", "f", "h")
        assert result.witness.residual == (("h", Fraction(-1)),)

    def test_constructor_rejects_broken(self):
        bad = corpus.load("broken-skew", unsafe_skip_axioms=True)
        with pytest.raises(AxiomError):
            LieAlgebra(bad.space, bad.bracket)

    def test_scaling_preserves_jacobi(self):
        b = corpus.load("sl2").bracket
        assert jacobi_check(b.scale(Fraction(7, 3))).ok

    @given(st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.integers(0, 2), st.integers(-3, 3)),
        max_size=8))
    @settings(max_examples=50)
    def test_antisymmetrization_is_skew(self, entries):
        m = bilinear(entries)
        assert skew_symmetry_check(m.sub(m.precompose_perm(SWAP))).ok


class TestModule:
    @pytest.mark.parametrize("name", corpus.MODULE_NAMES)
    def test_corpus_passes(self, name):
        assert check_module(corpus.load(name)).ok

    def test_adjoint_action_is_bracket(self):
        M = corpus.load("sl2-adjoint")
        assert M.action.entries == M.base.bracket.entries

    def test_perturbed_action_fails(self):
        M = corpus.load("sl2-adjoint")
        bad = M.action.add(MultilinearMap(
            M.action.domain, M.space, {((0, 0), 1): Fraction(1)}))
        broken = LieModule(M.base, M.space, bad, check=False)
        result = check_module(broken)
        assert not result.ok
        assert result.witness is not None

    def test_constructor_checks(self):
        M = corpus.load("sl2-adjoint")
        bad = M.action.scale(2)
        with pytest.raises(AxiomError):
            LieModule(M.base, M.space, bad)


class TestAssociative:
    def test_poisson3_product(self):
        P = corpus.load("poisson3")
        A = AssociativeAlgebra(P.space, P.product)
        assert check_associative(A.product).ok
        assert check_commutative(A.product).ok

    def test_nonassociative_fails(self):
        S = BasedSpace("A", ("1", "g"))
        # g*g = 1 but 1 is not a unit on the left: (g*g)*g != g*(g*g)
        m = MultilinearMap((S, S), S, {((1, 1), 0): Fraction(1),
                                       ((0, 1), 1): Fraction(1)})
        result = check_associative(m)
        assert not result.ok

    def test_noncommutative_fails(self):
        S = BasedSpace("A", ("1", "g"))
        m = MultilinearMap((S, S), S, {((0, 1), 1): Fraction(1)})
        assert not check_commutative(m).ok


class TestPoisson:
    def test_corpus_passes(self):
        assert check_poisson(corpus.load("poisson3")).ok

    def test_leibniz_sensitive_to_product(self):
        P = corpus.load("poisson3")
        # drop unit*y = y: the bracket no longer differentiates products
        bad = P.product.sub(MultilinearMap(
            P.product.domain, P.space, {((0, 2), 2): Fraction(1)}))
        result = leibniz_check(P.bracket, bad)
        assert not result.ok

    def test_constructor_checks(self):
        P = corpus.load("poisson3")
        with pytest.raises(AxiomError):
            PoissonAlgebra(P.space, P.bracket.scale(0).add(
                MultilinearMap(P.bracket.domain, P.space,
                               {((0, 0), 1): Fraction(1)})), P.product)

    def test_trivial_bracket_always_poisson(self):
        P = corpus.load("poisson3")
        zero = MultilinearMap(P.bracket.domain, P.space, {})
        assert check_poisson(
            PoissonAlgebra(P.space, zero, P.product, check=False)).ok


class TestConventionConstants:
    def test_cycles_are_inverse(self):
        assert JACOBI_CYCLE.then(PRODUCT_CYCLE).images == (0, 1, 2)

    def test_swap(self):
        assert SWAP.images == (1, 0)


class TestLoader:
    def test_loads_text(self):
        obj = parse_structure(corpus.fixture_text("sl2"))
        assert isinstance(obj, LieAlgebra)
        assert check_lie(obj).ok

    def test_raises_on_axiom_failure(self):
        with pytest.raises(AxiomError):
            parse_structure(corpus.fixture_text("broken-jacobi"))

    def test_skip_flag(self):
        obj = parse_structure(corpus.fixture_text("broken-jacobi"),
                              unsafe_skip_axioms=True)
        assert not check_lie(obj).ok
