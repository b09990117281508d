"""Twisted Lie, collapse, Jordan, Poisson, and module checkers.

The negative oracle was computed by hand before wiring the test: with the
e-to-3e perturbation of sl2 the classical cyclic sum on (e, f, h) leaves
residual -h, and on maps the same residual surfaces at the matrix-unit
triple (E[e,x], E[f,x], E[h,x]) over the word xxx, the shortest word whose
triple coproduct survives.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.algebra import JACOBI_CYCLE, SWAP, LieAlgebra, PoissonAlgebra
from tdhom.convolution import check_td_skew, operator_identity_check
from tdhom.errors import AxiomError, ShapeError
from tdhom.linalg import BasedSpace
from tdhom.maps import MultilinearMap
from tdhom.td_structures import (
    TDLieStructure,
    TDModuleStructure,
    check_cocommutative_collapse,
    check_jordan,
    check_td_lie,
    check_td_module,
    check_td_poisson,
    self_module,
    _td_jacobi_sum,
)


@pytest.fixture(scope="module")
def sl2():
    return corpus.load("sl2")


@pytest.fixture(scope="module")
def broken():
    return corpus.load("broken-jacobi", unsafe_skip_axioms=True)


class TestTDLie:
    @pytest.mark.parametrize("lname,cname", corpus.td_check_pairs())
    def test_corpus_pairs_pass(self, lname, cname):
        r = check_td_lie(corpus.load(lname), corpus.get_coalgebra(cname))
        assert r.ok, r.describe()

    def test_dim14_words(self, sl2):
        # words up to length three, so the cyclic identity is not vacuous
        r = check_td_lie(sl2, corpus.get_coalgebra("tensor-ab-3"))
        assert r.ok

    def test_broken_bracket_precondition(self, broken):
        with pytest.raises(AxiomError) as exc:
            check_td_lie(broken, corpus.get_coalgebra("tensor-x-3"))
        assert exc.value.result.detail == "jacobi"

    def test_broken_bracket_cyclic_witness(self, broken):
        # bypass the classical precondition to reach the twisted identity
        total = _td_jacobi_sum(broken.bracket, corpus.get_coalgebra("tensor-x-3"))
        r = operator_identity_check("td-jacobi", total, total.scale(0))
        assert not r.ok
        assert r.witness.args == ("E[e,x]", "E[f,x]", "E[h,x]", "xxx")
        assert r.witness.residual == (("h", Fraction(-1)),)

    def test_broken_bracket_still_skew(self, broken):
        # the perturbation keeps both orientations, so the swap identity holds
        r = check_td_skew(broken.bracket, corpus.get_coalgebra("tensor-x-3"))
        assert r.ok

    def test_cyclic_vacuous_below_three_letters(self, broken):
        # no word of length three, no triple coproduct, nothing to check
        total = _td_jacobi_sum(broken.bracket, corpus.get_coalgebra("tensor-ab-2"))
        assert total.is_zero()

    def test_structure_eager_check(self, sl2, broken):
        C = corpus.get_coalgebra("tensor-ab-2")
        s = TDLieStructure(sl2, C)
        assert s.lie is sl2 and s.coalgebra is C
        with pytest.raises(AxiomError):
            TDLieStructure(broken, corpus.get_coalgebra("tensor-x-3"))

    @given(st.lists(st.integers(min_value=-3, max_value=3),
                    min_size=8, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_any_skew_map_satisfies_swap_identity(self, flat):
        # the swap identity needs only skewness, not the cyclic identity
        V = BasedSpace("V", ("u", "v"))
        raw = MultilinearMap(
            [V, V], V,
            {((i, j), k): flat[4 * i + 2 * j + k]
             for i in range(2) for j in range(2) for k in range(2)})
        skew = raw.sub(raw.precompose_perm(SWAP))
        r = check_td_skew(skew, corpus.get_coalgebra("tensor-ab-2"))
        assert r.ok


class TestCollapse:
    @pytest.mark.parametrize("cname", ["symmetric-xy-2", "tensor-x-3", "zero-ab"])
    def test_cocommutative_pass(self, sl2, cname):
        r = check_cocommutative_collapse(sl2, corpus.get_coalgebra(cname))
        assert r.ok

    def test_wrong_symmetry_class(self, sl2):
        with pytest.raises(AxiomError, match="cocommutative"):
            check_cocommutative_collapse(sl2, corpus.get_coalgebra("tensor-ab-2"))

    def test_twists_invisible_term_by_term(self, sl2):
        # over a cocommutative coalgebra each twisted summand equals the
        # plain rearranged one, so the two cyclic sums agree termwise
        from tdhom.convolution import induced, twisted_term
        C = corpus.get_coalgebra("tensor-x-3")
        nested = sl2.bracket.compose_at(sl2.bracket, 1)
        plain = induced(nested, C).materialize()
        rot = JACOBI_CYCLE
        for _ in range(2):
            assert twisted_term(nested, C, rot) == plain.argument_permute(rot)
            rot = rot.then(JACOBI_CYCLE)


class TestJordan:
    def test_exterior_square(self, sl2):
        r = check_jordan(sl2, corpus.get_coalgebra("exterior-ab"))
        assert r.ok, r.describe()
        # jordan-symmetry decides fg = gf; test_product_symmetric_on_elements
        # keeps the check on matrix-unit pairs
        assert r.detail == "4 checks"

    def test_zero_coproduct_trivial(self):
        heis = corpus.load("heisenberg")
        r = check_jordan(heis, corpus.get_coalgebra("zero-ab"))
        assert r.ok

    def test_wrong_symmetry_class(self, sl2):
        with pytest.raises(AxiomError, match="skew-cocommutative"):
            check_jordan(sl2, corpus.get_coalgebra("symmetric-xy-2"))
        with pytest.raises(AxiomError, match="skew-cocommutative"):
            check_jordan(sl2, corpus.get_coalgebra("tensor-ab-2"))

    def test_product_symmetric_on_elements(self, sl2):
        # fg = gf without any sign: the exterior square flips orientation
        from tdhom.convolution import induced, matrix_units
        C = corpus.get_coalgebra("exterior-ab")
        op = induced(sl2.bracket, C)
        units = matrix_units(C, sl2.space)
        assert any(not op.apply([f, g]).is_zero()
                   for f in units for g in units)
        for f in units:
            for g in units:
                assert op.apply([f, g]) == op.apply([g, f])


class TestTDPoisson:
    @pytest.mark.parametrize("cname", ["tensor-ab-2", "tensor-x-3", "exterior-ab"])
    def test_truncated_polynomials(self, cname):
        P = corpus.load("poisson3")
        r = check_td_poisson(P, corpus.get_coalgebra(cname))
        assert r.ok, r.describe()

    def test_zero_bracket_dual_numbers(self):
        B = BasedSpace("D", ("1", "x"))
        one, x = 0, 1
        product = MultilinearMap([B, B], B, {
            ((one, one), one): 1,
            ((one, x), x): 1,
            ((x, one), x): 1,
        })
        bracket = MultilinearMap.zero([B, B], B)
        P = PoissonAlgebra(B, bracket, product)
        for cname in ("tensor-ab-2", "symmetric-xy-2", "zero-ab"):
            assert check_td_poisson(P, corpus.get_coalgebra(cname)).ok

    def test_noncommutative_product_rejected(self):
        B = BasedSpace("N", ("1", "x"))
        product = MultilinearMap([B, B], B, {((0, 0), 0): 1, ((0, 1), 1): 1})
        bracket = MultilinearMap.zero([B, B], B)
        P = PoissonAlgebra(B, bracket, product, check=False)
        with pytest.raises(AxiomError) as exc:
            check_td_poisson(P, corpus.get_coalgebra("tensor-ab-2"))
        assert exc.value.result.detail == "commutativity"


class TestTDModule:
    @pytest.mark.parametrize("lname,cname", corpus.td_check_pairs())
    def test_self_module_everywhere(self, lname, cname):
        # acting on itself through the bracket: implied by the twisted
        # Lie identities, asserted independently here
        s = TDLieStructure(corpus.load(lname), corpus.get_coalgebra(cname),
                           check=False)
        r = check_td_module(self_module(s))
        assert r.ok, (lname, cname, r.describe())

    @pytest.mark.parametrize("mname,cname", [
        ("sl2-adjoint", "tensor-ab-2"),
        ("heis-adjoint", "exterior-ab"),
        ("abelian2-trivial", "symmetric-xy-2"),
    ])
    def test_fixture_modules(self, mname, cname):
        M = corpus.load(mname)
        s = TDLieStructure(M.base, corpus.get_coalgebra(cname), check=False)
        tdm = TDModuleStructure(s, M)
        assert check_td_module(tdm).ok

    def test_trivial_action(self, sl2):
        M = corpus.load("sl2-trivial")
        s = TDLieStructure(sl2, corpus.get_coalgebra("tensor-ab-3"), check=False)
        r = check_td_module(TDModuleStructure(s, M, check=False))
        assert r.ok

    def test_foreign_bracket_rejected(self, sl2):
        M = corpus.load("heis-adjoint")
        s = TDLieStructure(sl2, corpus.get_coalgebra("tensor-ab-2"), check=False)
        with pytest.raises(ShapeError, match="different bracket"):
            TDModuleStructure(s, M)

    def test_repr(self, sl2):
        s = TDLieStructure(sl2, corpus.get_coalgebra("zero-ab"), check=False)
        assert repr(s).startswith("TDLieStructure(")
        assert "self" in repr(self_module(s))
