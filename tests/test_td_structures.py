"""Twisted Lie, collapse, Jordan, Poisson, module and pair checkers.

The negative oracle was computed by hand before wiring the test: with the
e-to-3e perturbation of sl2 the classical cyclic sum on (e, f, h) leaves
residual -h, and on maps the same residual surfaces at the matrix-unit
triple (E[e,x], E[f,x], E[h,x]) over the word xxx, the shortest word whose
triple coproduct survives.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus, lie_rinehart
from tdhom.algebra import PoissonAlgebra
from tdhom.coalgebra import (
    Coalgebra,
    build_exterior_square_coalgebra,
    build_symmetric_coalgebra,
    check_coassociativity,
)
from tdhom.convolution import (
    HomElement,
    InducedOperator,
    check_td_skew,
    induced,
    zero_check,
)
from tdhom.errors import AxiomError, ShapeError
from tdhom.files import parse_structure
from tdhom.lie_rinehart import (
    LieRinehartPair,
    TDLRStructure,
    check_td_lr,
    classical_rows,
)
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
)
from td_oracle import (
    JACOBI_CYCLE,
    SWAP,
    enumerated_td_skew,
    operator_check_collapse,
    operator_check_jordan,
    operator_check_td_lie,
    operator_check_td_lr,
    operator_check_td_module,
    operator_check_td_poisson,
    operator_identity_check,
    td_jacobi_sum,
)
from structures import (NONCOASSOCIATIVE, incidence_coalgebra,
                        matrix_unit_adjoint, rebased_adjoint)


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
        total = td_jacobi_sum(broken.bracket, corpus.get_coalgebra("tensor-x-3"))
        r = zero_check("td-jacobi", total)
        assert r == operator_identity_check("td-jacobi", total)
        assert not r.ok
        assert r.witness.args == ("E[e,x]", "E[f,x]", "E[h,x]", "xxx")
        assert r.witness.residual == (("h", Fraction(-1)),)

    def test_broken_bracket_still_skew(self, broken):
        # the perturbation keeps both orientations, so the swap identity holds
        r = check_td_skew(broken.bracket, corpus.get_coalgebra("tensor-x-3"))
        assert r.ok

    def test_cyclic_vacuous_below_three_letters(self, broken):
        # no word of length three, no triple coproduct, nothing to check
        total = td_jacobi_sum(broken.bracket, corpus.get_coalgebra("tensor-ab-2"))
        assert total.first_entry() is None

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
        # jordan-symmetry and jordan-jacobi imply the cube identities;
        # test_cube_identities_on_random_elements evaluates those
        assert r.detail == "2 checks"

    def test_zero_coproduct_trivial(self):
        heis = corpus.load("heisenberg")
        r = check_jordan(heis, corpus.get_coalgebra("zero-ab"))
        assert r.ok

    def test_wrong_symmetry_class(self, sl2):
        with pytest.raises(AxiomError, match="skew-cocommutative"):
            check_jordan(sl2, corpus.get_coalgebra("symmetric-xy-2"))
        with pytest.raises(AxiomError, match="skew-cocommutative"):
            check_jordan(sl2, corpus.get_coalgebra("tensor-ab-2"))

    @pytest.mark.parametrize("letters", ["ab", "abc"])
    @pytest.mark.parametrize("lname", corpus.LIE_NAMES)
    def test_cube_identities_on_random_elements(self, lname, letters):
        # (ff)f = 0 and ((ff)g)f + (ff)(gf) = 0, evaluated on random
        # combinations of matrix units: on one matrix unit ff is zero
        lie = corpus.load(lname)
        C = build_exterior_square_coalgebra(BasedSpace("V", tuple(letters)))
        assert check_jordan(lie, C).ok
        op = induced(lie.bracket, C)
        rng = random.Random(letters)

        def element():
            return HomElement(C, lie.space, {
                (t, c): rng.randint(-3, 3)
                for t in range(lie.space.dim) for c in range(C.dim)})

        squares = 0
        for _ in range(15):
            f, g = element(), element()
            ff = op.apply([f, f])
            squares += not ff.is_zero()
            assert op.apply([ff, f]).is_zero()
            assert op.apply([op.apply([ff, g]), f]).add(
                op.apply([ff, op.apply([g, f])])).is_zero()
        # abelian2's bracket is zero, so only there is ff always zero
        assert bool(squares) == (lname != "abelian2")

    def test_product_symmetric_on_elements(self, sl2):
        # fg = gf without any sign: the exterior square flips orientation
        from tdhom.convolution import matrix_units
        C = corpus.get_coalgebra("exterior-ab")
        op = induced(sl2.bracket, C)
        units = matrix_units(C, sl2.space)
        assert any(not op.apply([f, g]).is_zero()
                   for f in units for g in units)
        for f in units:
            for g in units:
                assert op.apply([f, g]) == op.apply([g, f])


def _degenerate_cases():
    """(checker, oracle, coalgebra name, coalgebra) for collapse over the
    cocommutative coassociative coalgebras and Jordan over the
    skew-cocommutative ones, zero coproducts included."""
    V3 = BasedSpace("V", ("x", "y", "z"))
    cocommutative = {name: corpus.get_coalgebra(name)
                     for name in ("symmetric-xy-2", "tensor-x-3", "zero-ab")}
    cocommutative["symmetric-xyz-3"] = build_symmetric_coalgebra(V3, 3)
    skew = {name: corpus.get_coalgebra(name)
            for name in ("exterior-ab", "zero-ab")}
    skew["exterior-xyz"] = build_exterior_square_coalgebra(V3)
    return ([(check_cocommutative_collapse, operator_check_collapse, name, C)
             for name, C in cocommutative.items()]
            + [(check_jordan, operator_check_jordan, name, C)
               for name, C in skew.items()])


DEGENERATE_CASES = _degenerate_cases()


def _degenerate_lies():
    return ([corpus.load(name) for name in corpus.LIE_NAMES]
            + [matrix_unit_adjoint("gl", 2).base,
               matrix_unit_adjoint("b", 3).base,
               rebased_adjoint(matrix_unit_adjoint("gl", 2), 5).base])


@pytest.fixture
def operators_built(monkeypatch):
    """Every InducedOperator built, as (base map, twist)."""
    built = []
    init = InducedOperator.__init__

    def recording(self, coalgebra, base, twist):
        built.append((base, twist))
        init(self, coalgebra, base, twist)

    monkeypatch.setattr(InducedOperator, "__init__", recording)
    return built


class TestDegenerateReadOff:
    """Over a coassociative coalgebra collapse and Jordan read their two
    rows off check_lie; tests/td_oracle.py decides them on operators."""

    @pytest.mark.parametrize("checker,oracle,cname,C", DEGENERATE_CASES,
                             ids=["%s-%s" % (case[0].__name__, case[2])
                                  for case in DEGENERATE_CASES])
    def test_read_off_equals_operators(self, checker, oracle, cname, C,
                                       operators_built):
        assert check_coassociativity(C).ok
        for lie in _degenerate_lies():
            result = checker(lie, C)
            assert result.ok and result.detail == "2 checks"
            assert operators_built == []
            assert result == oracle(lie, C), (lie.name, cname)
            del operators_built[:]

    @pytest.mark.parametrize("kind", sorted(NONCOASSOCIATIVE))
    def test_noncoassociative_refused(self, kind, operators_built):
        # as check_td_lie refuses it; over such a C the operators are
        # decided only by the oracle, and sl2 fails the plain cyclic
        # identity there
        C = NONCOASSOCIATIVE[kind]
        assert not check_coassociativity(C).ok
        checker, oracle = ((check_cocommutative_collapse,
                            operator_check_collapse) if kind == "cocommutative"
                           else (check_jordan, operator_check_jordan))
        for name in corpus.LIE_NAMES:
            with pytest.raises(AxiomError,
                               match=r"^precondition failed \(coassociativity\): "):
                checker(corpus.load(name), C)
        assert operators_built == []
        outcomes = {name: oracle(corpus.load(name), C).ok
                    for name in corpus.LIE_NAMES}
        assert outcomes == {"sl2": False, "heisenberg": True, "abelian2": True}

    def test_precondition_still_required(self):
        broken = corpus.load("broken-skew", unsafe_skip_axioms=True)
        for checker, cname in ((check_cocommutative_collapse, "tensor-x-3"),
                               (check_jordan, "exterior-ab")):
            with pytest.raises(AxiomError, match="precondition failed"):
                checker(broken, corpus.get_coalgebra(cname))


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


def doubled_bmodule(pname):
    """A corpus pair, built unchecked, with its B-module map doubled: for
    lr-derx3 the action-linearity and bmodule-associative rows fail."""
    good = corpus.load(pname)
    return LieRinehartPair(good.lie_space, good.ring_space, good.bracket,
                           good.product, good.action, good.bmodule.scale(2),
                           check=False, name=pname + "-doubled")


def sweep_coalgebras():
    """The corpus coalgebras, a zero-dimensional one and the incidence
    coalgebras of two chains, whose coproducts never die.  Over
    tensor-ab-2, zero-ab and the zero-dimensional one Delta^(3) = 0."""
    out = dict(corpus.coalgebras())
    out["zero-dim"] = Coalgebra(BasedSpace("E", ()), {})
    out["chain-3"] = incidence_coalgebra(3, [(0, 1), (1, 2)])
    out["chain-5"] = incidence_coalgebra(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    return out


def outcome(check, *args):
    """check(*args), or the type and message of the error it raised."""
    try:
        return check(*args)
    except AxiomError as exc:
        return type(exc), str(exc)


class TestKeptClassicalResults:
    """The twisted checkers read each identity off its kept classical
    result; tests/td_oracle.py decides them on operators instead."""

    def test_matches_operator_route(self):
        lies = [corpus.load(n) for n in corpus.LIE_NAMES] + [
            corpus.load(n, unsafe_skip_axioms=True)
            for n in ("broken-jacobi", "broken-skew")]
        modules = [corpus.load(n) for n in corpus.MODULE_NAMES]
        pairs = [corpus.load(n) for n in corpus.PAIR_NAMES] + [
            doubled_bmodule(n) for n in corpus.PAIR_NAMES]
        N = BasedSpace("N", ("1", "x"))
        poissons = [corpus.load("poisson3"), PoissonAlgebra(
            N, MultilinearMap.zero([N, N], N),
            MultilinearMap([N, N], N, {((0, 0), 0): 1, ((0, 1), 1): 1}),
            check=False, name="noncommutative")]
        twisted_pass_classical_fail = set()
        for cname, C in sweep_coalgebras().items():
            for lie in lies:
                assert outcome(check_td_lie, lie, C) \
                    == outcome(operator_check_td_lie, lie, C), (lie.name, cname)
            tdms = [TDModuleStructure(TDLieStructure(M.base, C, check=False),
                                      M, check=False) for M in modules]
            tdms += [self_module(TDLieStructure(lie, C, check=False))
                     for lie in lies]
            for tdm in tdms:
                assert outcome(check_td_module, tdm) \
                    == outcome(operator_check_td_module, tdm), (tdm, cname)
            for P in poissons:
                assert outcome(check_td_poisson, P, C) \
                    == outcome(operator_check_td_poisson, P, C), (P.name, cname)
            for pair in pairs:
                s = TDLRStructure(pair, C)
                r = check_td_lr(s)
                assert r == operator_check_td_lr(s), (pair.name, cname)
                if r and not all(classical_rows(pair)):
                    twisted_pass_classical_fail.add(cname)
        # a classically failing row holds twisted where Delta^(3) dies
        assert twisted_pass_classical_fail == {"tensor-ab-2", "zero-ab",
                                               "zero-dim", "exterior-ab",
                                               "symmetric-xy-2"}


def count_calls(monkeypatch, calls):
    """Record every MultilinearMap.compose_at, MultilinearMap._trusted,
    InducedOperator.first_entry and InducedOperator.materialize call in
    calls: any map built, composed or induced."""
    for owner, name in ((MultilinearMap, "compose_at"),
                        (InducedOperator, "first_entry"),
                        (InducedOperator, "materialize")):
        def counting(*args, original=getattr(owner, name), name=name):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, counting)
    trusted = MultilinearMap.__dict__["_trusted"].__func__

    def counting_trusted(cls, *args):
        calls.append("_trusted")
        return trusted(cls, *args)
    monkeypatch.setattr(MultilinearMap, "_trusted", classmethod(counting_trusted))


class TestBuildsNothingOnceKept:
    def test_twisted_checkers_build_no_operator(self, monkeypatch):
        # loading decides every classical axiom and keeps the results
        lies = [corpus.load(n) for n in corpus.LIE_NAMES]
        modules = [corpus.load(n) for n in corpus.MODULE_NAMES]
        pairs = [corpus.load(n) for n in corpus.PAIR_NAMES]
        poisson = corpus.load("poisson3")
        coalgebras = sweep_coalgebras().values()
        for C in coalgebras:
            check_coassociativity(C)
        calls = []
        count_calls(monkeypatch, calls)
        for C in coalgebras:
            for lie in lies:
                assert check_td_lie(lie, C)
            for M in modules:
                assert check_td_module(TDModuleStructure(
                    TDLieStructure(M.base, C, check=False), M, check=False))
            assert check_td_poisson(poisson, C)
            for pair in pairs:
                assert check_td_lr(TDLRStructure(pair, C))
        assert calls == []

    def test_broken_pair_reaches_operator_route(self, monkeypatch):
        pair = doubled_bmodule("lr-derx3")
        reached = []

        def counting(name, op):
            reached.append(name)
            return zero_check(name, op)
        monkeypatch.setattr(lie_rinehart, "zero_check", counting)
        r = check_td_lr(TDLRStructure(pair, corpus.get_coalgebra("tensor-ab-3")))
        assert not r and r.detail == "td-action-linearity"
        assert reached == ["td-action-linearity", "td-bmodule-associative"]


@pytest.fixture
def materialized(monkeypatch):
    """Every InducedOperator.materialize call, by operator."""
    calls = []
    original = InducedOperator.materialize

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(InducedOperator, "materialize", counting)
    return calls


def derivation_broken_pair():
    """lr-dualnum with D(1) = x added to its action: only the derivation
    rule fails, classically and, over tensor-x-3, twisted."""
    doc = json.loads(corpus.fixture_text("lr-dualnum"))
    for m in doc["maps"]:
        if m["name"] == "action":
            m["entries"].append([[0, 0], 1, "1"])
    return parse_structure(json.dumps(doc), unsafe_skip_axioms=True)


class TestFailuresLayNothingOut:
    """A failing identity is decided and witnessed in closed form; only
    the oracle lays it out."""

    def test_td_skew(self, materialized):
        bracket = corpus.load("broken-skew", unsafe_skip_axioms=True).bracket
        C = corpus.get_coalgebra("tensor-x-3")
        result = check_td_skew(bracket, C)
        assert not result and materialized == []
        assert result == enumerated_td_skew(bracket, C)

    def test_td_lr_failing_row(self, materialized):
        s = TDLRStructure(derivation_broken_pair(),
                          corpus.get_coalgebra("tensor-x-3"))
        result = check_td_lr(s)
        assert not result and result.detail == "td-derivation"
        assert materialized == []
        assert result == operator_check_td_lr(s)
