"""Classical structure checkers against the shipped examples.

Failure expectations were worked out by hand first: the scaled sl2 constant
leaves the cyclic sum at -h on (e, f, h), and the non-negated bracket shows
up at (e, f).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import algebra, corpus
from tdhom.algebra import (
    PRODUCT_CYCLE,
    SWAP_FIRST_TWO,
    AssociativeAlgebra,
    LieAlgebra,
    LieModule,
    PoissonAlgebra,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
    check_poisson,
    leibniz_check,
    skew_symmetry_check,
)
from tdhom.coalgebra import Coalgebra, check_coassociativity
from tdhom.checks import combine, kept
from tdhom.errors import AxiomError, ShapeError
from tdhom.files import parse_structure
from tdhom.lie_rinehart import LieRinehartPair, check_lr
from tdhom.linalg import BasedSpace
from tdhom.maps import MultilinearMap
from tdhom.td_structures import check_td_lie
from lr_oracle import (
    flipped_skew,
    map_associative,
    map_commutative,
    map_identity_check,
    map_leibniz,
    map_poisson,
    rotation_jacobi,
    table_sum_jacobi,
)
from td_oracle import JACOBI_CYCLE, SWAP
from structures import (adjoint_module, matrix_unit_adjoint, matrix_unit_lie,
                        rebased_adjoint)

L3 = BasedSpace("L", ("e", "f", "h"))


def bilinear(entries, space=L3):
    return MultilinearMap((space, space), space,
                          {(t, o): Fraction(q) for t, o, q in entries})


def decided_lie(bracket):
    """check_lie decided afresh on bracket, an unchecked Lie algebra's."""
    return check_lie.__wrapped__(LieAlgebra(bracket.codomain, bracket, check=False))


def oracle_lie(bracket):
    """check_lie by the map route: skew symmetry and Jacobi both decided,
    as maps, whether skew symmetry holds or not."""
    return combine("lie", [flipped_skew(bracket), table_sum_jacobi(bracket)])


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
        assert decided_lie(b.scale(Fraction(7, 3))).ok

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


def kept_checks(obj):
    """(checker, structure) for every kept classical checker obj's role
    asks, through its parts as well as whole."""
    if isinstance(obj, LieAlgebra):
        return [(check_lie, obj)]
    if isinstance(obj, PoissonAlgebra):
        return [(check_lie, obj), (check_poisson, obj)]
    if isinstance(obj, LieModule):
        return [(check_lie, obj.base), (check_module, obj)]
    if isinstance(obj, LieRinehartPair):
        return [(check_lr, obj), (check_lie, obj.lie),
                (check_module, obj.ring_module)]
    if isinstance(obj, Coalgebra):
        return [(check_coassociativity, obj)]
    return []


def corpus_structures():
    """(id, structure) for every corpus structure, as loading checks it and
    unchecked; the broken fixtures only unchecked."""
    out = []
    for name in corpus.FIXTURES:
        text = corpus.fixture_text(name)
        out.append((name + "-unchecked",
                    parse_structure(text, unsafe_skip_axioms=True)))
        if not name.startswith("broken-"):
            out.append((name, parse_structure(text)))
    for name in corpus.coalgebra_names():
        C = corpus.get_coalgebra(name)
        out.append((name + "-unchecked",
                    Coalgebra(C.space, C.coproduct, check=False)))
        out.append((name, Coalgebra(C.space, C.coproduct)))
    return out


class TestKeptResults:
    """check_lie, check_module, check_poisson, check_coassociativity and
    check_lr keep their result on the structure they decided."""

    def test_kept_result_equals_a_fresh_decision(self):
        seen = 0
        failing = set()
        for label, obj in corpus_structures():
            for checker, structure in kept_checks(obj):
                fresh = checker.__wrapped__(structure)
                kept = checker(structure)
                assert kept == fresh, (label, checker.__name__)
                assert checker(structure) is kept
                seen += 1
                if not kept.ok:
                    failing.add(label)
        assert seen >= 50
        assert failing == {"broken-jacobi-unchecked", "broken-skew-unchecked"}

    def test_results_are_kept_per_checker(self):
        P = corpus.load("poisson3")
        assert check_poisson(P).name == "poisson"
        assert check_lie(P).name == "lie"
        assert check_lie(P) == check_lie.__wrapped__(P)

    def test_td_lie_precondition_on_poisson_is_named_lie(self):
        A = corpus.load("poisson3").space
        symmetric = MultilinearMap([A, A], A, {((1, 2), 1): 1, ((2, 1), 1): 1})
        P = PoissonAlgebra(A, symmetric, corpus.load("poisson3").product,
                           check=False)
        assert check_poisson(P).name == "poisson"
        with pytest.raises(AxiomError) as info:
            check_td_lie(P, corpus.get_coalgebra("tensor-ab-2"))
        assert info.value.result.name == "lie"
        assert info.value.result.detail == "skew-symmetry"
        assert str(info.value).startswith(
            "precondition failed (Lie axioms): lie: FAIL (skew-symmetry)")


def table_sum_module(M):
    """check_module as it was before it summed in ints; its oracle."""
    lhs = M.action.compose_at(M.base.bracket, 0)
    nested = M.action.compose_at(M.action, 1)
    rhs = nested.sub(nested.precompose_perm(SWAP_FIRST_TWO))
    return map_identity_check("module", lhs, rhs)


def perturbed(m):
    """m with each one entry in turn scaled by 3/2, then with it dropped:
    maps that break an identity m satisfies, at varied witnesses."""
    for key in sorted(m.entries):
        for table in ({**m.entries, key: m.entries[key] * Fraction(3, 2)},
                      {k: q for k, q in m.entries.items() if k != key}):
            yield MultilinearMap(m.domain, m.codomain, table)


def skew_perturbed(m):
    """perturbed, with each change made at (x, y) and (y, x) alike: a skew
    m stays skew, and its Jacobi sum breaks at varied witnesses."""
    for (x, y), o in sorted({(tuple(sorted(t)), o) for t, o in m.entries}):
        pair = {((x, y), o), ((y, x), o)}
        for factor in (Fraction(3, 2), 0):
            table = {k: q * factor if k in pair else q
                     for k, q in m.entries.items()}
            yield MultilinearMap(m.domain, m.codomain, table)


def outcome(result):
    """A folded result's outcome: "pass", or the sub-check that fails."""
    return result.detail if not result.ok else "pass"


class TestIntSumsAgainstFractionSums:
    """check_lie and check_module sum in ints, check_lie Jacobi only once
    skew symmetry holds; on every corpus structure, the broken ones
    included, and on perturbed copies of each, they give the result the
    Fraction-table route gives: same ok, detail and witness."""

    def test_check_lie(self):
        brackets = []
        for _label, obj in corpus_structures():
            for checker, structure in kept_checks(obj):
                if checker is check_lie:
                    brackets.append(structure.bracket)
        variants = list(brackets)
        for m in brackets:
            variants += [*perturbed(m), *skew_perturbed(m)]
        outcomes = []
        for bracket in variants:
            result = decided_lie(bracket)
            assert result == oracle_lie(bracket)
            assert rotation_jacobi(bracket) == table_sum_jacobi(bracket)
            outcomes.append(outcome(result))
        assert len(brackets) >= 20
        assert min(outcomes.count(o) for o in ("pass", "skew-symmetry",
                                               "jacobi")) >= 20

    def test_check_poisson(self):
        # poisson3's product under every corpus bracket of its dimension,
        # moved onto its space, and under perturbed copies of each
        P = corpus.load("poisson3")
        A = P.space
        brackets = [MultilinearMap((A, A), A, dict(structure.bracket.entries))
                    for _label, obj in corpus_structures()
                    for checker, structure in kept_checks(obj)
                    if checker is check_lie and structure.space.dim == A.dim]
        variants = [PoissonAlgebra(A, P.bracket, p, check=False)
                    for p in perturbed(P.product)]
        for m in brackets:
            variants += [PoissonAlgebra(A, b, P.product, check=False)
                         for b in (m, *perturbed(m), *skew_perturbed(m))]
        outcomes = []
        for Q in variants:
            result = check_poisson.__wrapped__(Q)
            assert result == map_poisson(Q)
            outcomes.append(outcome(result))
        assert set(outcomes) == {"pass", "skew-symmetry", "jacobi",
                                 "associativity", "commutativity", "leibniz"}

    def test_check_module(self):
        modules = []
        for _label, obj in corpus_structures():
            for checker, structure in kept_checks(obj):
                if checker is check_module:
                    modules.append(structure)
        variants = list(modules)
        for M in modules:
            variants += [LieModule(M.base, M.space, action, check=False)
                         for action in perturbed(M.action)]
        failing = 0
        for M in variants:
            result = check_module.__wrapped__(M)
            assert result == table_sum_module(M)
            failing += not result.ok
        assert len(modules) >= 10 and failing >= 20


# [e_x, e_y] = c e_o with x < y: abelian, the plane r2, Heisenberg, sl2
LIE_SEEDS = [(1, []), (2, [(0, 1, 1, 1)]), (3, [(0, 1, 2, 1)]),
             (3, [(0, 1, 2, 1), (0, 2, 0, -2), (1, 2, 1, 2)])]
SCALARS = st.one_of(st.integers(-4, 4),
                    st.fractions(-3, 3, max_denominator=7))


@st.composite
def brackets(draw):
    """(kind, bracket) on a space of dim 1 to 5: a Lie bracket (a seed
    algebra placed in the space and scaled), or one with random entries
    added, skew or not."""
    n = draw(st.integers(1, 5))
    V = BasedSpace("V", ["v%d" % i for i in range(n)])
    kind = draw(st.sampled_from(["lie", "perturbed", "skew", "any"]))
    table = {}
    if kind in ("lie", "perturbed"):
        _, consts = draw(st.sampled_from([s for s in LIE_SEEDS if s[0] <= n]))
        place = draw(st.permutations(range(n)))
        scale = draw(SCALARS.filter(bool))
        for x, y, o, c in consts:
            table[(place[x], place[y]), place[o]] = scale * c
            table[(place[y], place[x]), place[o]] = -scale * c
    if kind != "lie":
        index = st.integers(0, n - 1)
        extra = draw(st.dictionaries(st.tuples(index, index, index), SCALARS,
                                     min_size=1, max_size=8))
        for (x, y, o), q in extra.items():
            table[(x, y), o] = table.get(((x, y), o), 0) + q
            if kind == "skew":
                table[(y, x), o] = table.get(((y, x), o), 0) - q
    return kind, MultilinearMap((V, V), V, table)


@st.composite
def modules(draw):
    """(kind, module) over a drawn bracket: its trivial, adjoint or
    coadjoint module, or one with a random action on a space of dim 1
    to 5."""
    kind, bracket = draw(brackets())
    L = bracket.codomain
    base = LieAlgebra(L, bracket, check=False)
    action = draw(st.sampled_from(["trivial", "adjoint", "coadjoint", "any"]))
    if action == "trivial":
        return kind, LieModule(base, L, MultilinearMap((L, L), L, {}), check=False)
    if action == "adjoint":
        return kind, LieModule(base, L, bracket, check=False)
    if action == "coadjoint":
        # (x . f)(y) = -f([x, y]) on the dual basis
        dual = {((x, o), a): -q for ((x, a), o), q in bracket.entries.items()}
        return kind, LieModule(base, L, MultilinearMap((L, L), L, dual),
                               check=False)
    B = BasedSpace("B", ["b%d" % i for i in range(draw(st.integers(1, 5)))])
    extra = draw(st.dictionaries(
        st.tuples(st.tuples(st.integers(0, L.dim - 1), st.integers(0, B.dim - 1)),
                  st.integers(0, B.dim - 1)), SCALARS, max_size=8))
    return "any", LieModule(base, B, MultilinearMap((L, B), B, extra), check=False)


class TestFusedChecksAgainstTableSums:
    """check_lie (skew symmetry, then Jacobi on increasing triples) and the
    module law decided in int passes give the results of the map-building
    routes they replaced: same ok, detail and witness, on Lie brackets and
    on brackets that are not even skew."""

    @given(brackets())
    @settings(max_examples=200, deadline=None)
    def test_bracket_sweep(self, drawn):
        kind, bracket = drawn
        result = decided_lie(bracket)
        assert result == oracle_lie(bracket)
        assert skew_symmetry_check(bracket) == flipped_skew(bracket)
        assert rotation_jacobi(bracket) == table_sum_jacobi(bracket)
        if kind == "lie":
            assert result.ok

    @given(modules())
    @settings(max_examples=200, deadline=None)
    def test_module_sweep(self, drawn):
        kind, M = drawn
        result = check_module.__wrapped__(M)
        assert result == table_sum_module(M)
        if kind == "lie" and M.space is M.base.space:
            assert result.ok

    def test_sweeps_reach_both_outcomes(self):
        seen = set()

        @given(modules())
        @settings(max_examples=200, deadline=None)
        def collect(drawn):
            kind, M = drawn
            seen.add(("lie", outcome(check_lie.__wrapped__(M.base))))
            seen.add(("module", check_module.__wrapped__(M).ok))

        collect()
        # a Lie bracket, a skew one failing Jacobi and one not skew
        assert seen == {("lie", "pass"), ("lie", "jacobi"),
                        ("lie", "skew-symmetry"),
                        ("module", True), ("module", False)}

    def test_ill_shaped_maps_raise(self):
        A, B, C = (BasedSpace(name, labels) for name, labels in
                   (("A", "ab"), ("B", "cd"), ("C", "xyz")))
        for m in (MultilinearMap((A,), A, {}), MultilinearMap((A, A, A), A, {}),
                  MultilinearMap((A, B), B, {((0, 1), 1): 1}),
                  MultilinearMap((A, A), C, {})):
            for check in (rotation_jacobi, table_sum_jacobi):
                with pytest.raises(ShapeError):
                    check(m)
        skewed = MultilinearMap((A, B), B, {((0, 1), 1): 1})
        for check in (skew_symmetry_check, flipped_skew):
            with pytest.raises(ShapeError):
                check(skewed)


@st.composite
def products(draw, space=None):
    """(kind, product) on a space of dim 1 to 3, or on space: a corpus
    Poisson product placed there, the same perturbed, or random entries."""
    kind = draw(st.sampled_from(["poisson3", "perturbed", "any"]))
    if kind != "any" and space is None:
        return kind, draw(st.sampled_from(
            [corpus.load("poisson3").product] if kind == "poisson3"
            else list(perturbed(corpus.load("poisson3").product))))
    V = space or BasedSpace("V", ["v%d" % i for i in range(draw(st.integers(1, 3)))])
    index = st.integers(0, V.dim - 1)
    table = draw(st.dictionaries(st.tuples(st.tuples(index, index), index),
                                 SCALARS, max_size=8))
    return "any", MultilinearMap((V, V), V, table)


@st.composite
def poisson_algebras(draw):
    """(kind, algebra) built unchecked: poisson3, poisson3 with one
    constant of its product moved, or a drawn bracket with a random,
    generally noncommutative, product on its space."""
    kind = draw(st.sampled_from(["poisson3", "perturbed", "any"]))
    P = corpus.load("poisson3")
    if kind == "poisson3":
        return kind, P
    if kind == "perturbed":
        product = draw(st.sampled_from(list(perturbed(P.product))))
        return kind, PoissonAlgebra(P.space, P.bracket, product, check=False)
    _, bracket = draw(brackets())
    _, product = draw(products(bracket.codomain))
    return kind, PoissonAlgebra(bracket.codomain, bracket, product, check=False)


class TestCompositeChecksAgainstMaps:
    """Associativity, Leibniz and check_poisson summed in one int pass
    (composite_check) give the results of the map route they replaced
    (tests/lr_oracle.py): same ok, detail and witness, failing or not."""

    @given(products())
    @settings(max_examples=200, deadline=None)
    def test_associativity_sweep(self, drawn):
        kind, product = drawn
        result = check_associative(product)
        assert result == map_associative(product)
        if kind == "poisson3":
            assert result.ok

    @given(poisson_algebras())
    @settings(max_examples=200, deadline=None)
    def test_poisson_sweep(self, drawn):
        kind, P = drawn
        assert leibniz_check(P.bracket, P.product) \
            == map_leibniz(P.bracket, P.product)
        result = check_poisson.__wrapped__(P)
        assert result == map_poisson(P)
        if kind == "poisson3":
            assert result.ok

    def test_sweeps_reach_both_outcomes(self):
        seen = set()

        @given(poisson_algebras())
        @settings(max_examples=200, deadline=None)
        def collect(drawn):
            _, P = drawn
            seen.add(("associativity", check_associative(P.product).ok))
            seen.add(("leibniz", leibniz_check(P.bracket, P.product).ok))

        collect()
        assert seen == {(c, ok) for c in ("associativity", "leibniz")
                        for ok in (True, False)}

    def test_ill_shaped_maps_raise(self):
        A, B = BasedSpace("A", "ab"), BasedSpace("B", "xyz")
        for m in (MultilinearMap((A, B), B, {}), MultilinearMap((A, A), B, {})):
            for check in (check_associative, map_associative):
                with pytest.raises(ShapeError):
                    check(m)
        # a product on a second space of A's dimension composes, but the
        # two sides of Leibniz then live on different spaces
        square, C = MultilinearMap((A, A), A, {}), BasedSpace("C", "cd")
        for product in (MultilinearMap((B, B), B, {}),
                        MultilinearMap((C, C), C, {})):
            for check in (leibniz_check, map_leibniz):
                with pytest.raises(ShapeError):
                    check(square, product)


@st.composite
def partly_symmetric_products(draw):
    """(kind, product) on a space of dim 1 to 4: a random symmetric table
    (commutative), the same with random entries added (partly
    symmetric), or random entries alone."""
    V = BasedSpace("V", ["v%d" % i for i in range(draw(st.integers(1, 4)))])
    index = st.integers(0, V.dim - 1)
    entries = st.dictionaries(st.tuples(st.tuples(index, index), index),
                              SCALARS, max_size=8)
    kind = draw(st.sampled_from(["symmetric", "partly", "any"]))
    table = {}
    if kind != "any":
        for ((x, y), o), q in draw(entries).items():
            for key in (((x, y), o), ((y, x), o)):
                table[key] = table.get(key, 0) + q
    if kind != "symmetric":
        for key, q in draw(entries).items():
            table[key] = table.get(key, 0) + q
    return kind, MultilinearMap((V, V), V, table)


class TestSwapPassAgainstMaps:
    """Commutativity decided by the swap pass (algebra.swap_defect at sign
    -1) gives the result of the map route it replaced (tests/lr_oracle.py
    map_commutative): same ok and witness, failing or not."""

    @given(partly_symmetric_products())
    @settings(max_examples=400, deadline=None)
    def test_commutativity_sweep(self, drawn):
        kind, product = drawn
        result = check_commutative(product)
        assert result == map_commutative(product)
        if kind == "symmetric":
            assert result.ok

    def test_sweep_reaches_both_outcomes(self):
        seen = set()

        @given(partly_symmetric_products())
        @settings(max_examples=200, deadline=None)
        def collect(drawn):
            seen.add(check_commutative(drawn[1]).ok)

        collect()
        assert seen == {True, False}


def test_gl3_adjoint_decides_without_intermediate_maps(monkeypatch):
    # every map the old routes built went through _trusted or compose_at
    M = adjoint_module(matrix_unit_lie("gl", 3, check=False), check=False)

    def refused(*args, **kwargs):
        raise AssertionError("intermediate map built")

    monkeypatch.setattr(MultilinearMap, "_trusted", refused)
    monkeypatch.setattr(MultilinearMap, "compose_at", refused)
    lie, module = check_lie.__wrapped__(M.base), check_module.__wrapped__(M)
    monkeypatch.undo()
    assert lie.ok and module.ok
    assert lie == combine("lie", [flipped_skew(M.base.bracket),
                                  table_sum_jacobi(M.base.bracket)])
    assert module == table_sum_module(M)


def accumulated(M):
    """check_module's accumulator on M: M's bracket and action over a
    fresh base that keeps no check_lie result."""
    base = LieAlgebra(M.base.space, M.base.bracket, check=False)
    return check_module.__wrapped__(
        LieModule(base, M.space, M.action, check=False))


def recorded_decisions(monkeypatch, kept_name):
    """The names of the identities algebra decides from here on, in order,
    those kept_name keeps, recorded through the _decide call that ends
    each int pass."""
    calls = []
    real = algebra._decide

    def counted(name, *args):
        if kept_name(name):
            calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(algebra, "_decide", counted)
    return calls


@pytest.fixture
def sums(monkeypatch):
    """The module laws check_module sums (check_lie's are named otherwise)."""
    return recorded_decisions(monkeypatch, lambda name: name == "module")


class TestJacobiOnlyOnSkew:
    """check_lie and check_poisson sum Jacobi only once skew symmetry
    holds: a bracket that is not skew fails there, and no Jacobi pass
    runs."""

    @pytest.mark.parametrize("name,decided", [
        ("sl2", ["skew-symmetry", "jacobi"]),
        ("broken-jacobi", ["skew-symmetry", "jacobi"]),
        ("broken-skew", ["skew-symmetry"])])
    def test_check_lie(self, name, decided, monkeypatch):
        L = corpus.load(name, unsafe_skip_axioms=True)
        decisions = recorded_decisions(monkeypatch, lambda _name: True)
        result = check_lie.__wrapped__(L)
        assert decisions == decided
        assert result == oracle_lie(L.bracket)

    def test_check_poisson(self, monkeypatch):
        P = corpus.load("poisson3")
        A = P.space
        symmetric = MultilinearMap((A, A), A, {((1, 2), 1): 1, ((2, 1), 1): 1})
        # [e0, e1] = e1, [e1, e2] = e0: skew, and Jacobi fails at (0, 1, 2)
        no_jacobi = MultilinearMap((A, A), A, {((0, 1), 1): 1, ((1, 0), 1): -1,
                                               ((1, 2), 0): 1, ((2, 1), 0): -1})
        rest = ["associativity", "commutativity", "leibniz"]
        # the rows are decided in order, and none after the first failure
        for bracket, decided in ((P.bracket, ["skew-symmetry", "jacobi", *rest]),
                                 (no_jacobi, ["skew-symmetry", "jacobi"]),
                                 (symmetric, ["skew-symmetry"])):
            Q = PoissonAlgebra(A, bracket, P.product, check=False)
            decisions = recorded_decisions(monkeypatch, lambda _name: True)
            result = check_poisson.__wrapped__(Q)
            monkeypatch.undo()
            assert decisions == decided
            assert result == map_poisson(Q)


def stored_as_bracket(M):
    return ((M.action._ints, M.action._denominator)
            == (M.base.bracket._ints, M.base.bracket._denominator))


class TestAdjointReadOff:
    """An action stored as the bracket, over a base that keeps a passing
    check_lie, has its law read off that result; every other module is
    summed."""

    def test_corpus_modules(self, sums):
        read_off = set()
        for name in corpus.MODULE_NAMES:
            M = corpus.load(name)
            expected = accumulated(M)
            del sums[:]
            assert check_module.__wrapped__(M) == expected
            assert expected.ok
            if not sums:
                read_off.add(name)
        # abelian2-trivial: a zero action and a zero bracket store alike
        assert read_off == {"sl2-adjoint", "heis-adjoint", "abelian2-trivial"}
        assert {name for name in corpus.MODULE_NAMES
                if stored_as_bracket(corpus.load(name))} == read_off

    @pytest.mark.parametrize("family,n", [("gl", 2), ("gl", 3), ("b", 3),
                                          ("b", 4)])
    def test_rebased_adjoints(self, family, n, sums):
        adjoint = matrix_unit_adjoint(family, n)
        denominators = set()
        for seed in range(4):
            M = rebased_adjoint(adjoint, seed)
            denominators.add(M.action._denominator)
            expected = accumulated(M)
            del sums[:]
            assert check_module.__wrapped__(M) == expected
            assert expected.ok and sums == []
        assert max(denominators) > 1

    @pytest.mark.parametrize("name", ["broken-jacobi", "broken-skew"])
    def test_unkept_or_failing_lie_is_summed(self, name, sums):
        # the broken bracket acting on its own space: check_lie is first
        # not kept, then kept failing, and the law is summed both times
        broken = parse_structure(corpus.fixture_text(name),
                                 unsafe_skip_axioms=True)
        M = LieModule(broken, broken.space, broken.bracket, check=False)
        expected = table_sum_module(M)
        assert kept(broken, check_lie) is None
        del sums[:]
        assert check_module.__wrapped__(M) == expected
        assert sums == ["module"]
        assert kept(broken, check_lie) is None
        assert not check_lie(broken).ok
        assert check_module.__wrapped__(M) == expected
        assert sums == ["module", "module"]
        # broken-jacobi's bracket breaks the law; broken-skew's keeps it
        assert expected.ok == (name == "broken-skew")
        assert (expected.witness is None) == expected.ok

    @pytest.mark.parametrize("name", ["broken-jacobi", "broken-skew"])
    def test_other_store_is_summed(self, name, sums):
        # sl2 keeps a passing check_lie; a broken bracket as its action
        sl2 = corpus.load("sl2")
        assert kept(sl2, check_lie).ok
        broken = corpus.load(name, unsafe_skip_axioms=True).bracket
        action = MultilinearMap((sl2.space, sl2.space), sl2.space,
                                dict(broken.entries))
        M = LieModule(sl2, sl2.space, action, check=False)
        del sums[:]
        result = check_module(M)
        assert sums == ["module"]
        assert result == table_sum_module(M) == accumulated(M)
        assert not result.ok and result.witness is not None
