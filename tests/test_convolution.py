"""Induced and twisted operators on maps out of a coalgebra.

The evaluation oracles were computed by hand from the sl2 constants and the
word-splitting coproduct before running anything: with f sending a to e and
g sending b to f, the induced bracket picks up h exactly on the word ab, and
the swap-twisted version moves that value to ba.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus
from tdhom.checks import CheckResult
from tdhom.coalgebra import (
    COCOMMUTATIVE,
    Coalgebra,
    build_tensor_coalgebra,
    symmetry_class,
)
from tdhom.convolution import (
    HomElement,
    check_td_skew,
    compose_induced,
    induced,
    interchange,
    matrix_units,
    operator_identity_check,
    operator_witness,
    twisted,
    twisted_sum,
    twisted_term,
)
from tdhom.errors import ShapeError, TdhomError
from tdhom.linalg import (
    BasedSpace,
    Permutation,
    all_permutations,
    gather,
    table_sum,
)
from tdhom.maps import MultilinearMap, signed, term_sum
from td_oracle import enumerated_td_skew, factored_term


def unit(C, target, label_t, label_c):
    return HomElement.matrix_unit(C, target, target.index(label_t),
                                  C.space.index(label_c))


@pytest.fixture(scope="module")
def sl2():
    return corpus.load("sl2")


@pytest.fixture(scope="module")
def tab2():
    return corpus.get_coalgebra("tensor-ab-2")


class TestHomElement:
    def test_arith(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a")
        g = unit(tab2, sl2.space, "f", "b")
        s = f.add(g.scale(Fraction(3, 2)))
        assert s.coefficient(sl2.space.index("e"), tab2.space.index("a")) == 1
        assert s.coefficient(sl2.space.index("f"), tab2.space.index("b")) == Fraction(3, 2)
        assert f.sub(f).is_zero() if hasattr(f, "sub") else f.add(f.scale(-1)).is_zero()

    def test_value_on(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a")
        assert f.value_on(tab2.space.index("a")) == {sl2.space.index("e"): Fraction(1)}
        assert f.value_on(tab2.space.index("b")) == {}

    def test_matrix_units_span(self, sl2, tab2):
        units = matrix_units(tab2, sl2.space)
        assert len(units) == sl2.space.dim * tab2.dim
        seen = {next(iter(u.entries)) for u in units}
        assert len(seen) == len(units)


class TestInterchange:
    def test_single_is_f(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a").add(
            unit(tab2, sl2.space, "h", "bb").scale(2))
        m = interchange([f])
        assert m.arity == 1
        for (tup, out), q in m.entries.items():
            assert f.coefficient(out, tup[0]) == q
        assert len(m.entries) == len(f.entries)

    def test_pair_hand_value(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a")
        g = unit(tab2, sl2.space, "f", "b")
        m = interchange([f, g])
        ia, ib = tab2.space.index("a"), tab2.space.index("b")
        # e (x) f has flat index 0*3+1 in L (x) L
        assert m.entries == {((ia, ib), 1): Fraction(1)}

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            interchange([])


def _compose_hom(f, zeta, A):
    """f . zeta as a HomElement on A; zeta: {(c_index, a_index): q}."""
    entries = {}
    for (t, c), q in f.entries.items():
        for (zc, a), p in zeta.items():
            if zc != c:
                continue
            key = (t, a)
            entries[key] = entries.get(key, Fraction(0)) + q * p
    return HomElement(A, f.target, entries)


def _post_hom(psi, f, B):
    """psi . f; psi: {(b_index, t_index): q} into the space B."""
    entries = {}
    for (t, c), q in f.entries.items():
        for (b, pt), p in psi.items():
            if pt != t:
                continue
            key = (b, c)
            entries[key] = entries.get(key, Fraction(0)) + q * p
    return HomElement(f.source, B, entries)


class TestNaturality:
    """Random linear source and target changes slide through the interchange
    map on both sides; checked entrywise at n=2 with dims at most 3."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_both_squares(self, data):
        C = corpus.get_coalgebra("exterior-ab")
        A = Coalgebra(BasedSpace("A", ("p", "q")), [])
        L = BasedSpace("L", ("e", "f", "h"))
        B = BasedSpace("B", ("u", "v"))
        q = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        hom = st.dictionaries(
            st.tuples(st.integers(0, L.dim - 1), st.integers(0, C.dim - 1)),
            q, max_size=5)
        f = HomElement(C, L, data.draw(hom))
        g = HomElement(C, L, data.draw(hom))
        zeta = data.draw(st.dictionaries(
            st.tuples(st.integers(0, C.dim - 1), st.integers(0, A.dim - 1)),
            q, max_size=4))
        psi = data.draw(st.dictionaries(
            st.tuples(st.integers(0, B.dim - 1), st.integers(0, L.dim - 1)),
            q, max_size=4))

        # source square: interchange after precomposition = transport of
        # interchange through zeta in each argument
        lhs = interchange([_compose_hom(f, zeta, A), _compose_hom(g, zeta, A)])
        base = interchange([f, g])
        rhs_entries = {}
        for (tup, out), val in base.entries.items():
            c1, c2 = tup
            for (zc1, a1), p1 in zeta.items():
                if zc1 != c1:
                    continue
                for (zc2, a2), p2 in zeta.items():
                    if zc2 != c2:
                        continue
                    key = ((a1, a2), out)
                    rhs_entries[key] = rhs_entries.get(key, Fraction(0)) + val * p1 * p2
        rhs = MultilinearMap((A.space, A.space), base.codomain, rhs_entries)
        assert lhs == rhs

        # target square: interchange of pushed-forward elements = tensor
        # square of psi applied to the interchange output
        lhs2 = interchange([_post_hom(psi, f, B), _post_hom(psi, g, B)])
        rhs2_entries = {}
        for (tup, out), val in base.entries.items():
            t1, t2 = out // L.dim, out % L.dim
            for (b1, p1), q1 in psi.items():
                if p1 != t1:
                    continue
                for (b2, p2), q2 in psi.items():
                    if p2 != t2:
                        continue
                    key = (tup, b1 * B.dim + b2)
                    rhs2_entries[key] = rhs2_entries.get(key, Fraction(0)) + val * q1 * q2
        rhs2 = MultilinearMap((C.space, C.space), lhs2.codomain, rhs2_entries)
        assert lhs2 == rhs2


def _permute_target_legs(m, sigma, dim):
    """Push the tensor factors of the codomain through sigma; all factors
    share one dimension."""
    n = sigma.size
    table = {}
    for (tup, flat), q in m.entries.items():
        digits = []
        rest = flat
        for _ in range(n):
            digits.append(rest % dim)
            rest //= dim
        digits.reverse()
        moved = gather(sigma, tuple(digits))
        out = 0
        for d in moved:
            out = out * dim + d
        table[(tup, out)] = q
    return MultilinearMap(m.domain, m.codomain, table)


class TestSymmetryLemma:
    """Rearranging the Hom arguments of the interchange equals rearranging
    coalgebra legs by the inverse and target legs by the permutation."""

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_all_sigma_s3(self, data):
        C = corpus.get_coalgebra("tensor-x-3")
        L = BasedSpace("L", ("e", "f", "h"))
        q = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        hom = st.dictionaries(
            st.tuples(st.integers(0, L.dim - 1), st.integers(0, C.dim - 1)),
            q, max_size=4)
        fs = [HomElement(C, L, data.draw(hom)) for _ in range(3)]
        base = interchange(fs)
        for sigma in all_permutations(3):
            lhs = interchange([fs[sigma(i)] for i in range(3)])
            rhs = _permute_target_legs(
                base.precompose_perm(sigma.inverse()), sigma, L.dim)
            assert lhs == rhs, sigma.images


class TestInduced:
    def test_sl2_hand_values(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a")
        g = unit(tab2, sl2.space, "f", "b")
        out = induced(sl2.bracket, tab2).apply([f, g])
        ih = sl2.space.index("h")
        assert out.entries == {(ih, tab2.space.index("ab")): Fraction(1)}
        # single letters have no splits, so nothing at a; nothing at ba either
        assert out.coefficient(ih, tab2.space.index("a")) == 0
        assert out.coefficient(ih, tab2.space.index("ba")) == 0

    def test_arity_one_is_composition(self, sl2, tab2):
        phi = MultilinearMap((sl2.space,), sl2.space,
                             {((0,), 1): Fraction(2), ((2,), 2): Fraction(1)})
        f = unit(tab2, sl2.space, "e", "ab").add(
            unit(tab2, sl2.space, "h", "b").scale(3))
        out = induced(phi, tab2).apply([f])
        # phi . f as matrices
        expect = {}
        for (t, c), qv in f.entries.items():
            for (tup, o), p in phi.entries.items():
                if tup[0] == t:
                    key = (o, c)
                    expect[key] = expect.get(key, Fraction(0)) + qv * p
        assert out.entries == expect

    def test_zero_coproduct_kills_higher_arity(self, sl2):
        Z = corpus.get_coalgebra("zero-ab")
        op = induced(sl2.bracket, Z)
        for f in matrix_units(Z, sl2.space):
            for g in matrix_units(Z, sl2.space):
                assert op.apply([f, g]).is_zero()
        assert op.materialize().is_zero()

    def test_arity_zero_rejected(self, tab2):
        V = BasedSpace("V", ("x",))
        with pytest.raises(ShapeError):
            induced(MultilinearMap((), V, {((), 0): Fraction(1)}), tab2)


class TestTwisted:
    def test_swap_hand_values(self, sl2, tab2):
        f = unit(tab2, sl2.space, "e", "a")
        g = unit(tab2, sl2.space, "f", "b")
        out = twisted(sl2.bracket, tab2, Permutation((1, 0))).apply([f, g])
        ih = sl2.space.index("h")
        # the twist reads b for f and a for g, which only the word ba provides
        assert out.entries == {(ih, tab2.space.index("ba")): Fraction(1)}

    def test_identity_twist_matches_induced(self, sl2, tab2):
        a = induced(sl2.bracket, tab2).materialize()
        b = twisted(sl2.bracket, tab2, Permutation.identity(2)).materialize()
        assert a == b

    def test_size_mismatch(self, sl2, tab2):
        with pytest.raises(ShapeError):
            twisted(sl2.bracket, tab2, Permutation.identity(3))

    @pytest.mark.parametrize("cname", ["tensor-x-3", "symmetric-xy-2", "zero-ab"])
    def test_cocommutative_collapse(self, cname):
        C = corpus.get_coalgebra(cname)
        assert symmetry_class(C) == COCOMMUTATIVE
        vol = corpus.load("vol3")
        plain = induced(vol, C).materialize()
        for sigma in all_permutations(3):
            assert twisted(vol, C, sigma).materialize() == plain

    def test_noncocommutative_differs(self, sl2, tab2):
        assert symmetry_class(tab2) != COCOMMUTATIVE
        swap = Permutation((1, 0))
        assert twisted(sl2.bracket, tab2, swap).materialize() \
            != induced(sl2.bracket, tab2).materialize()


class TestInducedSymmetryLemma:
    """Precomposing the base map with sigma induces the same operator as
    twisting by sigma and rearranging the Hom arguments."""

    @pytest.mark.parametrize("cname", ["tensor-ab-2", "exterior-ab",
                                       "symmetric-xy-2", "zero-ab",
                                       "tensor-ab-3"])
    def test_arity_two(self, sl2, cname):
        C = corpus.get_coalgebra(cname)
        for sigma in all_permutations(2):
            direct = induced(sl2.bracket.precompose_perm(sigma), C).materialize()
            assert direct == twisted_term(sl2.bracket, C, sigma), (cname, sigma.images)

    @pytest.mark.parametrize("cname", ["tensor-x-3", "exterior-ab",
                                       "tensor-ab-3"])
    def test_arity_three(self, cname):
        C = corpus.get_coalgebra(cname)
        vol = corpus.load("vol3")
        for sigma in all_permutations(3):
            direct = induced(vol.precompose_perm(sigma), C).materialize()
            assert direct == twisted_term(vol, C, sigma), (cname, sigma.images)


class TestCompose:
    def test_matches_literal_composition(self, sl2, tab2):
        op = induced(sl2.bracket, tab2)
        for slot in (0, 1):
            comp = compose_induced(op, op, slot)
            direct = induced(sl2.bracket.compose_at(sl2.bracket, slot), tab2)
            assert comp.materialize() == direct.materialize()
            # literal evaluation on a spanning set of triples
            units = matrix_units(tab2, sl2.space)[:6]
            for f, g, h in itertools.islice(itertools.product(units, repeat=3), 40):
                args = [f, g, h]
                inner_args = args[slot:slot + 2]
                outer_args = args[:slot] + [op.apply(inner_args)] + args[slot + 2:]
                assert comp.apply(args).entries == op.apply(outer_args).entries

    def test_identity_inner_returns_same(self, sl2, tab2):
        op = induced(sl2.bracket, tab2)
        ident = MultilinearMap((sl2.space,), sl2.space,
                               {((i,), i): Fraction(1) for i in range(3)})
        comp = compose_induced(op, induced(ident, tab2), 0)
        assert comp.materialize() == op.materialize()

    def test_twisted_refused(self, sl2, tab2):
        op = induced(sl2.bracket, tab2)
        tw = twisted(sl2.bracket, tab2, Permutation((1, 0)))
        with pytest.raises(TdhomError):
            compose_induced(op, tw, 0)
        with pytest.raises(TdhomError):
            compose_induced(tw, op, 0)

    def test_zero_base_map_composes(self, tab2):
        # the abelian bracket is the zero map: its operator keeps no part,
        # and still composes, applies, materializes and vanishes
        ab = corpus.load("abelian2")
        op = induced(ab.bracket, tab2)
        assert op.parts == {}
        comp = compose_induced(op, op, 1)
        assert comp.parts == {} and comp.vanishes()
        assert comp.domain == (ab.space,) * 3 and comp.codomain is ab.space
        units = matrix_units(tab2, ab.space)
        for args in itertools.product(units, repeat=3):
            out = comp.apply(list(args))
            assert out.is_zero() and out.target is ab.space
        table = comp.materialize()
        assert table.is_zero() and table.domain == (ab.space,) * 3

    @pytest.mark.parametrize("cname", ["tensor-ab-2", "symmetric-xy-2"])
    def test_nonzero_twisted_part_refused(self, sl2, cname):
        # read off the parts, not off reduced(): over the symmetric square
        # the sum below vanishes, yet it keeps a nonzero swap part
        C = corpus.get_coalgebra(cname)
        op = induced(sl2.bracket, C)
        mixed = op.sub(twisted(sl2.bracket, C, Permutation((1, 0))))
        assert len(mixed.parts) == 2
        with pytest.raises(TdhomError):
            compose_induced(mixed, op, 0)
        with pytest.raises(TdhomError):
            compose_induced(op, mixed, 1)

    def test_cancelled_parts_count_as_untwisted(self, sl2, tab2):
        # a twisted part that cancels is dropped, so what is left composes;
        # an operator with no part left composes as the zero map
        op = induced(sl2.bracket, tab2)
        tw = twisted(sl2.bracket, tab2, Permutation((1, 0)))
        assert compose_induced(op.add(tw).sub(tw), op, 0).materialize() \
            == compose_induced(op, op, 0).materialize()
        empty = tw.sub(tw)
        assert empty.parts == {}
        comp = compose_induced(empty, op, 0)
        assert comp.parts == {} and comp.domain == (sl2.space,) * 3

    def test_codomain_mismatch(self, sl2, tab2):
        op = induced(sl2.bracket, tab2)
        W = BasedSpace("W", ("p",))
        other = induced(MultilinearMap((W,), W, {((0,), 0): Fraction(1)}), tab2)
        with pytest.raises(ShapeError):
            compose_induced(op, other, 0)

    def test_different_coalgebras_refused(self, sl2, tab2):
        other = corpus.get_coalgebra("exterior-ab")
        with pytest.raises(ShapeError):
            compose_induced(induced(sl2.bracket, tab2),
                            induced(sl2.bracket, other), 0)


class TestTdSkew:
    @pytest.mark.parametrize("mname", sorted(corpus.skew_maps()))
    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    def test_skew_maps_pass_everywhere(self, mname, cname):
        m = corpus.skew_maps()[mname]
        result = check_td_skew(m, corpus.get_coalgebra(cname))
        assert result.ok, (mname, cname, result.describe())

    def test_symmetric_map_fails_with_witness(self, tab2):
        product = corpus.load("poisson3").product
        result = check_td_skew(product, tab2)
        assert not result.ok
        assert result.witness is not None
        # the witness names the permutation and the failing units
        assert result.witness.args[0] == (1, 0)

    def test_arity_one_trivial(self, sl2, tab2):
        phi = MultilinearMap((sl2.space,), sl2.space, {((0,), 0): Fraction(1)})
        assert check_td_skew(phi, tab2).ok

    def test_arguments_on_different_spaces_refused(self, tab2):
        # swapping the arguments of a map on (V, W) gives an operator on
        # (W, V), which no twist of the map can equal
        V = BasedSpace("V", ("v",))
        W = BasedSpace("W", ("a", "b", "c"))
        phi = MultilinearMap((V, W), W, {((0, 2), 0): Fraction(1)})
        with pytest.raises(ShapeError, match="share one space"):
            check_td_skew(phi, tab2)

    def test_arity_five_matches_enumeration(self):
        # no arity bound: five-letter words keep Delta^(5) alive, and the
        # symmetric map fails at the first transposition of the enumeration
        V = BasedSpace("V", ("x",))
        C = build_tensor_coalgebra(V, 5)
        big = MultilinearMap((V,) * 5, V, {((0,) * 5, 0): Fraction(1)})
        result = check_td_skew(big, C)
        assert result == enumerated_td_skew(big, C)
        assert not result.ok
        assert result.witness.args[0] == (0, 1, 2, 4, 3)
        zero = MultilinearMap.zero((V,) * 5, V)
        assert check_td_skew(zero, C) == enumerated_td_skew(zero, C) \
            == CheckResult("td-skew", True, detail="120 permutations")


class TestMaterialized:
    def test_argument_permute_composes(self, sl2, tab2):
        mat = induced(sl2.bracket, tab2).materialize()
        for s in all_permutations(2):
            for r in all_permutations(2):
                ab = mat.argument_permute(s).argument_permute(r)
                assert ab == mat.argument_permute(s.then(r))


# one- and two-dimensional argument and target spaces: with a single basis
# vector every base map is a multiple of one entry, so sums of twisted terms
# cancel through dependent D_rho often
SMALL_SPACES = (BasedSpace("U", ("u",)), BasedSpace("V", ("v", "w")))
ORACLE_COALGEBRAS = dict(
    corpus.coalgebras(),
    T4ab=build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 4))
# distinct leg orders give dependent but nonzero D_rho here
DEPENDENT_TWISTS = ("exterior-ab", "symmetric-xy-2", "tensor-x-3")


def base_maps(domain, codomain):
    keys = st.tuples(
        st.tuples(*[st.integers(0, space.dim - 1) for space in domain]),
        st.integers(0, codomain.dim - 1))
    return st.dictionaries(keys, st.sampled_from((-1, 1, 2)), min_size=1,
                           max_size=3).map(
        lambda entries: MultilinearMap(domain, codomain, entries))


def legs_table(C, n, rho):
    """D_rho: the n-fold coproduct with its legs permuted by rho."""
    return {(c, gather(rho, legs)): q for c, expansion in C.iterated_terms(n).items()
            for legs, q in expansion}


SKEW_COALGEBRAS = dict(
    corpus.coalgebras(),
    T5x=build_tensor_coalgebra(BasedSpace("X", ("x",)), 5))


def symmetrized(f, perms, signed):
    """The sum of f . sigma over perms, each times its sign when signed."""
    return table_sum(f.precompose_perm(p).scale(p.sign() if signed else 1)
                     for p in perms)


@st.composite
def skew_candidates(draw):
    """(phi, C): a map of arity 1-5 on one space, raw, skew, symmetric or
    skew only in its last k slots (2 <= k < n), and a coalgebra to check it
    over, mostly one whose Delta^(n) lives, where the identity bites."""
    n = draw(st.integers(1, 5))
    space = draw(st.sampled_from(SMALL_SPACES))
    target = draw(st.sampled_from(SMALL_SPACES))
    phi = draw(base_maps((space,) * n, target))
    kind = draw(st.sampled_from(("raw", "skew", "symmetric", "tail")))
    if kind in ("skew", "symmetric"):
        phi = symmetrized(phi, all_permutations(n), kind == "skew")
    elif kind == "tail" and n >= 3:
        k = draw(st.integers(2, n - 1))
        tails = [Permutation(list(range(n - k)) + [n - k + i for i in p.images])
                 for p in all_permutations(k)]
        phi = symmetrized(phi, tails, True)
    names = sorted(name for name, C in SKEW_COALGEBRAS.items()
                   if C.iterated_terms(n))
    if draw(st.integers(0, 3)) == 0:
        names = sorted(SKEW_COALGEBRAS)
    return phi, SKEW_COALGEBRAS[draw(st.sampled_from(names))]


class TestTdSkewOracle:
    """check_td_skew on the adjacent transpositions against the enumeration
    of all n! permutations it replaced (tests/td_oracle.py)."""

    @given(skew_candidates())
    @settings(max_examples=300, deadline=None)
    def test_generators_decide_like_the_enumeration(self, case):
        phi, C = case
        assert check_td_skew(phi, C) == enumerated_td_skew(phi, C)


@st.composite
def term_sums(draw):
    """(C, lhs terms, rhs terms).  A term (phi, sigma, pi, sign) stands for
    sign times twisted(phi, C, sigma) with its arguments rearranged by pi.

    Besides fresh terms, a term may restate another one: a twin keeps its
    base map and rearrangement under a random twist, with the sign that
    makes it equal wherever the two D_rho agree up to sign; a rerouted copy
    is the same operator written (phi . pi, pi^-1 then sigma, identity).
    The right side is either fresh terms or a restatement of each left
    term, so the identities hold often, and often only because distinct
    D_rho depend.
    """
    # the coalgebras whose D_rho depend come up twice as often
    C = ORACLE_COALGEBRAS[draw(st.sampled_from(
        sorted(ORACLE_COALGEBRAS) + list(DEPENDENT_TWISTS)))]
    n = draw(st.sampled_from((2, 2, 3)))
    often = st.sampled_from((True, True, False))
    V, W = draw(st.sampled_from(SMALL_SPACES)), draw(st.sampled_from(SMALL_SPACES))
    perms = st.sampled_from(all_permutations(n))
    signs = st.sampled_from((1, -1))

    def fresh():
        return draw(base_maps([V] * n, W)), draw(perms), draw(perms), draw(signs)

    def restated(term):
        phi, sigma, pi, sign = term
        if draw(often):
            other = draw(perms)
            mine = legs_table(C, n, pi.inverse().then(sigma))
            theirs = legs_table(C, n, pi.inverse().then(other))
            if theirs == {k: -q for k, q in mine.items()}:
                sign = -sign
            elif theirs != mine:
                sign = draw(signs)
            return phi, other, pi, sign
        return (phi.precompose_perm(pi), pi.inverse().then(sigma),
                Permutation.identity(n), sign)

    lhs = [fresh()]
    for _ in range(draw(st.integers(0, 2))):
        lhs.append(restated(draw(st.sampled_from(lhs))) if draw(st.booleans())
                   else fresh())
    if draw(often):
        rhs = [restated(term) for term in lhs]
    else:
        rhs = [fresh() for _ in range(draw(st.integers(0, 2)))]
    return C, lhs, rhs


def operator_sum(C, terms):
    return table_sum(twisted(phi, C, sigma).argument_permute(pi)
                     .scale(sign) for phi, sigma, pi, sign in terms)


def materialized_sum(C, terms):
    return table_sum(twisted(phi, C, sigma).materialize().argument_permute(pi)
                     .scale(sign) for phi, sigma, pi, sign in terms)


class TestFactoredOracle:
    """Operators decided on their parts against the materialized tables
    they replace."""

    @given(term_sums())
    @settings(max_examples=300, deadline=None)
    def test_matches_materialized_sum(self, case):
        C, lhs_terms, rhs_terms = case
        lhs, lhs_table = operator_sum(C, lhs_terms), materialized_sum(C, lhs_terms)
        if rhs_terms:
            rhs, rhs_table = operator_sum(C, rhs_terms), materialized_sum(C, rhs_terms)
        else:
            rhs, rhs_table = lhs.scale(0), lhs_table.scale(0)
        total = lhs.sub(rhs)
        assert total.vanishes() == total.materialize().is_zero()
        assert lhs.materialize() == lhs_table
        assert lhs.materialize().domain == lhs_table.domain
        assert rhs.materialize() == rhs_table
        assert total.materialize() == lhs_table.sub(rhs_table)
        found = lhs_table.first_difference(rhs_table)
        result = operator_identity_check("oracle", lhs, rhs)
        assert result.ok == (found is None)
        assert result.witness == (
            None if found is None else operator_witness(lhs_table, found))

    @pytest.mark.parametrize("cname,sign", [("exterior-ab", 1),
                                            ("symmetric-xy-2", -1)])
    def test_dependent_twists_fold_onto_one_pivot(self, sl2, cname, sign):
        # the swapped coproduct is -Delta on the exterior square and +Delta
        # on the symmetric one, so the two parts cancel with nonzero maps
        C = corpus.get_coalgebra(cname)
        swap = Permutation((1, 0))
        op = induced(sl2.bracket, C).add(
            twisted(sl2.bracket, C, swap).scale(sign))
        assert len(op.parts) == 2
        assert op.reduced() == {}
        assert op.vanishes() and op.materialize().is_zero()
        kept = op.add(induced(sl2.bracket, C))
        assert kept.reduced() == {Permutation.identity(2): sl2.bracket}

    def test_zero_coproduct_leaves_nothing(self, sl2):
        op = induced(sl2.bracket, corpus.get_coalgebra("zero-ab"))
        assert op.parts and op.vanishes()

    def test_shape_mismatch(self, sl2, tab2):
        vol = corpus.load("vol3")
        with pytest.raises(ShapeError):
            induced(sl2.bracket, tab2).add(induced(vol, tab2))
        with pytest.raises(ShapeError):
            induced(sl2.bracket, tab2).add(induced(
                sl2.bracket, corpus.get_coalgebra("exterior-ab")))
        with pytest.raises(ShapeError):
            induced(sl2.bracket, tab2).argument_permute(
                Permutation.identity(3))


class TestFactoringLaws:
    """The rules the parts representation rests on, on random maps."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_twisted_term_is_the_precomposed_map_induced(self, cname, n, data):
        C = corpus.get_coalgebra(cname)
        domain = [data.draw(st.sampled_from(SMALL_SPACES)) for _ in range(n)]
        phi = data.draw(base_maps(domain, data.draw(st.sampled_from(SMALL_SPACES))))
        sigma = data.draw(st.sampled_from(all_permutations(n)))
        direct = induced(phi.precompose_perm(sigma), C).materialize()
        assert twisted_term(phi, C, sigma) == direct
        assert factored_term(phi, C, sigma).materialize() == direct
        assert list(factored_term(phi, C, sigma).parts) in (
            [], [Permutation.identity(n)])

    @given(term_sums(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_twisted_sum_is_the_classical_sum_induced(self, case, data):
        C, terms, _ = case
        # each drawn term's base map and rearrangement, an identity one
        # sometimes written as no rearrangement
        identity = Permutation.identity(terms[0][0].arity)
        classical = [(phi, None if pi == identity and data.draw(st.booleans())
                      else pi, sign) for phi, _sigma, pi, sign in terms]
        total = term_sum(classical)
        op = twisted_sum(classical, C)
        assert op.parts == ({} if total.is_zero() else {identity: total})
        assert op.domain == total.domain
        per_term = table_sum(
            signed(induced(f, C) if p is None else factored_term(f, C, p), sign)
            for f, p, sign in classical).materialize()
        assert op.materialize() == per_term
        assert op.materialize().domain == per_term.domain

    @given(term_sums(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_argument_permutes_compose(self, case, data):
        C, terms, _ = case
        op = operator_sum(C, terms)
        perms = all_permutations(op.arity)
        pi = data.draw(st.sampled_from(perms))
        tau = data.draw(st.sampled_from(perms))
        twice = op.argument_permute(pi).argument_permute(tau)
        once = op.argument_permute(pi.then(tau))
        assert twice.parts == once.parts
        assert twice.domain == once.domain
        assert once.materialize() == \
            op.materialize().argument_permute(pi).argument_permute(tau)
