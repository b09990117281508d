"""Pair axioms, their twisted forms, ring-linear cochains, the subcomplex.

Outside oracles used below: over the dual numbers the derivation space is
spanned by x d/dx, and x.(x d/dx) = 0, so a ring-linear functional must
send the generator into the span of x: dimension one of two.  For a free
rank-three module the third exterior power is free of rank one, so the
ring-linear skew 3-forms make up a copy of the 2-dimensional ring itself;
reversing the slot-3 reading cycle destroys exactly this space, which is
what pins the convention down.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdhom import corpus, lie_rinehart
from tdhom.checks import combine
from tdhom.coalgebra import build_tensor_coalgebra
from tdhom.cohomology import (
    AltCochain,
    TDCochain,
    alt_basis,
    ce_differential,
    td_differential_induced,
)
from tdhom.errors import AxiomError, GuardError, ShapeError
from tdhom.lie_rinehart import (
    LieRinehartPair,
    TDLRStructure,
    blinear_subspace,
    check_lr,
    check_subcomplex,
    check_td_lr,
)
from tdhom.linalg import BasedSpace, Permutation, RationalMatrix, solve
from tdhom.maps import MultilinearMap
from tdhom.td_structures import TDLieStructure, TDModuleStructure
from lr_oracle import (
    oracle_check_lr,
    oracle_check_td_lr,
    oracle_lr_results,
    oracle_td_lr_results,
)
from td_oracle import (
    factored_blinear_subspace,
    factored_check_subcomplex,
    factored_td_differential_induced,
    linearity_twist,
)

ONE = Fraction(1)
ZERO = Fraction(0)


def bad_derivation_pair():
    """Dual numbers with the action also hitting 1; derivations kill 1."""
    good = corpus.load("lr-dualnum")
    action = MultilinearMap([good.lie_space, good.ring_space], good.ring_space,
                            dict(good.action.entries) | {((0, 0), 0): ONE})
    return LieRinehartPair(good.lie_space, good.ring_space, good.bracket,
                           good.product, action, good.bmodule, check=False)


def free_rank3_pair():
    """Zero bracket and action, module free on three generators over the
    dual numbers; the only pair around whose degree-3 linear cochains
    survive, which makes it the convention probe."""
    B = BasedSpace("B", ("1", "x"))
    L = BasedSpace("L", ("u", "xu", "v", "xv", "w", "xw"))
    product = MultilinearMap([B, B], B, {((i, j), i + j): 1
                                         for i in range(2) for j in range(2)
                                         if i + j <= 1})
    scaling = {}
    for g in range(3):
        scaling[((0, 2 * g), 2 * g)] = 1
        scaling[((0, 2 * g + 1), 2 * g + 1)] = 1
        scaling[((1, 2 * g), 2 * g + 1)] = 1
    return LieRinehartPair(L, B, MultilinearMap.zero([L, L], L), product,
                           MultilinearMap.zero([L, B], B),
                           MultilinearMap([B, L], L, scaling), name="free3")


# the oracles' own materialization guard, lifted: the sweep prices the
# slot defects it builds, not what the oracles would materialize
LIFTED = 10 ** 12


class TestClassicalPair:
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    def test_corpus_pairs_pass(self, pname):
        r = check_lr(corpus.load(pname))
        assert r.ok, r.describe()
        assert r.detail == "10 checks"

    def test_derivation_failure(self):
        r = check_lr(bad_derivation_pair())
        assert not r.ok
        assert r.detail == "derivation"
        assert r.witness is not None

    def test_eager_constructor(self):
        bad = bad_derivation_pair()
        with pytest.raises(AxiomError, match="derivation"):
            LieRinehartPair(bad.lie_space, bad.ring_space, bad.bracket,
                            bad.product, bad.action, bad.bmodule)

    def test_shape_validation(self):
        good = corpus.load("lr-dualnum")
        with pytest.raises(ShapeError, match="bracket"):
            LieRinehartPair(good.lie_space, good.ring_space, good.product,
                            good.product, good.action, good.bmodule,
                            check=False)
        with pytest.raises(ShapeError, match="action"):
            LieRinehartPair(good.lie_space, good.ring_space, good.bracket,
                            good.product, good.bmodule, good.bmodule,
                            check=False)

    def test_lie_view(self):
        from tdhom.algebra import check_lie
        assert check_lie(corpus.load("lr-derx3").lie).ok


class TestTwistedPair:
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    def test_corpus_structures_pass(self, pname, cname):
        s = TDLRStructure(corpus.load(pname), corpus.get_coalgebra(cname))
        r = check_td_lr(s)
        assert r.ok, (pname, cname, r.describe())
        assert r.detail == "5 checks"


PAIR_MAPS = ("bracket", "product", "action", "bmodule")


def perturbed_pair(rng):
    """A corpus pair, built unchecked, with one entry of one of its four
    maps moved by a small nonzero amount."""
    good = corpus.load(rng.choice(corpus.PAIR_NAMES))
    maps = {name: getattr(good, name) for name in PAIR_MAPS}
    name = rng.choice(PAIR_MAPS)
    m = maps[name]
    key = (tuple(rng.randrange(space.dim) for space in m.domain),
           rng.randrange(m.codomain.dim))
    entries = dict(m.entries)
    entries[key] = entries.get(key, ZERO) + rng.choice(
        (1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
    maps[name] = MultilinearMap(m.domain, m.codomain, entries)
    return LieRinehartPair(good.lie_space, good.ring_space, check=False,
                           **maps)


class TestIdentityTableOracle:
    """The pair identities decided from the one table, as maps and as
    twisted operators, against the explicit per-identity code they replaced
    (tests/lr_oracle.py): every sub-result, so also those that combine's
    first failure hides, and the combined result."""

    def test_perturbed_pairs(self, monkeypatch):
        folded = []

        def recording(name, results):
            folded.append(results)
            return combine(name, results)

        monkeypatch.setattr(lie_rinehart, "combine", recording)
        rng = random.Random(0)
        first_failures, failing = set(), set()
        for n in range(400):
            pair = perturbed_pair(rng)
            expected = oracle_lr_results(pair)
            assert check_lr.__wrapped__(pair) == oracle_check_lr(pair), n
            assert folded.pop() == expected, n
            failing.update(sub.name for sub in expected if not sub)
            for cname in corpus.coalgebra_names():
                s = TDLRStructure(pair, corpus.get_coalgebra(cname))
                r = check_td_lr.__wrapped__(s)
                assert r == oracle_check_td_lr(s), (n, cname)
                assert folded.pop() == oracle_td_lr_results(s), (n, cname)
                first_failures.add(r.detail)
        # the sweep reaches every twisted identity as the reported failure,
        # and the forms-agree identity, which check_lr reports last
        assert first_failures >= {"td-action-linearity", "td-module-leibniz",
                                  "td-module-leibniz-rewritten",
                                  "td-derivation", "td-bmodule-associative"}
        assert "leibniz-forms-agree" in failing


class TestSharedComposites:
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    def test_pair_builds_each_composite_once(self, pname, monkeypatch):
        # both checkers read the pair's ten composites; associativity
        # composes the product with itself twice more (30 calls besides
        # those when each identity was written out twice)
        good = corpus.load(pname)
        pair = LieRinehartPair(good.lie_space, good.ring_space, good.bracket,
                               good.product, good.action, good.bmodule,
                               check=False)
        calls = []
        compose_at = MultilinearMap.compose_at

        def counting(outer, inner, slot):
            if not (outer is pair.product and inner is pair.product):
                calls.append((outer, inner, slot))
            return compose_at(outer, inner, slot)

        monkeypatch.setattr(MultilinearMap, "compose_at", counting)
        assert check_lr(pair).ok
        assert check_td_lr(TDLRStructure(
            pair, corpus.get_coalgebra("tensor-ab-3"))).ok
        assert len(calls) == 10
        assert check_td_lr(TDLRStructure(
            pair, corpus.get_coalgebra("tensor-x-3"))).ok
        assert len(calls) == 10


class TestLinearityTwist:
    """The oracle's reading of the slot-i identity (tests/td_oracle.py)."""

    def test_first_slot_reads_straight(self):
        assert linearity_twist(1, 3) == Permutation([0, 1, 2, 3])

    def test_second_slot_swaps(self):
        assert linearity_twist(2, 2) == Permutation([1, 0, 2])

    def test_third_slot_cycles(self):
        assert linearity_twist(3, 3) == Permutation([2, 0, 1, 3])

    def test_slot_bounds(self):
        with pytest.raises(ValueError):
            linearity_twist(0, 2)
        with pytest.raises(ValueError):
            linearity_twist(3, 2)


class TestBlinearSubspace:
    def test_degree_zero_is_everything(self):
        s = TDLRStructure(corpus.load("lr-dualnum"),
                          corpus.get_coalgebra("tensor-ab-2"))
        assert blinear_subspace(0, s) == [[ONE, ZERO], [ZERO, ONE]]

    @pytest.mark.parametrize("cname", ["tensor-ab-2", "exterior-ab"])
    def test_dualnum_degree_one_span(self, cname):
        # the generator must land in the span of x
        s = TDLRStructure(corpus.load("lr-dualnum"),
                          corpus.get_coalgebra(cname))
        assert blinear_subspace(1, s) == [[ZERO, ONE]]

    def test_trivial_pair_keeps_everything(self):
        s = TDLRStructure(corpus.load("lr-trivial"),
                          corpus.get_coalgebra("tensor-ab-2"))
        dims = [len(blinear_subspace(n, s, 200000)) for n in range(4)]
        assert dims == [1, 3, 3, 1]

    def test_derx3_dims(self):
        s = TDLRStructure(corpus.load("lr-derx3"),
                          corpus.get_coalgebra("tensor-x-3"))
        assert [len(blinear_subspace(n, s, 50000)) for n in range(3)] \
            == [3, 2, 0]
        # two-letter exterior words have no triple coproduct, so the
        # degree-2 conditions are vacuous there
        s = TDLRStructure(corpus.load("lr-derx3"),
                          corpus.get_coalgebra("exterior-ab"))
        assert [len(blinear_subspace(n, s, 50000)) for n in range(3)] \
            == [3, 2, 3]

    def test_negative_degree(self):
        s = TDLRStructure(corpus.load("lr-dualnum"),
                          corpus.get_coalgebra("zero-ab"))
        with pytest.raises(ValueError):
            blinear_subspace(-1, s)

    def test_guard(self):
        # priced by the slot-1 defects it stacks, one per cochain: alt_dim 3
        s = TDLRStructure(corpus.load("lr-derx3"),
                          corpus.get_coalgebra("tensor-ab-3"))
        with pytest.raises(GuardError, match="size 3 exceeds limit 2"):
            blinear_subspace(2, s, 2)
        # three-letter words restore the cutting power tensor-x-3 has
        assert len(blinear_subspace(2, s, 3)) == len(blinear_subspace(2, s)) == 0
        # without Delta^(3) no defect is built, so nothing is priced
        s = TDLRStructure(corpus.load("lr-derx3"),
                          corpus.get_coalgebra("tensor-ab-2"))
        assert len(blinear_subspace(2, s, 0)) == 3

    def test_reading_direction_is_observable(self, monkeypatch):
        # four-letter words make the slot-3 cycle bite: the oracle's
        # straight reading of every slot keeps the free rank-one exterior
        # cube, as slot 1 alone does, and the flipped one empties it
        pair = free_rank3_pair()
        C = build_tensor_coalgebra(BasedSpace("V", ("x",)), 4)
        s = TDLRStructure(pair, C)
        kept = blinear_subspace(3, s)
        assert len(kept) == 2
        assert factored_blinear_subspace(3, s, LIFTED) == kept
        straight = linearity_twist
        monkeypatch.setattr("td_oracle.linearity_twist",
                            lambda i, n: straight(i, n).inverse())
        assert factored_blinear_subspace(3, s, LIFTED) == []


class TestSubcomplex:
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    @pytest.mark.parametrize("cname", ["tensor-ab-2", "tensor-x-3",
                                       "exterior-ab", "zero-ab"])
    def test_corpus_structures_pass(self, pname, cname):
        s = TDLRStructure(corpus.load(pname), corpus.get_coalgebra(cname))
        r = check_subcomplex(s, 2, guard_limit=2_000_000)
        assert r.ok
        assert r.detail.endswith("images checked")

    def test_image_counts(self):
        s = TDLRStructure(corpus.load("lr-trivial"),
                          corpus.get_coalgebra("tensor-ab-2"))
        assert check_subcomplex(s, 2, guard_limit=2_000_000).detail \
            == "7 images checked"
        s = TDLRStructure(corpus.load("lr-dualnum"),
                          corpus.get_coalgebra("zero-ab"))
        assert check_subcomplex(s, 2).detail == "4 images checked"

    def test_precondition(self):
        # three-letter words give the twisted derivation check teeth
        s = TDLRStructure(bad_derivation_pair(),
                          corpus.get_coalgebra("tensor-x-3"))
        with pytest.raises(AxiomError, match="precondition"):
            check_subcomplex(s, 1)

    def test_broken_pair_falsifies_theorem(self):
        # over two-letter words every arity-3 twisted check is vacuous, so
        # the broken derivation slips past the precondition and surfaces
        # as an image escaping the subspace: the functional sending the
        # generator to 1 is the differential of the unit and is not linear
        s = TDLRStructure(bad_derivation_pair(),
                          corpus.get_coalgebra("tensor-ab-2"))
        with pytest.raises(AxiomError, match="slot 1"):
            check_subcomplex(s, 1)

    def test_batched_solve_reports_first_escaping_image(self, monkeypatch):
        """With one vector cut from the degree-2 linear basis, the second and
        sixth degree-1 images escape; the one batched solve must report the
        image that one solve per image finds first, at slot 1."""
        s = TDLRStructure(corpus.load("lr-derx3"), corpus.get_coalgebra("zero-ab"))
        L, B = s.pair.lie_space, s.pair.ring_space
        full = lie_rinehart.blinear_subspace
        cut = full(2, s)[:2] + full(2, s)[3:]
        monkeypatch.setattr(lie_rinehart, "blinear_subspace",
                            lambda n, s, limit=None: cut if n == 2 else full(n, s, limit))
        span = RationalMatrix.from_columns(len(alt_basis(L, B, 2)), cut)
        M = s.pair.ring_module
        escaping = []
        for vec in full(1, s):
            image = ce_differential(AltCochain.from_vector(L, B, 1, vec), M)
            if solve(span, image.components()) is None:
                escaping.append(image)
        assert len(escaping) == 2
        # the two images differ only in sign, so the message names its
        # image by its nonzero values in key order
        named = ["[%s]" % ", ".join(str(q) for _key, q
                                    in sorted(image.values.items()))
                 for image in escaping]
        assert named[0] != named[1]
        expected = "image %s of a linear degree-1 cochain leaves the linear " \
            "subspace (slot 1 fails)" % named[0]
        with pytest.raises(AxiomError) as info:
            check_subcomplex(s, 1)
        assert str(info.value) == expected


# three-letter words on one and two letters, and four on one, where the
# slot-3 cycle matters
SWEEP_COALGEBRAS = (
    corpus.get_coalgebra("tensor-x-3"), corpus.get_coalgebra("tensor-ab-3"),
    build_tensor_coalgebra(BasedSpace("V", ("x",)), 4))


def bilinear(domain, codomain):
    keys = st.tuples(
        st.tuples(*[st.integers(0, space.dim - 1) for space in domain]),
        st.integers(0, codomain.dim - 1))
    return st.dictionaries(keys, st.sampled_from((-1, 1, 2, Fraction(1, 2))),
                           max_size=4).map(
        lambda entries: MultilinearMap(domain, codomain, entries))


@st.composite
def random_ring_tables(draw):
    """A pair, built unchecked, with random product and bmodule tables on
    a Lie space of dimension 2 or 3 and a ring of dimension 1 or 2, and
    zero bracket and action, which blinear_subspace does not read."""
    L = BasedSpace("L", ("x", "y", "z")[:draw(st.integers(2, 3))])
    B = BasedSpace("B", ("1", "t")[:draw(st.integers(1, 2))])
    return LieRinehartPair(
        L, B, MultilinearMap.zero([L, L], L), draw(bilinear([B, B], B)),
        MultilinearMap.zero([L, B], B), draw(bilinear([B, L], L)),
        check=False, name="random")


class TestFactoredSweepOracle:
    """The sweep read off classical maps, at its default guard, against the
    factored sweep it replaced (tests/td_oracle.py): same bases, images and
    detail lines."""

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    def test_blinear_subspace(self, pname, cname):
        s = TDLRStructure(corpus.load(pname), corpus.get_coalgebra(cname))
        for n in range(4):
            assert blinear_subspace(n, s) \
                == factored_blinear_subspace(n, s, LIFTED), n

    @given(random_ring_tables(), st.sampled_from(SWEEP_COALGEBRAS))
    @settings(max_examples=100, deadline=None)
    def test_blinear_subspace_on_random_tables(self, pair, C):
        # slot 1 decides every slot whatever the tables, axioms or not
        s = TDLRStructure(pair, C)
        for n in range(4):
            assert blinear_subspace(n, s) \
                == factored_blinear_subspace(n, s, LIFTED), n

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    def test_td_differential_induced(self, pname, cname):
        pair, C = corpus.load(pname), corpus.get_coalgebra(cname)
        M = pair.ring_module
        tdm = TDModuleStructure(TDLieStructure(M.base, C, check=False), M,
                                check=False)
        L, B = pair.lie_space, pair.ring_space
        for n in range(4):
            for key in alt_basis(L, B, n):
                F = TDCochain(AltCochain(L, B, n, {key: 1}), C)
                assert td_differential_induced(F, tdm).inducing \
                    == factored_td_differential_induced(
                        F, tdm, LIFTED).inducing, (n, key)

    @pytest.mark.parametrize("cname", corpus.coalgebra_names())
    @pytest.mark.parametrize("pname", corpus.PAIR_NAMES)
    def test_check_subcomplex(self, pname, cname):
        s = TDLRStructure(corpus.load(pname), corpus.get_coalgebra(cname))
        for maxdeg in range(4):
            assert check_subcomplex(s, maxdeg) \
                == factored_check_subcomplex(s, maxdeg, LIFTED), maxdeg

    def test_escaping_image_names_the_same_slot(self):
        # the broken derivation over two-letter words escapes at slot 1
        s = TDLRStructure(bad_derivation_pair(),
                          corpus.get_coalgebra("tensor-ab-2"))
        with pytest.raises(AxiomError) as new:
            check_subcomplex(s, 1)
        with pytest.raises(AxiomError) as old:
            factored_check_subcomplex(s, 1)
        assert str(new.value) == str(old.value)
