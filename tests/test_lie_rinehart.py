"""Pair axioms, their twisted forms, ring-linear cochains, the subcomplex.

Outside oracles used below: over the dual numbers the derivation space is
spanned by x d/dx, and x.(x d/dx) = 0, so a ring-linear functional must
send the generator into the span of x: dimension one of two.  For a free
rank-three module the third exterior power is free of rank one, so the
ring-linear skew 3-forms make up a copy of the 2-dimensional ring itself;
reversing the slot-3 reading cycle destroys exactly this space, which is
what pins the convention down.
"""

from fractions import Fraction

import pytest

from tdhom import corpus, lie_rinehart
from tdhom.coalgebra import build_tensor_coalgebra
from tdhom.cohomology import AltCochain, TDCochain, alt_basis, td_differential_induced
from tdhom.errors import AxiomError, GuardError, ShapeError
from tdhom.lie_rinehart import (
    LieRinehartPair,
    TDLRStructure,
    blinear_subspace,
    check_lr,
    check_subcomplex,
    check_td_lr,
    linearity_twist,
)
from tdhom.linalg import BasedSpace, Permutation, RationalMatrix, solve
from tdhom.maps import MultilinearMap

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


class TestLinearityTwist:
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
        s = TDLRStructure(corpus.load("lr-derx3"),
                          corpus.get_coalgebra("tensor-ab-3"))
        with pytest.raises(GuardError):
            blinear_subspace(2, s)
        # three-letter words restore the cutting power tensor-x-3 has
        assert len(blinear_subspace(2, s, 50000)) == 0

    def test_reading_direction_is_observable(self, monkeypatch):
        # four-letter words make the slot-3 cycle bite: the straight
        # reading keeps the free rank-one exterior cube, the flipped one
        # empties it
        pair = free_rank3_pair()
        C = build_tensor_coalgebra(BasedSpace("V", ("x",)), 4)
        s = TDLRStructure(pair, C)
        assert len(blinear_subspace(3, s, 200000)) == 2
        straight = linearity_twist
        monkeypatch.setattr("tdhom.lie_rinehart.linearity_twist",
                            lambda i, n: straight(i, n).inverse())
        assert len(blinear_subspace(3, s, 200000)) == 0


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
        image that one solve per image finds first, with the same slot."""
        s = TDLRStructure(corpus.load("lr-derx3"), corpus.get_coalgebra("zero-ab"))
        L, B = s.pair.lie_space, s.pair.ring_space
        full = lie_rinehart.blinear_subspace
        cut = full(2, s)[:2] + full(2, s)[3:]
        monkeypatch.setattr(lie_rinehart, "blinear_subspace",
                            lambda n, s, limit=None: cut if n == 2 else full(n, s, limit))
        span = RationalMatrix.from_columns(len(alt_basis(L, B, 2)), cut)
        tdm = lie_rinehart._hom_module(s)
        escaping = []
        for vec in full(1, s):
            image = td_differential_induced(
                TDCochain(AltCochain.from_vector(L, B, 1, vec), s.coalgebra), tdm).inducing
            if solve(span, image.components()) is None:
                escaping.append(image)
        assert len(escaping) == 2
        reported = []
        slot_of = lie_rinehart._violating_slot

        def recording_slot(image, s, limit):
            reported.append(image)
            return slot_of(image, s, limit)

        monkeypatch.setattr(lie_rinehart, "_violating_slot", recording_slot)
        expected = "image %r of a linear degree-1 cochain leaves the linear " \
            "subspace (slot %d fails)" % (escaping[0], slot_of(escaping[0], s, None))
        with pytest.raises(AxiomError) as info:
            check_subcomplex(s, 1)
        assert reported == [escaping[0]]
        assert str(info.value) == expected
