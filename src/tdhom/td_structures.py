"""Twisted-domain algebra checkers on Hom(C, L).

The operator induced by a Lie bracket is not literally skew and does not
literally satisfy the cyclic identity; each rearranged term picks up a
twist routing arguments to permuted coproduct legs.  The checkers here
verify those twisted identities, plus the two degenerate regimes: over a
cocommutative coalgebra the twists are invisible and a genuine Lie
algebra appears, and over a skew-cocommutative one the induced product
turns symmetric and satisfies Jordan-style cube identities instead,
which follow from its symmetry and the plain cyclic identity, so
check_jordan decides those two.  A twisted identity holds when its
classical one does (its sides differ by the classical defect induced),
so check_td_lie, check_td_module and check_td_poisson read theirs off
the kept classical preconditions and build no operator;
tests/td_oracle.py keeps the operator route as the oracle.  Collapse
and Jordan read theirs off
check_lie and, like check_td_lie and check_td_poisson, refuse a
non-coassociative C.
"""

from .algebra import (
    LieModule,
    check_lie,
    check_module,
    check_poisson,
)
from .checks import CheckResult, combine, require
from .coalgebra import (
    COCOMMUTATIVE,
    SKEW_COCOMMUTATIVE,
    check_coassociativity,
    symmetry_class,
)
from .errors import AxiomError, ShapeError


def _skew_coproduct(C):
    """Whether flipping the legs negates the coproduct.  The zero coproduct
    qualifies even though symmetry_class files it under cocommutative."""
    return C._store.is_zero() or symmetry_class(C) == SKEW_COCOMMUTATIVE


class TDLieStructure:
    """A Lie algebra together with a coalgebra: Hom(C, L) with the
    induced bracket."""

    def __init__(self, lie, coalgebra, check=True):
        self.lie = lie
        self.coalgebra = coalgebra
        if check:
            require(check_td_lie(lie, coalgebra), "twisted Lie identities fail: ")

    def __repr__(self):
        return "TDLieStructure(%s over %s)" % (
            self.lie.name, self.coalgebra.space.name)


class TDModuleStructure:
    """A Lie module viewed through the same coalgebra: Hom(C, L) acting on
    Hom(C, B)."""

    def __init__(self, td, module, check=True):
        if module.base.bracket != td.lie.bracket:
            raise ShapeError("module is over a different bracket")
        self.td = td
        self.module = module
        if check:
            require(check_td_module(self), "twisted module identity fails: ")

    @property
    def coalgebra(self):
        return self.td.coalgebra

    def __repr__(self):
        return "TDModuleStructure(%s)" % self.module.name


def self_module(td):
    """Hom(C, L) acting on itself through the induced bracket."""
    # the adjoint module axiom is the Jacobi identity, already certified
    adjoint = LieModule(td.lie, td.lie.space, td.lie.bracket, check=False,
                        name="%s-self" % td.lie.name)
    return TDModuleStructure(td, adjoint, check=False)


def _held(name, rows):
    """What combine folds from the named twisted rows, all passing."""
    return combine(name, [CheckResult(row, True) for row in rows])


def check_td_lie(lie, C):
    """Twisted skew symmetry and the twisted cyclic identity for the
    operator induced by a Lie bracket: check_lie requires the classical
    ones."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    return _held("td-lie", ("td-skew", "td-jacobi"))


def _degenerate(name, rows, lie, C):
    """The rows of collapse (the leg flip fixes Δ) or Jordan (it negates
    Δ): the induced bracket with its arguments swapped is minus itself or
    itself, and its nested operator plus its untwisted rotations is zero.
    A rotation of a coassociative C's Δ^(2), two flips, fixes it, so these
    are skew symmetry and Jacobi fed through Δ^(2), and hold once
    check_lie does.  A non-coassociative C is refused, as check_td_lie
    refuses it."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    return _held(name, rows)


def check_cocommutative_collapse(lie, C):
    """Over a cocommutative coalgebra the twists drop out: the induced
    bracket is skew and satisfies the plain cyclic identity."""
    if symmetry_class(C) != COCOMMUTATIVE:
        raise AxiomError(
            "collapse needs a cocommutative coalgebra; %s is %s"
            % (C.space.name, symmetry_class(C)))
    return _degenerate("cocommutative-collapse",
                       ("collapse-skew", "collapse-jacobi"), lie, C)


def check_jordan(lie, C):
    """Over a skew-cocommutative coalgebra the induced bracket becomes a
    commutative product: jordan-symmetry decides fg = gf and jordan-jacobi
    the plain cyclic identity a(bc) + b(ca) + c(ab) = 0, each for all
    arguments at once (_degenerate).

    Over a coassociative C, where the nested operator is the product taken
    twice, these two imply the cube identities (ff)f = 0 and
    ((ff)g)f + (ff)(gf) = 0 for every f and g, so those are not checked
    apart: a = b = c = f gives 3 f(ff) = 0, and (a, b, c) = (ff, g, f)
    gives (ff)(gf) + g(f(ff)) + f((ff)g) = 0, whose middle term is then
    zero; commutativity turns both into the cube identities.  On matrix
    units alone they cannot fail at all: a matrix unit f takes its values
    on the line of one basis vector e_t, and [e_t, e_t] = 0 makes ff = 0.
    tests/test_td_structures.py evaluates them on random combinations of
    matrix units as the oracle.
    """
    if not _skew_coproduct(C):
        raise AxiomError(
            "Jordan checks need a skew-cocommutative coalgebra; %s is %s"
            % (C.space.name, symmetry_class(C)))
    return _degenerate("jordan", ("jordan-symmetry", "jordan-jacobi"),
                       lie, C)


def check_td_poisson(poisson, C):
    """Twisted Lie for the bracket, twisted commutativity for the product,
    and the twisted derivation identity tying them together: check_poisson
    requires the classical ones."""
    require(check_poisson(poisson), "precondition failed (Poisson axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    return _held("td-poisson", ("td-lie", "td-commutativity", "td-leibniz"))


def check_td_module(tdm):
    """Acting by a bracket equals acting twice minus the swap-twisted
    rearrangement of acting twice, as operators on Hom spaces:
    check_module requires the module law, over td's bracket."""
    require(check_lie(tdm.td.lie), "precondition failed (Lie axioms): ")
    require(check_module(tdm.module), "precondition failed (module axiom): ")
    return CheckResult("td-module", True)
