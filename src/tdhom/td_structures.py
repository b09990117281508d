"""Twisted-domain algebra checkers on Hom(C, L).

The operator induced by a Lie bracket is not literally skew and does not
literally satisfy the cyclic identity; each rearranged term picks up a
twist routing arguments to permuted coproduct legs.  The checkers here
verify those twisted identities, plus the two degenerate regimes: over a
cocommutative coalgebra the twists are invisible and a genuine Lie
algebra appears, and over a skew-cocommutative one the induced product
turns symmetric and satisfies Jordan-style cube identities instead.
"""

from .algebra import (
    JACOBI_ROTATIONS,
    SWAP,
    SWAP_FIRST_TWO,
    LieModule,
    check_lie,
    check_module,
    check_poisson,
    leibniz_identity,
)
from .checks import CheckResult, Witness, combine, require
from .coalgebra import (
    COCOMMUTATIVE,
    SKEW_COCOMMUTATIVE,
    check_coassociativity,
    symmetry_class,
)
from .convolution import (
    check_td_skew,
    induced,
    matrix_units,
    operator_identity_check,
    twisted,
    twisted_sum,
    unit_label,
)
from .errors import AxiomError, ShapeError
from .linalg import table_sum


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
        self.module_space = module.space
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


def _td_jacobi_sum(bracket, C):
    """The cyclic identity's three summands: the plain nested operator,
    then its twisted rearrangements along the rotation and its square."""
    nested = bracket.compose_at(bracket, 1)
    return twisted_sum([(nested, None, 1)]
                       + [(nested, r, 1) for r in JACOBI_ROTATIONS], C)


def _untwisted_jacobi_check(name, bracket, C):
    """The plain cyclic identity for the induced bracket: the nested
    operator plus its untwisted rearrangements along the rotation and its
    square sums to zero."""
    nested = induced(bracket.compose_at(bracket, 1), C)
    total = table_sum([nested] + [nested.argument_permute(r) for r in JACOBI_ROTATIONS])
    return operator_identity_check(name, total, total.scale(0))


def check_td_lie(lie, C):
    """Twisted skew symmetry and the twisted cyclic identity for the
    operator induced by a Lie bracket."""
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    skew = check_td_skew(lie.bracket, C)
    total = _td_jacobi_sum(lie.bracket, C)
    jacobi = operator_identity_check("td-jacobi", total, total.scale(0))
    return combine("td-lie", [skew, jacobi])


def check_cocommutative_collapse(lie, C):
    """Over a cocommutative coalgebra the twists drop out: the induced
    bracket is skew and satisfies the plain cyclic identity."""
    if symmetry_class(C) != COCOMMUTATIVE:
        raise AxiomError(
            "collapse needs a cocommutative coalgebra; %s is %s"
            % (C.space.name, symmetry_class(C)))
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    plain = induced(lie.bracket, C)
    skew = operator_identity_check(
        "collapse-skew", plain.argument_permute(SWAP), plain.scale(-1))
    jacobi = _untwisted_jacobi_check("collapse-jacobi", lie.bracket, C)
    return combine("cocommutative-collapse", [skew, jacobi])


def check_jordan(lie, C):
    """Over a skew-cocommutative coalgebra the induced bracket becomes a
    commutative product; alongside the cyclic identity it then satisfies
    the cube identities (ff)f = 0 and ((ff)g)f + (ff)(gf) = 0.
    jordan-symmetry decides fg = gf for all f, g at once, on the operator;
    tests keep the check on matrix-unit pairs as the element-level oracle."""
    if not _skew_coproduct(C):
        raise AxiomError(
            "Jordan checks need a skew-cocommutative coalgebra; %s is %s"
            % (C.space.name, symmetry_class(C)))
    require(check_lie(lie), "precondition failed (Lie axioms): ")
    op = induced(lie.bracket, C)
    sym = operator_identity_check(
        "jordan-symmetry", op.argument_permute(SWAP), op)
    jacobi = _untwisted_jacobi_check("jordan-jacobi", lie.bracket, C)

    return combine("jordan", [
        sym,
        jacobi,
        _jordan_cube(op, C),
        _jordan_four_term(op, C),
    ])


def _element_witness(op, C, args, value):
    """Witness from a HomElement that should have vanished."""
    (t, c), q = sorted(value.entries.items())[0]
    L = op.domain[0]
    labels = tuple(_unit_name(C, L, f) for f in args)
    coord = "%s@%s" % (op.codomain.labels[t], C.space.labels[c])
    return Witness(labels, ((coord, q),))


def _unit_name(C, space, f):
    (t, c) = next(iter(f.entries))
    return unit_label(C, space, t, c)


def _jordan_cube(op, C):
    """(ff)f = 0 on every basis element."""
    for f in matrix_units(C, op.domain[0]):
        cube = op.apply([op.apply([f, f]), f])
        if not cube.is_zero():
            return CheckResult("jordan-cube", False,
                               _element_witness(op, C, (f,), cube))
    return CheckResult("jordan-cube", True)


def _jordan_four_term(op, C):
    """((ff)g)f + (ff)(gf) = 0 on all basis pairs."""
    units = matrix_units(C, op.domain[0])
    for f in units:
        square = op.apply([f, f])
        for g in units:
            total = op.apply([op.apply([square, g]), f]).add(
                op.apply([square, op.apply([g, f])]))
            if not total.is_zero():
                return CheckResult("jordan-four-term", False,
                                   _element_witness(op, C, (f, g), total))
    return CheckResult("jordan-four-term", True)


def check_td_poisson(poisson, C):
    """Twisted Lie for the bracket, twisted commutativity for the product,
    and the twisted derivation identity tying them together."""
    require(check_poisson(poisson), "precondition failed (Poisson axioms): ")
    require(check_coassociativity(C), "precondition failed (coassociativity): ")
    lie_part = check_td_lie(poisson, C)

    prod = induced(poisson.product, C)
    commut = operator_identity_check(
        "td-commutativity",
        prod.argument_permute(SWAP),
        twisted(poisson.product, C, SWAP))

    # the classical Leibniz identity, each rearranged term twisted
    left, right = leibniz_identity(poisson.bracket, poisson.product)
    leibniz = operator_identity_check("td-leibniz", twisted_sum(left, C),
                                      twisted_sum(right, C))

    return combine("td-poisson", [lie_part, commut, leibniz])


def check_td_module(tdm):
    """Acting by a bracket equals acting twice minus the swap-twisted
    rearrangement of acting twice, as operators on Hom spaces."""
    require(check_lie(tdm.td.lie), "precondition failed (Lie axioms): ")
    require(check_module(tdm.module), "precondition failed (module axiom): ")
    C = tdm.coalgebra
    action = tdm.module.action
    nested = action.compose_at(action, 1)
    left = ((action.compose_at(tdm.td.lie.bracket, 0), None, 1),)
    right = ((nested, None, 1), (nested, SWAP_FIRST_TWO, -1))
    return operator_identity_check("td-module", twisted_sum(left, C),
                                   twisted_sum(right, C))
