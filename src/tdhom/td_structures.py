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
    PRODUCT_CYCLE,
    SWAP,
    SWAP_FIRST_TWO,
    check_lie,
    check_module,
    check_poisson,
)
from .checks import CheckResult, Witness, combine
from .coalgebra import (
    COCOMMUTATIVE,
    SKEW_COCOMMUTATIVE,
    check_coassociativity,
    symmetry_class,
)
from .convolution import (
    compose_induced,
    induced,
    matrix_units,
    operator_identity_check,
    twisted,
    twisted_term,
    unit_label,
)
from .errors import AxiomError, ShapeError
from .linalg import table_sum


def _require(result, what):
    if not result.ok:
        raise AxiomError(
            "precondition failed (%s): %s" % (what, result.describe()), result)


def _skew_coproduct(C):
    """Whether flipping the legs negates the coproduct.  The zero coproduct
    qualifies even though symmetry_class files it under cocommutative."""
    return not C.coproduct or symmetry_class(C) == SKEW_COCOMMUTATIVE


class TDLieStructure:
    """A Lie algebra together with a coalgebra, carrying the induced
    bracket operator on Hom(C, L)."""

    def __init__(self, lie, coalgebra, check=True):
        self.lie = lie
        self.coalgebra = coalgebra
        self.bracket_op = induced(lie.bracket, coalgebra)
        if check:
            result = check_td_lie(lie, coalgebra)
            if not result:
                raise AxiomError(
                    "twisted Lie identities fail: " + result.describe(), result)

    def __repr__(self):
        return "TDLieStructure(%s over %s)" % (
            self.lie.name, self.coalgebra.space.name)


class TDModuleStructure:
    """A Lie module viewed through the same coalgebra: Hom(C, B) with the
    induced action operator."""

    def __init__(self, td, module, check=True):
        if module.base.bracket != td.lie.bracket:
            raise ShapeError("module is over a different bracket")
        self.td = td
        self.module = module
        self.module_space = module.space
        self.action_op = induced(module.action, td.coalgebra)
        if check:
            result = check_td_module(self)
            if not result:
                raise AxiomError(
                    "twisted module identity fails: " + result.describe(), result)

    @property
    def coalgebra(self):
        return self.td.coalgebra

    def __repr__(self):
        return "TDModuleStructure(%s)" % self.module.name


def self_module(td):
    """Hom(C, L) acting on itself through the induced bracket."""
    from .algebra import LieModule
    # the adjoint module axiom is the Jacobi identity, already certified
    adjoint = LieModule(td.lie, td.lie.space, td.lie.bracket, check=False,
                        name="%s-self" % td.lie.name)
    return TDModuleStructure(td, adjoint, check=False)


def _td_skew_check(bracket, C):
    """Swapping the arguments equals minus the swap-twisted operator."""
    plain = induced(bracket, C).materialize()
    lhs = plain.argument_permute(SWAP)
    rhs = twisted(bracket, C, SWAP).materialize().scale(-1)
    return operator_identity_check("td-skew", lhs, rhs)


def _td_jacobi_sum(bracket, C):
    """The cyclic identity's three summands: the plain nested operator,
    then its twisted rearrangements along the rotation and its square."""
    nested_op = compose_induced(induced(bracket, C), induced(bracket, C), 1)
    return table_sum([nested_op.materialize()]
                     + [twisted_term(nested_op.base, C, r) for r in JACOBI_ROTATIONS])


def _untwisted_jacobi_check(name, bracket, C):
    """The plain cyclic identity for the induced bracket: the nested
    operator plus its untwisted rearrangements along the rotation and its
    square sums to zero."""
    nested = induced(bracket.compose_at(bracket, 1), C).materialize()
    total = table_sum([nested] + [nested.argument_permute(r) for r in JACOBI_ROTATIONS])
    return operator_identity_check(name, total, total.scale(0))


def check_td_lie(lie, C):
    """Twisted skew symmetry and the twisted cyclic identity for the
    operator induced by a Lie bracket."""
    _require(check_lie(lie), "Lie axioms")
    _require(check_coassociativity(C), "coassociativity")
    skew = _td_skew_check(lie.bracket, C)
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
    _require(check_lie(lie), "Lie axioms")
    plain = induced(lie.bracket, C).materialize()
    skew = operator_identity_check(
        "collapse-skew", plain.argument_permute(SWAP), plain.scale(-1))
    jacobi = _untwisted_jacobi_check("collapse-jacobi", lie.bracket, C)
    return combine("cocommutative-collapse", [skew, jacobi])


def check_jordan(lie, C):
    """Over a skew-cocommutative coalgebra the induced bracket becomes a
    commutative product; alongside the cyclic identity it then satisfies
    the cube identities (ff)f = 0 and ((ff)g)f + (ff)(gf) = 0."""
    if not _skew_coproduct(C):
        raise AxiomError(
            "Jordan checks need a skew-cocommutative coalgebra; %s is %s"
            % (C.space.name, symmetry_class(C)))
    _require(check_lie(lie), "Lie axioms")
    op = induced(lie.bracket, C)
    plain = op.materialize()
    sym = operator_identity_check(
        "jordan-symmetry", plain.argument_permute(SWAP), plain)
    jacobi = _untwisted_jacobi_check("jordan-jacobi", lie.bracket, C)

    return combine("jordan", [
        sym,
        jacobi,
        _jordan_commutes(op, C),
        _jordan_cube(op, C),
        _jordan_four_term(op, C),
    ])


def _element_witness(op, C, args, value):
    """Witness from a HomElement that should have vanished."""
    (t, c), q = sorted(value.entries.items())[0]
    L = op.base.domain[0]
    labels = tuple(_unit_name(C, L, f) for f in args)
    coord = "%s@%s" % (op.base.codomain.labels[t], C.space.labels[c])
    return Witness(labels, ((coord, q),))


def _unit_name(C, space, f):
    (t, c) = next(iter(f.entries))
    return unit_label(C, space, t, c)


def _jordan_commutes(op, C):
    """fg = gf on all basis elements, writing fg for the induced product."""
    units = matrix_units(C, op.base.domain[0])
    for f in units:
        for g in units:
            diff = op.apply([f, g]).add(op.apply([g, f]).scale(-1))
            if not diff.is_zero():
                return CheckResult("jordan-commutes", False,
                                   _element_witness(op, C, (f, g), diff))
    return CheckResult("jordan-commutes", True)


def _jordan_cube(op, C):
    """(ff)f = 0 on every basis element."""
    for f in matrix_units(C, op.base.domain[0]):
        cube = op.apply([op.apply([f, f]), f])
        if not cube.is_zero():
            return CheckResult("jordan-cube", False,
                               _element_witness(op, C, (f,), cube))
    return CheckResult("jordan-cube", True)


def _jordan_four_term(op, C):
    """((ff)g)f + (ff)(gf) = 0 on all basis pairs."""
    units = matrix_units(C, op.base.domain[0])
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
    _require(check_poisson(poisson), "Poisson axioms")
    _require(check_coassociativity(C), "coassociativity")
    lie_part = check_td_lie(poisson, C)

    prod = induced(poisson.product, C).materialize()
    commut = operator_identity_check(
        "td-commutativity",
        prod.argument_permute(SWAP),
        twisted(poisson.product, C, SWAP).materialize())

    # bracket against a product expands into two rearranged mixed terms,
    # exactly as in the classical derivation property
    lhs = induced(poisson.bracket.compose_at(poisson.product, 1), C).materialize()
    mixed = poisson.product.compose_at(poisson.bracket, 1)
    rhs = twisted_term(mixed, C, PRODUCT_CYCLE).add(
        twisted_term(mixed, C, SWAP_FIRST_TWO))
    leibniz = operator_identity_check("td-leibniz", lhs, rhs)

    return combine("td-poisson", [lie_part, commut, leibniz])


def check_td_module(tdm):
    """Acting by a bracket equals acting twice minus the swap-twisted
    rearrangement of acting twice, as operators on Hom spaces."""
    _require(check_lie(tdm.td.lie), "Lie axioms")
    _require(check_module(tdm.module), "module axiom")
    C = tdm.coalgebra
    lhs = compose_induced(tdm.action_op, tdm.td.bracket_op, 0).materialize()
    nested_op = compose_induced(tdm.action_op, tdm.action_op, 1)
    rhs = nested_op.materialize().sub(
        twisted_term(nested_op.base, C, SWAP_FIRST_TWO))
    return operator_identity_check("td-module", lhs, rhs)
