"""The pair identities written out one by one: the test oracle for the
identity table in tdhom.lie_rinehart.

lie_rinehart states each pair identity once, as a row of terms, and
decides the rows as maps (check_lr) and as twisted operators over a
coalgebra (check_td_lr).  Here every identity keeps its own explicit code,
as before the table: eight classical helpers that compose, rearrange and
sum the maps by hand, and five twisted identities assembled from induced
operators, composed with compose_induced, and factored terms.
oracle_lr_results and oracle_td_lr_results list the sub-results in the
checkers' order; the package's checkers must fold exactly these, name,
detail and witness included.

Nothing in the package uses this module; tests compare against it.
"""

from tdhom.algebra import (
    PRODUCT_CYCLE,
    SWAP_FIRST_TWO,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
)
from tdhom.checks import combine
from tdhom.convolution import (
    compose_induced,
    induced,
    operator_identity_check,
)
from tdhom.linalg import table_sum
from tdhom.maps import map_identity_check
from td_oracle import factored_term


def derivation_check(pair):
    """action(x, product(a, b)) = product(action(x, a), b)
    + product(a, action(x, b))."""
    lhs = pair.action.compose_at(pair.product, 1)
    left_leg = pair.product.compose_at(pair.action, 0)
    right_leg = pair.product.compose_at(pair.action, 1) \
        .precompose_perm(SWAP_FIRST_TWO)
    return map_identity_check("derivation", lhs, left_leg.add(right_leg))


def bmodule_assoc_check(pair):
    """bmodule(a, bmodule(b, x)) = bmodule(product(a, b), x)."""
    lhs = pair.bmodule.compose_at(pair.bmodule, 1)
    rhs = pair.bmodule.compose_at(pair.product, 0)
    return map_identity_check("bmodule-associative", lhs, rhs)


def linearity_check(pair):
    """action(bmodule(a, x), b) = product(a, action(x, b))."""
    lhs = pair.action.compose_at(pair.bmodule, 0)
    rhs = pair.product.compose_at(pair.action, 1)
    return map_identity_check("action-linearity", lhs, rhs)


def leibniz_rhs(pair):
    """bmodule(a, bracket(x, y)) + bmodule(action(x, a), y) on (x, a, y)."""
    scaled = pair.bmodule.compose_at(pair.bracket, 1) \
        .precompose_perm(SWAP_FIRST_TWO)
    poked = pair.bmodule.compose_at(pair.action, 0)
    return scaled.add(poked)


def leibniz_check(pair):
    """bracket(x, bmodule(a, y)) = bmodule(a, bracket(x, y))
    + bmodule(action(x, a), y)."""
    lhs = pair.bracket.compose_at(pair.bmodule, 1)
    return map_identity_check("module-leibniz", lhs, leibniz_rhs(pair))


def rewritten_rhs(pair):
    """bmodule(a, bracket(x, y)) - bmodule(action(y, a), x) on (a, x, y)."""
    first = pair.bmodule.compose_at(pair.bracket, 1)
    second = pair.bmodule.compose_at(pair.action, 0) \
        .precompose_perm(PRODUCT_CYCLE)
    return first.sub(second)


def rewritten_check(pair):
    """bracket(bmodule(a, x), y) = bmodule(a, bracket(x, y))
    - bmodule(action(y, a), x); the skew-rearranged form of module-leibniz."""
    lhs = pair.bracket.compose_at(pair.bmodule, 0)
    return map_identity_check("module-leibniz-rewritten", lhs, rewritten_rhs(pair))


def forms_agree_check(pair):
    """The rewritten right side is minus the plain right side with the
    arguments cycled, so the two displays state the same identity."""
    transported = leibniz_rhs(pair).precompose_perm(PRODUCT_CYCLE).scale(-1)
    return map_identity_check("leibniz-forms-agree", rewritten_rhs(pair),
                              transported)


def oracle_lr_results(pair):
    """check_lr's sub-results, one explicit helper per identity."""
    return [
        check_lie(pair.lie),
        check_associative(pair.product),
        check_commutative(pair.product),
        bmodule_assoc_check(pair),
        check_module(pair.ring_module),
        derivation_check(pair),
        linearity_check(pair),
        leibniz_check(pair),
        rewritten_check(pair),
        forms_agree_check(pair),
    ]


def oracle_check_lr(pair):
    return combine("lie-rinehart", oracle_lr_results(pair))


def _td_identity(name, C, lhs_op, untwisted, twisted_parts):
    """lhs = sum of untwisted induced composites plus twisted terms.

    untwisted: list of (map, sign); twisted_parts: list of (map, perm, sign).
    """
    total = table_sum(
        [induced(m, C).scale(sign) for m, sign in untwisted]
        + [factored_term(m, C, perm).scale(sign) for m, perm, sign in twisted_parts])
    return operator_identity_check(name, lhs_op, total)


def oracle_td_lr_results(s):
    """check_td_lr's sub-results, each twisted identity assembled from the
    four induced operators by hand."""
    pair, C = s.pair, s.coalgebra
    bracket_op = induced(pair.bracket, C)
    product_op = induced(pair.product, C)
    action_op = induced(pair.action, C)
    bmodule_op = induced(pair.bmodule, C)
    return [
        _td_identity(
            "td-action-linearity", C, compose_induced(action_op, bmodule_op, 0),
            [(pair.product.compose_at(pair.action, 1), 1)], []),
        _td_identity(
            "td-module-leibniz", C, compose_induced(bracket_op, bmodule_op, 1),
            [(pair.bmodule.compose_at(pair.action, 0), 1)],
            [(pair.bmodule.compose_at(pair.bracket, 1), SWAP_FIRST_TWO, 1)]),
        _td_identity(
            "td-module-leibniz-rewritten", C,
            compose_induced(bracket_op, bmodule_op, 0),
            [(pair.bmodule.compose_at(pair.bracket, 1), 1)],
            [(pair.bmodule.compose_at(pair.action, 0), PRODUCT_CYCLE, -1)]),
        _td_identity(
            "td-derivation", C, compose_induced(action_op, product_op, 1),
            [(pair.product.compose_at(pair.action, 0), 1)],
            [(pair.product.compose_at(pair.action, 1), SWAP_FIRST_TWO, 1)]),
        # induced product and module operators compose with no twist at all
        operator_identity_check(
            "td-bmodule-associative",
            compose_induced(bmodule_op, bmodule_op, 1),
            compose_induced(bmodule_op, product_op, 0)),
    ]


def oracle_check_td_lr(s):
    return combine("td-lie-rinehart", oracle_td_lr_results(s))
