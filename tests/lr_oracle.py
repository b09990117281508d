"""The pair identities written out one by one: the test oracle for the
identity table in tdhom.lie_rinehart.

lie_rinehart states each pair identity once, as a row of terms, and
decides the rows in one int pass each (check_lr, through
algebra.composite_check) and as twisted operators over a coalgebra
(check_td_lr).  Here every identity keeps its own explicit code, as
before the table: eight classical helpers that compose, rearrange and
sum the maps by hand, and five twisted identities assembled from induced
operators, composed with compose_induced, and factored terms, and
decided on their laid-out tables (td_oracle.operator_identity_check).
oracle_lr_results and oracle_td_lr_results list the sub-results in the
checkers' order; the package's checkers must fold exactly these, name,
detail and witness included.

map_classical_rows, map_associative, map_leibniz, map_commutative,
flipped_skew, table_sum_jacobi and map_poisson keep the map route the int
defects (algebra.composite_defect, algebra.swap_defect and Jacobi's int
sum) replaced: every composite built with compose_at, rearranged, summed
and compared as maps by map_identity_check, whose witness is
first_difference's; no checker in the package uses them.
rotation_jacobi keeps the int Jacobi sum by rotation classes, which the
package replaced by a sum at increasing triples run only on skew brackets.
composite_td_lr_results keeps the route check_td_lr's kept row defects
replaced: each row's two sides composed (pair_terms), summed as maps and
induced (twisted_sum), then decided by convolution.zero_check.

Nothing in the package uses this module; tests compare against it.
"""

from fractions import Fraction

from tdhom.algebra import (
    PRODUCT_CYCLE,
    SWAP_FIRST_TWO,
    check_lie,
    check_module,
)
from tdhom.checks import CheckResult, Witness, combine
from tdhom.convolution import compose_induced, induced, zero_check
from tdhom.errors import ShapeError
from tdhom.lie_rinehart import PAIR_IDENTITIES
from tdhom.linalg import common_ints
from linalg_oracle import table_sum
from td_oracle import (
    JACOBI_ROTATIONS,
    SWAP,
    factored_term,
    operator_identity_check,
    pair_terms,
    term_sum,
    twisted_sum,
)


def first_difference(f, g):
    """Lexicographically first (input tuple, residual) where f and g differ.

    Returns None when equal.  Residual is a sorted tuple of
    (output index, Fraction) pairs.  Stores are canonical, so equal maps
    have equal stores; only unequal ones are subtracted.
    """
    f._check_compatible(g)
    if f == g:
        return None
    diff = f.sub(g)
    tuples = sorted({tup for (tup, _out) in diff.entries})
    first = tuples[0]
    residual = tuple(sorted((out, q) for (tup, out), q in diff.entries.items() if tup == first))
    return first, residual


def map_identity_check(name, lhs, rhs):
    """CheckResult for lhs == rhs with a labeled first-failure witness."""
    found = first_difference(lhs, rhs)
    if found is None:
        return CheckResult(name, True)
    tup, residual = found
    args = tuple(space.labels[i] for space, i in zip(lhs.domain, tup))
    labeled = tuple((lhs.codomain.labels[out], q) for out, q in residual)
    return CheckResult(name, False, Witness(args, labeled))


def map_commutative(product):
    """product . swap = product, as maps."""
    return map_identity_check("commutativity", product.precompose_perm(SWAP), product)


def map_associative(product):
    """product(product(a, b), c) = product(a, product(b, c)), as maps."""
    return map_identity_check("associativity", product.compose_at(product, 0),
                              product.compose_at(product, 1))


def map_leibniz(bracket, product):
    """bracket(x, product(y, z)) = product(z, bracket(x, y))
    + product(y, bracket(x, z)), as maps."""
    mixed = product.compose_at(bracket, 1)
    return map_identity_check(
        "leibniz", bracket.compose_at(product, 1),
        mixed.precompose_perm(PRODUCT_CYCLE).add(
            mixed.precompose_perm(SWAP_FIRST_TWO)))


def flipped_skew(bracket):
    """Skew symmetry as it was before the swap pass: the bracket with its
    arguments swapped against minus the bracket."""
    return map_identity_check("skew-symmetry", bracket.precompose_perm(SWAP),
                              bracket.scale(-1))


def table_sum_jacobi(bracket):
    """Jacobi as it was before it summed in ints: the nested map and its
    two rotations added as Fraction tables."""
    nested = bracket.compose_at(bracket, 1)
    total = table_sum([nested] + [nested.precompose_perm(r) for r in JACOBI_ROTATIONS])
    return map_identity_check("jacobi", total, total.scale(0))


def rotation_jacobi(bracket):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] is zero, summed in ints by
    rotation classes, for any binary map on one space, skew or not.  The
    sum is the same at every rotation of a tuple, so each term is added
    once, at the least rotation of its tuple, times the number of
    rotations fixing it (3 at (x, x, x), else 1), and the least failing
    key is the least failing tuple."""
    if bracket.arity != 2 or bracket.domain[0] is not bracket.domain[1]:
        raise ShapeError("jacobi needs a binary map on one space")
    space = bracket.domain[0]
    if bracket.codomain.dim != space.dim:
        raise ShapeError("codomain %s does not fit slot 1 (%s)"
                         % (bracket.codomain.name, space.name))
    (b,), den = common_ints([bracket])
    feeding = {}
    for ((y, z), m), p in b.items():
        feeding.setdefault(m, []).append((y, z, p))
    acc = {}
    for ((x, m), out), q in b.items():
        for y, z, p in feeding.get(m, ()):
            key = (min((x, y, z), (y, z, x), (z, x, y)), out)
            acc[key] = acc.get(key, 0) + (3 if x == y == z else 1) * q * p
    failing = [key for key, v in acc.items() if v]
    if not failing:
        return CheckResult("jacobi", True)
    tup = min(failing)[0]
    residual = sorted((out, Fraction(v, den * den))
                      for (t, out), v in acc.items() if t == tup and v)
    return CheckResult("jacobi", False, Witness(
        tuple(space.labels[i] for i in tup),
        tuple((bracket.codomain.labels[out], q) for out, q in residual)))


def map_poisson(P):
    """check_poisson with every sub-identity decided as maps, Jacobi
    included whether skew symmetry holds or not."""
    return combine("poisson", [
        flipped_skew(P.bracket),
        table_sum_jacobi(P.bracket),
        map_associative(P.product),
        map_commutative(P.product),
        map_leibniz(P.bracket, P.product),
    ])


def map_classical_rows(pair):
    """classical_rows with each side's composites built and summed."""
    return [map_identity_check(name, term_sum(pair_terms(pair, left)),
                               term_sum(pair_terms(pair, right)))
            for name, left, right in PAIR_IDENTITIES]


def composite_td_lr_results(s):
    """check_td_lr's sub-results on composed maps: each row's left side
    minus its right, summed as maps and induced, decided by zero_check."""
    pair, C = s.pair, s.coalgebra
    return [zero_check("td-" + name, twisted_sum(
                pair_terms(pair, left)
                + [(f, p, -sign) for f, p, sign in pair_terms(pair, right)], C))
            for name, left, right in PAIR_IDENTITIES[:-1]]


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
        map_associative(pair.product),
        map_commutative(pair.product),
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
        [induced(m, C).materialize().scale(sign) for m, sign in untwisted]
        + [factored_term(m, C, perm).materialize().scale(sign)
           for m, perm, sign in twisted_parts])
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
