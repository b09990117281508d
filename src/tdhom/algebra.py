"""Lie algebras, Lie modules and Poisson algebras by structure constants.

Axiom checks run eagerly on construction and raise AxiomError; pass
check=False to build a deliberately broken structure (the test suite and the
CLI's unsafe flag need that).  Checkers verify identities on every basis
tuple and report the lexicographically first failing tuple.

Each identity is decided by its int defect, the difference of its sides
summed in one pass over the maps' int stores, at the lexicographically
first tuple where it is nonzero (_decide); none of them builds a map.
Skew symmetry and commutativity are one swap pass, f(y, x) + sign f(x, y)
added once at (min, max) (swap_defect); the bracket's symmetric part,
sign 1, is also what cohomology reads to decide the direct twisted
differential.  Jacobi, [x, [y, z]] summed over the rotations of its
arguments, is decided only once skew symmetry holds (_lie_checks): the sum
then alternates, so it is summed at increasing triples alone, and the
least failing one is the least failing tuple (de Graaf, Lie Algebras:
Theory and Algorithms, 2000).  The module law [x,y].m - x.(y.m) +
y.(x.m) is summed in one pass from the bracket and the grouped action, or
read off a kept passing check_lie when the action is stored as the bracket.
check_poisson decides its rows in order and stops at the first failure,
the one combine reports.  composite_defect sums associativity, Leibniz
and the pair rows term by term the same way; lie_rinehart keeps a pair's
row defects and induces a failing one as its twisted operator.

Results are kept.  A structure's maps are never reassigned after
construction, so check_lie, check_module and check_poisson decide once per
structure and keep the result on it: the construction-time check fills the
slot, and every later call (a verify entry, a twisted checker's
precondition) returns the kept result.  A structure built with check=False
decides on first use.
"""

from .checks import CheckResult, Witness, combine, decided_once, kept, require
from .errors import ShapeError
from .linalg import Permutation, SparseTable, common_ints, getter
from .maps import composite_into

# moves the last of three arguments in front, fixing the order of the
# other two; this is the twist in the bracket/product compatibility law
PRODUCT_CYCLE = Permutation([2, 0, 1])
SWAP_FIRST_TWO = Permutation([1, 0, 2])


def _require_binary(op, space, what):
    """ShapeError unless op is a binary map into space."""
    if op.arity != 2 or op.codomain is not space:
        raise ShapeError("%s must be a binary map into %s" % (what, space.name))


def _require_operation(op, space, what):
    """ShapeError unless op is a binary map space x space -> space."""
    _require_binary(op, space, what)
    if op.domain[0] is not space or op.domain[1] is not space:
        raise ShapeError("%s must take both arguments in %s" % (what, space.name))


class LieAlgebra:
    def __init__(self, space, bracket, check=True, name=""):
        _require_operation(bracket, space, "bracket")
        self.space = space
        self.bracket = bracket
        self.name = name or space.name
        if check:
            require(check_lie(self), "Lie axioms fail: ")

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.space.dim)


class LieModule:
    def __init__(self, base, space, action, check=True, name=""):
        _require_binary(action, space, "action")
        if action.domain[0] is not base.space or action.domain[1] is not space:
            raise ShapeError("action must map %s x %s -> %s"
                             % (base.space.name, space.name, space.name))
        self.base = base
        self.space = space
        self.action = action
        self.name = name or "%s-module" % base.name
        self._cleared = None
        if check:
            require(check_module(self), "module axiom fails: ")

    def cleared_constants(self):
        """(N, pairs, acting): the bracket and action constants as ints,
        indexed by bits for cohomology._pushed, which holds an increasing
        tuple S as the mask sum_{s in S} 2^s.

        N is the least common denominator of all of them.  pairs[2^a]
        lists (2^x | 2^y, 2^y - 2^x, N c) for each bracket constant
        [e_x, e_y] = c e_a with x < y, and acting[b] lists (2^t, 2^t - 1,
        ((o, N r), ..)), t ascending, for each e_t that moves e_b, by
        e_t . e_b = r e_o: the push-forward visits only those.  Built on
        first use and cached, like the maps' own groupings: neither map
        changes after construction.
        """
        if self._cleared is None:
            (bracket, action), N = common_ints([self.base.bracket, self.action])
            pairs, by_module = {}, {}
            for ((x, y), a), c in bracket.items():
                if x < y:
                    pairs.setdefault(1 << a, []).append(
                        (1 << x | 1 << y, (1 << y) - (1 << x), c))
            for ((t, b), o), r in action.items():
                by_module.setdefault(b, {}).setdefault(t, []).append((o, r))
            acting = {b: [(1 << t, (1 << t) - 1, tuple(images[t]))
                          for t in sorted(images)]
                      for b, images in by_module.items()}
            self._cleared = N, pairs, acting
        return self._cleared

    def __repr__(self):
        return "LieModule(%s on %s)" % (self.base.name, self.space.name)


class AssociativeAlgebra:
    def __init__(self, space, product, check=True, name=""):
        _require_operation(product, space, "product")
        self.space = space
        self.product = product
        self.name = name or space.name
        if check:
            require(check_associative(self.product), "associativity fails: ")


class PoissonAlgebra:
    def __init__(self, space, bracket, product, check=True, name=""):
        _require_operation(bracket, space, "bracket")
        _require_operation(product, space, "product")
        self.space = space
        self.bracket = bracket
        self.product = product
        self.name = name or space.name
        if check:
            require(check_poisson(self), "Poisson axioms fail: ")

    def __repr__(self):
        return "PoissonAlgebra(%s, dim=%d)" % (self.name, self.space.dim)


def _decide(name, domain, codomain, acc, den):
    """CheckResult for an identity on domain -> codomain whose defect is
    acc, {(tup, out): int} over den, witnessed at the lexicographically
    first tuple where it is nonzero."""
    failing = [key for key, v in acc.items() if v]
    if not failing:
        return CheckResult(name, True)
    tup = min(failing)[0]
    column = {out: v for (t, out), v in acc.items() if t == tup}
    residual = sorted(SparseTable._stored(column, den).entries.items())
    return CheckResult(name, False, Witness(
        tuple(space.labels[i] for space, i in zip(domain, tup)),
        tuple((codomain.labels[out], q) for out, q in residual)))


def swap_defect(f, sign):
    """({((x, y), out): int}, den): f(y, x) + sign f(x, y) at each x <= y,
    for a binary f, in one pass over its store: an entry at (x, y) is
    added at (min, max) with weight sign if x < y, 1 if x > y and
    1 + sign if x = y.  Sign 1 is the symmetric part, sign -1 the
    commutator."""
    (b,), den = common_ints([f])
    acc = {}
    for ((x, y), out), v in b.items():
        key = ((x, y), out) if x <= y else ((y, x), out)
        acc[key] = acc.get(key, 0) + (sign if x < y else 1 if x > y else 1 + sign) * v
    return acc, den


def _swap_check(name, f, sign):
    if f.arity != 2 or f.domain[0] is not f.domain[1]:
        raise ShapeError("%s needs a binary map on one space" % name)
    return _decide(name, f.domain, f.codomain, *swap_defect(f, sign))


def skew_symmetry_check(bracket):
    """bracket(x, y) + bracket(y, x) is zero."""
    return _swap_check("skew-symmetry", bracket, 1)


def _lie_checks(bracket):
    """[skew symmetry, Jacobi] for bracket, Jacobi only once skew symmetry
    holds.  Then [x,[y,z]] + [y,[z,x]] + [z,[x,y]] alternates and is summed
    at increasing triples: each stored [y, z] = p e_m, y < z, meets each
    stored [x, m] = q e_out once, as the first, second (sign -1) or third
    term at x, y, z sorted, and adds nothing at a repeated index."""
    skew = skew_symmetry_check(bracket)
    if not skew:
        return [skew]
    (b,), den = common_ints([bracket])
    feeding = {}
    for ((y, z), m), p in b.items():
        if y < z:
            feeding.setdefault(m, []).append((y, z, p))
    acc = {}
    for ((x, m), out), q in b.items():
        for y, z, p in feeding.get(m, ()):
            if x != y and x != z:
                key = ((x, y, z) if x < y else (y, x, z) if x < z else (y, z, x), out)
                acc[key] = acc.get(key, 0) + (-p * q if y < x < z else p * q)
    return [skew, _decide("jacobi", (bracket.domain[0],) * 3, bracket.codomain,
                          acc, den * den)]


def composite_defect(left, right):
    """(domain, codomain, ints, den): the defect of an identity whose
    sides sum terms (outer, inner, slot, p, sign), each sign * (outer .
    inner at slot) . p, p None for none.  One int pass over the maps'
    common denominator adds sign q v, left minus right, at each moved key
    (p(tup), out); no map is built.  The domain is the left side's."""
    stores, den = common_ints([m for term in (*left, *right) for m in term[:2]])
    stores, acc, shapes = iter(stores), {}, []
    for side, terms in ((1, left), (-1, right)):
        for outer, inner, slot, p, sign in terms:
            move = None if p is None else getter(p.inverse())
            domain = outer.composed_domain(inner, slot)
            shapes.append((domain if move is None else move(domain), outer.codomain))
            composite_into(acc, next(stores), next(stores), slot, move, side * sign)
    if shapes.count(shapes[0]) != len(shapes):
        raise ShapeError("maps on different spaces do not add")
    return (*shapes[0], acc, den * den)


@decided_once
def check_lie(L):
    return combine("lie", _lie_checks(L.bracket))


@decided_once
def check_module(M):
    """[x,y].m - x.(y.m) + y.(x.m) is zero, summed in one pass over the
    bracket and the action grouped by acting and by module index.  An
    action stored as the bracket is read off the base's kept passing
    check_lie: the adjoint law is Jacobi after skew symmetry."""
    (br, act), den = common_ints([M.base.bracket, M.action])
    if br == act and kept(M.base, check_lie):
        return CheckResult("module", True)
    acting, on = {}, {}
    for ((t, m), o), r in act.items():
        acting.setdefault(t, []).append((m, o, r))
        on.setdefault(m, []).append((t, o, r))
    acc = {}
    for ((x, y), a), c in br.items():  # [x, y] . m
        for m, o, r in acting.get(a, ()):
            key = ((x, y, m), o)
            acc[key] = acc.get(key, 0) + c * r
    for ((t, m), k), r in act.items():  # t . e_m = r e_k, u . e_k = s e_o
        for u, o, s in on.get(k, ()):
            key = ((u, t, m), o)  # - x . (y . m) at x = u, y = t
            acc[key] = acc.get(key, 0) - r * s
            key = ((t, u, m), o)  # + y . (x . m) at x = t, y = u
            acc[key] = acc.get(key, 0) + r * s
    domain = M.base.bracket.domain + M.action.domain[1:]
    return _decide("module", domain, M.space, acc, den * den)


def check_associative(product):
    return _decide("associativity", *composite_defect(
        ((product, product, 0, None, 1),), ((product, product, 1, None, 1),)))


def check_commutative(product):
    """product(y, x) - product(x, y) is zero."""
    return _swap_check("commutativity", product, -1)


def leibniz_identity(bracket, product):
    """bracket(1 x product) = product(1 x bracket) . rot + product(1 x bracket) . swap01,
    as (left terms, right terms) for composite_defect.

    rot moves the last factor in front: evaluated on (x, y, z) the right side
    is product(z, bracket(x, y)) + product(y, bracket(x, z)), which together
    with commutativity is the derivation property of bracket(x, -).
    """
    return (((bracket, product, 1, None, 1),),
            ((product, bracket, 1, PRODUCT_CYCLE, 1),
             (product, bracket, 1, SWAP_FIRST_TWO, 1)))


def leibniz_check(bracket, product):
    return _decide("leibniz", *composite_defect(*leibniz_identity(bracket, product)))


def _poisson_checks(P):
    """The Poisson rows in order, each decided only when read."""
    yield from _lie_checks(P.bracket)
    yield check_associative(P.product)
    yield check_commutative(P.product)
    yield leibniz_check(P.bracket, P.product)


@decided_once
def check_poisson(P):
    return combine("poisson", _poisson_checks(P))
