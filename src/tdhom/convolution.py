"""Operators on Hom(C,L) induced by multilinear maps on the targets.

A multilinear map on the target spaces plus an iterated coproduct on the
source coalgebra induces a multilinear operator on Hom spaces: evaluate the
coproduct, feed the legs to the arguments, apply the map.  A twist routes
argument i to coproduct leg sigma(i) first.

Operator identities are decided on matrix-unit arguments: the operators are
multilinear, and matrix units span Hom(C,L), so agreement there is agreement
everywhere.  On those arguments the operator a base map psi induces through
Delta^(n) with its legs permuted by sigma is the outer product psi (x)
D_sigma, and InducedOperator is that one part: induced(phi, C) is (phi,
identity) and twisted(phi, C, sigma) is (phi, sigma).  A twisted identity is
the classical one with each rearranged term f . p twisted by p; twisting by
p and then rearranging by p cancel, so its side is the classical side
induced, it holds when the classical identity does, and the difference of
its sides is the classical defect induced, one part (tests/td_oracle.py
keeps the per-term sum as the oracle).  Such a part has one entry per
pair of a psi entry and a coproduct term, no two on one key, so it is zero
exactly when psi or Delta^(n) is, and its first entry, the witness of a
failing identity, is read off those pairs (zero_check): no identity is laid
out, and apply contracts the pairs with its arguments.  materialize()
lays an operator out as a sparse table keyed by matrix-unit argument
tuples; that table (MaterializedOperator, and twisted_term, which builds
one) is the library API and the test oracle for the closed form, and
tests/td_oracle.py sums such tables to decide identities of several parts
and contracts one with arguments as apply's oracle.  All of it runs on
ints, the n-fold coproduct's times the base maps', and builds results
unchecked from checked operands through _stored and _trusted.
"""

import itertools
import math

from .checks import CheckResult, Witness
from .errors import GuardError, ShapeError, TdhomError
from .linalg import (
    ZERO,
    Permutation,
    SparseTable,
    _exact,
    getter,
    tensor_space,
)
from .maps import MultilinearMap, _check_index

DEFAULT_GUARD_LIMIT = 50000


def check_size(size, limit):
    """The one size guard: refuse a job whose route builds size items,
    estimated before it builds any, when that exceeds limit.  Each caller
    prices what it really builds."""
    if size > limit:
        raise GuardError("size %d exceeds limit %d; pass a larger guard_limit"
                         % (size, limit))


class HomElement(SparseTable):
    """A linear map from a coalgebra's space to a target space."""

    SHAPE = ("source", "target")

    def __init__(self, source, target, entries):
        """entries: {(target index, source index): scalar} or dense rows."""
        if not isinstance(entries, dict):
            rows = list(entries)
            if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
                raise ShapeError("dense rows do not form a %dx%d matrix"
                                 % (target.dim, source.dim))
            entries = {(t, c): q for t, row in enumerate(rows)
                       for c, q in enumerate(row)}
        table = {}
        for (t, c), q in entries.items():
            _check_index(t, target.dim, "target", target)
            _check_index(c, source.dim, "source", source.space)
            table[(t, c)] = _exact(q)
        self.source = source
        self.target = target
        self._set_table(table)

    @classmethod
    def matrix_unit(cls, source, target, t, c):
        return cls(source, target, {(t, c): 1})

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    def coefficient(self, t, c):
        return self.entries.get((t, c), ZERO)

    def value_on(self, c):
        """Image of the c-th basis vector: {target index: Fraction}."""
        return {t: q for (t, cc), q in self.entries.items() if cc == c}

    def _dims(self):
        return self.source.dim, self.target.dim

    def _check_compatible(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise ShapeError("Hom elements between different spaces do not add")

    def __repr__(self):
        return "HomElement(%s->%s, %d entries)" % (
            self.source.space.name, self.target.name, len(self._ints))


def matrix_units(source, target):
    """All matrix-unit HomElements in lexicographic (t, c) order."""
    return [
        HomElement.matrix_unit(source, target, t, c)
        for t in range(target.dim)
        for c in range(source.dim)
    ]


def unit_label(source, target, t, c):
    return "E[%s,%s]" % (target.labels[t], source.space.labels[c])


def interchange(fs):
    """The map sending c_1 (x) .. (x) c_n to f_1(c_1) (x) .. (x) f_n(c_n).

    Sources and targets may differ from argument to argument; the result is a
    plain multilinear map on the product of the sources.
    """
    if not fs:
        raise ShapeError("interchange needs at least one argument")
    domain = [f.source.space for f in fs]
    target = tensor_space([f.target for f in fs])
    dims = [f.target.dim for f in fs]
    entries = {}
    for combo in itertools.product(*(f._ints.items() for f in fs)):
        cs = tuple(tc[1] for tc, _q in combo)
        flat = 0
        for (tc, _q), d in zip(combo, dims):
            flat = flat * d + tc[0]
        key = (cs, flat)
        entries[key] = entries.get(key, 0) + math.prod(q for _tc, q in combo)
    return MultilinearMap._trusted(domain, target, entries,
                                   math.prod(f._denominator for f in fs))


class InducedOperator:
    """psi (x) D_sigma over one coalgebra: the operator that evaluates the
    n-fold coproduct, feeds leg sigma(i) to argument i and applies the base
    map psi.  D_sigma is the coproduct with its legs permuted by the twist
    sigma, the table {(c, gather(sigma, legs)): q}; the arguments and the
    output are psi's.  Nothing is laid out unless asked.
    """

    def __init__(self, coalgebra, base, twist):
        self.coalgebra = coalgebra
        self.base = base
        self.twist = twist

    @property
    def domain(self):
        return self.base.domain

    @property
    def codomain(self):
        return self.base.codomain

    @property
    def arity(self):
        return self.base.arity

    def argument_permute(self, sigma):
        """The operator evaluated on rearranged arguments: position i gets
        the old argument sigma(i), so (psi, rho) becomes (psi . sigma,
        sigma^-1 then rho)."""
        return InducedOperator(self.coalgebra, self.base.precompose_perm(sigma),
                               sigma.inverse().then(self.twist))

    def _pairs(self):
        """(den, entries): the laid-out table over den, its entries an
        iterator of ((o, c, cols), int), one per pair of a base map entry
        and a D_sigma term, valued their product.  The twist permutes legs
        bijectively and a coproduct term's legs are distinct per source
        index, so no two pairs share a key: nothing sums or cancels."""
        terms, den = self.coalgebra._expansion(self.arity)
        move = getter(self.twist)
        psi = self.base._ints.items()
        entries = (((o, c, tuple(zip(tup, routed))), q * p)
                   for c, expansion in terms
                   for legs, q in expansion
                   for routed in (move(legs),)
                   for (tup, o), p in psi)
        return den * self.base._denominator, entries

    def first_entry(self):
        """(cols, c, o, value) at the first key of the laid-out table, in
        MaterializedOperator.first_difference's order, or None when the
        operator is zero, which it is exactly when psi or Delta^(n) is
        (_pairs).  Read off the pairs; no table is built."""
        den, entries = self._pairs()
        found = min(entries, default=None,
                    key=lambda item: (item[0][2], item[0][1], item[0][0]))
        if found is None:
            return None
        (o, c, cols), v = found
        return cols, c, o, SparseTable._stored({0: v}, den).entries[0]

    def apply(self, fs):
        """Evaluate on HomElements; returns a HomElement into the codomain."""
        if len(fs) != self.arity:
            raise ShapeError("%d arguments for an operator of arity %d"
                             % (len(fs), self.arity))
        for f, space in zip(fs, self.domain):
            if f.source is not self.coalgebra:
                raise ShapeError("argument is a map out of another coalgebra")
            if f.target.dim != space.dim:
                raise ShapeError("argument target %s does not fit %s"
                                 % (f.target.name, space.name))
        # contract each pair of the table: argument i is the matrix unit
        # cols[i]; no table is laid out
        den, pairs = self._pairs()
        out = {}
        for (o, c, cols), v in pairs:
            for f, unit in zip(fs, cols):
                v *= f._ints.get(unit, 0)
            out[(o, c)] = out.get((o, c), 0) + v
        den *= math.prod(f._denominator for f in fs)
        return HomElement._stored(out, den, source=self.coalgebra,
                                  target=self.codomain)

    def materialize(self):
        """Sparse table over matrix-unit argument tuples (_pairs): the
        library API and the test oracle; the checkers decide identities
        with first_entry instead."""
        den, entries = self._pairs()
        return MaterializedOperator._stored(
            dict(entries), den, arity=self.arity, coalgebra=self.coalgebra,
            domain=self.domain, codomain=self.codomain)

    def __repr__(self):
        return "InducedOperator(arity=%d, twist=%r)" % (
            self.arity, self.twist.images)


class MaterializedOperator(SparseTable):
    """A multilinear operator on Hom spaces, laid out on matrix-unit tuples:
    the library API and the test oracle.  Tables of any operators add, so
    the oracle decides identities of several parts with them.

    Keys are (output index, source basis index, cols) where cols is the tuple
    of matrix units fed in: cols[i] = (target index, source index) for
    argument i.  Equality of these tables is equality of operators.
    """

    SHAPE = ("arity", "coalgebra", "domain", "codomain")

    def __init__(self, arity, coalgebra, domain, codomain, entries):
        self.arity = arity
        self.coalgebra = coalgebra
        self.domain = tuple(domain)
        self.codomain = codomain
        self._set_table(entries)

    def _dims(self):
        return self.arity

    def _check_compatible(self, other):
        if self.arity != other.arity:
            raise ShapeError("operators of arity %d and %d do not add"
                             % (self.arity, other.arity))

    # kept in the class body, not only inherited: perfbench's tracer wraps
    # it through MaterializedOperator.__dict__
    def add(self, other):
        return SparseTable.add(self, other)

    def argument_permute(self, sigma):
        """The operator evaluated on rearranged arguments: position i gets
        the old argument sigma(i).  Its one caller is twisted_term, which
        nothing in the package calls; both stay as the library API and the
        test oracle, and perfbench's tracer looks them up by name."""
        if sigma.size != self.arity:
            raise ShapeError("permutation size %d vs arity %d" % (sigma.size, self.arity))
        move = getter(sigma.inverse())
        table = {(o, c, move(cols)): v for (o, c, cols), v in self._ints.items()}
        return self._stored(table, self._denominator, arity=self.arity,
                            coalgebra=self.coalgebra,
                            domain=move(self.domain) if self.domain else self.domain,
                            codomain=self.codomain)

    def first_difference(self, other):
        """(cols, c, out, residual Fraction) at the first differing key,
        ordered by argument tuple then source index then output; None if
        equal."""
        diff = self.sub(other)
        if diff.is_zero():
            return None
        key = min(diff.entries, key=lambda k: (k[2], k[1], k[0]))
        o, c, cols = key
        return cols, c, o, diff.entries[key]

    def __repr__(self):
        return "MaterializedOperator(arity=%d, %d entries)" % (self.arity, len(self._ints))


def twisted(phi, C, sigma):
    """The operator phi induces through C's iterated coproduct, argument i
    reading coproduct leg sigma(i): (phi, sigma)."""
    if phi.arity < 1:
        raise ShapeError("induced operators need arity >= 1")
    if sigma.size != phi.arity:
        raise ShapeError("twist size %d vs arity %d" % (sigma.size, phi.arity))
    return InducedOperator(C, phi, sigma)


def induced(phi, C):
    """The untwisted operator built from phi and C's iterated coproduct:
    (phi, identity)."""
    return twisted(phi, C, Permutation.identity(phi.arity))


def twisted_term(phi, C, sigma):
    """Materialized 'twist then rearrange': the twisted operator for sigma,
    precomposed with sigma on its arguments.

    This is the twisted-domain image of the classical term phi . sigma, and
    the shape every summand of a twisted identity takes.  It equals
    induced(phi.precompose_perm(sigma), C).materialize(), which is how
    the checkers state it, so nothing in the package calls it.  It stays
    as the library API and the test oracle, and perfbench's tracer looks
    it up by name.
    """
    return twisted(phi, C, sigma).materialize().argument_permute(sigma)


def compose_induced(outer, inner, slot):
    """Feed inner's output into one argument slot (0-based) of outer.

    Both operators must be untwisted and over the same coalgebra; the
    result is the operator induced by the composed base maps, which
    property tests confirm equals the literal evaluation-level composition.
    """
    if any(op.twist != Permutation.identity(op.arity) for op in (outer, inner)):
        raise TdhomError("twisted operators do not compose; twist afterwards instead")
    if outer.coalgebra is not inner.coalgebra:
        raise ShapeError("operators live over different coalgebras")
    return induced(outer.base.compose_at(inner.base, slot), outer.coalgebra)


def operator_witness(op, found):
    """Label a first_difference or first_entry result with matrix-unit and
    basis names, on op's (an operator's or a table's) arguments."""
    cols, c, o, residual = found
    C = op.coalgebra
    labels = tuple(unit_label(C, space, t, leg)
                   for space, (t, leg) in zip(op.domain, cols))
    return Witness(labels + (C.space.labels[c],),
                   ((op.codomain.labels[o], residual),))


def zero_check(name, op):
    """CheckResult for op = 0, where op is an identity's left side minus
    its right: decided and witnessed by op.first_entry, so a failing
    identity names the first matrix-unit tuple at which its sides differ,
    on the left side's arguments, and nothing is laid out."""
    found = op.first_entry()
    if found is None:
        return CheckResult(name, True)
    return CheckResult(name, False, operator_witness(op, found))


def check_td_skew(phi, C):
    """Rearranging the arguments by sigma equals the sign of sigma times the
    operator twisted by sigma inverse, for every sigma.

    Both sides at sigma carry the one twist sigma inverse, so their
    difference is (phi . sigma - sign(sigma) phi) (x) D_(sigma^-1), which
    is zero exactly when that map or Delta^(n) is.  The sigma where it
    holds form a group, so the adjacent transpositions, which generate S_n,
    decide all n! of them.  They are checked from (n-2 n-1) down to (0 1),
    the lexicographic order of their images, and the first that fails is
    the first failing sigma of the full enumeration: if sigma first moves
    k, every permutation of the points after k precedes it and passes, so
    (k k+1), which does not follow sigma, fails.  Each is decided by
    zero_check, whose witness is prefixed with the transposition's images.
    A map whose arguments do not all share one space is refused.
    """
    n = phi.arity
    if n < 1:
        raise ShapeError("induced operators need arity >= 1")
    if any(space is not phi.domain[0] for space in phi.domain):
        raise ShapeError("td-skew needs a map whose arguments share one space")
    for k in reversed(range(n - 1)):
        # a transposition is odd and its own inverse
        swap = Permutation.transposition(k, k + 1, n)
        result = zero_check("td-skew", twisted(
            phi.precompose_perm(swap).add(phi), C, swap))
        if not result:
            w = result.witness
            return CheckResult("td-skew", False,
                               Witness((swap.images,) + w.args, w.residual))
    return CheckResult("td-skew", True,
                       detail="%d permutations" % math.factorial(n))
