"""Operators on Hom(C,L) induced by multilinear maps on the targets.

A multilinear map on the target spaces plus an iterated coproduct on the
source coalgebra induces a multilinear operator on Hom spaces: evaluate the
coproduct, feed the legs to the arguments, apply the map.  A twist routes
argument i to coproduct leg sigma(i) first.

Operator identities are decided on matrix-unit arguments: the operators are
multilinear, and matrix units span Hom(C,L), so agreement there is agreement
everywhere.  materialize() lays an operator out as a sparse table keyed by
matrix-unit argument tuples, and all checkers work on those tables.
"""

import itertools
import os
from fractions import Fraction

from .checks import CheckResult, Witness
from .errors import GuardError, MalformedInput, ShapeError, TdhomError
from .linalg import (
    ZERO,
    Permutation,
    SparseTable,
    all_permutations,
    gather,
    tensor_space,
)
from .maps import MultilinearMap

DEFAULT_GUARD_LIMIT = 20000


def resolve_guard_limit(limit=None):
    if limit is not None:
        return limit
    env = os.environ.get("TDHOM_GUARD_LIMIT")
    if env:
        return int(env)
    return DEFAULT_GUARD_LIMIT


class HomElement(SparseTable):
    """A linear map from a coalgebra's space to a target space."""

    def __init__(self, source, target, entries):
        """entries: {(target index, source index): Fraction} or dense rows."""
        if not isinstance(entries, dict):
            rows = list(entries)
            if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
                raise ShapeError("dense rows do not form a %dx%d matrix"
                                 % (target.dim, source.dim))
            entries = {(t, c): q for t, row in enumerate(rows)
                       for c, q in enumerate(row)}
        table = {}
        for (t, c), q in entries.items():
            if not (0 <= t < target.dim and 0 <= c < source.dim):
                raise MalformedInput(
                    "entry (%d, %d) out of range for a %dx%d Hom element"
                    % (t, c, target.dim, source.dim))
            q = Fraction(q)
            if q != 0:
                table[(t, c)] = q
        self.source = source
        self.target = target
        self.entries = table

    @classmethod
    def matrix_unit(cls, source, target, t, c):
        return cls(source, target, {(t, c): Fraction(1)})

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, {})

    def coefficient(self, t, c):
        return self.entries.get((t, c), ZERO)

    def value_on(self, c):
        """Image of the c-th basis vector: {target index: Fraction}."""
        return {t: q for (t, cc), q in self.entries.items() if cc == c}

    def _like(self, table):
        return HomElement(self.source, self.target, table)

    def _check_compatible(self, other):
        if self.source is not other.source or self.target is not other.target:
            raise ShapeError("Hom elements between different spaces do not add")

    def __eq__(self, other):
        return (
            isinstance(other, HomElement)
            and self.source.dim == other.source.dim
            and self.target.dim == other.target.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        return "HomElement(%s->%s, %d entries)" % (
            self.source.space.name, self.target.name, len(self.entries))


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
    for combo in itertools.product(*(f.entries.items() for f in fs)):
        cs = tuple(tc[1] for tc, _q in combo)
        flat = 0
        for (tc, _q), d in zip(combo, dims):
            flat = flat * d + tc[0]
        coeff = Fraction(1)
        for _tc, q in combo:
            coeff *= q
        key = (cs, flat)
        entries[key] = entries.get(key, ZERO) + coeff
    return MultilinearMap(domain, target, entries)


class InducedOperator:
    """Stored by its data: base map, coalgebra, twist.  Never materialized
    unless asked; evaluation follows the leg-routing contract directly."""

    def __init__(self, base, coalgebra, twist):
        if base.arity < 1:
            raise ShapeError("induced operators need arity >= 1")
        if twist.size != base.arity:
            raise ShapeError("twist size %d vs arity %d" % (twist.size, base.arity))
        self.base = base
        self.coalgebra = coalgebra
        self.twist = twist

    @property
    def arity(self):
        return self.base.arity

    @property
    def untwisted(self):
        return self.twist == Permutation.identity(self.arity)

    def with_twist(self, sigma):
        return InducedOperator(self.base, self.coalgebra, sigma)

    def apply(self, fs):
        """Evaluate on HomElements; returns a HomElement into the codomain."""
        if len(fs) != self.arity:
            raise ShapeError("%d arguments for an operator of arity %d"
                             % (len(fs), self.arity))
        for f, space in zip(fs, self.base.domain):
            if f.source is not self.coalgebra:
                raise ShapeError("argument is a map out of another coalgebra")
            if f.target.dim != space.dim:
                raise ShapeError("argument target %s does not fit %s"
                                 % (f.target.name, space.name))
        C = self.coalgebra
        out = {}
        terms = C.iterated_terms(self.arity)
        for c, expansion in terms.items():
            for legs, q in expansion:
                routed = gather(self.twist, legs)
                for (tup, o), p in self.base.entries.items():
                    coeff = q * p
                    for f, t, leg in zip(fs, tup, routed):
                        coeff *= f.coefficient(t, leg)
                        if coeff == 0:
                            break
                    if coeff == 0:
                        continue
                    key = (o, c)
                    out[key] = out.get(key, ZERO) + coeff
        return HomElement(C, self.base.codomain, out)

    def materialize(self, guard_limit=None):
        """Sparse table over matrix-unit argument tuples.

        guard_limit, when given, bounds the potential dense column count
        (product of argument Hom dimensions); rank-based callers pass one,
        plain identity checks stay sparse and unguarded.
        """
        C = self.coalgebra
        if guard_limit is not None:
            size = 1
            for space in self.base.domain:
                size *= space.dim * C.dim
            if size > guard_limit:
                raise GuardError(
                    "materialization size %d exceeds limit %d; pass a larger "
                    "guard_limit or set TDHOM_GUARD_LIMIT" % (size, guard_limit))
        entries = {}
        for c, expansion in C.iterated_terms(self.arity).items():
            for legs, q in expansion:
                routed = gather(self.twist, legs)
                for (tup, o), p in self.base.entries.items():
                    cols = tuple(zip(tup, routed))
                    key = (o, c, cols)
                    entries[key] = entries.get(key, ZERO) + q * p
        return MaterializedOperator(self.arity, C, self.base.domain,
                                    self.base.codomain, entries)

    def __repr__(self):
        tag = "" if self.untwisted else ", twist=%r" % (self.twist.images,)
        return "InducedOperator(arity=%d%s)" % (self.arity, tag)


class MaterializedOperator(SparseTable):
    """A multilinear operator on Hom spaces, laid out on matrix-unit tuples.

    Keys are (output index, source basis index, cols) where cols is the tuple
    of matrix units fed in: cols[i] = (target index, source index) for
    argument i.  Equality of these tables is equality of operators.
    """

    def __init__(self, arity, coalgebra, domain, codomain, entries):
        self.arity = arity
        self.coalgebra = coalgebra
        self.domain = tuple(domain)
        self.codomain = codomain
        self.entries = {k: v for k, v in entries.items() if v != 0}

    def _like(self, entries):
        return MaterializedOperator(self.arity, self.coalgebra, self.domain,
                                    self.codomain, entries)

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
        the old argument sigma(i)."""
        if sigma.size != self.arity:
            raise ShapeError("permutation size %d vs arity %d" % (sigma.size, self.arity))
        inv = sigma.inverse()
        table = {}
        for (o, c, cols), v in self.entries.items():
            table[(o, c, gather(inv, cols))] = v
        return MaterializedOperator(self.arity, self.coalgebra,
                                    gather(inv, self.domain) if self.domain else self.domain,
                                    self.codomain, table)

    def __eq__(self, other):
        return (
            isinstance(other, MaterializedOperator)
            and self.arity == other.arity
            and self.entries == other.entries
        )

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
        return "MaterializedOperator(arity=%d, %d entries)" % (self.arity, len(self.entries))


def induced(phi, C):
    """The untwisted operator built from phi and C's iterated coproduct."""
    return InducedOperator(phi, C, Permutation.identity(phi.arity))


def twisted(phi, C, sigma):
    """Same, but argument i reads coproduct leg sigma(i)."""
    return InducedOperator(phi, C, sigma)


def twisted_term(phi, C, sigma, guard_limit=None):
    """Materialized 'twist then rearrange': the twisted operator for sigma,
    precomposed with sigma on its arguments.

    This is the twisted-domain image of the classical term phi . sigma, and
    the shape every summand of a twisted identity takes.
    """
    op = twisted(phi, C, sigma).materialize(guard_limit)
    return op.argument_permute(sigma)


def compose_induced(outer, inner, slot):
    """Feed inner's output into one argument slot (0-based) of outer.

    Both operators must be untwisted and over the same coalgebra; the result
    is the operator induced by the composed base maps, which property tests
    confirm equals the literal evaluation-level composition.
    """
    if not outer.untwisted or not inner.untwisted:
        raise TdhomError("twisted operators do not compose; twist afterwards instead")
    if outer.coalgebra is not inner.coalgebra:
        raise ShapeError("operators live over different coalgebras")
    base = outer.base.compose_at(inner.base, slot)
    return induced(base, outer.coalgebra)


def operator_witness(mat, found):
    """Label a first_difference result with matrix-unit and basis names."""
    cols, c, o, residual = found
    C = mat.coalgebra
    labels = tuple("E[%s,%s]" % (space.labels[t], C.space.labels[leg])
                   for space, (t, leg) in zip(mat.domain, cols))
    return Witness(labels + (C.space.labels[c],),
                   ((mat.codomain.labels[o], residual),))


def operator_identity_check(name, lhs, rhs):
    """CheckResult for equality of two materialized operators."""
    found = lhs.first_difference(rhs)
    if found is None:
        return CheckResult(name, True)
    return CheckResult(name, False, operator_witness(lhs, found))


def check_td_skew(phi, C, max_arity=4):
    """Rearranging the arguments by sigma equals the sign of sigma times the
    operator twisted by sigma inverse, for every sigma.

    Checked as table equality over all matrix-unit tuples, which multilinearity
    makes complete.  Arity above max_arity is refused outright.
    """
    n = phi.arity
    if n > max_arity:
        raise GuardError(
            "arity %d exceeds the permutation-enumeration bound %d" % (n, max_arity))
    plain = induced(phi, C).materialize()
    for sigma in all_permutations(n):
        lhs = plain.argument_permute(sigma)
        rhs = twisted(phi, C, sigma.inverse()).materialize()
        rhs = rhs.scale(sigma.sign())
        found = lhs.first_difference(rhs)
        if found is not None:
            cols, c, o, residual = found
            args = (sigma.images,) + tuple(
                unit_label(C, space, t, s)
                for space, (t, s) in zip(phi.domain, cols)
            ) + (C.space.labels[c],)
            return CheckResult(
                "td-skew", False,
                Witness(args, ((phi.codomain.labels[o], residual),)))
    return CheckResult("td-skew", True, detail="%d permutations" % len(all_permutations(n)))
