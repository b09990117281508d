"""Operators on Hom(C,L) induced by multilinear maps on the targets.

A multilinear map on the target spaces plus an iterated coproduct on the
source coalgebra induces a multilinear operator on Hom spaces: evaluate the
coproduct, feed the legs to the arguments, apply the map.  A twist routes
argument i to coproduct leg sigma(i) first.

Operator identities are decided on matrix-unit arguments: the operators are
multilinear, and matrix units span Hom(C,L), so agreement there is agreement
everywhere.  On those arguments the operator a base map psi induces through
Delta^(n) with its legs permuted by rho is the outer product psi (x) D_rho.
InducedOperator keeps a sum of those as its parts {rho: psi_rho}, so
induced(phi, C) is the one part {identity: phi}, and decides whether it
vanishes from the psi's and the at most n! tables D_rho: passing
identities are never laid out.  A twisted identity is the classical one
with each rearranged term f . p twisted by p; twisting by p and then
rearranging by p cancel, so its side is the classical side induced
(twisted_sum).  materialize() lays an operator out as a sparse table keyed
by matrix-unit argument tuples; that table (MaterializedOperator, and
twisted_term, which builds one) is the library API, the path that names
the witness of a failing identity, and the test oracle for the
unmaterialized form.  All of it runs on ints, the n-fold coproduct's times
the base maps', and builds results unchecked from checked operands through
_stored and _trusted.
"""

import itertools
import math

from .checks import CheckResult, Witness
from .errors import GuardError, ShapeError, TdhomError
from .linalg import (
    ZERO,
    Echelon,
    Permutation,
    SparseTable,
    _exact,
    common_ints,
    gather,
    getter,
    tensor_space,
)
from .maps import MultilinearMap, _check_index, term_sum

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
    """A sum of induced operators kept as its parts: sum over rho of
    psi_rho (x) D_rho, over one coalgebra and one arity.

    D_rho is the n-fold coproduct with its legs permuted by rho, the table
    {(c, gather(rho, legs)): q}, and psi_rho (x) D_rho is the operator that
    evaluates the coproduct, feeds leg rho(i) to argument i and applies
    psi_rho.  parts maps each twist rho to its base map psi_rho, zero maps
    dropped.  domain and codomain label the arguments and the output; they
    stay when every part cancels, so a failing identity with a vanishing
    side still names its witness.  Nothing is laid out unless asked.
    """

    def __init__(self, coalgebra, domain, codomain, parts):
        self.coalgebra = coalgebra
        self.domain = tuple(domain)
        self.codomain = codomain
        self.parts = {rho: psi for rho, psi in parts.items()
                      if not psi.is_zero()}

    @property
    def arity(self):
        return len(self.domain)

    def _like(self, domain, parts):
        return InducedOperator(self.coalgebra, domain, self.codomain, parts)

    def add(self, other):
        """Parts sharing a twist merge into one base map, entry by entry:
        as for materialized tables, only the arity must match."""
        if self.arity != other.arity:
            raise ShapeError("operators of arity %d and %d do not add"
                             % (self.arity, other.arity))
        if self.coalgebra is not other.coalgebra:
            raise ShapeError("operators live over different coalgebras")
        parts = dict(self.parts)
        for rho, psi in other.parts.items():
            parts[rho] = _map_sum(parts[rho], psi) if rho in parts else psi
        return self._like(self.domain, parts)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, q):
        return self._like(self.domain, {rho: psi.scale(q)
                                        for rho, psi in self.parts.items()})

    def argument_permute(self, sigma):
        """The operator evaluated on rearranged arguments: position i gets
        the old argument sigma(i).  Part (psi, rho) becomes
        (psi . sigma, sigma^-1 then rho)."""
        if sigma.size != self.arity:
            raise ShapeError("permutation size %d vs arity %d"
                             % (sigma.size, self.arity))
        inv = sigma.inverse()
        return self._like(gather(inv, self.domain),
                          {inv.then(rho): psi.precompose_perm(sigma)
                           for rho, psi in self.parts.items()})

    def reduced(self):
        """{pivot rho: psi}: the same operator over independent D_rho.

        The twists are taken in order of their images; those whose D_rho is
        independent of the D's before it are the pivots, and every other
        D_rho is written in the pivots with exact coefficients, its psi
        folded onto theirs.  Since psi (x) D is an outer product, a sum over
        independent D's vanishes exactly when each psi does, so the result
        is empty exactly when the operator is zero.

        The pivots depend on which twists occur.  Operators that all have
        one and the same twist rho reduce to {rho: psi} or, when D_rho is
        zero, to nothing, so their reduced maps stacked as columns have the
        kernel of their materialized tables.
        """
        twists = sorted(self.parts, key=lambda rho: rho.images)
        # every D_rho over the same denominator, which the residues ignore
        terms, _ = self.coalgebra._expansion(self.arity)
        legs_tables = [{(c, move(legs)): q
                        for c, expansion in terms.items()
                        for legs, q in expansion}
                       for move in map(getter, twists)]
        # only the reduction is used: residues[i] writes D_i in the pivots
        ech = Echelon(None, legs_tables, [{i: 1} for i in range(len(twists))])
        out = {}
        for i, rho in enumerate(twists):
            residue = ech.residues.get(i)
            coords = ({rho: 1} if residue is None else
                      {twists[j]: -a for j, a in residue.items() if j != i})
            for pivot, a in coords.items():
                term = self.parts[rho].scale(a)
                out[pivot] = _map_sum(out[pivot], term) if pivot in out else term
        return {rho: psi for rho, psi in out.items() if not psi.is_zero()}

    def vanishes(self):
        """Whether the operator is zero, decided without laying it out."""
        return not self.reduced()

    # the SparseTable name, for callers written against materialized tables
    is_zero = vanishes

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
        # contract the laid-out table: argument i is the matrix unit cols[i]
        table = self.materialize()
        out = {}
        for (o, c, cols), v in table._ints.items():
            for f, unit in zip(fs, cols):
                v *= f._ints.get(unit, 0)
            out[(o, c)] = out.get((o, c), 0) + v
        den = table._denominator * math.prod(f._denominator for f in fs)
        return HomElement._stored(out, den, source=self.coalgebra,
                                  target=self.codomain)

    def materialize(self):
        """Sparse table over matrix-unit argument tuples, summed over the
        parts.

        The table serves the library API, failure witnesses and the test
        oracle; the checkers decide identities with vanishes() instead.
        """
        terms, den = self.coalgebra._expansion(self.arity)
        tables, psi_den = common_ints(list(self.parts.values()))
        entries = {}
        for table, rho in zip(tables, self.parts):
            move = getter(rho)
            for c, expansion in terms.items():
                for legs, q in expansion:
                    routed = move(legs)
                    for (tup, o), p in table.items():
                        key = (o, c, tuple(zip(tup, routed)))
                        entries[key] = entries.get(key, 0) + q * p
        return MaterializedOperator._stored(
            entries, den * psi_den, arity=self.arity,
            coalgebra=self.coalgebra, domain=self.domain,
            codomain=self.codomain)

    def __repr__(self):
        return "InducedOperator(arity=%d, %d parts)" % (
            self.arity, len(self.parts))


def _map_sum(psi, other):
    """psi + other entry by entry, as materialized tables add: only the
    arity has to agree.  Each argument keeps psi's space unless other's is
    larger there, which happens only in a sum that does not typecheck."""
    domain = [a if a.dim >= b.dim else b
              for a, b in zip(psi.domain, other.domain)]
    codomain = psi.codomain if psi.codomain.dim >= other.codomain.dim \
        else other.codomain
    return MultilinearMap._trusted(domain, codomain, *psi._plus(other))


class MaterializedOperator(SparseTable):
    """A multilinear operator on Hom spaces, laid out on matrix-unit tuples:
    the library API, the failure-witness path and the test oracle.

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
    reading coproduct leg sigma(i): the one part {sigma: phi}."""
    if phi.arity < 1:
        raise ShapeError("induced operators need arity >= 1")
    if sigma.size != phi.arity:
        raise ShapeError("twist size %d vs arity %d" % (sigma.size, phi.arity))
    return InducedOperator(C, phi.domain, phi.codomain, {sigma: phi})


def induced(phi, C):
    """The untwisted operator built from phi and C's iterated coproduct."""
    return twisted(phi, C, Permutation.identity(phi.arity))


def twisted_term(phi, C, sigma):
    """Materialized 'twist then rearrange': the twisted operator for sigma,
    precomposed with sigma on its arguments.

    This is the twisted-domain image of the classical term phi . sigma, and
    the shape every summand of a twisted identity takes.  It equals
    induced(phi.precompose_perm(sigma), C).materialize(), which is how
    twisted_sum states it, so nothing in the package calls it.  It stays
    as the library API and the test oracle, and perfbench's tracer looks
    it up by name.
    """
    return twisted(phi, C, sigma).materialize().argument_permute(sigma)


def twisted_sum(terms, C):
    """maps.term_sum(terms) over C, each rearrangement f . p replaced by
    its twisted counterpart, twisted by p and then rearranged by p.  The
    two cancel, so the counterpart is induced(f . p, C) and the sum is
    the classical side induced: the one part {identity: term_sum(terms)}.
    tests/td_oracle.py keeps the sum of the terms, each twisted and
    rearranged as an operator, as the oracle."""
    return induced(term_sum(terms), C)


def _untwisted_base(op):
    """The identity part of op, or the zero map when every part cancelled;
    TdhomError when op keeps any other part."""
    identity = Permutation.identity(op.arity)
    if any(rho != identity for rho in op.parts):
        raise TdhomError("twisted operators do not compose; twist afterwards instead")
    return op.parts.get(identity, MultilinearMap.zero(op.domain, op.codomain))


def compose_induced(outer, inner, slot):
    """Feed inner's output into one argument slot (0-based) of outer.

    Both operators must be untwisted, with no part but the identity one,
    and over the same coalgebra; the result is the operator induced by the
    composed base maps, which property tests confirm equals the literal
    evaluation-level composition.  An operator whose parts all cancelled
    counts as untwisted and composes as the zero map.
    """
    outer_base, inner_base = _untwisted_base(outer), _untwisted_base(inner)
    if outer.coalgebra is not inner.coalgebra:
        raise ShapeError("operators live over different coalgebras")
    return induced(outer_base.compose_at(inner_base, slot), outer.coalgebra)


def operator_witness(mat, found):
    """Label a first_difference result with matrix-unit and basis names."""
    cols, c, o, residual = found
    C = mat.coalgebra
    labels = tuple(unit_label(C, space, t, leg)
                   for space, (t, leg) in zip(mat.domain, cols))
    return Witness(labels + (C.space.labels[c],),
                   ((mat.codomain.labels[o], residual),))


def operator_identity_check(name, lhs, rhs):
    """CheckResult for equality of two InducedOperators.

    The identity holds when lhs - rhs vanishes, which is decided on the
    parts.  Only a failing identity is materialized, both sides, to name the
    first differing matrix-unit tuple as the witness.
    """
    if lhs.sub(rhs).vanishes():
        return CheckResult(name, True)
    table = lhs.materialize()
    found = table.first_difference(rhs.materialize())
    return CheckResult(name, False, operator_witness(table, found))


def check_td_skew(phi, C):
    """Rearranging the arguments by sigma equals the sign of sigma times the
    operator twisted by sigma inverse, for every sigma.

    Both sides at sigma carry the one twist sigma inverse, so the identity
    holds there exactly when phi . sigma = sign(sigma) phi or Delta^(n)
    vanishes.  The sigma where it holds form a group, so the adjacent
    transpositions, which generate S_n, decide all n! of them.  They are
    checked from (n-2 n-1) down to (0 1), the lexicographic order of their
    images, and the first that fails is the first failing sigma of the
    full enumeration: if sigma first moves k, every permutation of the
    points after k precedes it and passes, so (k k+1), which does not
    follow sigma, fails.  Each is decided by operator_identity_check, whose
    witness is prefixed with the transposition's images.  A map whose
    arguments do not all share one space is refused.
    """
    n = phi.arity
    if any(space is not phi.domain[0] for space in phi.domain):
        raise ShapeError("td-skew needs a map whose arguments share one space")
    plain = induced(phi, C)
    for k in reversed(range(n - 1)):
        # a transposition is odd and its own inverse
        swap = Permutation.transposition(k, k + 1, n)
        result = operator_identity_check(
            "td-skew", plain.argument_permute(swap),
            twisted(phi, C, swap).scale(-1))
        if not result:
            w = result.witness
            return CheckResult("td-skew", False,
                               Witness((swap.images,) + w.args, w.residual))
    return CheckResult("td-skew", True,
                       detail="%d permutations" % math.factorial(n))
