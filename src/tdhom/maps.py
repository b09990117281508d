"""Multilinear maps as sparse structure constants.

A map V_1 (x) ... (x) V_n -> W is a dict from (input index tuple, output
index) to a nonzero Fraction.  Everything downstream (brackets, actions,
coproduct composites, cochains) is one of these.
"""

from fractions import Fraction

from .errors import MalformedInput, ShapeError
from .linalg import ZERO, SparseTable, gather, scatter


class MultilinearMap(SparseTable):
    def __init__(self, domain, codomain, entries):
        domain = tuple(domain)
        table = {}
        for key, value in dict(entries).items():
            tup, out = key
            tup = tuple(tup)
            if len(tup) != len(domain):
                raise ShapeError("input tuple %r has wrong arity" % (tup,))
            for i, space in zip(tup, domain):
                if not 0 <= i < space.dim:
                    raise MalformedInput("input index %d out of range for %s" % (i, space.name))
            if not 0 <= out < codomain.dim:
                raise MalformedInput("output index %d out of range for %s" % (out, codomain.name))
            value = Fraction(value)
            if value != 0:
                table[(tup, out)] = value
        self.domain = domain
        self.codomain = codomain
        self.entries = table

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, {})

    @property
    def arity(self):
        return len(self.domain)

    def apply_basis(self, tup):
        """Value on a basis tuple, as a sparse {output index: Fraction} dict."""
        if len(tup) != self.arity:
            raise ShapeError("tuple %r for a map of arity %d" % (tup, self.arity))
        out = {}
        for (key, o), q in self.entries.items():
            if key == tup:
                out[o] = out.get(o, ZERO) + q
        return out

    def coefficient(self, tup, out):
        return self.entries.get((tuple(tup), out), ZERO)

    def _like(self, table):
        return MultilinearMap(self.domain, self.codomain, table)

    def _check_compatible(self, other):
        if self.domain != other.domain or self.codomain is not other.codomain:
            raise ShapeError("maps on different spaces do not add")

    def precompose_perm(self, p):
        """self composed with a permutation of its arguments:
        (f . p)(x_1,..,x_n) = f(x_{p(1)},..,x_{p(n)})."""
        if p.size != self.arity:
            raise ShapeError("permutation size %d vs arity %d" % (p.size, self.arity))
        table = {}
        for (tup, out), q in self.entries.items():
            table[(scatter(p, tup), out)] = q
        return MultilinearMap(scatter(p, self.domain), self.codomain, table)

    def compose_at(self, inner, slot):
        """self . (1 x .. x inner x .. x 1) with inner feeding slot (0-based)."""
        if not 0 <= slot < self.arity:
            raise ShapeError("slot %d out of range" % slot)
        if inner.codomain.dim != self.domain[slot].dim:
            raise ShapeError(
                "codomain %s does not fit slot %d (%s)"
                % (inner.codomain.name, slot, self.domain[slot].name))
        domain = self.domain[:slot] + inner.domain + self.domain[slot + 1:]
        table = {}
        for (tup, out), q in self.entries.items():
            mid = tup[slot]
            for (itup, iout), p in inner.entries.items():
                if iout != mid:
                    continue
                key = (tup[:slot] + itup + tup[slot + 1:], out)
                table[key] = table.get(key, ZERO) + q * p
        return MultilinearMap(domain, self.codomain, table)

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearMap)
            and tuple(s.dim for s in self.domain) == tuple(s.dim for s in other.domain)
            and self.codomain.dim == other.codomain.dim
            and self.entries == other.entries
        )

    def __repr__(self):
        doms = "*".join(s.name for s in self.domain)
        return "MultilinearMap(%s->%s, %d entries)" % (doms, self.codomain.name, len(self.entries))


def is_skew(f):
    """True iff f . t = -f for every adjacent transposition t (hence all of S_n)."""
    from .linalg import Permutation
    for i in range(f.arity - 1):
        t = Permutation.transposition(i, i + 1, f.arity)
        if not f.precompose_perm(t).add(f).is_zero():
            return False
    return True


def first_difference(f, g):
    """Lexicographically first (input tuple, residual) where f and g differ.

    Returns None when equal.  Residual is a sorted tuple of
    (output index, Fraction) pairs.
    """
    diff = f.sub(g)
    if diff.is_zero():
        return None
    tuples = sorted({tup for (tup, _out) in diff.entries})
    first = tuples[0]
    residual = tuple(sorted((out, q) for (tup, out), q in diff.entries.items() if tup == first))
    return first, residual


def map_identity_check(name, lhs, rhs):
    """CheckResult for lhs == rhs with a labeled first-failure witness."""
    from .checks import CheckResult, Witness

    found = first_difference(lhs, rhs)
    if found is None:
        return CheckResult(name, True)
    tup, residual = found
    args = tuple(space.labels[i] for space, i in zip(lhs.domain, tup))
    labeled = tuple((lhs.codomain.labels[out], q) for out, q in residual)
    return CheckResult(name, False, Witness(args, labeled))
