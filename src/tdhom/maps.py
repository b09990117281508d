"""Multilinear maps as sparse structure constants.

A map V_1 (x) ... (x) V_n -> W is a SparseTable keyed by (input index
tuple, output index): nonzero ints over one canonical denominator, with
entries as the read-only Fraction view.  Everything downstream (brackets,
actions, coproduct composites, cochains) is one of these.

The public constructor is the one place where a table is checked: every
index must be an int (not a bool) in the range of its space, and every
scalar an exact rational, so a float raises ScalarError.  A file reader
that has checked every index and scalar itself stores its table through
SparseTable._read, unchecked.  Arithmetic on maps (add, sub, scale,
precompose_perm, compose_at) runs on the stored ints and builds its
result through _trusted, unchecked, since the operands were checked
already; no Fraction is made on the way.  The checkers compose no maps:
they sum each identity's int defect (algebra), and composite_into is the
one loop composing stores, for compose_at and algebra.composite_defect.
The map-level identity route they replaced (is_skew, first_difference,
term_sum, map_identity_check) lives on in the test oracles.
"""

from .errors import MalformedInput, ShapeError
from .linalg import ZERO, SparseTable, _exact, getter


def _check_int(i, role, space):
    if type(i) is not int:
        raise MalformedInput("%s index %r for %s is not an integer"
                             % (role, i, space.name))


def _check_index(i, dim, role, space):
    _check_int(i, role, space)
    if not 0 <= i < dim:
        raise MalformedInput("%s index %d out of range for %s" % (role, i, space.name))


class MultilinearMap(SparseTable):
    SHAPE = ("domain", "codomain")
    _by_input = None

    def __init__(self, domain, codomain, entries):
        domain = tuple(domain)
        dims = tuple(space.dim for space in domain)
        out_dim = codomain.dim
        table = {}
        for key, value in dict(entries).items():
            tup, out = key
            tup = tuple(tup)
            if len(tup) != len(dims):
                raise ShapeError("input tuple %r has wrong arity" % (tup,))
            for i, dim, space in zip(tup, dims, domain):
                _check_index(i, dim, "input", space)
            _check_index(out, out_dim, "output", codomain)
            table[(tup, out)] = _exact(value)
        self.domain = domain
        self.codomain = codomain
        self._set_table(table)

    @classmethod
    def _trusted(cls, domain, codomain, ints, den):
        """The map ints / den on in-range keys, such as arithmetic on checked
        maps builds: only its zeros are dropped and its form made canonical."""
        m = cls.__new__(cls)
        m.domain, m.codomain = tuple(domain), codomain
        m._set_ints(ints, den)
        return m

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, {})

    @property
    def arity(self):
        return len(self.domain)

    def by_input(self):
        """The entries grouped by input tuple: {tuple: {output: Fraction}}.

        Built on first use and cached.  Nothing mutates entries after
        construction (arithmetic builds a new map), so the cache stays
        valid for the map's lifetime.
        """
        if self._by_input is None:
            self._by_input = {}
            for (tup, o), q in self.entries.items():
                self._by_input.setdefault(tup, {})[o] = q
        return self._by_input

    def apply_basis(self, tup):
        """Value on a basis tuple, as a sparse {output index: Fraction} dict."""
        if len(tup) != self.arity:
            raise ShapeError("tuple %r for a map of arity %d" % (tup, self.arity))
        return dict(self.by_input().get(tuple(tup), {}))

    def coefficient(self, tup, out):
        return self.entries.get((tuple(tup), out), ZERO)

    def _dims(self):
        return tuple(s.dim for s in self.domain), self.codomain.dim

    def _check_compatible(self, other):
        if self.domain != other.domain or self.codomain is not other.codomain:
            raise ShapeError("maps on different spaces do not add")

    def precompose_perm(self, p):
        """self composed with a permutation of its arguments:
        (f . p)(x_1,..,x_n) = f(x_{p(1)},..,x_{p(n)})."""
        if p.size != self.arity:
            raise ShapeError("permutation size %d vs arity %d" % (p.size, self.arity))
        move = getter(p.inverse())
        table = {(move(tup), out): v for (tup, out), v in self._ints.items()}
        return MultilinearMap._trusted(move(self.domain), self.codomain,
                                       table, self._denominator)

    def composed_domain(self, inner, slot):
        """The domain of self . inner at slot; ShapeError unless it fits."""
        if not 0 <= slot < self.arity:
            raise ShapeError("slot %d out of range" % slot)
        if inner.codomain.dim != self.domain[slot].dim:
            raise ShapeError(
                "codomain %s does not fit slot %d (%s)"
                % (inner.codomain.name, slot, self.domain[slot].name))
        return self.domain[:slot] + inner.domain + self.domain[slot + 1:]

    def compose_at(self, inner, slot):
        """self . (1 x .. x inner x .. x 1) with inner feeding slot (0-based)."""
        domain = self.composed_domain(inner, slot)
        acc = {}
        composite_into(acc, self._ints, inner._ints, slot, None, 1)
        return MultilinearMap._trusted(domain, self.codomain, acc,
                                       self._denominator * inner._denominator)

    def __repr__(self):
        doms = "*".join(s.name for s in self.domain)
        return "MultilinearMap(%s->%s, %d entries)" % (doms, self.codomain.name, len(self._ints))


def composite_into(acc, outer, inner, slot, move, coeff):
    """Add coeff times outer . inner at slot, on int stores, into acc
    {(tup, out): int}, each tuple moved by move (None: left in place)."""
    feeding = {}
    for (itup, o), p in inner.items():
        feeding.setdefault(o, []).append((itup, p))
    for (tup, out), q in outer.items():
        fed = feeding.get(tup[slot])
        if fed is None:
            continue
        head, tail, q = tup[:slot], tup[slot + 1:], coeff * q
        for itup, p in fed:
            t = head + itup + tail
            key = (t if move is None else move(t), out)
            acc[key] = acc.get(key, 0) + q * p
