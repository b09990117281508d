"""Coassociative coalgebras from sparse coproduct triples.

A coalgebra is a based space C with a coproduct given as quadruples
(source i, left j, right k, coefficient q), meaning the image of the i-th
basis vector contains q * c_j (x) c_k, and held in a SparseTable store:
ints over one denominator d, with coproduct its read-only Fraction view.
The checks and the induced operators run on those ints and on the n-fold
expansion's, over d^(n-1).  The expansions are kept per source, one chain
Delta^(1)(c), Delta^(2)(c), ... each, so lives(n) can decide whether
Delta^(n) is nonzero at the first source that shows it.  No counit
anywhere: the constructions never need one, and the exterior-square
example admits none.
"""

import itertools
from math import comb

from .checks import CheckResult, Witness, decided_once, require
from .linalg import BasedSpace, SparseTable, _exact, ratio
from .maps import _check_index

COCOMMUTATIVE = "cocommutative"
SKEW_COCOMMUTATIVE = "skew_cocommutative"
NEITHER = "neither"


class Coalgebra:
    def __init__(self, space, coproduct, check=True):
        """coproduct: iterable of (i, j, k, q), a {(i,j,k): q} mapping, or a
        SparseTable that a file reader has checked (SparseTable._read)."""
        if isinstance(coproduct, SparseTable):
            store = coproduct
        else:
            table = {}
            if hasattr(coproduct, "items"):
                coproduct = [key + (q,) for key, q in coproduct.items()]
            for i, j, k, q in coproduct:
                for idx in (i, j, k):
                    _check_index(idx, space.dim, "coproduct", space)
                key, q = (i, j, k), _exact(q)
                table[key] = table[key] + q if key in table else q
            store = SparseTable._read(table)
        self.space = space
        self._store = store
        self._splits = {}
        for (i, j, k), q in sorted(self._store._ints.items()):
            self._splits.setdefault(i, []).append((j, k, q))
        self._chains = [[[((i,), 1)]] for i in range(space.dim)]
        if check:
            require(check_coassociativity(self), "not coassociative: ")

    @property
    def dim(self):
        return self.space.dim

    @property
    def coproduct(self):
        """The coproduct as a read-only {(i, j, k): Fraction}."""
        return self._store.entries

    def splits(self, i):
        """Sorted [(j, k, q)] with the coproduct of basis vector i."""
        den = self._store._denominator
        return [(j, k, ratio(q, den)) for (j, k), q in self._chain(i, 2)]

    def _chain(self, c, n):
        """Delta^(n)(c) as sorted [(legs, int)] over d^(n-1), n >= 1.  Each
        source keeps its own chain Delta^(1)(c), Delta^(2)(c), ..., grown
        by expanding the first leg: Delta^(n)(c) = (Delta (x) id)
        Delta^(n-1)(c)."""
        chain = self._chains[c]
        while len(chain) < n:
            acc = {}
            for legs, q in chain[-1]:
                for j, k, p in self._splits.get(legs[0], ()):
                    key = (j, k) + legs[1:]
                    acc[key] = acc.get(key, 0) + q * p
            chain.append(sorted(kv for kv in acc.items() if kv[1]))
        return chain[n - 1]

    def _expansion(self, n):
        """(terms, den), n >= 1: (source, sorted [(legs, int)]) over den for
        every source whose expansion is nonzero, in source order."""
        chains = ((c, self._chain(c, n)) for c in range(self.dim))
        return ((c, e) for c, e in chains if e), self._store._denominator ** (n - 1)

    def lives(self, n):
        """True when Delta^(n) is nonzero, decided source by source: it
        stops at the first source c with Delta^(n)(c) nonzero, having
        grown only the chains of the sources before it and c's own."""
        if n < 1:
            raise ValueError("order must be >= 1")
        return any(self._chain(c, n) for c in range(self.dim))

    def iterated_terms(self, n):
        """Sparse n-fold expansion: {source index: [(leg index tuple, q)]}.

        n = 1 is the identity.  For n >= 2 the first leg is expanded each
        time, matching the left-iterated composite; coassociativity makes
        every other association order agree (tested, not assumed here).
        Exact values: the kept ints themselves over an integral coproduct.
        """
        if n < 1:
            raise ValueError("order must be >= 1")
        terms, den = self._expansion(n)
        if den == 1:
            return dict(terms)
        return {c: [(legs, ratio(q, den)) for legs, q in expansion]
                for c, expansion in terms}

    def __repr__(self):
        return "Coalgebra(%s, %d splits)" % (self.space.name, len(self._store._ints))


@decided_once
def check_coassociativity(C):
    """Compare both triple coproducts exactly; witness on first mismatch."""
    acc = {}
    for (i, j, k), q in C._store._ints.items():
        # expand the left leg: (j -> a,b) gives (a, b, k)
        for a, b, p in C._splits.get(j, ()):
            key = (i, (a, b, k))
            acc[key] = acc.get(key, 0) + q * p
        # expand the right leg: (k -> a,b) gives (j, a, b)
        for a, b, p in C._splits.get(k, ()):
            key = (i, (j, a, b))
            acc[key] = acc.get(key, 0) - q * p
    diff = SparseTable._stored(acc, C._store._denominator ** 2)
    if diff.is_zero():
        return CheckResult("coassociativity", True)
    bad = sorted(diff._ints)
    first_i = bad[0][0]
    labels = C.space.labels
    residual = tuple(
        ("|".join(labels[x] for x in legs), diff.entries[(i, legs)])
        for i, legs in bad if i == first_i
    )
    return CheckResult(
        "coassociativity", False,
        Witness((labels[first_i],), residual))


def symmetry_class(C):
    """Exact classification of tau . coproduct against +-coproduct."""
    ints = C._store._ints
    flipped = {(i, k, j): q for (i, j, k), q in ints.items()}
    if flipped == ints:
        return COCOMMUTATIVE
    if flipped == {key: -q for key, q in ints.items()}:
        return SKEW_COCOMMUTATIVE
    return NEITHER


def _word_label(labels, word):
    return "".join(labels[i] for i in word)


def build_tensor_coalgebra(V, maxdeg, include_empty_word=False):
    """Words of length 1..maxdeg over V's basis with reduced deconcatenation.

    With include_empty_word=True the empty word joins the basis and the
    coproduct becomes full deconcatenation (the counital variant).
    """
    if maxdeg < 1:
        raise ValueError("maxdeg must be >= 1")
    words = []
    if include_empty_word:
        words.append(())
    for n in range(1, maxdeg + 1):
        words.extend(itertools.product(range(V.dim), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    labels = [_word_label(V.labels, w) if w else "1" for w in words]
    space = BasedSpace("T%d(%s)" % (maxdeg, V.name), labels)
    triples = []
    for w in words:
        lo = 0 if include_empty_word else 1
        for cut in range(lo, len(w) + 1 - lo):
            triples.append((index[w], index[w[:cut]], index[w[cut:]], 1))
    return Coalgebra(space, triples)


def build_symmetric_coalgebra(V, maxdeg):
    """Multisets of size 1..maxdeg with the binomial deshuffle coproduct.

    Splitting a multiset counts the ways to pick which copies go left, so
    the degree-2 square splits as 2 * (x (x) x).  (The alternative convention
    without multiplicities is not implemented.)
    """
    if maxdeg < 1:
        raise ValueError("maxdeg must be >= 1")
    multisets = []
    for n in range(1, maxdeg + 1):
        multisets.extend(itertools.combinations_with_replacement(range(V.dim), n))
    index = {m: i for i, m in enumerate(multisets)}
    labels = ["·".join(V.labels[i] for i in m) for m in multisets]
    space = BasedSpace("S%d(%s)" % (maxdeg, V.name), labels)
    triples = []
    for m in multisets:
        counts = {v: m.count(v) for v in set(m)}
        gens = sorted(counts)
        ranges = [range(counts[g] + 1) for g in gens]
        for pick in itertools.product(*ranges):
            left = []
            for g, a in zip(gens, pick):
                left.extend([g] * a)
            left = tuple(sorted(left))
            rem = dict(counts)
            for g, a in zip(gens, pick):
                rem[g] -= a
            right = tuple(g for g in gens for _ in range(rem[g]))
            if not left or not right:
                continue
            coeff = 1
            for g, a in zip(gens, pick):
                coeff *= comb(counts[g], a)
            triples.append((index[m], index[left], index[right], coeff))
    return Coalgebra(space, triples)


def build_exterior_square_coalgebra(V):
    """V plus wedge pairs; the wedge splits as x (x) y - y (x) x."""
    if V.dim < 2:
        raise ValueError("need dim >= 2 for a wedge")
    labels = list(V.labels)
    pairs = list(itertools.combinations(range(V.dim), 2))
    labels.extend("%s∧%s" % (V.labels[i], V.labels[j]) for i, j in pairs)
    space = BasedSpace("Ext(%s)" % V.name, labels)
    triples = []
    for n, (i, j) in enumerate(pairs):
        w = V.dim + n
        triples.append((w, i, j, 1))
        triples.append((w, j, i, -1))
    return Coalgebra(space, triples)
