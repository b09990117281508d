"""Coassociative coalgebras from sparse coproduct triples.

A coalgebra is a based space C with a coproduct stored as quadruples
(source i, left j, right k, coefficient q), meaning the image of the i-th
basis vector contains q * c_j (x) c_k.  No counit anywhere: the constructions
never need one, and the exterior-square example admits none.
"""

import itertools
from fractions import Fraction

from .checks import CheckResult, Witness
from .errors import AxiomError, MalformedInput
from .linalg import ZERO, BasedSpace, tensor_space
from .maps import MultilinearMap

COCOMMUTATIVE = "cocommutative"
SKEW_COCOMMUTATIVE = "skew_cocommutative"
NEITHER = "neither"


class Coalgebra:
    def __init__(self, space, coproduct, check=True):
        """coproduct: iterable of (i, j, k, q) or a {(i,j,k): q} dict."""
        table = {}
        if isinstance(coproduct, dict):
            items = [(i, j, k, q) for (i, j, k), q in coproduct.items()]
        else:
            items = list(coproduct)
        for i, j, k, q in items:
            for idx in (i, j, k):
                if not 0 <= idx < space.dim:
                    raise MalformedInput(
                        "coproduct index %d out of range for %s (dim %d)"
                        % (idx, space.name, space.dim))
            key = (i, j, k)
            table[key] = table.get(key, ZERO) + Fraction(q)
        self.space = space
        self.coproduct = {key: q for key, q in table.items() if q}
        self._iterated = {}
        if check:
            result = check_coassociativity(self)
            if not result:
                raise AxiomError("not coassociative: " + result.describe(), result)

    @property
    def dim(self):
        return self.space.dim

    def splits(self, i):
        """Sorted [(j, k, q)] with the coproduct of basis vector i."""
        out = [(j, k, q) for (si, j, k), q in self.coproduct.items() if si == i]
        out.sort()
        return out

    def iterated_terms(self, n):
        """Sparse n-fold expansion: {source index: [(leg index tuple, q)]}.

        n = 1 is the identity.  For n >= 2 the first leg is expanded each
        time, matching the left-iterated composite; coassociativity makes
        every other association order agree (tested, not assumed here).
        """
        if n < 1:
            raise ValueError("order must be >= 1")
        if n in self._iterated:
            return self._iterated[n]
        if n == 1:
            terms = {i: [((i,), Fraction(1))] for i in range(self.dim)}
        else:
            prev = self.iterated_terms(n - 1)
            terms = {}
            for c, entries in prev.items():
                acc = {}
                for legs, q in entries:
                    for j, k, p in self.splits(legs[0]):
                        key = (j, k) + legs[1:]
                        acc[key] = acc.get(key, ZERO) + q * p
                expansion = sorted(kv for kv in acc.items() if kv[1])
                if expansion:
                    terms[c] = expansion
        self._iterated[n] = terms
        return terms

    def __repr__(self):
        return "Coalgebra(%s, %d splits)" % (self.space.name, len(self.coproduct))


def check_coassociativity(C):
    """Compare both triple coproducts exactly; witness on first mismatch."""
    diff = {}
    for (i, j, k), q in C.coproduct.items():
        # expand the left leg: (j -> a,b) gives (a, b, k)
        for (sj, a, b), p in C.coproduct.items():
            if sj == j:
                key = (i, (a, b, k))
                diff[key] = diff.get(key, ZERO) + q * p
        # expand the right leg: (k -> a,b) gives (j, a, b)
        for (sk, a, b), p in C.coproduct.items():
            if sk == k:
                key = (i, (j, a, b))
                diff[key] = diff.get(key, ZERO) - q * p
    bad = sorted((i, legs) for (i, legs), v in diff.items() if v != 0)
    if not bad:
        return CheckResult("coassociativity", True)
    first_i = bad[0][0]
    labels = C.space.labels
    residual = tuple(
        ("|".join(labels[x] for x in legs), diff[(i, legs)])
        for i, legs in bad if i == first_i
    )
    return CheckResult(
        "coassociativity", False,
        Witness((labels[first_i],), residual))


def iterated_coproduct(C, n):
    """The n-fold coproduct as a 1-ary map C -> C^(x n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    target = tensor_space([C.space] * n)
    dims = [C.dim] * n
    entries = {}
    for c, terms in C.iterated_terms(n).items():
        for legs, q in terms:
            flat = 0
            for leg, d in zip(legs, dims):
                flat = flat * d + leg
            entries[((c,), flat)] = q
    return MultilinearMap([C.space], target, entries)


def symmetry_class(C):
    """Exact classification of tau . coproduct against +-coproduct."""
    flipped = {(i, k, j): q for (i, j, k), q in C.coproduct.items()}
    if flipped == C.coproduct:
        return COCOMMUTATIVE
    if flipped == {key: -q for key, q in C.coproduct.items()}:
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


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


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
                coeff *= _binomial(counts[g], a)
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
