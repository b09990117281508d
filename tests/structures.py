"""The structures the tests build, each defined once.

matrix_unit_lie builds gl_n, b_n and n_n on their matrix units;
adjoint_module, trivial_module and direct_sum build on a Lie algebra.
rebased is the one change of basis, exact: P^-1 is solved for, and a
singular P raises.  Permuted and scaled bases (rebased_adjoint) and
scaled ones (diagonal) are particular values of P.  The rest are the
coalgebras, random maps and Hom-space helpers that several test modules
use.  Nothing in the package uses this module, and it is no oracle.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import strategies as st

from tdhom.algebra import LieAlgebra, LieModule
from tdhom.coalgebra import Coalgebra
from tdhom.convolution import HomElement, interchange, twisted
from tdhom.linalg import BasedSpace, RationalMatrix, gather, solve
from tdhom.maps import MultilinearMap
from linalg_oracle import table_sum


def matrix_unit_lie(family, n, space=None, check=True):
    """gl_n, b_n (upper triangular) or n_n (strictly upper triangular),
    named e.g. "gl3", on its matrix units E_ij, row by row, of a space
    named space (default: the algebra's name), under [E_ij, E_kl] =
    d_jk E_il - d_li E_kj.

    Every ordered pair is stored, so the bracket holds entries of both
    signs, not only those on increasing pairs.
    """
    name = "%s%d" % (family, n)
    units = [(i, j) for i in range(n) for j in range(n)
             if family == "gl" or j >= i + (family == "n")]
    pos = {u: k for k, u in enumerate(units)}
    table = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                key = ((a, b), pos[(i, l)])
                table[key] = table.get(key, 0) + 1
            if l == i:
                key = ((a, b), pos[(k, j)])
                table[key] = table.get(key, 0) - 1
    L = BasedSpace(space or name, ["E%d%d" % (i + 1, j + 1) for i, j in units])
    return LieAlgebra(L, MultilinearMap([L, L], L, table), check=check,
                      name=name)


def adjoint_module(A, check=True):
    """A acting on itself by its bracket."""
    return LieModule(A, A.space, A.bracket, check=check)


def trivial_module(A):
    """The Lie algebra A acting by zero on a line."""
    line = BasedSpace("k", ["1"])
    return LieModule(A, line, MultilinearMap([A.space, line], line, {}))


@lru_cache(maxsize=None)
def matrix_unit_adjoint(family, n):
    """The adjoint module of gl_n, b_n or n_n, built once."""
    return adjoint_module(matrix_unit_lie(family, n))


def direct_sum(L1, L2):
    """L1 (+) L2: the basis of L1, then that of L2, labelled with the
    suffixes .1 and .2; each bracket acts on its own summand, and the two
    summands commute."""
    n = L1.space.dim
    space = BasedSpace("%s+%s" % (L1.name, L2.name),
                       ["%s.1" % label for label in L1.space.labels]
                       + ["%s.2" % label for label in L2.space.labels])
    table = dict(L1.bracket.entries)
    table.update({((x + n, y + n), o + n): q
                  for ((x, y), o), q in L2.bracket.entries.items()})
    return LieAlgebra(space, MultilinearMap([space, space], space, table))


def diagonal(scales):
    """The P of the basis e'_a = scales[a] e_a."""
    return [[s if i == a else 0 for a in range(len(scales))]
            for i, s in enumerate(scales)]


def rebased(x, P, space=None, new=None):
    """x in the basis f_a = sum_i P[i][a] e_i of one of its spaces, on the
    space new (default: that space, kept).

    x is a MultilinearMap, rebased on space, or a Coalgebra, a LieAlgebra
    or a LieModule, each rebased on its own (Lie) space.  A map takes each
    argument in that space through P and reads a value there back through
    P^-1; a coproduct takes its source through P and its legs through
    P^-1.  Coalgebras come back unchecked, Lie algebras and modules
    checked.  A singular P raises ValueError.
    """
    d = len(P)
    columns = solve(RationalMatrix.from_rows(P), RationalMatrix.identity(d))
    if None in columns:
        raise ValueError("singular change of basis")
    ins = [[(a, w) for a, w in enumerate(row) if w] for row in P]
    outs = [[(r, w) for r, w in enumerate(column) if w] for column in columns]

    def table(entries, slots):
        # each index i of a flat key spreads to slots[i]'s (index, weight)
        out = {}
        for key, q in entries:
            for choice in itertools.product(*(
                    slot[i] if slot else [(i, 1)] for slot, i in zip(slots, key))):
                k = tuple(i for i, _ in choice)
                out[k] = out.get(k, 0) + q * math.prod(w for _, w in choice)
        return {k: q for k, q in out.items() if q}

    def on(m, space, new):
        slots = [ins if s is space else None for s in m.domain] \
            + [outs if m.codomain is space else None]
        flat = table(((tup + (o,), q) for (tup, o), q in m.entries.items()),
                     slots)
        moved = [new if s is space else s for s in m.domain + (m.codomain,)]
        return MultilinearMap(moved[:-1], moved[-1],
                              {(k[:-1], k[-1]): q for k, q in flat.items()})

    if isinstance(x, MultilinearMap):
        return on(x, space, new or space)
    if isinstance(x, Coalgebra):
        return Coalgebra(new or x.space,
                         table(x.coproduct.items(), (ins, outs, outs)),
                         check=False)
    lie = x if isinstance(x, LieAlgebra) else x.base
    L = lie.space
    new = new or L
    base = LieAlgebra(new, on(lie.bracket, L, new))
    if x is lie:
        return base
    return LieModule(base, new if x.space is L else x.space,
                     on(x.action, L, new))


def rebased_adjoint(M, seed):
    """The adjoint module M in the basis e'_a = s_a e_p(a), with the
    permutation p and the scales s drawn from the seed; e'_a keeps the
    label of e_p(a).  A seed of None keeps M."""
    if seed is None:
        return M
    rng = random.Random(seed)
    L = M.base.space
    perm = list(range(L.dim))
    rng.shuffle(perm)
    scales = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 5)))
              * rng.choice((1, -1)) for _ in perm]
    P = [[scales[a] if perm[a] == i else 0 for a in range(L.dim)]
         for i in range(L.dim)]
    return rebased(M, P, new=BasedSpace(L.name, [L.labels[old] for old in perm]))


def incidence_coalgebra(n, relations):
    """The incidence coalgebra of the poset on range(n) generated by the
    pairs x < y in relations (Joni & Rota 1979): the intervals [x, y],
    x <= y, with Delta[x, y] = sum_{x <= z <= y} [x, z] (x) [z, y].  Each
    [x, x] goes to [x, x] (x) [x, x], so no Delta^(k) is ever zero."""
    le = {(x, x) for x in range(n)} | set(relations)
    for z in range(n):
        le |= {(x, y) for x, w in le if w == z for v, y in le if v == z}
    intervals = sorted(le)
    index = {iv: i for i, iv in enumerate(intervals)}
    triples = [(index[(x, y)], index[(x, z)], index[(z, y)], 1)
               for x, y in intervals for z in range(x, y + 1)
               if (x, z) in le and (z, y) in le]
    return Coalgebra(BasedSpace("I", ["[%d,%d]" % iv for iv in intervals]),
                     triples)


def cancelling_coalgebra():
    """c0 -> c1(x)c3 - c2(x)c3, c1 -> c4(x)c4, c2 -> c4(x)c4, unchecked:
    expanding the first leg of c0 twice gives c4(x)c4(x)c3 with
    coefficients 1 and -1: Delta^(3) is zero while Delta^(2) is not, and
    at c0 it dies by cancelling, not by running out of splits."""
    return Coalgebra(BasedSpace("C", ["c0", "c1", "c2", "c3", "c4"]),
                     [(0, 1, 3, 1), (0, 2, 3, -1), (1, 4, 4, 1), (2, 4, 4, 1)],
                     check=False)


# cocommutative and skew-cocommutative coalgebras that are not
# coassociative: Delta(a) = b b, Delta(b) = a a, and Delta(a) = b c - c b,
# Delta(b) = a c - c a on a, b, c; their iterated coproducts never die
NONCOASSOCIATIVE = {
    "cocommutative": Coalgebra(BasedSpace("V", ("a", "b")),
                               {(0, 1, 1): 1, (1, 0, 0): 1}, check=False),
    "skew": Coalgebra(BasedSpace("W", ("a", "b", "c")),
                      {(0, 1, 2): 1, (0, 2, 1): -1, (1, 0, 2): 1,
                       (1, 2, 0): -1}, check=False),
}


# one- and two-dimensional argument and target spaces: with a single basis
# vector every base map is a multiple of one entry, so sums of twisted terms
# cancel through dependent D_rho often
SMALL_SPACES = (BasedSpace("U", ("u",)), BasedSpace("V", ("v", "w")))


def base_maps(domain, codomain):
    keys = st.tuples(
        st.tuples(*[st.integers(0, space.dim - 1) for space in domain]),
        st.integers(0, codomain.dim - 1))
    return st.dictionaries(keys, st.sampled_from((-1, 1, 2)), min_size=1,
                           max_size=3).map(
        lambda entries: MultilinearMap(domain, codomain, entries))


def legs_table(C, n, rho):
    """D_rho: the n-fold coproduct with its legs permuted by rho."""
    return {(c, gather(rho, legs)): q for c, expansion in C.iterated_terms(n).items()
            for legs, q in expansion}


def materialized_sum(C, terms):
    """The sum of sign times twisted(phi, C, sigma), laid out, with its
    arguments rearranged by pi, over the terms (phi, sigma, pi, sign)."""
    return table_sum(twisted(phi, C, sigma).materialize().argument_permute(pi)
                     .scale(sign) for phi, sigma, pi, sign in terms)


def compose_hom(f, zeta, A):
    """f . zeta as a HomElement on A; zeta: {(c_index, a_index): q}."""
    entries = {}
    for (t, c), q in f.entries.items():
        for (zc, a), p in zeta.items():
            if zc == c:
                entries[(t, a)] = entries.get((t, a), 0) + q * p
    return HomElement(A, f.target, entries)


def post_hom(psi, f, B):
    """psi . f; psi: {(b_index, t_index): q} into the space B."""
    entries = {}
    for (t, c), q in f.entries.items():
        for (b, pt), p in psi.items():
            if pt == t:
                entries[(b, c)] = entries.get((b, c), 0) + q * p
    return HomElement(f.source, B, entries)


def source_square(f, g, zeta, A):
    """The source naturality square of the interchange map: the
    interchange of f . zeta and g . zeta, and the interchange of f and g
    transported through zeta in each argument."""
    rhs = {}
    for (tup, out), val in interchange([f, g]).entries.items():
        c1, c2 = tup
        for (zc1, a1), p1 in zeta.items():
            for (zc2, a2), p2 in zeta.items():
                if (zc1, zc2) == (c1, c2):
                    key = ((a1, a2), out)
                    rhs[key] = rhs.get(key, 0) + val * p1 * p2
    lhs = interchange([compose_hom(f, zeta, A), compose_hom(g, zeta, A)])
    return lhs, MultilinearMap((A.space, A.space), lhs.codomain, rhs)


def target_square(f, g, psi, B):
    """The target naturality square: the interchange of psi . f and
    psi . g, and psi (x) psi applied to the interchange of f and g."""
    L = f.target
    rhs = {}
    for (tup, out), val in interchange([f, g]).entries.items():
        t1, t2 = out // L.dim, out % L.dim
        for (b1, p1), q1 in psi.items():
            for (b2, p2), q2 in psi.items():
                if (p1, p2) == (t1, t2):
                    key = (tup, b1 * B.dim + b2)
                    rhs[key] = rhs.get(key, 0) + val * q1 * q2
    lhs = interchange([post_hom(psi, f, B), post_hom(psi, g, B)])
    return lhs, MultilinearMap((f.source.space,) * 2, lhs.codomain, rhs)


def permute_target_legs(m, sigma, dim):
    """Push the tensor factors of the codomain through sigma; all factors
    share one dimension."""
    table = {}
    for (tup, flat), q in m.entries.items():
        digits = []
        for _ in range(sigma.size):
            flat, digit = divmod(flat, dim)
            digits.append(digit)
        out = 0
        for d in gather(sigma, tuple(reversed(digits))):
            out = out * dim + d
        table[(tup, out)] = q
    return MultilinearMap(m.domain, m.codomain, table)
