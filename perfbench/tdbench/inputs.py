"""Benchmark inputs as tdhom/1 files, generated from a seed.

Every structure starts as a plain tdhom/1 document: gl_n with its adjoint
module and the nilpotent n_n are built from E_ij structure constants, the
tensor coalgebra T_d(V) from deconcatenation of words, and the remaining
inputs are shipped fixtures.  The seed then applies a monomial change of
basis to every space: a permutation plus a nonzero rational scaling of each
basis vector.  Seed 0 is the identity.

Ranks, cohomology dimensions, sparsity and every check outcome are invariant
under such a change, so all seeds share one expected report per workload and
a held-out seed can test a claim made on another.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from tdhom import corpus
from tdhom.files import (FORMAT_TAG, load_path, parse_structure,
                         serialize_structure)

# Scalings come from a small fixed set, so coefficient sizes stay comparable
# across seeds while non-unit numerators and denominators still appear.
SCALES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2),
          Fraction(2, 3))


def _map_doc(name, domain, codomain, table):
    entries = [[list(args), out, str(q)]
               for (args, out), q in sorted(table.items()) if q != 0]
    return {"name": name, "domain": list(domain), "codomain": codomain,
            "entries": entries}


def _matrix_unit_bracket(units):
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj over the given (i, j) units;
    the unit list must be closed under the nonzero brackets."""
    pos = {u: n for n, u in enumerate(units)}
    table = {}
    for (a, (i, j)), (b, (k, l)) in itertools.product(enumerate(units),
                                                      repeat=2):
        if j == k:
            key = ((a, b), pos[(i, l)])
            table[key] = table.get(key, 0) + 1
        if l == i:
            key = ((a, b), pos[(k, j)])
            table[key] = table.get(key, 0) - 1
    return table


def _lie_doc(name, units, role):
    labels = ["E%d%d" % (i + 1, j + 1) for i, j in units]
    bracket = _matrix_unit_bracket(units)
    maps = [_map_doc("bracket", ["L", "L"], "L", bracket)]
    if role == "module":
        maps.append(_map_doc("action", ["L", "L"], "L", bracket))
    return {"format": FORMAT_TAG, "name": name, "role": role,
            "spaces": [{"name": "L", "labels": labels}], "maps": maps}


def gl_doc(n, adjoint=False):
    """gl_n on the matrix units, or its adjoint module."""
    units = [(i, j) for i in range(n) for j in range(n)]
    if adjoint:
        return _lie_doc("gl%d-adjoint" % n, units, "module")
    return _lie_doc("gl%d" % n, units, "lie")


def nilpotent_doc(n):
    """n_n: strictly upper-triangular n x n matrices."""
    units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _lie_doc("n%d" % n, units, "lie")


def tensor_coalgebra_doc(letters, d, name):
    """Words of length 1..d over the letters, reduced deconcatenation."""
    words = [w for m in range(1, d + 1)
             for w in itertools.product(letters, repeat=m)]
    pos = {w: n for n, w in enumerate(words)}
    entries = [[pos[w], pos[w[:cut]], pos[w[cut:]], "1"]
               for w in words for cut in range(1, len(w))]
    return {"format": FORMAT_TAG, "name": name, "role": "coalgebra",
            "spaces": [{"name": "C", "labels": ["".join(w) for w in words]}],
            "coproduct": {"space": "C", "entries": entries}}


def fixture_doc(name):
    return json.loads(corpus.fixture_text(name))


def basis_changes(doc, seed):
    """{space name: (perm, scales)} for the monomial change of basis:
    new basis vector a is scales[a] times old basis vector perm[a]."""
    rng = random.Random("%s/%d" % (doc["name"], seed))
    out = {}
    for space in sorted(doc["spaces"], key=lambda s: s["name"]):
        dim = len(space["labels"])
        perm = list(range(dim))
        scales = [Fraction(1)] * dim
        if seed != 0:
            rng.shuffle(perm)
            scales = [rng.choice(SCALES) * rng.choice((1, -1))
                      for _ in range(dim)]
        out[space["name"]] = (perm, scales)
    return out


def change_basis(doc, seed):
    """The same structure written in the seed's basis.

    With e'_a = s_a e_p(a), a map entry q at (inputs i_1..i_n, output o)
    becomes q * prod(s over the new inputs) / s(new output) at the new
    indices; a coproduct entry treats its source as the input and its two
    legs as outputs.
    """
    changes = basis_changes(doc, seed)
    new_index = {name: {old: new for new, old in enumerate(perm)}
                 for name, (perm, _) in changes.items()}

    def move(space, old):
        new = new_index[space][old]
        return new, changes[space][1][new]

    out = dict(doc)
    out["spaces"] = [
        {"name": s["name"],
         "labels": [s["labels"][old] for old in changes[s["name"]][0]]}
        for s in doc["spaces"]]
    if "maps" in doc:
        maps = []
        for m in doc["maps"]:
            entries = []
            for args, o, q in m["entries"]:
                coeff = Fraction(q)
                new_args = []
                for space, old in zip(m["domain"], args):
                    new, s = move(space, old)
                    new_args.append(new)
                    coeff *= s
                new_o, s_o = move(m["codomain"], o)
                entries.append([new_args, new_o, str(coeff / s_o)])
            maps.append(dict(m, entries=entries))
        out["maps"] = maps
    if "coproduct" in doc:
        space = doc["coproduct"]["space"]
        entries = []
        for i, j, k, q in doc["coproduct"]["entries"]:
            (ni, si), (nj, sj), (nk, sk) = (move(space, x) for x in (i, j, k))
            entries.append([ni, nj, nk, str(Fraction(q) * si / (sj * sk))])
        out["coproduct"] = {"space": space, "entries": entries}
    return out


def documents():
    """{file name: seed-0 document} for every input any workload reads."""
    docs = [
        gl_doc(3),
        gl_doc(3, adjoint=True),
        nilpotent_doc(5),
        tensor_coalgebra_doc("ab", 4, "T4ab"),
        fixture_doc("heis-adjoint"),
        fixture_doc("lr-derx3"),
        fixture_doc("lr-dualnum"),
        fixture_doc("poisson3"),
    ]
    return {doc["name"] + ".json": doc for doc in docs}


def write_inputs(names, seed, directory):
    """Write the named input files for a seed into directory.

    Each file is canonical tdhom/1 text from serialize_structure, and is read
    back with its axioms checked, so a generator fault stops the run before
    any job is timed.
    """
    directory = Path(directory)
    docs = documents()
    for name in names:
        doc = change_basis(docs[name], seed)
        text = serialize_structure(parse_structure(json.dumps(doc)))
        path = directory / name
        path.write_text(text, encoding="utf-8")
        if serialize_structure(load_path(str(path))) != text:
            raise RuntimeError("%s does not read back canonically" % name)
