"""The structure-file table readers that files._table replaced: test oracle.

files._table reads a map's entries, a coproduct's rows and a Hom
element's matrix rows in one checked loop, and linalg._exact reads strict
"-?digits" and "-?digits/digits" strings by int().  The readers here are
the three loops it replaced, each index checked by _index, each
coefficient by _scalar, which hands every string but a plain integer to
Fraction, and the row's path built for every row.
read_tables reads a document's tables with them, as
files.parse_structure would before any axiom check.
"""

import json
from fractions import Fraction

from tdhom.coalgebra import Coalgebra
from tdhom.files import MAP_ROLES, _fail, _field, _parse_spaces
from tdhom.linalg import SparseTable


def _scalar(raw, path):
    if not isinstance(raw, str):
        _fail(path, "coefficients must be fraction strings, got %s"
              % type(raw).__name__)
    # an optional "-" and ASCII digits is read by int(), every other
    # string by Fraction, as _exact read every string then
    digits = raw[1:] if raw[:1] == "-" else raw
    try:
        return int(raw) if digits.isascii() and digits.isdigit() else Fraction(raw)
    except (ValueError, ZeroDivisionError):  # ValueError: int()'s digit limit
        _fail(path, "not a fraction: %r" % raw)


def _index(raw, dim, path):
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, "expected a basis index")
    if not 0 <= raw < dim:
        _fail(path, "index %d out of range [0, %d)" % (raw, dim))
    return raw


def _parse_map(entry, spaces, path):
    name = _field(entry, "name", str, path)
    domain_names = _field(entry, "domain", list, path)
    codomain_name = _field(entry, "codomain", str, path)
    if not domain_names:
        _fail(path + ".domain", "empty domain")
    domain = []
    for pos, sp in enumerate(domain_names):
        if not isinstance(sp, str):
            _fail("%s.domain[%d]" % (path, pos),
                  "expected a space name, got %s" % type(sp).__name__)
        if sp not in spaces:
            _fail("%s.domain[%d]" % (path, pos), "unknown space %r" % sp)
        domain.append(spaces[sp])
    if codomain_name not in spaces:
        _fail(path + ".codomain", "unknown space %r" % codomain_name)
    codomain = spaces[codomain_name]
    table = {}
    for pos, row in enumerate(_field(entry, "entries", list, path)):
        here = "%s.entries[%d]" % (path, pos)
        if not isinstance(row, list) or len(row) != 3:
            _fail(here, "expected [indices, out, coefficient]")
        args, out, raw_q = row
        if not isinstance(args, list) or len(args) != len(domain):
            _fail(here, "expected %d argument indices" % len(domain))
        tup = tuple(_index(a, spaces[sp].dim, here)
                    for a, sp in zip(args, domain_names))
        o = _index(out, codomain.dim, here)
        key, q = (tup, o), _scalar(raw_q, here)
        table[key] = table[key] + q if key in table else q
    return name, table


def _parse_coproduct(doc, spaces, path):
    cop = _field(doc, "coproduct", dict, path)
    sp_name = _field(cop, "space", str, path + ".coproduct")
    if sp_name not in spaces:
        _fail(path + ".coproduct.space", "unknown space %r" % sp_name)
    space = spaces[sp_name]
    table = {}
    for pos, row in enumerate(_field(cop, "entries", list, path + ".coproduct")):
        here = "%s.coproduct.entries[%d]" % (path, pos)
        if not isinstance(row, list) or len(row) != 4:
            _fail(here, "expected [source, left, right, coefficient]")
        i, j, k, raw_q = row
        key = tuple(_index(x, space.dim, here) for x in (i, j, k))
        q = _scalar(raw_q, here)
        table[key] = table[key] + q if key in table else q
    return Coalgebra(space, SparseTable._read(table), check=False), table


def _parse_matrix(doc, spaces, C):
    mat = _field(doc, "matrix", dict, "$")
    target_name = _field(mat, "target", str, "$.matrix")
    if target_name not in spaces:
        _fail("$.matrix.target", "unknown space %r" % target_name)
    target = spaces[target_name]
    entries = {}
    for pos, row in enumerate(_field(mat, "entries", list, "$.matrix")):
        here = "$.matrix.entries[%d]" % pos
        if not isinstance(row, list) or len(row) != 3:
            _fail(here, "expected [target, source, coefficient]")
        t, c, raw_q = row
        key = (_index(t, target.dim, here), _index(c, C.dim, here))
        q = _scalar(raw_q, here)
        entries[key] = entries[key] + q if key in entries else q
    return entries


def read_tables(text):
    """{table name: (ints, den)} for every table of a well-formed document
    whose role is a coalgebra, a Hom element or holds maps: each map by its
    name, "coproduct" and "matrix"; ParseError as the old readers raised
    it."""
    doc = json.loads(text)
    spaces = _parse_spaces(doc, "$")
    tables = {}
    if doc["role"] in ("coalgebra", "hom-element"):
        C, tables["coproduct"] = _parse_coproduct(doc, spaces, "$")
        if doc["role"] == "hom-element":
            tables["matrix"] = _parse_matrix(doc, spaces, C)
    else:
        for pos, entry in enumerate(_field(doc, "maps", list, "$")):
            name, table = _parse_map(entry, spaces, "$.maps[%d]" % pos)
            tables[name] = table
    return {name: _store(SparseTable._read(table))
            for name, table in tables.items()}


def _store(t):
    return t._ints, t._denominator


def stored_tables(obj, role):
    """The same {table name: (ints, den)} read off a parsed structure."""
    if role in MAP_ROLES:
        _, shapes, read, _ = MAP_ROLES[role]
        return {name: _store(m) for (name, _, _), m in zip(shapes, read(obj))}
    if role == "coalgebra":
        return {"coproduct": _store(obj._store)}
    if role == "hom-element":
        return {"coproduct": _store(obj.source._store), "matrix": _store(obj)}
    return {obj.map_name: _store(obj)}

