"""Reading and writing structure files (format tag "tdhom/1").

A structure file is a JSON object:

    {
      "format": "tdhom/1",
      "name": "sl2",
      "role": "lie",
      "spaces": [{"name": "L", "labels": ["e", "f", "h"]}],
      "maps": [{"name": "bracket", "domain": ["L", "L"], "codomain": "L",
                "entries": [[[0, 1], 2, "1"], ...]}]
    }

Coefficients are fraction strings ("-3/2"), never floats.  One checked
row loop (_table) reads every table, a map's, a coproduct's or a Hom
element's: each index and coefficient is checked once, inline, a row's
path is formatted only to refuse it, and linalg._exact reads a strict
"-?digits(/digits)" coefficient without Fraction(str), once per distinct
string in a table.  The table is stored without a second check.
Roles and their required maps:

    coalgebra      "coproduct": {"space": ..., "entries": [[i, j, k, q], ...]}
    lie            bracket
    associative    product
    module         bracket, action       (action codomain names the module)
    poisson        bracket, product
    lie-rinehart   bracket, product, action, bmodule
    multilinear    exactly one map, any name and shape
    hom-element    coproduct plus "matrix": {"entries": [[t, c, q], ...]}

The five map roles, lie to lie-rinehart, are the rows of MAP_ROLES, and
that one table drives their parsing, their serializing and role_of.

Every declared space must be used by a map, the coproduct or the matrix
target, as those are the spaces a file is written back with.  Axiom checks
run on load and raise AxiomError; pass unsafe_skip_axioms=True to get the
raw object anyway.  Serialization is canonical: sorted keys, sorted entry
lists, two-space indent, trailing newline, so equal structures produce
byte-identical files.
"""

import json
import sys

from .algebra import AssociativeAlgebra, LieAlgebra, LieModule, PoissonAlgebra
from .coalgebra import Coalgebra
from .convolution import HomElement
from .errors import AxiomError, MalformedInput, ParseError, ScalarError
from .lie_rinehart import LieRinehartPair
from .linalg import BasedSpace, SparseTable, _exact
from .maps import MultilinearMap

FORMAT_TAG = "tdhom/1"


def _module(L, B, bracket, action, check):
    return LieModule(LieAlgebra(L, bracket, check=check), B, action,
                     check=check)


# The map roles, each as (class, maps, read, build).  A map is (name,
# argument spaces, value space), the spaces named by letter in order of
# first use; each letter is the value space of the first map giving it.
# read(s) gives s's maps in that order, and build(*spaces, *maps,
# check=check) makes the structure.
MAP_ROLES = {
    "lie": (LieAlgebra, [("bracket", "LL", "L")],
            lambda s: (s.bracket,), LieAlgebra),
    "associative": (AssociativeAlgebra, [("product", "AA", "A")],
                    lambda s: (s.product,), AssociativeAlgebra),
    "module": (LieModule, [("bracket", "LL", "L"), ("action", "LB", "B")],
               lambda s: (s.base.bracket, s.action), _module),
    "poisson": (PoissonAlgebra,
                [("bracket", "AA", "A"), ("product", "AA", "A")],
                lambda s: (s.bracket, s.product), PoissonAlgebra),
    "lie-rinehart": (LieRinehartPair,
                     [("bracket", "LL", "L"), ("product", "BB", "B"),
                      ("action", "LB", "B"), ("bmodule", "BL", "L")],
                     lambda s: (s.bracket, s.product, s.action, s.bmodule),
                     LieRinehartPair),
}

ROLES = ("coalgebra", *MAP_ROLES, "multilinear", "hom-element")

_CLASSES = {"coalgebra": Coalgebra, "hom-element": HomElement,
            "multilinear": MultilinearMap,
            **{role: row[0] for role, row in MAP_ROLES.items()}}


def role_of(obj):
    """The role obj is written under, or "unknown"."""
    return next((role for role, cls in _CLASSES.items()
                 if isinstance(obj, cls)), "unknown")


def _fail(path, msg):
    raise ParseError("%s: %s" % (path, msg))


def _refuse(path, pos, msg):
    _fail("%s.entries[%d]" % (path, pos), msg)


def _field(obj, key, kind, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if key not in obj:
        _fail(path, "missing field %r" % key)
    value = obj[key]
    if kind is int and isinstance(value, bool):
        _fail("%s.%s" % (path, key), "expected an integer, got a boolean")
    if not isinstance(value, kind):
        _fail("%s.%s" % (path, key),
              "expected %s, got %s" % (kind.__name__, type(value).__name__))
    return value


def _table(obj, path, layout, dims, nested=False):
    """obj's "entries" summed into {key: int or Fraction}: rows
    [*indices, coefficient] keyed by the indices or, nested (a map's),
    [argument indices, out, coefficient] keyed (arguments, out), the
    indices below dims in order; path.entries[pos] names a refused row."""
    table, read = {}, {}  # read: each distinct coefficient string's value
    width, arity = (3, len(dims) - 1) if nested else (len(dims) + 1, None)
    for pos, row in enumerate(_field(obj, "entries", list, path)):
        if type(row) is not list or len(row) != width:
            _refuse(path, pos, "expected [%s]" % layout)
        if nested:
            args, out, raw = row
            if type(args) is not list or len(args) != arity:
                _refuse(path, pos, "expected %d argument indices" % arity)
            indices, key = (*args, out), (tuple(args), out)
        else:
            *indices, raw = row
            key = tuple(indices)
        for x, dim in zip(indices, dims):
            if type(x) is not int or not 0 <= x < dim:
                _refuse(path, pos, "expected a basis index" if type(x) is not int
                        else "index %d out of range [0, %d)" % (x, dim))
        if type(raw) is not str:
            _refuse(path, pos, "coefficients must be fraction strings, got %s"
                    % type(raw).__name__)
        if raw not in read:
            try:
                read[raw] = _exact(raw)
            except ScalarError:
                _refuse(path, pos, "not a fraction: %r" % raw)
        q = read[raw]
        table[key] = table[key] + q if key in table else q
    return table


def _parse_spaces(doc, path):
    raw = _field(doc, "spaces", list, path)
    if not raw:
        _fail(path + ".spaces", "at least one space required")
    spaces = {}
    for pos, entry in enumerate(raw):
        here = "%s.spaces[%d]" % (path, pos)
        name = _field(entry, "name", str, here)
        labels = _field(entry, "labels", list, here)
        if not labels or not all(isinstance(x, str) for x in labels):
            _fail(here + ".labels", "need a non-empty list of strings")
        if len(set(labels)) != len(labels):
            _fail(here + ".labels", "duplicate label")
        if name in spaces:
            _fail(here, "duplicate space name %r" % name)
        spaces[name] = BasedSpace(name, tuple(labels))
    return spaces


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
    table = _table(entry, path, "indices, out, coefficient",
                   [sp.dim for sp in domain] + [codomain.dim], nested=True)
    return name, MultilinearMap._read(table, domain=tuple(domain),
                                      codomain=codomain)


def _parse_maps(doc, spaces, path, required):
    """required: list of (name, arity); returns maps keyed by name."""
    raw = _field(doc, "maps", list, path)
    found = {}
    for pos, entry in enumerate(raw):
        here = "%s.maps[%d]" % (path, pos)
        name, m = _parse_map(entry, spaces, here)
        if name in found:
            _fail(here, "duplicate map name %r" % name)
        found[name] = m
    for name, arity in required:
        if name not in found:
            _fail(path + ".maps", "missing map %r" % name)
        if found[name].arity != arity:
            _fail(path + ".maps", "map %r must take %d arguments" % (name, arity))
    extras = set(found) - {name for name, _ in required}
    if required and extras:
        _fail(path + ".maps", "unexpected maps: %s" % ", ".join(sorted(extras)))
    return found


def _parse_coproduct(doc, spaces, path, check):
    cop = _field(doc, "coproduct", dict, path)
    sp_name = _field(cop, "space", str, path + ".coproduct")
    if sp_name not in spaces:
        _fail(path + ".coproduct.space", "unknown space %r" % sp_name)
    space = spaces[sp_name]
    table = _table(cop, path + ".coproduct", "source, left, right, coefficient",
                   (space.dim,) * 3)
    return Coalgebra(space, SparseTable._read(table), check)


def parse_structure(text, unsafe_skip_axioms=False):
    """Parse a tdhom/1 document into the matching structure object.

    Raises ParseError (with a field path, or line/column for JSON syntax)
    on malformed input, AxiomError when the declared role's axioms fail.
    The returned object carries the file's name as .structure_name.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg)) from None
    except RecursionError:
        _fail("$", "JSON nested too deeply")
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")
    tag = _field(doc, "format", str, "$")
    if tag != FORMAT_TAG:
        _fail("$.format", "unsupported format %r (want %r)" % (tag, FORMAT_TAG))
    name = _field(doc, "name", str, "$")
    role = _field(doc, "role", str, "$")
    if role not in ROLES:
        _fail("$.role", "unknown role %r" % role)
    spaces = _parse_spaces(doc, "$")
    try:
        obj = _parse_role(doc, role, spaces, not unsafe_skip_axioms)
    except AxiomError as exc:
        exc.structure_name, exc.role = name, role
        raise
    used = _spaces_of(obj, role)
    for pos, (space_name, space) in enumerate(spaces.items()):
        if not any(space is sp for sp in used):
            _fail("$.spaces[%d]" % pos, "space %r is used by no map, "
                  "coproduct or matrix target" % space_name)
    obj.structure_name = name
    return obj


def _require_shape(m, domain, codomain, what):
    if tuple(m.domain) != tuple(domain) or m.codomain is not codomain:
        _fail("$.maps", "%s has the wrong shape" % what)


def _parse_role(doc, role, spaces, check):
    if role == "coalgebra":
        return _parse_coproduct(doc, spaces, "$", check)

    if role == "hom-element":
        C = _parse_coproduct(doc, spaces, "$", check)
        mat = _field(doc, "matrix", dict, "$")
        target_name = _field(mat, "target", str, "$.matrix")
        if target_name not in spaces:
            _fail("$.matrix.target", "unknown space %r" % target_name)
        target = spaces[target_name]
        entries = _table(mat, "$.matrix", "target, source, coefficient",
                         (target.dim, C.dim))
        return HomElement._read(entries, source=C, target=target)

    if role == "multilinear":
        found = _parse_maps(doc, spaces, "$", [])
        if len(found) != 1:
            _fail("$.maps", "role multilinear needs exactly one map")
        ((map_name, m),) = found.items()
        m.map_name = map_name
        return m

    _, shapes, _, build = MAP_ROLES[role]
    found = _parse_maps(doc, spaces, "$",
                        [(name, len(args)) for name, args, _ in shapes])
    bound = {}
    for name, _, value in shapes:
        bound.setdefault(value, found[name].codomain)
    for name, args, value in shapes:
        _require_shape(found[name], [bound[x] for x in args], bound[value],
                       name)
    return build(*bound.values(), *(found[name] for name, _, _ in shapes),
                 check=check)


def _space_doc(space):
    return {"name": space.name, "labels": list(space.labels)}


def _written(q):
    """str(q), refused as MalformedInput past str()'s limit on the decimal
    digits of an int, which no reader could take back."""
    try:
        return str(q)
    except ValueError:
        raise MalformedInput("a coefficient has more than %d decimal digits, "
                             "str()'s limit" % sys.get_int_max_str_digits()) from None


def _map_doc(name, m):
    entries = sorted(((list(tup), out, _written(q))
                      for (tup, out), q in m.entries.items()),
                     key=lambda row: (row[0], row[1]))
    return {
        "name": name,
        "domain": [sp.name for sp in m.domain],
        "codomain": m.codomain.name,
        "entries": entries,
    }


def _coproduct_doc(C):
    entries = sorted([i, j, k, _written(q)]
                     for (i, j, k), q in C.coproduct.items())
    return {"space": C.space.name, "entries": entries}


def _spaces_of(obj, role):
    """The spaces obj's maps, coproduct or matrix target use, in the order
    its file lists them."""
    if role in MAP_ROLES:
        return [m.codomain for m in MAP_ROLES[role][2](obj)]
    if role == "coalgebra":
        return [obj.space]
    if role == "hom-element":
        return [obj.source.space, obj.target]
    return list(obj.domain) + [obj.codomain]


def _unique_spaces(spaces):
    seen = {}
    for sp in spaces:
        prev = seen.get(sp.name)
        if prev is not None and prev is not sp:
            raise MalformedInput(
                "two distinct spaces share the name %r" % sp.name)
        seen[sp.name] = sp
    return [_space_doc(sp) for sp in seen.values()]


def serialize_structure(obj, name=None):
    """Render a structure back to canonical tdhom/1 text.

    Canonical means: sorted keys, entry lists sorted by indices, indent 2,
    trailing newline.  parse . serialize is the identity up to that
    normalization, and byte-identical on already-canonical files.
    """
    if name is None:
        name = getattr(obj, "structure_name", None) or getattr(obj, "name", "")
    doc = {"format": FORMAT_TAG, "name": name}

    role = doc["role"] = role_of(obj)
    if role == "unknown":
        raise MalformedInput("cannot serialize %s" % type(obj).__name__)
    doc["spaces"] = _unique_spaces(_spaces_of(obj, role))
    if role in MAP_ROLES:
        _, shapes, read, _ = MAP_ROLES[role]
        doc["maps"] = [_map_doc(map_name, m)
                       for (map_name, _, _), m in zip(shapes, read(obj))]
    elif role == "coalgebra":
        doc["coproduct"] = _coproduct_doc(obj)
    elif role == "hom-element":
        doc["coproduct"] = _coproduct_doc(obj.source)
        doc["matrix"] = {
            "target": obj.target.name,
            "entries": sorted([t, c, _written(q)]
                              for (t, c), q in obj.entries.items()),
        }
    else:
        doc["maps"] = [_map_doc(getattr(obj, "map_name", "map"), obj)]

    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_path(path, unsafe_skip_axioms=False):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_structure(fh.read(), unsafe_skip_axioms=unsafe_skip_axioms)
