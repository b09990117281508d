"""Structure-file parsing, canonical serialization, and the shipped fixtures."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import files_oracle
from tdhom import cli, coalgebra, convolution, corpus, files, maps
from tdhom.algebra import LieAlgebra, LieModule, PoissonAlgebra
from tdhom.coalgebra import Coalgebra, build_symmetric_coalgebra
from tdhom.convolution import HomElement
from tdhom.errors import (AxiomError, MalformedInput, ParseError,
                          ScalarError, ShapeError)
from tdhom.files import parse_structure, role_of, serialize_structure
from tdhom.lie_rinehart import LieRinehartPair
from tdhom.linalg import BasedSpace, _exact
from tdhom.maps import MultilinearMap

MINIMAL_LIE = """
{
  "format": "tdhom/1",
  "name": "tiny",
  "role": "lie",
  "spaces": [{"name": "L", "labels": ["x", "y", "z"]}],
  "maps": [{"name": "bracket", "domain": ["L", "L"], "codomain": "L",
            "entries": [[[0, 1], 2, "1"], [[1, 0], 2, "-1"]]}]
}
"""


class TestParse:
    def test_minimal_lie(self):
        obj = parse_structure(MINIMAL_LIE)
        assert isinstance(obj, LieAlgebra)
        assert obj.structure_name == "tiny"
        assert obj.space.labels == ("x", "y", "z")
        assert obj.bracket.entries[((0, 1), 2)] == 1

    def test_duplicate_entries_accumulate(self):
        text = MINIMAL_LIE.replace(
            '[[[0, 1], 2, "1"], [[1, 0], 2, "-1"]]',
            '[[[0, 1], 2, "1/2"], [[0, 1], 2, "1/2"], [[1, 0], 2, "-1"]]')
        obj = parse_structure(text)
        assert obj.bracket.entries[((0, 1), 2)] == 1

    def test_json_error_has_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_structure("{ not json")

    def test_bad_format_tag(self):
        with pytest.raises(ParseError, match="format"):
            parse_structure(MINIMAL_LIE.replace("tdhom/1", "tdhom/9"))

    def test_unknown_role(self):
        with pytest.raises(ParseError, match="role"):
            parse_structure(MINIMAL_LIE.replace('"lie"', '"group"'))

    def test_index_out_of_range_names_entry(self):
        text = MINIMAL_LIE.replace("[[0, 1], 2,", "[[0, 7], 2,")
        with pytest.raises(ParseError, match=r"maps\[0\].entries\[0\]"):
            parse_structure(text)

    def test_float_coefficient_rejected(self):
        text = MINIMAL_LIE.replace('"1"]', '1.0]')
        with pytest.raises(ParseError, match="fraction string"):
            parse_structure(text)

    def test_garbled_fraction_rejected(self):
        text = MINIMAL_LIE.replace('"1"]', '"one"]')
        with pytest.raises(ParseError, match="not a fraction"):
            parse_structure(text)

    def test_unknown_space_in_domain(self):
        text = MINIMAL_LIE.replace('"domain": ["L", "L"]',
                                   '"domain": ["L", "M"]')
        with pytest.raises(ParseError, match=r"domain\[1\]"):
            parse_structure(text)

    def test_missing_bracket(self):
        text = MINIMAL_LIE.replace('"name": "bracket"', '"name": "product"')
        with pytest.raises(ParseError, match="missing map 'bracket'"):
            parse_structure(text)

    def test_duplicate_labels(self):
        text = MINIMAL_LIE.replace('["x", "y", "z"]', '["x", "x", "z"]')
        with pytest.raises(ParseError, match="duplicate label"):
            parse_structure(text)

    def test_axiom_failure_raises(self):
        text = MINIMAL_LIE.replace('[[1, 0], 2, "-1"]', '[[1, 0], 2, "1"]')
        with pytest.raises(AxiomError) as err:
            parse_structure(text)
        assert err.value.result is not None
        assert not err.value.result.ok

    def test_unsafe_skip_returns_object(self):
        text = MINIMAL_LIE.replace('[[1, 0], 2, "-1"]', '[[1, 0], 2, "1"]')
        obj = parse_structure(text, unsafe_skip_axioms=True)
        assert isinstance(obj, LieAlgebra)


def one_coefficient(raw):
    """A multilinear document whose one entry has coefficient raw."""
    return json.dumps({
        "format": "tdhom/1", "name": "p", "role": "multilinear",
        "spaces": [{"name": "V", "labels": ["a"]}],
        "maps": [{"name": "f", "domain": ["V"], "codomain": "V",
                  "entries": [[[0], 0, raw]]}]})


class TestCoefficientStrings:
    """Plain integer strings are read with int(); every other string goes
    through the exact reader as before.  Values and messages are the ones
    the reader gave when every string went through Fraction."""

    @pytest.mark.parametrize("raw,value", [
        ("3", 3), ("-3", -3), ("+3", 3), (" 3", 3), ("3 ", 3), ("1_000", 1000),
        ("\u0663", 3), ("-0", None), ("6/4", Fraction(3, 2))])
    def test_values(self, raw, value):
        m = parse_structure(one_coefficient(raw))
        assert dict(m.entries) == ({} if value is None else {((0,), 0): value})
        assert all(type(q) is Fraction for q in m.entries.values())

    @pytest.mark.parametrize("raw", ["-", "--3", "", "3/0", "1" * 5000])
    def test_messages(self, raw):
        with pytest.raises(ParseError) as info:
            parse_structure(one_coefficient(raw))
        assert str(info.value) == "$.maps[0].entries[0]: not a fraction: %r" % raw

    def test_integer_file_makes_no_fraction(self, monkeypatch):
        # a module file with integer coefficients: parsing, the checked
        # table going into its maps and the load-time axioms stay in ints
        text = serialize_structure(corpus.load("sl2-adjoint"), "m")
        assert all(q.lstrip("-").isdigit() for m in json.loads(text)["maps"]
                   for *_, q in m["entries"])

        def refused(*args, **kwargs):
            raise AssertionError("Fraction built")

        monkeypatch.setattr(Fraction, "__new__", refused)
        M = parse_structure(text)
        monkeypatch.undo()
        assert isinstance(M, LieModule) and M.action.entries


    def test_checked_tables_are_stored_unchecked(self, monkeypatch):
        # the parser checks every index and coefficient of a coproduct and
        # of a Hom element's matrix once; the objects store them as read
        tensor = corpus.get_coalgebra("tensor-x-3")
        C = Coalgebra(tensor.space, {key: q / 2
                                     for key, q in tensor.coproduct.items()})
        f = HomElement(C, BasedSpace("W", ("p", "q")),
                       {(0, 1): Fraction(3, 2), (1, 0): Fraction(-1)})
        text = serialize_structure(f, "probe")

        def refused(*args):
            raise AssertionError("checked twice")

        for module in (coalgebra, convolution, maps):
            monkeypatch.setattr(module, "_exact", refused)
            monkeypatch.setattr(module, "_check_index", refused)
        back = parse_structure(text)
        monkeypatch.undo()
        assert back.source.coproduct == C.coproduct
        assert back.entries == f.entries


class TestRoundTrip:
    @pytest.mark.parametrize("name", corpus.FIXTURES)
    def test_fixture_is_canonical(self, name):
        text = corpus.fixture_text(name)
        skip = name.startswith("broken-")
        obj = parse_structure(text, unsafe_skip_axioms=skip)
        assert serialize_structure(obj, name) == text

    def test_fixture_types(self):
        assert isinstance(corpus.load("sl2"), LieAlgebra)
        assert isinstance(corpus.load("poisson3"), PoissonAlgebra)
        assert isinstance(corpus.load("sl2-adjoint"), LieModule)
        assert isinstance(corpus.load("lr-dualnum"), LieRinehartPair)
        vol = corpus.load("vol3")
        assert isinstance(vol, MultilinearMap)
        assert vol.map_name == "volume"
        assert vol.arity == 3

    def test_serialize_is_deterministic(self):
        obj = parse_structure(MINIMAL_LIE)
        assert serialize_structure(obj) == serialize_structure(obj)
        assert serialize_structure(obj, "tiny").endswith("\n")

    def test_coalgebra_role(self):
        C = build_symmetric_coalgebra(BasedSpace("V", ("x", "y")), 2)
        text = serialize_structure(C, "sym")
        back = parse_structure(text)
        assert isinstance(back, Coalgebra)
        assert back.coproduct == C.coproduct
        assert serialize_structure(back, "sym") == text

    def test_hom_element_role(self):
        C = corpus.get_coalgebra("tensor-x-3")
        target = BasedSpace("W", ("p", "q"))
        f = HomElement(C, target, {(0, 1): Fraction(3, 2), (1, 0): Fraction(-1)})
        text = serialize_structure(f, "probe")
        back = parse_structure(text)
        assert isinstance(back, HomElement)
        assert back.entries == f.entries
        assert serialize_structure(back, "probe") == text

    def test_noncanonical_input_normalizes(self):
        # same structure, entries listed in reverse order
        text = MINIMAL_LIE.replace(
            '[[[0, 1], 2, "1"], [[1, 0], 2, "-1"]]',
            '[[[1, 0], 2, "-1"], [[0, 1], 2, "1"]]')
        a = serialize_structure(parse_structure(text), "tiny")
        b = serialize_structure(parse_structure(MINIMAL_LIE), "tiny")
        assert a == b


def canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _inline(name, role, spaces, **fields):
    return canonical(dict(
        format="tdhom/1", name=name, role=role,
        spaces=[{"name": n, "labels": list(labels)} for n, labels in spaces],
        **fields))


# One canonical document per role: the shipped fixtures where one has the
# role, written out here where none does.
ROLE_DOCUMENTS = {
    "coalgebra": _inline("pair", "coalgebra", [("V", "ab")], coproduct={
        "space": "V", "entries": [[0, 0, 0, "1"], [1, 0, 1, "1"],
                                  [1, 1, 0, "1"]]}),
    "lie": corpus.fixture_text("sl2"),
    "associative": _inline("dualnum", "associative", [("A", "1e")], maps=[{
        "name": "product", "domain": ["A", "A"], "codomain": "A",
        "entries": [[[0, 0], 0, "1"], [[0, 1], 1, "1"], [[1, 0], 1, "1"]]}]),
    "module": corpus.fixture_text("sl2-trivial"),
    "poisson": corpus.fixture_text("poisson3"),
    "lie-rinehart": corpus.fixture_text("lr-dualnum"),
    "multilinear": corpus.fixture_text("vol3"),
    "hom-element": _inline(
        "probe", "hom-element", [("V", "x"), ("W", "pq")],
        coproduct={"space": "V", "entries": [[0, 0, 0, "1"]]},
        matrix={"target": "W", "entries": [[0, 0, "3/2"], [1, 0, "-1"]]}),
}

# Per map role: a map given a shape its role forbids (with no entries, on
# a spare space X), and the first space, which an extra map is put on.
WRONG_SHAPES = {
    "lie": ("bracket", ["L", "L"], "X", "L"),
    "associative": ("product", ["A", "A"], "X", "A"),
    "module": ("action", ["L", "B"], "L", "L"),
    "poisson": ("product", ["A", "A"], "X", "A"),
    "lie-rinehart": ("bmodule", ["L", "B"], "L", "L"),
}


def _edited(role, edit):
    doc = json.loads(ROLE_DOCUMENTS[role])
    doc["spaces"].append({"name": "X", "labels": ["u"]})
    edit(doc["maps"])
    return json.dumps(doc)


class TestRoles:
    def test_every_role_has_a_document(self):
        assert set(ROLE_DOCUMENTS) == set(files.ROLES)

    @pytest.mark.parametrize("role", sorted(ROLE_DOCUMENTS))
    def test_round_trip_names_the_role(self, role):
        text = ROLE_DOCUMENTS[role]
        obj = parse_structure(text)
        assert role_of(obj) == role
        name = json.loads(text)["name"]
        assert serialize_structure(obj, name) == text

    def test_unknown_object(self):
        assert role_of(object()) == "unknown"

    @pytest.mark.parametrize("role", sorted(WRONG_SHAPES))
    def test_wrong_shape(self, role):
        name, domain, codomain, _ = WRONG_SHAPES[role]

        def edit(maps):
            (entry,) = [m for m in maps if m["name"] == name]
            entry.update(domain=domain, codomain=codomain, entries=[])

        with pytest.raises(ParseError) as err:
            parse_structure(_edited(role, edit))
        assert str(err.value) == "$.maps: %s has the wrong shape" % name

    @pytest.mark.parametrize("role", sorted(WRONG_SHAPES))
    def test_extra_map(self, role):
        space = WRONG_SHAPES[role][3]

        def edit(maps):
            maps.append({"name": "extra", "domain": [space],
                         "codomain": space, "entries": []})

        with pytest.raises(ParseError) as err:
            parse_structure(_edited(role, edit))
        assert str(err.value) == "$.maps: unexpected maps: extra"

    @pytest.mark.parametrize("role", sorted(WRONG_SHAPES))
    def test_missing_map(self, role):
        dropped = json.loads(ROLE_DOCUMENTS[role])["maps"][-1]["name"]

        def edit(maps):
            maps[:] = [m for m in maps if m["name"] != dropped]

        with pytest.raises(ParseError) as err:
            parse_structure(_edited(role, edit))
        assert str(err.value) == "$.maps: missing map %r" % dropped

    @pytest.mark.parametrize("role", sorted(ROLE_DOCUMENTS))
    def test_unused_space(self, role):
        # a file is written back with the spaces its structure uses, so a
        # space that nothing uses would be dropped without a word
        doc = json.loads(ROLE_DOCUMENTS[role])
        doc["spaces"].insert(0, {"name": "X", "labels": ["u"]})
        with pytest.raises(ParseError) as err:
            parse_structure(json.dumps(doc))
        assert str(err.value) == ("$.spaces[0]: space 'X' is used by no map, "
                                  "coproduct or matrix target")

    def test_unused_space_exits_2(self, tmp_path, capsys):
        doc = json.loads(corpus.fixture_text("sl2"))
        doc["spaces"].append({"name": "X", "labels": ["u"]})
        path = tmp_path / "sl2.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: $.spaces[1]: space 'X' is used by no map, coproduct or "
            "matrix target\n")


class TestCorpus:
    def test_coalgebra_names_stable(self):
        assert corpus.coalgebra_names() == (
            "exterior-ab", "symmetric-xy-2", "tensor-ab-2", "tensor-ab-3",
            "tensor-x-3", "zero-ab")

    def test_broken_fixture_raises_on_plain_load(self):
        with pytest.raises(AxiomError):
            corpus.load("broken-jacobi")

    def test_skew_maps_are_skew(self):
        from td_oracle import is_skew
        for name, m in corpus.skew_maps().items():
            assert is_skew(m), name


def _sweep_documents():
    """Documents of every table layout: the fixtures (map entries), a
    tensor coalgebra (coproduct rows) and a Hom element with fraction
    coefficients (coproduct and matrix rows)."""
    tensor = corpus.get_coalgebra("tensor-ab-3")
    half = Coalgebra(tensor.space, {key: q / 2
                                    for key, q in tensor.coproduct.items()})
    f = HomElement(half, BasedSpace("W", ("p", "q")),
                   {(0, 1): Fraction(3, 2), (1, 5): Fraction(-1, 7)})
    return ([corpus.fixture_text(name) for name in corpus.FIXTURES]
            + [serialize_structure(tensor, "T3ab"),
               serialize_structure(f, "probe")])


SWEEP_DOCUMENTS = _sweep_documents()

# Values put in place of an index, a coefficient, an argument list or a
# whole row: wrong types, indices in and out of range, and coefficient
# strings on both sides of the strict "-?digits(/digits)" form.
MUTANTS = [
    True, False, None, 1.5, 0.0, 3, -1, 0, 1, 2, 5, 10 ** 30, [], [0], [0, 1],
    {}, "0", "7", "-12", "3/0", "3/1", "6/4", "-0/5", "1/", "/2", "+3", " 3",
    "3 ", "1_000", "٣", "3/-2", "3/4/5", "007/010", "-", "", "1" * 5000,
    "-" + "7" * 5000, "1/" + "3" * 5000, "9" * 4300 + "/7", "2/" + "0" * 5000,
]


def _mutation_sites(doc):
    """Every (container, position) a mutant can replace: each row of each
    table, each value in a row, and each argument index of a map's row."""
    tables = [m["entries"] for m in doc.get("maps", ())]
    tables += [doc[key]["entries"] for key in ("coproduct", "matrix")
               if key in doc]
    sites = []
    for rows in tables:
        for pos, row in enumerate(rows):
            sites.append((rows, pos))
            sites.extend((row, k) for k in range(len(row)))
            if isinstance(row[0], list):
                sites.extend((row[0], k) for k in range(len(row[0])))
    return sites


MUTABLE_DOCUMENTS = [text for text in SWEEP_DOCUMENTS
                     if _mutation_sites(json.loads(text))]


@st.composite
def mutated_documents(draw):
    """A sweep document with one value replaced, one row shortened or
    lengthened, or one row repeated, its key summed twice."""
    doc = json.loads(draw(st.sampled_from(MUTABLE_DOCUMENTS)))
    container, pos = draw(st.sampled_from(_mutation_sites(doc)))
    how = draw(st.sampled_from(["replace", "replace", "shorten", "lengthen",
                                "repeat"]))
    if how == "replace" or not isinstance(container[pos], list):
        container[pos] = draw(st.sampled_from(MUTANTS))
    elif how == "shorten":
        container[pos] = container[pos][:-1]
    elif how == "lengthen":
        container[pos] = container[pos] + [draw(st.sampled_from(MUTANTS))]
    else:
        container.append(container[pos])
    return json.dumps(doc)


def _outcome(read):
    try:
        return read()
    except ParseError as exc:
        return str(exc)


class TestOnePassReader:
    """files._table and linalg._exact against the readers they replaced
    (tests/files_oracle.py): the same stores, or the same ParseError."""

    @pytest.mark.parametrize("text", SWEEP_DOCUMENTS)
    def test_documents_read_alike(self, text):
        role = json.loads(text)["role"]
        obj = parse_structure(text, unsafe_skip_axioms=True)
        assert files_oracle.stored_tables(obj, role) == \
            files_oracle.read_tables(text)

    @given(mutated_documents())
    @settings(max_examples=600, deadline=None)
    def test_mutated_documents_read_alike(self, text):
        role = json.loads(text)["role"]
        new = _outcome(lambda: files_oracle.stored_tables(
            parse_structure(text, unsafe_skip_axioms=True), role))
        assert new == _outcome(lambda: files_oracle.read_tables(text))
        try:  # with the axioms checked: nothing but these escapes
            parse_structure(text)
        except (ParseError, AxiomError, MalformedInput, ShapeError):
            pass

    def test_sweep_reaches_both_outcomes(self):
        seen = set()

        @given(mutated_documents())
        @settings(max_examples=200, deadline=None)
        def collect(text):
            seen.add(isinstance(_outcome(
                lambda: files_oracle.read_tables(text)), str))

        collect()
        assert seen == {True, False}

    @given(st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True))
    @settings(max_examples=300, deadline=None)
    def test_strict_strings_read_as_fraction_reads_them(self, raw):
        try:
            expected = Fraction(raw)
        except ZeroDivisionError:
            with pytest.raises(ScalarError):
                _exact(raw)
        else:
            got = _exact(raw)
            assert got == expected and type(got) in (int, Fraction)

    @pytest.mark.parametrize("digits", [4299, 4300, 4301])
    def test_digit_limit_reads_as_fraction_reads_it(self, digits):
        d = "7" * digits
        for raw in (d, "-" + d, d + "/3", "-3/" + d, "0" * digits + "1",
                    "3/" + "0" * digits + "1"):
            try:
                expected = Fraction(raw)
            except ValueError:
                with pytest.raises(ScalarError):
                    _exact(raw)
            else:
                assert _exact(raw) == expected

    def test_witness_past_the_digit_limit_is_an_axiom_error(self):
        # a 4300-digit coefficient reads, but sl2's Jacobi residual then
        # has too many digits for str(); that ValueError once escaped
        doc = json.loads(corpus.fixture_text("sl2"))
        doc["maps"][0]["entries"][5][2] = "9" * 4300 + "/7"
        with pytest.raises(AxiomError) as info:
            parse_structure(json.dumps(doc))
        assert str(info.value).endswith("residual {too long to print}")

    def test_writing_past_the_digit_limit_is_malformed_input(self):
        # str() of a coefficient past the limit once escaped serialize as a
        # bare ValueError, from a map, a coproduct and a matrix row alike
        huge = 10 ** 5000
        L = BasedSpace("L", ("x", "y"))
        big_bracket = LieAlgebra(L, MultilinearMap(
            [L, L], L, {((0, 1), 0): huge, ((1, 0), 0): -huge}), name="big")
        V = BasedSpace("V", ("v",))
        big_coproduct = Coalgebra(V, {(0, 0, 0): huge}, check=False)
        big_matrix = HomElement(corpus.get_coalgebra("zero-ab"),
                                BasedSpace("W", ("w",)),
                                {(0, 0): Fraction(1, huge)})
        for obj in (big_bracket, big_coproduct, big_matrix):
            with pytest.raises(MalformedInput, match="more than %d decimal "
                               "digits" % sys.get_int_max_str_digits()):
                serialize_structure(obj)

    def test_deeply_nested_json_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_structure("[" * 200000)
