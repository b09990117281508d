"""Command line behaviors: exit codes, report shapes, determinism.

The exit contract under test: 0 all pass, 1 check failure, 2 unusable
input, 3 guard refusal.  Machine reports must be byte-identical across
runs on identical inputs, and the human rendering must be a function of
the machine body alone.
"""

import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

from tdhom import cli, cohomology, corpus
from tdhom.algebra import LieAlgebra, LieModule
from tdhom.cli import main, render_cohomology, render_verify
from tdhom.coalgebra import build_tensor_coalgebra
from tdhom.convolution import DEFAULT_GUARD_LIMIT, InducedOperator
from tdhom.files import load_path, parse_structure, serialize_structure
from tdhom.linalg import BasedSpace, Permutation
from tdhom.maps import MultilinearMap
from test_cohomology import (b_adjoint, gl_adjoint, matrix_unit_adjoint,
                              rebased_adjoint, upper_units)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    d = tmp_path_factory.mktemp("structures")
    paths = {}
    for name in ("sl2", "broken-jacobi", "lr-derx3", "lr-trivial",
                 "tensor-ab-3", "zero-ab", "sl2-adjoint", "poisson3"):
        path = d / (name + ".json")
        assert main(["examples", "export", name, "--out", str(path)]) == 0
        paths[name] = str(path)
    return paths


class TestExamples:
    def test_list_covers_corpus(self, capsys):
        code, out, _ = run(["examples", "list"], capsys)
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()]
        assert names == sorted(names)
        assert set(names) == set(corpus.FIXTURES) | set(corpus.coalgebra_names())

    def test_list_shows_roles(self, capsys):
        _, out, _ = run(["examples", "list"], capsys)
        rows = dict(line.split(None, 1) for line in out.splitlines())
        assert rows["sl2"] == "lie"
        assert rows["lr-dualnum"] == "lie-rinehart"
        assert rows["zero-ab"].startswith("coalgebra")

    def test_export_fixture_is_verbatim(self, tmp_path, capsys):
        dest = tmp_path / "out.json"
        code, out, _ = run(["examples", "export", "sl2", "--out", str(dest)],
                           capsys)
        assert code == 0
        assert str(dest) in out
        assert dest.read_text(encoding="utf-8") == corpus.fixture_text("sl2")

    def test_export_coalgebra_round_trips(self, tmp_path, capsys):
        dest = tmp_path / "c.json"
        assert run(["examples", "export", "symmetric-xy-2",
                    "--out", str(dest)], capsys)[0] == 0
        text = dest.read_text(encoding="utf-8")
        assert serialize_structure(parse_structure(text)) == text

    def test_export_default_destination(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["examples", "export", "heisenberg"], capsys)[0] == 0
        assert (tmp_path / "heisenberg.json").exists()

    def test_export_unknown_name(self, capsys):
        code, _, err = run(["examples", "export", "nonesuch"], capsys)
        assert code == 2
        assert "unknown" in err

    def test_export_without_name(self, capsys):
        assert run(["examples", "export"], capsys)[0] == 2


class TestVerify:
    def test_lie_suite_passes(self, exported, capsys):
        code, out, _ = run(["verify", exported["sl2"], "--suite", "lie"],
                           capsys)
        assert code == 0
        assert "pass" in out

    def test_exported_file_reverifies(self, exported, capsys):
        # export -> verify is the round trip the export exists for
        assert run(["verify", exported["sl2-adjoint"]], capsys)[0] == 0

    def test_td_lie_uses_small_corpus_domains(self, exported, capsys):
        code, out, _ = run(["verify", exported["sl2"], "--suite", "td-lie",
                            "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert [e["coalgebra"] for e in report["entries"]] == [
            "exterior-ab", "symmetric-xy-2", "tensor-ab-2", "tensor-x-3",
            "zero-ab"]
        assert all(e["status"] == "pass" for e in report["entries"])

    def test_report_shape(self, exported, capsys):
        _, out, _ = run(["verify", exported["sl2"], "--json"], capsys)
        report = json.loads(out)
        assert report["format"] == "tdhom-report/1"
        assert report["command"] == "verify"
        assert report["status"] == "pass"
        assert set(report["counts"]) == {"pass", "fail", "skipped", "guarded"}
        entry = report["entries"][0]
        assert set(entry) >= {"path", "structure", "role", "coalgebra",
                              "check", "status", "detail", "witness"}

    def test_broken_fixture_fails_at_load(self, exported, capsys):
        code, out, _ = run(["verify", exported["broken-jacobi"],
                            "--suite", "lie", "--json"], capsys)
        assert code == 1
        entry = json.loads(out)["entries"][0]
        assert entry["check"] == "load"
        assert entry["status"] == "fail"
        assert entry["witness"]["args"] == ["e", "f", "h"]

    def test_broken_fixture_with_skip_flag(self, exported, capsys):
        code, out, _ = run(["verify", exported["broken-jacobi"],
                            "--suite", "lie", "--unsafe-skip-axioms",
                            "--json"], capsys)
        assert code == 1
        entry = json.loads(out)["entries"][0]
        assert entry["check"] == "lie"
        assert entry["witness"]["residual"] == [["h", "-1"]]

    def test_broken_fixture_outside_suite_is_skipped(self, exported, capsys):
        code, out, _ = run(["verify", exported["broken-jacobi"],
                            "--suite", "coalgebra", "--unsafe-skip-axioms",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["entries"][0]["status"] == "skipped"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(["verify", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not a structure", encoding="utf-8")
        assert run(["verify", str(bad)], capsys)[0] == 2

    def test_wrong_format_tag(self, tmp_path, capsys):
        bad = tmp_path / "tagged.json"
        bad.write_text('{"format": "tdhom/9"}', encoding="utf-8")
        code, _, err = run(["verify", str(bad)], capsys)
        assert code == 2
        assert "tdhom/9" in err

    def test_malformed_domain_entry(self, tmp_path):
        # an unhashable space name once escaped the parser as a TypeError
        doc = json.loads(corpus.fixture_text("sl2"))
        doc["maps"][0]["domain"][1] = ["L"]
        bad = tmp_path / "domain.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "tdhom.cli", "verify", str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "$.maps[0].domain[1]" in proc.stderr

    def test_missing_paths_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_supplied_coalgebra_replaces_defaults(self, exported, capsys):
        code, out, _ = run(["verify", exported["sl2"], exported["zero-ab"],
                            "--suite", "td-lie", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        checked = [e for e in report["entries"] if e["check"] == "td-lie"]
        assert [e["coalgebra"] for e in checked] == ["zero-ab"]
        skipped = [e for e in report["entries"] if e["status"] == "skipped"]
        assert [e["role"] for e in skipped] == ["coalgebra"]

    def test_guard_refusal_exit_code(self, exported, capsys):
        # the sweep's degree-1 slot defects number 6
        code, out, _ = run(["verify", exported["lr-derx3"],
                            exported["tensor-ab-3"],
                            "--suite", "lie-rinehart", "--guard-limit", "5",
                            "--json"], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "guarded"
        guarded = [e for e in report["entries"] if e["status"] == "guarded"]
        assert [e["check"] for e in guarded] == ["td-subcomplex"]
        assert guarded[0]["detail"] \
            == "size 6 exceeds limit 5; pass a larger guard_limit"

    def test_guard_limit_flag_clears_refusal(self, exported, capsys):
        code, out, _ = run(["verify", exported["lr-derx3"],
                            exported["tensor-ab-3"],
                            "--suite", "lie-rinehart",
                            "--guard-limit", "6", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["guarded"] == 0
        assert report["counts"]["fail"] == 0

    @pytest.mark.parametrize("command", ["verify", "cohomology"])
    def test_guard_limit_flag_defaults_to_the_library_limit(self, command,
                                                            capsys):
        # both commands refuse at the limit the library functions default to
        assert cli.build_parser().parse_args(
            [command, "x.json"]).guard_limit == DEFAULT_GUARD_LIMIT
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "size guard limit (default %d)" % DEFAULT_GUARD_LIMIT \
            in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("flag, value", [
        ("--subcomplex-maxdeg", "-2"), ("--guard-limit", "-3"),
        ("--guard-limit", "1e5")])
    def test_counts_must_be_non_negative_ints(self, exported, flag, value,
                                              capsys):
        # once a pass with "0 images checked" and an exit 3 "exceeds limit -3"
        with pytest.raises(SystemExit) as exc:
            main(["verify", exported["lr-derx3"], exported["tensor-ab-3"],
                  "--suite", "lie-rinehart", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: invalid non_negative_int value: %r" % (flag, value) in err

    def test_lie_rinehart_suite_includes_subcomplex(self, exported, capsys):
        code, out, _ = run(["verify", exported["lr-trivial"],
                            "--suite", "lie-rinehart", "--json"], capsys)
        assert code == 0
        checks = [e["check"] for e in json.loads(out)["entries"]]
        assert checks.count("lie-rinehart") == 1
        assert checks.count("td-lie-rinehart") == 5
        assert checks.count("td-subcomplex") == 5

    def test_all_suite_on_module(self, exported, capsys):
        code, out, _ = run(["verify", exported["sl2-adjoint"],
                            "--suite", "all", "--json"], capsys)
        assert code == 0
        checks = [e["check"] for e in json.loads(out)["entries"]]
        assert checks[:2] == ["lie", "module"]
        assert checks.count("td-module") == 5

    def test_td_poisson_suite(self, exported, capsys):
        code, out, _ = run(["verify", exported["poisson3"],
                            "--suite", "td-poisson", "--json"], capsys)
        assert code == 0
        assert len(json.loads(out)["entries"]) == 5

    def test_machine_report_is_deterministic(self, exported, capsys):
        argv = ["verify", exported["sl2"], "--suite", "td-lie", "--json"]
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


class TestCohomology:
    def test_classical_golden(self, capsys):
        code, out, _ = run(["cohomology", "--module", "sl2-trivial",
                            "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["maxdeg"] == 3
        assert report["cochain_dims"] == [1, 3, 3, 1, 0]
        assert report["differential_ranks"] == [0, 3, 0, 0]
        assert report["cohomology_dims"] == [1, 0, 0, 1]

    def test_classical_module_from_file(self, exported, capsys):
        code, out, _ = run(["cohomology", exported["sl2-adjoint"],
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["cohomology_dims"] == [0, 0, 0, 0]

    def test_td_golden(self, capsys):
        code, out, _ = run(["cohomology", "--module", "sl2-trivial",
                            "--coalgebra", "tensor-ab-2", "--td", "--json"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        assert report["cochain_dims"] == [1, 3, 3, 0]
        assert report["classical_cochain_dims"] == [1, 3, 3, 1]
        assert report["induction_kernel_dims"] == [0, 0, 0, 1]
        assert report["cohomology_dims"] == [1, 0, 0]
        assert report["direct_vs_induced"] == "agree"

    def test_human_rendering_rows(self, capsys):
        code, out, _ = run(["cohomology", "--module", "sl2-trivial",
                            "--coalgebra", "tensor-ab-2", "--td"], capsys)
        assert code == 0
        assert "dim H^k" in out
        assert "induction kernel dims" in out
        assert "direct vs induced differential: agree" in out

    def test_no_module(self, capsys):
        code, _, err = run(["cohomology"], capsys)
        assert code == 2
        assert "module" in err

    def test_two_modules(self, exported, capsys):
        code, _, _ = run(["cohomology", exported["sl2-adjoint"],
                          "--module", "sl2-trivial"], capsys)
        assert code == 2

    def test_coalgebra_without_td(self, capsys):
        code, _, err = run(["cohomology", "--module", "sl2-trivial",
                            "--coalgebra", "zero-ab"], capsys)
        assert code == 2
        assert "--td" in err

    def test_td_without_coalgebra(self, capsys):
        assert run(["cohomology", "--module", "sl2-trivial", "--td"],
                   capsys)[0] == 2

    def test_unknown_module_name(self, capsys):
        assert run(["cohomology", "--module", "nonesuch"], capsys)[0] == 2

    def test_maxdeg_out_of_range(self, capsys):
        assert run(["cohomology", "--module", "sl2-trivial",
                    "--maxdeg", "9"], capsys)[0] == 2

    def test_td_guard_refusal_and_flag(self, capsys):
        # priced by the 3 weight-0 keys of C^0 .. C^2
        argv = ["cohomology", "--module", "sl2-trivial",
                "--coalgebra", "tensor-ab-3", "--td"]
        code, _, err = run(argv + ["--guard-limit", "2"], capsys)
        assert code == 3
        assert "--guard-limit" in err
        code, out, _ = run(argv + ["--guard-limit", "3", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["cohomology_dims"] == [1, 0, 0]


# cohomology --td --json at the default maxdeg and guard: exit code and
# SHA-256 of stdout, recorded before direct_vs_induced moved into
# TDComplexData.  The tensor-ab-3 rows, once refused by a materialization
# guard, run since the guard prices the keys the route pushes; their
# digests are TD_TABLE's maxdeg 2 rows, recorded by the materializing
# construction.
TD_REPORTS = {
    ("sl2-adjoint", "exterior-ab"):
        (0, "9b7026685a855af4744c36171757b99b9adafe798a70f72190a77f7e07c2e9fc"),
    ("sl2-adjoint", "symmetric-xy-2"):
        (0, "dd8ee37eed037795514bcc5bdf7119b96b4d66323a3ee5646d7b6bf4cef55771"),
    ("sl2-adjoint", "tensor-ab-2"):
        (0, "36280b800cf08c9afc0d7fb1ba23c61e732a54984e393fa1c712e61f41e1b07f"),
    ("sl2-adjoint", "tensor-ab-3"):
        (0, "c4c107d69ac1ccffbc74d0c75b63d7456da1c16c9db1df77b5e60f311399675d"),
    ("sl2-adjoint", "tensor-x-3"):
        (0, "12c213dee81682bfd785c7a774273a81c32aaed1ea7acacb3b0e84b46660a8a4"),
    ("sl2-adjoint", "zero-ab"):
        (0, "dbb2c90879bca016ee2e37c371a3ea36bb95d3fa13af869901bcd335b18055ff"),
    ("sl2-trivial", "exterior-ab"):
        (0, "fbfffd6696fa855caf4031f83bcba9cc142aa2822d2d2cdaea27ce474ccf2588"),
    ("sl2-trivial", "symmetric-xy-2"):
        (0, "cb6cb5a9abc554ba733c844cc0c7256c93d31c3d8f3329f9305c4b515165193c"),
    ("sl2-trivial", "tensor-ab-2"):
        (0, "91bd8c154d347a60e43da85430198268de5d3636b018228242660983940e559c"),
    ("sl2-trivial", "tensor-ab-3"):
        (0, "595d261442d3cb0d3f5e69f9bb29a258c10d2a2acd4af4ef62e16217890148e6"),
    ("sl2-trivial", "tensor-x-3"):
        (0, "2e79411d86ce27855b9a29ad445679da995dcf422ffc65fc3ca45ce6f497ab69"),
    ("sl2-trivial", "zero-ab"):
        (0, "5a102a0364670e9ce69d808bfbc64dee9c93398329140befdb1a410cad7be512"),
    ("heis-adjoint", "exterior-ab"):
        (0, "ce64fd4553e47f6e4f089568804f8a75b5d6df1c0aafa8f597f7c195fb47f5ae"),
    ("heis-adjoint", "symmetric-xy-2"):
        (0, "50c3602793496add9f829c3233b77e13bc1f70948f68050f9c3c930849a8346c"),
    ("heis-adjoint", "tensor-ab-2"):
        (0, "5e1bba79555ae9d57431073b5cfad265c28b5958910a34a20ef384ede9fd42a2"),
    ("heis-adjoint", "tensor-ab-3"):
        (0, "009c8786e3445dc16554aa2247dc29467e6b3823f029c887ae7fd4d57d3d267a"),
    ("heis-adjoint", "tensor-x-3"):
        (0, "91705c0efaa7af9f3f37dff6a818939b8b456aec6d12d2eca2c6419400536123"),
    ("heis-adjoint", "zero-ab"):
        (0, "4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599"),
    ("abelian2-trivial", "exterior-ab"):
        (0, "c02ff2f486428fe22c6e43c30555e217c904feda7c5697c8c326794dfff50663"),
    ("abelian2-trivial", "symmetric-xy-2"):
        (0, "fb23c976229d7628e24f9748349f36dae4e56d4fc6b5067586c1b03094cbcd91"),
    ("abelian2-trivial", "tensor-ab-2"):
        (0, "aa5145de0faad429a5139cadfbc15cffa6f4377ec72c6f0b1362a3235d12df4b"),
    ("abelian2-trivial", "tensor-ab-3"):
        (0, "e793e2dec25e7d088370920559e0d492d50b85bc25361d043473314e853aff67"),
    ("abelian2-trivial", "tensor-x-3"):
        (0, "e2397e5196c0cb937842e569ab37ddc3ce966d2892ee1a3ce900ef08113b3599"),
    ("abelian2-trivial", "zero-ab"):
        (0, "a60138beaf5c1b9e8ca9264a0426e27f69e53a65ea2eb29ccbf5d124972ed90f"),
}


@pytest.mark.parametrize("mname,cname", sorted(TD_REPORTS))
def test_td_report_is_pinned(mname, cname, capsys):
    code, out, _ = run(["cohomology", "--module", mname, "--coalgebra", cname,
                        "--td", "--json"], capsys)
    expected_code, digest = TD_REPORTS[(mname, cname)]
    assert code == expected_code
    if digest is not None:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def heis_adjoint_file(tmp_path, map_name, entries):
    doc = json.loads(corpus.fixture_text("heis-adjoint"))
    for m in doc["maps"]:
        if m["name"] == map_name:
            m["entries"] = entries
    path = tmp_path / "heis-adjoint-variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


ADJOINT_ACTION = [[[0, 1], 2, "1"], [[1, 0], 2, "-1"]]
SYMMETRIC_BRACKET = [[[0, 1], 2, "1"], [[1, 0], 2, "1"]]


@pytest.mark.parametrize("map_name,entries,cname,code,message", [
    # a symmetric bracket: the twisted formula leaves the induced operators
    ("bracket", SYMMETRIC_BRACKET, "tensor-ab-2", 2,
     "error: twisted differential output is not induced at degree 2"),
    # the same bracket over a zero coproduct, where nothing above degree
    # one survives to tell the two differentials apart
    ("bracket", SYMMETRIC_BRACKET, "zero-ab", 0, None),
    # an action that is no representation: d squared is not zero
    ("action", ADJOINT_ACTION + [[[0, 0], 0, "1"]], "tensor-ab-2", 2,
     "error: quotient differentials do not square to zero"),
], ids=["symmetric-bracket", "symmetric-bracket-zero-ab", "extra-action"])
def test_td_report_on_unchecked_module(tmp_path, map_name, entries, cname,
                                       code, message):
    path = heis_adjoint_file(tmp_path, map_name, entries)
    proc = subprocess.run(
        [sys.executable, "-m", "tdhom.cli", "cohomology", path,
         "--coalgebra", cname, "--td", "--json", "--unsafe-skip-axioms"],
        capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if message is None:
        assert json.loads(proc.stdout)["direct_vs_induced"] == "agree"
    else:
        assert proc.stdout == ""
        assert proc.stderr == message + "\n"


# cohomology --td --json --guard-limit 200000 --maxdeg d for d = 0, 1, 2 on
# the corpus modules, five heis-adjoint variants loaded with
# --unsafe-skip-axioms, and every corpus coalgebra: module, coalgebra, d,
# exit code, stderr error line, SHA-256 of stdout ("-" when it is empty).
# Recorded at 853b98e, when TDComplexData still materialized every operator.
TD_TABLE = """
sl2-adjoint       exterior-ab    0 0 -           bfe4fc2e052e2ed1b8c381f66c6a6a0d7dbc6c3866144860fb7664b09ff3119c
sl2-adjoint       exterior-ab    1 0 -           659b646ffa9a88b8a4b50ef44541ba8d818b73c584c9104760b99517bfdf2a7a
sl2-adjoint       exterior-ab    2 0 -           9b7026685a855af4744c36171757b99b9adafe798a70f72190a77f7e07c2e9fc
sl2-adjoint       symmetric-xy-2 0 0 -           23d82e178c24c659e67b01a227953a1e8ec85e07c60071658a110373e70ec99f
sl2-adjoint       symmetric-xy-2 1 0 -           b4e55d6e9b559beae09a43b3d30ffb9d8394abd3792266f415f7a814d392f4f2
sl2-adjoint       symmetric-xy-2 2 0 -           dd8ee37eed037795514bcc5bdf7119b96b4d66323a3ee5646d7b6bf4cef55771
sl2-adjoint       tensor-ab-2    0 0 -           09500076688082170a96741ac2d29c0284fffb9636dccb30d4eef5f15661609e
sl2-adjoint       tensor-ab-2    1 0 -           fa241570e546d36aedd1d98672e7d6b51b3c9d5f9f54adc5e627402e5206d462
sl2-adjoint       tensor-ab-2    2 0 -           36280b800cf08c9afc0d7fb1ba23c61e732a54984e393fa1c712e61f41e1b07f
sl2-adjoint       tensor-ab-3    0 0 -           e5df4c86c50d44aeeaf82a3896dac72b963c6357b67eb4f7efd692392f5dc6bc
sl2-adjoint       tensor-ab-3    1 0 -           76282f70002c46a732f7cdad3a08c6efa211b19a90847b00a3b289146a452597
sl2-adjoint       tensor-ab-3    2 0 -           c4c107d69ac1ccffbc74d0c75b63d7456da1c16c9db1df77b5e60f311399675d
sl2-adjoint       tensor-x-3     0 0 -           a820fbc10a133abf4867edaa0f125840be05c0e114fbe13d8772fd6c65a20505
sl2-adjoint       tensor-x-3     1 0 -           21e22bb737ade889d365183000041761fbe62912a5ed49a35a6a3286856e307f
sl2-adjoint       tensor-x-3     2 0 -           12c213dee81682bfd785c7a774273a81c32aaed1ea7acacb3b0e84b46660a8a4
sl2-adjoint       zero-ab        0 0 -           a3e290221f6877011d297373f2bb45aa40ee6c9a1fedd59c229a2adab738a1b0
sl2-adjoint       zero-ab        1 0 -           4553219606dfb2c6ea528beac69a9aca6ff13e9792061bb9f8b6164e7b466a8e
sl2-adjoint       zero-ab        2 0 -           dbb2c90879bca016ee2e37c371a3ea36bb95d3fa13af869901bcd335b18055ff
sl2-trivial       exterior-ab    0 0 -           65a2e09538aabbc142d903ea4a8c83418d97b9108b3fafcdc49a6e7245fbb379
sl2-trivial       exterior-ab    1 0 -           81dea68bce01e8a110cc0381c3108dd864b31ee594a2f2aca24cd15649fcb284
sl2-trivial       exterior-ab    2 0 -           fbfffd6696fa855caf4031f83bcba9cc142aa2822d2d2cdaea27ce474ccf2588
sl2-trivial       symmetric-xy-2 0 0 -           c1107141aa5dc0d28d6bdeda3166d3fd021d749adeb894ad03d392c5d1ea66cf
sl2-trivial       symmetric-xy-2 1 0 -           a3e00f39ff77fb4face0f98fa69b2809961ad60d8ff7ba282b33e37593af592e
sl2-trivial       symmetric-xy-2 2 0 -           cb6cb5a9abc554ba733c844cc0c7256c93d31c3d8f3329f9305c4b515165193c
sl2-trivial       tensor-ab-2    0 0 -           edf4fb863a872da0e3bf73cc59bcd07040cae6cb38162b3cea01eb4d41ceecde
sl2-trivial       tensor-ab-2    1 0 -           fbb0b14437cb774fee633677ecaea0fafca4510a045682a608b1520ce754c182
sl2-trivial       tensor-ab-2    2 0 -           91bd8c154d347a60e43da85430198268de5d3636b018228242660983940e559c
sl2-trivial       tensor-ab-3    0 0 -           fe6b8e4ce4173c76abe25bb239da2701fdd24b900973efa14afc2f1c91f740b7
sl2-trivial       tensor-ab-3    1 0 -           c38d1bb5c21c9caee1d17e0a58f328cf404d5e4143b84a2fa587989705de8663
sl2-trivial       tensor-ab-3    2 0 -           595d261442d3cb0d3f5e69f9bb29a258c10d2a2acd4af4ef62e16217890148e6
sl2-trivial       tensor-x-3     0 0 -           5ef2027b136dd9878a9c1d6084370a02e9924b2c8bdc9b79fecb2e855e615709
sl2-trivial       tensor-x-3     1 0 -           ef51b6da901f71faf9b1ec937f557d4f07b58544e882806dc203e17ecb01f011
sl2-trivial       tensor-x-3     2 0 -           2e79411d86ce27855b9a29ad445679da995dcf422ffc65fc3ca45ce6f497ab69
sl2-trivial       zero-ab        0 0 -           690aa957d32ecafd67cc4935ec1fddf494d0fb8cf1a2f43f2481eca1d144f7f2
sl2-trivial       zero-ab        1 0 -           ac6886d13d66e90c97be37e951a450f7ccff9f8a4423c860110efea9cdb36912
sl2-trivial       zero-ab        2 0 -           5a102a0364670e9ce69d808bfbc64dee9c93398329140befdb1a410cad7be512
heis-adjoint      exterior-ab    0 0 -           4301b2b61eca20010f57122476bca36fd64dc539e648dc6d15c7fdfd812a7c85
heis-adjoint      exterior-ab    1 0 -           d9075cd5c8c7730baf4d176382440154bf6d5ae439b7be3262245445a2e746a7
heis-adjoint      exterior-ab    2 0 -           ce64fd4553e47f6e4f089568804f8a75b5d6df1c0aafa8f597f7c195fb47f5ae
heis-adjoint      symmetric-xy-2 0 0 -           66e0a0c971b42a027b12ee37ac73893307fbdcee5008b1dddacae78aabe01db2
heis-adjoint      symmetric-xy-2 1 0 -           2bb07139c15b92e68c305f0abfe9188fef266fd49f726cd3ffab8a4c1e41e4c6
heis-adjoint      symmetric-xy-2 2 0 -           50c3602793496add9f829c3233b77e13bc1f70948f68050f9c3c930849a8346c
heis-adjoint      tensor-ab-2    0 0 -           a70fa6f0a2bb36e25e27a85cc682c5a47e2f37721744cc823a7b227b1e198b11
heis-adjoint      tensor-ab-2    1 0 -           a170f822af845ab35076f2048342113411ab84162ae18185eeadbf81240cacd9
heis-adjoint      tensor-ab-2    2 0 -           5e1bba79555ae9d57431073b5cfad265c28b5958910a34a20ef384ede9fd42a2
heis-adjoint      tensor-ab-3    0 0 -           4c5cd82d627b884abad97fde5b0d476c090e4fc13aefb460ee54848f85362935
heis-adjoint      tensor-ab-3    1 0 -           a7b1972801cb62bf0bad108e7cf1b43175b51601cb97ccf1c6cccc2d06dc1ba9
heis-adjoint      tensor-ab-3    2 0 -           009c8786e3445dc16554aa2247dc29467e6b3823f029c887ae7fd4d57d3d267a
heis-adjoint      tensor-x-3     0 0 -           51da286c92b0a2a8288f2eee46e29fad64bca2a13a04147cd1a9d23ee408aeb0
heis-adjoint      tensor-x-3     1 0 -           11bb841053b445391774eda87ba85226511bc8d7b489ee55b8c3b9238e8b370d
heis-adjoint      tensor-x-3     2 0 -           91705c0efaa7af9f3f37dff6a818939b8b456aec6d12d2eca2c6419400536123
heis-adjoint      zero-ab        0 0 -           13cc0f303cff42cf63156e41eef50b54ca9c70293ff9479e86dabceaa06724b1
heis-adjoint      zero-ab        1 0 -           c6af5e6a14f02b318b5de318831bb4a22af22dea8ea1ebafe3f624bb4377f173
heis-adjoint      zero-ab        2 0 -           4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599
abelian2-trivial  exterior-ab    0 0 -           c37706bce483e29f361402710ea61fda83a041e423eb6462bd13e0f5c8da9688
abelian2-trivial  exterior-ab    1 0 -           dbb3fa4b8a263cc8798744ad314025a43e1f52397bd8ab411dba7f78801e5783
abelian2-trivial  exterior-ab    2 0 -           c02ff2f486428fe22c6e43c30555e217c904feda7c5697c8c326794dfff50663
abelian2-trivial  symmetric-xy-2 0 0 -           f5861cfd6ca3f5ec8cf4c30af238873d4787ab385ec52118f8a19a9f8a68bb24
abelian2-trivial  symmetric-xy-2 1 0 -           ae6c7f8e8ee10ad03b3c7f9d2ef2745d592992172d37b643f5ad5cfd950a7a2e
abelian2-trivial  symmetric-xy-2 2 0 -           fb23c976229d7628e24f9748349f36dae4e56d4fc6b5067586c1b03094cbcd91
abelian2-trivial  tensor-ab-2    0 0 -           ea6c33b434993910e621213c3fc48d14beb124e87adc5e5f27ce01aac3333e74
abelian2-trivial  tensor-ab-2    1 0 -           ac9384f37104e210a70df1b6fa6e4f82a73ee8d317c0689dceb7062d924128e1
abelian2-trivial  tensor-ab-2    2 0 -           aa5145de0faad429a5139cadfbc15cffa6f4377ec72c6f0b1362a3235d12df4b
abelian2-trivial  tensor-ab-3    0 0 -           99a2fe2c36339dc6b2fd95aef83c7e54463b44f766b4d85545312b140f9530b7
abelian2-trivial  tensor-ab-3    1 0 -           fe8e031393d9362a5ca56a08f5d0b11ed7758d0f020e6c74d87b33a52407fa18
abelian2-trivial  tensor-ab-3    2 0 -           e793e2dec25e7d088370920559e0d492d50b85bc25361d043473314e853aff67
abelian2-trivial  tensor-x-3     0 0 -           e09603c68ba7f8f7155697b8cfc4db7c20a37105b110b32ee3ac4cfb6c0ff383
abelian2-trivial  tensor-x-3     1 0 -           5b4312efa83be37f9620fa64bcea9063b679b66234ac8d8569728ed281d2082f
abelian2-trivial  tensor-x-3     2 0 -           e2397e5196c0cb937842e569ab37ddc3ce966d2892ee1a3ce900ef08113b3599
abelian2-trivial  zero-ab        0 0 -           0fa121faf14559733728505681bb0e4f9e3d74a6629f19c9ae229f0ed73367a0
abelian2-trivial  zero-ab        1 0 -           21399a8e1e922e0496117c9057cf5dfb46882b756c56ad8ab6dc81cb9d88d614
abelian2-trivial  zero-ab        2 0 -           a60138beaf5c1b9e8ca9264a0426e27f69e53a65ea2eb29ccbf5d124972ed90f
bracket-x<y       exterior-ab    0 0 -           4301b2b61eca20010f57122476bca36fd64dc539e648dc6d15c7fdfd812a7c85
bracket-x<y       exterior-ab    1 2 not-induced -
bracket-x<y       exterior-ab    2 2 not-induced -
bracket-x<y       symmetric-xy-2 0 0 -           66e0a0c971b42a027b12ee37ac73893307fbdcee5008b1dddacae78aabe01db2
bracket-x<y       symmetric-xy-2 1 2 not-induced -
bracket-x<y       symmetric-xy-2 2 2 not-induced -
bracket-x<y       tensor-ab-2    0 0 -           a70fa6f0a2bb36e25e27a85cc682c5a47e2f37721744cc823a7b227b1e198b11
bracket-x<y       tensor-ab-2    1 2 not-induced -
bracket-x<y       tensor-ab-2    2 2 not-induced -
bracket-x<y       tensor-ab-3    0 0 -           4c5cd82d627b884abad97fde5b0d476c090e4fc13aefb460ee54848f85362935
bracket-x<y       tensor-ab-3    1 2 not-induced -
bracket-x<y       tensor-ab-3    2 2 not-induced -
bracket-x<y       tensor-x-3     0 0 -           51da286c92b0a2a8288f2eee46e29fad64bca2a13a04147cd1a9d23ee408aeb0
bracket-x<y       tensor-x-3     1 2 not-induced -
bracket-x<y       tensor-x-3     2 2 not-induced -
bracket-x<y       zero-ab        0 0 -           13cc0f303cff42cf63156e41eef50b54ca9c70293ff9479e86dabceaa06724b1
bracket-x<y       zero-ab        1 0 -           c6af5e6a14f02b318b5de318831bb4a22af22dea8ea1ebafe3f624bb4377f173
bracket-x<y       zero-ab        2 0 -           4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599
bracket-symmetric exterior-ab    0 0 -           4301b2b61eca20010f57122476bca36fd64dc539e648dc6d15c7fdfd812a7c85
bracket-symmetric exterior-ab    1 2 not-induced -
bracket-symmetric exterior-ab    2 2 not-induced -
bracket-symmetric symmetric-xy-2 0 0 -           66e0a0c971b42a027b12ee37ac73893307fbdcee5008b1dddacae78aabe01db2
bracket-symmetric symmetric-xy-2 1 2 not-induced -
bracket-symmetric symmetric-xy-2 2 2 not-induced -
bracket-symmetric tensor-ab-2    0 0 -           a70fa6f0a2bb36e25e27a85cc682c5a47e2f37721744cc823a7b227b1e198b11
bracket-symmetric tensor-ab-2    1 2 not-induced -
bracket-symmetric tensor-ab-2    2 2 not-induced -
bracket-symmetric tensor-ab-3    0 0 -           4c5cd82d627b884abad97fde5b0d476c090e4fc13aefb460ee54848f85362935
bracket-symmetric tensor-ab-3    1 2 not-induced -
bracket-symmetric tensor-ab-3    2 2 not-induced -
bracket-symmetric tensor-x-3     0 0 -           51da286c92b0a2a8288f2eee46e29fad64bca2a13a04147cd1a9d23ee408aeb0
bracket-symmetric tensor-x-3     1 2 not-induced -
bracket-symmetric tensor-x-3     2 2 not-induced -
bracket-symmetric zero-ab        0 0 -           13cc0f303cff42cf63156e41eef50b54ca9c70293ff9479e86dabceaa06724b1
bracket-symmetric zero-ab        1 0 -           c6af5e6a14f02b318b5de318831bb4a22af22dea8ea1ebafe3f624bb4377f173
bracket-symmetric zero-ab        2 0 -           4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599
bracket-extra     exterior-ab    0 0 -           4301b2b61eca20010f57122476bca36fd64dc539e648dc6d15c7fdfd812a7c85
bracket-extra     exterior-ab    1 2 not-induced -
bracket-extra     exterior-ab    2 2 not-induced -
bracket-extra     symmetric-xy-2 0 0 -           66e0a0c971b42a027b12ee37ac73893307fbdcee5008b1dddacae78aabe01db2
bracket-extra     symmetric-xy-2 1 2 not-induced -
bracket-extra     symmetric-xy-2 2 2 not-induced -
bracket-extra     tensor-ab-2    0 0 -           a70fa6f0a2bb36e25e27a85cc682c5a47e2f37721744cc823a7b227b1e198b11
bracket-extra     tensor-ab-2    1 2 not-induced -
bracket-extra     tensor-ab-2    2 2 not-induced -
bracket-extra     tensor-ab-3    0 0 -           4c5cd82d627b884abad97fde5b0d476c090e4fc13aefb460ee54848f85362935
bracket-extra     tensor-ab-3    1 2 not-induced -
bracket-extra     tensor-ab-3    2 2 not-induced -
bracket-extra     tensor-x-3     0 0 -           51da286c92b0a2a8288f2eee46e29fad64bca2a13a04147cd1a9d23ee408aeb0
bracket-extra     tensor-x-3     1 2 not-induced -
bracket-extra     tensor-x-3     2 2 not-induced -
bracket-extra     zero-ab        0 0 -           13cc0f303cff42cf63156e41eef50b54ca9c70293ff9479e86dabceaa06724b1
bracket-extra     zero-ab        1 0 -           c6af5e6a14f02b318b5de318831bb4a22af22dea8ea1ebafe3f624bb4377f173
bracket-extra     zero-ab        2 0 -           4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599
action-extra      exterior-ab    0 0 -           4301b2b61eca20010f57122476bca36fd64dc539e648dc6d15c7fdfd812a7c85
action-extra      exterior-ab    1 2 not-square  -
action-extra      exterior-ab    2 2 not-square  -
action-extra      symmetric-xy-2 0 0 -           66e0a0c971b42a027b12ee37ac73893307fbdcee5008b1dddacae78aabe01db2
action-extra      symmetric-xy-2 1 2 not-square  -
action-extra      symmetric-xy-2 2 2 not-square  -
action-extra      tensor-ab-2    0 0 -           a70fa6f0a2bb36e25e27a85cc682c5a47e2f37721744cc823a7b227b1e198b11
action-extra      tensor-ab-2    1 2 not-square  -
action-extra      tensor-ab-2    2 2 not-square  -
action-extra      tensor-ab-3    0 0 -           4c5cd82d627b884abad97fde5b0d476c090e4fc13aefb460ee54848f85362935
action-extra      tensor-ab-3    1 2 not-square  -
action-extra      tensor-ab-3    2 2 not-square  -
action-extra      tensor-x-3     0 0 -           51da286c92b0a2a8288f2eee46e29fad64bca2a13a04147cd1a9d23ee408aeb0
action-extra      tensor-x-3     1 2 not-square  -
action-extra      tensor-x-3     2 2 not-square  -
action-extra      zero-ab        0 0 -           13cc0f303cff42cf63156e41eef50b54ca9c70293ff9479e86dabceaa06724b1
action-extra      zero-ab        1 0 -           c6af5e6a14f02b318b5de318831bb4a22af22dea8ea1ebafe3f624bb4377f173
action-extra      zero-ab        2 0 -           4cad6237b225ea5a2e1ba7e4c2580b5ed9717f813b87ecd0f0928a02db93c599
action-x<y        exterior-ab    0 0 -           dd52069d4ecec0fbb339963001af3caaa68e57115b676185b78d47c8a56eb900
action-x<y        exterior-ab    1 0 -           2de9552e82c0bee35a75a7fbb65c468350e947369823a7e389dee5df02a5f103
action-x<y        exterior-ab    2 0 -           422617c03c704cc089060db34bd2156193d71a3b5753ce96f895a05be3d4914f
action-x<y        symmetric-xy-2 0 0 -           bff7d56cbbd6cfd72a166a9a8bda21ff70e826da1a6e2da150ce7db9c00e6090
action-x<y        symmetric-xy-2 1 0 -           35b2abfe1d3f321e4f9259d44819e74e0eaea2adf8b0344f2235d56a36de5510
action-x<y        symmetric-xy-2 2 0 -           3336a202a89b3b13757b4ce97bf8cadc7b0fb0b62c8e88561caf30e9b5f2ce33
action-x<y        tensor-ab-2    0 0 -           f687f93a38dfba894bee164ab9dbd829f831f08c98efb9c21c36c4188082fbb8
action-x<y        tensor-ab-2    1 0 -           f00835f45aea2eb8588f2e57bf88f5534cbe83bc7c3e1672c1179577e02d4605
action-x<y        tensor-ab-2    2 0 -           435a87d2102447d2543603bab1ae00150f71fec0ffa0ea60b7a4bb2305cc7d62
action-x<y        tensor-ab-3    0 0 -           8f61cefdd4323e17bb8a4655142723e5657ba683213da746362f84a792e29d39
action-x<y        tensor-ab-3    1 0 -           03229ce4481356978d6842867b50ee7ccf3909151b2a1b36f5e49108e7f89d8e
action-x<y        tensor-ab-3    2 0 -           28e4ea58bfadea05af803821c0068f189c76f9582e8bc850a84c60bbbb73c399
action-x<y        tensor-x-3     0 0 -           b963a9ff2e5a2b2f8c9c35e18f51c05f65505e1473b707d59e31aa56dd3c0b66
action-x<y        tensor-x-3     1 0 -           9d89f442935efd1abbeaf9c2b04b80c39909eec638f8cf0d20606e7f9379b2e6
action-x<y        tensor-x-3     2 0 -           f1a3fae39dfa17f982b0025dcd40d8901d5279e4f0835bc17e8629ab184b8673
action-x<y        zero-ab        0 0 -           1dc1882e6805d4b667f7bc5e93c18c859621001246624e0fa02ecab13b7020c9
action-x<y        zero-ab        1 0 -           d2535c87d246ddd6bb7581bb57efab52f8451e51d56c11037e8f03c2340af8ba
action-x<y        zero-ab        2 0 -           9678dc1861a5371cd66384e8fb17626a56941e2aa0d95394af34d87a133337d5
"""

TD_ERRORS = {
    "-": None,
    "not-induced":
        "error: twisted differential output is not induced at degree 2",
    "not-square": "error: quotient differentials do not square to zero",
}

HEIS_VARIANTS = {
    "bracket-x<y": ("bracket", [[[0, 1], 2, "1"]]),
    "bracket-symmetric": ("bracket", SYMMETRIC_BRACKET),
    "bracket-extra": ("bracket", ADJOINT_ACTION + [[[0, 0], 0, "1"]]),
    "action-extra": ("action", ADJOINT_ACTION + [[[0, 0], 0, "1"]]),
    "action-x<y": ("action", [[[0, 1], 2, "1"]]),
}


@pytest.mark.parametrize("row", TD_TABLE.split("\n")[1:-1],
                         ids=lambda row: "-".join(row.split()[:3]))
def test_td_table_is_pinned(row, tmp_path, capsys):
    mname, cname, maxdeg, code, error, digest = row.split()
    if mname in HEIS_VARIANTS:
        source = [heis_adjoint_file(tmp_path, *HEIS_VARIANTS[mname]),
                  "--unsafe-skip-axioms"]
    else:
        source = ["--module", mname]
    got_code, out, err = run(["cohomology"] + source + [
        "--coalgebra", cname, "--td", "--json", "--guard-limit", "200000",
        "--maxdeg", maxdeg], capsys)
    assert got_code == int(code)
    errors = [line for line in err.splitlines()
              if not line.startswith("elapsed ")]
    assert errors == ([] if TD_ERRORS[error] is None else [TD_ERRORS[error]])
    if digest == "-":
        assert out == ""
    else:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# cohomology --td --json --guard-limit 1000000000000 --maxdeg d over
# tensor-ab-3 for modules above the corpus, each written out with
# serialize_structure(M, "m"): module, coalgebra, d, exit code, SHA-256 of
# stdout.  Recorded at 9021691, when TDComplexData still assembled and
# ranked every whole quotient differential.
TD_RUNGS = """
gl3-adjoint tensor-ab-3 2 0 d839fbd4755bdc307e8c43acdcebf22ab915b05b9035b7c6d5701f3849649ae2
gl3-adjoint tensor-ab-3 3 0 f41acbf240d52bb508dd3eea382feddaabe05828e99e76125a821e8661c116f8
b4-adjoint  tensor-ab-3 2 0 0a84a1d771b28b5c82077a622ae3fde79c61d9fe2fce0df6cab835e2daf24a25
b4-adjoint  tensor-ab-3 3 0 e6b66f38c7aedefb900bba71bdbcc12cd7211e231d733600ea3b294d043c38d3
"""


@pytest.mark.parametrize("row", TD_RUNGS.split("\n")[1:-1],
                         ids=lambda row: "-".join(row.split()[:3]))
def test_td_rungs_are_pinned(row, tmp_path, capsys):
    mname, cname, maxdeg, code, digest = row.split()
    M = gl_adjoint(3) if mname == "gl3-adjoint" else b_adjoint(4)
    path = tmp_path / "module.json"
    path.write_text(serialize_structure(M, "m"), encoding="utf-8")
    got_code, out, _ = run(["cohomology", str(path), "--coalgebra", cname,
                            "--td", "--json", "--guard-limit", "1000000000000",
                            "--maxdeg", maxdeg], capsys)
    assert got_code == int(code)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# verify --json on one structure file and one coalgebra file, both named by
# bare file names in one directory so the report does not depend on where
# it runs.  Structures: every corpus Lie algebra, module, Poisson algebra and
# pair, plus unchecked broken variants: broken-jacobi; broken-skew; dual
# numbers whose action also hits 1 (no derivation); lr-derx3 with its
# bracket doubled (the Leibniz rules fail); heis-adjoint with an extra
# action entry; and poisson3 with an extra product entry (not commutative).
VERIFY_VARIANTS = {
    "lr-dualnum-derivation": ("lr-dualnum", "action",
                              [[[0, 1], 1, "1"], [[0, 0], 0, "1"]]),
    "lr-derx3-leibniz": ("lr-derx3", "bracket",
                         [[[0, 1], 1, "2"], [[1, 0], 1, "-2"]]),
    "heis-adjoint-action": ("heis-adjoint", "action",
                            ADJOINT_ACTION + [[[0, 0], 0, "1"]]),
    "poisson3-product": ("poisson3", "product",
                         [[[0, 0], 0, "1"], [[0, 1], 1, "1"], [[0, 2], 2, "1"],
                          [[1, 0], 1, "1"], [[2, 0], 2, "1"],
                          [[1, 2], 0, "1"]]),
}

VERIFY_OPTIONS = {
    "plain": [],
    "skip": ["--unsafe-skip-axioms"],
    # once small enough to refuse the pairs' td-subcomplex sweep under a
    # materialization guard; the sweep stacks at most 6 slot defects here
    "guard100": ["--unsafe-skip-axioms", "--guard-limit", "100"],
    "deg2": ["--unsafe-skip-axioms", "--subcomplex-maxdeg", "2",
             "--guard-limit", "200000"],
}


def write_verify_inputs(directory):
    """Every structure and coalgebra of the verify table as <name>.json."""
    texts = {name: corpus.fixture_text(name) for name in corpus.FIXTURES}
    for name, (base, map_name, entries) in VERIFY_VARIANTS.items():
        doc = json.loads(texts[base])
        for m in doc["maps"]:
            if m["name"] == map_name:
                m["entries"] = entries
        doc["name"] = name
        texts[name] = json.dumps(doc)
    for cname in corpus.coalgebra_names():
        texts[cname] = serialize_structure(corpus.get_coalgebra(cname))
    for name, text in texts.items():
        (directory / (name + ".json")).write_text(text, encoding="utf-8")


def verify_argv(name, cname, options):
    return (["verify", name + ".json", cname + ".json", "--json"]
            + VERIFY_OPTIONS[options])


# Rows: structure, coalgebra, options, exit code, stderr error line, SHA-256
# of stdout ("-" when it is empty).  Recorded at 10cc95d, when every twisted
# identity was decided on materialized operator tables.  The rows that a
# materialization guard refused then, with guard100, deg2 on lr-trivial over
# tensor-ab-3, and the default guard on tensor-ab-3, were re-recorded when
# the guard came to price the slot defects the sweep stacks; each equals the
# report of the earlier code with its guard lifted to 10^12.  The nine
# lr-dualnum-derivation rows over exterior-ab, symmetric-xy-2 and
# tensor-ab-2 with skip, guard100 and deg2 were re-recorded when the
# td-subcomplex detail came to name its escaping image by its values,
# "image [1]" for "image AltCochain(degree=1, 1 values)"; nothing else in
# those reports changed.
VERIFY_TABLE = """
sl2                    exterior-ab    plain    0 -   7456cd812216e5490cfcb3a1e90a45649b6f5c6d8a02bd6ce4e972ec50409cf9
sl2                    symmetric-xy-2 plain    0 -   2cf3f4b77a7f676f6bb1cd50e0bc7d8da0294e2eaf73d9b9005b86d9c48f548b
sl2                    tensor-ab-2    plain    0 -   e52dca9b46073e921b948236e3874003aa3a7cb7b2b463ec9f1e32f4de6fd5b6
sl2                    tensor-ab-3    plain    0 -   8655a6a66709569d82d96d7f742fa8137eff295ad8e9d2260a5b3c65276c1c54
sl2                    tensor-x-3     plain    0 -   2ecde07920c1ad7ca69ec62abfa9b4e3d950e5f8cfcb009f08a2be16b4cde9ed
sl2                    zero-ab        plain    0 -   0d93794173237ece7e4496106790f85afdd212725aef6dd9a7dc3cc3ef040672
sl2                    exterior-ab    skip     0 -   7456cd812216e5490cfcb3a1e90a45649b6f5c6d8a02bd6ce4e972ec50409cf9
sl2                    symmetric-xy-2 skip     0 -   2cf3f4b77a7f676f6bb1cd50e0bc7d8da0294e2eaf73d9b9005b86d9c48f548b
sl2                    tensor-ab-2    skip     0 -   e52dca9b46073e921b948236e3874003aa3a7cb7b2b463ec9f1e32f4de6fd5b6
sl2                    tensor-ab-3    skip     0 -   8655a6a66709569d82d96d7f742fa8137eff295ad8e9d2260a5b3c65276c1c54
sl2                    tensor-x-3     skip     0 -   2ecde07920c1ad7ca69ec62abfa9b4e3d950e5f8cfcb009f08a2be16b4cde9ed
sl2                    zero-ab        skip     0 -   0d93794173237ece7e4496106790f85afdd212725aef6dd9a7dc3cc3ef040672
heisenberg             exterior-ab    plain    0 -   d3a94d96b1b0566081a3614a81ba48f64386814ffbb5c59201fad5547ab510ed
heisenberg             symmetric-xy-2 plain    0 -   f0874a010911386a37c3ad4969c42aef58bdd887e9fb41c4f3787fb23eba6ae4
heisenberg             tensor-ab-2    plain    0 -   4477a484747eed9f1097b72af6ed7f56d9f23a857656a962c503b82074a8658b
heisenberg             tensor-ab-3    plain    0 -   c2ef8ff9608113bb628c96f21d0d337c89f768ae76a5074c0375f1281e81b7b3
heisenberg             tensor-x-3     plain    0 -   3f39f440cd844a35df2d020c223c7e864a0e6f12c849b8d66332ecdedeb30b6e
heisenberg             zero-ab        plain    0 -   9e6ac9435eae4af5f25122b7f60f66c6d038f5adb97ae388e5a7dc359e931299
heisenberg             exterior-ab    skip     0 -   d3a94d96b1b0566081a3614a81ba48f64386814ffbb5c59201fad5547ab510ed
heisenberg             symmetric-xy-2 skip     0 -   f0874a010911386a37c3ad4969c42aef58bdd887e9fb41c4f3787fb23eba6ae4
heisenberg             tensor-ab-2    skip     0 -   4477a484747eed9f1097b72af6ed7f56d9f23a857656a962c503b82074a8658b
heisenberg             tensor-ab-3    skip     0 -   c2ef8ff9608113bb628c96f21d0d337c89f768ae76a5074c0375f1281e81b7b3
heisenberg             tensor-x-3     skip     0 -   3f39f440cd844a35df2d020c223c7e864a0e6f12c849b8d66332ecdedeb30b6e
heisenberg             zero-ab        skip     0 -   9e6ac9435eae4af5f25122b7f60f66c6d038f5adb97ae388e5a7dc359e931299
abelian2               exterior-ab    plain    0 -   4342acb90fc90bf3b9fa3452248a6b98b90588bbf16fc76f3bdec77f55b8834f
abelian2               symmetric-xy-2 plain    0 -   b34da43d5a44f3fff8f7430a0a2360b36a61c73efb35e0d9c6eeca64723a80ec
abelian2               tensor-ab-2    plain    0 -   f8895696b831e8f4df4be37b0d160371bb8a4939e880596066153ef17a970876
abelian2               tensor-ab-3    plain    0 -   4d8a5b086e50598faee750b50ee56e8a0aba7308d644ec31be9a2c4c1f5e4046
abelian2               tensor-x-3     plain    0 -   63062c4c6ae9b0552733bf2dc07b24e5d73beefc194e78755c0e559e0ce131b9
abelian2               zero-ab        plain    0 -   27c8c5d37b6f941b175afac221b8c0125fc2343c5b8879cffcc694c4d373b765
abelian2               exterior-ab    skip     0 -   4342acb90fc90bf3b9fa3452248a6b98b90588bbf16fc76f3bdec77f55b8834f
abelian2               symmetric-xy-2 skip     0 -   b34da43d5a44f3fff8f7430a0a2360b36a61c73efb35e0d9c6eeca64723a80ec
abelian2               tensor-ab-2    skip     0 -   f8895696b831e8f4df4be37b0d160371bb8a4939e880596066153ef17a970876
abelian2               tensor-ab-3    skip     0 -   4d8a5b086e50598faee750b50ee56e8a0aba7308d644ec31be9a2c4c1f5e4046
abelian2               tensor-x-3     skip     0 -   63062c4c6ae9b0552733bf2dc07b24e5d73beefc194e78755c0e559e0ce131b9
abelian2               zero-ab        skip     0 -   27c8c5d37b6f941b175afac221b8c0125fc2343c5b8879cffcc694c4d373b765
sl2-adjoint            exterior-ab    plain    0 -   9e00f7dd7bce282a72c79de788bdc44fcdfe59e900b78030bf5a117efa713550
sl2-adjoint            symmetric-xy-2 plain    0 -   de3eb72ec34abe2e8be19a1a9aa861faf3710039423af94f745db6017a88b358
sl2-adjoint            tensor-ab-2    plain    0 -   44ed01451aba710e6fd5a49f10b246336018bb01551d2bdd019dd2299f87940a
sl2-adjoint            tensor-ab-3    plain    0 -   6a296c7454b321be917c6e717443c4535cb74708235f42c6af734e726763c5b5
sl2-adjoint            tensor-x-3     plain    0 -   b6c8e5aa6591f268c62e8fb0762c3ec4118f52b823d38f2eb609cdafd0e60c3c
sl2-adjoint            zero-ab        plain    0 -   a0f6e8fc53e2612ecf9c179b5073aaac6b37f5e1a26b692733a589b65297cb81
sl2-adjoint            exterior-ab    skip     0 -   9e00f7dd7bce282a72c79de788bdc44fcdfe59e900b78030bf5a117efa713550
sl2-adjoint            symmetric-xy-2 skip     0 -   de3eb72ec34abe2e8be19a1a9aa861faf3710039423af94f745db6017a88b358
sl2-adjoint            tensor-ab-2    skip     0 -   44ed01451aba710e6fd5a49f10b246336018bb01551d2bdd019dd2299f87940a
sl2-adjoint            tensor-ab-3    skip     0 -   6a296c7454b321be917c6e717443c4535cb74708235f42c6af734e726763c5b5
sl2-adjoint            tensor-x-3     skip     0 -   b6c8e5aa6591f268c62e8fb0762c3ec4118f52b823d38f2eb609cdafd0e60c3c
sl2-adjoint            zero-ab        skip     0 -   a0f6e8fc53e2612ecf9c179b5073aaac6b37f5e1a26b692733a589b65297cb81
sl2-trivial            exterior-ab    plain    0 -   a9327251cd7e651f418f6d57fdb1f41b1a8f6a4e895503d5c2c3bfe79460d9d7
sl2-trivial            symmetric-xy-2 plain    0 -   436bbc344417bcbc34a7dd1cbf51bfc214707888ca614d736777e0f01887d135
sl2-trivial            tensor-ab-2    plain    0 -   a98349d29e5133122b30a2cc9efce6008b24525b61897194eff98994caa8e780
sl2-trivial            tensor-ab-3    plain    0 -   1e890034c72c4fdd223b629f8605e7c396ae1c984588ae13ea50db0a81fa7adb
sl2-trivial            tensor-x-3     plain    0 -   643b989db3f8580ac2b3b62edbd208d275a062a7ccf3ef07e162fa8874eeb66e
sl2-trivial            zero-ab        plain    0 -   c64501c30e5061c248b18bb67315cf467663664d5d75ebd7cc6601c86e9bba24
sl2-trivial            exterior-ab    skip     0 -   a9327251cd7e651f418f6d57fdb1f41b1a8f6a4e895503d5c2c3bfe79460d9d7
sl2-trivial            symmetric-xy-2 skip     0 -   436bbc344417bcbc34a7dd1cbf51bfc214707888ca614d736777e0f01887d135
sl2-trivial            tensor-ab-2    skip     0 -   a98349d29e5133122b30a2cc9efce6008b24525b61897194eff98994caa8e780
sl2-trivial            tensor-ab-3    skip     0 -   1e890034c72c4fdd223b629f8605e7c396ae1c984588ae13ea50db0a81fa7adb
sl2-trivial            tensor-x-3     skip     0 -   643b989db3f8580ac2b3b62edbd208d275a062a7ccf3ef07e162fa8874eeb66e
sl2-trivial            zero-ab        skip     0 -   c64501c30e5061c248b18bb67315cf467663664d5d75ebd7cc6601c86e9bba24
heis-adjoint           exterior-ab    plain    0 -   63cd176e69ec7ce77f4639653bd0f421ecd7e45cf211e2382fb4c129202b2f4c
heis-adjoint           symmetric-xy-2 plain    0 -   20c16b063fd3c2d3bbf6907258b692685527bfa7c5e9698ca564456d4114c47e
heis-adjoint           tensor-ab-2    plain    0 -   e4ba701e4402aa01a8e01966c5cc972af51b0ca9bad8dd065f13a1b05c9d0993
heis-adjoint           tensor-ab-3    plain    0 -   6546d603a4f0e71e5e09dabdc208d0cf32989bbf2f48c35d3a51cee7fb3b2e90
heis-adjoint           tensor-x-3     plain    0 -   51e6fac415bda26a9e6b7b159ede305694f765cd5a8b0413caf206f2a6306501
heis-adjoint           zero-ab        plain    0 -   bcdebe9c6ffed54e831f98e894f4feebaef696da72fdcb3bb64c730a0d27706e
heis-adjoint           exterior-ab    skip     0 -   63cd176e69ec7ce77f4639653bd0f421ecd7e45cf211e2382fb4c129202b2f4c
heis-adjoint           symmetric-xy-2 skip     0 -   20c16b063fd3c2d3bbf6907258b692685527bfa7c5e9698ca564456d4114c47e
heis-adjoint           tensor-ab-2    skip     0 -   e4ba701e4402aa01a8e01966c5cc972af51b0ca9bad8dd065f13a1b05c9d0993
heis-adjoint           tensor-ab-3    skip     0 -   6546d603a4f0e71e5e09dabdc208d0cf32989bbf2f48c35d3a51cee7fb3b2e90
heis-adjoint           tensor-x-3     skip     0 -   51e6fac415bda26a9e6b7b159ede305694f765cd5a8b0413caf206f2a6306501
heis-adjoint           zero-ab        skip     0 -   bcdebe9c6ffed54e831f98e894f4feebaef696da72fdcb3bb64c730a0d27706e
abelian2-trivial       exterior-ab    plain    0 -   ea5d11a8058dac08a6fc2c8cd236e7ddd650909ecf6c67f658acc12437b91af8
abelian2-trivial       symmetric-xy-2 plain    0 -   3e1b3c174e9e380f1121f6a7cd94fecb238ac4b1dfbc1b4376139383ddb970cc
abelian2-trivial       tensor-ab-2    plain    0 -   4df4e16c809d459c74fda51e6a6c38238721135d75ba15504c9f264689ab099d
abelian2-trivial       tensor-ab-3    plain    0 -   02dfea8b8ef6a16697c653936e60da107d09236d0a3592750e6ab096ebacbf31
abelian2-trivial       tensor-x-3     plain    0 -   75c3800d0b014a7dff54aebe0a8b62f27032d5839b294747d5b762421d4139eb
abelian2-trivial       zero-ab        plain    0 -   0640a4d5dc70c51c22d01cebb3aa54e95454cfa2f9020584f7d113fba3f4abd2
abelian2-trivial       exterior-ab    skip     0 -   ea5d11a8058dac08a6fc2c8cd236e7ddd650909ecf6c67f658acc12437b91af8
abelian2-trivial       symmetric-xy-2 skip     0 -   3e1b3c174e9e380f1121f6a7cd94fecb238ac4b1dfbc1b4376139383ddb970cc
abelian2-trivial       tensor-ab-2    skip     0 -   4df4e16c809d459c74fda51e6a6c38238721135d75ba15504c9f264689ab099d
abelian2-trivial       tensor-ab-3    skip     0 -   02dfea8b8ef6a16697c653936e60da107d09236d0a3592750e6ab096ebacbf31
abelian2-trivial       tensor-x-3     skip     0 -   75c3800d0b014a7dff54aebe0a8b62f27032d5839b294747d5b762421d4139eb
abelian2-trivial       zero-ab        skip     0 -   0640a4d5dc70c51c22d01cebb3aa54e95454cfa2f9020584f7d113fba3f4abd2
poisson3               exterior-ab    plain    0 -   80aec2cf1f793b8e08c665cfef903cc8b16ab1fac463213789ce665a8b8b34fe
poisson3               symmetric-xy-2 plain    0 -   bc070217ba7c7a4738faee7faacbd85b77d465e9aef26c3d866fcd6c75c5ff81
poisson3               tensor-ab-2    plain    0 -   0866dfb6991f259711173969082d6073e11e0b9745117dfc3abacb3980ca0e43
poisson3               tensor-ab-3    plain    0 -   b1133133a6d1c00283cdf281b127d43a46db583d0d939c4b7681b01a8fb7de77
poisson3               tensor-x-3     plain    0 -   ff1c25c4de4d4d7e80c7e74f1f2aebfc91f82cef5a2051d1a8ada26c2680c8ad
poisson3               zero-ab        plain    0 -   1ac04a96f43e9eb6cb5f5d134e4831b2082efadfd181cb3bd8cb038b67f86130
poisson3               exterior-ab    skip     0 -   80aec2cf1f793b8e08c665cfef903cc8b16ab1fac463213789ce665a8b8b34fe
poisson3               symmetric-xy-2 skip     0 -   bc070217ba7c7a4738faee7faacbd85b77d465e9aef26c3d866fcd6c75c5ff81
poisson3               tensor-ab-2    skip     0 -   0866dfb6991f259711173969082d6073e11e0b9745117dfc3abacb3980ca0e43
poisson3               tensor-ab-3    skip     0 -   b1133133a6d1c00283cdf281b127d43a46db583d0d939c4b7681b01a8fb7de77
poisson3               tensor-x-3     skip     0 -   ff1c25c4de4d4d7e80c7e74f1f2aebfc91f82cef5a2051d1a8ada26c2680c8ad
poisson3               zero-ab        skip     0 -   1ac04a96f43e9eb6cb5f5d134e4831b2082efadfd181cb3bd8cb038b67f86130
lr-trivial             exterior-ab    plain    0 -   b83bb60c705e8d3cdeeaa805ca1ccf2241f9977ee51a340593b7350b9e429ddf
lr-trivial             symmetric-xy-2 plain    0 -   e1e57a9fe76319423169d8531e89108cf99cfb1cdbed029405869e8ed4180546
lr-trivial             tensor-ab-2    plain    0 -   a4df623832ea1769c4bd3a1d775857b8b1d374e4826184bcae5d73a81aed6cb8
lr-trivial             tensor-ab-3    plain    0 -   93ae0eb1be457b63da286d9d88712b18fe053066c57b0f93a0d7dfbd86acd0d0
lr-trivial             tensor-x-3     plain    0 -   d21341c3bc11b989c72abe9ffbdb77f94a8e0a6b82115f80b1395ff31db8fc2d
lr-trivial             zero-ab        plain    0 -   835b2f0868899f9cec08a97cb69c5309a2b41033d6275f7a64d8f4b701177940
lr-trivial             exterior-ab    skip     0 -   b83bb60c705e8d3cdeeaa805ca1ccf2241f9977ee51a340593b7350b9e429ddf
lr-trivial             symmetric-xy-2 skip     0 -   e1e57a9fe76319423169d8531e89108cf99cfb1cdbed029405869e8ed4180546
lr-trivial             tensor-ab-2    skip     0 -   a4df623832ea1769c4bd3a1d775857b8b1d374e4826184bcae5d73a81aed6cb8
lr-trivial             tensor-ab-3    skip     0 -   93ae0eb1be457b63da286d9d88712b18fe053066c57b0f93a0d7dfbd86acd0d0
lr-trivial             tensor-x-3     skip     0 -   d21341c3bc11b989c72abe9ffbdb77f94a8e0a6b82115f80b1395ff31db8fc2d
lr-trivial             zero-ab        skip     0 -   835b2f0868899f9cec08a97cb69c5309a2b41033d6275f7a64d8f4b701177940
lr-dualnum             exterior-ab    plain    0 -   93327bce72f07cb36829a2f27820c56110ff18f8abe0460324cba23e6a2df4cc
lr-dualnum             symmetric-xy-2 plain    0 -   029c5fb271637e62be4a616756b2ba4cf39691da3eb534c5fcc65a12abcae81c
lr-dualnum             tensor-ab-2    plain    0 -   0d016c3d13768add5c5e4ee35aac2852c2a3458a761df400205aed441f61941e
lr-dualnum             tensor-ab-3    plain    0 -   c0ee6f99f9b538f6d166396512e5e072cf47a67ba7906d8d78e5e22042247282
lr-dualnum             tensor-x-3     plain    0 -   1a2a810ae33d83dce6df6ad4880eb482cca79fd56f3faf3375b3365c240aefc3
lr-dualnum             zero-ab        plain    0 -   d5da7ab1622d350cf5ee75e7c9dbff3b0ae1b0e7baee9fb309575e170a3686ce
lr-dualnum             exterior-ab    skip     0 -   93327bce72f07cb36829a2f27820c56110ff18f8abe0460324cba23e6a2df4cc
lr-dualnum             symmetric-xy-2 skip     0 -   029c5fb271637e62be4a616756b2ba4cf39691da3eb534c5fcc65a12abcae81c
lr-dualnum             tensor-ab-2    skip     0 -   0d016c3d13768add5c5e4ee35aac2852c2a3458a761df400205aed441f61941e
lr-dualnum             tensor-ab-3    skip     0 -   c0ee6f99f9b538f6d166396512e5e072cf47a67ba7906d8d78e5e22042247282
lr-dualnum             tensor-x-3     skip     0 -   1a2a810ae33d83dce6df6ad4880eb482cca79fd56f3faf3375b3365c240aefc3
lr-dualnum             zero-ab        skip     0 -   d5da7ab1622d350cf5ee75e7c9dbff3b0ae1b0e7baee9fb309575e170a3686ce
lr-derx3               exterior-ab    plain    0 -   8bc712d502277162d9ecc024818b27ee90b8d48bdf8960b4e35d1407919675cf
lr-derx3               symmetric-xy-2 plain    0 -   06ec7c825ad6b59b2b76ac5085e1f781a75cbf0e745a6caea84b157ed5624a7c
lr-derx3               tensor-ab-2    plain    0 -   3f129c1b086cd365489c60348a1f34e0425aa588f67f6cb2351ea836528063df
lr-derx3               tensor-ab-3    plain    0 -   5ec4a04ad77b310097e2f68ec2a9df291e77a3c8cf3ed6aba3e81108b6c673bd
lr-derx3               tensor-x-3     plain    0 -   8581b18924661706de0da5abe096f4bf7313307b7f8d7c4d0a27e241454e8726
lr-derx3               zero-ab        plain    0 -   d75470a8adf7538057ac10f1f420746437b135b5ce2c289db48083db4b73b6ad
lr-derx3               exterior-ab    skip     0 -   8bc712d502277162d9ecc024818b27ee90b8d48bdf8960b4e35d1407919675cf
lr-derx3               symmetric-xy-2 skip     0 -   06ec7c825ad6b59b2b76ac5085e1f781a75cbf0e745a6caea84b157ed5624a7c
lr-derx3               tensor-ab-2    skip     0 -   3f129c1b086cd365489c60348a1f34e0425aa588f67f6cb2351ea836528063df
lr-derx3               tensor-ab-3    skip     0 -   5ec4a04ad77b310097e2f68ec2a9df291e77a3c8cf3ed6aba3e81108b6c673bd
lr-derx3               tensor-x-3     skip     0 -   8581b18924661706de0da5abe096f4bf7313307b7f8d7c4d0a27e241454e8726
lr-derx3               zero-ab        skip     0 -   d75470a8adf7538057ac10f1f420746437b135b5ce2c289db48083db4b73b6ad
broken-jacobi          exterior-ab    plain    1 -   00b7e8ce4cb129fcb9f5e2f9bd8530a8fad263d253b6e0fcc9f00312f3d2434e
broken-jacobi          symmetric-xy-2 plain    1 -   0d94edb39fa207f212b40a13f28e99bec1c625e0f3489e358f2d217053c72cb6
broken-jacobi          tensor-ab-2    plain    1 -   c0972f3c33768082364c6f24563a447f85004785a4951180450da953d0fa70ed
broken-jacobi          tensor-ab-3    plain    1 -   cc76286b6a25030142bd00e4968b7f0fb265e034ac77a1703a126fe7847abb80
broken-jacobi          tensor-x-3     plain    1 -   3c80f9fb9bfcb40ea85d0ffc815bd927d2ad38348fd5f3f37bab6b51ba29cb62
broken-jacobi          zero-ab        plain    1 -   026a79ba07b0eea88bc8300b15e084c40713ad4c1d3e71d007e601f68f97e63b
broken-jacobi          exterior-ab    skip     1 -   e3c9a3860e891d9c2c439d9c5c6995cadc50cdd6076addcaec51059cb72cf296
broken-jacobi          symmetric-xy-2 skip     1 -   6b113b20cd9d2387d352aa9c589b6f26ec6d14dc5d8a8af55e91961d4c4f2cdc
broken-jacobi          tensor-ab-2    skip     1 -   f3aa1e4cb51bf337cceed9875074ae8bc4ad5d2644b9ff51f1945fb1438e841d
broken-jacobi          tensor-ab-3    skip     1 -   2f7994e3fe59dc5d66d81edeb82540d520c9fd8e3400791c983d889b13d3e7f8
broken-jacobi          tensor-x-3     skip     1 -   0771b56bfa9f7b023bab4196251b4296b1e7b221d5c3ddb732e70b7b5cfc8b45
broken-jacobi          zero-ab        skip     1 -   e225f8c4dae275e494cd3ee21fe6488d7c753760157b5fc8200364d7cb9ab24c
broken-skew            exterior-ab    plain    1 -   d91dc698702e88271fd3aa73a6c6a343e5b3e2815eb55ff98bd0d52bcdfed6bc
broken-skew            symmetric-xy-2 plain    1 -   cbc9806b9ac8a8838661c6d297d093f265464ecfe49b1cb57e6f152f2f917860
broken-skew            tensor-ab-2    plain    1 -   085414196701f24e6cde09707effc034284a1fad3588a61a7bec3e85744f18d6
broken-skew            tensor-ab-3    plain    1 -   5b97a5da3641664f639cdd161e592e2b6de192da40e03bf15837fe6dcc1c8e55
broken-skew            tensor-x-3     plain    1 -   887285e73e31aff1a7a4dba29527fe653c95246bfd2c928106c22e6622747d96
broken-skew            zero-ab        plain    1 -   dff145bcb8a3e88c79803f988531b79641af13a7624a0826224092548e57f159
broken-skew            exterior-ab    skip     1 -   6cc405c1afef19541067830461875e29beb6c0d90917edc1ae71294c1a7ba7d8
broken-skew            symmetric-xy-2 skip     1 -   f51f652b79a74914066c55f139d40666def310a7b71df00eb16f1817036978f1
broken-skew            tensor-ab-2    skip     1 -   6e88bce842f8fa71d8380755db7f0c2298f2003034f1b2c55ad27b4a8f41ff72
broken-skew            tensor-ab-3    skip     1 -   7c798b30a6b9706ae52e0c642caa597b0f79ff6101218a6a09e23da007e1a2a9
broken-skew            tensor-x-3     skip     1 -   b4684ce572b3a8463ec326adad7fa1ba26e55fa2a638afcd7d67fd79917b9a6d
broken-skew            zero-ab        skip     1 -   b703b17c9a3cf925c3bd594859a268af6ca4e1c03c2629704eb00cef4597f669
lr-dualnum-derivation  exterior-ab    plain    1 -   897455f3ebe47817fe8484d961ab685429f49685d2057e92a881922a21809dfe
lr-dualnum-derivation  symmetric-xy-2 plain    1 -   4bf38fc379e68946fc8bcba51094d27155c85fe97348063fcd66a8a8a3800367
lr-dualnum-derivation  tensor-ab-2    plain    1 -   de363594330fc09fb93501ee76e66aef2172a19f7fe242bb534e97ade58ed231
lr-dualnum-derivation  tensor-ab-3    plain    1 -   ef11967afd620f5a683dcd0af162a72c6d9a42b151d5bfd29f1bb82a6ac7d1f8
lr-dualnum-derivation  tensor-x-3     plain    1 -   66c5ab845cb677e909782b202141103a7746a152e602f93d120db30487ed72f7
lr-dualnum-derivation  zero-ab        plain    1 -   6f532d1ec4b0f6ae93866cafeac8a1531d28cd80762a4d73cd89520f18fba1f2
lr-dualnum-derivation  exterior-ab    skip     1 -   a188827996ef566029d5d9c6cbc83d7206f046cf48435f9ac656d7a34e1e28b0
lr-dualnum-derivation  symmetric-xy-2 skip     1 -   a3a5e7d8690f8ee0e97f6a36f59cd0ea446c11aadde3d8e6b2ea2868dc4f01f0
lr-dualnum-derivation  tensor-ab-2    skip     1 -   4009240d54c88898bd32b619bbefc420cb743359df17c6da93267d55b3edf643
lr-dualnum-derivation  tensor-ab-3    skip     1 -   05617342086975d38e7bbbd2e8b148f534369d06e870ae6b50a7cb7017dbd570
lr-dualnum-derivation  tensor-x-3     skip     1 -   ca010fe97f397d19379339c69a003504a6724b3990e0f28a3e9e592c66c734f0
lr-dualnum-derivation  zero-ab        skip     1 -   46defa5cb1c654db6df129e5a5ae1ce0f082bc7323cbb00db421346341c1ba88
lr-derx3-leibniz       exterior-ab    plain    1 -   30f4fe1e54c8cebacdfc8d4ccc073fb9d42c77f815a1ee364fc5dcffa17b0541
lr-derx3-leibniz       symmetric-xy-2 plain    1 -   4ac8f9a8d3a9e40358aabb7a07cd40c67b3631e0de13e40e215b569a5a7e5879
lr-derx3-leibniz       tensor-ab-2    plain    1 -   a3bdfb4b3b522081126d3c0ef4ba23292ad215bb0de70438ef48fd5a8f865f92
lr-derx3-leibniz       tensor-ab-3    plain    1 -   6acbe85973818d2f9a77815e16ac89e609e47a57f866b27e4dd422296c542fac
lr-derx3-leibniz       tensor-x-3     plain    1 -   e9b0f6cc5bd7bd5c998dddb173c316b25772251ddca16d26ac27d4a100f84b0a
lr-derx3-leibniz       zero-ab        plain    1 -   b56e951f4c6b22b6804800017a0a8e0808a226951b1338b106e560ddee71ed88
lr-derx3-leibniz       exterior-ab    skip     1 -   ff5de8b3eca5dfd6145dc6884579812c332fcf0e2f440e1c308bde5878136983
lr-derx3-leibniz       symmetric-xy-2 skip     1 -   7fb1bd66fd975f6cd642f226f374265fa8be5cace15847c1b827eaef87e47b0b
lr-derx3-leibniz       tensor-ab-2    skip     1 -   fcb7a79a75c17ba4088865724fe9d6f34493b9c8fb7f81cba8fe378c38534449
lr-derx3-leibniz       tensor-ab-3    skip     1 -   e1fa0d39a1ce1c89cda1f43dbeb2fabdaf31fd24df28223406793c3f14ebf65a
lr-derx3-leibniz       tensor-x-3     skip     1 -   2beac5c0aab3a4addf66c647d32e128f2380afd0459979675ef97cf21d130097
lr-derx3-leibniz       zero-ab        skip     1 -   9640795b5092103f8fac5339fece18081d7df233610c4ecc3021b5d315836034
heis-adjoint-action    exterior-ab    plain    1 -   6c85d927c3f69cf12b0915dea00ade017cd29b7be73a3e6df588df0fb2107fbd
heis-adjoint-action    symmetric-xy-2 plain    1 -   f6ba177cc203effaf19507c18b798bff20cf9af9ba915ed68fccfffd2b531325
heis-adjoint-action    tensor-ab-2    plain    1 -   4942434bb54e0bdcbebea1df2bf3c8025cd6ca2bbd1e38861cbfba7a21db64b1
heis-adjoint-action    tensor-ab-3    plain    1 -   659360578a5649493a0ce9f6dd01f76c3017793db71dfa5f95f00e56d89812c0
heis-adjoint-action    tensor-x-3     plain    1 -   bc11e5324bc289545a62ae736aa1f4990308e43b1fcacad0ec1186922c89c968
heis-adjoint-action    zero-ab        plain    1 -   e7e9557fe2f43eccf7c7ada9fb69bbf162fa811034155b50bb125a8474cd597a
heis-adjoint-action    exterior-ab    skip     1 -   3a3b2418e9de7c74b0c89c39792c74eda3a3e48c422416789e68d3ac39de498f
heis-adjoint-action    symmetric-xy-2 skip     1 -   1234ac9f79ace93a73d806523bffa9c98b77411a81df85a9ce1d5890d33ec986
heis-adjoint-action    tensor-ab-2    skip     1 -   ea5fab1ef2235871090647da042562b16407faf13541348319957f8830046282
heis-adjoint-action    tensor-ab-3    skip     1 -   466ded001e3d5ee6f98b3ae86d666070e1707bba86ff027cb8af7e046f008a77
heis-adjoint-action    tensor-x-3     skip     1 -   b2d9d39df5a438c84db85132f27c6c50908eea808829f7faa52cf614e61b4cca
heis-adjoint-action    zero-ab        skip     1 -   7d0d4ea96634d02cb6e45d5062ee22d44afdf332c8ef368955bd14b156bc7b0d
poisson3-product       exterior-ab    plain    1 -   4175260d48eb15ecc6dd7c256b0bba4b73592aae185334bf7a4012b4b974943c
poisson3-product       symmetric-xy-2 plain    1 -   3f3a5b9c350cc6b4034edcaf0eb5bfa30ef9a80c21363fba6d2d3d7b31a08927
poisson3-product       tensor-ab-2    plain    1 -   caa0f0b43eab4162300e439190c38189ad06af609d3f303bc80e9a708808a825
poisson3-product       tensor-ab-3    plain    1 -   98cd212adf30abab83a45304379c82fde3aabc082d665ac5b70a32e70834ec2b
poisson3-product       tensor-x-3     plain    1 -   cd96138f55e2c9587271157b84cdff0f46c64929d13d60d7b467906c18c3fff8
poisson3-product       zero-ab        plain    1 -   e7d873e857f0b3a3015b7366ab8d3f3c37f6ea84ee9ef14c44a2681dfe418d7d
poisson3-product       exterior-ab    skip     1 -   6d17e0c977ad57ba3a692d25c5f5564f45044f262a94bd34f252734cdb61547f
poisson3-product       symmetric-xy-2 skip     1 -   3638346fc0a153b8a34bdef1e6a33b6dc65e42d80b4b5978e1940203c0666913
poisson3-product       tensor-ab-2    skip     1 -   2de98000db87a8d7b3459c7ce2dc51326e9570641d3ac7e29158b3c50c359f4c
poisson3-product       tensor-ab-3    skip     1 -   fd10c786695951d2e3da7d4a196e499a274c3287585143f0d5b9342e6100401a
poisson3-product       tensor-x-3     skip     1 -   919d482eb978544fba4682eccba63a541600054b745ba9ff497f74412f2fdf5f
poisson3-product       zero-ab        skip     1 -   6cf97c7538ef04f834ea8cbf4f474a9cf3b98a097695d0252b727a0e786d00da
lr-trivial             exterior-ab    guard100 0 -   b83bb60c705e8d3cdeeaa805ca1ccf2241f9977ee51a340593b7350b9e429ddf
lr-trivial             symmetric-xy-2 guard100 0 -   e1e57a9fe76319423169d8531e89108cf99cfb1cdbed029405869e8ed4180546
lr-trivial             tensor-ab-2    guard100 0 -   a4df623832ea1769c4bd3a1d775857b8b1d374e4826184bcae5d73a81aed6cb8
lr-trivial             tensor-ab-3    guard100 0 -   93ae0eb1be457b63da286d9d88712b18fe053066c57b0f93a0d7dfbd86acd0d0
lr-trivial             tensor-x-3     guard100 0 -   d21341c3bc11b989c72abe9ffbdb77f94a8e0a6b82115f80b1395ff31db8fc2d
lr-trivial             zero-ab        guard100 0 -   835b2f0868899f9cec08a97cb69c5309a2b41033d6275f7a64d8f4b701177940
lr-trivial             exterior-ab    deg2     0 -   454fa9cb0a2990c4aa289363ac63f8de3c44958771c1087a230d41db52eabe0d
lr-trivial             symmetric-xy-2 deg2     0 -   2d59d8990098ad9f51ba9d0263e28ed2caa2078e68cfb8040d1ac8b3744313fd
lr-trivial             tensor-ab-2    deg2     0 -   bb3673319fb7699e700f8a13109da1c469460a20046eac9879670a5881e47692
lr-trivial             tensor-ab-3    deg2     0 -   6bce63608b8b8cd7531d0f81826e8b0128d52567473cdd09cc394ac716976d8f
lr-trivial             tensor-x-3     deg2     0 -   6bd78a05f07869291b71828e5729e56cec400e2d685365396f83535f0e9401d4
lr-trivial             zero-ab        deg2     0 -   ca644bd37519b1eb8cb385c13f847900c5a4bbaf2a2ecab24fe8f7d5b42219c0
lr-dualnum             exterior-ab    guard100 0 -   93327bce72f07cb36829a2f27820c56110ff18f8abe0460324cba23e6a2df4cc
lr-dualnum             symmetric-xy-2 guard100 0 -   029c5fb271637e62be4a616756b2ba4cf39691da3eb534c5fcc65a12abcae81c
lr-dualnum             tensor-ab-2    guard100 0 -   0d016c3d13768add5c5e4ee35aac2852c2a3458a761df400205aed441f61941e
lr-dualnum             tensor-ab-3    guard100 0 -   c0ee6f99f9b538f6d166396512e5e072cf47a67ba7906d8d78e5e22042247282
lr-dualnum             tensor-x-3     guard100 0 -   1a2a810ae33d83dce6df6ad4880eb482cca79fd56f3faf3375b3365c240aefc3
lr-dualnum             zero-ab        guard100 0 -   d5da7ab1622d350cf5ee75e7c9dbff3b0ae1b0e7baee9fb309575e170a3686ce
lr-dualnum             exterior-ab    deg2     0 -   93327bce72f07cb36829a2f27820c56110ff18f8abe0460324cba23e6a2df4cc
lr-dualnum             symmetric-xy-2 deg2     0 -   029c5fb271637e62be4a616756b2ba4cf39691da3eb534c5fcc65a12abcae81c
lr-dualnum             tensor-ab-2    deg2     0 -   0d016c3d13768add5c5e4ee35aac2852c2a3458a761df400205aed441f61941e
lr-dualnum             tensor-ab-3    deg2     0 -   c0ee6f99f9b538f6d166396512e5e072cf47a67ba7906d8d78e5e22042247282
lr-dualnum             tensor-x-3     deg2     0 -   1a2a810ae33d83dce6df6ad4880eb482cca79fd56f3faf3375b3365c240aefc3
lr-dualnum             zero-ab        deg2     0 -   d5da7ab1622d350cf5ee75e7c9dbff3b0ae1b0e7baee9fb309575e170a3686ce
lr-derx3               exterior-ab    guard100 0 -   8bc712d502277162d9ecc024818b27ee90b8d48bdf8960b4e35d1407919675cf
lr-derx3               symmetric-xy-2 guard100 0 -   06ec7c825ad6b59b2b76ac5085e1f781a75cbf0e745a6caea84b157ed5624a7c
lr-derx3               tensor-ab-2    guard100 0 -   3f129c1b086cd365489c60348a1f34e0425aa588f67f6cb2351ea836528063df
lr-derx3               tensor-ab-3    guard100 0 -   5ec4a04ad77b310097e2f68ec2a9df291e77a3c8cf3ed6aba3e81108b6c673bd
lr-derx3               tensor-x-3     guard100 0 -   8581b18924661706de0da5abe096f4bf7313307b7f8d7c4d0a27e241454e8726
lr-derx3               zero-ab        guard100 0 -   d75470a8adf7538057ac10f1f420746437b135b5ce2c289db48083db4b73b6ad
lr-derx3               exterior-ab    deg2     0 -   2ce4bd75f37d306b990fdc563abd1feaa9480285d7c13a52c2bb2c6654eaeb53
lr-derx3               symmetric-xy-2 deg2     0 -   bfe91f09f204d7a9f877b154d8bd4f3215dd7b41826995c97abc01772f4d71df
lr-derx3               tensor-ab-2    deg2     0 -   3bb690cc2bca7afa94e8cfc31a7272705d51442042a00eb07ec55ce24e336f64
lr-derx3               tensor-ab-3    deg2     0 -   5ec4a04ad77b310097e2f68ec2a9df291e77a3c8cf3ed6aba3e81108b6c673bd
lr-derx3               tensor-x-3     deg2     0 -   8581b18924661706de0da5abe096f4bf7313307b7f8d7c4d0a27e241454e8726
lr-derx3               zero-ab        deg2     0 -   8ee93ed0d82e307f76d87a470e4abddee40538a19025c79927b54db231ea732f
lr-dualnum-derivation  exterior-ab    guard100 1 -   a188827996ef566029d5d9c6cbc83d7206f046cf48435f9ac656d7a34e1e28b0
lr-dualnum-derivation  symmetric-xy-2 guard100 1 -   a3a5e7d8690f8ee0e97f6a36f59cd0ea446c11aadde3d8e6b2ea2868dc4f01f0
lr-dualnum-derivation  tensor-ab-2    guard100 1 -   4009240d54c88898bd32b619bbefc420cb743359df17c6da93267d55b3edf643
lr-dualnum-derivation  tensor-ab-3    guard100 1 -   05617342086975d38e7bbbd2e8b148f534369d06e870ae6b50a7cb7017dbd570
lr-dualnum-derivation  tensor-x-3     guard100 1 -   ca010fe97f397d19379339c69a003504a6724b3990e0f28a3e9e592c66c734f0
lr-dualnum-derivation  zero-ab        guard100 1 -   46defa5cb1c654db6df129e5a5ae1ce0f082bc7323cbb00db421346341c1ba88
lr-dualnum-derivation  exterior-ab    deg2     1 -   a188827996ef566029d5d9c6cbc83d7206f046cf48435f9ac656d7a34e1e28b0
lr-dualnum-derivation  symmetric-xy-2 deg2     1 -   a3a5e7d8690f8ee0e97f6a36f59cd0ea446c11aadde3d8e6b2ea2868dc4f01f0
lr-dualnum-derivation  tensor-ab-2    deg2     1 -   4009240d54c88898bd32b619bbefc420cb743359df17c6da93267d55b3edf643
lr-dualnum-derivation  tensor-ab-3    deg2     1 -   05617342086975d38e7bbbd2e8b148f534369d06e870ae6b50a7cb7017dbd570
lr-dualnum-derivation  tensor-x-3     deg2     1 -   ca010fe97f397d19379339c69a003504a6724b3990e0f28a3e9e592c66c734f0
lr-dualnum-derivation  zero-ab        deg2     1 -   46defa5cb1c654db6df129e5a5ae1ce0f082bc7323cbb00db421346341c1ba88
lr-derx3-leibniz       exterior-ab    guard100 1 -   ff5de8b3eca5dfd6145dc6884579812c332fcf0e2f440e1c308bde5878136983
lr-derx3-leibniz       symmetric-xy-2 guard100 1 -   7fb1bd66fd975f6cd642f226f374265fa8be5cace15847c1b827eaef87e47b0b
lr-derx3-leibniz       tensor-ab-2    guard100 1 -   fcb7a79a75c17ba4088865724fe9d6f34493b9c8fb7f81cba8fe378c38534449
lr-derx3-leibniz       tensor-ab-3    guard100 1 -   e1fa0d39a1ce1c89cda1f43dbeb2fabdaf31fd24df28223406793c3f14ebf65a
lr-derx3-leibniz       tensor-x-3     guard100 1 -   2beac5c0aab3a4addf66c647d32e128f2380afd0459979675ef97cf21d130097
lr-derx3-leibniz       zero-ab        guard100 1 -   9640795b5092103f8fac5339fece18081d7df233610c4ecc3021b5d315836034
lr-derx3-leibniz       exterior-ab    deg2     1 -   0ff7027ac652529af146c591686808d8bea01fec69886e420063bd4e558a7d6d
lr-derx3-leibniz       symmetric-xy-2 deg2     1 -   edb33885d631ebfb90c512785fc912386210998326b0486cd4cf314b78bc8926
lr-derx3-leibniz       tensor-ab-2    deg2     1 -   38b3504e19e8284b83b3a0df278c23ac76a15851da1e2cc1e33a7b6e3a81d1c2
lr-derx3-leibniz       tensor-ab-3    deg2     1 -   e1fa0d39a1ce1c89cda1f43dbeb2fabdaf31fd24df28223406793c3f14ebf65a
lr-derx3-leibniz       tensor-x-3     deg2     1 -   2beac5c0aab3a4addf66c647d32e128f2380afd0459979675ef97cf21d130097
lr-derx3-leibniz       zero-ab        deg2     1 -   a571494380768eb4be32af41308fb65d99562cb1654904e921da30ecd6e5bcbd
"""

VERIFY_ERRORS = {"-": None}


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("verify-table")
    write_verify_inputs(d)
    return d


@pytest.mark.parametrize("row", VERIFY_TABLE.split("\n")[1:-1],
                         ids=lambda row: "-".join(row.split()[:3]))
def test_verify_table_is_pinned(row, verify_dir, monkeypatch, capsys):
    name, cname, options, code, error, digest = row.split()
    monkeypatch.chdir(verify_dir)
    got_code, out, err = run(verify_argv(name, cname, options), capsys)
    assert got_code == int(code)
    errors = [line for line in err.splitlines()
              if not line.startswith("elapsed ")]
    assert errors == ([] if VERIFY_ERRORS[error] is None
                      else [VERIFY_ERRORS[error]])
    if digest == "-":
        assert out == ""
    else:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

def matrix_unit_lie(name, units):
    """The span of the matrix units E_ij, (i, j) in units, under the
    commutator; the units must be closed under the nonzero brackets."""
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
    L = BasedSpace("L", ["E%d%d" % (i + 1, j + 1) for i, j in units])
    return LieAlgebra(L, MultilinearMap([L, L], L, table), name=name)


TWISTED_VERIFY_ARGV = [
    "verify", "gl3.json", "n5.json", "gl3-adjoint.json", "lr-derx3.json",
    "lr-dualnum.json", "poisson3.json", "T4ab.json", "--subcomplex-maxdeg",
    "2", "--guard-limit", str(10 ** 12), "--json"]


def write_twisted_verify_inputs(directory):
    """The files TWISTED_VERIFY_ARGV names: gl3, n5, gl3's adjoint module
    and T4(ab) built here, the rest shipped fixtures."""
    gl3 = matrix_unit_lie("gl3", [(i, j) for i in range(3) for j in range(3)])
    structures = {
        "gl3": gl3,
        "n5": matrix_unit_lie("n5", [(i, j) for i in range(5)
                                     for j in range(i + 1, 5)]),
        "gl3-adjoint": LieModule(gl3, gl3.space, gl3.bracket,
                                 name="gl3-adjoint"),
        "T4ab": build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 4),
    }
    for name, obj in structures.items():
        (directory / (name + ".json")).write_text(
            serialize_structure(obj, name), encoding="utf-8")
    for name in ("lr-derx3", "lr-dualnum", "poisson3"):
        (directory / (name + ".json")).write_text(
            corpus.fixture_text(name), encoding="utf-8")


@pytest.fixture
def materialized(monkeypatch):
    """Every part of every InducedOperator.materialize call, as
    (base map, twist)."""
    calls = []
    original = InducedOperator.materialize

    def recording(self):
        calls.extend((psi, rho) for rho, psi in self.parts.items())
        return original(self)

    monkeypatch.setattr(InducedOperator, "materialize", recording)
    return calls


class TestFactoredChecks:
    """Twisted identities are decided without laying operators out; only a
    failing identity is materialized, to name its witness."""

    def test_passing_verify_materializes_nothing(self, tmp_path, monkeypatch,
                                                 materialized, capsys):
        write_twisted_verify_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(TWISTED_VERIFY_ARGV, capsys)
        assert code == 0
        counts = json.loads(out)["counts"]
        assert counts == {"pass": 16, "fail": 0, "skipped": 0, "guarded": 0}
        assert materialized == []

    def test_failing_pair_materializes_only_its_identity(
            self, tmp_path, monkeypatch, materialized, capsys):
        # D(1) = x breaks the derivation rule and no other pair identity;
        # td-derivation fails in td-lie-rinehart, td-subcomplex's
        # precondition reuses that result, and only its two sides are laid
        # out, once
        doc = json.loads(corpus.fixture_text("lr-dualnum"))
        for m in doc["maps"]:
            if m["name"] == "action":
                m["entries"].append([[0, 0], 1, "1"])
        (tmp_path / "pair.json").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "C.json").write_text(serialize_structure(
            corpus.get_coalgebra("tensor-x-3")), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["verify", "pair.json", "C.json",
                            "--unsafe-skip-axioms", "--json"], capsys)
        assert code == 1
        twisted_entries = [e for e in json.loads(out)["entries"]
                           if e["coalgebra"] is not None]
        assert [(e["check"], e["status"]) for e in twisted_entries] == [
            ("td-lie-rinehart", "fail"), ("td-subcomplex", "fail")]
        assert twisted_entries[0]["detail"] == "td-derivation"
        pair = load_path("pair.json", unsafe_skip_axioms=True)
        lhs = pair.action.compose_at(pair.product, 1)
        rhs = pair.product.compose_at(pair.action, 0).add(
            pair.product.compose_at(pair.action, 1).precompose_perm(
                Permutation((1, 0, 2))))
        assert materialized == [(lhs, Permutation.identity(3)),
                                (rhs, Permutation.identity(3))]

    def test_sweep_reduces_no_operator(self, tmp_path, monkeypatch, capsys):
        # td-lie-rinehart decides by reducing operators; the td-subcomplex
        # sweep after it reads classical maps only, so reducing raises
        # while it runs
        def forbidden(*args, **kwargs):
            raise RuntimeError("operator reduced by the sweep")

        sweep = cli.check_subcomplex

        def guarded_sweep(*args, **kwargs):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(InducedOperator, "reduced", forbidden)
                return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "check_subcomplex", guarded_sweep)
        (tmp_path / "T4ab.json").write_text(serialize_structure(
            build_tensor_coalgebra(BasedSpace("V", ("a", "b")), 4), "T4ab"),
            encoding="utf-8")
        for name in ("lr-derx3", "lr-dualnum"):
            (tmp_path / (name + ".json")).write_text(
                corpus.fixture_text(name), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["verify", "lr-derx3.json", "lr-dualnum.json",
                            "T4ab.json", "--subcomplex-maxdeg", "2",
                            "--guard-limit", str(10 ** 12), "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"pass": 7, "fail": 0, "skipped": 0,
                                    "guarded": 0}
        assert [e["detail"] for e in report["entries"]
                if e["check"] == "td-subcomplex"] \
            == ["5 images checked", "3 images checked"]


class TestKeptAxiomResults:
    """Loading decides each structure's classical axioms; the verify
    entries and the twisted checkers' preconditions reuse that result, and
    td-subcomplex reuses the td-lie-rinehart result."""

    def test_verify_decides_each_classical_checker_once(
            self, tmp_path, monkeypatch, capsys):
        decided = []
        for checker in (cli.check_lie, cli.check_module, cli.check_poisson,
                        cli.check_coassociativity, cli.check_lr,
                        cli.check_td_lr):
            def counting(structure, name=checker.__name__,
                         decide=checker.__wrapped__):
                decided.append((name, structure))
                return decide(structure)
            monkeypatch.setattr(checker, "__wrapped__", counting)
        write_twisted_verify_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(TWISTED_VERIFY_ARGV, capsys)
        assert code == 0
        assert json.loads(out)["counts"]["pass"] == 16
        # decided keeps every structure alive, so no id is reused
        per_structure = Counter((name, id(obj)) for name, obj in decided)
        assert max(per_structure.values()) == 1
        assert set(name for name, _ in decided) == {
            "check_lie", "check_module", "check_poisson",
            "check_coassociativity", "check_lr", "check_td_lr"}


class TestRendering:
    def test_verify_rendering_is_function_of_report(self, exported, capsys):
        _, out, _ = run(["verify", exported["sl2"], "--suite", "td-lie",
                         "--json"], capsys)
        report = json.loads(out)
        again = json.loads(json.dumps(report))
        assert render_verify(report) == render_verify(again)
        assert "suite td-lie" in render_verify(report)

    def test_cohomology_rendering_is_function_of_report(self, capsys):
        _, out, _ = run(["cohomology", "--module", "heis-adjoint", "--json"],
                        capsys)
        report = json.loads(out)
        assert render_cohomology(json.loads(json.dumps(report))) \
            == render_cohomology(report)

    def test_failure_rendering_carries_witness(self, exported, capsys):
        _, out, _ = run(["verify", exported["broken-jacobi"],
                         "--suite", "lie", "--json"], capsys)
        text = render_verify(json.loads(out))
        assert "residual" in text
        assert "fail" in text


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "tdhom.cli", "examples", "list"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sl2" in proc.stdout


class TestClassicalRoute:
    """The classical report is ranked on the weight-0 block when the module
    has a torus and its axioms were checked, and by ce_complex otherwise;
    the bytes and exit codes are the same either way."""

    @pytest.fixture
    def ce_calls(self, monkeypatch):
        calls = []
        whole = cohomology.ce_complex

        def counted(M, maxdeg):
            calls.append(maxdeg)
            return whole(M, maxdeg)

        monkeypatch.setattr(cohomology, "ce_complex", counted)
        return calls

    @pytest.mark.parametrize("mname", sorted(corpus.MODULE_NAMES))
    def test_json_bytes_match_the_whole_complex(self, mname, monkeypatch,
                                                ce_calls, capsys):
        dim = corpus.load(mname).base.space.dim
        argvs = [["cohomology", "--module", mname, "--maxdeg", str(d), "--json"]
                 for d in range(dim + 1)]
        routed = [run(argv, capsys)[:2] for argv in argvs]
        # sl2's h is the corpus's only torus element
        assert (ce_calls == []) == mname.startswith("sl2")
        monkeypatch.setattr(cohomology, "torus", lambda M: [])
        assert [run(argv, capsys)[:2] for argv in argvs] == routed
        assert all(code == 0 for code, _ in routed)

    @pytest.mark.parametrize("family,n,seed", [
        ("gl", 3, None), ("gl", 3, 7), ("gl", 4, 3), ("b", 4, 5), ("b", 5, 2)])
    def test_json_bytes_on_rebased_adjoints(self, family, n, seed, tmp_path,
                                            monkeypatch, ce_calls, capsys):
        M = (gl_adjoint if family == "gl" else b_adjoint)(n)
        if seed is not None:
            M = rebased_adjoint(M, seed)
        path = tmp_path / "module.json"
        path.write_text(serialize_structure(M, "m"), encoding="utf-8")
        argv = ["cohomology", str(path), "--maxdeg", "2", "--json"]
        routed = run(argv, capsys)[:2]
        assert ce_calls == [] and routed[0] == 0
        monkeypatch.setattr(cohomology, "torus", lambda M: [])
        assert run(argv, capsys)[:2] == routed
        assert ce_calls == [2]

    # cohomology --json --maxdeg 4 on a module written with
    # serialize_structure(M, "m"): module, SHA-256 of stdout.  Recorded at
    # 0ef19f1, before the differentials were assembled as transposes; n5
    # has no torus, so it pins the ce_complex route, and the others the
    # weight-0 block (rebased b4 with N = 10).
    CLASSICAL_PINS = {
        "gl4-adjoint":
            "055d42ac38ca4c190437ee1aad381f0abc277fe65e5183a6845baa86d0574b96",
        "b4-adjoint-rebased-5":
            "1b217c6fb01942f0e359934ccf1267b349b903e9918c63cf99f5bf7967e3a1fc",
        "n5-adjoint":
            "4ab82237e0e59771937c85b3aeed36e3c29185559064a3da4e7a36691e7c47e3",
    }

    @pytest.mark.parametrize("mname", sorted(CLASSICAL_PINS))
    def test_json_bytes_are_pinned(self, mname, tmp_path, ce_calls, capsys):
        M = {"gl4-adjoint": lambda: gl_adjoint(4),
             "b4-adjoint-rebased-5": lambda: rebased_adjoint(b_adjoint(4), 5),
             "n5-adjoint": lambda: matrix_unit_adjoint(
                 "n5", upper_units(5, strict=True))}[mname]()
        path = tmp_path / "module.json"
        path.write_text(serialize_structure(M, "m"), encoding="utf-8")
        code, out, _ = run(["cohomology", str(path), "--maxdeg", "4",
                            "--json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
            == self.CLASSICAL_PINS[mname]
        assert ce_calls == ([4] if mname == "n5-adjoint" else [])

    def test_unsafe_route_is_the_whole_complex(self, exported, ce_calls,
                                               capsys):
        argv = ["cohomology", exported["sl2-adjoint"], "--json"]
        checked = run(argv, capsys)
        assert ce_calls == []
        assert run(argv + ["--unsafe-skip-axioms"], capsys)[:2] == checked[:2]
        assert ce_calls == [3]

    def test_jacobi_breaking_variant_keeping_h_diagonal(self, tmp_path,
                                                        ce_calls, capsys):
        # [f, h] = 3f instead of 2f: h stays diagonal, Jacobi fails at
        # (e, f, h), and the unsafe route certifies d squared on the
        # whole complex
        doc = json.loads(corpus.fixture_text("sl2-adjoint"))
        for m in doc["maps"]:
            m["entries"] = [[args, out, {"[1, 2]": "3", "[2, 1]": "-3"}.get(
                str(args), q)] for args, out, q in m["entries"]]
        path = tmp_path / "sl2-broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for maxdeg in range(4):
            argv = ["cohomology", str(path), "--maxdeg", str(maxdeg), "--json"]
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err == ("error: Lie axioms fail: lie: FAIL (jacobi) at "
                           "('e', 'f', 'h') residual {h: 1}\n")
            code, out, err = run(argv + ["--unsafe-skip-axioms"], capsys)
            if maxdeg == 0:
                assert code == 0
                assert json.loads(out)["differential_ranks"] == [3]
            else:
                assert (code, out) == (2, "")
                assert err == ("error: consecutive differentials do not "
                               "compose to zero\n")
        assert ce_calls == [0, 1, 2, 3]
