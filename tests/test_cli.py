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

import pytest

from tdhom import corpus
from tdhom.cli import main, render_cohomology, render_verify
from tdhom.files import parse_structure, serialize_structure


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
        code, out, _ = run(["verify", exported["lr-derx3"],
                            exported["tensor-ab-3"],
                            "--suite", "lie-rinehart", "--json"], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "guarded"
        guarded = [e for e in report["entries"] if e["status"] == "guarded"]
        assert [e["check"] for e in guarded] == ["td-subcomplex"]
        assert "TDHOM_GUARD_LIMIT" in guarded[0]["detail"]

    def test_guard_limit_flag_clears_refusal(self, exported, capsys):
        code, out, _ = run(["verify", exported["lr-derx3"],
                            exported["tensor-ab-3"],
                            "--suite", "lie-rinehart",
                            "--guard-limit", "50000", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counts"]["guarded"] == 0
        assert report["counts"]["fail"] == 0

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

    def test_guard_refusal_and_env_override(self, monkeypatch, capsys):
        argv = ["cohomology", "--module", "sl2-trivial",
                "--coalgebra", "tensor-ab-3", "--td"]
        code, _, err = run(argv, capsys)
        assert code == 3
        assert "--guard-limit" in err
        monkeypatch.setenv("TDHOM_GUARD_LIMIT", "100000")
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        assert json.loads(out)["cohomology_dims"] == [1, 0, 0]


# cohomology --td --json at the default maxdeg and guard: exit code and
# SHA-256 of stdout, recorded before direct_vs_induced moved into
# TDComplexData; a guard refusal (exit 3) prints no report
TD_REPORTS = {
    ("sl2-adjoint", "exterior-ab"):
        (0, "9b7026685a855af4744c36171757b99b9adafe798a70f72190a77f7e07c2e9fc"),
    ("sl2-adjoint", "symmetric-xy-2"):
        (0, "dd8ee37eed037795514bcc5bdf7119b96b4d66323a3ee5646d7b6bf4cef55771"),
    ("sl2-adjoint", "tensor-ab-2"):
        (0, "36280b800cf08c9afc0d7fb1ba23c61e732a54984e393fa1c712e61f41e1b07f"),
    ("sl2-adjoint", "tensor-ab-3"): (3, None),
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
    ("sl2-trivial", "tensor-ab-3"): (3, None),
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
    ("heis-adjoint", "tensor-ab-3"): (3, None),
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
    ("abelian2-trivial", "tensor-ab-3"): (3, None),
    ("abelian2-trivial", "tensor-x-3"):
        (0, "e2397e5196c0cb937842e569ab37ddc3ce966d2892ee1a3ce900ef08113b3599"),
    ("abelian2-trivial", "zero-ab"):
        (0, "a60138beaf5c1b9e8ca9264a0426e27f69e53a65ea2eb29ccbf5d124972ed90f"),
}


@pytest.mark.parametrize("mname,cname", sorted(TD_REPORTS))
def test_td_report_is_pinned(mname, cname, monkeypatch, capsys):
    monkeypatch.delenv("TDHOM_GUARD_LIMIT", raising=False)
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
