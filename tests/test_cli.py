"""Command line behaviors: exit codes, report shapes, determinism.

The exit contract under test: 0 all pass, 1 check failure, 2 unusable
input, 3 guard refusal.  Machine reports must be byte-identical across
runs on identical inputs, and the human rendering must be a function of
the machine body alone.
"""

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
