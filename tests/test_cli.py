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
def test_td_table_is_pinned(row, tmp_path, monkeypatch, capsys):
    mname, cname, maxdeg, code, error, digest = row.split()
    monkeypatch.delenv("TDHOM_GUARD_LIMIT", raising=False)
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
