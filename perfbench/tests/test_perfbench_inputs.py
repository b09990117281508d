"""The seeded input generator."""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tdbench import inputs, runner  # noqa: E402
from tdbench.workloads import GUARD_LIMIT, WORKLOADS  # noqa: E402

from tdhom import corpus  # noqa: E402
from tdhom.files import load_path, parse_structure, serialize_structure  # noqa: E402

ALL_FILES = sorted(inputs.documents())


def _write(seed, directory):
    directory.mkdir()
    inputs.write_inputs(ALL_FILES, seed, directory)
    return {name: (directory / name).read_text() for name in ALL_FILES}


def _entry_counts(text):
    doc = json.loads(text)
    maps = [len(m["entries"]) for m in doc.get("maps", [])]
    return maps, len(doc.get("coproduct", {}).get("entries", []))


def test_every_workload_file_is_generated():
    assert WORKLOADS["td-heis-t4"].files == ("heis-adjoint.json", "T4ab.json")
    for workload in WORKLOADS.values():
        assert set(workload.files) <= set(ALL_FILES)


def test_same_seed_gives_the_same_bytes(tmp_path):
    assert _write(7, tmp_path / "a") == _write(7, tmp_path / "b")


def test_seed_zero_is_the_identity(tmp_path):
    files = _write(0, tmp_path / "s0")
    for name in ("heis-adjoint", "lr-derx3", "lr-dualnum", "poisson3"):
        shipped = serialize_structure(
            parse_structure(corpus.fixture_text(name)))
        assert files[name + ".json"] == shipped
    gl3 = load_path(str(tmp_path / "s0" / "gl3.json"))
    assert gl3.space.labels[:3] == ("E11", "E12", "E13")
    assert set(gl3.bracket.entries.values()) == {Fraction(1), Fraction(-1)}


def test_other_seeds_change_the_basis_but_not_the_sparsity(tmp_path):
    base = _write(0, tmp_path / "s0")
    for seed in (1, 2):
        moved = _write(seed, tmp_path / ("s%d" % seed))
        for name in ALL_FILES:
            assert _entry_counts(moved[name]) == _entry_counts(base[name])
        for name in ("gl3-adjoint.json", "n5.json", "T4ab.json"):
            assert moved[name] != base[name]
    coeffs = {Fraction(q) for _, _, q in
              json.loads(moved["gl3.json"])["maps"][0]["entries"]}
    assert any(q.denominator != 1 for q in coeffs)


def test_change_of_basis_keeps_the_report(tmp_path, monkeypatch):
    argv = ["verify", "lr-derx3.json", "poisson3.json", "T4ab.json",
            "--guard-limit", str(GUARD_LIMIT), "--json"]
    bodies = set()
    for seed in (0, 3, 4):
        directory = tmp_path / ("s%d" % seed)
        directory.mkdir()
        inputs.write_inputs(["lr-derx3.json", "poisson3.json", "T4ab.json"],
                            seed, directory)
        monkeypatch.chdir(directory)
        job = runner.run_job(argv, "")
        assert json.loads(job.body)["status"] == "pass"
        bodies.add(job.body)
    assert len(bodies) == 1
