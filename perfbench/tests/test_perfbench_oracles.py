"""Expected reports against independent oracles, and the failure count."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tdbench import inputs, runner, summary  # noqa: E402
from tdbench.workloads import WORKLOADS  # noqa: E402


def _expected(name):
    return json.loads(WORKLOADS[name].expected_body())


def test_expected_reports_hold_the_known_answers():
    gl3 = _expected("classical-gl3")
    assert gl3["cochain_dims"] == [9, 81, 324, 756]
    assert gl3["differential_ranks"] == [8, 72, 252]
    assert gl3["cohomology_dims"] == [1, 1, 0]
    heis = _expected("td-heis-t4")
    assert heis["cohomology_dims"] == [1, 4, 5]
    assert heis["direct_vs_induced"] == "agree"
    verify = _expected("twisted-verify")
    assert verify["status"] == "pass"
    assert verify["counts"] == {"pass": 16, "fail": 0, "skipped": 0,
                                "guarded": 0}


def _ce_matrices(doc, maxdeg):
    """Classical Chevalley-Eilenberg differentials d_0..d_maxdeg of a
    module file, assembled from its raw structure constants with no tdhom
    code, as {row: {col: Fraction}} dicts with their shapes."""
    maps = {m["name"]: m["entries"] for m in doc["maps"]}
    dims = {s["name"]: len(s["labels"]) for s in doc["spaces"]}
    action_map = next(m for m in doc["maps"] if m["name"] == "action")
    n, nb = dims[action_map["domain"][0]], dims[action_map["codomain"]]
    bracket, action = {}, {}
    for table, raw in ((bracket, maps["bracket"]), (action, maps["action"])):
        for (x, y), out, q in raw:
            table.setdefault((x, y), []).append((out, Fraction(q)))
    out = []
    for k in range(maxdeg + 1):
        cols = {S: i for i, S in enumerate(combinations(range(n), k))}
        rows = list(combinations(range(n), k + 1))
        d = {}

        def add(row, col, q):
            entry = d.setdefault(row, {})
            entry[col] = entry.get(col, 0) + q

        for r, T in enumerate(rows):
            for i in range(k + 1):
                rest = T[:i] + T[i + 1:]
                for b in range(nb):
                    for o, q in action.get((T[i], b), ()):
                        add(r * nb + o, cols[rest] * nb + b, (-1) ** i * q)
            for i, j in combinations(range(k + 1), 2):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                for a, c in bracket.get((T[i], T[j]), ()):
                    if a in rest:
                        continue
                    S = tuple(sorted(rest + (a,)))
                    sign = (-1) ** (i + j + S.index(a))
                    for b in range(nb):
                        add(r * nb + b, cols[S] * nb + b, sign * c)
        out.append((d, (len(rows) * nb, len(cols) * nb)))
    return out


def test_classical_gl3_ranks_agree_with_sympy(tmp_path):
    sympy_matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ

    inputs.write_inputs(["gl3-adjoint.json"], 3, tmp_path)
    doc = json.loads((tmp_path / "gl3-adjoint.json").read_text())
    ranks, dims = [], []
    for d, shape in _ce_matrices(doc, 2):
        entries = {r: {c: QQ(q.numerator, q.denominator)
                       for c, q in row.items() if q}
                   for r, row in d.items()}
        m = sympy_matrices.DomainMatrix(entries, shape, QQ)
        ranks.append(m.rank())
        dims.append(shape[1])
    expected = _expected("classical-gl3")
    assert ranks == expected["differential_ranks"]
    h = [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(3)]
    assert h == expected["cohomology_dims"]


def test_td_heis_cohomology_matches_the_classical_complex(tmp_path,
                                                          monkeypatch):
    """Over T4(ab) the iterated coproduct is nonzero through four legs, so
    up to degree 2 the Hom-space complex has the classical cohomology; the
    classical route shares no code with the Hom-space quotient machinery."""
    inputs.write_inputs(["heis-adjoint.json"], 6, tmp_path)
    monkeypatch.chdir(tmp_path)
    job = runner.run_job(["cohomology", "heis-adjoint.json", "--maxdeg", "2",
                          "--json"], "")
    classical = json.loads(job.body)
    assert classical["td"] is False
    assert classical["cohomology_dims"] == \
        _expected("td-heis-t4")["cohomology_dims"]


def test_a_corrupted_expected_body_counts_as_failed(tmp_path, monkeypatch):
    inputs.write_inputs(["heis-adjoint.json"], 2, tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["cohomology", "heis-adjoint.json", "--maxdeg", "2", "--json"]
    good = runner.run_job(argv, "").body
    corrupted = good.replace('"pass"', '"fail"')
    assert corrupted != good
    jobs, calibrations = runner.closed_loop(argv, corrupted, 0.05)
    assert len(calibrations) == len(jobs) + 1
    assert summary.fail_frac(jobs) == 1.0
    assert all("differs from the expected" in job.failure for job in jobs)
    jobs, _ = runner.closed_loop(argv, good, 0.05)
    assert summary.fail_frac(jobs) == 0.0


def test_jobs_with_a_nonzero_exit_fail(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    missing = runner.run_job(["cohomology", "absent.json", "--json"], "")
    assert missing.failure.startswith("exit code 2")
    bad_flag = runner.run_job(["cohomology", "--no-such-flag"], "")
    assert bad_flag.failure.startswith("exit code 2")


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(BENCH.name) / "run.py"), "--workload",
         "td-heis-t4", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
