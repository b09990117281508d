"""Benchmark the tdhom command line on one workload.

    python3 perfbench/run.py --workload classical-gl3 --seed 0 --seconds 25 --trace 0

Run from the root of a tdhom source tree.  The inputs are generated from the
seed into a scratch directory under perfbench/, then jobs run back to back
in this process for --seconds, each checked against the expected report.
The last line of standard output is one JSON object; with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-module metrics of one extra
traced job.  The line before it records the environment and the details
behind each figure.
"""

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from tdbench import summary, tracing
from tdbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(job_s, setup_s):
    tail_s, _ = summary.tail(job_s)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "job_s.p50": metric(statistics.median(job_s), "s"),
        "job_s.tail": metric(tail_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }


def per_layer(tracer, traced_wall_s, overhead_frac, calib_s):
    out = {}
    for layer in tracing.LAYERS:
        out[layer + ".self_s"] = metric(tracer.self_s[layer], "s")
        out[layer + ".calls"] = metric(tracer.calls[layer], "count")
    for name in tracing.COUNTERS:
        out[name] = metric(tracer.counters[name], "count")
    out["linalg.distinct_frac"] = metric(tracer.distinct_frac(), "ratio")
    out["trace.overhead_frac"] = metric(overhead_frac, "ratio")
    out["trace.coverage"] = metric(
        sum(tracer.self_s.values()) / traced_wall_s, "ratio")
    out["env.calib_s"] = metric(calib_s, "s")
    return out


def main(argv=None):
    if not (SRC / "tdhom" / "cli.py").is_file():
        print("error: no tdhom sources at %s; run from a tdhom source tree"
              % SRC, file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    # both import tdhom, which is importable only from here on
    from tdbench import inputs, runner
    workload = WORKLOADS[args.workload]
    expected = workload.expected_body()
    os.environ.pop("TDHOM_GUARD_LIMIT", None)

    import_s, import_calib = runner.import_seconds(SRC)
    setup_s = statistics.median(runner.at_reference_speed(import_s,
                                                          import_calib))
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (workload.name, args.seed),
                               dir=scratch)
    home = os.getcwd()
    try:
        inputs.write_inputs(workload.files, args.seed, workdir)
        os.chdir(workdir)
        jobs, calibrations = runner.closed_loop(workload.argv, expected,
                                                args.seconds)
        wall_s = [job.seconds for job in jobs]
        job_s = runner.at_reference_speed(wall_s, calibrations)
        results = end_to_end(job_s, setup_s)
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                traced_job = runner.run_job(workload.argv, expected)
            traced_s, = runner.at_reference_speed(
                [traced_job.seconds], [calibrations[-1], runner.calibrate()])
            if not traced_job.failure and traced_job.body != jobs[0].body:
                traced_job = dataclasses.replace(
                    traced_job,
                    failure="the traced body differs from the untraced one")
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    checked = jobs + [traced_job] if args.trace else jobs
    failures = [job.failure for job in checked if job.failure]
    calib_s = statistics.median(calibrations)
    if args.trace:
        results = per_layer(tracer, traced_job.seconds,
                            traced_s / statistics.median(job_s) - 1, calib_s)
    for failure in failures[:3]:
        print("job failed: " + failure, file=sys.stderr)

    _, tail_pct = summary.tail(job_s)
    print(json.dumps({"run": {
        "workload": workload.name, "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "env.calib_s": calib_s, "jobs": len(jobs),
        "fail_frac": summary.fail_frac(checked),
        "job_s.tail_percentile": tail_pct,
        "job_s": job_s, "job_wall_s": wall_s,
        "setup_wall_s": statistics.median(import_s),
    }}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": results,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
