"""Closed-loop job runner: one client, one in-process CLI call at a time."""

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from tdhom import cli, corpus

SETUP_SAMPLES = 9

# Times are reported in seconds at a reference machine speed: the speed at
# which the calibration kernel takes CALIB_REF_S.  On the 2-vCPU host this
# benchmark was tuned on, wall times swung by up to 60% within minutes and
# followed the kernel; scaling halved the run-to-run spread (see README).
CALIB_REF_S = 0.1
CALIB_TERMS = 8000
_rng = random.Random(0)
CALIB_MATRIX = tuple(tuple(_rng.randint(-3, 3) for _ in range(80))
                     for _ in range(80))


@dataclass(frozen=True)
class Job:
    seconds: float
    body: str
    failure: str  # empty when the job passed


def calibrate():
    """Seconds for a fixed stdlib kernel shaped like tdhom's own work: a sum
    of Fractions and a fraction-free elimination of an integer matrix."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, CALIB_TERMS + 1):
        total += Fraction(1, k)
    rows = [list(row) for row in CALIB_MATRIX]
    n = len(rows)
    prev, r = 1, 0
    for c in range(n):
        pr = next((i for i in range(r, n) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for row in rows[r + 1:]:
            f = row[c]
            row[:] = [(x * piv - f * y) // prev for x, y in zip(row, rows[r])]
        prev, r = piv, r + 1
    return time.perf_counter() - start


def at_reference_speed(times, calibrations):
    """Each time scaled to the reference speed by the calibration readings
    taken just before and just after it; there is one reading more than
    there are times."""
    if len(calibrations) != len(times) + 1:
        raise ValueError("need a calibration before and after every time")
    return [t * 2 * CALIB_REF_S / (before + after)
            for t, before, after in zip(times, calibrations, calibrations[1:])]


# Timed inside the child: interpreter start-up, which tdhom does not
# control, stays out of the figure and out of its noise.
IMPORT_PROBE = ("import time; start = time.perf_counter(); import tdhom.cli; "
                "print(time.perf_counter() - start)")


def import_seconds(src):
    """(times, calibrations): how long SETUP_SAMPLES fresh interpreters
    take to import tdhom.cli, a cost every CLI call pays, with the
    calibration readings around them."""
    env = dict(os.environ, PYTHONPATH=str(src))

    def probe():
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               check=True, timeout=120, capture_output=True,
                               stdin=subprocess.DEVNULL, text=True)
        return float(child.stdout)

    probe()  # unmeasured: fills the bytecode cache
    times, calibrations = [], [calibrate()]
    for _ in range(SETUP_SAMPLES):
        times.append(probe())
        calibrations.append(calibrate())
    return times, calibrations


def run_job(argv, expected):
    """One CLI call.  It fails on an exit code other than 0 (a guard
    refusal is 3), on an exception, or on a body other than expected."""
    # the inputs are files parsed afresh by every call; no corpus structure
    # or coproduct expansion built by an earlier job is reused
    corpus._cache.clear()
    out, err = io.StringIO(), io.StringIO()
    failure = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = None
        failure = traceback.format_exc()
    seconds = time.perf_counter() - start
    body = out.getvalue()
    if not failure:
        if code != 0:
            failure = "exit code %r: %s" % (code, err.getvalue().strip())
        elif body != expected:
            failure = "the --json body differs from the expected report"
    return Job(seconds, body, failure)


def closed_loop(argv, expected, seconds):
    """Jobs back to back until `seconds` have passed, at least one, with a
    calibration reading before each job and after the last.  Returns
    (jobs, calibrations)."""
    jobs, calibrations = [], [calibrate()]
    deadline = time.perf_counter() + seconds
    while True:
        jobs.append(run_job(argv, expected))
        calibrations.append(calibrate())
        if time.perf_counter() >= deadline:
            return jobs, calibrations
