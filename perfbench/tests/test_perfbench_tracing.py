"""The tail rule, reference-speed scaling, span self-time arithmetic, and
wrapper install/restore."""

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tdbench import inputs, runner, summary, tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert summary.tail(samples) == (90, 90.0)
    assert summary.tail(list(range(11))) == (0, 100.0 / 11)
    assert summary.tail(list(range(20))) == (9, 50.0)


@pytest.mark.parametrize("n", range(1, 11))
def test_tail_with_too_few_samples_is_the_maximum(n):
    samples = [0.5 * k for k in range(n)]
    random.Random(n).shuffle(samples)
    assert summary.tail(samples) == (0.5 * (n - 1), 100.0)


def test_tail_and_fail_frac_need_samples():
    with pytest.raises(ValueError):
        summary.tail([])
    with pytest.raises(ValueError):
        summary.fail_frac([])


def test_times_scale_by_the_readings_around_them():
    ref = runner.CALIB_REF_S
    calibrations = [ref, 3 * ref, ref]
    assert runner.at_reference_speed([2.0, 4.0], calibrations) == [1.0, 2.0]
    assert runner.at_reference_speed([2.0], [ref, ref]) == [2.0]
    with pytest.raises(ValueError):
        runner.at_reference_speed([2.0, 4.0], [ref, ref])


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    inner = tracer.span("linalg", lambda: clock.advance(2))

    def outer():
        clock.advance(1)
        inner()
        inner()
        clock.advance(3)

    tracer.span("cohomology", outer)()
    assert tracer.self_s["cohomology"] == 4
    assert tracer.self_s["linalg"] == 4
    assert tracer.calls == dict(tracing.Tracer().calls,
                                cohomology=1, linalg=2)
    assert clock.now == sum(tracer.self_s.values())


def test_self_time_of_recursive_spans_counts_each_level_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def depth(n):
        clock.advance(1)
        if n:
            wrapped(n - 1)
        clock.advance(1)

    wrapped = tracer.span("coalgebra", depth)
    wrapped(3)
    assert tracer.calls["coalgebra"] == 4
    assert tracer.self_s["coalgebra"] == 8 == clock.now


def test_a_raising_span_still_closes():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def fail():
        clock.advance(2)
        raise KeyError("boom")

    failing = tracer.span("files", fail)

    def outer():
        clock.advance(1)
        with pytest.raises(KeyError):
            failing()

    tracer.span("cli", outer)()
    assert tracer.self_s["files"] == 2
    assert tracer.self_s["cli"] == 1
    assert tracer._open == []


def test_counter_time_is_charged_to_no_layer():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    class SlowToCount:
        rows, cols = 2, 3

        @property
        def entries(self):
            clock.advance(5)
            return [1, 0, 0, 0, 2, 0]

    eliminate = tracer.span("linalg", lambda m: clock.advance(1),
                            "elimination")

    def outer():
        eliminate(SlowToCount())
        eliminate(SlowToCount())

    tracer.span("cohomology", outer)()
    assert tracer.self_s == dict(tracing.Tracer().self_s,
                                 cohomology=0, linalg=2)
    assert tracer.counters["linalg.eliminations"] == 2
    assert tracer.counters["linalg.cells"] == 12
    assert tracer.counters["linalg.nnz"] == 4
    assert tracer.distinct_frac() == 0.5


def test_traced_replaces_every_imported_name_and_restores_it():
    import tdhom
    from tdhom import algebra, cli, cohomology, lie_rinehart, linalg
    from tdhom.convolution import InducedOperator

    rank, solve, check_lie = linalg.rank, linalg.solve, algebra.check_lie
    materialize = InducedOperator.__dict__["materialize"]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cohomology.rank is linalg.rank is not rank
        assert lie_rinehart.solve is linalg.solve is not solve
        assert cli.check_lie is tdhom.check_lie is algebra.check_lie
        assert algebra.check_lie is not check_lie
        assert InducedOperator.__dict__["materialize"] is not materialize
        m = linalg.RationalMatrix.from_rows([[1, 2], [2, 4]])
        assert cohomology.rank(m) == 1
        assert lie_rinehart.solve(m, [1, 2]) is not None
    assert cohomology.rank is linalg.rank is rank
    assert lie_rinehart.solve is linalg.solve is solve
    assert cli.check_lie is tdhom.check_lie is algebra.check_lie is check_lie
    assert InducedOperator.__dict__["materialize"] is materialize
    assert tracer.counters["linalg.eliminations"] == 2
    assert tracer.counters["linalg.cells"] == 8
    assert tracer.distinct_frac() == 0.5


def test_traced_job_keeps_its_body_and_attributes_its_time(tmp_path,
                                                           monkeypatch):
    inputs.write_inputs(["heis-adjoint.json"], 5, tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["cohomology", "heis-adjoint.json", "--maxdeg", "2", "--json"]
    plain = runner.run_job(argv, "")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = runner.run_job(argv, plain.body)
    assert traced.failure == ""
    calls = tracer.calls
    assert calls["cli"] == 1
    assert calls["files"] == 2          # load_path, then parse_structure
    assert calls["cohomology"] == 1 + 3 + 9 + 9
    assert calls["linalg"] == 3 + 2     # three ranks, two d*d products
    assert calls["convolution"] == calls["coalgebra"] == 0
    assert tracer.counters["linalg.eliminations"] == 3
    assert tracer.counters["linalg.cells"] == 9 * 3 + 9 * 9 + 3 * 9
    assert 0 < sum(tracer.self_s.values()) <= traced.seconds
