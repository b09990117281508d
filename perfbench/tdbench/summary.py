"""Summaries of a run's jobs: the tail rule and the failure share."""

TAIL_MARGIN = 10


def tail(samples):
    """(value, percentile) of the highest percentile that still has at
    least TAIL_MARGIN samples above it.

    With n sorted samples that is the (TAIL_MARGIN + 1)-th largest, which
    sits at percentile 100 * (n - TAIL_MARGIN) / n.  With TAIL_MARGIN
    samples or fewer no percentile qualifies, and the maximum is reported
    at percentile 100 instead.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_MARGIN:
        return ordered[-1], 100.0
    return ordered[n - TAIL_MARGIN - 1], 100.0 * (n - TAIL_MARGIN) / n


def fail_frac(jobs):
    """Failed jobs divided by attempted jobs."""
    if not jobs:
        raise ValueError("no jobs")
    return sum(1 for job in jobs if job.failure) / len(jobs)
