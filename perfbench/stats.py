"""The benchmark's own statistics: percentiles, the tail rule, open-loop
latency, goodput and the rate-step verdict.

Everything here is pure and small so that ``perfbench/tests`` can pin
the rules down without running a workload.
"""

from __future__ import annotations

import math

import numpy as np

#: A tail percentile must have at least this many samples beyond it.
MIN_BEYOND = 10
#: Percentiles the tail rule may pick from, lowest first.
TAIL_LADDER = (50.0, 60.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile by linear interpolation (numpy's default).

    Failed requests enter as a finite stand-in latency (see
    :func:`latencies_with_failures`), so the result is always finite.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, p))


def supported_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest ladder percentile that leaves ``min_beyond`` of ``n`` samples
    above it, or ``None`` when not even the median does."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= min_beyond - 1e-9:
            best = p
    return best


def tail(samples, p: float) -> tuple[float, int]:
    """``(value, beyond)``: the ``p``-th percentile and how many samples
    lie strictly above it. The caller reports ``beyond`` with the value
    so a reader can see whether the percentile is supported."""
    arr = np.asarray(samples, dtype=np.float64)
    value = percentile(arr, p)
    return value, int(np.count_nonzero(arr > value))


def latencies_with_failures(latencies_ms, ok, fail_ms: float) -> np.ndarray:
    """Latency samples where every failed request counts as ``fail_ms``.

    ``fail_ms`` is at least every latency limit, so a failure is a miss
    for any limit and pushes the tail up instead of vanishing from it.
    """
    lat = np.asarray(latencies_ms, dtype=np.float64).copy()
    ok = np.asarray(ok, dtype=bool)
    lat[~ok] = fail_ms
    return lat


def open_loop_times(due_s, sent_s, done_s) -> tuple[np.ndarray, np.ndarray]:
    """``(latency_ms, lag_ms)`` of open-loop requests.

    Latency runs from the time a request was *due*, not from when the
    generator got round to sending it: a stall that delays later sends
    is charged to those requests. Lag is how late each send left the
    generator.
    """
    due = np.asarray(due_s, dtype=np.float64)
    latency = (np.asarray(done_s, dtype=np.float64) - due) * 1e3
    lag = (np.asarray(sent_s, dtype=np.float64) - due) * 1e3
    return latency, lag


def goodput(latency_ms, ok, limit_ms) -> float:
    """Share of requests that succeeded within their limit.

    ``limit_ms`` is a scalar or one limit per request; a failed request
    misses whatever its latency reads.
    """
    lat = np.asarray(latency_ms, dtype=np.float64)
    if lat.size == 0:
        return 0.0
    good = np.asarray(ok, dtype=bool) & (lat <= np.asarray(limit_ms))
    return float(np.count_nonzero(good) / lat.size)


def outstanding_at(t, due_s, done_s) -> int:
    """Requests due by ``t`` that had not completed at ``t`` (failed
    requests carry their failure time as ``done``)."""
    due = np.asarray(due_s, dtype=np.float64)
    done = np.asarray(done_s, dtype=np.float64)
    return int(np.count_nonzero((due <= t) & (done > t)))


def backlog_limit(rate: float, limit_ms: float) -> float:
    """Outstanding requests a stable queue may hold at a step's end:
    what Little's law allows at the latency limit, and at least 10."""
    return max(10.0, rate * limit_ms / 1e3)


def step_ok(p99_ms: float, failures: int, outstanding: int, rate: float,
            limit_ms: float) -> bool:
    """A rate step passes when its p99 meets the limit, nothing failed and
    the backlog at its end is no more than a stable queue holds."""
    return (p99_ms <= limit_ms and failures == 0
            and outstanding <= backlog_limit(rate, limit_ms))


def max_ok_rate(steps) -> float:
    """Achieved rate of the highest passing step, or 0.0.

    ``steps`` is a sequence of ``(nominal_rate, achieved_rate, passed)``.
    """
    best = 0.0
    best_nominal = -math.inf
    for nominal, achieved, passed in steps:
        if passed and nominal > best_nominal:
            best, best_nominal = float(achieved), nominal
    return best


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    import statistics
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
