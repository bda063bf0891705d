"""The benchmark's own statistics and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import threading
import time

import numpy as np
import pytest

import spans
import stats
from layers import sharded_accounting, summarize
from spans import Span, Tracer, children_of, self_times, union_length, wall_shares


# -- the tail rule ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 75.0), (100, 90.0), (999, 95.0),
    (1000, 99.0), (2000, 99.5), (10_000, 99.9),
])
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_tail_reports_samples_beyond_the_value():
    samples = np.arange(1, 1001, dtype=float)
    value, beyond = stats.tail(samples, 99.0)
    assert value == pytest.approx(990.01)
    assert beyond == 10
    value, beyond = stats.tail(samples[:900], 99.0)
    assert beyond == 9  # too few: the caller prints the count with it


# -- open-loop latency ------------------------------------------------------

def test_open_loop_latency_runs_from_due_time_and_reports_lag():
    # three requests due 10 ms apart; the generator stalls and sends the
    # second and third together at 25 ms
    due = [0.000, 0.010, 0.020]
    sent = [0.000, 0.025, 0.025]
    done = [0.005, 0.030, 0.031]
    latency, lag = stats.open_loop_times(due, sent, done)
    np.testing.assert_allclose(latency, [5.0, 20.0, 11.0])
    np.testing.assert_allclose(lag, [0.0, 15.0, 5.0])


def test_outstanding_counts_requests_due_but_not_done():
    due = [0.0, 1.0, 2.0, 3.0]
    done = [0.5, 2.5, 2.1, 9.0]
    assert stats.outstanding_at(2.2, due, done) == 1  # the one due at 1.0
    assert stats.outstanding_at(3.0, due, done) == 1  # due at 3.0, done at 9


# -- failures are limit misses ----------------------------------------------

def test_a_failed_request_misses_the_limit_whatever_its_latency():
    latency = [1.0, 2.0, 3.0, 900.0]
    ok = [True, False, True, True]
    assert stats.goodput(latency, ok, 50.0) == pytest.approx(0.5)
    # per-request limits: the last one is bulk, 1 s
    assert stats.goodput(latency, ok, [50, 50, 50, 1000]) == pytest.approx(0.75)


def test_failures_enter_the_latency_sample_at_the_failure_value():
    lat = stats.latencies_with_failures([1.0, 2.0, 3.0], [True, False, True], 5000.0)
    np.testing.assert_allclose(lat, [1.0, 5000.0, 3.0])
    assert stats.percentile(lat, 99) > 50.0


def test_a_step_fails_on_any_failure_a_slow_p99_or_a_backlog():
    assert stats.step_ok(40.0, 0, 5, 400, 50.0)
    assert not stats.step_ok(40.0, 1, 5, 400, 50.0)
    assert not stats.step_ok(60.0, 0, 5, 400, 50.0)
    assert not stats.step_ok(40.0, 0, 21, 400, 50.0)  # 400/s * 50 ms = 20


def test_max_ok_rate_is_the_highest_passing_step():
    steps = [(100, 98.0, True), (200, 197.0, True), (400, 380.0, False)]
    assert stats.max_ok_rate(steps) == 197.0
    assert stats.max_ok_rate([(100, 98.0, False)]) == 0.0


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    # exclusive quartiles of 5 points sit at 1.5 and 4.5: 9.5 and 10.5
    assert stats.quartile_spread([9, 10, 10, 10, 11]) == pytest.approx(0.1)


# -- self time --------------------------------------------------------------

def test_union_length_counts_overlaps_once_and_clips():
    assert union_length([(10, 50), (30, 70)]) == 60
    assert union_length([(10, 20), (30, 40)]) == 20
    assert union_length([(0, 100)], 20, 60) == 40
    assert union_length([]) == 0


def _tree():
    parent = Span("sharded.sharded_multisplit", None, 1, 0, 100)
    a = Span("backends.scatter", parent, 2, 10, 50)  # worker thread 2
    b = Span("backends.scatter", parent, 3, 30, 70)  # worker thread 3
    grandchild = Span("bucketing.eval", a, 2, 15, 25)
    return parent, a, b, grandchild


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent, a, b, grandchild = _tree()
    selfs = self_times([parent, a, b, grandchild])
    assert selfs[id(parent)] == 100 - 60  # children cover 10..70 once
    assert selfs[id(a)] == 40 - 10
    assert selfs[id(b)] == 40
    assert selfs[id(grandchild)] == 10


def test_wall_shares_split_concurrent_instants_and_sum_to_the_wall():
    parent, a, b, grandchild = _tree()
    kids = children_of([parent, a, b, grandchild])
    shares = wall_shares(parent, kids, lambda s: s.name.split(".")[0])
    assert sum(shares.values()) == pytest.approx(100)
    # 0..10 and 70..100 parent alone; 10..15 a; 15..25 grandchild;
    # 25..30 a; 30..50 a and b split; 50..70 b
    assert shares["sharded"] == pytest.approx(40)
    assert shares["bucketing"] == pytest.approx(10)
    assert shares["backends"] == pytest.approx(5 + 5 + 20 + 20)


def test_sharded_accounting_closes_on_the_dispatching_call():
    api = Span("api.multisplit", None, 1, 0, 120)
    parent = Span("sharded.sharded_multisplit", api, 1, 10, 110)
    a = Span("backends.scatter", parent, 2, 20, 60)
    b = Span("backends.scatter", parent, 3, 40, 80)
    scan = Span("sharded.scan_offsets", parent, 1, 90, 95)
    (wall, unattributed, shares), = sharded_accounting([api, parent, a, b, scan])
    assert wall == 120
    assert unattributed == 120 - 60 - 5
    assert shares["unattributed"] == pytest.approx(unattributed)
    assert sum(shares.values()) == pytest.approx(wall)


# -- the tracer -------------------------------------------------------------

def test_tracer_links_worker_thread_spans_to_the_fan_out_span():
    tracer = Tracer()

    def kernel(x):
        time.sleep(0.01)
        return x

    traced_kernel = tracer.wrap(kernel, "backends.scatter", lambda a, k, r: (3, 24))

    def engine():
        threads = [threading.Thread(target=traced_kernel, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        return "done"

    traced_engine = tracer.wrap(engine, "sharded.sharded_multisplit", fanout=True)
    with tracer.span("op"):
        assert traced_engine() == "done"
    recorded = tracer.spans()
    by_name = {}
    for s in recorded:
        by_name.setdefault(s.name, []).append(s)
    (op,) = by_name["op"]
    (eng,) = by_name["sharded.sharded_multisplit"]
    kernels = by_name["backends.scatter"]
    assert eng.parent is op
    assert [k.parent for k in kernels] == [eng, eng]
    assert len({k.tid for k in kernels}) == 2
    assert all(k.keys == 3 and k.nbytes == 24 for k in kernels)
    m = summarize(recorded, ops=1, memcpy_gbps=1.0)
    assert m["backends.calls_per_op"] == 2
    assert 0 < m["sharded.worker_busy_frac"] <= 1


def test_install_patches_functions_and_class_methods():
    class Spec:
        @classmethod
        def make(cls, n):
            return cls, n

        def ids(self, keys):
            return keys

    import types
    mod = types.SimpleNamespace(run=lambda keys: keys)
    tracer = Tracer()
    spans.install(tracer, [
        (Spec, "make", "bucketing.from_sample", None, False),
        (Spec, "ids", "bucketing.eval", lambda a, k, r: len(a[1]), False),
        (mod, "run", "api.multisplit", None, False),
    ])
    assert Spec.make(4) == (Spec, 4)
    assert Spec().ids([1, 2, 3]) == [1, 2, 3]
    assert mod.run(7) == 7
    names = sorted(s.name for s in tracer.spans())
    assert names == ["api.multisplit", "bucketing.eval", "bucketing.from_sample"]
    (ev,) = [s for s in tracer.spans() if s.name == "bucketing.eval"]
    assert ev.keys == 3


def test_a_raising_call_still_records_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "api.multisplit")()
    (s,) = tracer.spans()
    assert s.name == "api.multisplit" and s.t1 >= s.t0


# -- BENCHMARK.json and the code agree --------------------------------------

def test_benchmark_json_names_what_the_runs_print():
    import json
    from pathlib import Path

    from common import DIAGNOSTIC_UNITS, END_TO_END_UNITS, ROOT
    from layers import PER_LAYER_UNITS
    from run import WORKLOAD_NAMES

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOAD_NAMES
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])

    interactions = json.loads(
        (Path(__file__).resolve().parent.parent / "interactions.json").read_text())
    assert [e["metric"] for e in interactions["per_layer"]] == list(PER_LAYER_UNITS)
    for entry in interactions["per_layer"]:
        for metric, workload in entry["moves"] + entry["no_change"]:
            assert metric in {**END_TO_END_UNITS, **DIAGNOSTIC_UNITS}
            assert workload in WORKLOAD_NAMES
