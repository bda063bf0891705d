"""The ``service_open`` workload: an open loop of requests against
``python -m repro serve``.

One asyncio process sends Poisson arrivals through the shipped
``repro.service.client`` and steps through fixed rates. Interactive
requests (small multisplits and sorts) share one pipelined connection;
bulk multisplits go over a second connection that reconnects after the
server drops it. Each request is timed from the moment it was *due*,
so a stalled generator or server is charged to every request it
delays. Responses are kept as arrays and checked against the stable
oracle after the load ends.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from common import (BENCH_DIR, DIAGNOSTIC_UNITS, END_TO_END_UNITS, N_BULK_BYTES,
                    ROOT, SETUP_REPS, child_env, emit, host_facts, print_metrics,
                    proc_status_kib, range_ids, rng_for, say, splitter_ids,
                    stable_split, use_program)
from stats import (goodput, latencies_with_failures, max_ok_rate,
                   open_loop_times, outstanding_at, percentile, step_ok,
                   supported_percentile, tail)

NAME = "service_open"
#: Rate steps in requests per second, and the share of the run each gets.
#: The mid step, whose latency is reported, gets half. 250/500/1000 req/s
#: saturate client and server on two cores; see README.md.
RATES = (40, 80, 120)
STEP_WEIGHTS = (1, 2, 1)
MID, HIGH = 1, 2
SHARE_SORT, SHARE_BULK = 0.10, 0.05
INTERACTIVE_LIMIT_MS = 50.0
BULK_LIMIT_MS = 500.0
#: A bulk request, or any request still open this long after the last
#: send, has failed; a failure enters the latency sample as this value,
#: which misses every limit.
TIMEOUT_S = 2.0
FAIL_MS = TIMEOUT_S * 1e3
#: The highest percentile with at least 10 of the mid step's ~760
#: interactive samples beyond it (p99 would leave ~7.6).
TAIL_P = 95.0
#: Requests at the lowest rate before the first measured step, so that
#: workspace growth and first-call costs are not charged to it. They are
#: checked and counted like the rest.
WARMUP_S = 1.0
LISTEN = "repro-serve listening on "
TRACE_MARK = "perfbench-trace "


class Request:
    __slots__ = ("cls", "step", "due", "keys", "values", "spec", "sent",
                 "done", "ok", "error", "out_keys", "out_values", "out_starts",
                 "correct")

    def __init__(self, cls, step, due, keys, values, spec):
        self.cls, self.step, self.due = cls, step, due
        self.keys, self.values, self.spec = keys, values, spec
        self.sent = self.done = 0.0
        self.ok = self.correct = False
        self.error = None
        self.out_keys = self.out_values = self.out_starts = None

    @property
    def interactive(self) -> bool:
        return self.cls != "bulk"

    @property
    def limit_ms(self) -> float:
        return INTERACTIVE_LIMIT_MS if self.interactive else BULK_LIMIT_MS


def step_bounds(seconds: float) -> list[tuple[float, float]]:
    """``(start, length)`` of each measured step, from the load's start."""
    unit = seconds / sum(STEP_WEIGHTS)
    out, start = [], 0.0
    for w in STEP_WEIGHTS:
        out.append((start, w * unit))
        start += w * unit
    return out


def make_schedule(seed: int, seconds: float, splitters) -> list[Request]:
    """Seeded arrivals for every rate step, with the request mix.

    Each step holds exactly ``rate * length`` requests at sorted uniform
    random times, which is a Poisson process conditioned on its count:
    every seed offers the same load, and only the arrival pattern and
    the data change. The mix is exact too: 85% multisplit of 64-1024 keys
    (half with values; ``range`` m=32 or the fixed ``splitter`` m=64
    spec), 10% sort of 64-2048 pairs and 5% bulk multisplit of 8K-32K
    keys, in random order.
    """
    rng = rng_for(seed, NAME)
    splitter_spec = {"kind": "splitter", "splitters": splitters.tolist()}
    range_spec = {"kind": "range", "num_buckets": 32}
    steps = [(-1, RATES[0], -WARMUP_S, WARMUP_S)]  # step -1 is the warm-up
    steps += [(k, RATES[k], start, length)
              for k, (start, length) in enumerate(step_bounds(seconds))]
    out = []
    for step, rate, start, length in steps:
        n = int(round(rate * length))
        n_bulk, n_sort = int(round(n * SHARE_BULK)), int(round(n * SHARE_SORT))
        classes = rng.permutation(["bulk"] * n_bulk + ["sort"] * n_sort
                                  + ["ms"] * (n - n_bulk - n_sort))
        for due, cls in zip(np.sort(rng.uniform(start, start + length, n)), classes):
            if cls == "bulk":
                n_keys = int(rng.integers(8192, 32769))
                req = Request("bulk", step, due,
                              rng.integers(0, 2**32, n_keys, dtype=np.uint32), None,
                              range_spec)
            elif cls == "sort":
                n_keys = int(rng.integers(64, 2049))
                req = Request("sort", step, due,
                              rng.integers(0, 2**32, n_keys, dtype=np.uint32),
                              rng.integers(0, 2**32, n_keys, dtype=np.uint32), None)
            else:
                n_keys = int(rng.integers(64, 1025))
                keys = rng.integers(0, 2**32, n_keys, dtype=np.uint32)
                values = (rng.integers(0, 2**32, n_keys, dtype=np.uint32)
                          if rng.random() < 0.5 else None)
                spec = range_spec if rng.random() < 0.5 else splitter_spec
                req = Request("ms", step, due, keys, values, spec)
            out.append(req)
    return out


def client_splitters(seed: int):
    """The one client-built splitter spec: ``from_sample`` on a seeded
    sample of uniform keys, 64 buckets."""
    from repro import BucketSpec
    sample = rng_for(seed, NAME, "splitters").integers(0, 2**32, 1 << 14,
                                                        dtype=np.uint32)
    return np.asarray(BucketSpec.from_sample(sample, 64).splitters)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------

class Server:
    """One server child; a thread drains its output so it never blocks."""

    def __init__(self, traced: bool):
        cmd = ([sys.executable, str(BENCH_DIR / "serve_traced.py")] if traced
               else [sys.executable, "-m", "repro", "serve"])
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + ["--port", "0"], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.lines: list[str] = []
        self.port = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            if line.startswith(LISTEN):
                self.port = int(line.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def wait_port(self, timeout: float = 60.0) -> int:
        self._ready.wait(timeout)
        if self.port is None:
            raise RuntimeError("server did not start:\n" + "\n".join(self.lines[-30:]))
        return self.port

    def hwm_mib(self) -> float:
        return proc_status_kib("VmHWM", self.proc.pid) / 1024

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)

    def trace_summary(self) -> dict:
        for line in reversed(self.lines):
            if line.startswith(TRACE_MARK):
                return json.loads(line[len(TRACE_MARK):])
        raise RuntimeError("traced server printed no summary:\n"
                           + "\n".join(self.lines[-30:]))


async def start_server(traced: bool) -> tuple[Server, float]:
    """Spawn a server; returns it and the seconds from spawn to the first
    answered ping. A server that does not answer is stopped."""
    from repro.service import ServiceClient
    server = Server(traced)
    try:
        port = await asyncio.to_thread(server.wait_port)
        client = await ServiceClient.connect("127.0.0.1", port)
        try:
            await client.ping()
            setup_s = time.perf_counter() - server.t_spawn
        finally:
            await client.close()
    except BaseException:
        server.stop()
        raise
    return server, setup_s


# ---------------------------------------------------------------------------
# the load
# ---------------------------------------------------------------------------

class BulkConnection:
    """The bulk class's connection: re-opened after the server drops it."""

    def __init__(self, port: int):
        self.port = port
        self.client = None
        self.reconnects = 0
        self._lock = asyncio.Lock()

    async def get(self):
        from repro.service import ServiceClient
        async with self._lock:
            if self.client is None:
                self.client = await ServiceClient.connect("127.0.0.1", self.port)
                self.reconnects += 1
            return self.client

    async def drop(self, client) -> None:
        if self.client is client:
            self.client = None
            await client.close()

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()


async def send(req: Request, interactive, bulk: BulkConnection) -> None:
    req.sent = time.perf_counter()
    client = None
    try:
        if req.interactive:
            client = interactive
            if req.cls == "sort":
                resp = await client.sort(req.keys, values=req.values)
            else:
                resp = await client.multisplit(req.keys, req.spec, values=req.values)
        else:
            # a request written just after the server dropped the
            # connection may never be answered; the timeout fails it and
            # the connection is replaced
            client = await bulk.get()
            resp = await asyncio.wait_for(
                client.multisplit(req.keys, req.spec, values=req.values), TIMEOUT_S)
        req.done = time.perf_counter()
        req.ok = True
        req.out_keys = np.asarray(resp["keys"], dtype=np.uint32)
        if resp.get("values") is not None:
            req.out_values = np.asarray(resp["values"], dtype=np.uint32)
        if "bucket_starts" in resp:
            req.out_starts = np.asarray(resp["bucket_starts"], dtype=np.int64)
    except asyncio.CancelledError:
        req.done = time.perf_counter()
        req.error = "unanswered"
        raise
    except Exception as e:  # noqa: BLE001 — every failure is counted
        req.done = time.perf_counter()
        req.error = type(e).__name__
        if client is not None and not req.interactive:
            await bulk.drop(client)


async def drive(port: int, schedule: list[Request]) -> dict:
    """Send ``schedule`` open-loop; returns the load's start time and the
    server's ``metrics`` snapshot taken after the last response."""
    from repro.service import ServiceClient
    asyncio.get_running_loop().set_exception_handler(_quiet_closed)
    interactive = await ServiceClient.connect("127.0.0.1", port)
    bulk = BulkConnection(port)
    tasks = []
    t0 = time.perf_counter() + WARMUP_S + 0.05
    try:
        for req in schedule:
            req.due += t0
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(send(req, interactive, bulk)))
        _done, pending = await asyncio.wait(tasks, timeout=TIMEOUT_S)
        for task in pending:  # unanswered: failed
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        metrics = await interactive.metrics()
    finally:
        await bulk.close()
        await interactive.close()
    return {"t0": t0, "metrics": metrics, "reconnects": bulk.reconnects}


def _quiet_closed(loop, context) -> None:
    """Drop the client's "exception never retrieved" reports for requests
    on a connection the server closed; those failures are already
    counted. Anything else goes to the default handler."""
    from repro.service import ServiceClosedError
    if isinstance(context.get("exception"), (ServiceClosedError, ConnectionError)):
        return
    loop.default_exception_handler(context)


def check(req: Request, splitters) -> bool:
    """Compare one response with the stable oracle on the same input."""
    if req.cls == "sort":
        order = np.argsort(req.keys, kind="stable")
        return (np.array_equal(req.out_keys, req.keys[order])
                and req.out_values is not None
                and np.array_equal(req.out_values, req.values[order]))
    if req.spec["kind"] == "range":
        m, ids = 32, range_ids(req.keys, 32)
    else:
        m, ids = splitters.size + 1, splitter_ids(req.keys, splitters)
    keys, values, starts = stable_split(req.keys, req.values, ids, m)
    if req.out_starts is None or not np.array_equal(req.out_starts, starts):
        return False
    if not np.array_equal(req.out_keys, keys):
        return False
    if values is None:
        return req.out_values is None
    return req.out_values is not None and np.array_equal(req.out_values, values)


# ---------------------------------------------------------------------------
# reading the results
# ---------------------------------------------------------------------------

def analyse(schedule: list[Request], seconds: float, t0: float) -> dict:
    due = np.array([r.due for r in schedule])
    sent = np.array([r.sent for r in schedule])
    done = np.array([r.done for r in schedule])
    good = np.array([r.ok and r.correct for r in schedule])
    latency, lag = open_loop_times(due, sent, done)
    lat = latencies_with_failures(latency, good, FAIL_MS)
    interactive = np.array([r.interactive for r in schedule])
    step = np.array([r.step for r in schedule])
    limits = np.array([r.limit_ms for r in schedule])
    cls = np.array([r.cls for r in schedule])

    steps, table = [], []
    for k, (rate, (start, length)) in enumerate(zip(RATES, step_bounds(seconds))):
        sel = step == k
        isel = sel & interactive
        p99 = percentile(lat[isel], 99)
        fails = int(np.count_nonzero(isel & ~good))
        backlog = outstanding_at(t0 + start + length, due[isel], done[isel])
        # interactive responses per second while the step's requests
        # were in flight; with no backlog this is the offered rate
        first, last = sent[isel].min(), done[isel].max()
        achieved = (np.count_nonzero(isel & good) / (last - first)
                    if last > first else 0.0)
        passed = step_ok(p99, fails, backlog, rate, INTERACTIVE_LIMIT_MS)
        steps.append((rate, achieved, passed))
        row = {"rate": rate, "seconds": round(length, 3),
               "achieved_rps": round(achieved, 2),
               "interactive_p50_ms": round(percentile(lat[isel], 50), 3),
               "interactive_p99_ms": round(p99, 3), "backlog_at_end": backlog,
               "passed": passed, "lag_p99_ms": round(percentile(lag[sel], 99), 3)}
        for c in ("ms", "sort", "bulk"):
            csel = sel & (cls == c)
            row[c] = {"sent": int(csel.sum()), "ok": int((csel & good).sum()),
                      "failed": int((csel & ~good).sum())}
        table.append(row)

    measured = step >= 0
    mid = (step == MID) & interactive
    high = (step == HIGH) & interactive
    tail_v, beyond = tail(lat[mid], TAIL_P)
    high_v, high_beyond = tail(lat[high], 99.0)
    keys_ok = sum(r.keys.size for r in schedule
                  if r.step >= 0 and r.ok and r.correct)
    return {
        "throughput_mkeys_s": keys_ok / (done[measured].max() - t0) / 1e6,
        "latency_p50_ms": percentile(lat[mid], 50),
        "latency_tail_ms": tail_v,
        "tail_samples": int(mid.sum()), "tail_beyond": beyond,
        "latency_p99_ms.high": high_v,
        "high_samples": int(high.sum()), "high_beyond": high_beyond,
        "max_ok_rps": max_ok_rate(steps),
        "goodput_frac": goodput(lat[measured], good[measured], limits[measured]),
        "lag_p99_ms": percentile(lag[measured], 99),
        "steps": table,
        "failed": int(np.count_nonzero(~good)),
        "wrong": sum(1 for r in schedule if r.ok and not r.correct),
    }


def client_p50_from_send(schedule) -> float:
    """Median interactive-multisplit latency from the actual send."""
    lat = [(r.done - r.sent) * 1e3 for r in schedule
           if r.cls == "ms" and r.ok]
    return percentile(lat, 50)


def series(metrics: dict, name: str, **labels) -> list[dict]:
    return [s for s in metrics["series"] if s["name"] == name
            and all(s["labels"].get(k) == v for k, v in labels.items())]


async def one_load(seed: int, seconds: float, traced: bool, splitters,
                   server=None):
    """Run the whole rate ladder against a server (spawned if not given),
    then stop the server and check every response."""
    if server is None:
        server, _ = await start_server(traced)
    try:
        schedule = make_schedule(seed, seconds, splitters)
        # the schedule's objects live through the load; keep the
        # collector's full passes from scanning them and pausing the
        # generator
        gc.collect()
        gc.freeze()
        try:
            out = await drive(server.port, schedule)
            out["hwm_mib"] = server.hwm_mib()
        finally:
            gc.unfreeze()
    finally:
        server.stop()
    for req in schedule:
        req.correct = req.ok and check(req, splitters)
    if traced:
        out["trace"] = server.trace_summary()
    out["schedule"] = schedule
    return out


def run_service(seed: int, seconds: float, trace: bool) -> int:
    use_program()
    host = host_facts(N_BULK_BYTES)
    say(f"# workload {NAME} seed {seed} seconds {seconds} trace {int(trace)}")
    say("# host " + json.dumps(host))
    splitters = client_splitters(seed)
    if trace:
        return asyncio.run(_trace_run(seed, seconds, splitters))
    return asyncio.run(_plain_run(seed, seconds, splitters))


def _report_steps(res) -> None:
    for row in res["steps"]:
        say("# step " + json.dumps(row))


async def _plain_run(seed, seconds, splitters) -> int:
    setups = []
    server = None
    for i in range(SETUP_REPS):
        server, setup_s = await start_server(False)
        setups.append(setup_s)
        if i < SETUP_REPS - 1:
            server.stop()
    out = await one_load(seed, seconds, False, splitters, server)
    schedule = out["schedule"]
    res = analyse(schedule, seconds, out["t0"])
    values = {k: res[k] for k in END_TO_END_UNITS if k in res}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mib"] = out["hwm_mib"]
    attempted = len(schedule)
    diagnostics = {k: res[k] for k in DIAGNOSTIC_UNITS if k in res}
    diagnostics["failed_frac"] = res["failed"] / attempted
    _report_steps(res)
    errors = {}
    for r in schedule:
        if r.error is not None:
            errors[f"{r.cls}: {r.error}"] = errors.get(f"{r.cls}: {r.error}", 0) + 1
    say(f"# requests {attempted}  failed {res['failed']}  wrong {res['wrong']}"
        f"  bulk reconnects {out['reconnects']}  errors {json.dumps(errors)}")
    say(f"# latency_tail_ms is p{TAIL_P:g} of {res['tail_samples']} interactive"
        f" requests at {RATES[MID]} req/s, {res['tail_beyond']} beyond it (the"
        f" count supports p{supported_percentile(res['tail_samples']) or 0:g});"
        f" latency_p99_ms.high has {res['high_beyond']} of {res['high_samples']}"
        f" beyond it; generator lag p99 {res['lag_p99_ms']:.3f} ms")
    say("# setup runs " + json.dumps(setups))
    print_metrics(values, END_TO_END_UNITS)
    print_metrics(diagnostics, DIAGNOSTIC_UNITS)
    emit(res["wrong"] == 0, attempted, res["failed"], values, END_TO_END_UNITS)
    return 0


async def _trace_run(seed, seconds, splitters) -> int:
    """Half the run untraced, then half against the traced server."""
    from layers import PER_LAYER_UNITS
    plain = await one_load(seed, seconds / 2, False, splitters)
    traced = await one_load(seed, seconds / 2, True, splitters)
    res_u = analyse(plain["schedule"], seconds / 2, plain["t0"])
    res_t = analyse(traced["schedule"], seconds / 2, traced["t0"])
    metrics = traced["metrics"]

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(traced["trace"])
    sizes = series(metrics, "service.batch_size")
    values["coalescer.batch_size_mean"] = sizes[0]["mean_ms"] if sizes else 0.0
    batches = sum(s["value"] for s in series(metrics, "service.batches"))
    fused = sum(s["value"] for s in series(metrics, "service.fused_batches"))
    values["coalescer.fused_frac"] = fused / batches if batches else 0.0
    lat = series(metrics, "service.latency_ms", route="multisplit")
    server_p50 = lat[0]["p50_ms"] if lat else 0.0
    values["service.server_p50_ms"] = server_p50
    values["service.server_p99_ms"] = lat[0]["p99_ms"] if lat else 0.0
    values["service.rejected"] = sum(s["value"]
                                     for s in series(metrics, "service.rejected"))
    values["service.outside_ms"] = client_p50_from_send(traced["schedule"]) - server_p50
    values["loadgen.lag_p99_ms"] = res_u["lag_p99_ms"]
    base = res_u["latency_p50_ms"]
    values["trace.overhead_frac"] = (res_t["latency_p50_ms"] / base - 1.0
                                     if base else 0.0)
    say("# untraced steps")
    _report_steps(res_u)
    say("# traced steps")
    _report_steps(res_t)
    attempted = len(plain["schedule"]) + len(traced["schedule"])
    failed = res_u["failed"] + res_t["failed"]
    wrong = res_u["wrong"] + res_t["wrong"]
    say(f"# requests {attempted}  failed {failed}  wrong {wrong}")
    print_metrics(values, PER_LAYER_UNITS)
    emit(wrong == 0, attempted, failed, values, PER_LAYER_UNITS)
    return 0
