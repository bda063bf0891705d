"""The repository benchmark: one command, four named workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``bulk_range``, ``bulk_skew`` and ``small_calls`` drive the
library (closed loop, one caller); ``service_open`` drives ``python -m
repro serve`` with an open loop of requests. ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` runs the workload untraced and then
traced, and prints every per-layer metric. Either way the last line of
standard output is one JSON object, and every output is checked against
a stable oracle outside the timed interval. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import (BENCH_DIR, CONFIRM_SEED, DEFAULT_SEED, DIAGNOSTIC_UNITS,
                    END_TO_END_UNITS, N_BULK_BYTES, ROOT, SETUP_REPS, emit,
                    host_facts, print_metrics, proc_status_kib,
                    program_present, say, use_program)
from library import WORKLOADS, max_mean
from stats import percentile, supported_percentile, tail

ENGINES = ("auto", "fast", "sharded", "stream")
WORKLOAD_NAMES = ("bulk_range", "bulk_skew", "small_calls", "service_open")


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------

def setup_child(name: str, seed: int) -> None:
    """Body of one set-up measurement, run in a fresh interpreter.

    Inputs are generated first and excluded; then ``import repro`` and
    the first (cold) op are timed. One op per distinct input follows so
    the peak RSS covers workspace growth for all of them.
    """
    wl = WORKLOADS[name](seed)
    rss0 = proc_status_kib("VmRSS")
    t0 = time.perf_counter()
    use_program()
    wl.start()
    wl.op(0)
    setup_s = time.perf_counter() - t0
    for i in range(1, wl.distinct):
        wl.op(i)
    peak = (proc_status_kib("VmHWM") - rss0) / 1024
    print(json.dumps({"setup_s": setup_s, "peak_growth_mib": peak}), flush=True)


def measure_setup(name: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def checked_op(wl, i: int, tracer=None):
    """Run op ``i`` and check its output; ``(seconds, result, ok)``.

    Only the op is timed. A raised exception or a malformed or wrong
    result is a failed op, reported on standard error, never fatal.
    """
    result, err, ok = None, None, False
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.op(i)
        else:
            with tracer.span("op"):
                result = wl.op(i)
    except Exception as e:  # noqa: BLE001 — a failed op is counted, not fatal
        err = e
    dt = time.perf_counter() - t0
    if err is None:
        try:
            ok = bool(wl.check(i, result))
        except Exception as e:  # noqa: BLE001 — a malformed result fails
            err = e
    if err is not None:
        print(f"op {i} failed: {type(err).__name__}: {err}", file=sys.stderr)
    elif not ok:
        print(f"op {i}: output differs from the oracle", file=sys.stderr)
    return dt, result, ok


def closed_loop(wl, first: int, seconds: float, tracer=None):
    """Run ops until their summed time reaches ``seconds``.

    Returns ``(rows, next_index)``; a row is ``(index, op_seconds, keys,
    ok, engine, max_mean)``.
    """
    rows, busy, i = [], 0.0, first
    while busy < seconds:
        dt, result, ok = checked_op(wl, i, tracer)
        engine, ratio = None, 0.0
        if ok:
            engine = (result.extra or {}).get("engine")
            ratio = max_mean(result.bucket_starts)
        rows.append((i, dt, wl.keys_of(i), ok, engine, ratio))
        busy += dt
        i += 1
    return rows, i


def auto_regret(wl, seed: int, reps: int = 3) -> tuple[float, list]:
    """Mean over a seeded subsample of auto's time / the best engine's."""
    ratios = []
    for c in wl.regret_inputs(seed):
        keys, spec, values, ws = wl.regret_call(c)
        times = {e: [] for e in ENGINES}
        for r in range(reps):
            for e in ENGINES[r % len(ENGINES):] + ENGINES[:r % len(ENGINES)]:
                t0 = time.perf_counter()
                wl.repro.multisplit(keys, spec, values=values, engine=e,
                                    workspace=ws)
                times[e].append(time.perf_counter() - t0)
        med = {e: statistics.median(v) for e, v in times.items()}
        best = min(med[e] for e in ENGINES[1:])
        ratios.append((keys.size, med["auto"] / best,
                       min(ENGINES[1:], key=med.get)))
    return statistics.fmean(r[1] for r in ratios), ratios


def run_library(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name](seed)
    host = host_facts(N_BULK_BYTES)
    say(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    say("# host " + json.dumps(host))
    setups = [] if trace else measure_setup(name, seed)

    use_program()
    wl.start()
    wl.prepare()
    # one untimed op per distinct input warms caches and the workspace
    warm_failed = sum(1 for i in range(wl.distinct) if not checked_op(wl, i)[2])
    warm = (wl.distinct, warm_failed)
    first = wl.distinct

    if not trace:
        rows, _ = closed_loop(wl, first, seconds)
        return report_library(wl, rows, setups, host, warm)

    untraced, nxt = closed_loop(wl, first, seconds / 2)
    regret, regret_rows = auto_regret(wl, seed)
    import spans
    from layers import library_targets
    tracer = spans.Tracer()
    spans.install(tracer, library_targets())
    traced, _ = closed_loop(wl, nxt, seconds / 2, tracer)
    return report_library_trace(wl, untraced, traced, tracer, host, regret,
                                regret_rows, warm)


def _library_counts(rows, warm):
    """Attempted and failed ops, the untimed warm-up ops included."""
    attempted = len(rows) + warm[0]
    failed = sum(1 for r in rows if not r[3]) + warm[1]
    return attempted, failed


def per_input_medians(wl, rows) -> dict:
    """``input -> (keys, median op seconds)`` over the timed ops."""
    by = {}
    for row in rows:
        by.setdefault(wl.input_of(row[0]), []).append(row)
    return {c: (rs[0][2], statistics.median(r[1] for r in rs)) for c, rs in by.items()}


def report_library(wl, rows, setups, host, warm) -> int:
    lat_ms = [r[1] * 1e3 for r in rows]
    busy = sum(r[1] for r in rows)
    attempted, failed = _library_counts(rows, warm)
    tail_v, beyond = tail(lat_ms, wl.tail_p)
    # rates come from each distinct input's median op time, so a stall
    # of the shared host during a few ops does not move them; the
    # mean-based figures are printed alongside
    med = per_input_medians(wl, rows)
    med_keys = sum(k for k, _t in med.values())
    med_time = sum(t for _k, t in med.values())
    values = {
        "throughput_mkeys_s": med_keys / med_time / 1e6,
        "latency_p50_ms": percentile(lat_ms, 50),
        "goodput_frac": sum(1 for r in rows if r[3]) / len(rows),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mib": statistics.median(s["peak_growth_mib"] for s in setups),
    }
    diagnostics = {
        "latency_tail_ms": tail_v,
        # one closed-loop caller is one load level: the high-load tail
        # is the tail the sample supports
        "latency_p99_ms.high": tail_v,
        "max_ok_rps": len(med) / med_time,
        "failed_frac": failed / attempted,
    }
    engines = {}
    for r in rows:
        engines[r[4]] = engines.get(r[4], 0) + 1
    say(f"# ops {attempted} (warm-up {warm[0]})  failed {failed}  timed {busy:.2f} s"
        f"  engines {engines}")
    say(f"# mean-based: {sum(r[2] for r in rows) / busy / 1e6:.4f} Mkeys/s,"
        f" {len(rows) / busy:.4f} ops/s over {len(med)} distinct inputs")
    say(f"# latency_tail_ms is p{wl.tail_p:g} over {len(lat_ms)} ops, "
        f"{beyond} samples beyond it (the highest percentile this count "
        f"supports is p{supported_percentile(len(lat_ms)) or 0:g})")
    say("# setup runs " + json.dumps(setups))
    print_metrics(values, END_TO_END_UNITS)
    print_metrics(diagnostics, DIAGNOSTIC_UNITS)
    emit(failed == 0, attempted, failed, values, END_TO_END_UNITS)
    return 0


def report_library_trace(wl, untraced, traced, tracer, host, regret,
                         regret_rows, warm) -> int:
    from layers import PER_LAYER_UNITS, layer_totals, sharded_accounting, summarize
    ops = len(traced)
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    recorded = tracer.spans()
    values.update(summarize(recorded, ops=ops,
                            memcpy_gbps=host["memcpy_gbps"]))
    values["bucketing.max_mean_ratio"] = statistics.fmean(r[5] for r in traced)
    for e in ("fast", "sharded", "stream"):
        values[f"api.engine_share.{e}"] = sum(1 for r in traced if r[4] == e) / ops
    values["api.auto_regret"] = regret
    if wl.ws is not None:
        values["workspace.peak_mib"] = wl.ws.peak_nbytes / (1 << 20)
    values["trace.overhead_frac"] = overhead(wl, untraced, traced)

    rows = sharded_accounting(recorded)
    if rows:
        worst = max(abs(w - sum(sh.values())) for w, _u, sh in rows)
        gap = max(abs(u - sh.get("unattributed", 0.0)) for _w, u, sh in rows)
        total = {}
        for _w, _u, sh in rows:
            for k, v in sh.items():
                total[k] = total.get(k, 0.0) + v
        wall = sum(r[0] for r in rows)
        say(f"# accounting over {len(rows)} sharded calls, mean wall "
            f"{wall / len(rows) / 1e6:.3f} ms: "
            + ", ".join(f"{k} {v / len(rows) / 1e6:.3f} ms"
                        for k, v in sorted(total.items()))
            + f"; max |wall - sum of shares| {worst:.0f} ns,"
            f" max |unattributed - its share| {gap:.0f} ns")
    say("# self time by span (calls, ms): " + json.dumps(
        {k: [c, round(ms, 3)] for k, (c, ms) in layer_totals(recorded).items()}))
    say("# auto regret subsample (n, auto/best, best): " + json.dumps(regret_rows))
    attempted, failed = _library_counts(untraced + traced, warm)
    say(f"# ops untraced {len(untraced)} traced {ops} failed {failed}")
    print_metrics(values, PER_LAYER_UNITS)
    emit(failed == 0, attempted, failed, values, PER_LAYER_UNITS)
    return 0


def overhead(wl, untraced, traced) -> float:
    """Traced / untraced op time - 1, matched input by input so that a
    different mix of inputs in the two halves cannot pose as overhead."""
    u, t = per_input_medians(wl, untraced), per_input_medians(wl, traced)
    common = [c for c in u if c in t]
    if not common:
        return 0.0
    return sum(t[c][1] for c in common) / sum(u[c][1] for c in common) - 1.0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; seed {CONFIRM_SEED} is "
                    "kept for confirming a claim on inputs it was not tuned on)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not program_present():
        print(f"no program sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "service_open":
        from service_load import run_service
        return run_service(args.seed, args.seconds, bool(args.trace))
    return run_library(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
