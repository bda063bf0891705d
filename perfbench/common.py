"""Shared pieces: paths, seeding, host facts, memory readings and the
stable oracle every output is checked against."""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import zlib
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Seed used when none is given, and a second one kept for confirming a
#: claim on inputs the change was not tuned on.
DEFAULT_SEED = 1
CONFIRM_SEED = 20161
#: Size of one bulk array (2^22 uint32); copy bandwidth is measured here.
N_BULK_BYTES = 4 << 22
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPS = 3


#: The end-to-end metrics of the result line with ``--trace 0``, by unit:
#: the ones that stay within their bound from run to run on a shared host.
END_TO_END_UNITS = {
    "throughput_mkeys_s": "Mkeys/s",
    "latency_p50_ms": "ms",
    "goodput_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
#: End-to-end metrics printed above the result line but not in it (see
#: README.md): ``failed_frac`` is 0 on a healthy library run, and the tail
#: latencies and the rate verdict spread wider between runs than any bound
#: the benchmark may set.
DIAGNOSTIC_UNITS = {
    "latency_tail_ms": "ms",
    "latency_p99_ms.high": "ms",
    "max_ok_rps": "req/s",
    "failed_frac": "ratio",
}


def say(*parts) -> None:
    print(*parts, flush=True)


def print_metrics(values: dict, units: dict) -> None:
    for k, unit in units.items():
        if k in values:
            say(f"{k:28s} {values[k]:14.6g} {unit}")


def emit(correct: bool, attempted: int, failed: int, values: dict,
         units: dict) -> None:
    """The result line, which must be the last line of standard output."""
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def rng_for(seed: int, workload: str, stream: str = "inputs"):
    """Independent generator per (seed, workload, stream)."""
    return np.random.default_rng(
        [int(seed), zlib.crc32(workload.encode()), zlib.crc32(stream.encode())])


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def memcpy_gbps(nbytes: int, reps: int = 15) -> float:
    """Copy bandwidth at ``nbytes`` per copy, counting bytes read plus
    bytes written (the traffic the speed-of-light model counts)."""
    src = np.ones(nbytes // 4, dtype=np.uint32)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / float(np.median(times)) / 1e9


def l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def host_facts(array_bytes: int) -> dict:
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "memcpy_gbps": round(memcpy_gbps(array_bytes), 2),
        "memcpy_array_mib": array_bytes / (1 << 20),
        "l3_mib": (l3_bytes() or 0) / (1 << 20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_ok,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def proc_status_kib(field: str, pid: int | str = "self") -> int:
    """A ``/proc/<pid>/status`` field (VmRSS, VmHWM) in KiB; 0 if absent."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# the stable oracle
# ---------------------------------------------------------------------------

def range_ids(keys, m: int, lo: int = 0, hi: int = 2**32) -> np.ndarray:
    """Equal-width bucket ids over ``[lo, hi)``."""
    rel = keys.astype(np.uint64) - np.uint64(lo)
    return (rel * np.uint64(m)) // np.uint64(hi - lo)


def splitter_ids(keys, splitters) -> np.ndarray:
    """Bucket ``b`` holds ``splitters[b-1] <= k < splitters[b]``."""
    return np.searchsorted(splitters, keys, side="right")


def stable_split(keys, values, ids, m: int):
    """``(keys, values, starts)`` of the stable partition by ``ids``."""
    order = np.argsort(ids, kind="stable")
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=m), out=starts[1:])
    return keys[order], (values[order] if values is not None else None), starts


def same_split(result, expected) -> bool:
    """Whether a :class:`MultisplitResult` equals the oracle's output."""
    keys, values, starts = expected
    if not np.array_equal(np.asarray(result.bucket_starts), starts):
        return False
    if not np.array_equal(result.keys, keys):
        return False
    if values is None:
        return result.values is None
    return result.values is not None and np.array_equal(result.values, values)
