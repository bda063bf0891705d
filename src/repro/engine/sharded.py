"""The {local, global, local} multisplit pipeline, and its sharded policy.

Every stable result-only engine runs the paper's decomposition (Section
3, Eq. 1/2). The input arrives as chunks, each split into contiguous
shards, and runs in three phases:

1. **local (prescan)** — each shard evaluates its bucket ids and its
   ``m``-bin histogram, in parallel across worker threads;
2. **global (scan)** — the stacked ``(shards x m)`` count matrix is
   exclusively scanned bucket-major (:func:`scan_offsets`, Eq. 1's
   ``offset[b][p] = sum_{b'<b} count[b'] + sum_{p'<p} count[b][p']``),
   giving every shard its base offset into every bucket;
3. **local (postscan)** — each shard stable-counting-scatters its
   elements to those offsets.

Shard ``p``'s bucket-``b`` run lands right before shard ``p+1``'s and
each scatter is stable, so the result is *the* unique stable
permutation: **bit-identical** across engines, shard counts, chunk
budgets, worker counts and backends.

The ``engine=`` names are policies that pick only the chunk source, the
shard size and where outputs go: ``fast`` (stable family) is one
in-memory chunk as one shard, with no thread pool — its offsets are the
bucket starts, so the stable gather writes straight into the output;
``sharded`` (this module) is one in-memory chunk of
``DEFAULT_SHARD_KEYS``-key (2^16) shards; ``stream``
(:mod:`repro.engine.stream`) replays chunks of ``chunk_bytes`` from an
array, memmap or chunked source.
Worker threads come from one process-wide pool of one thread per CPU,
created on first use and reused (the dominant numpy kernels release the
GIL).
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import narrow_ids_dtype, resolve_backend
from .fused import coerce_and_check, resolve_call, _starts
from .workspace import Workspace, out_buffer

__all__ = ["sharded_multisplit", "scan_offsets", "run_pipeline",
           "SHARDED_AUTO_MIN_N", "SHARDED_AUTO_MIN_N_SINGLE",
           "DEFAULT_SHARD_KEYS"]

# keys per shard, from the shard-size sweep of benchmarks/bench_sharded.py
# (BENCH_shard_sweep.json: 2^14..2^18 keys, m in {32, 256}, n in {2^20,
# 2^22}, 1 and 2 workers, on a 2-CPU host with 2 MiB of L2 per core).
# Over the grid, 2^16 is 1.17x faster than 2^15 (geometric mean) and
# 2^17 only 1% faster than 2^16, but each worker's gather and argsort
# scratch grows with the shard: over 2^14, a 2^22-pair call's peak RSS
# rises 2.7 MiB (+7%) at 2^16 and 6.3 MiB (+17%) at 2^17, against a
# budget of 5% of the call's 64 MiB of data: 2^16 is the sweep's pick.
# Larger shards pay less fixed cost per shard (kernel calls, the
# per-bucket copy loop).
DEFAULT_SHARD_KEYS = 1 << 16
# hard cap so `shards=` requests cannot explode the histogram matrix;
# 4096 shards x m=256 is still only an 8 MB scan
MAX_SHARDS = 4096
# engine="auto" switches from "fast" to "sharded" at this input size —
# below it the monolithic pipeline's lower fixed overhead wins, above
# it the sharded pipeline wins on cache locality alone (and further on
# worker threads); calibrated alongside DEFAULT_SHARD_KEYS
SHARDED_AUTO_MIN_N = 1 << 19
# single-worker crossover: with no thread-level parallelism available
# (max_workers=1, or a 1-core host and no explicit request) only the
# cache-locality win remains, and its fixed per-shard overhead pushes
# the break-even point out by ~4x; engine="auto" uses this higher floor
# so a tiny machine is not sharded for inputs where fast is the better
# monolithic choice
SHARDED_AUTO_MIN_N_SINGLE = SHARDED_AUTO_MIN_N * 4
_DEFAULT_MAX_WORKERS = 4


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        return max(1, min(_DEFAULT_MAX_WORKERS, os.cpu_count() or 1))
    return max(1, int(max_workers))


# one-time flag for the oversized-shards warning below; the counter
# still increments on every capped call so tests/benches can observe it
_warned_oversized_shards = False


def _resolve_shards(n: int, shards: int | None, workers: int) -> int:
    if shards is not None:
        shards = int(shards)
        if not 1 <= shards <= MAX_SHARDS:
            raise ValueError(
                f"shards must be in [1, MAX_SHARDS={MAX_SHARDS}], got {shards}")
        return min(shards, max(n, 1))
    by_cache = -(-n // DEFAULT_SHARD_KEYS) if n else 1
    picked = max(1, min(max(by_cache, workers), MAX_SHARDS, max(n, 1)))
    if by_cache > MAX_SHARDS and picked == MAX_SHARDS:
        # the MAX_SHARDS cap binds: shards grow past the cache-resident
        # DEFAULT_SHARD_KEYS target (~n/MAX_SHARDS keys each). Correct,
        # but the locality premise no longer holds — the streamed
        # engine (engine="stream") is the tier built for this regime.
        get_registry().inc("engine.sharded.oversized_shards", 1)
        global _warned_oversized_shards
        if not _warned_oversized_shards:
            _warned_oversized_shards = True
            warnings.warn(
                f"n={n} needs {by_cache} shards of ~{DEFAULT_SHARD_KEYS} keys "
                f"but the sharded engine caps at MAX_SHARDS={MAX_SHARDS}; "
                f"shards will hold ~{-(-n // MAX_SHARDS)} keys and exceed the "
                "cache-resident target. Consider engine='stream' (bounded "
                "memory, out-of-core) for inputs this large.",
                RuntimeWarning, stacklevel=3)
    return picked


# ---------------------------------------------------------------------------
# the shared worker pool
# ---------------------------------------------------------------------------

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def pool_width() -> int:
    """Threads in the shared pool: one per CPU."""
    return os.cpu_count() or 1


def _worker_pool() -> ThreadPoolExecutor:
    """The process-wide pool: one thread per CPU, all started on first
    use. It is never replaced or grown, so a pool handed to one caller
    stays valid while others use it; stripes beyond its width queue
    (results never depend on the worker count)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            size = pool_width()
            pool = ThreadPoolExecutor(size, thread_name_prefix="repro-shard",
                                      initializer=_mark_pool_thread)
            started = threading.Barrier(size + 1)
            for _ in range(size):
                pool.submit(started.wait)
            started.wait()
            _pool = pool
        return _pool


def fan_out(stripe, stripes: int) -> None:
    """Run ``stripe(w)`` for every ``w`` in ``range(stripes)``: stripe 0
    on the calling thread, the others on the shared pool. A pool thread
    (a spec evaluated inside a stripe that calls back into an engine)
    runs every stripe itself: waiting on its own pool could deadlock."""
    if stripes <= 1 or getattr(_pool_thread, "active", False):
        for w in range(stripes):
            stripe(w)
        return
    pool = _worker_pool()
    futures = [pool.submit(stripe, w) for w in range(1, stripes)]
    try:
        stripe(0)
    finally:
        wait(futures)  # stripes write shared buffers: never leave early
    for f in futures:
        f.result()


def _each_shard(work, P: int, size: int, n: int, workers: int, arenas) -> None:
    """The one shard loop: ``work(p, keys_slice, arena)`` for every
    nonempty shard ``p`` of ``size`` keys out of ``n``, striped over up
    to ``workers`` threads."""
    if P == 1:  # a lone shard runs inline
        return work(0, slice(0, n), arenas[0]) if n else None
    stripes = max(1, min(workers, P))

    def stripe(w):
        for p in range(w, P, stripes):
            s = slice(p * size, min((p + 1) * size, n))
            if s.start < s.stop:
                work(p, s, arenas[w])

    fan_out(stripe, stripes)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def scan_offsets(hist: np.ndarray, m: int, P: int) -> np.ndarray:
    """Eq. 1, shard-major: the ``P x m`` matrix of per-shard bucket bases.

    ``offset[b][p]`` walks buckets in the outer dimension and shards in
    the inner one, so each shard's run of bucket ``b`` lands directly
    after the runs of every earlier shard (of every earlier chunk).
    """
    flat = np.ascontiguousarray(hist.T).ravel()
    scanned = np.zeros(m * P, dtype=np.int64)
    np.cumsum(flat[:-1], out=scanned[1:])
    return np.ascontiguousarray(scanned.reshape(m, P).T)


def _still_partitioned(hist, ids, size: int, prev_last):
    """One chunk's slice of the identity-permutation check.

    With every shard monotone, the input is already bucket-grouped iff
    boundary ids never decrease across consecutive nonempty shards of
    ``size`` ids, also across chunks (``prev_last`` is the previous
    chunk's last id). Returns ``(still_partitioned, prev_last)``.
    """
    nonempty = np.flatnonzero(hist.any(axis=1))
    if nonempty.size == 0:
        return True, prev_last
    first = ids[nonempty * size]
    last = ids[np.minimum((nonempty + 1) * size, ids.size) - 1]
    if ((prev_last is not None and first[0] < prev_last)
            or (last[:-1] > first[1:]).any()):
        return False, prev_last
    return True, last[-1]


_NO_TIMERS = (contextlib.nullcontext(),) * 3


def _stage_timers(reg, engine: str, method: str):
    """``engine.<engine>.{prescan,scan,postscan}_ms`` timer contexts;
    shared no-ops while metrics are off (small calls feel even those)."""
    if not reg.enabled:
        return _NO_TIMERS
    return [reg.timer(f"engine.{engine}.{stage}_ms", method=method).time()
            for stage in ("prescan", "scan", "postscan")]


def _scratch(ws, slot: str, size: int, dtype) -> np.ndarray:
    return ws.take(slot, size, dtype) if ws is not None else np.empty(size, dtype)


def run_pipeline(engine: str, chunks, spec, method: str, bk, *, workers: int,
                 shards_of, ws, out_ws, alloc_out, ids_budget=None):
    """One stable multisplit through the {local, global, local} pipeline.

    ``chunks`` is a sequence of ``(keys, values_or_None)`` pairs, or a
    callable returning an iterable of them that is called once per local
    phase and replays the same chunks. ``shards_of`` maps a chunk length
    to ``(shard count, shard size)``; ``ws`` pools the chunk ids and
    per-shard scratch (children per worker: a workspace is not
    thread-safe); ``out_ws`` pools the bucket starts and
    ``alloc_out(n)`` returns the output buffers. Chunk ids are kept
    for the scatter while they fit in ``ids_budget`` bytes (``None``:
    always), else re-evaluated. Records
    ``engine.<engine>.{prescan,scan,postscan}_ms``; returns
    ``(result, (chunks, shards, cached_id_bytes))``.
    """
    if (not callable(chunks) and len(chunks) == 1
            and shards_of(chunks[0][0].size)[0] == 1):
        return _lone_shard(engine, *chunks[0], spec, method, bk, ws, out_ws,
                           alloc_out)
    reg = get_registry()
    m = spec.num_buckets
    ids_dtype = narrow_ids_dtype(m)
    arenas = ([ws] if workers == 1 else
              [ws.subarena(f"{engine}-worker{w}") for w in range(workers)])

    # ---- local: per-shard prescan, chunk by chunk ----------------------
    plans = []  # per chunk: (hist, monotone flags, shard size, kept ids)
    n = cached = 0
    # the identity-permutation hypothesis: every nonempty shard so far
    # is monotone with non-decreasing boundary ids
    alive, prev_last = True, None
    prescan_t, scan_t, postscan_t = _stage_timers(reg, engine, method)
    with prescan_t:
        for c, (kc, vc) in enumerate(chunks() if callable(chunks) else chunks):
            if c == 0:
                _warmup(bk, kc, vc, ids_dtype, reg)
            n_c = kc.size
            n += n_c
            P_c, size = shards_of(n_c)
            hist = np.zeros((P_c, m), dtype=np.int64)
            mono = np.zeros(P_c, dtype=bool)
            ids_bytes = n_c * np.dtype(ids_dtype).itemsize
            keep = ids_budget is None or cached + ids_bytes <= ids_budget
            if keep:
                cached += ids_bytes
            ids = _scratch(ws, f"ids.{c}" if keep else "ids", n_c, ids_dtype)
            # non-elementwise specs (arbitrary callables, whole-array
            # bucketings) must see the whole chunk at once
            whole = spec(kc) if not spec.elementwise else None
            # "identity is dead" latch: after the first non-monotone shard
            # the rest use the histogram-only kernel. Racy reads are benign
            # (mono stays False, the conservative answer).
            dead = [not alive]

            # shards finish before the loop moves on: closing over is safe
            def prescan(p, s, arena):
                if whole is None:
                    spec.eval_into(kc[s], ids[s], arena)
                else:
                    np.copyto(ids[s], whole[s], casting="unsafe")
                if dead[0]:
                    hist[p] = bk.hist(ids[s], m)
                    return
                hist[p], mono[p] = bk.prescan(ids[s], m)
                if not mono[p]:
                    dead[0] = True

            _each_shard(prescan, P_c, size, n_c, workers, arenas)
            alive = alive and not dead[0]
            if alive:
                alive, prev_last = _still_partitioned(hist, ids, size, prev_last)
            plans.append((hist, mono, size, ids if keep else None))

    # ---- global: one Eq. 1 scan over the stacked count matrix ----------
    with scan_t:
        hist = (plans[0][0] if len(plans) == 1 else np.concatenate(
            [plan[0] for plan in plans] or [np.zeros((0, m), np.int64)]))
        P = hist.shape[0]
        counts = hist[0] if P == 1 else hist.sum(axis=0)
        starts = _starts(counts, m, out_ws)
        if not alive:
            # a lone shard's offsets are the bucket starts themselves
            offsets = starts[None, :m] if P == 1 else scan_offsets(hist, m, P)

    out_keys, out_values = alloc_out(n)

    # ---- local: per-shard stable scatter, chunks replayed ---------------
    with postscan_t:
        lo = row = 0
        replay = chunks() if callable(chunks) else chunks
        for (kc, vc), (hist, mono, size, ids) in zip(replay, plans):
            n_c = kc.size
            if alive:
                out_keys[lo:lo + n_c] = kc
                if vc is not None:
                    out_values[lo:lo + n_c] = vc
            else:
                fresh = ids is None
                if fresh:
                    ids = _scratch(ws, "ids", n_c, ids_dtype)
                offs = offsets[row:row + hist.shape[0]]

                def scatter(p, s, arena):
                    if fresh:
                        spec.eval_into(kc[s], ids[s], arena)
                    bk.scatter(kc[s], None if vc is None else vc[s], ids[s],
                               hist[p], offs[p], out_keys, out_values,
                               monotone=bool(mono[p]), arena=arena)

                _each_shard(scatter, hist.shape[0], size, n_c, workers, arenas)
            lo += n_c
            row += hist.shape[0]
    res = MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": engine, "backend": bk.name})
    return res, (len(plans), P, cached)


def _warmup(bk, keys, values, ids_dtype, reg) -> None:
    compile_ms = bk.warmup(keys.dtype, None if values is None else values.dtype,
                           ids_dtype)
    if reg.enabled and compile_ms:
        reg.set_gauge("engine.backend.compile_ms",
                      getattr(bk, "compile_ms", compile_ms), backend=bk.name)


def _lone_shard(engine, keys, values, spec, method, bk, ws, out_ws, alloc_out):
    """The pipeline for one in-memory chunk that is one shard.

    The same three stages and kernels with none of the shard
    scaffolding, since small calls pay it in full: no pool, no count
    matrix, and the shard's monotone flag is the identity check. Its
    offsets are the bucket starts, so the scatter lands straight in the
    output.
    """
    reg = get_registry()
    m = spec.num_buckets
    n = keys.size
    ids_dtype = narrow_ids_dtype(m)
    prescan_t, scan_t, postscan_t = _stage_timers(reg, engine, method)
    with prescan_t:
        _warmup(bk, keys, values, ids_dtype, reg)
        # `whole` stays referenced until return: freed before the
        # scatter, glibc trims the heap and the next call page-faults
        # its spec temporaries back in (2.2x the page faults and ~15%
        # slower at n = 2^20, measured on a 2-core x86-64 Linux host)
        whole = spec(keys)
        ids = _scratch(ws, "ids.0", n, ids_dtype)
        np.copyto(ids, whole, casting="unsafe")
        counts, monotone = bk.prescan(ids, m)
    with scan_t:
        starts = _starts(counts, m, out_ws)
    out_keys, out_values = alloc_out(n)
    with postscan_t:
        if monotone:
            out_keys[:] = keys
            if values is not None:
                out_values[:] = values
        else:
            bk.scatter(keys, values, ids, counts, starts[:m], out_keys,
                       out_values, arena=None)
    res = MultisplitResult(
        keys=out_keys, values=out_values, bucket_starts=starts,
        method=method, num_buckets=m, timeline=None, stable=True,
        extra={"engine": engine, "backend": bk.name})
    return res, (1, 1, ids.nbytes)


def pooled_outputs(workspace, keys, values):
    """``alloc_out`` of the in-memory policies: outputs from ``workspace``."""
    return lambda n: (out_buffer(workspace, "keys", n, keys.dtype),
                      None if values is None else
                      out_buffer(workspace, "values", n, values.dtype))


# ---------------------------------------------------------------------------
# the sharded policy
# ---------------------------------------------------------------------------

def sharded_multisplit(keys: np.ndarray, spec_or_fn, num_buckets: int | None = None, *,
                       values: np.ndarray | None = None, method: str = "auto",
                       workspace: Workspace | None = None,
                       shards: int | None = None, max_workers: int | None = None,
                       backend=None, strict: bool = False,
                       **kwargs) -> MultisplitResult:
    """Sharded result-only multisplit, bit-identical to ``engine="emulate"``.

    Parameters
    ----------
    shards:
        Number of contiguous input shards ``P``, in ``[1, MAX_SHARDS]``
        (clamped to ``n``). Default: enough shards of
        ~``DEFAULT_SHARD_KEYS`` keys to cover the input, at least one
        per worker, capped at ``MAX_SHARDS``.
    max_workers:
        Worker threads for the two local phases; default
        ``min(4, cpu_count)``. ``1`` runs sequentially (still faster
        than the monolithic fast path at large ``n`` thanks to
        cache-resident shards). Results never depend on this knob.
    backend:
        Kernel backend for the per-shard prescan/postscan (a name or a
        :class:`~repro.engine.backends.KernelBackend`): ``"numpy"``
        (default), ``"numba"`` (compiled, falls back to numpy when
        absent), or ``"auto"``. Results never depend on this knob
        either — every backend produces the bit-identical stable
        permutation.
    strict:
        Run the :func:`~repro.multisplit.validate.validate_spec`
        battery on the spec against a bounded key sample before the
        prescan touches shared scratch.

    Like :func:`~repro.engine.fast_multisplit`, launch-shape ``kwargs``
    (``warps_per_block``, ``items_per_lane``, ``device``) are accepted
    and ignored; only the stable method family is supported.
    """
    spec, method = resolve_call("sharded", spec_or_fn, num_buckets, method,
                                keys, strict)
    m = spec.num_buckets
    keys, values = coerce_and_check(keys, values, method, m)
    n = keys.size

    workers = _resolve_workers(max_workers)
    num_shards = _resolve_shards(n, shards, workers)
    workers = min(workers, num_shards)
    shard_size = -(-n // num_shards) if n else 0
    bk = resolve_backend(backend)

    reg = get_registry()
    reg.inc("engine.sharded.calls", 1, method=method)
    reg.inc("engine.backend.calls", 1, backend=bk.name, engine="sharded")
    if reg.enabled:
        reg.inc("engine.sharded.keys", n, method=method)
        reg.inc("engine.sharded.buckets", m, method=method)
        reg.set_gauge("engine.sharded.shards", num_shards, method=method)
        reg.set_gauge("engine.sharded.workers", workers, method=method)
        reg.set_gauge("engine.backend.name", 1, backend=bk.name)
        reg.set_gauge("engine.backend.workers", workers, backend=bk.name)
    with reg.timer("engine.sharded.run_ms", method=method,
                   kv=values is not None).time():
        ws = workspace if workspace is not None else Workspace()
        res, _ = run_pipeline(
            "sharded", ((keys, values),), spec, method, bk,
            workers=workers, shards_of=lambda _n: (num_shards, shard_size), ws=ws,
            out_ws=workspace, alloc_out=pooled_outputs(workspace, keys, values))
    res.extra.update(shards=num_shards, workers=workers)
    return res
