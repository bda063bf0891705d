"""Streamed out-of-core multisplit: the stream policy of the one pipeline.

The {local, global, local} pipeline (:func:`repro.engine.sharded.run_pipeline`)
consumes its input as chunks and replays them for the scatter. This
policy feeds it *super-shards* ("chunks") of ``chunk_bytes`` from an
array, memmap or chunked source, each split into cache-resident shards,
so the whole input, both outputs and an ``n``-sized id array never have
to fit in memory at once — the move the extended multisplit study
(arXiv 1701.01189) uses to scale the same structure to larger key
ranges.

Peak memory is ``O(chunk + m * P_total)`` regardless of ``n``: one
chunk of keys/values, its narrowed bucket ids, and the count matrix.
(When all chunks' ids fit inside the chunk budget they are kept from
pass 1 — the "ids cache" — which skips the second bucket-id evaluation
without changing the bound.) Outputs are **bit-identical** to
``engine="fast"`` / ``engine="sharded"`` / ``engine="emulate"`` for the
whole stable method family, for any chunk budget, shard size, worker
count, or backend.

Key sources
-----------
``stream_multisplit`` accepts three kinds of key source:

* an ``np.ndarray`` (including ``np.memmap`` — the intended
  out-of-core input), sliced into chunks of ``chunk_bytes``;
* a zero-argument **callable** returning an iterable of 1-D chunks;
  it is invoked once per pass and must yield the same chunks both
  times (a cheap way to stream a transform without materializing it);
* a one-shot **iterable/iterator** of chunks; pass 1 spools the chunks
  to a temporary file as it consumes them, and pass 2 replays the
  spool as a read-only memmap, so even a non-replayable source keeps
  peak *memory* bounded (it costs ``n`` bytes of *disk*).

Chunked sources require an **elementwise** bucket spec
(:attr:`~repro.multisplit.bucketing.BucketSpec.elementwise`): the
engine evaluates the spec chunk-by-chunk, which is only equal to a
whole-array evaluation for elementwise specs.

Outputs default to fresh arrays, switching to unlinked temporary-file
memmaps at :data:`MEMMAP_OUT_THRESHOLD` so results larger than memory
spill to disk transparently; pass ``out=`` / ``out_values=`` (e.g. your
own ``np.memmap``) to control placement. Stream results are **never**
pooled in a workspace — the workspace only recycles chunk scratch.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .backends import resolve_backend
from .fused import coerce_and_check, resolve_call
from .sharded import DEFAULT_SHARD_KEYS, _resolve_workers, run_pipeline
from .workspace import Workspace

__all__ = [
    "stream_multisplit",
    "stream_buffer",
    "DEFAULT_CHUNK_BYTES",
    "STREAM_AUTO_MIN_BYTES",
    "MEMMAP_OUT_THRESHOLD",
]

# Default super-shard budget: 16 MiB of keys per chunk (4M uint32 keys
# -> 64 shards of DEFAULT_SHARD_KEYS) keeps the working set far below any
# realistic RAM while leaving each chunk enough shards to occupy the
# worker pool; the bench sweep in benchmarks/bench_stream.py shows
# throughput is flat within ~10% from 8 MiB to 64 MiB.
DEFAULT_CHUNK_BYTES = 16 << 20
# engine="auto" switches to "stream" when an in-memory ndarray's keys
# alone exceed this budget (memmap and chunked sources stream
# regardless of size) — large enough that the in-core tiers keep every
# input they are faster on, small enough that "auto" never doubles a
# multi-hundred-MB dataset in RAM just to route it.
STREAM_AUTO_MIN_BYTES = 256 << 20
# Outputs at/above this size are backed by unlinked temp-file memmaps
# instead of np.empty, so the result of an out-of-core run does not
# itself blow the memory budget.
MEMMAP_OUT_THRESHOLD = 128 << 20
# Override where spools/outputs land (defaults to tempfile's choice).
_TMPDIR_ENV = "REPRO_STREAM_TMPDIR"


def _mkstemp(suffix: str) -> tuple[int, str]:
    return tempfile.mkstemp(prefix="repro-stream-", suffix=suffix,
                            dir=os.environ.get(_TMPDIR_ENV))


def stream_buffer(size: int, dtype,
                  threshold: int = MEMMAP_OUT_THRESHOLD) -> np.ndarray:
    """An output buffer for streamed results: RAM below ``threshold``
    bytes, an unlinked temporary-file ``np.memmap`` at/above it.

    The backing file is unlinked immediately, so the mapping lives
    exactly as long as the returned array (no cleanup to manage) and
    file-backed pages never count against an anonymous-memory rlimit.
    """
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    if size == 0 or nbytes < threshold:
        return np.empty(size, dtype=dtype)
    fd, path = _mkstemp(".out")
    try:
        os.ftruncate(fd, nbytes)
        buf = np.memmap(path, dtype=dtype, mode="r+", shape=(size,))
    finally:
        os.close(fd)
        os.unlink(path)
    return buf


# ---------------------------------------------------------------------------
# chunk sources
# ---------------------------------------------------------------------------

class _Spool:
    """Disk spool for one-shot iterators: written during pass 1,
    replayed as a read-only memmap during pass 2, unlinked on close."""

    def __init__(self, tag: str):
        fd, self.path = _mkstemp(f".{tag}.spool")
        self.file = os.fdopen(fd, "wb")
        self.nbytes = 0

    def append(self, arr: np.ndarray) -> None:
        self.file.write(arr.data)
        self.nbytes += arr.nbytes

    def finish(self, dtype) -> np.ndarray:
        self.file.flush()
        self.file.close()
        try:
            if self.nbytes == 0:
                return np.empty(0, dtype=dtype)
            return np.memmap(self.path, dtype=dtype, mode="r")
        finally:
            os.unlink(self.path)
            self.path = None

    def abort(self) -> None:
        if self.path is not None:
            self.file.close()
            os.unlink(self.path)
            self.path = None


def _is_chunked_source(obj) -> bool:
    """Whether ``obj`` is a chunked key source (callable factory or an
    iterable of chunks) rather than a single in-memory/memmap array."""
    if isinstance(obj, np.ndarray):
        return False
    if callable(obj) or hasattr(obj, "__next__"):
        return True
    # non-array iterables (generators, lists of chunks) stream; scalars
    # and array-likes (lists of numbers) do not — probe the first
    # element kind without consuming anything for common containers
    if isinstance(obj, (list, tuple)):
        return len(obj) > 0 and isinstance(obj[0], np.ndarray)
    return hasattr(obj, "__iter__")


class _ChunkSource:
    """Normalizes the three source kinds behind one two-pass protocol.

    ``passes()`` is called once per pass, twice; each call yields
    ``(key_chunk, value_chunk_or_None)`` pairs. An array source is
    sliced afresh on each pass. Pass 2 of a chunked source is validated
    chunk-by-chunk against pass 1's recorded lengths and dtypes, so a
    callable source that does not replay identically fails loudly
    instead of corrupting the scatter.
    """

    def __init__(self, keys, values, chunk_bytes: int):
        # array-likes of scalars (plain lists; generators are NOT this)
        # behave like the other engines' inputs: one in-memory array
        if isinstance(keys, (list, tuple)) and not _is_chunked_source(keys):
            keys = np.asarray(keys)
        if isinstance(values, (list, tuple)) and not _is_chunked_source(values):
            values = np.asarray(values)
        self.kv = values is not None
        self.chunk_bytes = chunk_bytes
        self.lens: list[int] = []
        self.key_dtype = None
        self.value_dtype = None
        if isinstance(keys, np.ndarray):
            if keys.ndim != 1:
                raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
            if self.kv and not isinstance(values, np.ndarray):
                values = np.asarray(values)
            if self.kv and values.shape != keys.shape:
                raise ValueError(
                    f"values shape {values.shape} must match keys shape "
                    f"{keys.shape}")
            self.kind = "array"
            self.key_dtype = keys.dtype
            self.value_dtype = values.dtype if self.kv else None
        elif callable(keys):
            if self.kv and not callable(values):
                raise TypeError(
                    "a callable key source needs a callable values source "
                    "(both are re-invoked for the scatter pass)")
            self.kind = "callable"
        elif hasattr(keys, "__iter__"):
            if self.kv and (isinstance(values, np.ndarray)
                            or not hasattr(values, "__iter__")):
                raise TypeError(
                    "an iterable key source needs an iterable values source "
                    "yielding chunks of matching lengths")
            self.kind = "iterator"  # spooled to disk for the replay
        else:
            raise TypeError(
                f"keys must be an ndarray, a callable returning chunks, or "
                f"an iterable of chunks; got {type(keys).__name__}")
        self.keys = keys
        self.values = values

    def _raw_chunks(self):
        if self.kind == "array":
            keys, values = self.keys, self.values
            step = max(1, self.chunk_bytes // max(keys.dtype.itemsize, 1))
            for lo in range(0, keys.size, step):
                yield keys[lo:lo + step], values[lo:lo + step] if self.kv else None
            return
        replay = self.kind == "callable"
        kit = iter(self.keys() if replay else self.keys)
        vit = iter(self.values() if replay else self.values) if self.kv else None
        for kchunk in kit:
            vchunk = None
            if vit is not None:
                try:
                    vchunk = next(vit)
                except StopIteration:
                    raise ValueError(
                        "values source ran out of chunks before the keys "
                        "source") from None
            yield kchunk, vchunk
        if vit is not None:
            try:
                next(vit)
            except StopIteration:
                pass
            else:
                raise ValueError(
                    "values source yielded more chunks than the keys source")

    def _check_chunk(self, c: int, kchunk, vchunk):
        kchunk = np.asarray(kchunk)
        if kchunk.ndim != 1:
            raise ValueError(
                f"chunk {c}: key chunks must be 1-D, got shape {kchunk.shape}")
        if self.key_dtype is None:
            self.key_dtype = kchunk.dtype
        elif kchunk.dtype != self.key_dtype:
            raise ValueError(
                f"chunk {c}: key dtype {kchunk.dtype} does not match the "
                f"first chunk's dtype {self.key_dtype} — a chunked source "
                "must yield one consistent dtype")
        if self.kv:
            vchunk = np.asarray(vchunk)
            if vchunk.shape != kchunk.shape:
                raise ValueError(
                    f"chunk {c}: values chunk shape {vchunk.shape} must "
                    f"match keys chunk shape {kchunk.shape}")
            if self.value_dtype is None:
                self.value_dtype = vchunk.dtype
            elif vchunk.dtype != self.value_dtype:
                raise ValueError(
                    f"chunk {c}: values dtype {vchunk.dtype} does not match "
                    f"the first chunk's dtype {self.value_dtype}")
        return (np.ascontiguousarray(kchunk),
                np.ascontiguousarray(vchunk) if self.kv else None)

    def passes(self):
        if self.kind == "array":
            return self._raw_chunks()
        # pass 1 records the chunk lengths (a chunkless source fails it)
        return self._second_pass() if self.lens else self._first_pass()

    def _first_pass(self):
        spool_k = spool_v = None
        if self.kind == "iterator":
            spool_k = _Spool("keys")
            spool_v = _Spool("values") if self.kv else None
        try:
            for c, (kchunk, vchunk) in enumerate(self._raw_chunks()):
                kchunk, vchunk = self._check_chunk(c, kchunk, vchunk)
                self.lens.append(kchunk.size)
                if spool_k is not None and kchunk.size:
                    spool_k.append(kchunk)
                    if spool_v is not None:
                        spool_v.append(vchunk)
                yield kchunk, vchunk
        except BaseException:
            if spool_k is not None:
                spool_k.abort()
            if spool_v is not None:
                spool_v.abort()
            raise
        if self.key_dtype is None:
            raise ValueError(
                "chunked key source yielded no chunks — cannot infer a "
                "key dtype; pass an (empty) ndarray instead")
        if spool_k is not None:
            self._replay_keys = spool_k.finish(self.key_dtype)
            self._replay_values = (spool_v.finish(self.value_dtype)
                                   if spool_v is not None else None)

    def _second_pass(self):
        if self.kind == "iterator":
            lo = 0
            for ln in self.lens:
                sl = slice(lo, lo + ln)
                yield (self._replay_keys[sl],
                       self._replay_values[sl] if self.kv else None)
                lo += ln
            return
        c = -1
        for c, (kchunk, vchunk) in enumerate(self._raw_chunks()):
            if c >= len(self.lens):
                raise ValueError(
                    "chunked source changed between passes: it yielded more "
                    f"chunks on replay than the {len(self.lens)} recorded")
            kchunk, vchunk = self._check_chunk(c, kchunk, vchunk)
            if kchunk.size != self.lens[c]:
                raise ValueError(
                    f"chunked source changed between passes: chunk {c} "
                    f"replayed with {kchunk.size} keys, recorded "
                    f"{self.lens[c]} — a callable source must yield "
                    "identical chunks on every invocation")
            yield kchunk, vchunk
        if c + 1 < len(self.lens):  # only a callable source gets here
            raise ValueError(
                "chunked source changed between passes: replay ended after "
                f"{c + 1} chunks, recorded {len(self.lens)}")


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def stream_multisplit(keys, spec_or_fn, num_buckets: int | None = None, *,
                      values=None, method: str = "auto",
                      workspace: Workspace | None = None,
                      chunk_bytes: int | None = None,
                      max_workers: int | None = None, backend=None,
                      out: np.ndarray | None = None,
                      out_values: np.ndarray | None = None,
                      strict: bool = False,
                      **kwargs) -> MultisplitResult:
    """Out-of-core streamed multisplit, bit-identical to ``engine="fast"``.

    Parameters
    ----------
    keys:
        An ``np.ndarray`` / ``np.memmap``, a zero-argument callable
        returning an iterable of 1-D chunks (invoked once per pass), or
        a one-shot iterable of chunks (spooled to disk for the second
        pass). Chunked sources require an elementwise bucket spec.
    values:
        Same kind as ``keys`` (or ``None``); chunk lengths must match.
    chunk_bytes:
        Byte budget for one super-shard of keys (default
        :data:`DEFAULT_CHUNK_BYTES`). Peak scratch is
        ``O(chunk_bytes + m * shards)``; results never depend on it.
    out, out_values:
        Optional preallocated 1-D output arrays (e.g. writable
        memmaps) of length ``n`` and matching dtype. Without them the
        engine allocates via :func:`stream_buffer` (RAM below
        :data:`MEMMAP_OUT_THRESHOLD`, unlinked temp memmaps above).
        Stream outputs are never pooled in ``workspace``.
    max_workers, backend, workspace:
        As in :func:`~repro.engine.sharded_multisplit`: worker threads
        for the two local phases, the per-shard kernel backend, and the
        scratch arena recycled across chunks. None of them affect
        results.
    strict:
        Run the :func:`~repro.multisplit.validate.validate_spec`
        battery on the spec before streaming. Requires an
        ndarray/memmap key source — chunked sources are one-shot and
        cannot be sampled without consuming them.

    Only the stable method family is supported; the launch-shape
    ``kwargs`` of the emulated engine are accepted and ignored.
    """
    spec, method = resolve_call("stream", spec_or_fn, num_buckets, method,
                                keys, strict)
    if not spec.elementwise:
        raise ValueError(
            "engine='stream' evaluates the bucket spec chunk-by-chunk and "
            "therefore requires an elementwise spec "
            f"(got {type(spec).__name__} with elementwise=False); "
            "use engine='sharded' or engine='fast' for whole-array specs")
    m = spec.num_buckets
    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    chunk_bytes = int(chunk_bytes)
    if chunk_bytes < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")

    workers = _resolve_workers(max_workers)
    bk = resolve_backend(backend)
    ws = workspace if workspace is not None else Workspace()
    source = _ChunkSource(keys, values, chunk_bytes)

    reg = get_registry()
    reg.inc("engine.stream.calls", 1, method=method)
    reg.inc("engine.backend.calls", 1, backend=bk.name, engine="stream")
    if reg.enabled:
        reg.inc("engine.stream.buckets", m, method=method)
        reg.set_gauge("engine.stream.workers", workers, method=method)
        reg.set_gauge("engine.stream.chunk_bytes", chunk_bytes, method=method)
        reg.set_gauge("engine.backend.name", 1, backend=bk.name)

    def chunks():
        for kchunk, vchunk in source.passes():
            yield coerce_and_check(kchunk, vchunk, method, m)

    def outputs(n):
        out_keys = _resolve_out(out, "out", n, source.key_dtype)
        if source.kv:
            return out_keys, _resolve_out(out_values, "out_values", n,
                                          source.value_dtype)
        if out_values is not None:
            raise ValueError("out_values was given but values is None")
        return out_keys, None

    with reg.timer("engine.stream.run_ms", method=method, kv=source.kv).time():
        res, (num_chunks, shards, cached) = run_pipeline(
            "stream", chunks, spec, method, bk, workers=workers,
            shards_of=_chunk_shards, ws=ws, out_ws=ws, alloc_out=outputs,
            ids_budget=chunk_bytes)
    out_memmap = isinstance(res.keys, np.memmap)
    res.extra.update(chunks=num_chunks, shards=shards, workers=workers,
                     chunk_bytes=chunk_bytes, out_memmap=out_memmap)
    if reg.enabled:
        reg.inc("engine.stream.keys", res.keys.size, method=method)
        reg.inc("engine.stream.chunks", num_chunks, method=method)
        reg.set_gauge("engine.stream.shards", shards, method=method)
        reg.set_gauge("engine.stream.ids_cached_bytes", cached, method=method)
        reg.set_gauge("engine.stream.out_memmap", int(out_memmap),
                      method=method)
        if source.kind == "iterator":
            reg.inc("engine.stream.spool_bytes", res.keys.nbytes)
    return res


def _chunk_shards(n_chunk: int) -> tuple[int, int]:
    """Shard count and shard size for one chunk (cache-resident shards,
    same target as the sharded engine)."""
    P_c = -(-n_chunk // DEFAULT_SHARD_KEYS) if n_chunk else 0
    csize = -(-n_chunk // P_c) if P_c else 0
    return P_c, csize


def _resolve_out(buf, name: str, n: int, dtype) -> np.ndarray:
    if buf is None:
        return stream_buffer(n, dtype)
    if not isinstance(buf, np.ndarray):
        raise TypeError(f"{name} must be a 1-D ndarray, got "
                        f"{type(buf).__name__}")
    if buf.ndim != 1 or buf.size != n:
        raise ValueError(
            f"{name} must be 1-D with {n} elements, got shape {buf.shape}")
    if buf.dtype != np.dtype(dtype):
        raise ValueError(f"{name} dtype {buf.dtype} must match the source "
                         f"dtype {np.dtype(dtype)}")
    if not buf.flags.writeable:
        raise ValueError(f"{name} must be writable")
    return buf
