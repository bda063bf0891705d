"""Batched multisplit dispatch over a shared workspace and worker pool.

Serving-style workloads (ROADMAP's north star) rarely issue one giant
multisplit; they issue *many independent ones* — per shard, per query,
per SSSP window. ``multisplit_batch`` runs a whole batch through
:func:`~repro.multisplit.multisplit` with scratch reuse, striping the
fast engine's items over the engines' one process-wide worker pool
when the batch is large enough to amortize it (numpy releases the GIL
in the sort/gather kernels that dominate the fast path, so threads
genuinely overlap).

Results in a batch must all outlive the call, so output buffers are
never pooled here; a caller-provided :class:`Workspace` must therefore
be created with ``reuse_outputs=False`` (scratch-only pooling).
"""

from __future__ import annotations

import numpy as np

from repro.multisplit.bucketing import as_bucket_spec
from repro.multisplit.result import MultisplitResult
from repro.obs import get_registry
from .sharded import fan_out, pool_width
from .workspace import Workspace

__all__ = ["multisplit_batch", "coalesced_multisplit_batch"]

# fan out only when there is enough total work for thread startup to pay off
_MIN_PARALLEL_KEYS = 1 << 18
_MIN_PARALLEL_ITEMS = 4


def _resolve_batch(keys_batch, values_batch, spec_or_fn, num_buckets):
    """Batch items as lists: keys, values (``None`` entries for key-only
    items) and one spec per item (a single spec/callable is shared)."""
    keys_batch = list(keys_batch)
    count = len(keys_batch)
    values_batch = [None] * count if values_batch is None else list(values_batch)
    if len(values_batch) != count:
        raise ValueError(
            f"got {len(values_batch)} value arrays for a batch of {count} inputs")
    if isinstance(spec_or_fn, (list, tuple)):
        if len(spec_or_fn) != count:
            raise ValueError(
                f"got {len(spec_or_fn)} specs for a batch of {count} inputs")
        specs = [as_bucket_spec(s, num_buckets) for s in spec_or_fn]
    else:
        specs = [as_bucket_spec(spec_or_fn, num_buckets)] * count
    return keys_batch, values_batch, specs


def coalesced_multisplit_batch(keys_batch, spec_or_fn,
                               num_buckets: int | None = None, *,
                               values_batch=None, method="auto",
                               workspace: Workspace | None = None,
                               ) -> list[MultisplitResult]:
    """Fuse a batch of small multisplits into ONE composite dispatch.

    This is the paper's batching argument applied to the kernels
    themselves: instead of launching one {local, global, local} pass per
    item (each paying the fixed per-call cost that dominates at small
    ``n``), relabel item ``i``'s bucket ids into the disjoint composite
    range ``[offset_i, offset_i + m_i)`` and run a *single* stable pass
    over the concatenation. Because composite ids are grouped by item
    first, the stable permutation restricted to item ``i``'s segment is
    exactly that item's own stable multisplit permutation — results are
    bit-identical to per-item :func:`fast_multisplit` calls, while the
    histogram/scan/scatter cost is paid once for the whole batch.

    Constraints (``ValueError`` when unmet — check them up front and
    send other batches to :func:`multisplit_batch`):

    * every item's resolved method must be in the stable family (the
      bit-identical guarantee is a stable-family property);
    * all key arrays must share one dtype (they are concatenated).

    Per-item ``bucket_starts``/``values`` are freshly allocated;
    ``keys`` are zero-copy views into one shared output array, which
    stays alive while any result does. ``workspace`` (scratch-only,
    ``reuse_outputs=False``) pools the concatenation buffers.
    """
    from .backends import narrow_ids_dtype
    from repro.multisplit.api import _pick_auto
    from .fused import STABLE_METHODS, coerce_and_check

    keys_batch, values_batch, specs = _resolve_batch(
        keys_batch, values_batch, spec_or_fn, num_buckets)
    count = len(keys_batch)
    if workspace is not None and workspace.reuse_outputs:
        raise ValueError(
            "coalesced_multisplit_batch needs a Workspace("
            "reuse_outputs=False): batched results must all outlive the call")
    if count == 0:
        return []

    method = getattr(method, "value", method)
    methods = [_pick_auto(spec.num_buckets).value if method == "auto" else method
               for spec in specs]
    for i, (spec, resolved) in enumerate(zip(specs, methods)):
        if resolved not in STABLE_METHODS:
            raise ValueError(
                f"coalesced dispatch covers the stable method family "
                f"({', '.join(sorted(STABLE_METHODS))}); got {resolved!r}")
        keys_batch[i], values_batch[i] = coerce_and_check(
            keys_batch[i], values_batch[i], resolved, spec.num_buckets)
    key_dtype = keys_batch[0].dtype
    if any(k.dtype != key_dtype for k in keys_batch):
        raise ValueError(
            "coalesced dispatch concatenates keys and therefore needs one "
            "uniform keys dtype across the batch")

    sizes = [k.size for k in keys_batch]
    total = sum(sizes)
    total_m = sum(s.num_buckets for s in specs)
    # narrow composite ids: the stable argsort's passes scale with width
    id_dtype = narrow_ids_dtype(total_m)

    reg = get_registry()
    reg.inc("batch.coalesced.calls")
    if reg.enabled:
        reg.inc("batch.coalesced.items", count)
        reg.inc("batch.coalesced.keys", total)

    if workspace is not None:
        ids = workspace.take("coalesce.ids", total, id_dtype)
        all_keys = workspace.take("coalesce.keys", total, key_dtype)
    else:
        ids = np.empty(total, id_dtype)
        all_keys = np.empty(total, key_dtype)

    # {local}: per-item labels, shifted into disjoint composite ranges
    off = 0
    base = 0
    for k, spec in zip(keys_batch, specs):
        n = k.size
        seg = ids[off:off + n]
        np.copyto(seg, spec(k), casting="unsafe")
        if base:
            seg += id_dtype(base)
        all_keys[off:off + n] = k
        off += n
        base += spec.num_buckets

    # {global}: one histogram + scan + stable permutation for everyone
    counts = np.bincount(ids, minlength=total_m)
    bounds = np.empty(total_m + 1, np.int64)
    bounds[0] = 0
    np.cumsum(counts, out=bounds[1:])
    order = np.argsort(ids, kind="stable")
    out_keys = all_keys[order]

    # {local}: slice each item's segment back out (stable order within a
    # segment == that item's own stable multisplit permutation)
    results = []
    off = 0
    base = 0
    for i in range(count):
        n = sizes[i]
        m_i = specs[i].num_buckets
        starts = bounds[base:base + m_i + 1] - off
        out_values = None
        if values_batch[i] is not None:
            local = order[off:off + n] - off
            out_values = values_batch[i][local]
        results.append(MultisplitResult(
            keys=out_keys[off:off + n], values=out_values,
            bucket_starts=starts, method=methods[i], num_buckets=m_i,
            timeline=None, stable=True,
            extra={"engine": "fast", "backend": "numpy",
                   "coalesced": count}))
        off += n
        base += m_i
    return results


def multisplit_batch(keys_batch, spec_or_fn, num_buckets: int | None = None, *,
                     values_batch=None, method="auto", engine: str = "fast",
                     workspace: Workspace | None = None, device=None,
                     max_workers: int | None = None, shards: int | None = None,
                     backend=None, **kwargs) -> list[MultisplitResult]:
    """Run many independent multisplits; returns results in batch order.

    Every item is one :func:`~repro.multisplit.multisplit` call, so the
    engine and knob checks are that function's.

    Parameters
    ----------
    keys_batch:
        Sequence of 1-D key arrays (sizes may differ).
    spec_or_fn:
        One :class:`BucketSpec`/callable shared by every item, or a
        sequence of them (one per item).
    values_batch:
        Optional sequence aligned with ``keys_batch``; entries may be
        ``None`` for key-only items.
    engine:
        ``"fast"`` (default: fused result-only kernels, items striped
        over the engines' shared worker pool for large batches),
        ``"sharded"`` (items sequential, each call shard-parallel
        *inside* — the right shape for a few huge items), ``"stream"``
        (items sequential through the out-of-core streamed engine;
        items may be memmaps or chunked sources and per-item
        ``chunk_bytes=`` is forwarded), ``"auto"`` (per-item choice
        among the result-only engines by item kind/size), or
        ``"emulate"`` (sequential, full timelines).
    workspace:
        Optional scratch arena for the result-only engines; must have
        ``reuse_outputs=False`` because every result in the batch must
        survive the call. On the fast engine's parallel path the
        calling thread's stripe uses it and every other stripe a
        sub-arena of it; sequential paths use it for every item.
        Ignored with ``engine="emulate"``.
    max_workers:
        With ``engine="fast"``, caps the stripe count (default: the
        shared pool's width, one thread per CPU); ``0`` or ``1`` forces
        sequential execution. With ``engine="sharded"``/``"stream"``/
        ``"auto"`` it is forwarded to every call as the per-call worker
        cap (items already run sequentially).
    shards:
        Shard count forwarded to every call (``engine="sharded"`` or
        ``"auto"`` only, as for :func:`~repro.multisplit.multisplit`).
    backend:
        Kernel backend forwarded to every call (name, ``"auto"``, or
        instance — see :mod:`repro.engine.backends`). Rejected with
        ``engine="emulate"``.
    """
    from repro.multisplit.api import multisplit

    keys_batch, values_batch, specs = _resolve_batch(
        keys_batch, values_batch, spec_or_fn, num_buckets)
    count = len(keys_batch)

    reg = get_registry()
    reg.inc("batch.calls", 1, engine=engine)
    reg.inc("batch.items", count, engine=engine)

    ws = None  # the emulator's padding arrays are not pooled here
    if engine != "emulate":
        if workspace is not None and workspace.reuse_outputs:
            raise ValueError(
                "multisplit_batch needs a Workspace(reuse_outputs=False): "
                "batched results must all outlive the call, so outputs "
                "cannot be pooled")
        ws = workspace if workspace is not None else Workspace(reuse_outputs=False)
    if engine in ("sharded", "stream", "auto"):
        # items run sequentially; each call parallelizes internally
        kwargs["max_workers"] = max_workers

    stripes = 1
    if engine == "fast":
        total_keys = sum(np.asarray(k).size for k in keys_batch)
        if count >= _MIN_PARALLEL_ITEMS and total_keys >= _MIN_PARALLEL_KEYS:
            stripes = min(pool_width(), count)
            if max_workers is not None:
                stripes = max(1, min(stripes, max_workers))
        if reg.enabled:
            reg.inc("batch.keys", total_keys, engine=engine)
            reg.set_gauge("batch.fan_out", count)
            reg.set_gauge("batch.parallel", int(stripes > 1))
            reg.gauge("batch.max_concurrency").record_max(stripes)

    # stripe w runs items w, w + stripes, ... like run_pipeline's shards:
    # stripe 0 on the calling thread with the caller's arena
    arenas = [ws] + [ws.subarena(f"batch-stripe{w}") for w in range(1, stripes)]
    item_timer = reg.timer("batch.item_ms")
    results = [None] * count

    def stripe(w):
        for i in range(w, count, stripes):
            with item_timer.time():
                results[i] = multisplit(
                    keys_batch[i], specs[i], values=values_batch[i],
                    method=method, engine=engine, workspace=arenas[w],
                    device=device, shards=shards, backend=backend, **kwargs)

    fan_out(stripe, stripes)
    return results
