"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans.

A span is named ``<layer>.<function>``. The layers are the program's
modules: ``api`` (multisplit/api.py), ``bucketing``, ``backends``,
``sharded``, ``fused``, ``stream``, ``engine`` (engine/batch.py),
``validate``, ``protocol``. ``workspace`` and ``coalescer`` are read
from the program's own counters instead of spans.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from spans import (children_of, descendants, self_times, union_length,
                   wall_shares)

#: Layers whose spans are the stages of one engine call; the rest of an
#: engine call's wall time is unattributed.
STAGE_LAYERS = ("bucketing", "backends")
STAGE_SPANS = ("sharded.scan_offsets",)

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    "bucketing.eval_ns_per_key": "ns/key",
    "bucketing.from_sample_ms": "ms",
    "bucketing.max_mean_ratio": "ratio",
    "backends.prescan_ns_per_key": "ns/key",
    "backends.scatter_ns_per_key": "ns/key",
    "backends.scatter_sol_frac": "ratio",
    "backends.calls_per_op": "count",
    "sharded.scan_ms": "ms",
    "sharded.unattributed_ms": "ms",
    "sharded.worker_busy_frac": "ratio",
    "fused.us_per_call": "us",
    "api.engine_share.fast": "ratio",
    "api.engine_share.sharded": "ratio",
    "api.engine_share.stream": "ratio",
    "api.auto_regret": "ratio",
    "workspace.peak_mib": "MiB",
    "validate.us_per_req": "us",
    "protocol.decode_ns_per_key": "ns/key",
    "protocol.encode_ns_per_key": "ns/key",
    "coalescer.batch_size_mean": "count",
    "coalescer.fused_frac": "ratio",
    "engine.batch_ms": "ms",
    "service.server_p50_ms": "ms",
    "service.server_p99_ms": "ms",
    "service.rejected": "count",
    "service.outside_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def _size(x) -> int:
    return int(getattr(x, "size", 0) or 0)


def _result_keys(_a, _k, r) -> int:
    return _size(r.keys)


def _arg_keys(i):
    return lambda a, _k, _r: _size(a[i])


def _scatter_count(a, _k, _r):
    # keys/values are read once and written once: the computed bytes of
    # the postscan in the §6.2.2 model (3 or 5 accesses per element,
    # minus the prescan's one read of the keys)
    keys, values = a[1], a[2]
    moved = keys.nbytes + (values.nbytes if values is not None else 0)
    return _size(keys), 2 * moved


def _decoded_keys(a, k, r) -> int:
    return _size(r) if k.get("what", "keys") == "keys" else 0


def _batch_keys(a, _k, _r) -> int:
    return sum(_size(x) for x in a[0])


def library_targets():
    """Wrap targets for the engine path, as ``spans.install`` takes them."""
    import repro
    # ``repro.multisplit`` is the function, which shadows the subpackage
    # of that name as an attribute, so modules are looked up by name
    engine, fused, sharded, stream, api = map(importlib.import_module, (
        "repro.engine", "repro.engine.fused", "repro.engine.sharded",
        "repro.engine.stream", "repro.multisplit.api"))
    from repro.engine.backends.base import KernelBackend
    from repro.engine.backends.numpy_backend import NumpyBackend
    from repro.multisplit.bucketing import (BucketSpec, IdentityBuckets,
                                            RangeBuckets, SplitterBuckets)

    out = [
        (repro, "multisplit", "api.multisplit", _result_keys, False),
        (api, "multisplit", "api.multisplit", _result_keys, False),
        (engine, "fast_multisplit", "fused.fast_multisplit", _result_keys, False),
        (fused, "fast_multisplit", "fused.fast_multisplit", _result_keys, False),
        (engine, "sharded_multisplit", "sharded.sharded_multisplit",
         _result_keys, True),
        (sharded, "sharded_multisplit", "sharded.sharded_multisplit",
         _result_keys, True),
        (engine, "stream_multisplit", "stream.stream_multisplit",
         _result_keys, True),
        (stream, "stream_multisplit", "stream.stream_multisplit",
         _result_keys, True),
        (sharded, "scan_offsets", "sharded.scan_offsets", None, False),
        (NumpyBackend, "prescan", "backends.prescan", _arg_keys(1), False),
        (KernelBackend, "hist", "backends.hist", _arg_keys(1), False),
        (NumpyBackend, "scatter", "backends.scatter", _scatter_count, False),
        (BucketSpec, "from_sample", "bucketing.from_sample", _arg_keys(1), False),
        (BucketSpec, "eval_into", "bucketing.eval", _arg_keys(1), False),
        (BucketSpec, "__call__", "bucketing.eval", _arg_keys(1), False),
    ]
    for cls in (RangeBuckets, IdentityBuckets, SplitterBuckets):
        for attr in ("ids", "eval_into"):
            out.append((cls, attr, "bucketing.eval", _arg_keys(1), False))
    return out


def service_targets():
    """Wrap targets for the service path (installed in the server)."""
    validate, protocol, service = map(importlib.import_module, (
        "repro.multisplit.validate", "repro.service.protocol",
        "repro.service.service"))

    return [
        (protocol, "parse_request_line", "protocol.decode", None, False),
        (protocol, "array_from_json", "protocol.decode", _decoded_keys, False),
        (protocol, "multisplit_response", "protocol.encode",
         lambda a, _k, _r: _size(a[1].keys), False),
        (protocol, "sort_response", "protocol.encode", _arg_keys(1), False),
        (protocol, "encode_line", "protocol.encode", None, False),
        (service, "validate_spec", "validate.validate_spec", _arg_keys(1), False),
        (validate, "validate_spec", "validate.validate_spec", _arg_keys(1), False),
        (service, "coalesced_multisplit_batch", "engine.batch", _batch_keys, False),
        (service, "multisplit_batch", "engine.batch", _batch_keys, False),
    ]


def _outermost(spans, name_pred):
    """Spans matching ``name_pred`` whose parent does not match it."""
    return [s for s in spans if name_pred(s.name)
            and not (s.parent is not None and name_pred(s.parent.name))]


def _per_key_ns(spans, selfs, name_pred) -> float:
    matching = [s for s in spans if name_pred(s.name)]
    keys = sum(s.keys for s in _outermost(spans, name_pred))
    busy = sum(selfs[id(s)] for s in matching)
    return busy / keys if keys else 0.0


def _mean_dur(spans, name, scale) -> float:
    durs = [s.dur for s in spans if s.name == name]
    return sum(durs) / len(durs) / scale if durs else 0.0


def _is_kernel(span) -> bool:
    return layer(span.name) in STAGE_LAYERS


def is_stage(span) -> bool:
    return _is_kernel(span) or span.name in STAGE_SPANS


def sharded_accounting(spans):
    """Per sharded engine call: ``(wall_ns, unattributed_ns, shares)``.

    The wall is that of the ``api.multisplit`` call that dispatched to
    the sharded engine. Unattributed time is the wall minus the union of
    stage spans below it. ``shares`` splits the whole wall among the
    stage layers and ``"unattributed"``; they sum to the wall.
    """
    kids = children_of(spans)
    rows = []
    for s in spans:
        if s.name != "sharded.sharded_multisplit":
            continue
        root = s.parent if (s.parent is not None
                            and s.parent.name == "api.multisplit") else s
        stages = [d for d in descendants(root, kids) if is_stage(d)]
        covered = union_length(((d.t0, d.t1) for d in stages), root.t0, root.t1)
        rows.append((root.dur, root.dur - covered,
                     wall_shares(root, kids, _book)))
    return rows


def _book(span) -> str:
    if not is_stage(span):
        return "unattributed"
    return span.name if span.name in STAGE_SPANS else layer(span.name)


def summarize(spans, *, ops: int = 0, memcpy_gbps: float = 0.0) -> dict:
    """Span-derived per-layer metrics; a layer with no spans reads 0."""
    selfs = self_times(spans)
    kids = children_of(spans)
    m = {}
    m["bucketing.eval_ns_per_key"] = _per_key_ns(
        spans, selfs, lambda n: n == "bucketing.eval")
    m["bucketing.from_sample_ms"] = _mean_dur(spans, "bucketing.from_sample", 1e6)
    m["backends.prescan_ns_per_key"] = _per_key_ns(
        spans, selfs, lambda n: n in ("backends.prescan", "backends.hist"))
    m["backends.scatter_ns_per_key"] = _per_key_ns(
        spans, selfs, lambda n: n == "backends.scatter")

    scatters = [s for s in spans if s.name == "backends.scatter"]
    moved = sum(s.nbytes for s in scatters)
    busy_ns = sum(selfs[id(s)] for s in scatters)
    # memcpy_gbps is bytes per ns; computed bytes over the time a copy
    # at that bandwidth would need
    m["backends.scatter_sol_frac"] = (moved / memcpy_gbps / busy_ns
                                      if busy_ns and memcpy_gbps else 0.0)
    backend_calls = sum(1 for s in spans if layer(s.name) == "backends")
    m["backends.calls_per_op"] = backend_calls / ops if ops else 0.0

    shardeds = [s for s in spans if s.name == "sharded.sharded_multisplit"]
    scan_ns = sum(s.dur for s in spans if s.name == "sharded.scan_offsets")
    m["sharded.scan_ms"] = scan_ns / len(shardeds) / 1e6 if shardeds else 0.0
    rows = sharded_accounting(spans)
    m["sharded.unattributed_ms"] = (sum(r[1] for r in rows) / len(rows) / 1e6
                                    if rows else 0.0)
    busy, capacity = 0, 0
    for s in shardeds:
        # the per-shard kernels, outermost only; the scan runs on the
        # coordinating thread and is not worker time
        kernels = [d for d in descendants(s, kids) if _is_kernel(d)
                   and not (d.parent is not None and _is_kernel(d.parent))]
        workers = len({d.tid for d in kernels}) or 1
        busy += sum(d.dur for d in kernels)
        capacity += workers * s.dur
    m["sharded.worker_busy_frac"] = busy / capacity if capacity else 0.0
    m["fused.us_per_call"] = _mean_dur(spans, "fused.fast_multisplit", 1e3)

    m["validate.us_per_req"] = _mean_dur(spans, "validate.validate_spec", 1e3)
    m["protocol.decode_ns_per_key"] = _per_key_ns(
        spans, selfs, lambda n: n == "protocol.decode")
    m["protocol.encode_ns_per_key"] = _per_key_ns(
        spans, selfs, lambda n: n == "protocol.encode")
    m["engine.batch_ms"] = _mean_dur(spans, "engine.batch", 1e6)
    return m


def layer_totals(spans) -> dict:
    """``layer -> (calls, self ms)`` for the human-readable report."""
    selfs = self_times(spans)
    out = defaultdict(lambda: [0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += selfs[id(s)] / 1e6
    return {k: tuple(v) for k, v in sorted(out.items())}
