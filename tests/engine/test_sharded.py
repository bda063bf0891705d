"""Sharded-engine fuzz: engine="sharded" must match engine="emulate" bit
for bit for every stable method, across chunk-boundary shapes (n not
divisible by P, n < P, P = 1, empty, all-one-bucket, presorted), for
key-only and key-value calls and 32/64-bit keys — and its results must
be invariant to ``max_workers``.
"""

import numpy as np
import pytest

from repro.engine import (
    STABLE_METHODS,
    Workspace,
    check_engine_parity,
    sharded_multisplit,
)
from repro.engine.sharded import MAX_SHARDS, SHARDED_AUTO_MIN_N
from repro.multisplit import (
    CustomBuckets,
    DeltaBuckets,
    RangeBuckets,
    multisplit,
    multisplit_batch,
)
from repro.obs import collecting
from repro.simt.config import WARP_WIDTH

STABLE = sorted(STABLE_METHODS)
N = 1010  # off the tile grid so padding paths run


def applicable(method: str, m: int) -> bool:
    if method == "warp":
        return m <= WARP_WIDTH
    if method == "scan_split":
        return m == 2
    return True


def make_case(distribution: str, m: int, n: int = N, seed: int = 0):
    rng = np.random.default_rng(seed + 7 * m)
    if distribution == "uniform":
        return rng.integers(0, 2**32, n, dtype=np.uint32), RangeBuckets(m)
    if distribution == "skewed":
        keys = rng.integers(0, 2**26, n, dtype=np.uint32)
        return keys, RangeBuckets(m)
    keys = rng.integers(0, 50_000, n, dtype=np.uint32)
    return keys, DeltaBuckets(997.25, m)


class TestShardedEmulateParity:
    """Bit-parity against the paper-faithful emulation."""

    @pytest.mark.parametrize("m", [1, 2, 8, 32, 200])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_value_uniform(self, method, m):
        if not applicable(method, m):
            pytest.skip(f"{method} does not support m={m}")
        keys, spec = make_case("uniform", m)
        values = np.arange(keys.size, dtype=np.uint32)
        check_engine_parity(keys, spec, values=values, method=method,
                            engine="sharded", shards=7)

    @pytest.mark.parametrize("distribution", ["skewed", "delta"])
    @pytest.mark.parametrize("method", STABLE)
    def test_key_only_distributions(self, method, distribution):
        m = 2 if method == "scan_split" else 32
        keys, spec = make_case(distribution, m)
        check_engine_parity(keys, spec, method=method,
                            engine="sharded", shards=3)

    @pytest.mark.parametrize("method", ["direct", "block"])
    def test_uint64_keys(self, method):
        keys = np.random.default_rng(13).integers(0, 2**32, 600).astype(np.uint64)
        check_engine_parity(keys, RangeBuckets(8), method=method,
                            engine="sharded", shards=5)

    def test_empty_and_single_element(self):
        for n in (0, 1):
            keys = np.full(n, 7, dtype=np.uint32)
            check_engine_parity(keys, RangeBuckets(8), method="block",
                                engine="sharded", shards=4)

    def test_all_one_bucket_and_presorted(self):
        keys = np.full(517, 3, dtype=np.uint32)
        values = np.arange(517, dtype=np.uint32)
        check_engine_parity(keys, RangeBuckets(8), values=values,
                            method="block", engine="sharded", shards=6)
        presorted = np.sort(
            np.random.default_rng(1).integers(0, 2**32, 2048, dtype=np.uint32))
        check_engine_parity(presorted, RangeBuckets(16), method="block",
                            engine="sharded", shards=6)

    def test_non_elementwise_spec_evaluated_globally(self):
        # a whole-array-dependent bucketing: per-shard evaluation would
        # give different ids, so the engine must fall back to one global
        # spec call to keep the bit-identity guarantee
        keys = np.random.default_rng(3).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(
            lambda ks: (ks > ks.mean()).astype(np.uint32), num_buckets=2)
        assert not spec.elementwise
        check_engine_parity(keys, spec, method="block",
                            engine="sharded", shards=8)

    def test_elementwise_custom_spec(self):
        keys = np.random.default_rng(4).integers(0, 2**32, 3000, dtype=np.uint32)
        spec = CustomBuckets(lambda ks: (ks % 5).astype(np.uint32),
                             num_buckets=5, elementwise=True)
        assert spec.elementwise
        check_engine_parity(keys, spec, method="block",
                            engine="sharded", shards=8)


class TestChunkBoundaries:
    """Shard-count fuzz against engine="fast" (itself emulate-parity
    checked), covering every boundary shape cheaply."""

    @pytest.mark.parametrize("n", [1, 5, 100, 1010, 4099])
    @pytest.mark.parametrize("shards", [None, 1, 2, 3, 16, MAX_SHARDS])
    def test_shard_count_fuzz(self, n, shards):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 2**32, n, dtype=np.uint32)
        values = np.arange(n, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(32), values=values,
                         method="block", engine="fast")
        res = sharded_multisplit(keys, RangeBuckets(32), values=values,
                                 method="block", shards=shards)
        assert np.array_equal(ref.keys, res.keys)
        assert np.array_equal(ref.values, res.values)
        assert np.array_equal(ref.bucket_starts, res.bucket_starts)
        # n < P must clamp instead of erroring
        assert res.extra["shards"] <= max(n, 1)

    def test_shards_validation(self):
        keys = np.arange(16, dtype=np.uint32)
        with pytest.raises(ValueError, match="shards"):
            sharded_multisplit(keys, RangeBuckets(4), shards=0)

    def test_shards_above_cap_rejected(self):
        # an explicit shards= past MAX_SHARDS would grow the
        # (shards x m) count matrix without bound
        keys = np.arange(1 << 16, dtype=np.uint32)
        with pytest.raises(ValueError, match=f"MAX_SHARDS={MAX_SHARDS}"):
            sharded_multisplit(keys, RangeBuckets(256), shards=1 << 16)
        with pytest.raises(ValueError, match=f"MAX_SHARDS={MAX_SHARDS}"):
            multisplit(keys, RangeBuckets(4), engine="auto",
                       shards=MAX_SHARDS + 1)


class TestDeterminism:
    """The thread-scaling smoke test: results must be bit-identical for
    every ``max_workers`` value (1 vs 4 especially — no drift)."""

    def test_worker_count_never_changes_results(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**32, 200_000, dtype=np.uint32)
        values = np.arange(keys.size, dtype=np.uint32)
        baseline = None
        for workers in (1, 2, 4):
            res = sharded_multisplit(keys, RangeBuckets(32), values=values,
                                     method="block", max_workers=workers)
            if baseline is None:
                baseline = res
            else:
                assert np.array_equal(baseline.keys, res.keys)
                assert np.array_equal(baseline.values, res.values)
                assert np.array_equal(baseline.bucket_starts, res.bucket_starts)

    def test_repeated_calls_reuse_worker_threads(self):
        import threading
        keys = np.random.default_rng(8).integers(0, 2**32, 100_000,
                                                 dtype=np.uint32)
        sharded_multisplit(keys, RangeBuckets(16), method="block",
                           max_workers=2)
        threads = threading.active_count()
        for _ in range(5):
            sharded_multisplit(keys, RangeBuckets(16), method="block",
                               max_workers=2)
            assert threading.active_count() == threads

    def test_concurrent_callers_share_the_pool(self):
        # more callers and workers than cores, switching threads often:
        # every sharded call and every batch item must still come back
        # with the fast engine's bytes
        import sys
        import threading
        rng = np.random.default_rng(12)
        keys = rng.integers(0, 2**32, 60_000, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(16), method="block", engine="fast")
        oks, errors = [], []

        def sharded(workers):
            for _ in range(3):
                res = sharded_multisplit(keys, RangeBuckets(16), method="block",
                                         max_workers=workers)
                oks.append(np.array_equal(res.keys, ref.keys))

        def batch():
            for res in multisplit_batch([keys] * 12, RangeBuckets(16),
                                        method="block", max_workers=8):
                oks.append(np.array_equal(res.keys, ref.keys))

        def guarded(fn, *args):
            try:
                fn(*args)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=guarded, args=(sharded, w))
                       for w in (2, 3, 5, 8)]
            threads.append(threading.Thread(target=guarded, args=(batch,)))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(oks) == 4 * 3 + 12 and all(oks)

    def test_caller_keeps_its_pool_while_another_call_runs(self, monkeypatch):
        # force the interleaving: after the first caller is handed the
        # pool, and before it submits, a wider call runs to completion.
        # The pool the first caller holds must still take its stripes.
        import repro.engine.sharded as sharded_mod
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 2**32, 100_000, dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(16), method="block", engine="fast")
        real = sharded_mod._worker_pool
        interleaved = []

        def worker_pool(*args):
            pool = real(*args)
            if not interleaved:
                interleaved.append(True)
                wide = sharded_mod.sharded_multisplit(
                    keys, RangeBuckets(16), method="block", shards=64,
                    max_workers=64)
                assert np.array_equal(wide.keys, ref.keys)
            return pool

        monkeypatch.setattr(sharded_mod, "_worker_pool", worker_pool)
        res = sharded_multisplit(keys, RangeBuckets(16), method="block",
                                 max_workers=2)
        assert interleaved
        assert np.array_equal(res.keys, ref.keys)

    def test_worker_threads_capped_at_cpu_count(self):
        import os
        import threading
        keys = np.random.default_rng(14).integers(0, 2**32, 100_000,
                                                  dtype=np.uint32)
        ref = multisplit(keys, RangeBuckets(16), method="block", engine="fast")
        res = sharded_multisplit(keys, RangeBuckets(16), method="block",
                                 shards=256, max_workers=256)
        assert np.array_equal(res.keys, ref.keys)
        pool_threads = [t for t in threading.enumerate()
                        if t.name.startswith("repro-shard")]
        assert 1 <= len(pool_threads) <= (os.cpu_count() or 1)

    def test_spec_calling_back_into_the_engine_does_not_deadlock(self):
        # a stripe on a pool thread that runs another sharded call must
        # not wait on the pool it occupies; a child process, because a
        # deadlocked pool would also hang the interpreter's exit
        import subprocess
        import sys
        code = """
import numpy as np
from repro.engine import sharded_multisplit
from repro.multisplit import RangeBuckets, multisplit
inner = np.arange(1 << 16, dtype=np.uint32)

class Reentrant(RangeBuckets):
    def eval_into(self, keys, out, arena=None):
        sharded_multisplit(inner, RangeBuckets(8), method="block", max_workers=4)
        super().eval_into(keys, out, arena)

keys = np.random.default_rng(15).integers(0, 2**32, 1 << 17, dtype=np.uint32)
ref = multisplit(keys, RangeBuckets(16), method="block", engine="fast")
res = sharded_multisplit(keys, Reentrant(16), method="block", shards=8,
                         max_workers=8)
assert np.array_equal(res.keys, ref.keys)
"""
        import os
        import repro
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        try:
            done = subprocess.run([sys.executable, "-c", code], timeout=120,
                                  capture_output=True, text=True, env=env)
        except subprocess.TimeoutExpired:
            pytest.fail("nested sharded call deadlocked")
        assert done.returncode == 0, done.stderr

    def test_workspace_reuse_across_sizes_and_workers(self):
        ws = Workspace()
        rng = np.random.default_rng(9)
        for n, workers in ((50_000, 4), (80_000, 1), (10_000, 2), (80_000, 4)):
            keys = rng.integers(0, 2**32, n, dtype=np.uint32)
            ref = multisplit(keys, RangeBuckets(16), method="block",
                             engine="fast")
            res = sharded_multisplit(keys, RangeBuckets(16), method="block",
                                     workspace=ws, max_workers=workers)
            assert np.array_equal(ref.keys, res.keys)
        assert ws.hits > 0
        assert "subarenas" in repr(ws)
        before = ws.nbytes
        assert before > 0
        ws.clear()
        assert ws.nbytes == 0


class TestEngineWiring:
    def test_non_stable_methods_rejected(self):
        keys = np.arange(64, dtype=np.uint32)
        for method in ("radix_sort", "randomized"):
            with pytest.raises(ValueError, match="stable method family"):
                sharded_multisplit(keys, RangeBuckets(4), method=method)

    def test_method_constraints_mirror_fast(self):
        keys = np.arange(64, dtype=np.uint32)
        with pytest.raises(ValueError):
            sharded_multisplit(keys, RangeBuckets(33), method="warp")
        with pytest.raises(ValueError):
            sharded_multisplit(keys, RangeBuckets(3), method="scan_split")
        with pytest.raises(ValueError):
            multisplit(keys, RangeBuckets(4), engine="fast", shards=4)
        with pytest.raises(ValueError):
            multisplit(keys, RangeBuckets(4), engine="emulate", max_workers=2)

    def test_auto_engine_heuristic(self, monkeypatch):
        from repro.multisplit import api as api_mod
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N", 4096)
        monkeypatch.setattr(
            "repro.engine.sharded.SHARDED_AUTO_MIN_N_SINGLE", 4096)
        rng = np.random.default_rng(11)
        big = rng.integers(0, 2**32, 8192, dtype=np.uint32)
        small = big[:512]
        assert multisplit(big, RangeBuckets(8),
                          engine="auto").extra["engine"] == "sharded"
        assert multisplit(small, RangeBuckets(8),
                          engine="auto").extra["engine"] == "fast"
        # explicit shards forces sharded below the threshold
        assert multisplit(small, RangeBuckets(8), engine="auto",
                          shards=2).extra["engine"] == "sharded"
        # non-stable methods only exist in the fast engine
        assert multisplit(big, RangeBuckets(8), engine="auto",
                          method="radix_sort").extra["engine"] == "fast"
        assert api_mod._pick_engine(SHARDED_AUTO_MIN_N, "block",
                                    None, 2) == "sharded"

    def test_auto_engine_accounts_for_workers_and_backend(self):
        from repro.engine.backends import get_backend
        from repro.engine.sharded import (SHARDED_AUTO_MIN_N,
                                          SHARDED_AUTO_MIN_N_SINGLE)
        from repro.multisplit import api as api_mod
        assert SHARDED_AUTO_MIN_N_SINGLE > SHARDED_AUTO_MIN_N
        # multi-worker: the calibrated floor applies
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N, "block", None, 4) == "sharded"
        # single-worker (max_workers=1): the higher solo floor applies —
        # sharding buys nothing without parallelism until the input is
        # large enough for cache-sized chunks to pay for orchestration
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N, "block", None, 1) == "fast"
        assert api_mod._pick_engine(
            SHARDED_AUTO_MIN_N_SINGLE, "block", None, 1) == "sharded"
        # thread-executor backends do not perturb the size heuristic
        np_bk = get_backend("numpy")
        assert api_mod._pick_engine(512, "block", None, 1, np_bk) == "fast"

    def test_result_shape_and_extra(self):
        keys = np.random.default_rng(2).integers(0, 2**32, 5000, dtype=np.uint32)
        res = sharded_multisplit(keys, RangeBuckets(8), method="block",
                                 shards=4, max_workers=2)
        assert res.timeline is None
        assert res.stable is True
        assert res.extra["engine"] == "sharded"
        assert res.extra["shards"] == 4
        assert res.extra["workers"] == 2


class TestShardedBatch:
    def test_batch_sharded_engine_matches_fast(self):
        rng = np.random.default_rng(21)
        batch = [rng.integers(0, 2**32, n, dtype=np.uint32)
                 for n in (3000, 50_000, 12_000)]
        fast = multisplit_batch(batch, RangeBuckets(16), engine="fast")
        for engine in ("sharded", "auto"):
            res = multisplit_batch(batch, RangeBuckets(16), engine=engine,
                                   shards=4, max_workers=2)
            for a, b in zip(fast, res):
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.bucket_starts, b.bucket_starts)

    def test_batch_shards_knob_requires_sharded(self):
        batch = [np.arange(100, dtype=np.uint32)]
        with pytest.raises(ValueError, match="shards"):
            multisplit_batch(batch, RangeBuckets(4), engine="fast", shards=2)


class TestOversizedShardsCap:
    """When auto-sizing wants more than MAX_SHARDS shards, the cap must
    warn once, count every capped call, and still cap (never error)."""

    @pytest.fixture(autouse=True)
    def _reset_warning_flag(self, monkeypatch):
        from repro.engine import sharded as sharded_mod
        monkeypatch.setattr(sharded_mod, "_warned_oversized_shards", False)

    def test_cap_warns_once_and_counts_every_call(self):
        import warnings as _warnings
        from repro.engine.sharded import (DEFAULT_SHARD_KEYS, MAX_SHARDS,
                                          _resolve_shards)
        huge = (MAX_SHARDS + 1) * DEFAULT_SHARD_KEYS  # auto-size > cap
        with collecting() as reg:
            with pytest.warns(RuntimeWarning, match="engine='stream'"):
                assert _resolve_shards(huge, None, 4) == MAX_SHARDS
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")  # second call: silent
                assert _resolve_shards(huge, None, 4) == MAX_SHARDS
        flat = reg.as_flat()
        assert flat["engine.sharded.oversized_shards"] == 2

    def test_explicit_shards_past_cap_rejected(self):
        import warnings as _warnings
        from repro.engine.sharded import MAX_SHARDS, _resolve_shards
        with collecting() as reg:
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                with pytest.raises(ValueError, match="MAX_SHARDS"):
                    _resolve_shards(10**9, MAX_SHARDS + 1, 4)
                assert _resolve_shards(10**9, MAX_SHARDS, 4) == MAX_SHARDS
                # under-cap auto sizing stays silent too
                assert _resolve_shards(1 << 20, None, 4) <= MAX_SHARDS
        assert "engine.sharded.oversized_shards" not in reg.as_flat()


class TestShardedObservability:
    def test_stage_timers_and_gauges(self):
        keys = np.random.default_rng(5).integers(0, 2**32, 40_000,
                                                 dtype=np.uint32)
        with collecting() as reg:
            sharded_multisplit(keys, RangeBuckets(16), method="block",
                               shards=8, max_workers=2)
        flat = reg.as_flat()
        assert flat["engine.sharded.calls{method=block}"] == 1
        assert flat["engine.sharded.keys{method=block}"] == keys.size
        assert flat["engine.sharded.shards{method=block}"] == 8
        assert flat["engine.sharded.workers{method=block}"] == 2
        for stage in ("prescan", "scan", "postscan"):
            key = f"engine.sharded.{stage}_ms.count{{method=block}}"
            assert flat[key] == 1, (key, flat)
        assert flat["engine.sharded.run_ms.count{kv=False,method=block}"] == 1
