"""The three library workloads: closed-loop ``multisplit()`` calls from one
caller.

Each workload generates its inputs from the seed with numpy alone, so
``import repro`` can be timed as part of set-up; the program is imported
only when an op first runs. ``op(i)`` is the timed work and returns the
result; ``check(i, result)`` compares it with the stable oracle outside
the timed interval.
"""

from __future__ import annotations

import numpy as np

from common import range_ids, rng_for, same_split, splitter_ids, stable_split

N_BULK = 1 << 22
SKEW_BUCKETS = 256
#: from_sample's own re-split threshold; a final spec above it means the
#: load balancing did not hold.
SKEW_MAX_MEAN_LIMIT = 2.0
#: RangeBuckets(256) must be at least this unbalanced on the skewed keys,
#: or the workload does not exercise what it claims to.
SKEW_MIN_RANGE_RATIO = 10.0


def _uniform_u32(rng, n):
    return rng.integers(0, 2**32, n, dtype=np.uint32)


def _skewed_u32(rng, n, chunk=1 << 18):
    """Heavy-tailed keys ``u**-3 * 1024``, clamped to the uint32 range;
    built chunk by chunk so no full-size float temporary exists."""
    out = np.empty(n, dtype=np.uint32)
    top = float(2**32 - 1)
    for lo in range(0, n, chunk):
        u = rng.random(min(chunk, n - lo))
        with np.errstate(divide="ignore", over="ignore"):
            out[lo:lo + u.size] = np.minimum(u ** -3.0 * 1024.0, top)
    return out


def max_mean(starts) -> float:
    sizes = np.diff(np.asarray(starts))
    return float(sizes.max() / sizes.mean()) if sizes.size and sizes.mean() else 0.0


class BulkRange:
    """2^22 uniform uint32 key-value pairs into RangeBuckets(32)."""

    name = "bulk_range"
    tail_p = 90.0
    batches = 3

    def __init__(self, seed: int):
        rng = rng_for(seed, self.name)
        self.keys = [_uniform_u32(rng, N_BULK) for _ in range(self.batches)]
        self.values = [_uniform_u32(rng, N_BULK) for _ in range(self.batches)]
        self.distinct = self.batches
        self.ws = None

    def input_of(self, i: int) -> int:
        return i % self.batches

    def start(self) -> None:
        import repro
        self.repro = repro
        self.spec = repro.RangeBuckets(32)
        self.ws = repro.Workspace()

    def prepare(self) -> None:
        self.expected = [stable_split(k, v, range_ids(k, 32), 32)
                         for k, v in zip(self.keys, self.values)]

    def op(self, i: int):
        b = self.input_of(i)
        return self.repro.multisplit(self.keys[b], self.spec,
                                     values=self.values[b], engine="auto",
                                     workspace=self.ws)

    def keys_of(self, i: int) -> int:
        return N_BULK

    def check(self, i: int, result) -> bool:
        return same_split(result, self.expected[self.input_of(i)])

    def regret_inputs(self, seed: int) -> list:
        return [0, 1]

    def regret_call(self, c: int):
        return self.keys[c], self.spec, self.values[c], self.ws


class BulkSkew:
    """2^22 heavy-tailed uint32 pairs; per op ``from_sample(keys, 256)``
    then ``multisplit`` with the sampled splitters."""

    name = "bulk_skew"
    tail_p = 50.0
    batches = 2

    def __init__(self, seed: int):
        rng = rng_for(seed, self.name)
        self.keys = [_skewed_u32(rng, N_BULK) for _ in range(self.batches)]
        self.values = [_uniform_u32(rng, N_BULK) for _ in range(self.batches)]
        self.distinct = self.batches
        self.ws = None

    def input_of(self, i: int) -> int:
        return i % self.batches

    def start(self) -> None:
        import repro
        self.repro = repro

    def prepare(self) -> None:
        """Reference splitters (from_sample is deterministic for given
        keys) and the oracle output for each batch; also checks that the
        keys are as skewed as the workload needs."""
        self.splitters, self.expected, self.range_ratio = [], [], []
        for k, v in zip(self.keys, self.values):
            counts = np.bincount(range_ids(k, SKEW_BUCKETS), minlength=SKEW_BUCKETS)
            self.range_ratio.append(float(counts.max() / counts.mean()))
            spec = self.repro.BucketSpec.from_sample(k, SKEW_BUCKETS)
            self.splitters.append(np.array(spec.splitters))
            self.expected.append(stable_split(k, v, splitter_ids(k, spec.splitters),
                                              SKEW_BUCKETS))
        if min(self.range_ratio) < SKEW_MIN_RANGE_RATIO:
            raise RuntimeError(
                f"skewed keys give RangeBuckets({SKEW_BUCKETS}) max/mean "
                f"{min(self.range_ratio):.1f} < {SKEW_MIN_RANGE_RATIO}")

    def op(self, i: int):
        b = self.input_of(i)
        keys = self.keys[b]
        spec = self.repro.BucketSpec.from_sample(keys, SKEW_BUCKETS)
        self.last_spec = spec
        return self.repro.multisplit(keys, spec, values=self.values[b],
                                     engine="auto")

    def keys_of(self, i: int) -> int:
        return N_BULK

    def check(self, i: int, result) -> bool:
        b = self.input_of(i)
        return (np.array_equal(self.last_spec.splitters, self.splitters[b])
                and max_mean(result.bucket_starts) <= SKEW_MAX_MEAN_LIMIT
                and same_split(result, self.expected[b]))

    def regret_inputs(self, seed: int) -> list:
        return [0]

    def regret_call(self, c: int):
        spec = self.repro.SplitterBuckets(self.splitters[c])
        return self.keys[c], spec, self.values[c], None


class SmallCalls:
    """A seeded stream of small ``multisplit`` calls.

    A pool of ``POOL`` calls has a fixed shape, so that per-run totals
    do not depend on which seed drew a few more large calls: sizes sit
    at the midpoints of ``POOL`` equal steps of a log-uniform n in
    [2^8, 2^20], and the (m, spec kind, key-value) combinations of
    {4, 32, 256} x {range, identity} x {keys, pairs} take turns along
    the sizes. The seed draws the keys and values, and the order: the
    stream visits the pool in a fresh seeded order each pass.
    """

    name = "small_calls"
    tail_p = 99.0
    POOL = 64
    COMBOS = [(m, kind, kv) for m in (4, 32, 256)
              for kind in ("range", "identity") for kv in (False, True)]

    def __init__(self, seed: int):
        rng = rng_for(seed, self.name)
        P = self.POOL
        # the pool's shape is fixed; the seed draws the data and the order
        sizes = np.rint(2.0 ** (8 + 12 * (np.arange(P) + 0.5) / P)).astype(np.int64)
        self.calls = []
        for i, n in enumerate(sizes):
            m, kind, kv = self.COMBOS[i % len(self.COMBOS)]
            n = int(n)
            if kind == "range":
                keys = _uniform_u32(rng, n)
            else:
                keys = rng.integers(0, m, n, dtype=np.uint32)
            values = _uniform_u32(rng, n) if kv else None
            self.calls.append((keys, m, kind, values))
        self._order_rng = rng_for(seed, self.name, "order")
        self._order = []
        self.distinct = P
        self.ws = None

    def input_of(self, i: int) -> int:
        while i >= len(self._order):
            self._order.extend(int(x) for x in self._order_rng.permutation(self.POOL))
        return self._order[i]

    def start(self) -> None:
        import repro
        self.repro = repro
        self.ws = repro.Workspace()
        self.specs = [repro.RangeBuckets(m) if kind == "range"
                      else repro.IdentityBuckets(m)
                      for _k, m, kind, _v in self.calls]

    def prepare(self) -> None:
        self.expected = []
        for keys, m, kind, values in self.calls:
            ids = range_ids(keys, m) if kind == "range" else keys
            self.expected.append(stable_split(keys, values, ids, m))

    def op(self, i: int):
        c = self.input_of(i)
        keys, _m, _kind, values = self.calls[c]
        return self.repro.multisplit(keys, self.specs[c], values=values,
                                     engine="auto", workspace=self.ws)

    def keys_of(self, i: int) -> int:
        return self.calls[self.input_of(i)][0].size

    def check(self, i: int, result) -> bool:
        return same_split(result, self.expected[self.input_of(i)])

    def regret_inputs(self, seed: int) -> list:
        rng = rng_for(seed, self.name, "regret")
        return [int(c) for c in rng.choice(self.POOL, 16, replace=False)]

    def regret_call(self, c: int):
        keys, _m, _kind, values = self.calls[c]
        return keys, self.specs[c], values, self.ws


WORKLOADS = {cls.name: cls for cls in (BulkRange, BulkSkew, SmallCalls)}
