"""Tests for the multisplit-bucketed cuckoo hash table."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import HashTable, BUCKET_SLOTS, TARGET_LOAD
from repro.simt import Device, K40C


def make_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    keys = (rng.choice(2**31 - 1, n, replace=False) + 1).astype(np.uint32) \
        if n < 2**20 else rng.permutation(np.arange(1, n + 1, dtype=np.uint32))
    values = rng.integers(0, 2**32, n, dtype=np.uint32)
    return keys, values


class TestBuildAndQuery:
    def test_roundtrip(self):
        keys, values = make_pairs(20000)
        ht = HashTable(keys, values)
        got, found = ht.get(keys)
        assert found.all()
        assert (got == values).all()

    def test_missing_keys_not_found(self):
        keys, values = make_pairs(5000, seed=1)
        ht = HashTable(keys, values)
        missing = keys.astype(np.uint64) + np.uint64(2**31)
        _, found = ht.get(missing.astype(np.uint32))
        assert not found.any()

    def test_mixed_hits_and_misses(self):
        keys, values = make_pairs(3000, seed=2)
        ht = HashTable(keys, values)
        queries = np.concatenate([keys[:100], np.zeros(50, dtype=np.uint32)])
        got, found = ht.get(queries, default=7)
        assert found[:100].all() and not found[100:].any()
        assert (got[100:] == 7).all()
        assert (got[:100] == values[:100]).all()

    def test_empty_table(self):
        ht = HashTable(np.zeros(0, dtype=np.uint32), np.zeros(0, dtype=np.uint32))
        out, found = ht.get(np.array([1, 2, 3], dtype=np.uint32))
        assert not found.any()

    def test_empty_query(self):
        keys, values = make_pairs(100, seed=3)
        ht = HashTable(keys, values)
        out, found = ht.get(np.zeros(0, dtype=np.uint32))
        assert out.size == 0 and found.size == 0

    def test_single_item(self):
        ht = HashTable(np.array([42], dtype=np.uint32), np.array([7], dtype=np.uint32))
        got, found = ht.get(np.array([42], dtype=np.uint32))
        assert found[0] and got[0] == 7

    @given(st.integers(1, 1500), st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_property_roundtrip(self, n, seed):
        keys, values = make_pairs(n, seed=seed)
        ht = HashTable(keys, values)
        got, found = ht.get(keys)
        assert found.all() and (got == values).all()


class TestStructure:
    def test_bucket_sizing(self):
        keys, values = make_pairs(TARGET_LOAD * 10, seed=4)
        ht = HashTable(keys, values)
        assert ht.num_buckets == 10
        assert 0.5 < ht.load_factor < TARGET_LOAD / BUCKET_SLOTS + 0.1

    def test_timeline_includes_multisplit_and_build(self):
        keys, values = make_pairs(8000, seed=5)
        dev = Device(K40C)
        HashTable(keys, values, device=dev)
        stages = {r.stage for r in dev.timeline.records}
        assert "build" in stages            # cuckoo kernel
        assert "prescan" in stages or "postscan" in stages  # the multisplit
        assert dev.total_ms > 0

    def test_query_cost_counted(self):
        keys, values = make_pairs(4000, seed=6)
        dev = Device(K40C)
        ht = HashTable(keys, values, device=dev)
        before = dev.total_ms
        ht.get(keys[:1024])
        assert dev.total_ms > before

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="unique"):
            HashTable(np.array([1, 1], dtype=np.uint32),
                      np.array([2, 3], dtype=np.uint32))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HashTable(np.zeros(3, dtype=np.uint32), np.zeros(4, dtype=np.uint32))
        with pytest.raises(ValueError):
            ht = HashTable(np.array([1], dtype=np.uint32), np.array([1], dtype=np.uint32))
            ht.get(np.zeros((2, 2), dtype=np.uint32))

    def test_deterministic(self):
        keys, values = make_pairs(2000, seed=7)
        a = HashTable(keys, values)
        b = HashTable(keys, values)
        assert (a._packed == b._packed).all()
