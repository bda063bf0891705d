"""RangeBuckets' strength-reduced arithmetic against exact integer math.

``ids()`` and ``eval_into()`` share one arithmetic path: a shift when the
span and m are powers of two, a multiply and a shift when only the span
is, a multiply and a floor division otherwise. Every case here is
checked against ``(k - lo) * m // (hi - lo)`` in Python integers, on the
keys where an off-by-one would show: ``lo``, ``hi - 1`` and every bucket
edge +-1.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Workspace
from repro.multisplit import multisplit
from repro.multisplit.bucketing import RangeBuckets

UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
SIGNED = (np.int8, np.int16, np.int32, np.int64)
BUCKETS = (1, 2, 3, 7, 32, 256, 1000, 1024)


def _domains(dtype):
    """(lo, hi) pairs inside the non-negative range of ``dtype``: the
    whole range, the default [0, 2^32), and power-of-two and other
    spans with lo == 0 and lo != 0."""
    top = int(np.iinfo(dtype).max) + 1  # 2^w, or 2^(w-1) when signed
    w = top.bit_length() - 1
    out = {(0, top), (0, top - 1), (0, 2**32),
           (16, 16 + (1 << (w - 2))), (7, 7 + 3 * (1 << (w - 3)) + 5),
           (1, 2), (3, top)}
    return sorted((lo, hi) for lo, hi in out if 0 <= lo < hi)


def _edge_keys(lo, hi, m, dtype):
    """lo, hi - 1, and the first key of every bucket +-1, clipped to the
    domain and to what ``dtype`` can hold."""
    span = hi - lo
    ks = {lo, hi - 1}
    for b in range(1, m):
        first = lo + -(-b * span // m)  # smallest k with (k-lo)*m//span >= b
        ks.update((first - 1, first, first + 1))
    top = int(np.iinfo(dtype).max)
    ks = sorted(k for k in ks if lo <= k < hi and 0 <= k <= top)
    return np.array(ks, dtype=dtype)


def _reference(spec, keys):
    span = spec.hi - spec.lo
    return np.array([(int(k) - spec.lo) * spec.num_buckets // span
                     for k in keys], dtype=np.uint64)


def _cases(dtype):
    """A spec for every domain of ``dtype`` and m in ``BUCKETS``; where
    the domain cannot be served exactly, construction must raise."""
    for lo, hi in _domains(dtype):
        for m in BUCKETS:
            if _overflows(lo, hi, m):
                with pytest.raises(ValueError, match="overflows uint64"):
                    RangeBuckets(m, lo, hi)
                continue
            yield RangeBuckets(m, lo, hi)


def _all_paths(spec, keys):
    """ids(), and eval_into() with and without an arena, into every
    integer output dtype wide enough for the bucket ids."""
    yield "ids", spec.ids(keys)
    for out_dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        if np.iinfo(out_dtype).max < spec.num_buckets - 1:
            continue
        for arena in (None, Workspace()):
            out = np.full(keys.size, 77, dtype=out_dtype)
            spec.eval_into(keys, out, arena)
            yield f"eval_into-{np.dtype(out_dtype).name}-{arena is not None}", out


def _overflows(lo, hi, m):
    span = hi - lo
    pow2 = span & (span - 1) == 0 and m & (m - 1) == 0 and m <= span
    return not pow2 and (span - 1) * m >= 2**64


@pytest.mark.parametrize("dtype", UNSIGNED + SIGNED,
                         ids=lambda d: np.dtype(d).name)
def test_paths_match_exact_floor_division(dtype):
    for spec in _cases(dtype):
        keys = _edge_keys(spec.lo, spec.hi, spec.num_buckets, dtype)
        expected = _reference(spec, keys)
        assert expected.size == 0 or int(expected.max()) < spec.num_buckets
        for name, got in _all_paths(spec, keys):
            np.testing.assert_array_equal(
                got.astype(np.uint64), expected,
                err_msg=f"{spec.lo}, {spec.hi}, m={spec.num_buckets}: {name}")


@pytest.mark.parametrize("dtype", UNSIGNED + SIGNED,
                         ids=lambda d: np.dtype(d).name)
def test_out_of_domain_keys_raise_on_every_path(dtype):
    info = np.iinfo(dtype)
    for spec in _cases(dtype):
        lo, hi = spec.lo, spec.hi
        bad = [k for k in (lo - 1, hi, hi + 5, info.min, -1)
               if info.min <= k <= info.max and not lo <= k < hi]
        for k in bad:
            keys = np.array([lo, k, lo], dtype=dtype)
            with pytest.raises(ValueError, match="key outside bucket domain"):
                spec.ids(keys)
            for arena in (None, Workspace()):
                with pytest.raises(ValueError,
                                   match="key outside bucket domain"):
                    spec.eval_into(keys, np.empty(3, np.uint16), arena)


@pytest.mark.parametrize("dtype", SIGNED)
def test_negative_keys_raise_as_out_of_domain(dtype):
    spec = RangeBuckets(8, 0, 64)
    keys = np.array([0, -1, 5], dtype=dtype)
    with pytest.raises(ValueError, match="key outside bucket domain"):
        spec.ids(keys)
    with pytest.raises(ValueError, match="key outside bucket domain"):
        spec.eval_into(keys, np.empty(3, np.uint8), Workspace())


class TestWideDomains:
    """(hi - lo - 1) * m no longer wraps in uint64."""

    def test_power_of_two_span_wider_than_multiply_is_exact(self):
        # (2^62 - 1) * 1024 wraps in uint64: the floor-division formula
        # put 2^61 in bucket 0 and 2^62 - 1 in bucket 3
        spec = RangeBuckets(1024, 0, 2**62)
        keys = np.array([0, 2**61, 2**62 - 1, 2**52 - 1, 2**52],
                        dtype=np.uint64)
        expected = [0, 512, 1023, 0, 1]
        for name, got in _all_paths(spec, keys):
            assert got.tolist() == expected, name

    @pytest.mark.parametrize("engine", ["emulate", "fast", "sharded"])
    def test_engines_group_wide_keys_correctly(self, engine):
        spec = RangeBuckets(1024, 0, 2**62)
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**62, 4096, dtype=np.uint64)
        res = multisplit(keys, spec, engine=engine, method="auto"
                         if engine != "emulate" else "block",
                         strict=True)
        ids = np.array([int(k) * 1024 // 2**62 for k in res.keys])
        assert (np.diff(ids) >= 0).all()
        assert np.array_equal(np.sort(res.keys), np.sort(keys))

    def test_unrepresentable_multiply_is_rejected(self):
        with pytest.raises(ValueError, match="overflows uint64"):
            RangeBuckets(1000, 0, 2**62)
        with pytest.raises(ValueError, match="overflows uint64"):
            RangeBuckets(3, 5, 5 + 2**63)

    @pytest.mark.parametrize("lo,hi", [(-1, 10), (0, 2**64 + 1)])
    def test_domain_outside_uint64_is_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="within"):
            RangeBuckets(4, lo, hi)

    def test_full_uint64_domain(self):
        spec = RangeBuckets(16, 0, 2**64)
        keys = np.array([0, 2**60 - 1, 2**60, 2**64 - 1], dtype=np.uint64)
        assert spec.ids(keys).tolist() == [0, 0, 1, 15]


@given(lo=st.integers(0, 2**40), span=st.integers(1, 2**40),
       m=st.integers(1, 5000), data=st.data())
@settings(max_examples=200, deadline=None)
def test_random_domains_match_exact(lo, span, m, data):
    hi = lo + span  # (span - 1) * m < 2^53: never overflows
    spec = RangeBuckets(m, lo, hi)
    keys = np.array(data.draw(st.lists(st.integers(lo, hi - 1), min_size=1,
                                       max_size=50)), dtype=np.uint64)
    expected = _reference(spec, keys)
    for name, got in _all_paths(spec, keys):
        np.testing.assert_array_equal(got.astype(np.uint64), expected,
                                      err_msg=name)
