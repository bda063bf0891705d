"""The default backend: numpy kernels (bincount, stable argsort, gathers).

A lone shard's stable gather lands straight in the output; a shard among
many is gathered into arena scratch and copied run by run to its bucket
offsets. Every other backend is parity-gated against this one.
"""

from __future__ import annotations

import numpy as np

from .base import KernelBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Pure-numpy prescan/postscan kernels (always available)."""

    name = "numpy"

    def prescan(self, ids: np.ndarray, m: int) -> tuple[np.ndarray, bool]:
        hist = np.bincount(ids, minlength=m).astype(np.int64, copy=False)
        monotone = ids.size <= 1 or bool((ids[1:] >= ids[:-1]).all())
        return hist, monotone

    def scatter(self, keys, values, ids, counts, offsets,
                out_keys, out_values, *, monotone: bool = False,
                arena=None) -> None:
        n = keys.size
        if n == 0:
            return
        kv = values is not None
        if n == out_keys.size:
            # a shard holding every element lands exactly in bucket
            # order (its offsets are the bucket starts): gather straight
            # into place. take() with out= and the default mode="raise"
            # gathers into a hidden buffer and copies it over; argsort
            # indices are in range, so "clip" checks nothing and saves
            # that pass (here and below)
            order = np.argsort(ids, kind="stable")
            np.take(keys, order, out=out_keys, mode="clip")
            if kv:
                np.take(values, order, out=out_values, mode="clip")
            return
        if monotone:
            ks, vs = keys, (values if kv else None)
        else:
            # stable argsort groups the shard by bucket; gathering into
            # arena scratch keeps the copy cache-resident across calls
            order = np.argsort(ids, kind="stable")
            if arena is not None:
                ks = arena.take("shard_keys", n, keys.dtype)
                np.take(keys, order, out=ks, mode="clip")
                vs = None
                if kv:
                    vs = arena.take("shard_values", n, values.dtype)
                    np.take(values, order, out=vs, mode="clip")
            else:
                ks = keys[order]
                vs = values[order] if kv else None
        # walk plain Python ints: per-bucket numpy scalar indexing is
        # interpreter work on the order of the copies themselves
        done = 0
        for cb, o in zip(counts.tolist(), offsets.tolist()):
            if cb:
                end = done + cb
                out_keys[o:o + cb] = ks[done:end]
                if kv:
                    out_values[o:o + cb] = vs[done:end]
                done = end
