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
            # into place
            order = np.argsort(ids, kind="stable")
            np.take(keys, order, out=out_keys)
            if kv:
                np.take(values, order, out=out_values)
            return
        if monotone:
            ks, vs = keys, (values if kv else None)
        else:
            # stable argsort groups the shard by bucket; gathering into
            # arena scratch keeps the copy cache-resident across calls
            order = np.argsort(ids, kind="stable")
            if arena is not None:
                ks = arena.take("shard_keys", n, keys.dtype)
                np.take(keys, order, out=ks)
                vs = None
                if kv:
                    vs = arena.take("shard_values", n, values.dtype)
                    np.take(values, order, out=vs)
            else:
                ks = keys[order]
                vs = values[order] if kv else None
        done = 0
        for b in np.flatnonzero(counts):
            cb = int(counts[b])
            o = int(offsets[b])
            out_keys[o:o + cb] = ks[done:done + cb]
            if kv:
                out_values[o:o + cb] = vs[done:done + cb]
            done += cb
