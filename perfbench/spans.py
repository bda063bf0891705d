"""Spans recorded from outside the program, and the arithmetic on them.

The traced run replaces public functions of each layer with wrappers
that record a span per call: name, parent, thread, start, end and the
number of keys the call handled. The program's source is not touched;
:func:`install` patches module and class attributes at run time.

Parents come from a per-thread stack. A worker thread that starts a
span with an empty stack (the sharded engine's pool threads) takes the
innermost active *fan-out* span as its parent, so kernel spans from two
workers hang under the engine call that spawned them.

Self time of a span is its duration minus the part of it that the union
of its children covers; children from two worker threads may overlap,
so the union, not the sum, is subtracted.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

class Span:
    """One recorded call: ``t0``/``t1`` in ``perf_counter_ns`` units."""

    __slots__ = ("name", "parent", "tid", "t0", "t1", "keys", "nbytes")

    def __init__(self, name, parent, tid, t0, t1=0, keys=0, nbytes=0):
        self.name, self.parent, self.tid = name, parent, tid
        self.t0, self.t1, self.keys, self.nbytes = t0, t1, keys, nbytes

    @property
    def dur(self) -> int:
        return self.t1 - self.t0

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.t0}..{self.t1}, keys={self.keys})"


class Tracer:
    """In-memory span recorder.

    While a run is traced, each call appends one flat tuple
    ``(id, parent_id, name, thread, t0, t1, count)`` holding no object
    references, so the records add no work for the garbage collector;
    :meth:`spans` links them into :class:`Span` objects afterwards.
    """

    def __init__(self):
        self.records: list[tuple] = []
        self._local = threading.local()
        self._fanout: list[int] = []
        self._next = itertools.count(1).__next__

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str):
        """Context manager for a benchmark-level span (e.g. one op)."""
        return _SpanContext(self, name)

    def wrap(self, fn, name: str, count=None, *, fanout: bool = False):
        """``fn`` recording one span per call; ``count(args, kwargs,
        result)`` gives the keys the call handled, or ``(keys, bytes)``.

        A wrapper with an empty stack (a pool thread) takes the innermost
        active ``fanout`` span as its parent.
        """
        local, fan, records, nxt = self._local, self._fanout, self.records, self._next
        now, ident = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            me = nxt()
            parent = stack[-1] if stack else (fan[-1] if fan else 0)
            stack.append(me)
            if fanout:
                fan.append(me)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                records.append((me, parent, name, ident(), t0, now(), 0))
                raise
            finally:
                stack.pop()
                if fanout:
                    fan.remove(me)
            t1 = now()
            records.append((me, parent, name, ident(), t0, t1,
                            count(args, kwargs, result) if count else 0))
            return result

        return traced

    def spans(self) -> list[Span]:
        """The records as :class:`Span` objects linked to their parents."""
        by_id = {}
        for me, _parent, name, tid, t0, t1, count in self.records:
            keys, nbytes = count if count.__class__ is tuple else (count, 0)
            by_id[me] = Span(name, None, tid, t0, t1, int(keys), int(nbytes))
        for me, parent, *_ in self.records:
            by_id[me].parent = by_id.get(parent)
        return list(by_id.values())


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        stack = tr._stack()
        self.me = tr._next()
        self.parent = stack[-1] if stack else 0
        stack.append(self.me)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr._stack().pop()
        tr.records.append((self.me, self.parent, self.name,
                           threading.get_ident(), self.t0, t1, 0))
        return False


def install(tracer: Tracer, targets) -> None:
    """Patch every ``(owner, attr, name, count, fanout)`` target.

    ``owner`` is a module or class. Class attributes are read from the
    class ``__dict__`` so static and class methods keep their binding.
    Only attributes the owner defines itself are patched; a missing one
    raises, so a renamed layer function fails the traced run loudly.
    """
    for owner, attr, name, count, fanout in targets:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    tracer.wrap(raw.__func__, name, count, fanout=fanout)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    tracer.wrap(raw.__func__, name, count, fanout=fanout)))
            else:
                setattr(owner, attr, tracer.wrap(raw, name, count,
                                                 fanout=fanout))
        else:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name,
                                             count, fanout=fanout))


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def union_length(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Total length covered by ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given. Overlaps count once."""
    clipped = []
    for a, b in intervals:
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b > a:
            clipped.append((a, b))
    clipped.sort()
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict:
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    return kids


def self_times(spans) -> dict:
    """``id(span) -> self time``: duration minus the union of its
    children's intervals inside it."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        ch = kids.get(id(s), ())
        out[id(s)] = s.dur - union_length(((c.t0, c.t1) for c in ch), s.t0, s.t1)
    return out


def descendants(span, kids) -> list:
    out, todo = [], list(kids.get(id(span), ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(id(s), ()))
    return out


def wall_shares(root, kids, layer_of) -> dict:
    """Split ``root``'s wall time among layers; the shares sum to its
    duration exactly.

    Each instant goes to the innermost spans active at it (spans with no
    active child); when several are active at once, as on two worker
    threads, the instant is split evenly among them. ``layer_of(span)``
    names the layer a span's share is booked to; instants where only
    ``root`` is active go to ``layer_of(root)``.
    """
    events = [(root.t0, 1, root), (root.t1, 0, root)]
    for s in descendants(root, kids):
        a, b = max(s.t0, root.t0), min(s.t1, root.t1)
        if b > a:
            events += [(a, 1, s), (b, 0, s)]
    # sweep: at equal times ends (0) sort before starts (1); ties beyond
    # that are broken by position so spans never compare
    events = [e + (i,) for i, e in enumerate(events)]
    events.sort(key=lambda e: (e[0], e[1], e[3]))
    active_kids: dict = defaultdict(int)
    active: set = set()
    leaves: dict = {}
    shares: dict = defaultdict(float)
    prev = root.t0
    for t, kind, s, _ in events:
        if t > prev and leaves:
            part = (t - prev) / len(leaves)
            for leaf in leaves.values():
                shares[layer_of(leaf)] += part
        prev = t
        parent = s.parent if s is not root else None
        if kind == 1:
            active.add(id(s))
            if active_kids[id(s)] == 0:
                leaves[id(s)] = s
            if parent is not None and id(parent) in active:
                active_kids[id(parent)] += 1
                leaves.pop(id(parent), None)
        else:
            active.discard(id(s))
            leaves.pop(id(s), None)
            if parent is not None and id(parent) in active:
                active_kids[id(parent)] -= 1
                if active_kids[id(parent)] == 0:
                    leaves[id(parent)] = parent
    return dict(shares)
