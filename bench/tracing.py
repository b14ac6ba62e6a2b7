"""Spans and call counts taken from outside the codec, by replacing module attributes.

A wrapper installed in place of a module attribute records one span per
call: name, start, end, the span open when the call began (its parent)
and the outermost span of that chain (its request).  Spans stay in memory
until the run writes them out.  ``Patches`` puts every replaced attribute
back when its ``with`` block ends, whether or not the block raised.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict


class Patches:
    """Replaces module attributes and restores every original on exit."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, attr: str, make) -> bool:
        """Set ``module.attr`` to ``make(original)``; False if there is no such attribute."""
        if not hasattr(module, attr):
            return False
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped to record a span per call.

        ``observe(tracer, args, result)``, if given, runs after the span
        closes, so the time it takes is not charged to ``name``.
        """
        nid = self._intern(name)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack, clock = self.start, self.end, self._stack, self.clock

        def traced(*args, **kwargs):
            sid = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            requests.append(sid if parent < 0 else requests[parent])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def spans(self) -> dict:
        """Column-wise spans with span names spelled out once."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, pid in enumerate(parent):
        if pid >= 0:
            children[pid].append(sid)
    out = [end[i] - start[i] for i in range(len(parent))]
    for pid, kids in children.items():
        lo, hi = start[pid], end[pid]
        out[pid] -= covered((max(start[k], lo), min(end[k], hi)) for k in kids)
    return out


def summarise(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (sum of durations) and ``self_s``."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names}
    for sid, nid in enumerate(tracer.name):
        row = out[tracer.names[nid]]
        row["calls"] += 1
        row["total_s"] += tracer.end[sid] - tracer.start[sid]
        row["self_s"] += selfs[sid]
    return out


def ratio(numerator: float, base: float) -> dict:
    """``numerator / base`` reported with both operands; 0.0 when the base is 0."""
    return {"value": numerator / base if base else 0.0, "numerator": numerator, "base": base}
