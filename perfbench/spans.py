"""Span recording for the traced run, and the per-layer numbers read from it.

A span is (name, start, end, parent, counts).  Names are
``<layer>.<entry point>``; the layer is the part before the first dot.
Spans are kept in memory and written once, when the traced command ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "kernels", "opalgebra", "sampler", "verify")


class Recorder:
    """Collects spans from any thread.

    A span's parent is the innermost open span of its own thread.  A span
    opened by a pool thread with nothing open there is parented to the
    innermost open span of the thread that made the recorder, which is the
    call waiting on the pool.
    """

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, counts: dict | None = None) -> list:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]
        elif stack is not self._main:
            try:
                parent = self._main[-1]
            except IndexError:
                parent = None
        span = [name, 0.0, 0.0, parent, counts]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: list):
        span[2] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def save(self, path: Path):
        import numpy as np  # not at module level: cli.import must time numpy

        index = {id(span): i for i, span in enumerate(self.spans)}
        names = sorted({span[0] for span in self.spans})
        name_id = {name: i for i, name in enumerate(names)}
        counts = {str(i): span[4] for i, span in enumerate(self.spans) if span[4]}
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(names, dtype=str),
                name=np.array([name_id[s[0]] for s in self.spans], dtype=np.int32),
                start=np.array([s[1] for s in self.spans], dtype=float),
                end=np.array([s[2] for s in self.spans], dtype=float),
                parent=np.array([-1 if s[3] is None else index[id(s[3])]
                                 for s in self.spans], dtype=np.int64),
                counts=np.array(json.dumps(counts)),
            )


def load(path: Path) -> list:
    """Spans as (name, start, end, parent index or -1, counts or None)."""
    import numpy as np

    with np.load(path, allow_pickle=False) as data:
        names = [str(n) for n in data["names"]]
        counts = {int(k): v for k, v in json.loads(str(data["counts"])).items()}
        return [
            (names[n], float(s), float(e), int(p), counts.get(i))
            for i, (n, s, e, p) in enumerate(zip(
                data["name"], data["start"], data["end"], data["parent"]))
        ]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    Children of one span can overlap when they ran on different threads;
    the union counts once.
    """
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(i, ()), start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def outermost_time(spans, names) -> float:
    """Total duration of spans named in ``names`` with no ancestor so named.

    This is the time callers waited on those entry points, nested calls
    among them counted once.
    """
    names = set(names)
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_self_times(spans) -> dict:
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] += own
    return totals


def count(spans, key: str) -> float:
    """Sum of one count over the spans that carry it."""
    return sum(span[4].get(key, 0) for span in spans if span[4])
