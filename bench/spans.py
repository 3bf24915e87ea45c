"""In-memory span recorder with one span stack per thread.

A span is (id, name, start_ns, end_ns, parent, thread).  Each thread keeps its
own stack of open spans, so spans opened concurrently on a worker pool never
become each other's parents.  Work handed to another thread is parented
explicitly with ``adopt``.  A span's self time is its duration minus the part
of its interval that its children cover; children on other threads that
overlap in time are merged first, so parallel children are not subtracted
twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int


class SpanRecorder:
    """Collects finished spans and exact counters; safe to share across threads.

    Span ids come from ``itertools.count`` and finished spans are appended to
    a list; both are single atomic operations under the interpreter lock.
    Counters are read-modify-write, so they take the lock.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self) -> int | None:
        """Id of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run fn on the calling thread with parent as its open span."""
        if parent is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def add(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def wrap(self, fn, name: str, tally=None):
        """fn inside a span called name; tally(recorder, args, result) after."""
        stack_of, ids, finished = self._stack, self._ids, self.spans.append
        clock, thread = time.perf_counter_ns, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                finished(Span(sid, name, start, end, parent, thread()))
            if tally is not None:
                tally(self, args, result)
            return result

        return traced

    def write_ndjson(self, fh, op: int) -> None:
        """One JSON array per span: op, id, name, start, end, parent, thread."""
        for s in self.spans:
            fh.write(json.dumps([op, *s]) + "\n")


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the time its children cover, in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {s.id: (s.end_ns - s.start_ns)
            - covered_ns(children[s.id], s.start_ns, s.end_ns)
            for s in spans}


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["s"] += (s.end_ns - s.start_ns) * 1e-9
        row["self_s"] += own[s.id] * 1e-9
    return dict(out)
