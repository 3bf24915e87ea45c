"""Tests of the span recorder: self-time arithmetic and per-thread stacks.

    python3 -m pytest bench/test_spans.py
"""

import threading

import pytest

from spans import Span, SpanRecorder, self_times, summarize

A, B, C = 1, 2, 3  # thread ids


def test_self_time_nested_two_threads():
    spans = [
        Span(1, "root", 0, 100, None, A),
        Span(2, "child", 10, 30, 1, A),
        Span(3, "leaf", 15, 20, 2, A),
        # two children of the root on worker threads, overlapping in [50, 80]
        Span(4, "worker", 20, 80, 1, B),
        Span(5, "worker", 50, 90, 1, C),
        Span(6, "leaf", 30, 40, 4, B),
        # a child that outlives its parent only counts inside the parent
        Span(7, "leaf", 35, 45, 6, B),
    ]
    own = self_times(spans)
    # root: children cover [10, 90], so 20 ns are its own
    assert own == {1: 20, 2: 15, 3: 5, 4: 50, 5: 40, 6: 5, 7: 10}

    rows = summarize(spans)
    assert rows["worker"]["calls"] == 2
    assert rows["worker"]["s"] == pytest.approx(100e-9)
    assert rows["worker"]["self_s"] == pytest.approx(90e-9)
    assert rows["leaf"]["self_s"] == pytest.approx(20e-9)


def test_each_thread_has_its_own_stack():
    rec = SpanRecorder()
    both_open = threading.Barrier(2, timeout=10)

    def work():
        both_open.wait()  # the other thread's span is open now
        both_open.wait()

    traced = rec.wrap(work, "work")

    def main():
        worker = threading.Thread(target=traced)
        worker.start()
        both_open.wait()
        both_open.wait()
        worker.join(timeout=10)
        assert not worker.is_alive()

    rec.wrap(main, "main")()

    by_name = {s.name: s for s in rec.spans}
    assert by_name["work"].parent is None      # not the main thread's open span
    assert by_name["main"].parent is None
    assert by_name["work"].thread != by_name["main"].thread
    assert rec.current() is None


def test_adopt_parents_work_on_another_thread():
    rec = SpanRecorder()
    leaf = rec.wrap(lambda: None, "leaf")

    def submit():
        parent = rec.current()
        t = threading.Thread(target=rec.adopt, args=(parent, leaf))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.wrap(submit, "root")()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["leaf"].parent == by_name["root"].id
    assert by_name["leaf"].thread != by_name["root"].thread
