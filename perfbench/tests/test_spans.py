"""Self time over span trees, and the class-level call wrapper."""

import pytest

from spans import Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_tree_sum_to_root():
    #  root [0, 10]
    #    a [1, 4]          a's child b [2, 3]
    #    a [5, 9]          re-entered a [6, 8] (same layer)
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
        Span("a", 6.0, 8.0, 3),
    ]
    totals, calls = self_times(spans)
    assert totals == pytest.approx({"root": 3.0, "a": 6.0, "b": 1.0})
    assert sum(totals.values()) == pytest.approx(10.0)
    # The re-entered span is part of the same call.
    assert calls == {"root": 1, "a": 2, "b": 1}


def test_overlapping_children_are_not_double_subtracted():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("w", 1.0, 5.0, 0),
        Span("w", 3.0, 7.0, 0),
    ]
    totals, _ = self_times(spans)
    assert totals["root"] == pytest.approx(4.0)


class Layer:
    def outer(self, clock):
        clock.now += 1.0
        self.inner(clock)
        clock.now += 1.0
        return "done"

    def inner(self, clock):
        clock.now += 2.0


def test_wrapped_calls_record_nested_spans_and_uninstall_restores():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    original_outer = Layer.__dict__["outer"]
    seen = []
    tracer.wrap(Layer, "outer", "L.outer", on_return=seen.append)
    tracer.wrap(Layer, "inner", "L.inner")
    root = tracer.begin("bench.loop")
    assert Layer().outer(clock) == "done"
    clock.now += 0.5
    tracer.end(root)
    tracer.uninstall()

    assert Layer.__dict__["outer"] is original_outer
    assert seen == ["done"]
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("bench.loop", -1), ("L.outer", 0), ("L.inner", 1)]
    totals, _ = self_times(tracer.spans)
    assert totals == pytest.approx({"bench.loop": 0.5, "L.outer": 2.0, "L.inner": 2.0})
    assert sum(totals.values()) == pytest.approx(4.5)
