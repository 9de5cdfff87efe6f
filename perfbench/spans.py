"""Span recording around the control plane's public calls.

The benchmark times each layer from the outside: :class:`Tracer`
replaces a layer's public methods on their classes with thin wrappers
that record one span (name, start, end, parent) per call, and puts the
originals back on :meth:`Tracer.uninstall`.  Nothing inside the program
changes, so a traced run executes exactly the same code as an untraced
one plus the wrappers.

Spans are kept in memory; :func:`self_times` turns them into per-name
self time (a span's duration minus the part of it that its child spans
cover) and call counts.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span (-1 = root)."""

    name: str
    start: float
    end: float
    parent: int


class Tracer:
    """Records nested spans on the thread that created it.

    Calls made on other threads (worker pools) pass straight through
    untraced, so the span tree of the driving thread stays strictly
    nested.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self._patched: List[Tuple[type, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    def wrap(
        self,
        cls: type,
        method: str,
        name: str,
        on_return: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Time every call of ``cls.method`` as a span called ``name``.

        ``on_return`` sees each traced call's return value (for layer
        counters only the result carries, such as modeled settle time).
        """
        original = cls.__dict__[method]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if on_return is not None:
                on_return(result)
            return result

        setattr(cls, method, traced)
        self._patched.append((cls, method, original))

    def uninstall(self) -> None:
        """Restore every wrapped method (last wrapped, first restored)."""
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time (seconds) and call counts over a span list.

    A span's self time is its duration minus the union of its direct
    children's intervals.  On one thread children never overlap, so the
    self times of a tree sum to its root's duration.  A call counts
    once even when the layer re-enters itself (a span whose parent has
    the same name is not a new call).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index, span in enumerate(spans):
        own = (span.end - span.start) - _covered(children.get(index, ()))
        totals[span.name] = totals.get(span.name, 0.0) + own
        if span.parent < 0 or spans[span.parent].name != span.name:
            calls[span.name] = calls.get(span.name, 0) + 1
    return totals, calls
