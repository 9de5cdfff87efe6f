"""Virtual-time open-loop request generator.

Requests arrive on a seeded schedule whether or not the control plane
has caught up, as independent users would send them.  The loop runs
in *virtual* time so that a run measures the control plane and not the
gaps between arrivals:

* idle gaps are skipped: when nothing is due, the clock jumps to the
  next arrival, stop or pipeline deadline;
* every wall second spent inside a control-plane call (submit, tick,
  stop) is charged to the clock, so arrivals that fall due while the
  control plane is busy are issued when the call returns, stamped with
  their due instant, and wait for the next tick as they would in a
  queue.

A request's latency runs from its *due* instant to the end of the call
that served it, so a stall counts against every request it delayed.
How late each request was issued is the generator lag: on one thread it
is the time the control plane held the loop when the request fell due.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Protocol


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: due at ``due``, stopped at ``due + hold``."""

    index: int
    due: float
    hold: float
    payload: object


@dataclass
class Completion:
    """A served request with its virtual issue and serve instants."""

    arrival: Arrival
    token: object
    issued_at: float
    served_at: float

    @property
    def latency_s(self) -> float:
        return self.served_at - self.arrival.due


class Target(Protocol):
    """The control plane as the open loop sees it."""

    def issue(self, arrival: Arrival, now: float) -> object:
        """Submit one request; returns a token that identifies it.

        The request entered the system at ``arrival.due``; ``now`` is
        later when the control plane was busy until then.
        """

    def tick(self, now: float) -> List[object]:
        """Let the control plane work; returns the tokens it served."""

    def stop(self, token: object, now: float) -> None:
        """Stop a request after its hold."""

    def next_deadline(self, now: float) -> Optional[float]:
        """Earliest instant a tick would make progress (None = idle)."""


class OpenLoop:
    """Drives a :class:`Target` through a stream of :class:`Arrival`."""

    def __init__(
        self,
        target: Target,
        arrivals: Iterator[Arrival],
        timer: Callable[[], float] = time.perf_counter,
    ):
        self.target = target
        self.timer = timer
        self.now = 0.0
        self.issued: List[tuple] = []  # (arrival, token, issued_at)
        self._arrivals: Optional[Iterator[Arrival]] = arrivals
        self._next: Optional[Arrival] = next(arrivals, None)
        self._stops: list = []  # heap of (due, seq, token)
        self._pending: dict = {}  # id(token) -> (arrival, token, issued_at)

    def stop_generating(self) -> None:
        """Issue no further arrivals; pending stops and work still run."""
        self._arrivals = None
        self._next = None

    def lags_s(self) -> List[float]:
        """How late each issued request was issued, in issue order."""
        return [issued_at - arrival.due for arrival, _, issued_at in self.issued]

    def _charged(self, call, *args):
        started = self.timer()
        result = call(*args)
        self.now += self.timer() - started
        return result

    def step(self) -> Optional[List[Completion]]:
        """Perform one control-plane call; ``None`` once nothing is left.

        Overdue arrivals and stops go first, in due order (a stop before
        an arrival due at the same instant, so a freed key is free), so
        one tick can batch everything that queued during a busy spell.
        """
        while True:
            event_due = min(
                (
                    due
                    for due in (
                        self._stops[0][0] if self._stops else None,
                        self._next.due if self._next is not None else None,
                    )
                    if due is not None
                ),
                default=None,
            )
            deadline = self.target.next_deadline(self.now)
            if event_due is None and deadline is None:
                return None
            if event_due is not None and event_due <= self.now:
                return self._event()
            if deadline is not None and deadline <= self.now:
                return self._tick()
            self.now = min(t for t in (event_due, deadline) if t is not None)

    def _event(self) -> List[Completion]:
        if self._stops and (
            self._next is None or self._stops[0][0] <= self._next.due
        ):
            _, _, token = heapq.heappop(self._stops)
            self._pending.pop(id(token), None)
            self._charged(self.target.stop, token, self.now)
            return []
        arrival = self._next
        self._next = next(self._arrivals, None)
        issued_at = self.now
        token = self._charged(self.target.issue, arrival, self.now)
        record = (arrival, token, issued_at)
        self.issued.append(record)
        self._pending[id(token)] = record
        heapq.heappush(
            self._stops, (arrival.due + arrival.hold, arrival.index, token)
        )
        return []

    def _tick(self) -> List[Completion]:
        served = self._charged(self.target.tick, self.now)
        done = []
        for token in served:
            record = self._pending.get(id(token))
            if record is not None:
                arrival, _, issued_at = record
                done.append(Completion(arrival, token, issued_at, self.now))
        return done
