"""The virtual-time open loop against a stub with fixed costs."""

import pytest

from openloop import Arrival, OpenLoop


class FakeTimer:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Stub:
    """Submit costs 0.01 s, a tick serving the queue 0.1 s, a stop 0."""

    def __init__(self, timer):
        self.timer = timer
        self.queue = []
        self.calls = []

    def issue(self, arrival, now):
        self.calls.append(("issue", arrival.index, round(now, 9)))
        self.timer.now += 0.01
        self.queue.append(arrival.index)
        return arrival.index

    def tick(self, now):
        self.calls.append(("tick", round(now, 9)))
        self.timer.now += 0.1
        served, self.queue = self.queue, []
        return served

    def stop(self, token, now):
        self.calls.append(("stop", token, round(now, 9)))

    def next_deadline(self, now):
        return now if self.queue else None


def drive(arrivals):
    timer = FakeTimer()
    stub = Stub(timer)
    loop = OpenLoop(stub, iter(arrivals), timer=timer)
    done = []
    while True:
        step = loop.step()
        if step is None:
            return loop, stub, done
        done.extend(step)


def test_latencies_and_lag_match_hand_computed_queueing():
    arrivals = [
        Arrival(0, 0.00, 10.0, None),
        Arrival(1, 0.05, 10.0, None),   # due while the first tick runs
        Arrival(2, 0.07, 10.0, None),   # also due during that tick
        Arrival(3, 0.50, 10.0, None),   # after an idle gap
    ]
    loop, stub, done = drive(arrivals)
    # t=0: issue #0 (-> 0.01), tick (-> 0.11) serves #0.
    # #1 and #2 fell due during the tick: issued at 0.11 and 0.12,
    # one tick at 0.13 serves both (-> 0.23).
    # Idle until 0.5: issue #3 (-> 0.51), tick (-> 0.61).
    served = {c.arrival.index: c.served_at for c in done}
    assert served == pytest.approx({0: 0.11, 1: 0.23, 2: 0.23, 3: 0.61})
    latencies = {c.arrival.index: c.latency_s for c in done}
    assert latencies == pytest.approx({0: 0.11, 1: 0.18, 2: 0.16, 3: 0.11})
    assert loop.lags_s() == pytest.approx([0.0, 0.06, 0.05, 0.0])
    # Stops run at due + hold, in due order, once everything is served.
    stops = [c for c in stub.calls if c[0] == "stop"]
    assert stops == [("stop", 0, 10.0), ("stop", 1, 10.05), ("stop", 2, 10.07),
                     ("stop", 3, 10.5)]


def test_stop_before_serve_is_not_a_completion():
    timer = FakeTimer()
    stub = Stub(timer)
    # Hold shorter than the issue cost: the stop is due before any tick.
    loop = OpenLoop(stub, iter([Arrival(0, 0.0, 0.005, None)]), timer=timer)
    assert loop.step() == []          # issue
    assert loop.step() == []          # stop, due at 0.005 <= now 0.01
    assert loop.step() == []          # tick: the stub still serves it ...
    assert loop.step() is None        # ... but no completion is reported


def test_stop_generating_drains_pending_work():
    timer = FakeTimer()
    stub = Stub(timer)
    arrivals = (Arrival(i, 0.3 * i, 1.0, None) for i in range(1000))
    loop = OpenLoop(stub, arrivals, timer=timer)
    loop.step()
    loop.stop_generating()
    while loop.step() is not None:
        pass
    assert len(loop.issued) == 1
    assert [c[0] for c in stub.calls] == ["issue", "tick", "stop"]
