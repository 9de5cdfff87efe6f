"""The request_stream schedule: balanced, seeded, never reusing a held key."""

import collections
import itertools

import pytest

import workloads


@pytest.fixture(scope="module")
def stream():
    workload = workloads.RequestStream(7)
    workload.setup()
    yield workload
    workload.close()


def _take(workload, n):
    return list(itertools.islice(workload.arrivals(), n))


def test_each_block_holds_every_pair_once(stream):
    block = len(stream.clients) * sum(workloads.REQUEST_MIX.values())
    arrivals = _take(stream, 3 * block)
    counts = collections.Counter(a.payload for a in arrivals)
    assert len(counts) == block
    assert set(counts.values()) == {3}
    first = collections.Counter(a.payload for a in arrivals[:block])
    assert max(first.values()) == 1


def test_schedule_is_seeded(stream):
    again = workloads.RequestStream(7)
    again.clients = stream.clients
    other = workloads.RequestStream(8)
    other.clients = stream.clients
    assert _take(again, 200) == _take(stream, 200)
    assert _take(other, 200) != _take(stream, 200)


def test_no_key_is_issued_while_held(stream):
    arrivals = _take(stream, 2000)
    assert [a.index for a in arrivals] == list(range(len(arrivals)))
    assert all(b.due >= a.due for a, b in zip(arrivals, arrivals[1:]))
    busy_until = {}
    for a in arrivals:
        assert busy_until.get(a.payload, -1.0) < a.due
        busy_until[a.payload] = a.due + a.hold
