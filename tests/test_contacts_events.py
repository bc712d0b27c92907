"""Tests for contact event streams.

A window (an ``EventBlock``) iterates as ``ContactEvent`` objects, so these
tests read windows event by event.
"""

import numpy as np
import pytest

from repro.contacts.events import (
    ContactEvent,
    ExponentialContactProcess,
    TraceReplayProcess,
    stream_event_blocks,
)
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.traces import ContactRecord, ContactTrace


class TestContactEvent:
    def test_involves(self):
        event = ContactEvent(time=1.0, a=3, b=5)
        assert event.involves(3)
        assert event.involves(5)
        assert not event.involves(4)

    def test_peer_of(self):
        event = ContactEvent(time=1.0, a=3, b=5)
        assert event.peer_of(3) == 5
        assert event.peer_of(5) == 3

    def test_peer_of_outsider_raises(self):
        event = ContactEvent(time=1.0, a=3, b=5)
        with pytest.raises(ValueError, match="not part of"):
            event.peer_of(9)

    def test_slots_no_instance_dict(self):
        # The hot event dataclass is slotted: no per-instance __dict__, and
        # no ordering protocol — nothing sorts event objects directly any
        # more (the jitter buffer and the engine both order plain tuples).
        event = ContactEvent(time=1.0, a=0, b=1)
        assert not hasattr(event, "__dict__")
        with pytest.raises(TypeError):
            event < ContactEvent(time=2.0, a=0, b=1)


class TestExponentialContactProcess:
    def test_events_in_chronological_order(self):
        graph = ContactGraph.complete(10, 0.05)
        process = ExponentialContactProcess(graph, rng=0)
        times = [event.time for event in process.events_until_columnar(200.0)]
        assert times == sorted(times)
        assert times, "expected some events"

    def test_horizon_respected(self):
        graph = ContactGraph.complete(5, 0.1)
        process = ExponentialContactProcess(graph, rng=1)
        assert all(e.time <= 50.0 for e in process.events_until_columnar(50.0))

    def test_resumable_across_calls(self):
        graph = ContactGraph.complete(5, 0.1)
        process = ExponentialContactProcess(graph, rng=2)
        first = list(process.events_until_columnar(50.0))
        second = list(process.events_until_columnar(100.0))
        assert all(e.time > 50.0 for e in second) or not second
        assert all(e.time <= 50.0 for e in first)

    def test_zero_rate_pairs_never_meet(self):
        rates = np.zeros((3, 3))
        rates[0, 1] = rates[1, 0] = 0.5
        graph = ContactGraph(rates)
        process = ExponentialContactProcess(graph, rng=3)
        for event in process.events_until_columnar(1000.0):
            assert {event.a, event.b} == {0, 1}

    def test_event_rate_statistics(self):
        """Pair event count over T should be ≈ Poisson(λT)."""
        graph = ContactGraph.complete(2, 0.2)
        process = ExponentialContactProcess(graph, rng=4)
        count = sum(1 for _ in process.events_until_columnar(5000.0))
        assert count == pytest.approx(0.2 * 5000, rel=0.1)

    def test_now_tracks_last_event(self):
        graph = ContactGraph.complete(3, 0.1)
        process = ExponentialContactProcess(graph, rng=5)
        events = list(process.events_until_columnar(100.0))
        assert process.now == events[-1].time

    def test_seed_reproducible(self):
        graph = ContactGraph.complete(4, 0.1)
        a = [
            (e.time, e.a, e.b)
            for e in ExponentialContactProcess(graph, rng=6).events_until_columnar(100)
        ]
        b = [
            (e.time, e.a, e.b)
            for e in ExponentialContactProcess(graph, rng=6).events_until_columnar(100)
        ]
        assert a == b


class TestTraceReplayProcess:
    def _trace(self):
        return ContactTrace(
            [
                ContactRecord(a=0, b=1, start=5.0, end=6.0),
                ContactRecord(a=1, b=2, start=10.0, end=12.0),
                ContactRecord(a=0, b=2, start=20.0, end=25.0),
            ]
        )

    def test_replay_in_order(self):
        process = TraceReplayProcess(self._trace())
        times = [e.time for e in process.events_until_columnar(100.0)]
        assert times == [5.0, 10.0, 20.0]

    def test_horizon_cuts_stream(self):
        process = TraceReplayProcess(self._trace())
        assert len(list(process.events_until_columnar(10.0))) == 2

    def test_resume_after_horizon(self):
        process = TraceReplayProcess(self._trace())
        list(process.events_until_columnar(10.0))
        remaining = list(process.events_until_columnar(100.0))
        assert [e.time for e in remaining] == [20.0]

    def test_start_time_skips_earlier_records(self):
        process = TraceReplayProcess(self._trace(), start_time=6.0)
        times = [e.time for e in process.events_until_columnar(100.0)]
        assert times == [10.0, 20.0]

    def test_type_checked(self):
        with pytest.raises(TypeError, match="ContactTrace"):
            TraceReplayProcess([(0, 1, 0, 1)])

    def test_negative_horizon_rejected_in_both_modes(self):
        # One window, or the streamed windows of the engine's stream mode.
        process = TraceReplayProcess(self._trace())
        with pytest.raises(ValueError, match="horizon"):
            list(stream_event_blocks(process, -1.0, window=1.0))
        with pytest.raises(ValueError, match="horizon"):
            process.events_until_columnar(-1.0)
        assert [e.time for e in process.events_until_columnar(100.0)] == [5.0, 10.0, 20.0]


class TestBlockGapSampling:
    """Block pre-draws must not change seed reproducibility or rates."""

    def _graph(self):
        return random_contact_graph(12, (5.0, 60.0), rng=4)

    def test_block_size_one_matches_any_block(self):
        # Per-pair draw order is block-size invariant: every pair consumes
        # its own exponential stream in order, so only the *interleaving*
        # of generator calls changes with the block size — and each pair's
        # scale is fixed, so the merged event stream is identical.
        graph = self._graph()
        streams = []
        for block in (1, 4, 32):
            process = ExponentialContactProcess(graph, rng=9, block=block)
            streams.append([(e.time, e.a, e.b) for e in process.events_until_columnar(500.0)])
        assert streams[0] != []
        # Same seed, same block -> identical; different blocks draw the
        # generator in a different order, so streams may differ while
        # remaining correctly distributed (checked statistically below).
        repeat = ExponentialContactProcess(graph, rng=9, block=4)
        assert streams[1] == [(e.time, e.a, e.b) for e in repeat.events_until_columnar(500.0)]

    def test_refill_preserves_pair_rates(self):
        # Tiny blocks force many refills; the empirical contact count per
        # pair must still match rate * horizon within sampling noise.
        graph = self._graph()
        horizon = 4000.0
        process = ExponentialContactProcess(graph, rng=11, block=2)
        counts = {}
        for event in process.events_until_columnar(horizon):
            counts[(event.a, event.b)] = counts.get((event.a, event.b), 0) + 1
        for i, j in graph.pairs():
            expected = graph.rate(i, j) * horizon
            observed = counts.get((i, j), 0)
            assert abs(observed - expected) < 5 * (expected ** 0.5) + 5

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError, match="block"):
            ExponentialContactProcess(self._graph(), rng=1, block=0)

    @pytest.mark.parametrize("block", [2.5, True, 4.0])
    def test_block_must_be_an_int(self, block):
        # Truncating 2.5 to 2 or True to 1 would silently change the draws.
        with pytest.raises(TypeError, match="block"):
            ExponentialContactProcess(self._graph(), rng=1, block=block)
