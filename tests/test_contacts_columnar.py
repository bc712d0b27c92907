"""Columnar event pipeline: block format, producer equivalence, engine modes.

The load-bearing property of the whole pipeline is *seed-exactness*: for a
fixed seed, the sampled producer must emit exactly the events of the
per-event heap merge of its pair clocks (``tests.helpers.HeapContactOracle``)
— same times, same pairs, same order — and leave its generator where the
merge would, however the stream is cut into windows.
"""

import collections
import itertools

import numpy as np
import pytest

from repro.contacts.events import (
    ColumnarEventSource,
    ContactEvent,
    EventBlock,
    ExponentialContactProcess,
    TraceReplayProcess,
    as_event_source,
    stream_event_blocks,
)
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import cambridge_like_trace
from repro.contacts.traces import ContactRecord, ContactTrace
from repro.experiments import runners
from repro.experiments.runners import run_random_graph_batch, run_trace_batch
from repro.sim.engine import SimulationEngine
from tests.helpers import BroadcastEngine, HeapContactOracle


def _events_tuples(events):
    return [(e.time, e.a, e.b) for e in events]


def _block_tuples(block):
    return list(zip(block.times.tolist(), block.a.tolist(), block.b.tolist()))


class TestEventBlock:
    def test_from_events_roundtrip(self):
        events = [
            ContactEvent(time=1.0, a=0, b=1),
            ContactEvent(time=2.5, a=2, b=3),
        ]
        block = EventBlock.from_events(events)
        assert len(block) == 2
        assert _events_tuples(block) == _events_tuples(events)

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            EventBlock(
                times=np.array([1.0, 2.0]), a=np.array([0]), b=np.array([1])
            )

    def test_empty(self):
        block = EventBlock.empty()
        assert len(block) == 0
        assert list(block) == []

    def test_coerces_dtypes(self):
        block = EventBlock(times=[1, 2], a=[0, 1], b=[2, 3])
        assert block.times.dtype == np.float64
        assert block.a.dtype == np.int64


class TestColumnarEventSource:
    def _block(self):
        return EventBlock(
            times=np.array([1.0, 2.0, 3.0, 4.0]),
            a=np.array([0, 1, 2, 3]),
            b=np.array([4, 5, 6, 7]),
        )

    def test_replays_in_windows(self):
        source = ColumnarEventSource(self._block())
        first = source.events_until_columnar(2.0)
        second = source.events_until_columnar(10.0)
        assert _block_tuples(first) == [(1.0, 0, 4), (2.0, 1, 5)]
        assert _block_tuples(second) == [(3.0, 2, 6), (4.0, 3, 7)]

    def test_iterator_and_columnar_share_cursor(self):
        # A window read through its ContactEvent view still moves the cursor.
        source = ColumnarEventSource(self._block())
        assert _events_tuples(source.events_until_columnar(1.5)) == [(1.0, 0, 4)]
        rest = source.events_until_columnar(10.0)
        assert _block_tuples(rest) == [(2.0, 1, 5), (3.0, 2, 6), (4.0, 3, 7)]

    def test_as_event_source_wraps_blocks(self):
        source = as_event_source(self._block())
        assert isinstance(source, ColumnarEventSource)
        # Pass-through for anything that already serves windows.
        assert as_event_source(source) is source
        with pytest.raises(TypeError, match="event source"):
            as_event_source([ContactEvent(time=1.0, a=0, b=1)])


class TestExponentialColumnarEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("n,horizon", [(12, 300.0), (30, 720.0)])
    def test_matches_legacy_iterator_stream(self, seed, n, horizon):
        graph = random_contact_graph(
            n, (10.0, 120.0), rng=np.random.default_rng(seed)
        )
        legacy = HeapContactOracle(graph, np.random.default_rng(seed))
        columnar = ExponentialContactProcess(
            graph, rng=np.random.default_rng(seed)
        )
        expected = list(legacy.events_until(horizon))
        block = columnar.events_until_columnar(horizon)
        assert _block_tuples(block) == expected

    def test_windowed_reads_match_one_shot(self):
        graph = random_contact_graph(
            20, (10.0, 120.0), rng=np.random.default_rng(1)
        )
        one_shot = ExponentialContactProcess(
            graph, rng=np.random.default_rng(9)
        ).events_until_columnar(600.0)
        windowed = ExponentialContactProcess(
            graph, rng=np.random.default_rng(9)
        )
        merged = []
        for horizon in (150.0, 300.0, 450.0, 600.0):
            merged.extend(_block_tuples(windowed.events_until_columnar(horizon)))
        assert merged == _block_tuples(one_shot)

    def test_mixed_mode_stays_seed_exact(self):
        # One horizon-wide window, then streamed windows for the rest —
        # the engine's two consume modes — and the other way round: the
        # stream must be the one the pure merge produces.
        graph = random_contact_graph(
            15, (10.0, 120.0), rng=np.random.default_rng(2)
        )
        expected = list(
            HeapContactOracle(graph, np.random.default_rng(3)).events_until(500.0)
        )

        mixed = ExponentialContactProcess(graph, rng=np.random.default_rng(3))
        head = _block_tuples(mixed.events_until_columnar(200.0))
        tail = [
            row
            for block in stream_event_blocks(mixed, 500.0, window=7.0)
            for row in _block_tuples(block)
        ]
        assert head + tail == expected

        # Streamed windows leave the pair cursors mid-buffer, and the
        # wide read must resume from them.
        mixed2 = ExponentialContactProcess(graph, rng=np.random.default_rng(3))
        head2 = [
            row
            for block in stream_event_blocks(mixed2, 200.0, window=7.0)
            for row in _block_tuples(block)
        ]
        tail2 = _block_tuples(mixed2.events_until_columnar(500.0))
        assert head2 + tail2 == expected

    def test_rng_state_matches_iterator_after_window(self):
        # Stronger than equal output: the generator must be bit-identical
        # to the per-event merge's after the window.
        graph = random_contact_graph(
            10, (10.0, 120.0), rng=np.random.default_rng(4)
        )
        legacy = HeapContactOracle(graph, np.random.default_rng(5))
        columnar = ExponentialContactProcess(
            graph, rng=np.random.default_rng(5)
        )
        list(legacy.events_until(400.0))
        columnar.events_until_columnar(400.0)
        assert (
            legacy._rng.bit_generator.state
            == columnar._rng.bit_generator.state
        )


# Read plans for the producer contract: ("columnar", horizon) is one
# window; ("lazy", horizon[, ceiling]) reads up to ``horizon`` through
# ``stream_event_blocks`` — narrow windows produced one at a time, as the
# engine's stream mode does — optionally with a per-window event ceiling,
# whose adaptation cuts windows at horizons that fall mid-buffer.
READ_PLANS = {
    "one-shot": [("columnar", 1500.0)],
    "widening-windows": [
        ("columnar", horizon)
        for horizon in (0.0, 2.0, 40.0, 41.0, 150.0, 600.0, 601.0, 1500.0)
    ],
    "columnar-partial-lazy-columnar-lazy": [
        ("columnar", 100.0),
        ("lazy", 300.0, 57),
        ("columnar", 400.0),
        ("lazy", 900.0),
        ("columnar", 1500.0),
    ],
    "lazy-columnar": [("lazy", 300.0), ("columnar", 1500.0)],
}


class TestExponentialProducerContract:
    """Every windowing of the stream equals the per-event merge (the
    "pure iterator") at every block size."""

    @staticmethod
    def _read(process, plan):
        events = []
        for mode, horizon, *ceiling in plan:
            if mode == "columnar":
                events += _block_tuples(process.events_until_columnar(horizon))
            else:
                for block in stream_event_blocks(
                    process, horizon, window=3.0,
                    max_window_events=ceiling[0] if ceiling else None,
                ):
                    events += _block_tuples(block)
        return events

    @pytest.mark.parametrize("plan", sorted(READ_PLANS))
    @pytest.mark.parametrize("graph_kind", ["random", "no-pairs"])
    @pytest.mark.parametrize("block", [1, 2, 32])
    def test_matches_pure_iterator(self, block, graph_kind, plan):
        if graph_kind == "random":
            graph = random_contact_graph(
                12, (5.0, 60.0), rng=np.random.default_rng(8)
            )
        else:
            graph = ContactGraph(np.zeros((4, 4)))
        pure = HeapContactOracle(graph, np.random.default_rng(21), block=block)
        expected = list(pure.events_until(1500.0))
        mixed = ExponentialContactProcess(
            graph, rng=np.random.default_rng(21), block=block
        )
        assert self._read(mixed, READ_PLANS[plan]) == expected
        assert mixed.now == pure.now
        assert mixed._rng.bit_generator.state == pure._rng.bit_generator.state
        if graph_kind == "random":  # the plans cross row refills
            pair_counts = collections.Counter((a, b) for _, a, b in expected)
            assert max(pair_counts.values()) > 4 * block


class TestSuspendedIterator:
    """A suspended per-event merge agrees with the producer at every window."""

    @pytest.mark.parametrize("block", [1, 4, 32])
    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_reads_match_pure_iterator(self, seed, block):
        # The merge is suspended after exactly as many events as each
        # window returned; the two must then agree on the events, on the
        # last event time and on the generator state, so the producer's
        # refills happen in the merge's order at every window boundary.
        graph = random_contact_graph(
            10, (5.0, 60.0), rng=np.random.default_rng(seed)
        )
        oracle = HeapContactOracle(
            graph, np.random.default_rng(seed + 100), block=block
        )
        suspended = oracle.events_until(1500.0)
        process = ExponentialContactProcess(
            graph, rng=np.random.default_rng(seed + 100), block=block
        )
        for horizon in (0.0, 3.5, 3.5, 100.0, 101.0, 600.0, 900.0, 1500.0):
            window = _block_tuples(process.events_until_columnar(horizon))
            assert window == list(itertools.islice(suspended, len(window)))
            if window:
                assert process.now == oracle.now
            assert process._rng.bit_generator.state == oracle._rng.bit_generator.state
        assert next(suspended, None) is None


class TestTraceColumnarEquivalence:
    def _trace(self):
        return cambridge_like_trace(rng=np.random.default_rng(14))

    def test_matches_legacy_iterator_stream(self):
        # The replay is the trace's own records, in their stable order.
        trace = self._trace()
        columnar = TraceReplayProcess(trace)
        horizon = float(trace.records[-1].start)
        expected = [(r.start, r.a, r.b) for r in trace.records]
        assert _block_tuples(columnar.events_until_columnar(horizon)) == expected

    def test_simultaneous_records_keep_stable_order(self):
        # Ties must replay in the trace's stable record order, not be
        # re-sorted by node ids.
        trace = ContactTrace(
            [
                ContactRecord(start=1.0, end=2.0, a=5, b=6),
                ContactRecord(start=1.0, end=2.0, a=0, b=1),
                ContactRecord(start=3.0, end=4.0, a=2, b=3),
            ]
        )
        block = TraceReplayProcess(trace).events_until_columnar(10.0)
        assert _block_tuples(block) == [(1.0, 5, 6), (1.0, 0, 1), (3.0, 2, 3)]

    def test_windowed_reads_consume_cursor(self):
        trace = self._trace()
        process = TraceReplayProcess(trace)
        horizon = float(trace.records[-1].start)
        first = process.events_until_columnar(horizon / 2)
        second = process.events_until_columnar(horizon)
        expected = _block_tuples(TraceReplayProcess(trace).events_until_columnar(horizon))
        assert _block_tuples(first) + _block_tuples(second) == expected
        assert len(first) and len(second)


def _signature(pairs):
    return [
        (o.delivered, o.delivery_time, o.transmissions, o.status,
         tuple(tuple(p) for p in o.paths))
        for _, o in pairs
    ]


class TestEngineConsumeModes:
    def test_consume_validation(self):
        graph = random_contact_graph(
            10, (10.0, 120.0), rng=np.random.default_rng(0)
        )
        process = ExponentialContactProcess(graph, rng=np.random.default_rng(0))
        for retired in ("bogus", "columnar", "kernel", "iterator"):
            with pytest.raises(ValueError):
                SimulationEngine(process, horizon=10.0, consume=retired)

        class IteratorOnly:
            def events_until(self, horizon):
                return iter(())

        # A source without windows is rejected at construction.
        with pytest.raises(TypeError, match="events_until_columnar"):
            SimulationEngine(IteratorOnly(), horizon=10.0, consume="auto")
        assert SimulationEngine(process, horizon=10.0).consume == "auto"

    @pytest.mark.parametrize("seed", [11, 29])
    def test_random_batch_modes_identical(self, seed, monkeypatch):
        graph = random_contact_graph(
            25, (10.0, 120.0), rng=np.random.default_rng(seed)
        )

        def run(**kwargs):
            return _signature(
                run_random_graph_batch(
                    graph, 4, 2, copies=1, horizon=360.0, sessions=60,
                    rng=np.random.default_rng(seed), **kwargs,
                )
            )

        streamed = run(consume="stream", kernel=False)
        block = run(kernel=False)
        with monkeypatch.context() as patch:
            patch.setattr(runners, "SimulationEngine", BroadcastEngine)
            broadcast = run()
        assert broadcast == streamed == block

    def test_multicopy_batch_modes_identical(self):
        # Multi-copy sessions do not override the scalar hook, exercising
        # the per-event ContactEvent materialisation.
        graph = random_contact_graph(
            20, (10.0, 120.0), rng=np.random.default_rng(8)
        )
        sigs = {}
        for mode in ("stream", "auto"):
            pairs = run_random_graph_batch(
                graph, 4, 2, copies=3, horizon=360.0, sessions=30,
                rng=np.random.default_rng(8), consume=mode, kernel=False,
            )
            sigs[mode] = _signature(pairs)
        assert sigs["stream"] == sigs["auto"]

    def test_trace_batch_modes_identical(self):
        trace = cambridge_like_trace(rng=np.random.default_rng(21))
        sigs = {}
        for mode in ("stream", "auto"):
            pairs = run_trace_batch(
                trace, group_size=4, onion_routers=2, copies=1,
                deadline=3600.0, sessions=25,
                rng=np.random.default_rng(21), consume=mode, kernel=False,
            )
            sigs[mode] = _signature(pairs)
        assert sigs["stream"] == sigs["auto"]

    def test_columnar_counts_dispatched_events(self):
        from repro.sim.metrics import DeliveryOutcome
        from repro.sim.protocol import ProtocolSession

        class Recorder(ProtocolSession):
            def __init__(self):
                self.seen = []
                self._outcome = DeliveryOutcome(paths=[[0]], created_at=0.0)

            def on_contact(self, event):
                self.seen.append((event.time, event.a, event.b))

            @property
            def done(self):
                return False

            def outcome(self):
                return self._outcome

        graph = random_contact_graph(
            12, (10.0, 120.0), rng=np.random.default_rng(6)
        )
        counts, streams = {}, {}
        for mode in ("stream", "auto"):
            process = ExponentialContactProcess(
                graph, rng=np.random.default_rng(6)
            )
            engine = SimulationEngine(process, horizon=120.0, consume=mode)
            recorder = engine.add_session(Recorder())
            engine.run()
            counts[mode] = engine.events_processed
            streams[mode] = recorder.seen
        assert counts["stream"] == counts["auto"] > 0
        assert streams["stream"] == streams["auto"]
