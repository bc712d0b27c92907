"""The engine must match the broadcast scan outcome for outcome.

The watched-nodes contract promises that every event the engine's
interest index skips would have been a no-op for the session. These tests
check the promise end-to-end against :class:`tests.helpers.BroadcastEngine`,
which offers every event to every session: the same seeded batch, run by
both engines, must produce byte-identical ``DeliveryOutcome`` sequences —
including under faults (greyhole relays, fail-stop deaths, custody
recovery), where the shared-RNG draw order is the easiest thing to get
subtly wrong.
"""

import math

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.events import ContactEvent
from repro.contacts.random_graph import random_contact_graph
from repro.faults.failstop import FailStopSchedule
from repro.faults.recovery import RecoveryPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import DeliveryOutcome
from repro.sim.protocol import ProtocolSession
from repro.experiments import runners
from repro.experiments.runners import (
    run_faulty_graph_batch,
    run_random_graph_batch,
)
from tests.helpers import BroadcastEngine, ScriptedEvents


def outcome_fields(pairs):
    """Every DeliveryOutcome field, fully materialised for == comparison."""
    return [
        (
            o.delivered,
            o.delivery_time,
            o.transmissions,
            o.expired_copies,
            o.lost_copies,
            o.created_at,
            o.status,
            tuple(tuple(p) for p in o.paths),
            tuple(o.transfers),
        )
        for _, o in pairs
    ]


@pytest.fixture(scope="module")
def graph():
    return random_contact_graph(40, (10.0, 120.0), rng=np.random.default_rng(7))


@pytest.fixture
def both_modes(monkeypatch):
    """Run a batch under the broadcast oracle and the engine, seeded alike.

    ``make_kwargs`` builds per-run keyword arguments — fault objects like
    :class:`DroppingRelays` carry their own RNG state and must be
    constructed fresh for each run, or the first run perturbs the second.
    """

    def run_both(batch_fn, graph, seed, make_kwargs=dict, **kwargs):
        def run():
            return outcome_fields(
                batch_fn(
                    graph,
                    4,
                    2,
                    horizon=360.0,
                    sessions=30,
                    rng=np.random.default_rng(seed),
                    **kwargs,
                    **make_kwargs(),
                )
            )

        with monkeypatch.context() as patch:
            patch.setattr(runners, "SimulationEngine", BroadcastEngine)
            broadcast = run()
        return broadcast, run()

    return run_both


class TestDispatchEquivalence:
    def test_single_copy_batch(self, graph, both_modes):
        broadcast, indexed = both_modes(
            run_random_graph_batch, graph, 11, copies=1
        )
        assert broadcast == indexed

    def test_multi_copy_batch(self, graph, both_modes):
        broadcast, indexed = both_modes(
            run_random_graph_batch, graph, 12, copies=3
        )
        assert broadcast == indexed

    def test_greyhole_with_recovery_batch(self, graph, both_modes):
        # Dropping relays draw from a shared RNG stream, so any difference
        # in dispatch order or count between modes shows up immediately.
        for copies in (1, 3):
            broadcast, indexed = both_modes(
                run_faulty_graph_batch,
                graph,
                13,
                copies=copies,
                make_kwargs=lambda: {
                    "relays": DroppingRelays(
                        frozenset(range(5, 15)),
                        0.6,
                        rng=np.random.default_rng(99),
                    ),
                    "recovery": RecoveryPolicy(
                        custody_timeout=30.0, max_retries=2
                    ),
                },
            )
            assert broadcast == indexed

    def test_failstop_batch(self, graph, both_modes):
        # Fail-stop sessions opt out of indexing (watched_nodes -> None);
        # equivalence must still hold through the broadcast fallback.
        broadcast, indexed = both_modes(
            run_faulty_graph_batch,
            graph,
            14,
            copies=3,
            make_kwargs=lambda: {
                "failstop": FailStopSchedule(
                    graph.n, death_rate=0.002, rng=np.random.default_rng(5)
                )
            },
        )
        assert broadcast == indexed


class FaultyWatchedSession(ProtocolSession):
    """Watches node 0 and raises on its second dispatched contact."""

    def __init__(self):
        self.seen = 0

    def watched_nodes(self):
        return frozenset({0})

    def on_contact(self, event):
        self.seen += 1
        if self.seen >= 2:
            raise RuntimeError("boom")

    @property
    def done(self):
        return False

    def outcome(self):
        return DeliveryOutcome()


class WatchingRecorder(ProtocolSession):
    """Records dispatched events for one watched node."""

    def __init__(self, node):
        self.node = node
        self.seen = []

    def watched_nodes(self):
        return frozenset({self.node})

    def on_contact(self, event):
        self.seen.append(event.time)

    @property
    def done(self):
        return False

    def outcome(self):
        return DeliveryOutcome()


class TestQuarantineUnderIndexing:
    def events(self):
        return [
            ContactEvent(time=float(t), a=0, b=1) for t in range(1, 6)
        ] + [ContactEvent(time=6.0, a=2, b=3)]

    @pytest.mark.parametrize("dispatch", ["broadcast", "indexed"])
    def test_raising_session_is_quarantined(self, dispatch):
        engine_cls = BroadcastEngine if dispatch == "broadcast" else SimulationEngine
        engine = engine_cls(ScriptedEvents(self.events()), horizon=10.0)
        faulty = FaultyWatchedSession()
        healthy = WatchingRecorder(0)
        engine.add_session(faulty)
        engine.add_session(healthy)
        engine.run()
        assert [s for s, _ in engine.quarantined] == [faulty]
        assert faulty.seen == 2  # stopped at the raising event
        # The engine's index skips the final (2, 3) contact for a session
        # watching node 0; the broadcast oracle delivers everything.
        expected = [1.0, 2.0, 3.0, 4.0, 5.0]
        if dispatch == "broadcast":
            expected.append(6.0)
        assert healthy.seen == expected

    def test_quarantined_session_not_redispatched_by_index(self):
        engine = SimulationEngine(
            ScriptedEvents(self.events()), horizon=10.0
        )
        faulty = FaultyWatchedSession()
        engine.add_session(faulty)
        engine.run()
        assert faulty.seen == 2
        assert [s for s, _ in engine.quarantined] == [faulty]


class TestWakeupPolling:
    def test_next_poll_time_triggers_on_unrelated_event(self):
        class ExpiringSession(ProtocolSession):
            """Ignores node activity; flips done once time passes 3.5."""

            def __init__(self):
                self.expired_at = None

            def watched_nodes(self):
                return frozenset({99})  # never meets anyone

            def next_poll_time(self):
                return math.inf if self.expired_at is not None else 3.5

            def on_contact(self, event):
                if event.time > 3.5 and self.expired_at is None:
                    self.expired_at = event.time

            @property
            def done(self):
                return self.expired_at is not None

            def outcome(self):
                return DeliveryOutcome()

        events = [ContactEvent(time=float(t), a=0, b=1) for t in range(1, 7)]
        engine = SimulationEngine(
            ScriptedEvents(events), horizon=10.0
        )
        session = ExpiringSession()
        engine.add_session(session)
        engine.run()
        # The first event past the poll time (t=4) must reach the session
        # even though neither party is watched.
        assert session.expired_at == 4.0
