"""Tests for the discrete-event engine."""

import pytest

from repro.contacts.events import ContactEvent
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import DeliveryOutcome
from repro.sim.protocol import ProtocolSession
from tests.helpers import ScriptedEvents


class RecordingSession(ProtocolSession):
    """Counts contacts; optionally finishes after ``stop_after`` events."""

    def __init__(self, stop_after=None):
        self.seen = []
        self._stop_after = stop_after

    def on_contact(self, event):
        self.seen.append(event)

    @property
    def done(self):
        return self._stop_after is not None and len(self.seen) >= self._stop_after

    def outcome(self):
        return DeliveryOutcome()


def _events(*times):
    return [ContactEvent(time=t, a=0, b=1) for t in times]


class TestSimulationEngine:
    def test_dispatches_all_events(self):
        engine = SimulationEngine(ScriptedEvents(_events(1, 2, 3)), horizon=10)
        session = engine.add_session(RecordingSession())
        engine.run()
        assert len(session.seen) == 3
        assert engine.events_processed == 3

    def test_horizon_cuts_stream(self):
        engine = SimulationEngine(ScriptedEvents(_events(1, 2, 30)), horizon=10)
        session = engine.add_session(RecordingSession())
        engine.run()
        assert len(session.seen) == 2

    def test_early_exit_when_all_done(self):
        engine = SimulationEngine(ScriptedEvents(_events(1, 2, 3, 4)), horizon=10)
        session = engine.add_session(RecordingSession(stop_after=2))
        engine.run()
        assert len(session.seen) == 2

    def test_done_sessions_skip_events_but_others_continue(self):
        engine = SimulationEngine(ScriptedEvents(_events(1, 2, 3)), horizon=10)
        finished = engine.add_session(RecordingSession(stop_after=1))
        ongoing = engine.add_session(RecordingSession())
        engine.run()
        assert len(finished.seen) == 1
        assert len(ongoing.seen) == 3

    def test_no_sessions_rejected(self):
        engine = SimulationEngine(ScriptedEvents([]), horizon=10)
        with pytest.raises(RuntimeError, match="no protocol sessions"):
            engine.run()

    def test_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            SimulationEngine(ScriptedEvents([]), horizon=0)


class RaisingSession(ProtocolSession):
    """Raises on the Nth contact it sees."""

    def __init__(self, raise_on=1):
        self.seen = 0
        self._raise_on = raise_on
        self._outcome = DeliveryOutcome()

    def on_contact(self, event):
        self.seen += 1
        if self.seen >= self._raise_on:
            raise RuntimeError("scripted failure")

    @property
    def done(self):
        return False

    def outcome(self):
        return self._outcome


class TestQuarantine:
    def _events(self, count=4):
        return ScriptedEvents(
            [ContactEvent(time=float(t), a=0, b=1) for t in range(1, count + 1)]
        )

    def test_raising_session_is_quarantined_not_fatal(self):
        engine = SimulationEngine(self._events(), horizon=10.0)
        bad = engine.add_session(RaisingSession(raise_on=2))
        good = engine.add_session(RecordingSession())
        engine.run()
        # the healthy session keeps receiving events after the failure
        assert len(good.seen) == 4
        assert bad.seen == 2  # no dispatch after quarantine
        assert len(engine.quarantined) == 1
        session, error = engine.quarantined[0]
        assert session is bad
        assert isinstance(error, RuntimeError)

    def test_quarantined_outcome_marked_failed(self):
        engine = SimulationEngine(self._events(), horizon=10.0)
        bad = engine.add_session(RaisingSession())
        engine.add_session(RecordingSession())
        engine.run()
        assert bad.outcome().status == "failed"

    def test_on_error_raise_propagates(self):
        engine = SimulationEngine(self._events(), horizon=10.0, on_error="raise")
        engine.add_session(RaisingSession())
        with pytest.raises(RuntimeError, match="scripted failure"):
            engine.run()

    def test_all_quarantined_counts_as_done(self):
        engine = SimulationEngine(self._events(), horizon=10.0)
        engine.add_session(RaisingSession())
        engine.run()
        assert engine.events_processed == 1  # early exit, everyone is done

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            SimulationEngine(self._events(), horizon=10.0, on_error="ignore")
