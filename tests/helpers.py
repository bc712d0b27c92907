"""Shared test helpers: scripted event sources and the broadcast oracle."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.contacts.events import ContactEvent


class ScriptedEvents:
    """A deterministic contact-event source built from (time, a, b) tuples."""

    def __init__(self, events: Iterable[Tuple[float, int, int]]):
        self._events: List[ContactEvent] = sorted(
            (ContactEvent(time=t, a=a, b=b) for t, a, b in events),
            key=lambda e: e.time,
        )
        self._cursor = 0

    def events_until(self, horizon: float):
        while self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.time > horizon:
                return
            self._cursor += 1
            yield event


def feed(session, events: Sequence[Tuple[float, int, int]]) -> None:
    """Push scripted contacts straight into a session, in time order."""
    for t, a, b in sorted(events):
        session.on_contact(ContactEvent(time=t, a=a, b=b))


class BroadcastEngine:
    """Equivalence oracle for :class:`~repro.sim.engine.SimulationEngine`.

    The plain O(events × sessions) scan: every event is pulled lazily and
    offered to every live session in registration order, with no interest
    index, wakeup heap, kernels or scalar fast path. It has the engine's
    ``add_session``/``run`` API and quarantine semantics, and it accepts
    (and ignores) the engine's consumption knobs, so tests can
    monkeypatch it over ``repro.experiments.runners.SimulationEngine``.
    """

    def __init__(self, events, horizon: float, on_error: str = "quarantine", **_knobs):
        self._events = events
        self._horizon = horizon
        self._on_error = on_error
        self._sessions: List = []
        self._quarantined: List = []

    @property
    def quarantined(self):
        return tuple(self._quarantined)

    def add_session(self, session):
        self._sessions.append(session)
        return session

    def run(self) -> None:
        failed = set()
        for event in self._events.events_until(self._horizon):
            all_done = True
            for session in self._sessions:
                if id(session) in failed or session.done:
                    continue
                try:
                    session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    failed.add(id(session))
                    self._quarantined.append((session, error))
                    session.outcome().status = "failed"
                    continue
                all_done = all_done and session.done
            if all_done:
                return
