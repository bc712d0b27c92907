"""Shared test helpers: scripted event sources and the two scalar oracles."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.adversary.observer import observed_path_anonymity
from repro.adversary.tracer import PathTracer
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


def block_copy_paths(block, trial: int, onion_routers: int, copies: int) -> List[List[int]]:
    """Trial ``trial``'s per-copy hop-sender paths from a ``SecurityTrialBlock``.

    ``copies`` lists of ``[source, member_1, …, member_K]``: at each hop
    the copies hold distinct group members while the group has enough,
    then wrap around.
    """
    source = int(block.sources[trial])
    members = block.copy_members[trial, :onion_routers, :copies]
    return [
        [source] + [int(members[k, c]) for k in range(onion_routers)]
        for c in range(copies)
    ]


def reference_security_score(kernel, variants) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Equivalence oracle for :meth:`~repro.adversary.kernel.SecurityBatchKernel.score`.

    Walks the kernel's block row by row: each trial's compromised set is
    its row of the numpy reference mask, its traceable rate comes from
    :class:`~repro.adversary.tracer.PathTracer` on copy 0's path, and its
    anonymity from :func:`~repro.adversary.observer.observed_path_anonymity`
    across all copies. It has the method's signature, so tests can
    monkeypatch it over ``SecurityBatchKernel.score`` and rerun a runner
    or figure through the scalar objects.
    """
    block, model = kernel.block, kernel.model
    scored = []
    for variant in variants:
        eta = variant.onion_routers + 1
        mask = model.mask_from_keys(block.compromise_keys, rate=variant.compromise_rate)
        traceable = np.empty(block.trials)
        anonymity = np.empty(block.trials)
        for trial in range(block.trials):
            compromised = {int(v) for v in np.flatnonzero(mask[trial])}
            paths = block_copy_paths(block, trial, variant.onion_routers, variant.copies)
            traceable[trial] = PathTracer(compromised).traceable_rate(paths[0])
            anonymity[trial] = observed_path_anonymity(
                paths, compromised, n=block.n, eta=eta, group_size=block.group_size
            )
        scored.append((traceable, anonymity))
    return scored
