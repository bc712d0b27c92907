"""Shared test helpers: scripted event sources and the scalar oracles."""

from __future__ import annotations

import heapq
import math
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.adversary.compromise import BernoulliCompromise
from repro.adversary.observer import observed_path_anonymity
from repro.adversary.tracer import PathTracer
from repro.contacts.events import ColumnarEventSource, ContactEvent, EventBlock


class ScriptedEvents(ColumnarEventSource):
    """A deterministic block source built from (time, a, b) tuples.

    Simultaneous contacts keep their listed order.
    """

    def __init__(self, events: Iterable[Tuple[float, int, int]]):
        rows = sorted(
            ((e.time, e.a, e.b) if isinstance(e, ContactEvent) else tuple(e)
             for e in events),
            key=lambda row: row[0],
        )
        super().__init__(
            EventBlock(
                times=[row[0] for row in rows],
                a=[row[1] for row in rows],
                b=[row[2] for row in rows],
            )
        )


def feed(session, events: Sequence[Tuple[float, int, int]]) -> None:
    """Push scripted contacts straight into a session, in time order."""
    for t, a, b in sorted(events):
        session.on_contact(ContactEvent(time=t, a=a, b=b))


class BroadcastEngine:
    """Equivalence oracle for :class:`~repro.sim.engine.SimulationEngine`.

    The plain O(events × sessions) scan: the source's horizon-wide block
    is walked row by row, and every event is offered as a
    :class:`ContactEvent` to every live session in registration order,
    with no interest index, wakeup heap, kernels or scalar fast path. It
    has the engine's ``add_session``/``run`` API and quarantine
    semantics, and it accepts (and ignores) the engine's consumption
    knobs, so tests can monkeypatch it over
    ``repro.experiments.runners.SimulationEngine``.
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
        for event in self._events.events_until_columnar(self._horizon):
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


class HeapContactOracle:
    """Per-event reference for :class:`~repro.contacts.events.ExponentialContactProcess`.

    The pair clocks merged one event at a time: a heap of ``(time, a, b,
    row)`` heads, where popping an event advances its pair by the next
    pre-drawn gap and refills the pair's row of ``block`` gaps with one
    ``exponential(scale, block)`` call when the row runs out. The initial
    gap matrix is drawn as the producer draws it. ``events_until`` is a
    resumable generator of ``(time, a, b)`` tuples, so a suspended oracle
    can be read alongside the producer's windows.
    """

    def __init__(self, graph, rng: np.random.Generator, block: int = 32):
        self._rng = rng
        self._block = block
        pairs = np.array(list(graph.pairs()), dtype=np.int64).reshape(-1, 2)
        self._scales = 1.0 / graph.rates[pairs[:, 0], pairs[:, 1]]
        self._gaps = rng.standard_exponential((len(pairs), block)) * self._scales[:, None]
        self._cursor = [1] * len(pairs)
        self._heap = [
            (float(self._gaps[row, 0]), int(a), int(b), row)
            for row, (a, b) in enumerate(pairs.tolist())
        ]
        heapq.heapify(self._heap)
        self.now = 0.0

    def events_until(self, horizon: float):
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            time, a, b, row = heap[0]
            col = self._cursor[row]
            if col == self._block:
                self._gaps[row] = self._rng.exponential(self._scales[row], size=self._block)
                col = 0
            self._cursor[row] = col + 1
            heapq.heapreplace(heap, (time + self._gaps.item(row, col), a, b, row))
            self.now = time
            yield time, a, b


class ScalarChurnOracle:
    """Per-query reference for :class:`~repro.faults.churn.NodeChurnSchedule`.

    The alternating renewal process drawn one duration at a time, as each
    node's clock reaches its next toggle: the same child streams, the same
    initial-state draw, then ``exponential(1 / fail_rate)`` for an up
    period and ``exponential(1 / repair_rate)`` for a down one. Queries
    must be time-monotone per node.
    """

    def __init__(self, n: int, fail_rate: float, repair_rate: float, rng):
        seed_seq = rng.bit_generator.seed_seq
        self._rngs = [np.random.default_rng(child) for child in seed_seq.spawn(n)]
        self._fail_rate, self._repair_rate = fail_rate, repair_rate
        availability = 1.0 if fail_rate == 0 else repair_rate / (fail_rate + repair_rate)
        self._up = [generator.random() < availability for generator in self._rngs]
        self._next = [self._duration(node) for node in range(n)]

    @classmethod
    def from_availability(cls, n, availability, mean_cycle, rng):
        return cls(
            n,
            1.0 / (availability * mean_cycle),
            1.0 / ((1.0 - availability) * mean_cycle),
            rng,
        )

    def _duration(self, node: int) -> float:
        if self._up[node]:
            if self._fail_rate == 0:
                return math.inf
            return self._rngs[node].exponential(1.0 / self._fail_rate)
        return self._rngs[node].exponential(1.0 / self._repair_rate)

    def is_up(self, node: int, time: float) -> bool:
        while self._next[node] <= time:
            toggle_at = self._next[node]
            self._up[node] = not self._up[node]
            self._next[node] = toggle_at + self._duration(node)
        return self._up[node]


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


def partition_mask(priority: np.ndarray, count: int) -> np.ndarray:
    """Each row's ``count`` smallest priorities, by the ``np.partition`` rule.

    A cell is selected iff its priority is ≤ the row's ``count``-th order
    statistic, found by partitioning rather than by the full sort the
    compromise models use; all False when ``count`` is 0.
    """
    mask = np.zeros(priority.shape, dtype=bool)
    if count <= 0:
        return mask
    kth = np.partition(priority, count - 1, axis=1)[:, count - 1 : count]
    np.less_equal(priority, kth, out=mask)
    return mask


def reference_mask(model, keys: np.ndarray, rate: float) -> np.ndarray:
    """Oracle for ``model.mask_from_keys(keys, rate)`` on the built-in models.

    The Bernoulli model thresholds the protected-masked keys at ``rate``;
    every fixed-count model takes the :func:`partition_mask` of its
    selection priority at ``round(rate · n)``, clamped to the eligible
    nodes.
    """
    priority = model.selection_priority(keys)
    if isinstance(model, BernoulliCompromise):
        return priority < rate
    count = min(round(rate * model.n), model.n - len(model.protected))
    return partition_mask(priority, count)


def reference_security_score(kernel, variants) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Equivalence oracle for :meth:`~repro.adversary.kernel.SecurityBatchKernel.score`.

    Walks the kernel's block row by row: each trial's compromised set is
    its row of :func:`reference_mask`, its traceable rate comes from
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
        mask = reference_mask(model, block.compromise_keys, variant.compromise_rate)
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
