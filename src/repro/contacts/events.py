"""Contact event streams.

The simulation engine (:mod:`repro.sim`) is driven by a time-ordered stream
of contacts, read window by window. Every event source has one method,
``events_until_columnar(horizon)``, which returns the events up to
``horizon`` that earlier calls have not returned, as an
:class:`EventBlock` of parallel ``(times, a, b)`` NumPy arrays. Successive
windows concatenate to the one-shot window, bit for bit. The producers:

* :class:`ExponentialContactProcess` — samples pairwise contacts from the
  exponential inter-contact model of a :class:`~repro.contacts.graph.ContactGraph`.
* :class:`TraceReplayProcess` — replays recorded contacts from a
  :class:`~repro.contacts.traces.ContactTrace`.
* :class:`ColumnarEventSource` — replays a precomputed block (e.g. one
  shipped to a worker process).

The fault filters in :mod:`repro.faults` wrap any of them and mask each
window. :class:`ContactEvent` is the per-event view a block iterates as,
for sessions that take event objects.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.contacts.graph import ContactGraph
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True, slots=True)
class ContactEvent:
    """A single meeting between two nodes.

    ``time`` is when the contact starts; the paper assumes "the link duration
    at every contact is long enough to transmit a complete message", so the
    engine treats each event as an atomic full-transfer opportunity in both
    directions.
    """

    time: float
    a: int
    b: int

    def involves(self, node: int) -> bool:
        """Whether ``node`` is one of the two parties."""
        return node == self.a or node == self.b

    def peer_of(self, node: int) -> int:
        """The other party of the contact; raises if ``node`` is not involved."""
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} is not part of contact {self}")


@dataclass(frozen=True, slots=True)
class EventBlock:
    """A window of contact events as parallel columnar arrays.

    ``times`` (float64), ``a`` and ``b`` (int64) have equal length and are
    chronological; event ``k`` is the contact ``(times[k], a[k], b[k])``.
    Worker processes receive a block through the shared-memory arena
    (:mod:`repro.experiments.shm`), which maps the three columns instead
    of copying them.
    """

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.int64))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.int64))
        if not (self.times.ndim == self.a.ndim == self.b.ndim == 1):
            raise ValueError("EventBlock columns must be 1-D arrays")
        if not (len(self.times) == len(self.a) == len(self.b)):
            raise ValueError(
                f"EventBlock columns disagree on length: "
                f"{len(self.times)}/{len(self.a)}/{len(self.b)}"
            )

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[ContactEvent]:
        """Materialise the block as :class:`ContactEvent` objects."""
        for time, a, b in zip(self.times.tolist(), self.a.tolist(), self.b.tolist()):
            yield ContactEvent(time=time, a=a, b=b)

    @classmethod
    def empty(cls) -> "EventBlock":
        return cls(
            times=np.empty(0, dtype=np.float64),
            a=np.empty(0, dtype=np.int64),
            b=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_events(cls, events) -> "EventBlock":
        """Build a block from an iterable of :class:`ContactEvent`."""
        items = list(events)
        return cls(
            times=np.array([e.time for e in items], dtype=np.float64),
            a=np.array([e.a for e in items], dtype=np.int64),
            b=np.array([e.b for e in items], dtype=np.int64),
        )


class ColumnarEventSource:
    """Replay a precomputed :class:`EventBlock` as a resumable event source.

    This is what worker processes run against in the shared-stream parallel
    protocol: the parent generates (or loads) the event window once, ships
    the block, and every worker replays it through
    ``events_until_columnar``. The source keeps a cursor, so successive
    horizon windows resume exactly like the sampled and trace producers do.
    """

    def __init__(self, block: EventBlock):
        if not isinstance(block, EventBlock):
            raise TypeError(f"expected EventBlock, got {type(block).__name__}")
        self._block = block
        self._cursor = 0
        self._now = 0.0

    @property
    def block(self) -> EventBlock:
        """The full underlying block (independent of the replay cursor)."""
        return self._block

    @property
    def now(self) -> float:
        """Time of the most recently emitted event (0 before any)."""
        return self._now

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The remaining events with ``time <= horizon`` as one block."""
        check_non_negative(horizon, "horizon")
        times = self._block.times
        start = self._cursor
        stop = max(start, int(np.searchsorted(times, horizon, side="right")))
        self._cursor = stop
        if stop > start:
            self._now = float(times[stop - 1])
        return EventBlock(
            times=times[start:stop],
            a=self._block.a[start:stop],
            b=self._block.b[start:stop],
        )


def as_event_source(events):
    """Coerce ``events`` into an event source (blocks get a replay cursor)."""
    if isinstance(events, EventBlock):
        return ColumnarEventSource(events)
    if not hasattr(events, "events_until_columnar"):
        raise TypeError(
            f"expected an event source or EventBlock, got {type(events).__name__}"
        )
    return events


class ExponentialContactProcess:
    """Sample a contact-event stream from exponential pairwise clocks.

    Each pair with positive rate carries an independent Poisson process.
    The process is single-use: each :meth:`events_until_columnar` call
    continues from where the previous call stopped.

    The state is columnar, one row per pair in :meth:`ContactGraph.pairs`
    order: the pair's next contact time (``heads``), a ``(pairs, block)``
    matrix of pre-drawn inter-contact gaps, a read cursor into the pair's
    row, and the pair's scale ``1 / rate``. Gaps are drawn ``block`` at a
    time per pair (one vectorised generator call per block instead of one
    scalar draw per event); each pair consumes its gaps strictly in draw
    order and refills its row deterministically when it is exhausted, so a
    fixed seed yields one reproducible event stream.
    """

    def __init__(self, graph: ContactGraph, rng: RandomSource = None, block: int = 32):
        self._block = check_positive_int(block, "block")
        self._graph = graph
        self._rng = ensure_rng(rng)
        self._now = 0.0
        pairs = np.array(list(graph.pairs()), dtype=np.int64).reshape(-1, 2)
        self._pair_a = pairs[:, 0]
        self._pair_b = pairs[:, 1]
        self._scales = 1.0 / graph.rates[self._pair_a, self._pair_b]
        # One matrix draw, bit-identical to a per-pair
        # ``rng.exponential(scale, block)`` loop: the generator consumes the
        # same uniforms in the same order, and scaling a unit exponential is
        # the exact float operation ``exponential`` performs internally.
        self._gaps = (
            self._rng.standard_exponential((len(pairs), self._block))
            * self._scales[:, None]
        )
        self._heads = self._gaps[:, 0].copy()
        self._cursor = np.ones(len(pairs), dtype=np.int64)

    @property
    def graph(self) -> ContactGraph:
        """The contact graph whose rates drive this process."""
        return self._graph

    @property
    def now(self) -> float:
        """Time of the most recently emitted event (0 before any)."""
        return self._now

    def _refill(self, row: int) -> np.ndarray:
        """Draw a fresh block of gaps into ``row``'s buffer."""
        gaps = self._rng.exponential(self._scales[row], size=self._block)
        self._gaps[row] = gaps
        return gaps

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The events with ``time <= horizon`` not yet returned, as one block.

        Seed-exact with the per-event merge of the pair clocks: pop the
        earliest ``(time, a, b)`` head from a heap, advance that pair by
        its next gap, and refill the pair's row when the gap it needs is
        past the end of the buffer. The generator is consumed in that
        merge's order, so windowed calls return the one-shot stream and
        leave the generator where the merge would.

        Equivalence argument, pair by pair: a pair's event times are the
        running partial sums of its head and its unconsumed gaps. One
        row-wise ``cumsum`` over ``[head, gaps]`` for every due pair, with
        the consumed gaps masked to ``0.0``, gives them all at once
        (``x + 0.0`` is exact, so the sums match the merge's bit for
        bit). The merge refills a pair's row at the pop of its last
        buffer-fillable event — at time ``trigger =`` the row's final
        partial sum — and pops are globally ordered by ``(time, a, b)``;
        draining a heap of refill triggers in that same key order therefore
        replays the generator calls in the merge's interleaving. The
        emission order is the heap's total order ``(time, a, b)``, i.e.
        ``lexsort((b, a, times))``.
        """
        check_non_negative(horizon, "horizon")
        due = np.flatnonzero(self._heads <= horizon)
        if not len(due):
            return EventBlock.empty()
        cursor = self._cursor[due]
        cols = np.arange(self._block + 1)
        fresh = cols[None, :] >= cursor[:, None]  # tau[:, cursor] is the head
        tau = np.empty((len(due), self._block + 1))
        tau[:, 0] = self._heads[due]
        tau[:, 1:] = np.where(fresh[:, :-1], self._gaps[due], 0.0)
        np.cumsum(tau, axis=1, out=tau)
        within = fresh & (tau <= horizon)
        counts = within.sum(axis=1)
        emit_times = [tau[within]]
        emit_rows = [np.repeat(due, counts)]

        # Pairs whose row lasts past the horizon just advance their cursor.
        live = tau[:, -1] > horizon
        rows = due[live]
        stop = cursor[live] + counts[live]
        self._heads[rows] = tau[live, stop]
        self._cursor[rows] = stop
        # The rest refill in the merge's pop order: a heap of
        # ``(trigger, a, b, row)`` entries, where ``row`` breaks no tie.
        spent = due[~live]
        refills = list(
            zip(
                tau[~live, -1].tolist(),
                self._pair_a[spent].tolist(),
                self._pair_b[spent].tolist(),
                spent.tolist(),
            )
        )
        heapq.heapify(refills)
        while refills:
            trigger, i, j, row = heapq.heappop(refills)
            run = np.cumsum(np.concatenate(((trigger,), self._refill(row))))
            stop = int(np.searchsorted(run, horizon, side="right"))
            emit_times.append(run[1:stop])  # run[0] is the emitted trigger
            emit_rows.append(np.full(stop - 1, row))
            if stop > self._block:
                heapq.heappush(refills, (float(run[-1]), i, j, row))
            else:
                self._heads[row] = run[stop]
                self._cursor[row] = stop

        times = np.concatenate(emit_times)
        rows = np.concatenate(emit_rows)
        a, b = self._pair_a[rows], self._pair_b[rows]
        order = np.lexsort((b, a, times))
        block = EventBlock(times=times[order], a=a[order], b=b[order])
        self._now = float(block.times[-1])
        return block


class TraceReplayProcess:
    """Replay a recorded contact trace as an event stream.

    Each trace record contributes one event at its start time (the full-transfer assumption makes the end time irrelevant to the
    forwarding logic; it is retained in the trace for rate estimation).
    """

    def __init__(self, trace: "ContactTrace", start_time: float = 0.0):
        # Imported here to avoid a circular import at package load.
        from repro.contacts.traces import ContactTrace

        if not isinstance(trace, ContactTrace):
            raise TypeError(f"expected ContactTrace, got {type(trace).__name__}")
        # ``trace.records`` is chronological with a stable tie order.
        records = [r for r in trace.records if r.start >= start_time]
        # Traces are columnar at rest: one cursor walks the three columns,
        # so windowed block reads are plain slices.
        self._times = np.array([r.start for r in records], dtype=np.float64)
        self._a = np.array([r.a for r in records], dtype=np.int64)
        self._b = np.array([r.b for r in records], dtype=np.int64)
        self._cursor = 0
        self._now = start_time

    @property
    def now(self) -> float:
        """Time of the most recently emitted event."""
        return self._now

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The records starting at or before ``horizon`` not yet returned.

        Slices the at-rest columns in cursor order, so simultaneous records
        keep the trace's stable tie order.
        """
        check_non_negative(horizon, "horizon")
        start = self._cursor
        stop = max(start, int(np.searchsorted(self._times, horizon, side="right")))
        self._cursor = stop
        if stop > start:
            self._now = float(self._times[stop - 1])
        return EventBlock(
            times=self._times[start:stop],
            a=self._a[start:stop],
            b=self._b[start:stop],
        )


def stream_event_blocks(
    source,
    horizon: float,
    *,
    window: float,
    max_window_events: Optional[int] = None,
) -> Iterator[EventBlock]:
    """Yield a source's ``[0, horizon)`` window as successive event blocks.

    Calls ``source.events_until_columnar`` with horizons ``window, 2 *
    window, …, horizon``; windowed columnar calls are bit-identical to a
    single call at ``horizon`` (the producer contract proven in
    tests/test_contacts_columnar.py), so the concatenation of the yielded
    blocks equals the one-shot block — but only one window is ever
    materialized at a time. Empty windows are skipped.

    ``max_window_events`` is a hard per-block ceiling: a window that
    produced more events than the ceiling is yielded as ceiling-sized
    slices (views, no copies), and the production span is shrunk so later
    windows aim at half the ceiling. Transient overshoot is therefore
    confined to the window that triggered the adaptation; every *yielded*
    block respects the ceiling unconditionally.
    """
    check_positive(horizon, "horizon")
    check_positive(window, "window")
    if max_window_events is not None:
        check_positive_int(max_window_events, "max_window_events")
    span = float(window)
    floor = span * 1e-6
    now = 0.0
    while now < horizon:
        now = min(now + span, horizon)
        block = source.events_until_columnar(now)
        count = len(block)
        if count == 0:
            continue
        if max_window_events is not None and count > max_window_events:
            for start in range(0, count, max_window_events):
                stop = start + max_window_events
                yield EventBlock(
                    times=block.times[start:stop],
                    a=block.a[start:stop],
                    b=block.b[start:stop],
                )
            # Aim the next window at half the ceiling so ordinary rate
            # fluctuation stays under it without re-slicing every block.
            span = max(span * max_window_events / (2.0 * count), floor)
        else:
            yield block
