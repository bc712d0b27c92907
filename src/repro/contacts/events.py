"""Contact event streams.

The simulation engine (:mod:`repro.sim`) is driven by a time-ordered stream
of :class:`ContactEvent` items. Two producers are provided:

* :class:`ExponentialContactProcess` — samples pairwise contacts from the
  exponential inter-contact model of a :class:`~repro.contacts.graph.ContactGraph`.
* :class:`TraceReplayProcess` — replays recorded contacts from a
  :class:`~repro.contacts.traces.ContactTrace`.

Both producers additionally expose a *columnar* window mode
(:meth:`events_until_columnar`) that returns the same window as an
:class:`EventBlock` of parallel ``(times, a, b)`` NumPy arrays instead of a
per-event object stream. The columnar and iterator modes consume the
generator identically — for a fixed seed they emit the same events in the
same order and leave the process in the same resumable state — so callers
can mix the two freely. :class:`ColumnarEventSource` replays a precomputed
block (e.g. one shipped to a worker process) through either interface.
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
    the block, and every worker replays it through the standard
    ``events_until`` / ``events_until_columnar`` interface. The source keeps
    a cursor, so successive horizon windows resume exactly like the sampled
    and trace producers do.
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

    def events_until(self, horizon: float) -> Iterator[ContactEvent]:
        """Yield replayed events with ``time <= horizon`` in order."""
        check_non_negative(horizon, "horizon")
        times = self._block.times
        while self._cursor < len(times):
            time = float(times[self._cursor])
            if time > horizon:
                return
            self._cursor += 1
            self._now = time
            yield ContactEvent(
                time=time,
                a=int(self._block.a[self._cursor - 1]),
                b=int(self._block.b[self._cursor - 1]),
            )

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
    if not hasattr(events, "events_until"):
        raise TypeError(
            f"expected an event source or EventBlock, got {type(events).__name__}"
        )
    return events


class ExponentialContactProcess:
    """Sample a contact-event stream from exponential pairwise clocks.

    Each pair with positive rate carries an independent Poisson process; the
    merged stream is produced with a heap of per-pair next-contact times.
    The process is a single-use iterator factory: each call to
    :meth:`events_until` continues from where the previous call stopped.

    Inter-contact gaps are pre-drawn in blocks per pair (one vectorised
    ``rng.exponential`` call fills ``block`` gaps) instead of one scalar
    draw per popped event, amortising the generator-call overhead over the
    whole block. Each pair consumes its gaps strictly in draw order and
    refills deterministically at exhaustion, so a fixed seed still yields
    one reproducible event stream.
    """

    def __init__(self, graph: ContactGraph, rng: RandomSource = None, block: int = 32):
        if block < 1:
            raise ValueError(f"block must be a positive int, got {block}")
        self._graph = graph
        self._rng = ensure_rng(rng)
        self._block = int(block)
        self._heap: list[tuple[float, int, int]] = []
        self._now = 0.0
        # Per-pair gap buffers: scale, pre-drawn gaps, and read cursor.
        self._scales: dict[tuple[int, int], float] = {}
        self._gaps: dict[tuple[int, int], np.ndarray] = {}
        self._cursors: dict[tuple[int, int], int] = {}
        pairs = list(graph.pairs())
        if pairs:
            pair_arr = np.array(pairs, dtype=np.int64)
            pair_i = pair_arr[:, 0]
            pair_j = pair_arr[:, 1]
            scales = 1.0 / graph.rates[pair_i, pair_j]
            # One matrix draw, bit-identical to the historical per-pair
            # ``rng.exponential(scale, block)`` loop: the generator consumes
            # the same uniforms in the same order, and scaling a unit
            # exponential is the exact float operation ``exponential``
            # performs internally.
            gaps2d = self._rng.standard_exponential(
                (len(pairs), self._block)
            ) * scales[:, None]
            for row, (i, j) in enumerate(pairs):
                self._scales[(i, j)] = float(scales[row])
                self._gaps[(i, j)] = gaps2d[row]
                self._cursors[(i, j)] = 1
            self._heap = list(
                zip(gaps2d[:, 0].tolist(), pair_i.tolist(), pair_j.tolist())
            )
            heapq.heapify(self._heap)
            # Dense state for the columnar fast path; dropped at the first
            # scalar consumption, after which the generic per-pair path
            # (same results, more bookkeeping) takes over.
            self._dense: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = (
                pair_i,
                pair_j,
                gaps2d,
            )
        else:
            self._dense = None

    @property
    def graph(self) -> ContactGraph:
        """The contact graph whose rates drive this process."""
        return self._graph

    @property
    def now(self) -> float:
        """Time of the most recently emitted event (0 before any)."""
        return self._now

    def _next_gap(self, i: int, j: int) -> float:
        """The pair's next pre-drawn gap, refilling its block if exhausted."""
        self._dense = None  # scalar consumption invalidates the fast path
        key = (i, j)
        cursor = self._cursors[key]
        gaps = self._gaps[key]
        if cursor >= len(gaps):
            gaps = self._rng.exponential(self._scales[key], size=self._block)
            self._gaps[key] = gaps
            cursor = 0
        self._cursors[key] = cursor + 1
        return float(gaps[cursor])

    def events_until(self, horizon: float) -> Iterator[ContactEvent]:
        """Yield events with ``time <= horizon`` in chronological order."""
        check_non_negative(horizon, "horizon")
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            time, i, j = heap[0]
            self._now = time
            heapq.heapreplace(heap, (time + self._next_gap(i, j), i, j))
            yield ContactEvent(time=time, a=i, b=j)

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The same window as :meth:`events_until`, as one :class:`EventBlock`.

        Seed-exact with the iterator: the generator is consumed in the exact
        order the legacy heap loop would consume it, and the process is left
        in the same resumable state, so a fixed seed yields one stream
        regardless of which mode (or mixture of modes) reads it.

        Equivalence argument, pair by pair: a pair's event times are the
        running partial sums of its gap draws, so the times fillable from
        the current buffer are one prepended ``cumsum`` (floating-point
        association matches the scalar loop exactly). The legacy loop
        refills a pair's block at the pop of the last buffer-fillable event
        — at time ``trigger = `` the buffer's final partial sum — and pops
        are globally ordered by ``(time, a, b)``; draining a heap of refill
        triggers in that same key order therefore replays the generator
        calls in the legacy interleaving. The merged emission order is the
        heap's total order ``(time, a, b)``, i.e. ``lexsort((b, a, times))``.
        """
        check_non_negative(horizon, "horizon")
        # Per-pair partial-sum segments and the gap draws behind them;
        # ``refills`` replays block refills in legacy pop order.
        segments: dict[tuple[int, int], list[np.ndarray]] = {}
        gap_runs: dict[tuple[int, int], list[np.ndarray]] = {}
        pending: list[tuple[int, int]] = []
        new_heap: list[tuple[float, int, int]] = []
        refills: list[tuple[float, int, int]] = []
        emit_times: list[np.ndarray] = []
        emit_a: list[np.ndarray] = []
        emit_b: list[np.ndarray] = []
        if self._dense is not None:
            # Pristine fast path: nothing consumed since __init__, so every
            # pair is (cursor 1, full buffer) and one 2-D row-cumsum covers
            # all buffer-fillable event times at once. Only pairs whose
            # whole buffer lands inside the window fall through to the
            # per-pair refill machinery below.
            pair_i, pair_j, gaps2d = self._dense
            tau2d = np.cumsum(gaps2d, axis=1)
            within = tau2d <= horizon
            counts = within.sum(axis=1)
            done = counts < self._block
            sub_tau = tau2d[done]
            sub_counts = counts[done]
            done_i = pair_i[done]
            done_j = pair_j[done]
            if sub_tau.size and sub_counts.any():
                emit_times.append(sub_tau[within[done]])
                emit_a.append(np.repeat(done_i, sub_counts))
                emit_b.append(np.repeat(done_j, sub_counts))
            next_heads = sub_tau[np.arange(len(sub_tau)), sub_counts]
            new_heap.extend(
                zip(next_heads.tolist(), done_i.tolist(), done_j.tolist())
            )
            for i, j, cursor in zip(
                done_i.tolist(), done_j.tolist(), (sub_counts + 1).tolist()
            ):
                self._cursors[(i, j)] = cursor
            for row in np.nonzero(~done)[0].tolist():
                i = int(pair_i[row])
                j = int(pair_j[row])
                key = (i, j)
                tau = tau2d[row]
                segments[key] = [tau]
                gap_runs[key] = [gaps2d[row, 1:]]  # gap m-1 yields tau[m]
                pending.append(key)
                refills.append((float(tau[-1]), i, j))
            self._dense = None
        else:
            for head, i, j in self._heap:
                if head > horizon:
                    new_heap.append((head, i, j))  # untouched pair
                    continue
                key = (i, j)
                remaining = self._gaps[key][self._cursors[key]:]
                tau = np.cumsum(np.concatenate(((head,), remaining)))
                segments[key] = [tau]
                gap_runs[key] = [remaining]
                pending.append(key)
                trigger = float(tau[-1])
                if trigger <= horizon:
                    refills.append((trigger, i, j))
        heapq.heapify(refills)
        while refills:
            trigger, i, j = heapq.heappop(refills)
            key = (i, j)
            gaps = self._rng.exponential(self._scales[key], size=self._block)
            tau = np.cumsum(np.concatenate(((trigger,), gaps)))
            segments[key].append(tau[1:])  # tau[0] is already emitted
            gap_runs[key].append(gaps)
            trigger = float(tau[-1])
            if trigger <= horizon:
                heapq.heappush(refills, (trigger, i, j))

        for key in pending:
            i, j = key
            parts = segments[key]
            tau = parts[0] if len(parts) == 1 else np.concatenate(parts)
            runs = gap_runs[key]
            gaps = runs[0] if len(runs) == 1 else np.concatenate(runs)
            # The refill loop guarantees tau[-1] > horizon, so the pair's
            # next event and the gaps behind the later ones carry over.
            count = int(np.searchsorted(tau, horizon, side="right"))
            new_heap.append((float(tau[count]), i, j))
            self._gaps[key] = gaps[count:]
            self._cursors[key] = 0
            if count:
                emit_times.append(tau[:count])
                emit_a.append(np.full(count, i, dtype=np.int64))
                emit_b.append(np.full(count, j, dtype=np.int64))

        heapq.heapify(new_heap)
        self._heap = new_heap
        if not emit_times:
            return EventBlock.empty()
        times = np.concatenate(emit_times)
        a = np.concatenate(emit_a)
        b = np.concatenate(emit_b)
        order = np.lexsort((b, a, times))
        block = EventBlock(times=times[order], a=a[order], b=b[order])
        self._now = float(block.times[-1])
        return block


class TraceReplayProcess:
    """Replay a recorded contact trace as an event stream.

    Each trace record contributes one :class:`ContactEvent` at its start
    time (the full-transfer assumption makes the end time irrelevant to the
    forwarding logic; it is retained in the trace for rate estimation).
    """

    def __init__(self, trace: "ContactTrace", start_time: float = 0.0):
        # Imported here to avoid a circular import at package load.
        from repro.contacts.traces import ContactTrace

        if not isinstance(trace, ContactTrace):
            raise TypeError(f"expected ContactTrace, got {type(trace).__name__}")
        self._records = [r for r in trace.records if r.start >= start_time]
        self._records.sort(key=lambda r: r.start)
        self._cursor = 0
        self._now = start_time
        # Traces are columnar at rest: materialise the three columns once
        # so windowed block reads are plain slices.
        self._times = np.array([r.start for r in self._records], dtype=np.float64)
        self._a = np.array([r.a for r in self._records], dtype=np.int64)
        self._b = np.array([r.b for r in self._records], dtype=np.int64)

    @property
    def now(self) -> float:
        """Time of the most recently emitted event."""
        return self._now

    def events_until(self, horizon: float) -> Iterator[ContactEvent]:
        """Yield replayed events with ``time <= horizon`` in order."""
        while self._cursor < len(self._records):
            record = self._records[self._cursor]
            if record.start > horizon:
                return
            self._cursor += 1
            self._now = record.start
            yield ContactEvent(time=record.start, a=record.a, b=record.b)

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The same window as :meth:`events_until`, as one :class:`EventBlock`.

        Slices the at-rest columns in cursor order, so simultaneous records
        keep the trace's stable tie order — identical to the iterator.
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
