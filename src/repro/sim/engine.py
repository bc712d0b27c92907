"""The discrete-event simulation loop.

Two dispatch strategies are provided:

* ``indexed`` (default) — the engine maintains a node→sessions *interest
  index* built from each session's :meth:`~repro.sim.protocol.ProtocolSession.watched_nodes`
  contract plus a wakeup heap of :meth:`~repro.sim.protocol.ProtocolSession.next_poll_time`
  deadlines, so every :class:`~repro.contacts.events.ContactEvent` touches
  only the sessions that could act on it, and finished sessions stop being
  scanned entirely (a live-session counter replaces the per-event
  ``all_done`` sweep). Sessions that do not implement the contract fall back
  to broadcast and still see every event.
* ``broadcast`` — the original O(events × sessions) loop, kept verbatim for
  equivalence testing and benchmarking.

Both strategies dispatch the sessions touched by one event in registration
order, so shared sampled state (e.g. per-receive greyhole draws) consumes
identical random streams and the two modes produce byte-identical outcomes.

On top of the indexed strategy, ``consume="kernel"`` (or the
``dispatch="kernel"`` shorthand) peels the *kernel-eligible* sessions —
fault-free, recovery-free, keyring-free single-copy and fault-free
multi-copy, see :data:`repro.sim.kernel.KERNEL_CLASSES` — out of the
per-object loop entirely and sweeps them over the columnar window with
struct-of-arrays kernel operations; every other session (and every
session when the source cannot produce columnar windows) transparently
falls back to the regular columnar/iterator object path. Outcomes stay
byte-identical with every other mode. :attr:`SimulationEngine.dispatch_mode_counts`
records how many sessions each run routed through each path.
"""

from __future__ import annotations

import heapq
import logging
import math
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Protocol as TypingProtocol, Tuple

from repro.contacts.events import ContactEvent
from repro.sim.protocol import ProtocolSession
from repro.utils.resilience import KERNEL_FALLBACK, ResilienceEvent
from repro.utils.validation import check_positive

logger = logging.getLogger(__name__)

_ORDER_KEY = attrgetter("order")


class EventSource(TypingProtocol):
    """Anything that yields chronological contact events up to a horizon."""

    def events_until(self, horizon: float) -> Iterable[ContactEvent]:  # pragma: no cover
        ...


class _SessionRecord:
    """Engine-side bookkeeping for one registered session."""

    __slots__ = ("order", "session", "watched", "poll_at", "live", "scalar", "versioned")

    def __init__(self, order: int, session: ProtocolSession):
        self.order = order
        self.session = session
        self.watched = None  # frozenset of nodes, or None for broadcast
        self.poll_at = math.inf
        self.live = True
        # Sessions overriding on_contact_scalar skip event materialisation.
        self.scalar = (
            type(session).on_contact_scalar is not ProtocolSession.on_contact_scalar
        )
        # Sessions maintaining state_version allow the columnar loop to
        # skip the contract re-read after a provably no-op dispatch.
        self.versioned = self.scalar and session.state_version is not None


class SimulationEngine:
    """Drives protocol sessions with a contact-event stream.

    The engine is deliberately thin: all routing logic lives in the
    sessions, all stochastic structure in the event source. It stops at the
    horizon or as soon as every session reports ``done``.

    Graceful degradation: by default a session that raises mid-dispatch is
    *quarantined* — its outcome is marked ``failed``, the exception is kept
    on :attr:`quarantined`, and the remaining sessions keep running — so one
    pathological message cannot kill a whole experiment batch. Pass
    ``on_error="raise"`` to propagate instead (useful in unit tests).

    Parameters
    ----------
    dispatch:
        ``"indexed"`` (default) routes each event through the interest
        index; ``"broadcast"`` scans every session per event (the legacy
        loop). Outcomes are identical; only the wall time differs.
    consume:
        How indexed dispatch reads the event source. ``"auto"`` (default)
        consumes columnar :class:`~repro.contacts.events.EventBlock`
        windows whenever the source implements ``events_until_columnar``
        and falls back to the per-event iterator otherwise (e.g. fault
        filters wrap the stream as plain iterators); ``"iterator"`` forces
        the legacy per-event loop; ``"columnar"`` requires block support
        and raises if the source has none; ``"kernel"`` additionally sweeps
        kernel-eligible sessions with the struct-of-arrays kernels
        (:class:`~repro.sim.kernel.BatchKernel` for single-copy,
        :class:`~repro.sim.kernel.MultiCopyBatchKernel` for multi-copy)
        and runs the rest through the columnar object loop (degrading all
        the way to the iterator loop when the source has no block
        support); ``"stream"`` is windowed ``"kernel"`` — the source is
        consumed as successive ``stream_window``-sized columnar windows
        (each at most ``max_window_events`` long) instead of one
        horizon-wide block, so the full event set is never resident; the
        kernels and the object loop both advance window by window.
        Outcomes are identical
        across all modes — the columnar loop dispatches the exact same
        events to the exact same sessions in the same order, the
        kernel dispatches exactly the state-changing subset of them
        through the same scalar session hook, and windowed kernel/object
        passes compose byte-identically with one-shot passes.

    backend:
        Kernel-backend selection for the struct-of-arrays sweeps: a
        :mod:`repro.sim.backend` registry name (``"numpy"`` or
        ``"cc"``), an already-resolved backend instance, or None to
        honour ``REPRO_KERNEL_BACKEND`` (default numpy). Unknown names
        raise at construction; a known-but-unavailable backend degrades
        to numpy with a KERNEL_FALLBACK resilience event. Outcomes are
        byte-identical across backends; :attr:`kernel_stats` exposes the
        per-kernel phase timings either way.

    One bookkeeping caveat: under ``consume="kernel"`` with every session
    kernel-eligible, :attr:`events_processed` counts the whole consumed
    window (the kernel proves most events are no-ops without dispatching
    them), whereas the object loops stop counting at their early exit.
    Outcomes are unaffected.
    """

    def __init__(
        self,
        events: EventSource,
        horizon: float,
        on_error: str = "quarantine",
        dispatch: str = "indexed",
        consume: str = "auto",
        stream_window: Optional[float] = None,
        max_window_events: Optional[int] = None,
        stream_kernels: bool = True,
        backend=None,
    ):
        check_positive(horizon, "horizon")
        if on_error not in ("quarantine", "raise"):
            raise ValueError(
                f"on_error must be 'quarantine' or 'raise', got {on_error!r}"
            )
        if dispatch == "kernel":
            # Shorthand: kernel consumption is a refinement of indexed
            # dispatch, so ``dispatch="kernel"`` means indexed + kernel.
            dispatch, consume = "indexed", "kernel"
        if dispatch not in ("indexed", "broadcast"):
            raise ValueError(
                f"dispatch must be 'indexed', 'broadcast', or 'kernel', "
                f"got {dispatch!r}"
            )
        if consume not in ("auto", "iterator", "columnar", "kernel", "stream"):
            raise ValueError(
                f"consume must be 'auto', 'iterator', 'columnar', "
                f"'kernel', or 'stream', got {consume!r}"
            )
        if consume == "columnar" and not hasattr(events, "events_until_columnar"):
            raise ValueError(
                "consume='columnar' requires an event source with "
                "events_until_columnar (got "
                f"{type(events).__name__})"
            )
        if stream_window is not None:
            check_positive(stream_window, "stream_window")
        if max_window_events is not None and (
            not isinstance(max_window_events, int) or max_window_events <= 0
        ):
            raise ValueError(
                f"max_window_events must be a positive int, "
                f"got {max_window_events!r}"
            )
        if backend is not None:
            from repro.sim.backend import check_backend_name

            check_backend_name(backend)  # typos fail at construction time
        self._backend = backend
        self._backend_obj = None
        self._events = events
        self._horizon = horizon
        self._on_error = on_error
        self._dispatch = dispatch
        self._consume = consume
        self._stream_window = stream_window
        self._max_window_events = max_window_events
        self._stream_kernels = stream_kernels
        self._stream_windows = 0
        self._stream_peak_window = 0
        self._sessions: List[ProtocolSession] = []
        self._events_processed = 0
        self._quarantined: List[Tuple[ProtocolSession, Exception]] = []
        self._quarantined_ids: set = set()
        self._dispatch_mode_counts: Dict[str, int] = {}
        self._fallbacks: List[ResilienceEvent] = []
        self._kernel_stats: List[Dict] = []

    @property
    def horizon(self) -> float:
        """Latest event time the engine will process."""
        return self._horizon

    @property
    def dispatch(self) -> str:
        """The dispatch strategy: ``indexed`` or ``broadcast``."""
        return self._dispatch

    @property
    def consume(self) -> str:
        """Consumption mode: ``auto``, ``iterator``, ``columnar``,
        ``kernel``, or ``stream``."""
        return self._consume

    @property
    def stream_stats(self) -> Tuple[int, int]:
        """``(windows consumed, peak window event count)`` of the last
        ``consume="stream"`` run — the memory-ceiling observability hook;
        ``(0, 0)`` for every other mode."""
        return self._stream_windows, self._stream_peak_window

    @property
    def events_processed(self) -> int:
        """Number of contact events dispatched so far."""
        return self._events_processed

    @property
    def quarantined(self) -> Tuple[Tuple[ProtocolSession, Exception], ...]:
        """Sessions removed from dispatch after raising, with their errors."""
        return tuple(self._quarantined)

    @property
    def dispatch_mode_counts(self) -> Dict[str, int]:
        """Sessions routed through each dispatch path, accumulated per run.

        Keys: ``kernel-single`` / ``kernel-multicopy`` (struct-of-arrays
        sweeps), ``columnar`` (the columnar object loop), ``iterator`` (the
        per-event object loop), ``broadcast`` (the legacy scan). Only live,
        unquarantined sessions are counted, at the moment :meth:`run`
        assigns them to a path.
        """
        return dict(self._dispatch_mode_counts)

    @property
    def fallback_events(self) -> Tuple[ResilienceEvent, ...]:
        """Degradations taken on the consume ladder this run.

        Each entry is a :data:`~repro.utils.resilience.KERNEL_FALLBACK`
        event recording one rung taken (kernel → columnar, or columnar →
        iterator). Outcomes are byte-identical across rungs — a fallback
        costs wall time, never correctness.
        """
        return tuple(self._fallbacks)

    @property
    def kernel_stats(self) -> Tuple[Dict, ...]:
        """Per-kernel profiling stats collected by the last kernel run.

        One dict per kernel instance the engine drove (see
        ``BatchKernel.stats``): backend name, ``rounds``,
        ``scalar_dispatches``, ``backend_seconds``, ``dispatch_seconds``,
        and per-round active-set peak/total — the raw material for
        ``bench_engine --mode backend``.
        """
        return tuple(dict(stats) for stats in self._kernel_stats)

    def _resolve_backend(self):
        """Resolve the requested kernel backend once per engine.

        A known-but-unavailable backend (no C compiler, a failed
        compile) degrades to numpy and records a
        :data:`~repro.utils.resilience.KERNEL_FALLBACK` event, mirroring
        the consume-ladder rungs: selection never changes outcomes.
        """
        if self._backend_obj is None:
            from repro.sim.backend import resolve_backend

            self._backend_obj = resolve_backend(
                self._backend,
                on_fallback=lambda requested, error: self._record_fallback(
                    f"backend={requested}",
                    error,
                    "requested kernel backend unavailable; degraded to numpy",
                ),
            )
        return self._backend_obj

    def _harvest_kernel(self, kernel) -> None:
        """Collect a kernel's stats and surface its backend degradations."""
        self._kernel_stats.append(dict(kernel.stats))
        for note in kernel.backend_fallbacks:
            self._fallbacks.append(
                ResilienceEvent(
                    kind=KERNEL_FALLBACK,
                    where=type(kernel).__name__,
                    detail=note,
                    resolution="degraded",
                )
            )

    def _count_mode(self, mode: str, count: int) -> None:
        if count:
            total = self._dispatch_mode_counts.get(mode, 0) + count
            if total:
                self._dispatch_mode_counts[mode] = total
            else:
                self._dispatch_mode_counts.pop(mode, None)

    def _record_fallback(self, where: str, error: Exception, detail: str) -> None:
        event = ResilienceEvent(
            kind=KERNEL_FALLBACK,
            where=where,
            detail=f"{detail}: {type(error).__name__}: {error}",
            resolution="degraded",
        )
        self._fallbacks.append(event)
        logger.warning("%s — %s", where, event.detail)

    def _live_session_count(self) -> int:
        return sum(
            1
            for session in self._sessions
            if not session.done and id(session) not in self._quarantined_ids
        )

    def add_session(self, session: ProtocolSession) -> ProtocolSession:
        """Register a session; returns it for chaining."""
        self._sessions.append(session)
        return session

    def _quarantine(self, session: ProtocolSession, error: Exception) -> None:
        self._quarantined.append((session, error))
        self._quarantined_ids.add(id(session))
        try:
            session.outcome().status = "failed"
        except Exception:  # outcome itself is broken — quarantine regardless
            pass
        logger.warning(
            "quarantined session %r after %s: %s",
            type(session).__name__,
            type(error).__name__,
            error,
        )

    def run(self) -> None:
        """Process events until the horizon or until all sessions are done."""
        if not self._sessions:
            raise RuntimeError("no protocol sessions registered")
        if self._dispatch == "broadcast":
            self._count_mode("broadcast", self._live_session_count())
            self._run_broadcast()
        elif self._consume == "kernel":
            self._run_kernel()  # counts per-path internally
        elif self._consume == "stream":
            self._run_stream()  # counts per-path internally
        elif self._consume == "iterator" or (
            self._consume == "auto"
            and not hasattr(self._events, "events_until_columnar")
        ):
            self._count_mode("iterator", self._live_session_count())
            self._run_indexed()
        else:
            self._count_mode("columnar", self._live_session_count())
            self._run_indexed_columnar()

    # ------------------------------------------------------------------
    # broadcast dispatch (legacy loop, kept for equivalence/benchmarks)
    # ------------------------------------------------------------------

    def _run_broadcast(self) -> None:
        for event in self._events.events_until(self._horizon):
            self._events_processed += 1
            all_done = True
            for session in self._sessions:
                if id(session) in self._quarantined_ids:
                    continue  # treated as done
                if session.done:
                    continue
                try:
                    session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    self._quarantine(session, error)
                    continue
                all_done = all_done and session.done
            if all_done:
                return

    # ------------------------------------------------------------------
    # indexed dispatch
    # ------------------------------------------------------------------

    def _build_dispatch_state(self, ordered_sessions=None):
        """The interest index, broadcast-fallback list, and wakeup heap.

        ``ordered_sessions`` — ``(order, session)`` pairs — restricts the
        state to a subset while preserving registration order (the kernel
        path hands the object loop only the kernel-ineligible sessions).
        """
        index: Dict[int, List[_SessionRecord]] = {}
        always: List[_SessionRecord] = []  # broadcast-fallback records
        wakeups: List[Tuple[float, int, _SessionRecord]] = []
        live = 0
        if ordered_sessions is None:
            ordered_sessions = enumerate(self._sessions)
        for order, session in ordered_sessions:
            record = _SessionRecord(order, session)
            if id(session) in self._quarantined_ids or session.done:
                record.live = False
                continue
            live += 1
            self._place(record, index, always, wakeups)
        return index, always, wakeups, live

    def _run_indexed(self) -> None:
        index, always, wakeups, live = self._build_dispatch_state()
        if live == 0:
            return

        for event in self._events.events_until(self._horizon):
            self._events_processed += 1
            due: List[_SessionRecord] = []
            while wakeups and wakeups[0][0] <= event.time:
                poll_at, _, record = heapq.heappop(wakeups)
                # Lazy invalidation: skip entries superseded by a newer
                # poll time or belonging to a retired session.
                if record.live and record.poll_at == poll_at:
                    due.append(record)

            watching_a = index.get(event.a)
            watching_b = index.get(event.b)
            candidates: List[_SessionRecord]
            if watching_b or always or due:
                seen: set = set()
                candidates = []
                for group in (watching_a, watching_b, always, due):
                    if not group:
                        continue
                    for record in group:
                        if record.order not in seen:
                            seen.add(record.order)
                            candidates.append(record)
            else:
                candidates = list(watching_a) if watching_a else []
            # Registration order keeps shared sampled state (e.g. greyhole
            # draws) on the same stream as broadcast dispatch.
            candidates.sort(key=_ORDER_KEY)

            for record in candidates:
                if not record.live:
                    continue
                session = record.session
                try:
                    session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    self._quarantine(session, error)
                    self._retire(record, index, always)
                    live -= 1
                    continue
                if session.done:
                    self._retire(record, index, always)
                    live -= 1
                    continue
                # Re-read the contract: custody may have moved.
                new_watched = session.watched_nodes()
                if new_watched is not record.watched and new_watched != record.watched:
                    self._unplace(record, index, always)
                    record.watched = new_watched
                    self._place_watched(record, index, always)
                new_poll = session.next_poll_time()
                if new_poll != record.poll_at:
                    record.poll_at = new_poll
                    if new_poll != math.inf:
                        heapq.heappush(wakeups, (new_poll, record.order, record))
                elif record in due and new_poll != math.inf:
                    # Popped but unchanged (event at the exact poll time was
                    # a no-op): re-arm so the next event still wakes it.
                    heapq.heappush(wakeups, (new_poll, record.order, record))
            if live == 0:
                return

    def _run_kernel(self) -> None:
        """Kernel sweeps for eligible sessions, columnar loop for the rest.

        The split is transparent: each eligible session is claimed by the
        first kernel class in :data:`~repro.sim.kernel.KERNEL_CLASSES`
        whose ``supports`` accepts it (fault-free / recovery-free /
        keyring-free single-copy → :class:`~repro.sim.kernel.BatchKernel`,
        fault-free multi-copy →
        :class:`~repro.sim.kernel.MultiCopyBatchKernel`) and advanced over
        the whole window by array operations; every other session sees the
        *same* window through the regular columnar object loop. Eligible
        sessions draw no randomness at dispatch time and never interact
        with each other, so removing them from the object loop cannot
        perturb shared sampled state (e.g. greyhole draws) — the combined
        outcomes are byte-identical with ``consume="columnar"``. Sources
        without columnar support degrade to the iterator loop for
        everything.
        """
        from repro.sim.kernel import KERNEL_CLASSES, kernel_class_for

        if not hasattr(self._events, "events_until_columnar"):
            self._count_mode("iterator", self._live_session_count())
            self._run_indexed()
            return
        groups = {kernel_cls: [] for kernel_cls in KERNEL_CLASSES}
        rest = []
        for order, session in enumerate(self._sessions):
            kernel_cls = None
            if id(session) not in self._quarantined_ids and not session.done:
                kernel_cls = kernel_class_for(session)
            if kernel_cls is not None:
                groups[kernel_cls].append((order, session))
            else:
                rest.append((order, session))
        if not any(groups.values()):
            self._count_mode("columnar", self._live_session_count())
            self._run_indexed_columnar()
            return
        try:
            block = self._events.events_until_columnar(self._horizon)
        except Exception as error:
            # The source promised columnar windows but could not produce
            # one — degrade the whole run to the per-event iterator loop.
            self._record_fallback(
                "consume=kernel",
                error,
                "columnar window production failed; degraded to iterator",
            )
            self._count_mode("iterator", self._live_session_count())
            self._run_indexed()
            return
        on_session_error = None
        if self._on_error == "quarantine":
            on_session_error = self._quarantine
        backend = self._resolve_backend()
        self._kernel_stats = []
        for kernel_cls in KERNEL_CLASSES:
            eligible = groups[kernel_cls]
            if not eligible:
                continue
            kernel = None
            try:
                kernel = kernel_cls(
                    [session for _, session in eligible], backend=backend
                )
                kernel.run(block, on_session_error=on_session_error)
            except Exception as error:
                if kernel is not None and kernel.dispatches:
                    # Sessions were already advanced; replaying them through
                    # the object loop would violate causality, so this is
                    # not a safe rung — propagate instead of corrupting.
                    error.add_note(
                        f"{kernel_cls.__name__} failed after "
                        f"{kernel.dispatches} dispatches; partial kernel "
                        "state cannot fall back byte-identically — rerun "
                        "the batch (or chunk) with kernel=False"
                    )
                    raise
                # Nothing was mutated: route the whole group through the
                # columnar object loop, byte-identically.
                self._record_fallback(
                    kernel_cls.__name__,
                    error,
                    f"kernel rejected {len(eligible)} eligible sessions "
                    "before dispatching; degraded to columnar",
                )
                rest.extend(eligible)
                continue
            self._harvest_kernel(kernel)
            self._count_mode(kernel_cls.mode, len(eligible))
        rest.sort(key=lambda pair: pair[0])
        live_rest = [
            pair
            for pair in rest
            if not pair[1].done and id(pair[1]) not in self._quarantined_ids
        ]
        if live_rest:
            self._count_mode("columnar", len(live_rest))
            self._run_indexed_columnar(block=block, ordered_sessions=rest)
        else:
            # The kernels consumed the window on their own; the object
            # loop's per-event counter never ran, so account for the block.
            self._events_processed += len(block)

    def _run_stream(self) -> None:
        """Windowed kernel consumption under a bounded memory footprint.

        The kernel split of :meth:`_run_kernel` is applied once, then the
        source is drained window by window through
        :func:`~repro.contacts.events.stream_event_blocks`: each kernel's
        ``run`` is invoked per window (kernels compose across
        chronologically split streams — unfinished sessions stay parked),
        and the object-loop remainder advances through the *persistent*
        dispatch state via :meth:`_dispatch_columnar_window`. Only one
        window is resident at a time, capped at ``max_window_events``
        events when set. Outcomes are byte-identical with every other
        consume mode; the run stops early once every session is done.

        Failure semantics differ from one-shot kernel mode in one way: a
        kernel (or window-production) error past the first window cannot
        degrade to a slower loop, because earlier windows were already
        consumed and dispatched — the error propagates, and chunk-level
        supervisors rebuild from the chunk seed with ``kernel=False``
        (the degradation ladder's next rung, which streams through the
        object loop alone).
        """
        from repro.contacts.events import stream_event_blocks
        from repro.sim.kernel import KERNEL_CLASSES, kernel_class_for

        if not hasattr(self._events, "events_until_columnar"):
            self._count_mode("iterator", self._live_session_count())
            self._run_indexed()
            return
        groups = {kernel_cls: [] for kernel_cls in KERNEL_CLASSES}
        rest = []
        for order, session in enumerate(self._sessions):
            kernel_cls = None
            if (
                self._stream_kernels
                and id(session) not in self._quarantined_ids
                and not session.done
            ):
                kernel_cls = kernel_class_for(session)
            if kernel_cls is not None:
                groups[kernel_cls].append((order, session))
            else:
                rest.append((order, session))
        backend = self._resolve_backend()
        self._kernel_stats = []
        kernels = []
        for kernel_cls in KERNEL_CLASSES:
            eligible = groups[kernel_cls]
            if not eligible:
                continue
            kernels.append(
                kernel_cls(
                    [session for _, session in eligible], backend=backend
                )
            )
            self._count_mode(kernel_cls.mode, len(eligible))
        rest.sort(key=lambda pair: pair[0])
        index, always, wakeups, live = self._build_dispatch_state(rest)
        self._count_mode("columnar", live)
        if not kernels and live == 0:
            return
        window = self._stream_window
        if window is None:
            # With a ceiling but no window hint, start narrow and let the
            # generator's adaptation find the rate; otherwise a modest
            # fixed split keeps per-window overhead amortised.
            window = self._horizon / (256.0 if self._max_window_events else 16.0)
        on_session_error = None
        if self._on_error == "quarantine":
            on_session_error = self._quarantine
        self._stream_windows = 0
        self._stream_peak_window = 0
        try:
            for block in stream_event_blocks(
                self._events,
                self._horizon,
                window=window,
                max_window_events=self._max_window_events,
            ):
                self._stream_windows += 1
                if len(block) > self._stream_peak_window:
                    self._stream_peak_window = len(block)
                for kernel in kernels:
                    try:
                        kernel.run(block, on_session_error=on_session_error)
                    except Exception as error:
                        error.add_note(
                            f"{type(kernel).__name__} failed in stream window "
                            f"{self._stream_windows}; a partially consumed "
                            "stream cannot fall back byte-identically — rerun "
                            "the batch (or chunk) with kernel=False or "
                            "consume='kernel'"
                        )
                        raise
                if live:
                    live = self._dispatch_columnar_window(
                        block, index, always, wakeups, live
                    )
                else:
                    self._events_processed += len(block)
                if live == 0 and all(
                    kernel.pending == 0 for kernel in kernels
                ):
                    return
        finally:
            for kernel in kernels:
                self._harvest_kernel(kernel)

    def _run_indexed_columnar(self, block=None, ordered_sessions=None) -> None:
        """Indexed dispatch fed by one columnar window instead of a stream.

        Event-for-event equivalent to :meth:`_run_indexed`: the block holds
        the same events in the same order (the producers guarantee it), and
        the candidate assembly, dispatch order, contract re-reads, and
        early-exit logic are identical. The only differences are that the
        whole window is produced up front (one block instead of one heap
        pop per event) and that :class:`ContactEvent` objects are built
        lazily — only for sessions that do not implement the scalar
        callback, and at most once per event.

        ``block`` reuses an already-produced window (the kernel path
        produces it once and shares it); ``ordered_sessions`` restricts
        dispatch to a subset of registered sessions.
        """
        if block is None:
            try:
                block = self._events.events_until_columnar(self._horizon)
            except Exception as error:
                # Degrade to the per-event iterator loop: same events, same
                # dispatch order, byte-identical outcomes — only slower.
                self._record_fallback(
                    "consume=columnar",
                    error,
                    "columnar window production failed; degraded to iterator",
                )
                live_now = self._live_session_count()
                self._count_mode("columnar", -live_now)
                self._count_mode("iterator", live_now)
                self._run_indexed()
                return

        index, always, wakeups, live = self._build_dispatch_state(
            ordered_sessions
        )
        if live == 0:
            return
        self._dispatch_columnar_window(block, index, always, wakeups, live)

    def _dispatch_columnar_window(
        self, block, index, always, wakeups, live
    ) -> int:
        """Dispatch one columnar window against prebuilt index state.

        Returns the remaining live-session count so streaming callers can
        feed successive windows through the *same* dispatch state — the
        index, broadcast list, and wakeup heap persist across windows
        exactly as they would persist across the events of one big block.
        """
        times = block.times.tolist()
        nodes_a = block.a.tolist()
        nodes_b = block.b.tolist()
        index_get = index.get
        for time, node_a, node_b in zip(times, nodes_a, nodes_b):
            self._events_processed += 1
            due: List[_SessionRecord] = []
            while wakeups and wakeups[0][0] <= time:
                poll_at, _, record = heapq.heappop(wakeups)
                if record.live and record.poll_at == poll_at:
                    due.append(record)

            watching_a = index_get(node_a)
            watching_b = index_get(node_b)
            candidates: List[_SessionRecord]
            if watching_b or always or due:
                seen: set = set()
                candidates = []
                for group in (watching_a, watching_b, always, due):
                    if not group:
                        continue
                    for record in group:
                        if record.order not in seen:
                            seen.add(record.order)
                            candidates.append(record)
            else:
                candidates = list(watching_a) if watching_a else []
            candidates.sort(key=_ORDER_KEY)

            event: Optional[ContactEvent] = None
            # ``due`` being empty means no wakeup entry was consumed this
            # event, so a dispatch that leaves state_version unchanged needs
            # no follow-up at all: done / watched_nodes() / next_poll_time()
            # are all exactly as recorded and every heap entry is intact.
            fast_ok = not due
            for record in candidates:
                if not record.live:
                    continue
                session = record.session
                try:
                    if record.scalar:
                        if fast_ok and record.versioned:
                            version = session.state_version
                            session.on_contact_scalar(time, node_a, node_b)
                            if session.state_version == version:
                                continue
                        else:
                            session.on_contact_scalar(time, node_a, node_b)
                    else:
                        if event is None:
                            event = ContactEvent(time=time, a=node_a, b=node_b)
                        session.on_contact(event)
                except Exception as error:
                    if self._on_error == "raise":
                        raise
                    self._quarantine(session, error)
                    self._retire(record, index, always)
                    live -= 1
                    continue
                if session.done:
                    self._retire(record, index, always)
                    live -= 1
                    continue
                new_watched = session.watched_nodes()
                if new_watched is not record.watched and new_watched != record.watched:
                    self._unplace(record, index, always)
                    record.watched = new_watched
                    self._place_watched(record, index, always)
                new_poll = session.next_poll_time()
                if new_poll != record.poll_at:
                    record.poll_at = new_poll
                    if new_poll != math.inf:
                        heapq.heappush(wakeups, (new_poll, record.order, record))
                elif record in due and new_poll != math.inf:
                    heapq.heappush(wakeups, (new_poll, record.order, record))
            if live == 0:
                return 0
        return live

    def _place(
        self,
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
        wakeups: List[Tuple[float, int, _SessionRecord]],
    ) -> None:
        record.watched = record.session.watched_nodes()
        self._place_watched(record, index, always)
        record.poll_at = record.session.next_poll_time()
        if record.poll_at != math.inf:
            heapq.heappush(wakeups, (record.poll_at, record.order, record))

    @staticmethod
    def _place_watched(
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        if record.watched is None:
            always.append(record)
        else:
            for node in record.watched:
                index.setdefault(node, []).append(record)

    @staticmethod
    def _unplace(
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        if record.watched is None:
            always.remove(record)
        else:
            for node in record.watched:
                watchers = index.get(node)
                if watchers is not None:
                    watchers.remove(record)
                    if not watchers:
                        del index[node]

    def _retire(
        self,
        record: _SessionRecord,
        index: Dict[int, List[_SessionRecord]],
        always: List[_SessionRecord],
    ) -> None:
        """Remove a done/quarantined session from all dispatch structures."""
        self._unplace(record, index, always)
        record.live = False
        record.poll_at = math.inf  # invalidates any heap entries
