"""The discrete-event simulation loop.

Every run drives each session along one of two delivery paths, and the
outcomes are byte-identical whichever path a session takes:

* **Kernels.** Kernel-eligible sessions — fault-free, recovery-free,
  keyring-free single-copy and fault-free multi-copy, see
  :data:`repro.sim.kernel.KERNEL_CLASSES` — are swept over each columnar
  :class:`~repro.contacts.events.EventBlock` window with struct-of-arrays
  operations that dispatch only the state-changing events, through the
  same scalar session hook.
* **The object loop.** Every other session is dispatched event by event
  through a node→sessions *interest index* built from each session's
  :meth:`~repro.sim.protocol.ProtocolSession.watched_nodes` contract plus
  a wakeup heap of :meth:`~repro.sim.protocol.ProtocolSession.next_poll_time`
  deadlines, so each contact touches only the sessions that could act on
  it and finished sessions stop being scanned. Sessions that do not
  implement the contract see every event. The sessions touched by one
  event are dispatched in registration order, so shared sampled state
  (e.g. per-receive greyhole draws) consumes the same random stream as a
  plain scan over every session would.

Events reach both paths as :class:`~repro.contacts.events.EventBlock`
windows from the source's ``events_until_columnar``; the object loop walks
each window's rows. ``consume`` only chooses the windows: ``"auto"`` reads
one horizon-wide block, and ``"stream"`` reads successive windows from
:func:`~repro.contacts.events.stream_event_blocks`, so a run whose
sessions all finish early stops producing events soon after.
:attr:`SimulationEngine.dispatch_mode_counts` records how many sessions
each run routed through each path.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import os
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple
from typing import Protocol as TypingProtocol

from repro.contacts.events import ContactEvent, EventBlock, stream_event_blocks
from repro.sim.backend import ENV_VAR, check_backend_name, resolve_backend
from repro.sim.protocol import ProtocolSession
from repro.utils.resilience import KERNEL_FALLBACK, ResilienceEvent
from repro.utils.validation import check_positive, check_positive_int

logger = logging.getLogger(__name__)

_ORDER_KEY = attrgetter("order")


class EventSource(TypingProtocol):
    """Anything that returns its chronological contacts window by window."""

    def events_until_columnar(self, horizon: float) -> EventBlock:  # pragma: no cover
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
        # Sessions maintaining state_version allow the object loop to
        # skip the contract re-read after a provably no-op dispatch.
        self.versioned = self.scalar and session.state_version is not None


class _ObjectLoop:
    """The object loop's dispatch state, persistent across windows.

    ``index`` maps a node to the records watching it, ``always`` holds the
    records of sessions without a watched-nodes contract, ``wakeups`` is a
    lazily invalidated heap of ``(poll_at, order, record)`` entries, and
    ``live`` counts the sessions still being dispatched.
    """

    __slots__ = ("index", "always", "wakeups", "live")

    def __init__(self) -> None:
        self.index: Dict[int, List[_SessionRecord]] = {}
        self.always: List[_SessionRecord] = []
        self.wakeups: List[Tuple[float, int, _SessionRecord]] = []
        self.live = 0

    def add(self, order: int, session: ProtocolSession) -> None:
        """Register a session; placement order never affects dispatch order."""
        record = _SessionRecord(order, session)
        record.watched = session.watched_nodes()
        self.place(record)
        record.poll_at = session.next_poll_time()
        if record.poll_at != math.inf:
            heapq.heappush(self.wakeups, (record.poll_at, order, record))
        self.live += 1

    def place(self, record: _SessionRecord) -> None:
        if record.watched is None:
            self.always.append(record)
        else:
            for node in record.watched:
                self.index.setdefault(node, []).append(record)

    def unplace(self, record: _SessionRecord) -> None:
        if record.watched is None:
            self.always.remove(record)
        else:
            for node in record.watched:
                watchers = self.index.get(node)
                if watchers is not None:
                    watchers.remove(record)
                    if not watchers:
                        del self.index[node]

    def retire(self, record: _SessionRecord) -> None:
        """Remove a done/quarantined session from every dispatch structure."""
        self.unplace(record)
        record.live = False
        record.poll_at = math.inf  # invalidates any heap entries
        self.live -= 1


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
    consume:
        How the events are windowed. ``"auto"`` (default) reads one
        horizon-wide :class:`~repro.contacts.events.EventBlock` from
        ``events_until_columnar``; ``"stream"`` reads successive
        ``stream_window``-sized windows (each at most
        ``max_window_events`` long), so the full event set is never
        resident and a run stops producing events soon after its last
        session finishes. Outcomes are identical across both.
    kernel:
        Sweep kernel-eligible sessions with the struct-of-arrays kernels
        (:class:`~repro.sim.kernel.BatchKernel` for single-copy,
        :class:`~repro.sim.kernel.MultiCopyBatchKernel` for multi-copy);
        the rest run in the object loop. ``False`` runs every session in
        the object loop.
    backend:
        Kernel-backend selection for the struct-of-arrays sweeps: a
        :mod:`repro.sim.backend` registry name (``"numpy"`` or
        ``"cc"``), an already-resolved backend instance, or None to
        honour ``REPRO_KERNEL_BACKEND`` (default numpy). An unknown name,
        passed or from the environment, raises at construction; a
        known-but-unavailable backend degrades to numpy with a
        KERNEL_FALLBACK resilience event. Outcomes are byte-identical
        across backends; :attr:`kernel_stats` exposes the per-kernel
        phase timings either way.

    One degradation rule covers every run: a kernel that raises before it
    has dispatched anything, while the first window is processed, hands
    its group to the object loop, recorded as :attr:`fallback_events`.
    Any other failure propagates, including a source that cannot produce
    a window.

    One bookkeeping caveat: when no session runs in the object loop,
    :attr:`events_processed` counts every consumed window in full (the
    kernels prove most events are no-ops without dispatching them),
    whereas the object loop stops counting at its early exit. Outcomes
    are unaffected.
    """

    def __init__(
        self,
        events: EventSource,
        horizon: float,
        on_error: str = "quarantine",
        consume: str = "auto",
        stream_window: Optional[float] = None,
        max_window_events: Optional[int] = None,
        kernel: bool = True,
        backend=None,
    ):
        check_positive(horizon, "horizon")
        if on_error not in ("quarantine", "raise"):
            raise ValueError(
                f"on_error must be 'quarantine' or 'raise', got {on_error!r}"
            )
        if consume not in ("auto", "stream"):
            raise ValueError(f"consume must be 'auto' or 'stream', got {consume!r}")
        if not hasattr(events, "events_until_columnar"):
            raise TypeError(
                f"expected an event source with events_until_columnar, got "
                f"{type(events).__name__}"
            )
        if stream_window is not None:
            check_positive(stream_window, "stream_window")
        if max_window_events is not None:
            check_positive_int(max_window_events, "max_window_events")
        # Typos fail at construction time, whether passed or set in the
        # environment; resolution itself stays lazy.
        check_backend_name(
            backend if backend is not None else os.environ.get(ENV_VAR) or None
        )
        self._backend = backend
        self._backend_obj = None
        self._events = events
        self._horizon = horizon
        self._on_error = on_error
        self._consume = consume
        self._stream_window = stream_window
        self._max_window_events = max_window_events
        self._kernel = kernel
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
    def consume(self) -> str:
        """Consumption mode: ``auto`` or ``stream``."""
        return self._consume

    @property
    def stream_stats(self) -> Tuple[int, int]:
        """``(windows consumed, peak window event count)`` of the last run
        — the memory-ceiling observability hook."""
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
        sweeps) and ``object`` (the object loop). Only live,
        unquarantined sessions are counted, at the moment :meth:`run`
        settles their path.
        """
        return dict(self._dispatch_mode_counts)

    @property
    def fallback_events(self) -> Tuple[ResilienceEvent, ...]:
        """Degradations taken this run.

        Each entry is a :data:`~repro.utils.resilience.KERNEL_FALLBACK`
        event: a kernel group handed to the object loop, or a kernel
        backend degraded to numpy. Outcomes are byte-identical either way
        — a fallback costs wall time, never correctness.
        """
        return tuple(self._fallbacks)

    @property
    def kernel_stats(self) -> Tuple[Dict, ...]:
        """Per-kernel profiling stats collected by the last kernel run.

        One dict per kernel instance the engine drove (see
        ``BatchKernel.stats``): backend name, ``rounds`` (backend race
        calls), ``scalar_dispatches``, ``backend_seconds``,
        ``dispatch_seconds``, and the active-set peak/total over those
        calls — the raw material for ``bench_engine --mode backend``.
        """
        return tuple(dict(stats) for stats in self._kernel_stats)

    def _resolve_backend(self):
        """Resolve the requested kernel backend once per engine.

        A known-but-unavailable backend (no C compiler, a failed
        compile) degrades to numpy and records a
        :data:`~repro.utils.resilience.KERNEL_FALLBACK` event: selection
        never changes outcomes.
        """
        if self._backend_obj is None:
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
        self._fallbacks.extend(kernel.fallback_events)

    def _count_mode(self, mode: str, count: int) -> None:
        if count:
            self._dispatch_mode_counts[mode] = (
                self._dispatch_mode_counts.get(mode, 0) + count
            )

    def _record_fallback(self, where: str, error: Exception, detail: str) -> None:
        event = ResilienceEvent(
            kind=KERNEL_FALLBACK,
            where=where,
            detail=f"{detail}: {type(error).__name__}: {error}",
            resolution="degraded",
        )
        self._fallbacks.append(event)
        logger.warning("%s — %s", where, event.detail)

    def _is_live(self, session: ProtocolSession) -> bool:
        return not session.done and id(session) not in self._quarantined_ids

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
        if not any(self._is_live(session) for session in self._sessions):
            return
        # A generator, not a list: a batch-sized list of pairs would raise
        # the peak RSS of large batches.
        pending = (
            (order, session)
            for order, session in enumerate(self._sessions)
            if self._is_live(session)
        )
        self._kernel_stats = []
        self._stream_windows = self._stream_peak_window = 0
        loop = _ObjectLoop()
        blocks = self._open_blocks()

        from repro.sim.kernel import KERNEL_CLASSES, kernel_class_for

        groups: Dict[type, List[Tuple[int, ProtocolSession]]] = {
            kernel_cls: [] for kernel_cls in KERNEL_CLASSES
        }
        for order, session in pending:
            kernel_cls = kernel_class_for(session) if self._kernel else None
            if kernel_cls is None:
                loop.add(order, session)
            else:
                groups[kernel_cls].append((order, session))
        self._count_mode("object", loop.live)
        kernels: list = []
        try:
            for number, block in enumerate(blocks, 1):
                self._stream_windows = number
                if len(block) > self._stream_peak_window:
                    self._stream_peak_window = len(block)
                if number == 1:
                    self._start_kernels(groups, block, loop, kernels)
                else:
                    for kernel in kernels:
                        self._sweep(kernel, block, number)
                if loop.live:
                    triples = zip(
                        block.times.tolist(), block.a.tolist(), block.b.tolist()
                    )
                    self._dispatch(loop, triples)
                else:
                    self._events_processed += len(block)
                if not loop.live and all(kernel.pending == 0 for kernel in kernels):
                    break
        finally:
            for kernel in kernels:
                self._harvest_kernel(kernel)

    def _open_blocks(self) -> Iterator[EventBlock]:
        """The run's windows; there is always at least one, maybe empty."""
        if self._consume == "auto":
            return iter((self._events.events_until_columnar(self._horizon),))
        window = self._stream_window
        if window is None:
            # With a ceiling but no window hint, start narrow and let the
            # generator's adaptation find the rate; otherwise a modest
            # fixed split keeps per-window overhead amortised.
            window = self._horizon / (256.0 if self._max_window_events else 16.0)
        blocks = stream_event_blocks(
            self._events,
            self._horizon,
            window=window,
            max_window_events=self._max_window_events,
        )
        first = next(blocks, None)
        if first is None:  # every window was empty
            first = EventBlock.empty()
        return itertools.chain((first,), blocks)

    def _start_kernels(
        self, groups, block: EventBlock, loop: _ObjectLoop, kernels: list
    ) -> None:
        """Build one kernel per non-empty group and sweep the first window.

        Each kernel joins ``kernels`` before its sweep, so the caller
        harvests every kernel that ran even when a later one raises. A
        kernel that raises before dispatching anything has mutated no
        session, and the object loop has not seen the window yet, so it
        leaves ``kernels`` and its group joins the object loop
        byte-identically.
        """
        for kernel_cls, eligible in groups.items():
            if not eligible:
                continue
            kernel = None
            try:
                kernel = kernel_cls(
                    [session for _, session in eligible],
                    backend=self._resolve_backend(),
                )
                kernels.append(kernel)
                self._sweep(kernel, block, 1)
            except Exception as error:
                if kernel is not None and kernel.dispatches:
                    raise
                if kernel is not None:
                    kernels.pop()
                self._record_fallback(
                    kernel_cls.__name__,
                    error,
                    f"kernel rejected {len(eligible)} eligible sessions "
                    "before dispatching; degraded to the object loop",
                )
                before = loop.live
                for order, session in eligible:
                    if self._is_live(session):
                        loop.add(order, session)
                self._count_mode("object", loop.live - before)
                continue
            self._count_mode(kernel_cls.mode, len(eligible))

    def _sweep(self, kernel, block: EventBlock, number: int) -> None:
        """Advance one kernel across window ``number``."""
        try:
            kernel.run(
                block,
                on_session_error=(
                    self._quarantine if self._on_error == "quarantine" else None
                ),
            )
        except Exception as error:
            if kernel.dispatches or number > 1:
                # Sessions were already advanced; replaying them through
                # the object loop would violate causality, so this is not
                # a safe fallback — propagate instead of corrupting.
                error.add_note(
                    f"{type(kernel).__name__} failed in window {number} after "
                    f"{kernel.dispatches} dispatches; advanced sessions cannot "
                    "fall back byte-identically — rerun the batch (or chunk) "
                    "with kernel=False"
                )
            raise

    def _dispatch(
        self, loop: _ObjectLoop, events: Iterable[Tuple[float, int, int]]
    ) -> None:
        """The object loop: dispatch ``(time, a, b)`` triples through ``loop``.

        Stops as soon as no session in ``loop`` is live. ``loop`` persists
        across calls, so successive
        windows dispatch exactly as the events of one big window would.
        :class:`ContactEvent` objects are built only for sessions that do
        not implement the scalar hook, and at most once per event.
        """
        index_get = loop.index.get
        always = loop.always
        wakeups = loop.wakeups
        for time, node_a, node_b in events:
            self._events_processed += 1
            due: List[_SessionRecord] = []
            while wakeups and wakeups[0][0] <= time:
                poll_at, _, record = heapq.heappop(wakeups)
                # Lazy invalidation: skip entries superseded by a newer
                # poll time or belonging to a retired session.
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
            # Registration order keeps shared sampled state (e.g. greyhole
            # draws) on the same stream as a scan over every session.
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
                    loop.retire(record)
                    continue
                if session.done:
                    loop.retire(record)
                    continue
                # Re-read the contract: custody may have moved.
                new_watched = session.watched_nodes()
                if new_watched is not record.watched and new_watched != record.watched:
                    loop.unplace(record)
                    record.watched = new_watched
                    loop.place(record)
                new_poll = session.next_poll_time()
                if new_poll != record.poll_at:
                    record.poll_at = new_poll
                    if new_poll != math.inf:
                        heapq.heappush(wakeups, (new_poll, record.order, record))
                elif record in due and new_poll != math.inf:
                    # Popped but unchanged (event at the exact poll time was
                    # a no-op): re-arm so the next event still wakes it.
                    heapq.heappush(wakeups, (new_poll, record.order, record))
            if not loop.live:
                return
