"""Vectorized struct-of-arrays batch kernels for Monte Carlo sweeps.

The paper's delivery-rate sweeps simulate thousands of *homogeneous,
fault-free* protocol sessions whose entire live state is a handful of
integers. Driving each of them through one Python method call per relevant
event — even the columnar engine's allocation-free scalar hook — leaves
per-object dispatch as the dominant cost of a batch. This module sweeps
whole batches over a columnar :class:`~repro.contacts.events.EventBlock`
with array operations instead.

The key observation (the per-hop anycast race): a fault-free session
changes state only at

* the first event at/after ``created_at`` where the holder of a live copy
  meets a member of that copy's next onion group (a *forward* / *spray*),
  or
* the first event strictly after ``expires_at`` (TTL *expiry*).

Everything else is provably a no-op, so the kernels locate those few
state-changing events with vectorized searches and dispatch **only them**
through the session's own
:meth:`~repro.sim.protocol.ProtocolSession.on_contact_scalar` hook. The
outcome objects (paths, hop timestamps, transfers, status) are therefore
built by the exact same code path as every other engine mode —
byte-identity with columnar/indexed/broadcast dispatch is structural, not
re-implemented.

Two kernels share the composite-index machinery (:class:`_EventIndex`):

* :class:`BatchKernel` — fault-free, keyring-free
  :class:`~repro.core.single_copy.SingleCopySession`. One copy, one holder
  per session; each round advances every active session by exactly one
  state change, so a batch with ``η`` hops finishes in at most ``η + 1``
  rounds.
* :class:`MultiCopyBatchKernel` — fault-free
  :class:`~repro.core.multi_copy.MultiCopySession` (Algorithm 2). The
  anycast race runs over *every live copy* of a session: the per-round
  minimum is taken across all (copy, target-member) candidates of the
  session, the winning event is dispatched once through
  ``on_contact_scalar`` (which advances every copy involved), and the
  kernel resyncs its copy mirror from :meth:`MultiCopySession.copy_states`
  — skipping the resync when :attr:`state_version` proves the dispatch was
  a no-op. No-op dispatches are possible (the paper's ``Forward()``
  predicate refuses peers that already hold a copy, which the race does
  not model), but every dispatch advances the session's cursor, so
  progress is monotone and the sweep terminates.

Both kernels work with any chronological block — synthetic
:class:`~repro.contacts.events.ExponentialContactProcess` windows and
CRAWDAD :class:`~repro.contacts.events.TraceReplayProcess` replays alike;
eligibility never depends on the event source.

Backend seam
------------

The race searches run on a pluggable :mod:`repro.sim.backend` backend
(``backend=`` on either kernel: a registered name, a resolved
:class:`~repro.sim.backend.KernelBackend`, or None for the
``REPRO_KERNEL_BACKEND``/numpy default). The numpy backend keeps the
original vectorized per-round sweep. The compiled ``cc`` backend
replaces the single-copy round loop wholesale: one call computes every
session's *entire* trajectory of state-changing event indices, which the
kernel applies through
:meth:`~repro.core.single_copy.SingleCopySession.apply_transitions` — one
batched session call per trajectory instead of one Python dispatch per
hop, with the session's own acceptance predicate re-checking every
applied contact (a mispredicted race raises instead of corrupting
state). Same transitions, same order, byte-identical outcomes. The
multi-copy kernel keeps its round structure (ticket hand-offs depend on
session-side spray arithmetic) and routes the per-round race through the
backend op. A compiled backend that raises mid-sweep degrades to numpy
*before* any un-dispatched state is lost (ops are pure), records the
degradation on :attr:`backend_fallbacks`, and the sweep continues
byte-identically.

Each kernel keeps a ``stats`` dict for the profiling harness: backend
name, ``rounds``, ``scalar_dispatches``, ``backend_seconds`` (time in
backend ops), ``dispatch_seconds`` (time replaying events through
sessions), and the per-round active-set peak/total.
"""

from __future__ import annotations

import logging
from itertools import chain
from time import perf_counter
from typing import List, Sequence, Tuple

import numpy as np

from repro.contacts.events import EventBlock
from repro.core.multi_copy import MultiCopySession
from repro.core.single_copy import SingleCopySession
from repro.sim.backend import resolve_backend
from repro.sim.protocol import ProtocolSession

__all__ = ["BatchKernel", "MultiCopyBatchKernel", "KERNEL_CLASSES", "kernel_class_for"]

logger = logging.getLogger(__name__)


class _EventIndex:
    """Composite ``(pair key, event index)`` ordering of one block.

    Within one unordered node pair the stable argsort keeps chronological
    order, so "first event of pair P at index >= c" is a single
    :func:`numpy.searchsorted` against ``key * stride + index``. Both
    kernels build their queries against this structure; ``min_nodes``
    widens the key space to cover session nodes absent from the block.
    """

    def __init__(self, block: EventBlock, min_nodes: int):
        self.n_events = len(block)
        self.times = block.times
        self.events_a = block.a
        self.events_b = block.b
        max_node = int(max(self.events_a.max(), self.events_b.max()))
        self.n_nodes = max(max_node + 1, min_nodes)
        self.stride = self.n_events + 1
        lo = np.minimum(self.events_a, self.events_b)
        hi = np.maximum(self.events_a, self.events_b)
        event_key = lo * self.n_nodes + hi
        key_order = np.argsort(event_key, kind="stable")
        self.sorted_comp = event_key[key_order] * self.stride + key_order

    def first_events(
        self,
        q_holder: np.ndarray,
        q_target: np.ndarray,
        q_cursor: np.ndarray,
    ) -> np.ndarray:
        """First event index ≥ cursor on each ``(holder, target)`` pair.

        Pairs with no such event map to ``n_events`` (a sentinel that
        always loses the subsequent minimum reductions).
        """
        from repro.sim.backend import _numpy_first_events

        return _numpy_first_events(
            self.sorted_comp,
            self.stride,
            self.n_nodes,
            self.n_events,
            q_holder,
            q_target,
            q_cursor,
        )


class _TargetTable:
    """Flattened per-session × hop target-group membership table.

    Session ``s``'s hop ``h`` (1-based) targets live at
    ``targets[start[base[s] + h - 1] : stop[base[s] + h - 1]]``; its final
    (delivery) hop slot is ``last[s]``.
    """

    def __init__(self, sessions: Sequence[ProtocolSession]):
        # Flattening runs once per kernel but over every (session, hop,
        # member) triple, so it is built from whole-route tuples and
        # cumulative sums instead of per-hop Python bookkeeping.
        per_session: List[Tuple[Tuple[int, ...], ...]] = [
            session.route._hop_targets for session in sessions
        ]
        hops_flat: List[Tuple[int, ...]] = []
        for hop_targets in per_session:
            hops_flat.extend(hop_targets)
        etas = np.fromiter(
            (len(h) for h in per_session), dtype=np.int64, count=len(per_session)
        )
        self.base = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(etas)[:-1])
        ) if len(sessions) else np.empty(0, dtype=np.int64)
        self.last = self.base + etas - 1
        sizes = np.fromiter(
            (len(members) for members in hops_flat),
            dtype=np.int64,
            count=len(hops_flat),
        )
        self.stop = np.cumsum(sizes)
        self.start = self.stop - sizes
        self.targets = np.fromiter(
            chain.from_iterable(hops_flat),
            dtype=np.int64,
            count=int(self.stop[-1]) if len(hops_flat) else 0,
        )
        self.max_node = int(self.targets.max()) if self.targets.size else 0


def _window_bounds(
    times: np.ndarray, session: ProtocolSession
) -> Tuple[int, int]:
    """(cursor, expiry) event indices for one session over the block.

    Events before creation are no-ops; expiry fires at the first event
    strictly past the deadline (``on_contact_scalar``'s
    ``time < created_at`` / ``time > expires_at`` branches). The scalar
    reference for :func:`_window_bounds_batch`, which both kernels use.
    """
    cursor = int(np.searchsorted(times, session.created_at, "left"))
    expiry = int(np.searchsorted(times, session.expires_at, "right"))
    return cursor, expiry


def _window_bounds_batch(
    times: np.ndarray, created: np.ndarray, expires: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(cursor, expiry) index arrays for a whole batch of sessions.

    Two batched :func:`numpy.searchsorted` calls replace the per-session
    Python loop over :func:`_window_bounds` — same semantics, element for
    element.
    """
    cursor = np.searchsorted(times, created, side="left")
    expiry = np.searchsorted(times, expires, side="right")
    return (
        cursor.astype(np.int64, copy=False),
        expiry.astype(np.int64, copy=False),
    )


_DIVERGENCE_MESSAGE = (
    "dispatched a state-changing event the session did not accept; the "
    "session state diverged from the kernel's race model"
)


class _KernelBackendMixin:
    """Backend resolution, per-phase stats, and mid-sweep degradation
    shared by both batch kernels."""

    def _init_backend(self, backend) -> None:
        self._backend = resolve_backend(backend)
        self._backend_fallbacks: List[str] = []
        self.stats = {
            "backend": self._backend.name,
            "rounds": 0,
            "scalar_dispatches": 0,
            "backend_seconds": 0.0,
            "dispatch_seconds": 0.0,
            "active_peak": 0,
            "active_total": 0,
        }

    @property
    def backend(self) -> str:
        """Name of the backend currently running the race searches."""
        return self._backend.name

    @property
    def backend_fallbacks(self) -> Tuple[str, ...]:
        """Mid-sweep backend degradations taken so far (usually empty).

        Engine callers convert these into
        :data:`~repro.utils.resilience.KERNEL_FALLBACK` resilience
        events; a degradation never changes outcomes, only wall time —
        backend ops are pure, so the numpy recomputation sees identical
        inputs.
        """
        return tuple(self._backend_fallbacks)

    def _degrade_backend(self, where: str, error: Exception) -> None:
        note = (
            f"{where} failed on backend {self._backend.name!r}; "
            f"recomputed with numpy: {type(error).__name__}: {error}"
        )
        self._backend_fallbacks.append(note)
        logger.warning("%s — %s", type(self).__name__, note)
        self._backend = resolve_backend("numpy")
        self.stats["backend"] = self._backend.name

    def _note_round(self, n_active: int) -> None:
        self.stats["rounds"] += 1
        self.stats["active_total"] += n_active
        if n_active > self.stats["active_peak"]:
            self.stats["active_peak"] = n_active


class BatchKernel(_KernelBackendMixin):
    """Simulate a batch of eligible single-copy sessions over one block.

    Eligibility (:meth:`supports`) is deliberately narrow: exactly
    :class:`~repro.core.single_copy.SingleCopySession` (no subclasses),
    fault-free, without custody recovery, and without an onion-crypto
    payload. Those sessions never draw randomness at dispatch time and
    never interact with each other, which is what makes the per-hop race
    a pure array search. Faulted, recovering, or keyring-carrying sessions
    must go through the engine's columnar object path;
    :class:`~repro.sim.engine.SimulationEngine` performs that split
    transparently under ``consume="kernel"``.
    """

    mode = "kernel-single"

    def __init__(self, sessions: Sequence[SingleCopySession], backend=None):
        ineligible = [type(s).__name__ for s in sessions if not self.supports(s)]
        if ineligible:
            raise ValueError(
                "BatchKernel only accepts fault-free, recovery-free, "
                f"keyring-free SingleCopySession instances; got {ineligible[:3]}"
            )
        self._sessions: List[SingleCopySession] = list(sessions)
        self._dispatches = 0
        self._table: _TargetTable | None = None
        self._alive: List[int] = [
            s for s, session in enumerate(self._sessions) if not session.done
        ]
        self._pending = len(self._alive)
        self._init_backend(backend)

    @staticmethod
    def supports(session: ProtocolSession) -> bool:
        """Whether ``session`` can be swept by the kernel.

        Subclasses are rejected wholesale (they may override forwarding
        behaviour the kernel's race search does not model).
        """
        return (
            type(session) is SingleCopySession
            and session.faults is None
            and session.recovery is None
            and session.onion is None
        )

    @property
    def sessions(self) -> Sequence[SingleCopySession]:
        """The sessions this kernel advances."""
        return tuple(self._sessions)

    @property
    def dispatches(self) -> int:
        """State-changing events dispatched so far (forwards + expiries)."""
        return self._dispatches

    @property
    def pending(self) -> int:
        """Sessions neither done nor dropped by ``on_session_error``.

        Streaming callers poll this between windows; the count is
        maintained incrementally (O(1) here), so the per-window
        early-exit check never rescans the session list.
        """
        return self._pending

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def run(self, block: EventBlock, on_session_error=None) -> int:
        """Advance every session across ``block``; returns the dispatch count.

        The block must be chronological (every producer guarantees it).
        After the call each session is in exactly the state the columnar
        object loop would have left it in: delivered/expired sessions are
        ``done`` with identical outcomes, the rest are ``pending`` with
        their holder parked wherever the window left it.

        ``on_session_error(session, error)``, when given, receives any
        exception a session's ``on_contact_scalar`` raises; the session is
        dropped from the sweep and the rest continue (eligible sessions
        never interact, so the others are unaffected — the same containment
        the engine's quarantine gives the object loops). Without the
        callback session exceptions propagate and abort the sweep.

        ``run`` composes across successive windows: per-session state is
        rebuilt from the sessions themselves at every call and unfinished
        sessions are left parked, so calling it once per window of a
        chronologically split stream produces byte-identical outcomes to
        one call over the concatenated block. The target table is built
        once per kernel and sessions that finish (or error) are dropped
        from later sweeps, so a long stream does not rescan them.
        """
        sessions = self._sessions
        n_events = len(block)
        if not sessions or n_events == 0:
            return 0

        n_sessions = len(sessions)
        holder = np.empty(n_sessions, dtype=np.int64)
        active = np.zeros(n_sessions, dtype=bool)
        cursor = np.empty(n_sessions, dtype=np.int64)
        expiry = np.empty(n_sessions, dtype=np.int64)
        hop_slot = np.empty(n_sessions, dtype=np.int64)

        if self._table is None:
            self._table = _TargetTable(sessions)
        table = self._table
        base = table.base
        max_node = table.max_node
        dropped: set = set()
        live: List[int] = []
        created: List[float] = []
        expires: List[float] = []
        for s in self._alive:
            session = sessions[s]
            if session.done:
                continue
            live.append(s)
            active[s] = True
            holder[s] = session.holder
            if session.holder > max_node:
                max_node = session.holder
            hop_slot[s] = base[s] + session.next_hop - 1
            created.append(session.created_at)
            expires.append(session.expires_at)
        if live:
            live_idx = np.asarray(live, dtype=np.int64)
            cursor[live_idx], expiry[live_idx] = _window_bounds_batch(
                block.times,
                np.asarray(created, dtype=np.float64),
                np.asarray(expires, dtype=np.float64),
            )

        index = _EventIndex(block, min_nodes=max_node + 1)

        dispatched = 0
        act = np.nonzero(active)[0]
        if act.size:
            if self._backend.compiled:
                dispatched = self._sweep_compiled(
                    index, table, act, holder, hop_slot, cursor, expiry,
                    dropped, on_session_error,
                )
                if dispatched is None:
                    # Compiled op failed before any dispatch; backend is
                    # now numpy — rerun the window through the round loop.
                    dispatched = self._sweep_rounds(
                        index, table, act, active, holder, hop_slot,
                        cursor, expiry, dropped, on_session_error,
                    )
            else:
                dispatched = self._sweep_rounds(
                    index, table, act, active, holder, hop_slot,
                    cursor, expiry, dropped, on_session_error,
                )

        self._alive = [
            s
            for s in self._alive
            if s not in dropped and not sessions[s].done
        ]
        self._pending = len(self._alive)
        self._dispatches += dispatched
        return dispatched

    def _sweep_rounds(
        self, index, table, act, active, holder, hop_slot, cursor, expiry,
        dropped, on_session_error,
    ) -> int:
        """The vectorized per-round sweep (numpy backend control flow)."""
        sessions = self._sessions
        stats = self.stats
        n_events = index.n_events
        times = index.times
        events_a = index.events_a
        events_b = index.events_b
        base = table.base

        dispatched = 0
        while act.size:
            self._note_round(int(act.size))
            started = perf_counter()
            next_idx = self._backend.single_next_events(
                index.sorted_comp,
                index.stride,
                index.n_nodes,
                n_events,
                table.start,
                table.stop,
                table.targets,
                act,
                holder,
                hop_slot,
                cursor,
                expiry,
            )
            stats["backend_seconds"] += perf_counter() - started

            # Sessions with no state-changing event left in the window stay
            # pending — exactly what the object loop leaves behind.
            finished = act[next_idx == n_events]
            active[finished] = False

            firing = next_idx < n_events
            started = perf_counter()
            for s, k in zip(act[firing].tolist(), next_idx[firing].tolist()):
                session = sessions[s]
                try:
                    session.on_contact_scalar(
                        float(times[k]), int(events_a[k]), int(events_b[k])
                    )
                except Exception as error:
                    if on_session_error is None:
                        raise
                    on_session_error(session, error)
                    active[s] = False
                    dropped.add(s)
                    continue
                dispatched += 1
                stats["scalar_dispatches"] += 1
                if session.done:
                    active[s] = False
                    continue
                if session.holder == holder[s]:  # pragma: no cover - guard
                    raise RuntimeError(
                        f"BatchKernel {_DIVERGENCE_MESSAGE}"
                    )
                holder[s] = session.holder
                hop_slot[s] = base[s] + session.next_hop - 1
                cursor[s] = k + 1
            stats["dispatch_seconds"] += perf_counter() - started
            act = np.nonzero(active)[0]
        return dispatched

    def _sweep_compiled(
        self, index, table, act, holder, hop_slot, cursor, expiry,
        dropped, on_session_error,
    ):
        """Whole-trajectory sweep on a compiled backend.

        One backend call computes every active session's full sequence of
        state-changing event indices; the loop below applies each
        trajectory through
        :meth:`~repro.core.single_copy.SingleCopySession.apply_transitions`
        — the batched counterpart of ``on_contact_scalar`` that performs
        the same transitions in the same order but costs one Python call
        per *session* instead of one per *hop*. The session re-validates
        every applied contact against its own acceptance predicate, so any
        divergence between the compiled race and the session's transition
        model raises instead of silently corrupting outcomes. Returns None
        when the backend op itself failed (nothing dispatched; the caller
        reruns on numpy).
        """
        sessions = self._sessions
        stats = self.stats
        n_events = index.n_events
        started = perf_counter()
        try:
            traj, lens, dones = self._backend.single_trajectories(
                index.sorted_comp,
                index.stride,
                index.n_nodes,
                n_events,
                table.start,
                table.stop,
                table.targets,
                index.events_a,
                index.events_b,
                act,
                holder,
                hop_slot,
                table.last,
                cursor,
                expiry,
            )
        except Exception as error:
            self._degrade_backend("single_trajectories", error)
            return None
        stats["backend_seconds"] += perf_counter() - started
        self._note_round(int(act.size))

        dispatched = 0
        started = perf_counter()
        # One vectorized gather converts every trajectory's firing events to
        # Python scalars up front (times and endpoints, flattened in session
        # order); converting numpy scalars one hop at a time inside the
        # apply loop would otherwise dominate the replay.
        counts = lens.astype(np.int64, copy=False)
        width = traj.shape[1] if traj.ndim == 2 else 0
        mask = np.arange(width, dtype=np.int64)[None, :] < counts[:, None]
        flat = traj[mask] if width else np.empty(0, dtype=np.int64)
        t_all = index.times[flat].tolist()
        a_all = index.events_a[flat].tolist()
        b_all = index.events_b[flat].tolist()
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        ).tolist()
        lens_list = counts.tolist()
        dones_list = dones.tolist()
        for i, s in enumerate(act.tolist()):
            session = sessions[s]
            count = lens_list[i]
            applied = 0
            if count:
                try:
                    applied = session.apply_transitions(
                        t_all, a_all, b_all, offsets[i], count
                    )
                except RuntimeError:
                    # Divergence guard — the session refused a dispatched
                    # contact; never contained, always a kernel/backend bug.
                    raise
                except Exception as error:
                    if on_session_error is None:
                        raise
                    on_session_error(session, error)
                    dropped.add(s)
                    continue
            dispatched += applied
            stats["scalar_dispatches"] += applied
            if applied != count or session.done != bool(dones_list[i]):
                raise RuntimeError(  # pragma: no cover - guard
                    f"BatchKernel [{self._backend.name}] "
                    f"{_DIVERGENCE_MESSAGE}"
                )
        stats["dispatch_seconds"] += perf_counter() - started
        return dispatched


class MultiCopyBatchKernel(_KernelBackendMixin):
    """Simulate a batch of eligible multi-copy sessions over one block.

    Eligibility mirrors :class:`BatchKernel`: exactly
    :class:`~repro.core.multi_copy.MultiCopySession` (no subclasses),
    fault-free, without ticket-reclamation recovery. Spray policy does not
    matter — ``SOURCE`` and ``BINARY`` only decide how many tickets a
    dispatched transfer hands over, which the session computes itself; the
    kernel only needs to know *which copies exist and where*, mirrored via
    :meth:`MultiCopySession.copy_states`.

    Unlike the single-copy race, a dispatched event may be a no-op: the
    race candidates include peers that already hold a copy of the same
    session (the paper's ``Forward()`` refuses those), which only happens
    when onion groups overlap across hops. The kernel detects the no-op
    via :attr:`MultiCopySession.state_version`, skips the mirror resync,
    and advances the cursor past the event — identical to what the
    columnar object loop does with such contacts.
    """

    mode = "kernel-multicopy"

    def __init__(self, sessions: Sequence[MultiCopySession], backend=None):
        ineligible = [type(s).__name__ for s in sessions if not self.supports(s)]
        if ineligible:
            raise ValueError(
                "MultiCopyBatchKernel only accepts fault-free, recovery-free "
                f"MultiCopySession instances; got {ineligible[:3]}"
            )
        self._sessions: List[MultiCopySession] = list(sessions)
        self._dispatches = 0
        self._table: _TargetTable | None = None
        self._alive: List[int] = [
            s for s, session in enumerate(self._sessions) if not session.done
        ]
        self._pending = len(self._alive)
        self._init_backend(backend)

    @staticmethod
    def supports(session: ProtocolSession) -> bool:
        """Whether ``session`` can be swept by the multi-copy kernel."""
        return (
            type(session) is MultiCopySession
            and session.faults is None
            and session.recovery is None
        )

    @property
    def sessions(self) -> Sequence[MultiCopySession]:
        """The sessions this kernel advances."""
        return tuple(self._sessions)

    @property
    def dispatches(self) -> int:
        """Events dispatched so far (sprays, relays, deliveries, expiries,
        plus the rare overlapping-group no-ops)."""
        return self._dispatches

    @property
    def pending(self) -> int:
        """Sessions neither done nor dropped by ``on_session_error``.

        Maintained incrementally, so streaming early-exit polls are O(1).
        """
        return self._pending

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def _race_round(
        self, index, table, rows, c_holder, c_slot, act_cursor, act_expiry
    ) -> np.ndarray:
        """One per-session race over the flattened live copies.

        Runs on the selected backend; a compiled backend that raises is
        degraded to numpy and the round recomputed — the op is pure, so
        the retry sees identical inputs and the sweep stays byte-exact.
        """
        started = perf_counter()
        try:
            next_idx = self._backend.multi_next_events(
                index.sorted_comp,
                index.stride,
                index.n_nodes,
                index.n_events,
                table.start,
                table.stop,
                table.targets,
                rows,
                c_holder,
                c_slot,
                act_cursor,
                act_expiry,
            )
        except Exception as error:
            if self._backend.name == "numpy":
                raise
            self._degrade_backend("multi_next_events", error)
            next_idx = self._backend.multi_next_events(
                index.sorted_comp,
                index.stride,
                index.n_nodes,
                index.n_events,
                table.start,
                table.stop,
                table.targets,
                rows,
                c_holder,
                c_slot,
                act_cursor,
                act_expiry,
            )
        self.stats["backend_seconds"] += perf_counter() - started
        return next_idx

    def run(self, block: EventBlock, on_session_error=None) -> int:
        """Advance every session across ``block``; returns the dispatch count.

        Same contract as :meth:`BatchKernel.run`, including the
        ``on_session_error`` containment: after the call every surviving
        session is byte-identical to what the columnar object loop would
        have produced over the same block, and repeated calls over a
        chronologically split stream compose exactly like
        :meth:`BatchKernel.run` does.
        """
        sessions = self._sessions
        n_events = len(block)
        if not sessions or n_events == 0:
            return 0

        n_sessions = len(sessions)
        active = np.zeros(n_sessions, dtype=bool)
        cursor = np.empty(n_sessions, dtype=np.int64)
        expiry = np.empty(n_sessions, dtype=np.int64)
        # Per-session copy mirror: [(holder, hop slot), ...] per live copy.
        mirrors: List[List[Tuple[int, int]]] = [[] for _ in range(n_sessions)]

        if self._table is None:
            self._table = _TargetTable(sessions)
        table = self._table
        base = table.base
        max_node = table.max_node
        dropped: set = set()
        live: List[int] = []
        created: List[float] = []
        expires: List[float] = []
        for s in self._alive:
            session = sessions[s]
            if session.done:
                continue
            live.append(s)
            active[s] = True
            offset = int(base[s])
            mirror = [
                (holder_, offset + next_hop - 1)
                for holder_, next_hop in session.copy_states()
            ]
            mirrors[s] = mirror
            for holder_, _slot in mirror:
                if holder_ > max_node:
                    max_node = holder_
            created.append(session.created_at)
            expires.append(session.expires_at)
        if live:
            live_idx = np.asarray(live, dtype=np.int64)
            cursor[live_idx], expiry[live_idx] = _window_bounds_batch(
                block.times,
                np.asarray(created, dtype=np.float64),
                np.asarray(expires, dtype=np.float64),
            )

        index = _EventIndex(block, min_nodes=max_node + 1)
        times = index.times
        events_a = index.events_a
        events_b = index.events_b
        stats = self.stats

        dispatched = 0
        act = np.nonzero(active)[0]
        while act.size:
            self._note_round(int(act.size))
            # Flatten every active session's live copies. An active session
            # always has at least one live copy (all-terminated ⇒ done).
            c_row: List[int] = []  # position of the copy's session in act
            c_holder: List[int] = []
            c_slot: List[int] = []
            for row, s in enumerate(act.tolist()):
                for holder_, slot_ in mirrors[s]:
                    c_row.append(row)
                    c_holder.append(holder_)
                    c_slot.append(slot_)
            next_idx = self._race_round(
                index,
                table,
                np.asarray(c_row, dtype=np.int64),
                np.asarray(c_holder, dtype=np.int64),
                np.asarray(c_slot, dtype=np.int64),
                cursor[act],
                expiry[act],
            )

            finished = act[next_idx == n_events]
            active[finished] = False

            firing = next_idx < n_events
            started = perf_counter()
            for s, k in zip(act[firing].tolist(), next_idx[firing].tolist()):
                session = sessions[s]
                version = session.state_version
                try:
                    session.on_contact_scalar(
                        float(times[k]), int(events_a[k]), int(events_b[k])
                    )
                except Exception as error:
                    if on_session_error is None:
                        raise
                    on_session_error(session, error)
                    active[s] = False
                    dropped.add(s)
                    continue
                dispatched += 1
                stats["scalar_dispatches"] += 1
                if session.done:
                    active[s] = False
                    continue
                cursor[s] = k + 1
                if session.state_version != version:
                    offset = int(base[s])
                    mirrors[s] = [
                        (holder_, offset + next_hop - 1)
                        for holder_, next_hop in session.copy_states()
                    ]
            stats["dispatch_seconds"] += perf_counter() - started
            act = np.nonzero(active)[0]

        self._alive = [
            s
            for s in self._alive
            if s not in dropped and not sessions[s].done
        ]
        self._pending = len(self._alive)
        self._dispatches += dispatched
        return dispatched


#: Kernel classes in the order the engine tries them; the first whose
#: ``supports`` accepts a session sweeps it.
KERNEL_CLASSES = (BatchKernel, MultiCopyBatchKernel)


def kernel_class_for(session: ProtocolSession):
    """The kernel class that can sweep ``session``, or ``None``."""
    for kernel_cls in KERNEL_CLASSES:
        if kernel_cls.supports(session):
            return kernel_cls
    return None
