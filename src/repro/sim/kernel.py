"""Vectorized struct-of-arrays batch kernels for Monte Carlo sweeps.

The paper's delivery-rate sweeps simulate thousands of *homogeneous,
fault-free* protocol sessions whose entire live state is a handful of
integers. Driving each of them through one Python method call per relevant
event — even the engine object loop's allocation-free scalar hook — leaves
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
state-changing events with backend searches and dispatch **only them**
through the session's own hooks
(:meth:`~repro.sim.protocol.ProtocolSession.on_contact_scalar`, or its
batched single-copy counterpart
:meth:`~repro.core.single_copy.SingleCopySession.apply_transitions`). The
outcome objects (paths, hop timestamps, transfers, status) are therefore
built by the session's own transition code, as in the engine's object
loop — byte-identity with it is structural, not re-implemented.

Two kernels share the composite-index machinery (:class:`_EventIndex`):

* :class:`BatchKernel` — fault-free, keyring-free
  :class:`~repro.core.single_copy.SingleCopySession`. One copy, one holder
  per session, so a session's future is one chain of races: one backend
  call walks every session's whole trajectory through the window.
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
``REPRO_KERNEL_BACKEND``/numpy default), and every backend runs the same
control flow. The single-copy kernel makes one ``single_trajectories``
call per window: it returns every session's *entire* trajectory of
state-changing event indices, which the kernel applies through
:meth:`~repro.core.single_copy.SingleCopySession.apply_transitions` — one
batched session call per trajectory instead of one Python dispatch per
hop, with the session's own acceptance predicate re-checking every
applied contact (a mispredicted race raises instead of corrupting
state). The multi-copy kernel keeps its round structure (ticket
hand-offs depend on session-side spray arithmetic) and makes one
``multi_next_events`` call per round.

Both kernels derive from one private base, :class:`_DeliveryKernel`,
which owns everything around their sweeps: the eligibility check,
backend resolution, the live-session bookkeeping, the per-window
cursor/expiry bounds, the ``stats`` counters and the one op seam,
:meth:`_DeliveryKernel._op`. A compiled op that raises degrades to
numpy *before* any state is touched (ops are pure), the degradation is
recorded on :attr:`backend_fallbacks`, and the sweep continues
byte-identically.

Each kernel keeps a ``stats`` dict for the profiling harness: backend
name, ``rounds`` (backend op calls: one per window for the single-copy
kernel, one per race round for the multi-copy kernel),
``scalar_dispatches``, ``backend_seconds`` (time in backend ops),
``dispatch_seconds`` (time replaying events through sessions), and the
active-set peak/total over those rounds.
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
from repro.utils.resilience import KERNEL_FALLBACK, ResilienceEvent

__all__ = ["BatchKernel", "MultiCopyBatchKernel", "KERNEL_CLASSES", "kernel_class_for"]

logger = logging.getLogger(__name__)


class _EventIndex:
    """Composite ``(pair key, event index)`` ordering of one block.

    Within one unordered node pair the stable argsort keeps chronological
    order, so "first event of pair P at index >= c" is a single
    :func:`numpy.searchsorted` against ``key * stride + index``. Both
    kernels hand this structure to the backend ops; ``min_nodes`` widens
    the key space to cover session nodes absent from the block.
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


class _DeliveryKernel:
    """Everything the two delivery kernels do the same way around a sweep.

    A subclass supplies ``mode``, ``supports``, the ``_accepts`` phrase of
    its eligibility error, and its own ``run``: a per-session state
    gather between :meth:`_open_window` and :meth:`_close_window`, with
    its sweep in between. Backend ops are called only through
    :meth:`_op`, so one method times them and one degrades a failing
    compiled op to numpy.
    """

    def __init__(self, sessions: Sequence[ProtocolSession], backend=None):
        ineligible = [type(s).__name__ for s in sessions if not self.supports(s)]
        if ineligible:
            raise ValueError(
                f"{type(self).__name__} only accepts {self._accepts}; "
                f"got {ineligible[:3]}"
            )
        self._sessions = list(sessions)
        self._dispatches = 0
        self._table: _TargetTable | None = None
        self._alive: List[int] = [
            s for s, session in enumerate(self._sessions) if not session.done
        ]
        self._pending = len(self._alive)
        self._backend_fallbacks: List[str] = []
        self._backend = resolve_backend(
            backend,
            on_fallback=lambda name, error: self._note_fallback(
                f"requested kernel backend {name!r} unavailable; degraded "
                f"to numpy: {type(error).__name__}: {error}"
            ),
        )
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
    def sessions(self) -> Sequence[ProtocolSession]:
        """The sessions this kernel advances."""
        return tuple(self._sessions)

    @property
    def dispatches(self) -> int:
        """State-changing events dispatched so far (forwards, sprays,
        relays, deliveries and expiries, plus the multi-copy kernel's
        rare overlapping-group no-ops)."""
        return self._dispatches

    @property
    def pending(self) -> int:
        """Sessions neither done nor dropped by ``on_session_error``.

        Streaming callers poll this between windows; the count is
        maintained incrementally (O(1) here), so the per-window
        early-exit check never rescans the session list.
        """
        return self._pending

    @property
    def backend(self) -> str:
        """Name of the backend currently running the kernel's ops."""
        return self._backend.name

    @property
    def backend_fallbacks(self) -> Tuple[str, ...]:
        """Backend degradations taken so far (usually empty).

        A resolve-time miss (requested backend unavailable) or an op
        failure recomputed on numpy. A degradation never changes
        outcomes, only wall time: backend ops are pure, so the numpy
        recomputation sees identical inputs.
        """
        return tuple(self._backend_fallbacks)

    @property
    def fallback_events(self) -> Tuple[ResilienceEvent, ...]:
        """:attr:`backend_fallbacks` as
        :data:`~repro.utils.resilience.KERNEL_FALLBACK` resilience events."""
        return tuple(
            ResilienceEvent(
                kind=KERNEL_FALLBACK,
                where=type(self).__name__,
                detail=note,
                resolution="degraded",
            )
            for note in self._backend_fallbacks
        )

    def _note_fallback(self, note: str) -> None:
        self._backend_fallbacks.append(note)
        logger.warning("%s — %s", type(self).__name__, note)

    def _op(self, name: str, *args):
        """Call backend op ``name``, timed into ``stats["backend_seconds"]``.

        A failing numpy op re-raises. A failing compiled op is noted,
        the kernel switches to numpy, and the op is retried once there.
        """
        started = perf_counter()
        try:
            return getattr(self._backend, name)(*args)
        except Exception as error:
            if self._backend.name == "numpy":
                raise
            self._note_fallback(
                f"{name} failed on backend {self._backend.name!r}; "
                f"recomputed with numpy: {type(error).__name__}: {error}"
            )
            self._backend = resolve_backend("numpy")
            self.stats["backend"] = self._backend.name
            return getattr(self._backend, name)(*args)
        finally:
            self.stats["backend_seconds"] += perf_counter() - started

    def _count_round(self, n_active: int) -> None:
        stats = self.stats
        stats["rounds"] += 1
        stats["active_total"] += n_active
        if n_active > stats["active_peak"]:
            stats["active_peak"] = n_active

    def _open_window(
        self, block: EventBlock
    ) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """``(live, cursor, expiry)`` for one window.

        ``live`` lists the sessions not yet done; ``cursor`` and
        ``expiry`` are per-session event indices, set at ``live``. Events
        before creation are no-ops, and expiry fires at the first event
        strictly past the deadline (``on_contact_scalar``'s
        ``time < created_at`` / ``time > expires_at`` branches). The
        target table is built on the first call.
        """
        sessions = self._sessions
        if self._table is None:
            self._table = _TargetTable(sessions)
        live: List[int] = []
        created: List[float] = []
        expires: List[float] = []
        for s in self._alive:
            session = sessions[s]
            if session.done:
                continue
            live.append(s)
            created.append(session.created_at)
            expires.append(session.expires_at)
        live_idx = np.asarray(live, dtype=np.int64)
        cursor = np.empty(len(sessions), dtype=np.int64)
        cursor[live_idx] = np.searchsorted(
            block.times, np.asarray(created, dtype=np.float64), side="left"
        )
        expiry = np.empty(len(sessions), dtype=np.int64)
        expiry[live_idx] = np.searchsorted(
            block.times, np.asarray(expires, dtype=np.float64), side="right"
        )
        return live, cursor, expiry

    def _close_window(self, live: List[int], dropped: set, dispatched: int) -> int:
        """Forget finished and dropped sessions; count ``dispatched``."""
        sessions = self._sessions
        self._alive = [
            s for s in live if s not in dropped and not sessions[s].done
        ]
        self._pending = len(self._alive)
        self._dispatches += dispatched
        return dispatched


class BatchKernel(_DeliveryKernel):
    """Simulate a batch of eligible single-copy sessions over one block.

    Eligibility (:meth:`supports`) is deliberately narrow: exactly
    :class:`~repro.core.single_copy.SingleCopySession` (no subclasses),
    fault-free, without custody recovery, and without an onion-crypto
    payload. Those sessions never draw randomness at dispatch time and
    never interact with each other, which is what makes the per-hop race
    a pure array search. Faulted, recovering, or keyring-carrying sessions
    must go through the engine's object loop;
    :class:`~repro.sim.engine.SimulationEngine` performs that split
    transparently whenever ``kernel=True`` and the events arrive as blocks.
    """

    mode = "kernel-single"
    _accepts = (
        "fault-free, recovery-free, keyring-free SingleCopySession instances"
    )

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

    def run(self, block: EventBlock, on_session_error=None) -> int:
        """Advance every session across ``block``; returns the dispatch count.

        The block must be chronological (every producer guarantees it).
        After the call each session is in exactly the state the engine's
        object loop would have left it in: delivered/expired sessions are
        ``done`` with identical outcomes, the rest are ``pending`` with
        their holder parked wherever the window left it.

        ``on_session_error(session, error)``, when given, receives any
        exception a session raises while its trajectory is applied
        (except the divergence guard's ``RuntimeError``); the session is
        dropped from the sweep and the rest continue (eligible sessions
        never interact, so the others are unaffected — the same containment
        the engine's quarantine gives the object loop). Without the
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
        if not sessions or len(block) == 0:
            return 0
        live, cursor, expiry = self._open_window(block)
        table = self._table
        act = np.asarray(live, dtype=np.int64)
        holders = [sessions[s].holder for s in live]
        holder = np.empty(len(sessions), dtype=np.int64)
        holder[act] = holders
        hop_slot = np.empty(len(sessions), dtype=np.int64)
        hop_slot[act] = table.base[act] + np.asarray(
            [sessions[s].next_hop for s in live], dtype=np.int64
        ) - 1
        index = _EventIndex(block, min_nodes=max([table.max_node, *holders]) + 1)

        dropped: set = set()
        dispatched = 0
        if act.size:
            dispatched = self._sweep(
                index, act, holder, hop_slot, cursor, expiry,
                dropped, on_session_error,
            )
        return self._close_window(live, dropped, dispatched)

    def _sweep(
        self, index, act, holder, hop_slot, cursor, expiry,
        dropped, on_session_error,
    ) -> int:
        """Whole-trajectory sweep of the active sessions ``act``.

        One backend call computes every active session's full sequence of
        state-changing event indices; the loop below applies each
        trajectory through
        :meth:`~repro.core.single_copy.SingleCopySession.apply_transitions`
        — the batched counterpart of ``on_contact_scalar`` that performs
        the same transitions in the same order but costs one Python call
        per *session* instead of one per *hop*. The session re-validates
        every applied contact against its own acceptance predicate, so any
        divergence between the backend's race and the session's transition
        model raises instead of silently corrupting outcomes.
        """
        sessions = self._sessions
        table = self._table
        stats = self.stats
        traj, lens, dones = self._op(
            "single_trajectories",
            index.sorted_comp,
            index.stride,
            index.n_nodes,
            index.n_events,
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
        self._count_round(int(act.size))

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
                    f"BatchKernel [{self._backend.name}] dispatched a "
                    "state-changing event the session did not accept; the "
                    "session state diverged from the kernel's race model"
                )
        stats["dispatch_seconds"] += perf_counter() - started
        return dispatched


class MultiCopyBatchKernel(_DeliveryKernel):
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
    engine's object loop does with such contacts.
    """

    mode = "kernel-multicopy"
    _accepts = "fault-free, recovery-free MultiCopySession instances"

    @staticmethod
    def supports(session: ProtocolSession) -> bool:
        """Whether ``session`` can be swept by the multi-copy kernel."""
        return (
            type(session) is MultiCopySession
            and session.faults is None
            and session.recovery is None
        )

    def _mirror(self, s: int) -> List[Tuple[int, int]]:
        """Session ``s``'s live copies as ``(holder, hop slot)`` pairs."""
        offset = int(self._table.base[s])
        return [
            (holder, offset + next_hop - 1)
            for holder, next_hop in self._sessions[s].copy_states()
        ]

    def run(self, block: EventBlock, on_session_error=None) -> int:
        """Advance every session across ``block``; returns the dispatch count.

        Same contract as :meth:`BatchKernel.run`, including the
        ``on_session_error`` containment: after the call every surviving
        session is byte-identical to what the engine's object loop would
        have produced over the same block, and repeated calls over a
        chronologically split stream compose exactly like
        :meth:`BatchKernel.run` does.
        """
        sessions = self._sessions
        n_events = len(block)
        if not sessions or n_events == 0:
            return 0
        live, cursor, expiry = self._open_window(block)
        mirrors = {s: self._mirror(s) for s in live}
        max_node = max(
            [self._table.max_node]
            + [holder for mirror in mirrors.values() for holder, _ in mirror]
        )
        index = _EventIndex(block, min_nodes=max_node + 1)
        table = self._table
        times = index.times
        events_a = index.events_a
        events_b = index.events_b
        stats = self.stats

        active = np.zeros(len(sessions), dtype=bool)
        active[np.asarray(live, dtype=np.int64)] = True
        dropped: set = set()
        dispatched = 0
        act = np.nonzero(active)[0]
        while act.size:
            self._count_round(int(act.size))
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
            next_idx = self._op(
                "multi_next_events",
                index.sorted_comp,
                index.stride,
                index.n_nodes,
                n_events,
                table.start,
                table.stop,
                table.targets,
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
                    mirrors[s] = self._mirror(s)
            stats["dispatch_seconds"] += perf_counter() - started
            act = np.nonzero(active)[0]

        return self._close_window(live, dropped, dispatched)


#: Kernel classes in the order the engine tries them; the first whose
#: ``supports`` accepts a session sweeps it.
KERNEL_CLASSES = (BatchKernel, MultiCopyBatchKernel)


def kernel_class_for(session: ProtocolSession):
    """The kernel class that can sweep ``session``, or ``None``."""
    for kernel_cls in KERNEL_CLASSES:
        if kernel_cls.supports(session):
            return kernel_cls
    return None
