"""Pluggable compiled backends for the delivery kernels' inner loops.

The struct-of-arrays delivery kernels (:mod:`repro.sim.kernel`) spend
their time in two inner loops: the single-copy anycast-race trajectory
walk and the multi-copy flattened per-copy race. This module puts those
loops behind a small registry of interchangeable backends:

``numpy`` (default)
    Vectorized searchsorted/reduceat implementations. Always available.
``cc``
    The same loops as a small C translation unit, compiled on first use
    by the system C compiler into a content-addressed cached shared
    library and driven through :mod:`ctypes`. Zero extra Python
    dependencies; available wherever ``cc``/``gcc`` is on ``PATH``.
    Selecting it without a compiler degrades to numpy (with a fallback
    notification, see :func:`resolve_backend`).

Backends are *selected by name* — through the ``backend=`` knob threaded
from the CLI/figure runners down to the kernels, or ambiently through the
``REPRO_KERNEL_BACKEND`` environment variable — and resolved to process-
local singletons by :func:`resolve_backend`. Names (not backend objects)
cross process boundaries, so parallel workers re-resolve and inherit the
choice without pickling compiled state.

The security Monte Carlo (:mod:`repro.adversary.kernel`) scores on numpy
alone and never consults this registry.

Equivalence contract: every backend computes *exactly* the same integer
results from the same columns, and every kernel drives every backend
through the same control flow. The single-copy op walks each session's
**entire trajectory** (every state-changing event index up to delivery,
expiry, or the window edge) in one call — numpy advances all sessions
one hop per array round, cc runs the scalar loop — and the kernel
applies each trajectory through the session's batched
:meth:`~repro.core.single_copy.SingleCopySession.apply_transitions` hook,
which re-validates every contact against the session's own acceptance
predicate, so outcomes remain byte-identical by construction.

The kernels resolve their selection here and call every op through
:meth:`repro.sim.kernel._DeliveryKernel._op`, which times the call and
degrades a failing compiled op to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ENV_VAR",
    "BACKENDS",
    "KernelBackend",
    "NumpyBackend",
    "CcBackend",
    "available_backends",
    "check_backend_name",
    "resolve_backend",
]

logger = logging.getLogger(__name__)

#: Environment variable consulted when no explicit backend is requested.
ENV_VAR = "REPRO_KERNEL_BACKEND"


# ----------------------------------------------------------------------
# the inner loops, reference (numpy) implementations
# ----------------------------------------------------------------------


def _numpy_first_events(
    sorted_comp: np.ndarray,
    stride: int,
    n_nodes: int,
    n_events: int,
    q_holder: np.ndarray,
    q_target: np.ndarray,
    q_cursor: np.ndarray,
) -> np.ndarray:
    """First event index ≥ cursor on each queried ``(holder, target)`` pair.

    The composite-key search of :class:`repro.sim.kernel._EventIndex`,
    restated over raw arrays so every backend shares one signature.
    """
    q_lo = np.minimum(q_holder, q_target)
    q_hi = np.maximum(q_holder, q_target)
    pair_key = q_lo * n_nodes + q_hi
    q_comp = pair_key * stride + q_cursor
    comp_len = len(sorted_comp)
    pos = np.searchsorted(sorted_comp, q_comp, side="left")
    candidate = np.full(len(q_comp), n_events, dtype=np.int64)
    clipped = np.minimum(pos, comp_len - 1)
    found_comp = sorted_comp[clipped]
    in_pair = (pos < comp_len) & (found_comp // stride == pair_key)
    candidate[in_pair] = found_comp[in_pair] % stride
    return candidate


def _numpy_group_candidates(
    sorted_comp: np.ndarray,
    stride: int,
    n_nodes: int,
    n_events: int,
    starts: np.ndarray,
    stops: np.ndarray,
    targets: np.ndarray,
    slots: np.ndarray,
    q_holder: np.ndarray,
    q_cursor: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-event candidates of each query against its whole target group.

    Query ``i`` races holder ``q_holder[i]`` from cursor ``q_cursor[i]``
    against every member of group ``slots[i]`` (a ragged gather). Returns
    ``(candidate, group_starts)``: query ``i``'s candidates start at
    ``candidate[group_starts[i]]``, so ``np.minimum.reduceat`` over
    ``group_starts`` (or over any coarser set of query boundaries) takes
    the race winners.
    """
    counts = stops[slots] - starts[slots]
    total = int(counts.sum())
    group_ends = np.cumsum(counts)
    group_starts = group_ends - counts
    flat_idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(group_starts, counts)
        + np.repeat(starts[slots], counts)
    )
    candidate = _numpy_first_events(
        sorted_comp,
        stride,
        n_nodes,
        n_events,
        np.repeat(q_holder, counts),
        targets[flat_idx],
        np.repeat(q_cursor, counts),
    )
    return candidate, group_starts


# ----------------------------------------------------------------------
# the same loops as scalar C, compiled by the cc backend
# ----------------------------------------------------------------------


_C_SOURCE = r"""
#include <stdint.h>

static int64_t lower_bound(const int64_t *arr, int64_t n, int64_t val) {
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = (int64_t)(((uint64_t)lo + (uint64_t)hi) >> 1);
        if (arr[mid] < val) lo = mid + 1; else hi = mid;
    }
    return lo;
}

static int64_t pair_best(
    const int64_t *sorted_comp, int64_t comp_len,
    int64_t stride, int64_t n_nodes, int64_t n_events,
    const int64_t *targets, int64_t t0, int64_t t1,
    int64_t h, int64_t cur)
{
    int64_t best = n_events;
    for (int64_t j = t0; j < t1; j++) {
        int64_t t = targets[j];
        int64_t lo = h < t ? h : t;
        int64_t hi = h < t ? t : h;
        int64_t comp = (lo * n_nodes + hi) * stride + cur;
        int64_t pos = lower_bound(sorted_comp, comp_len, comp);
        if (pos < comp_len) {
            int64_t found = sorted_comp[pos];
            if (found / stride == lo * n_nodes + hi) {
                int64_t cand = found % stride;
                if (cand < best) best = cand;
            }
        }
    }
    return best;
}

void single_trajectories(
    const int64_t *sorted_comp, int64_t comp_len,
    int64_t stride, int64_t n_nodes, int64_t n_events,
    const int64_t *starts, const int64_t *stops, const int64_t *targets,
    const int64_t *ev_a, const int64_t *ev_b,
    const int64_t *act, int64_t n_act,
    const int64_t *holder, const int64_t *hop_slot, const int64_t *last_slot,
    const int64_t *cursor, const int64_t *expiry,
    int64_t cap, int64_t *traj, int64_t *lens, int64_t *dones)
{
    for (int64_t i = 0; i < n_act; i++) {
        int64_t s = act[i];
        int64_t h = holder[s], slot = hop_slot[s], cur = cursor[s];
        int64_t e = expiry[s], last = last_slot[s];
        int64_t m = 0, done = 0;
        for (;;) {
            int64_t best = pair_best(sorted_comp, comp_len, stride, n_nodes,
                                     n_events, targets, starts[slot],
                                     stops[slot], h, cur);
            int64_t fire = best < e ? best : e;
            if (fire >= n_events) { done = 0; break; }
            traj[i * cap + m] = fire; m++;
            if (best >= e || slot == last) { done = 1; break; }
            h = ev_a[fire] + ev_b[fire] - h;
            slot += 1;
            cur = fire + 1;
        }
        lens[i] = m; dones[i] = done;
    }
}

void multi_next_events(
    const int64_t *sorted_comp, int64_t comp_len,
    int64_t stride, int64_t n_nodes, int64_t n_events,
    const int64_t *starts, const int64_t *stops, const int64_t *targets,
    const int64_t *rows, const int64_t *c_holder, const int64_t *c_slot,
    int64_t n_copies,
    const int64_t *act_cursor, const int64_t *act_expiry, int64_t n_act,
    int64_t *next_idx)
{
    for (int64_t i = 0; i < n_act; i++) next_idx[i] = n_events;
    for (int64_t j = 0; j < n_copies; j++) {
        int64_t row = rows[j];
        int64_t best = pair_best(sorted_comp, comp_len, stride, n_nodes,
                                 n_events, targets, starts[c_slot[j]],
                                 stops[c_slot[j]], c_holder[j],
                                 act_cursor[row]);
        if (best < next_idx[row]) next_idx[row] = best;
    }
    for (int64_t i = 0; i < n_act; i++)
        if (act_expiry[i] < next_idx[i]) next_idx[i] = act_expiry[i];
}

"""


def _i64(array: np.ndarray) -> np.ndarray:
    """``array`` as a C-contiguous int64 view (no copy when already one)."""
    return np.ascontiguousarray(array, dtype=np.int64)


def _trajectory_cap(
    act: np.ndarray, hop_slot: np.ndarray, last_slot: np.ndarray
) -> int:
    """Upper bound on any active session's remaining trajectory length.

    A session at hop slot ``h`` with last slot ``l`` can forward at most
    ``l - h + 1`` times (the last one delivers) or forward fewer times and
    then expire — one extra event covers the expiry case.
    """
    if len(act) == 0:
        return 1
    return int((last_slot[act] - hop_slot[act]).max()) + 2


# ----------------------------------------------------------------------
# backend classes
# ----------------------------------------------------------------------


class KernelBackend:
    """Base class: the op surface every backend implements.

    Every backend implements every op, and the kernels drive them all
    through one control flow. ``compiled`` only labels the backend in
    the CLI's ``backends`` listing.
    """

    name = "?"
    compiled = False

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can be instantiated in this process."""
        return True

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        """Human-readable reason :meth:`available` is False, else None."""
        return None

    def warmup(self) -> None:
        """Force any lazy compilation now (warm-up for benchmarks)."""

    # -- ops -----------------------------------------------------------

    def single_trajectories(
        self,
        sorted_comp: np.ndarray,
        stride: int,
        n_nodes: int,
        n_events: int,
        starts: np.ndarray,
        stops: np.ndarray,
        targets: np.ndarray,
        ev_a: np.ndarray,
        ev_b: np.ndarray,
        act: np.ndarray,
        holder: np.ndarray,
        hop_slot: np.ndarray,
        last_slot: np.ndarray,
        cursor: np.ndarray,
        expiry: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # pragma: no cover
        """Every state-changing event index per active session, in one
        call: ``(traj, lens, dones)`` where ``traj[i, :lens[i]]`` are the
        firing event indices of ``act[i]`` and ``dones[i]`` says whether
        the last of them completes the session (delivery or expiry) or
        the session stays pending at the window edge."""
        raise NotImplementedError

    def multi_next_events(
        self,
        sorted_comp: np.ndarray,
        stride: int,
        n_nodes: int,
        n_events: int,
        starts: np.ndarray,
        stops: np.ndarray,
        targets: np.ndarray,
        rows: np.ndarray,
        c_holder: np.ndarray,
        c_slot: np.ndarray,
        act_cursor: np.ndarray,
        act_expiry: np.ndarray,
    ) -> np.ndarray:  # pragma: no cover - interface
        """One multi-copy race round over the flattened live copies: the
        next firing event per active session."""
        raise NotImplementedError



class NumpyBackend(KernelBackend):
    """The always-available vectorized reference implementation."""

    name = "numpy"
    compiled = False

    def single_trajectories(
        self,
        sorted_comp,
        stride,
        n_nodes,
        n_events,
        starts,
        stops,
        targets,
        ev_a,
        ev_b,
        act,
        holder,
        hop_slot,
        last_slot,
        cursor,
        expiry,
    ):
        n_act = len(act)
        cap = _trajectory_cap(act, hop_slot, last_slot)
        traj = np.zeros((n_act, cap), dtype=np.int64)
        lens = np.zeros(n_act, dtype=np.int64)
        dones = np.zeros(n_act, dtype=np.int64)
        # One array round per hop: every session still walking advances
        # by one state change, so all of them write trajectory column m.
        rows = np.arange(n_act, dtype=np.int64)
        h, slot, cur = holder[act], hop_slot[act], cursor[act]
        end, last = expiry[act], last_slot[act]
        m = 0
        while rows.size:
            candidate, group_starts = _numpy_group_candidates(
                sorted_comp, stride, n_nodes, n_events,
                starts, stops, targets, slot, h, cur,
            )
            # The anycast race: first meeting with any group member wins,
            # unless the TTL runs out first.
            best = np.minimum.reduceat(candidate, group_starts)
            fire = np.minimum(best, end)
            # No state-changing event left in the window: pending.
            fired = fire < n_events
            traj[rows[fired], m] = fire[fired]
            lens[rows[fired]] += 1
            m += 1
            stop = fired & ((best >= end) | (slot == last))
            dones[rows[stop]] = 1
            keep = fired & ~stop
            rows, fire = rows[keep], fire[keep]
            h = ev_a[fire] + ev_b[fire] - h[keep]
            slot, end, last = slot[keep] + 1, end[keep], last[keep]
            cur = fire + 1
        return traj, lens, dones

    def multi_next_events(
        self,
        sorted_comp,
        stride,
        n_nodes,
        n_events,
        starts,
        stops,
        targets,
        rows,
        c_holder,
        c_slot,
        act_cursor,
        act_expiry,
    ):
        candidate, group_starts = _numpy_group_candidates(
            sorted_comp, stride, n_nodes, n_events,
            starts, stops, targets, c_slot, c_holder, act_cursor[rows],
        )
        # Per-session race across *all* copies: reduce at the first
        # flattened member of each session's first copy. ``rows`` is
        # sorted (copies are appended in act order), so the session
        # boundaries are where a new row value first appears.
        session_first_copy = np.searchsorted(
            rows, np.arange(len(act_expiry), dtype=np.int64), side="left"
        )
        session_starts = group_starts[session_first_copy]
        fire = np.minimum.reduceat(candidate, session_starts)
        return np.minimum(fire, act_expiry)



class CcBackend(KernelBackend):
    """The scalar loops compiled by the system C compiler via ctypes.

    The embedded translation unit is compiled once per source revision
    into ``$REPRO_CC_CACHE`` (default: a ``repro-cc-cache`` directory
    under the system temp dir), keyed by a source hash, and loaded with
    explicit ``argtypes`` so int64 scalars and pointers cross the FFI
    boundary intact. No Python dependency beyond the standard library.
    """

    name = "cc"
    compiled = True
    _lib = None

    @classmethod
    def _compiler(cls) -> Optional[str]:
        return shutil.which("cc") or shutil.which("gcc")

    @classmethod
    def available(cls) -> bool:
        return cls._lib is not None or cls._compiler() is not None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        if cls.available():
            return None
        return "no C compiler (cc/gcc) on PATH"

    @classmethod
    def _load_library(cls):
        if cls._lib is not None:
            return cls._lib
        compiler = cls._compiler()
        if compiler is None:
            raise RuntimeError(cls.unavailable_reason())
        digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
        cache_dir = os.environ.get("REPRO_CC_CACHE") or os.path.join(
            tempfile.gettempdir(), "repro-cc-cache"
        )
        os.makedirs(cache_dir, exist_ok=True)
        so_path = os.path.join(cache_dir, f"repro_kernels_{digest}.so")
        if not os.path.exists(so_path):
            # Build in a scratch dir on the same filesystem, then publish
            # atomically so concurrent processes never load a half-written
            # library.
            with tempfile.TemporaryDirectory(dir=cache_dir) as build_dir:
                src = os.path.join(build_dir, "kernels.c")
                with open(src, "w", encoding="utf-8") as handle:
                    handle.write(_C_SOURCE)
                built = os.path.join(build_dir, "kernels.so")
                subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC", "-o", built, src],
                    check=True,
                    capture_output=True,
                )
                os.replace(built, so_path)
        lib = ctypes.CDLL(so_path)
        P = ctypes.POINTER(ctypes.c_int64)
        I = ctypes.c_int64
        lib.single_trajectories.argtypes = [
            P, I, I, I, I, P, P, P, P, P, P, I, P, P, P, P, P, I, P, P, P,
        ]
        lib.single_trajectories.restype = None
        lib.multi_next_events.argtypes = [
            P, I, I, I, I, P, P, P, P, P, P, I, P, P, I, P,
        ]
        lib.multi_next_events.restype = None
        cls._lib = lib
        return lib

    def __init__(self):
        self._clib = self._load_library()
        self._ptr = lambda a: a.ctypes.data_as(
            ctypes.POINTER(ctypes.c_int64)
        )

    def warmup(self) -> None:
        _warmup_compiled(self)

    def single_trajectories(
        self,
        sorted_comp,
        stride,
        n_nodes,
        n_events,
        starts,
        stops,
        targets,
        ev_a,
        ev_b,
        act,
        holder,
        hop_slot,
        last_slot,
        cursor,
        expiry,
    ):
        ptr = self._ptr
        n_act = len(act)
        cap = _trajectory_cap(act, hop_slot, last_slot)
        traj = np.zeros((n_act, cap), dtype=np.int64)
        lens = np.empty(n_act, dtype=np.int64)
        dones = np.empty(n_act, dtype=np.int64)
        sorted_comp = _i64(sorted_comp)
        starts, stops, targets = _i64(starts), _i64(stops), _i64(targets)
        ev_a, ev_b, act = _i64(ev_a), _i64(ev_b), _i64(act)
        holder, hop_slot = _i64(holder), _i64(hop_slot)
        last_slot, cursor, expiry = _i64(last_slot), _i64(cursor), _i64(expiry)
        self._clib.single_trajectories(
            ptr(sorted_comp), len(sorted_comp),
            stride, n_nodes, n_events,
            ptr(starts), ptr(stops), ptr(targets),
            ptr(ev_a), ptr(ev_b),
            ptr(act), n_act,
            ptr(holder), ptr(hop_slot), ptr(last_slot),
            ptr(cursor), ptr(expiry),
            cap, ptr(traj), ptr(lens), ptr(dones),
        )
        return traj, lens, dones

    def multi_next_events(
        self,
        sorted_comp,
        stride,
        n_nodes,
        n_events,
        starts,
        stops,
        targets,
        rows,
        c_holder,
        c_slot,
        act_cursor,
        act_expiry,
    ):
        ptr = self._ptr
        next_idx = np.empty(len(act_expiry), dtype=np.int64)
        sorted_comp = _i64(sorted_comp)
        starts, stops, targets = _i64(starts), _i64(stops), _i64(targets)
        rows, c_holder, c_slot = _i64(rows), _i64(c_holder), _i64(c_slot)
        act_cursor, act_expiry = _i64(act_cursor), _i64(act_expiry)
        self._clib.multi_next_events(
            ptr(sorted_comp), len(sorted_comp),
            stride, n_nodes, n_events,
            ptr(starts), ptr(stops), ptr(targets),
            ptr(rows), ptr(c_holder), ptr(c_slot), len(rows),
            ptr(act_cursor), ptr(act_expiry), len(act_expiry),
            ptr(next_idx),
        )
        return next_idx



def _warmup_compiled(backend: KernelBackend) -> None:
    """Run every compiled op once on a one-event toy problem.

    Verifies the C library loads and calls cleanly, so steady-state
    timings exclude one-time costs.
    """
    # One event (0, 1) at index 0; one session holding node 0, targeting
    # node 1 at its only hop.
    sorted_comp = np.array([1 * 2 + 0], dtype=np.int64)  # key=(0,1), idx 0
    one = np.zeros(1, dtype=np.int64)
    backend.single_trajectories(
        sorted_comp,
        2,  # stride = n_events + 1
        2,  # n_nodes
        1,  # n_events
        one,  # starts
        np.ones(1, dtype=np.int64),  # stops
        np.ones(1, dtype=np.int64),  # targets
        one,  # ev_a
        np.ones(1, dtype=np.int64),  # ev_b
        one,  # act
        one,  # holder
        one,  # hop_slot
        one,  # last_slot
        one,  # cursor
        np.ones(1, dtype=np.int64),  # expiry
    )
    backend.multi_next_events(
        sorted_comp,
        2,
        2,
        1,
        one,
        np.ones(1, dtype=np.int64),
        np.ones(1, dtype=np.int64),
        one,  # rows
        one,  # c_holder
        one,  # c_slot
        one,  # act_cursor
        np.ones(1, dtype=np.int64),  # act_expiry
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


#: Name → backend class, in documentation order.
BACKENDS: Dict[str, type] = {
    "numpy": NumpyBackend,
    "cc": CcBackend,
}

_instances: Dict[str, KernelBackend] = {}


def _instantiate(name: str) -> KernelBackend:
    backend = _instances.get(name)
    if backend is None:
        backend = BACKENDS[name]()
        _instances[name] = backend
    return backend


def _reset_backend_caches() -> None:
    """Drop backend singletons (test hook: re-probe availability)."""
    _instances.clear()
    CcBackend._lib = None


def available_backends() -> Tuple[str, ...]:
    """Names of the backends usable in this process, registry order."""
    return tuple(
        name for name, cls in BACKENDS.items() if cls.available()
    )


def check_backend_name(backend) -> None:
    """Validate a ``backend=`` argument early (engine/CLI entry points).

    Accepts a registered name, a :class:`KernelBackend` instance, or
    None; raises :class:`ValueError` for anything else so typos fail at
    configuration time instead of mid-run.
    """
    if backend is None or isinstance(backend, KernelBackend):
        return
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; "
            f"known backends: {', '.join(BACKENDS)}"
        )


def resolve_backend(
    backend=None,
    on_fallback: Optional[Callable[[str, Exception], None]] = None,
) -> KernelBackend:
    """Resolve a backend request to a usable backend instance.

    Selection order: the explicit ``backend`` argument (a registered name
    or an already-resolved :class:`KernelBackend` instance), then the
    ``REPRO_KERNEL_BACKEND`` environment variable, then ``"numpy"``.

    Unknown names raise :class:`ValueError` (a typo should fail loudly).
    A *known but unavailable* backend — no C compiler, a failed
    compile — degrades to numpy: ``on_fallback``
    (requested name, error) is invoked when given so callers can record a
    :class:`~repro.utils.resilience.ResilienceEvent`; otherwise a warning
    is logged. Instances are process-local singletons, so repeated
    resolution never recompiles.
    """
    if isinstance(backend, KernelBackend):
        return backend
    name = backend
    if name is None:
        name = os.environ.get(ENV_VAR) or "numpy"
    check_backend_name(name)
    if name != "numpy":
        try:
            cls = BACKENDS[name]
            if not cls.available():
                raise RuntimeError(
                    cls.unavailable_reason()
                    or f"kernel backend {name!r} is unavailable"
                )
            return _instantiate(name)
        except Exception as error:
            if on_fallback is not None:
                on_fallback(name, error)
            else:
                logger.warning(
                    "kernel backend %r unavailable (%s); degrading to numpy",
                    name,
                    error,
                )
    return _instantiate("numpy")
