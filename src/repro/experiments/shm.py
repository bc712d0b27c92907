"""Zero-copy shared-memory transport for columnar blocks.

The parallel layer ships immutable struct-of-arrays blocks —
:class:`~repro.contacts.events.EventBlock` contact windows and
:class:`~repro.adversary.kernel.SecurityTrialBlock` Monte Carlo samples —
to worker processes. Pickling them into every task would copy every
column once per task: a trial block is scored by one task per chunk (32
by default), and a contact window of up to a million events goes to one
task per pool process and again to every retried task, each a full copy
of data that never changes.

:class:`SharedBlockArena` instead registers each block's numpy columns
once in a :mod:`multiprocessing.shared_memory` segment and hands out a
tiny :class:`BlockDescriptor` — ``(shm_name, kind, meta, columns)`` where
each column is ``(name, dtype, shape, offset)``. Workers call
:func:`attach_block` to map the segment and rebuild the block as
read-only views over shared pages: no copy, no deserialisation.

Lifecycle rules (see ARCHITECTURE.md "Memory & parallelism"):

* a segment lives for one parallel call: the call that registers a block
  releases it (:meth:`SharedBlockArena.release`) when it returns, on
  normal completion, on error and on ``KeyboardInterrupt`` alike. The
  *owner* process (the one that called ``register``) is solely
  responsible for unlinking; every arena belongs to a
  :class:`~repro.experiments.parallel.WorkerPool`, whose ``close()``
  unlinks whatever is left;
* a worker's mapping lives for one task: every chunk function that
  attaches calls :func:`detach_attached` when it ends, so no worker keeps
  a mapping, or a cache entry per segment name, from one call to the
  next;
* workers never own a segment's :mod:`multiprocessing.resource_tracker`
  entry — they attach with ``track=False``, or on older Pythons leave the
  owner's shared tracker alone and unregister from a tracker of their
  own — so a SIGKILLed worker cannot trick a tracker into unlinking a
  segment other workers still read, and the owner's ``unlink()`` finds
  its registration intact;
* ``unlink()`` is idempotent and a :func:`weakref.finalize` backstop
  releases segments if an arena is dropped without an explicit unlink.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.contacts.events import EventBlock

__all__ = [
    "ARENA_PREFIX",
    "BlockDescriptor",
    "ColumnSpec",
    "SharedBlockArena",
    "attach_block",
    "detach_attached",
    "leaked_arena_segments",
]

#: Segment names start with this so leak checks (tests, the chaos
#: harness) can enumerate stray arenas under ``/dev/shm``.
ARENA_PREFIX = "reproarena"

#: Column payloads are aligned so every view starts on a cache line.
_ALIGN = 64


class ColumnSpec(NamedTuple):
    """Where one numpy column lives inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


class BlockDescriptor(NamedTuple):
    """Everything a worker needs to rebuild a block zero-copy.

    Picklable and tiny (a few hundred bytes) — this is what travels
    through the task pickle instead of the block's columns.
    """

    shm_name: str
    kind: str
    meta: Tuple
    columns: Tuple[ColumnSpec, ...]
    nbytes: int


# ---------------------------------------------------------------------------
# Block kinds: how to take a block apart and put it back together.

def _event_spec(block: EventBlock):
    return (), (("times", block.times), ("a", block.a), ("b", block.b))


def _build_event(arrays: Dict[str, np.ndarray], meta: Tuple) -> EventBlock:
    return EventBlock(times=arrays["times"], a=arrays["a"], b=arrays["b"])


def _security_spec(block):
    meta = (int(block.n), int(block.group_size), bool(block.overlapping))
    columns = (
        ("sources", block.sources),
        ("destinations", block.destinations),
        ("copy_members", block.copy_members),
        ("compromise_keys", block.compromise_keys),
    )
    return meta, columns


def _build_security(arrays: Dict[str, np.ndarray], meta: Tuple):
    from repro.adversary.kernel import SecurityTrialBlock

    n, group_size, overlapping = meta
    return SecurityTrialBlock(
        n=n,
        group_size=group_size,
        sources=arrays["sources"],
        destinations=arrays["destinations"],
        copy_members=arrays["copy_members"],
        compromise_keys=arrays["compromise_keys"],
        overlapping=overlapping,
    )


_BUILDERS = {"event": _build_event, "security": _build_security}


def _spec_for(block):
    if isinstance(block, EventBlock):
        return ("event",) + _event_spec(block)
    from repro.adversary.kernel import SecurityTrialBlock

    if isinstance(block, SecurityTrialBlock):
        return ("security",) + _security_spec(block)
    raise TypeError(
        "shared arenas hold EventBlock or SecurityTrialBlock instances, "
        f"not {type(block).__name__}"
    )


# ---------------------------------------------------------------------------
# Process-wide registries.
#
# _OWNED maps segment name -> the original block in the *owner* process:
# when a chunk runs inline (degraded pool, workers=1 layouts, 1-CPU
# hosts), attach_block short-circuits to the exact object that was
# registered instead of mapping the segment a second time. A forked
# worker is never an owner, so it starts with an empty map.
#
# _ATTACHED holds (shm, block) per segment name in *worker* processes
# for the rest of the running task; detach_attached closes them.

_OWNED: Dict[str, object] = {}
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, object]] = {}

# _TRACKER_SHARED is (pid, shared) for the process that decided it; see
# _tracker_shared.
_TRACKER_SHARED: Optional[Tuple[int, bool]] = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _create_segment(size: int) -> shared_memory.SharedMemory:
    for _ in range(8):
        name = f"{ARENA_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - 2^32 collision
            continue
    raise RuntimeError("could not allocate a unique shared-memory segment name")


def _tracker_shared() -> bool:
    """Whether this process shares its resource tracker with its parent.

    Decided once per process, before its first registration: right after
    a fork, or on the first attach in a spawned (tracker handed over at
    start) or top-level process. Asking again later would be wrong — the
    first attach of a worker forked before the owner's tracker started
    launches a private tracker, after which ``_fd`` is set although that
    tracker is not the owner's.
    """
    global _TRACKER_SHARED
    pid = os.getpid()
    if _TRACKER_SHARED is None or _TRACKER_SHARED[0] != pid:
        _TRACKER_SHARED = (pid, resource_tracker._resource_tracker._fd is not None)
    return _TRACKER_SHARED[1]


def _after_fork_in_child() -> None:
    _OWNED.clear()
    _tracker_shared()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without owning its resource-tracker entry.

    Python 3.13 grew ``track=False``. On older versions attaching always
    registers the segment with this process's resource tracker:

    * a worker sharing the owner's tracker (forked after the tracker
      started, or spawned) re-registers a name the tracker already holds,
      which is a no-op. Unregistering would remove the *owner's* entry:
      the owner's ``unlink()`` would make the tracker raise ``KeyError``,
      and a SIGKILLed owner would leak the segment;
    * a worker with a tracker of its own (forked before the owner's
      started) would have that tracker unlink the segment when the worker
      dies, although the owner still needs it — so it unregisters every
      segment immediately after attaching, including those attached after
      its first attach started that tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    if not _tracker_shared():
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


def _release_segments(segments: Dict[str, shared_memory.SharedMemory]) -> None:
    """Close + unlink every segment in ``segments`` (idempotent)."""
    for name in list(segments):
        shm = segments.pop(name)
        _OWNED.pop(name, None)
        try:
            shm.close()
        except (OSError, ValueError, BufferError):  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - already reaped
            pass


class SharedBlockArena:
    """Owner-side registry of blocks exported through shared memory.

    A :class:`WorkerPool` owns one for its lifetime (unlinked in
    ``close()``, *kept* across ``terminate()`` pool restarts so requeued
    chunks can reattach). Each parallel call registers its block and
    releases it when it returns. ``register`` is idempotent per block
    object while the block is registered.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._descriptors: Dict[int, BlockDescriptor] = {}
        # Registered blocks are retained so the id() keys above cannot be
        # recycled by the allocator while the arena is alive.
        self._retained: Dict[int, object] = {}
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    def register(self, block) -> BlockDescriptor:
        """Copy ``block``'s columns into shared memory once; descriptor back."""
        key = id(block)
        cached = self._descriptors.get(key)
        if cached is not None:
            return cached
        kind, meta, columns = _spec_for(block)
        arrays = [
            (name, np.ascontiguousarray(array)) for name, array in columns
        ]
        specs: List[ColumnSpec] = []
        offset = 0
        for name, array in arrays:
            specs.append(
                ColumnSpec(
                    name=name,
                    dtype=np.dtype(array.dtype).str,
                    shape=tuple(int(dim) for dim in array.shape),
                    offset=offset,
                )
            )
            offset = _align(offset + array.nbytes)
        shm = _create_segment(max(offset, 1))
        for (name, array), spec in zip(arrays, specs):
            np.ndarray(
                spec.shape, dtype=array.dtype, buffer=shm.buf, offset=spec.offset
            )[...] = array
        # The owner reads the registered block itself, never the segment:
        # unmapping it here keeps the pages out of the owner's RSS and
        # out of every worker it forks later. Unlinking needs no mapping.
        shm.close()
        descriptor = BlockDescriptor(
            shm_name=shm.name,
            kind=kind,
            meta=meta,
            columns=tuple(specs),
            nbytes=offset,
        )
        self._segments[shm.name] = shm
        self._descriptors[key] = descriptor
        self._retained[key] = block
        _OWNED[shm.name] = block
        return descriptor

    def release(self, block) -> None:
        """Unlink ``block``'s segment, if registered. Idempotent."""
        descriptor = self._descriptors.pop(id(block), None)
        if descriptor is None:
            return
        self._retained.pop(id(block), None)
        _release_segments(
            {descriptor.shm_name: self._segments.pop(descriptor.shm_name)}
        )

    @property
    def segment_names(self) -> Tuple[str, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def unlink(self) -> None:
        """Release every segment. Idempotent; safe after partial failure."""
        _release_segments(self._segments)
        self._descriptors.clear()
        self._retained.clear()


def attach_block(descriptor: BlockDescriptor):
    """Rebuild the block behind ``descriptor`` as read-only shared views.

    In the owner process this returns the originally registered block
    (no second mapping); in workers the mapping is kept, and reused by
    later attaches, until :func:`detach_attached` closes it.
    """
    owned = _OWNED.get(descriptor.shm_name)
    if owned is not None:
        return owned
    cached = _ATTACHED.get(descriptor.shm_name)
    if cached is not None:
        return cached[1]
    builder = _BUILDERS.get(descriptor.kind)
    if builder is None:
        raise ValueError(f"unknown shared-block kind {descriptor.kind!r}")
    shm = _attach_segment(descriptor.shm_name)
    arrays: Dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in descriptor.columns:
        view = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        arrays[name] = view
    block = builder(arrays, descriptor.meta)
    _ATTACHED[descriptor.shm_name] = (shm, block)
    return block


def detach_attached() -> None:
    """Close this process's mappings (the end of every attaching task).

    A mapping whose views are still referenced — by the traceback of a
    failing task, say — cannot close yet; it stays listed, and a later
    call closes it.
    """
    for name in list(_ATTACHED):
        shm, _block = _ATTACHED[name]
        try:
            shm.close()
        except BufferError:
            continue
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        del _ATTACHED[name]


def leaked_arena_segments() -> List[str]:
    """Arena segments still visible under ``/dev/shm`` (Linux only).

    The leak oracle for tests and the chaos harness: after every owner
    ``unlink()`` this must be empty no matter how many workers died.
    """
    base = Path("/dev/shm")
    if not base.is_dir():
        return []
    return sorted(path.name for path in base.glob(f"{ARENA_PREFIX}-*"))
