"""Failure taxonomy, retry policy, and execution reporting.

The paper's routing protocols are built to tolerate disruption; this module
gives the *execution layer* the same property. Every recoverable incident a
long sweep can hit is classified into one of five kinds:

* ``CHUNK_TIMEOUT`` — a worker chunk exceeded its wall-clock budget and was
  abandoned (the pool is restarted and the chunk re-executed from its seed).
* ``WORKER_CRASH`` — a worker process died (SIGKILL, OOM, segfault); the
  pool broke and every in-flight chunk was requeued.
* ``CHUNK_ERROR`` — a chunk raised an ordinary exception.
* ``KERNEL_FALLBACK`` — a struct-of-arrays kernel failed before mutating
  any session (or an event source could not produce its first block) and
  the run degraded to the engine's object loop (or to lazily pulled
  events), with byte-identical outcomes.
* ``CHECKPOINT_CORRUPT`` — a checkpoint file failed JSON parsing or
  checksum validation and was quarantined; the affected work is recomputed.

Incidents are recorded as :class:`ResilienceEvent` rows on an
:class:`ExecutionReport`, which the parallel layer, the engine wrappers,
and the figure runners surface in run metadata and CLI summaries. Retried
chunks re-execute from the *same* ``SeedSequence.spawn`` seed, so a sweep
that survived failures merges to a result byte-identical to an unfailed
run — the report is the only difference.

Everything here lives in ``repro.utils`` (the bottom layer) so both the
engine (``repro.sim``) and the batch machinery (``repro.experiments``) can
share one taxonomy without a dependency cycle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.utils.validation import check_positive_int

__all__ = [
    "CHUNK_TIMEOUT",
    "WORKER_CRASH",
    "CHUNK_ERROR",
    "KERNEL_FALLBACK",
    "CHECKPOINT_CORRUPT",
    "SHM_LEAK",
    "FAILURE_KINDS",
    "ChunkTimeout",
    "WorkerCrash",
    "CheckpointCorrupt",
    "ResilienceEvent",
    "ExecutionReport",
    "RetryPolicy",
]

CHUNK_TIMEOUT = "ChunkTimeout"
WORKER_CRASH = "WorkerCrash"
CHUNK_ERROR = "ChunkError"
KERNEL_FALLBACK = "KernelFallback"
CHECKPOINT_CORRUPT = "CheckpointCorrupt"
SHM_LEAK = "SharedMemoryLeak"

#: Every kind an :class:`ResilienceEvent` may carry, in reporting order.
FAILURE_KINDS = (
    CHUNK_TIMEOUT,
    WORKER_CRASH,
    CHUNK_ERROR,
    KERNEL_FALLBACK,
    CHECKPOINT_CORRUPT,
    SHM_LEAK,
)


class ChunkTimeout(RuntimeError):
    """A worker chunk exceeded its wall-clock budget."""


class WorkerCrash(RuntimeError):
    """A worker process died while executing a chunk."""


class CheckpointCorrupt(ValueError):
    """A checkpoint file failed parsing or checksum validation."""


@dataclass(frozen=True)
class ResilienceEvent:
    """One classified incident and how the execution layer resolved it.

    ``where`` locates the incident (a chunk index, a kernel class name, a
    checkpoint path); ``attempt`` is 1-based for chunk incidents;
    ``resolution`` says what happened next (``"retried"``, ``"inline"``,
    ``"degraded"``, ``"quarantined"``, ``"failed"``).
    """

    kind: str
    where: str
    attempt: int = 0
    detail: str = ""
    resolution: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"unknown failure kind {self.kind!r} (expected one of "
                f"{', '.join(FAILURE_KINDS)})"
            )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe row for summaries and artifacts."""
        return {
            "kind": self.kind,
            "where": self.where,
            "attempt": self.attempt,
            "detail": self.detail,
            "resolution": self.resolution,
        }


class ExecutionReport:
    """Accumulates :class:`ResilienceEvent` rows across one run or sweep.

    The report is append-only and shared freely: the supervised pool, the
    chunk runners, and the checkpoint store all record into the same
    instance, and the figure runners snapshot :meth:`summary` into run
    metadata when the sweep finishes.
    """

    def __init__(self) -> None:
        self._events: List[ResilienceEvent] = []
        self.pool_restarts = 0
        self.degraded_to_serial = False

    @property
    def events(self) -> List[ResilienceEvent]:
        """The recorded events, in order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events) or self.pool_restarts > 0

    def record(
        self,
        kind: str,
        where: str,
        *,
        attempt: int = 0,
        detail: str = "",
        resolution: str = "",
    ) -> ResilienceEvent:
        """Append one classified event; returns it."""
        event = ResilienceEvent(
            kind=kind,
            where=str(where),
            attempt=attempt,
            detail=str(detail),
            resolution=resolution,
        )
        self._events.append(event)
        return event

    def extend(self, events) -> None:
        """Append events recorded elsewhere (e.g. shipped back by a chunk)."""
        for event in events:
            if isinstance(event, ResilienceEvent):
                self._events.append(event)
            else:  # a to_dict() row from a worker process
                self._events.append(ResilienceEvent(**event))

    def counts(self) -> Dict[str, int]:
        """Events per kind, omitting kinds that never occurred."""
        tally: Dict[str, int] = {}
        for event in self._events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    @property
    def retries(self) -> int:
        """How many chunk re-executions the incidents triggered."""
        return sum(1 for e in self._events if e.resolution == "retried")

    def summary(self) -> Dict[str, object]:
        """A JSON-safe structured summary for metadata and artifacts."""
        return {
            "counts": self.counts(),
            "retries": self.retries,
            "pool_restarts": self.pool_restarts,
            "degraded_to_serial": self.degraded_to_serial,
            "events": [event.to_dict() for event in self._events],
        }

    def describe(self) -> str:
        """A one-line human summary (empty string when nothing happened)."""
        if not self:
            return ""
        parts = [f"{kind}={n}" for kind, n in sorted(self.counts().items())]
        if self.pool_restarts:
            parts.append(f"pool_restarts={self.pool_restarts}")
        if self.degraded_to_serial:
            parts.append("degraded_to_serial")
        return "resilience: " + " ".join(parts)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, jitter, and chunk timeouts.

    ``max_retries`` bounds *re-executions* per chunk (a chunk runs at most
    ``max_retries + 1`` times on the pool before degrading to inline
    execution in the supervisor process). ``timeout`` is the per-task
    wall-clock budget in seconds (``None`` disables timeouts; inline
    execution cannot be interrupted, so timeouts only bite on the pool).
    A task is one chunk, except on a shared event stream, where one task
    per pool process runs a contiguous run of chunks, so the budget must
    cover all of them.
    Backoff for attempt ``k`` (1-based) is
    ``backoff * factor**(k-1) * (1 + jitter * u)`` with ``u`` drawn
    deterministically from the (chunk, attempt) pair — reproducible, yet
    de-synchronised across chunks. ``max_pool_restarts`` bounds how often a
    broken/hung pool is rebuilt before the whole sweep degrades to serial
    execution.

    ``sleep`` is injectable for tests.
    """

    max_retries: int = 2
    backoff: float = 0.25
    factor: float = 2.0
    jitter: float = 0.5
    timeout: Optional[float] = None
    max_pool_restarts: int = 3
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_pool_restarts < 0:
            raise ValueError(
                f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}"
            )

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before re-execution ``attempt`` (1-based) of chunk ``key``.

        Deterministic for a (chunk, attempt) pair, so supervised runs are
        reproducible; distinct chunks jitter apart so a crashed pool's
        requeued chunks do not stampede back in lockstep.
        """
        check_positive_int(attempt, "attempt")
        base = self.backoff * self.factor ** (attempt - 1)
        if self.jitter == 0.0 or base == 0.0:
            return base
        u = random.Random(key * 1_000_003 + attempt).random()
        return base * (1.0 + self.jitter * u)

    def pause(self, attempt: int, key: int = 0) -> None:
        """Sleep the backoff delay (no-op when the delay is zero)."""
        duration = self.delay(attempt, key)
        if duration > 0:
            self.sleep(duration)
