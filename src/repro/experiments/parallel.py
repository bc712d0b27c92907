"""Parallel Monte Carlo batch execution.

The figure batches (`run_random_graph_batch`, `run_faulty_graph_batch`,
`run_trace_batch`, `security_montecarlo`) are embarrassingly parallel across
sessions/trials, and the paper's methodology runs thousands of them per data
point. This module splits one logical batch into chunks, runs the chunks on
a ``concurrent.futures`` worker pool, and merges the results in submission
order so the outcome is deterministic for a fixed master seed.

Seeding: each chunk receives an independent child of the master
:class:`numpy.random.SeedSequence` via ``SeedSequence.spawn()``. The
default chunk layout is a pure function of the workload size
(:func:`default_chunk_count`), *not* of the worker count, so for a fixed
master seed the merged result is byte-identical across every requested
worker count ≥ 2 and every effective process count — chunk streams never
collide, and a machine upgrade cannot silently change a figure.
``workers=1`` bypasses the pool and the spawning entirely — it calls the
serial runner with the caller's generator, keeping historical seed-exact
behaviour (and is therefore the one layout that differs: see
``run_parallel_batch``).

Two amortisation mechanisms make the parallel path profitable:

* :class:`WorkerPool` — one persistent process pool reused across every
  ``parallel_map`` call of a figure's sweep, instead of paying interpreter
  spawn + import per call. The *requested* worker count only caps the
  effective process count; the pool sizes its actual processes to the
  machine (and degrades to inline execution on a single-CPU host), so the
  merged results are identical everywhere.
* ``shared_events`` — the contact-event stream is generated once
  (:func:`shared_contact_block`) or loaded, registered in the pool's
  :class:`~repro.experiments.shm.SharedBlockArena`, and reattached
  zero-copy by every chunk through
  :class:`~repro.contacts.events.ColumnarEventSource`: only a tiny
  ``(shm_name, dtype, shape, offset)`` descriptor travels through the
  task pickle, warm workers cache the mapping per segment name, and the
  owning pool unlinks the segments on close, after completion, crash,
  and interrupt alike.

Supervision: every multi-worker dispatch goes through one supervisor.
A :class:`WorkerPool` carries a :class:`~repro.utils.resilience.RetryPolicy`
(``RetryPolicy()`` unless given) and an
:class:`~repro.utils.resilience.ExecutionReport`; an ``int`` worker count
runs on a private pool that closes after the call and logs any incident
at WARNING. Every chunk gets the policy's wall-clock budget, a hung or
SIGKILLed worker is detected, the pool is rebuilt, and the affected chunks are
re-executed from their original ``SeedSequence.spawn`` seeds — so a sweep
that survived timeouts, crashes, and transient exceptions merges to a
result byte-identical to an unfailed run. Failures are classified
(:mod:`repro.utils.resilience`) and recorded on the pool's report; the
degradation ladder runs chunk-level (kernel → object loop inside a
retried chunk) and sweep-level (pool → serial once
``max_pool_restarts`` is exhausted).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import inspect
import logging
import os
import pickle
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.contacts.events import (
    ColumnarEventSource,
    EventBlock,
    ExponentialContactProcess,
)
from repro.experiments.shm import (
    BlockDescriptor,
    SharedBlockArena,
    attach_block,
)
from repro.utils.resilience import (
    CHUNK_ERROR,
    CHUNK_TIMEOUT,
    KERNEL_FALLBACK,
    WORKER_CRASH,
    ExecutionReport,
    ResilienceEvent,
    RetryPolicy,
)
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive_int

logger = logging.getLogger(__name__)

#: Default number of chunks a parallel run splits into. Fixed (instead of
#: the requested worker count) so the chunk layout — and therefore the
#: spawned per-chunk seed streams — is a pure function of the workload:
#: ``workers=2`` and ``workers=16`` merge byte-identical results. 32
#: chunks keep pools busy up to 32 effective processes and smooth load
#: imbalance; ask for more via ``chunks=`` on wider machines.
DEFAULT_CHUNK_COUNT = 32


def default_chunk_count(total: int) -> int:
    """Worker-count-independent default chunk count for ``total`` items."""
    check_positive_int(total, "total")
    return min(total, DEFAULT_CHUNK_COUNT)


def chunk_sizes(total: int, chunks: int) -> List[int]:
    """Split ``total`` work items into at most ``chunks`` non-empty parts.

    Sizes differ by at most one and are deterministic (larger parts first),
    so the chunk layout — and therefore the per-chunk seed assignment — is a
    pure function of ``(total, chunks)``.
    """
    check_positive_int(total, "total")
    check_positive_int(chunks, "chunks")
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    return [base + (1 if k < extra else 0) for k in range(chunks)]


def spawn_chunk_seeds(rng: RandomSource, count: int) -> List[np.random.SeedSequence]:
    """Independent per-chunk seed sequences from one master source.

    Spawning consumes the master sequence's spawn counter, so two calls with
    the same *generator instance* give different children — but re-creating
    the generator from the same int seed reproduces them, which is what the
    deterministic-parallelism contract needs.
    """
    check_positive_int(count, "count")
    seed_seq = ensure_rng(rng).bit_generator.seed_seq
    if seed_seq is None:  # pragma: no cover - generators always carry one
        raise ValueError("generator has no seed sequence to spawn from")
    return list(seed_seq.spawn(count))


class WorkerPool:
    """A persistent process pool shared across many parallel calls.

    ``workers`` is the *requested* parallelism. It only selects between
    the serial path (``workers=1``, seed-exact with the serial runners)
    and the chunked one; the chunk layout and per-chunk seeds come from
    :func:`default_chunk_count` of the workload size, so a batch run with
    the same master seed merges to the same result for every requested
    count ≥ 2 on every machine. The pool itself sizes its processes to
    ``min(workers, os.cpu_count())`` (override with ``max_processes``) and
    runs tasks inline — no subprocesses — when that effective size is
    one, which is both the single-CPU degradation and the cheap path for
    ``workers=1``.

    Every pool is supervised: each ``parallel_map`` call through it gets
    per-chunk timeouts, crash detection with pool rebuilds, and bounded
    seed-exact retries under ``policy`` (a
    :class:`~repro.utils.resilience.RetryPolicy`, ``RetryPolicy()`` by
    default), with incidents recorded on ``report`` (a fresh
    :class:`~repro.utils.resilience.ExecutionReport` by default).

    Use as a context manager to reuse one warm pool across a whole figure
    sweep::

        with WorkerPool(4) as pool:
            first = run_parallel_batch(fn, sessions=1000, workers=pool, ...)
            second = run_parallel_batch(fn, sessions=1000, workers=pool, ...)
    """

    def __init__(
        self,
        workers: int,
        *,
        max_processes: int | None = None,
        policy: RetryPolicy | None = None,
        report: ExecutionReport | None = None,
    ):
        check_positive_int(workers, "workers")
        if max_processes is not None:
            check_positive_int(max_processes, "max_processes")
        cap = max_processes if max_processes is not None else (os.cpu_count() or 1)
        self._workers = workers
        self._processes = min(workers, cap)
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None
        self._arena: SharedBlockArena | None = None
        self.policy = policy if policy is not None else RetryPolicy()
        self.report = report if report is not None else ExecutionReport()

    @property
    def workers(self) -> int:
        """Requested parallelism; caps the effective process count."""
        return self._workers

    @property
    def processes(self) -> int:
        """Effective pool size; ``1`` means tasks run inline."""
        return self._processes

    @property
    def arena(self) -> SharedBlockArena | None:
        """The pool-owned shared-memory arena, if any block was shared."""
        return self._arena

    def share_block(self, block) -> BlockDescriptor:
        """Register ``block`` in the pool-owned arena; returns a descriptor.

        The arena lives as long as the pool: registration is idempotent
        per block object, so every sweep point of a figure that reuses
        one window allocates a single segment, warm workers keep their
        mapping across sweep points, and :meth:`close` unlinks
        everything. ``terminate`` (the supervisor's crash-restart
        primitive) deliberately leaves the arena alone — requeued chunks
        reattach in the rebuilt workers.
        """
        if self._arena is None:
            self._arena = SharedBlockArena()
        return self._arena.register(block)

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._processes
            )
        return self._executor

    def warm(self) -> None:
        """Spawn the worker processes now instead of at first use."""
        if self._processes > 1:
            pool = self._ensure_executor()
            futures = [pool.submit(int, 0) for _ in range(self._processes)]
            for future in futures:
                future.result()

    def close(self) -> None:
        """Shut the pool down; it cannot be reused afterwards.

        Unlinks the pool-owned shared-memory arena after the workers are
        gone, so no ``/dev/shm`` segment outlives the pool.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None

    def terminate(self) -> None:
        """Kill the worker processes without waiting for running chunks.

        Unlike :meth:`close`, the pool stays usable — the next submission
        lazily builds a fresh executor. This is the restart primitive the
        supervisor uses after a crash or timeout, and the prompt-shutdown
        path on :class:`KeyboardInterrupt`. ``shutdown()`` alone would join
        the workers, which hangs forever on a hung or signal-blocked chunk,
        so the processes are terminated first, then the executor is shut
        down without waiting, then the corpses are reaped.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already-dead race
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - uninterruptible state
                    process.kill()
                    process.join(timeout=5.0)
            except Exception:  # pragma: no cover - already-reaped race
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


Workers = Union[int, WorkerPool]


def worker_count(workers: Workers) -> int:
    """The requested parallelism of an ``int`` or :class:`WorkerPool`."""
    if isinstance(workers, WorkerPool):
        return workers.workers
    check_positive_int(workers, "workers")
    return workers


def workers_metadata(workers: Workers) -> dict:
    """JSON-safe execution metadata for run results and bench records.

    Reports the *requested* parallelism (1 selects the serial path; any
    larger count the same chunk layout and seeds) next to the *effective*
    process count the machine allowed, and — when ``workers`` is a
    :class:`WorkerPool` whose report holds incidents — the structured
    resilience summary.
    """
    requested = worker_count(workers)
    if isinstance(workers, WorkerPool):
        effective = workers.processes
    else:
        effective = min(requested, os.cpu_count() or 1)
    meta: dict = {"workers_requested": requested, "workers_effective": effective}
    if isinstance(workers, WorkerPool) and workers.report:
        meta["resilience"] = workers.report.summary()
    return meta


def shared_contact_block(
    workers: Workers, graph, rng: RandomSource, horizon: float
) -> EventBlock | None:
    """The contact block a graph batch ships to its chunks, or ``None``.

    One worker runs the serial runner on the caller's generator, which
    samples its own stream, so nothing is drawn and ``None`` comes back.
    More workers get ``graph``'s exponential stream up to ``horizon``,
    drawn once from ``rng`` and replayed whole by every chunk. The draw
    advances ``rng``, so pass this as a call argument of the
    ``run_parallel_*`` entry point: it then runs before the chunk seeds
    are spawned from the same generator.
    """
    if worker_count(workers) == 1:
        return None
    return ExponentialContactProcess(graph, rng=rng).events_until_columnar(horizon)


def _inline_supervised(
    fn: Callable[..., Any],
    task: Tuple[Any, ...],
    index: int,
    total: int,
    policy: RetryPolicy,
    report: ExecutionReport,
) -> Any:
    """Run one chunk in-process with bounded retries (last supervision rung).

    Serves both the single-process pool and chunks whose pooled retries are
    exhausted. Timeouts cannot be enforced here — an in-process chunk is
    uninterruptible — so only exceptions are retried.
    """
    attempt = 1
    while True:
        try:
            return fn(*pickle.loads(pickle.dumps(task)))
        except Exception as error:
            exhausted = attempt > policy.max_retries
            report.record(
                CHUNK_ERROR,
                f"chunk {index}",
                attempt=attempt,
                detail=f"{type(error).__name__}: {error}",
                resolution="failed" if exhausted else "retried",
            )
            if exhausted:
                error.add_note(
                    f"parallel_map: chunk {index}/{total} failed after "
                    f"{attempt} inline attempts"
                )
                raise
            policy.pause(attempt, key=index)
            attempt += 1


def _supervised_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    pool: WorkerPool,
) -> List[Any]:
    """Dispatch chunks with timeouts, crash recovery, and bounded retries.

    The pool's ``policy`` bounds the retries and its ``report`` records
    every incident. Submission is bounded to the pool's process count so a chunk's
    wall-clock budget starts ticking when it actually starts running. A
    timed-out or crashed pool is killed and rebuilt (bounded by
    ``policy.max_pool_restarts``, after which the whole sweep degrades to
    serial in-process execution), and the affected chunks re-execute from
    their original argument tuples — same seeds, byte-identical results.
    """
    policy, report = pool.policy, pool.report
    total = len(tasks)
    results: List[Any] = [None] * total
    if pool.processes == 1 or report.degraded_to_serial:
        for index, task in enumerate(tasks):
            results[index] = _inline_supervised(fn, task, index, total, policy, report)
        return results

    pending = deque((index, 1) for index in range(total))
    inflight: dict = {}  # future -> (index, attempt, deadline)

    def requeue_inflight(kind: str, detail: str) -> None:
        # A broken or hung pool dooms every in-flight chunk; harvest the
        # ones that finished cleanly before the break, then requeue the
        # rest ahead of untouched work, in index order, burning one attempt
        # each (the culprit is not reliably attributable to one future).
        doomed = []
        for future, (index, attempt, _) in inflight.items():
            if future.done():
                try:
                    results[index] = future.result(timeout=0)
                    continue
                except BaseException:
                    pass
            doomed.append((index, attempt))
        inflight.clear()
        for index, attempt in sorted(doomed):
            report.record(
                kind,
                f"chunk {index}",
                attempt=attempt,
                detail=detail,
                resolution="retried",
            )
        for index, attempt in sorted(doomed, reverse=True):
            pending.appendleft((index, attempt + 1))

    def restart_pool() -> None:
        pool.terminate()
        report.pool_restarts += 1
        if report.pool_restarts > policy.max_pool_restarts:
            report.degraded_to_serial = True

    try:
        while pending or inflight:
            if report.degraded_to_serial:
                # The pool kept dying; finish everything left in-process.
                for index, _ in sorted(pending):
                    results[index] = _inline_supervised(
                        fn, tasks[index], index, total, policy, report
                    )
                pending.clear()
                break
            submit_broken = False
            while pending and len(inflight) < pool.processes:
                index, attempt = pending.popleft()
                if attempt > policy.max_retries + 1:
                    # Pooled retries exhausted: degrade this chunk to inline.
                    results[index] = _inline_supervised(
                        fn, tasks[index], index, total, policy, report
                    )
                    continue
                if attempt > 1:
                    policy.pause(attempt - 1, key=index)
                deadline = (
                    time.monotonic() + policy.timeout
                    if policy.timeout is not None
                    else None
                )
                try:
                    future = pool._ensure_executor().submit(fn, *tasks[index])
                except BrokenProcessPool:
                    # The pool died between waits; this chunk never started,
                    # so it goes back at the same attempt.
                    pending.appendleft((index, attempt))
                    submit_broken = True
                    break
                inflight[future] = (index, attempt, deadline)
            if submit_broken:
                requeue_inflight(
                    WORKER_CRASH, "pool broke while chunk was in flight"
                )
                restart_pool()
                continue
            if not inflight:
                continue
            timeout = None
            deadlines = [meta[2] for meta in inflight.values() if meta[2] is not None]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            finished, _ = concurrent.futures.wait(
                inflight,
                timeout=timeout,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            broken = False
            for future in finished:
                index, attempt, _ = inflight.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    broken = True
                    report.record(
                        WORKER_CRASH,
                        f"chunk {index}",
                        attempt=attempt,
                        detail="worker process died while chunk was in flight",
                        resolution="retried",
                    )
                    pending.appendleft((index, attempt + 1))
                except Exception as error:
                    exhausted = attempt > policy.max_retries
                    report.record(
                        CHUNK_ERROR,
                        f"chunk {index}",
                        attempt=attempt,
                        detail=f"{type(error).__name__}: {error}",
                        resolution="inline" if exhausted else "retried",
                    )
                    pending.append((index, attempt + 1))
            if broken:
                requeue_inflight(
                    WORKER_CRASH, "pool broke while chunk was in flight"
                )
                restart_pool()
                continue
            if policy.timeout is not None and inflight:
                now = time.monotonic()
                overdue = sorted(
                    meta
                    for meta in inflight.values()
                    if meta[2] is not None and now >= meta[2]
                )
                if overdue:
                    # A hung worker cannot be interrupted individually: kill
                    # the whole pool, charge the overdue chunks an attempt,
                    # and requeue the innocent bystanders unchanged.
                    overdue_keys = {(i, a) for i, a, _ in overdue}
                    survivors = sorted(
                        meta
                        for meta in inflight.values()
                        if (meta[0], meta[1]) not in overdue_keys
                    )
                    inflight.clear()
                    for index, attempt, _ in overdue:
                        report.record(
                            CHUNK_TIMEOUT,
                            f"chunk {index}",
                            attempt=attempt,
                            detail=(
                                f"exceeded {policy.timeout:g}s wall-clock budget"
                            ),
                            resolution="retried",
                        )
                    for index, attempt, _ in reversed(survivors):
                        pending.appendleft((index, attempt))
                    for index, attempt, _ in reversed(overdue):
                        pending.appendleft((index, attempt + 1))
                    restart_pool()
        return results
    except BaseException:
        for future in inflight:
            future.cancel()
        pool.terminate()
        raise


@contextlib.contextmanager
def _pool_for(workers: Workers):
    """``workers`` as a :class:`WorkerPool` for the span of one call.

    A pool is used as is and left running. An ``int`` gets a private pool
    that closes (unlinking its arena) when the call ends; any incident it
    recorded is logged at WARNING, since no caller holds its report.
    """
    if isinstance(workers, WorkerPool):
        yield workers
        return
    with WorkerPool(workers) as pool:
        try:
            yield pool
        finally:
            if pool.report:
                logger.warning(
                    "private %d-worker pool: %s",
                    pool.workers,
                    pool.report.describe(),
                )


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple[Any, ...]],
    workers: Workers,
) -> List[Any]:
    """Apply ``fn`` to argument tuples on a supervised pool; ordered results.

    ``workers`` is either an ``int`` (a private :class:`WorkerPool` is
    created for this call and closed afterwards) or a :class:`WorkerPool`
    (the shared pool is reused and left running). Either way the
    *effective* process count is capped at the machine's CPU count, and an
    effective count of one runs inline — no subprocesses, but each task
    still works on a pickled copy of its arguments. ``fn`` and every
    argument must be picklable when subprocesses are used.

    Dispatch is always supervised under the pool's ``policy``: per-chunk
    wall-clock timeouts, crash detection with pool rebuilds, bounded
    seed-exact retries, and incident rows on the pool's ``report``. A
    chunk whose retries are exhausted re-raises with its index attached
    as a note; :class:`KeyboardInterrupt` terminates the workers promptly
    instead of hanging on shutdown.
    """
    with _pool_for(workers) as pool:
        return _supervised_map(fn, tasks, pool)


class _ChunkPayload(NamedTuple):
    """A chunk result plus the JSON-safe incident rows recorded computing it.

    Chunk functions return this envelope so degradation events that happened
    inside a worker process survive the trip back to the parent, where the
    mergers unwrap the result and feed the rows into the sweep's
    :class:`~repro.utils.resilience.ExecutionReport`.
    """

    result: Any
    events: List[dict]


def _unwrap_chunk(part: _ChunkPayload, report: ExecutionReport) -> Any:
    report.extend(part.events)
    return part.result


def _supports_keyword(fn: Callable[..., Any], name: str) -> bool:
    try:
        return name in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return False


def _degradation_rungs(
    batch_fn: Callable[..., Any], kwargs: dict
) -> List[Tuple[str, dict]]:
    """The per-chunk ladder: as requested → kernel off.

    The second rung is offered only when the batch function has a
    ``kernel`` knob the caller has not already turned off; otherwise the
    ladder has a single rung, i.e. no degradation.
    """
    rungs = [("requested configuration", dict(kwargs))]
    if kwargs.get("kernel") is not False and _supports_keyword(batch_fn, "kernel"):
        rungs.append(("kernel=False", dict(kwargs, kernel=False)))
    return rungs


def _run_chunk_with_ladder(
    batch_fn: Callable[..., Any],
    seed_seq: np.random.SeedSequence,
    kwargs: dict,
    fixed: dict,
    block: EventBlock | None = None,
) -> _ChunkPayload:
    """Run one chunk, degrading kernel → object loop on failure.

    Each rung calls ``batch_fn(**fixed, rng=..., **rung_kwargs)`` with a
    generator rebuilt from the chunk seed and, given a shared ``block``, a
    fresh ``events=`` cursor over it (a partially consumed cursor must
    never be reused). Each rung thus re-executes from scratch, and a
    degraded rung's outcome is byte-identical to a clean run of that rung
    — which is itself byte-identical to the kernel path by the
    dispatch-equivalence contract. Only the last rung's failure propagates
    (and is then subject to the supervisor's retries).
    """
    rungs = _degradation_rungs(batch_fn, kwargs)
    events: List[dict] = []
    for k, (label, rung_kwargs) in enumerate(rungs):
        if block is not None:
            rung_kwargs = dict(rung_kwargs, events=ColumnarEventSource(block))
        try:
            result = batch_fn(
                **fixed, rng=np.random.default_rng(seed_seq), **rung_kwargs
            )
            return _ChunkPayload(result, events)
        except Exception as error:
            if k + 1 == len(rungs):
                raise
            events.append(
                ResilienceEvent(
                    kind=KERNEL_FALLBACK,
                    where=getattr(batch_fn, "__name__", "chunk"),
                    attempt=k + 1,
                    detail=(
                        f"{type(error).__name__}: {error} under {label}; "
                        f"degrading to {rungs[k + 1][0]}"
                    ),
                    resolution="degraded",
                ).to_dict()
            )
    raise AssertionError("unreachable")  # pragma: no cover


def _run_batch_chunk(
    batch_fn: Callable[..., list],
    sessions: int,
    seed_seq: np.random.SeedSequence,
    kwargs: dict,
) -> _ChunkPayload:
    """One worker's share of a session batch (module-level for pickling)."""
    return _run_chunk_with_ladder(batch_fn, seed_seq, kwargs, {"sessions": sessions})


def _run_shared_batch_chunk(
    batch_fn: Callable[..., list],
    sessions: int,
    seed_seq: np.random.SeedSequence,
    payload,
    kwargs: dict,
) -> _ChunkPayload:
    """Batch chunk replaying a shared columnar event stream.

    The parent registers the :class:`EventBlock` once; every chunk
    reattaches it and replays it through a fresh cursor per ladder rung.
    """
    return _run_chunk_with_ladder(
        batch_fn, seed_seq, kwargs, {"sessions": sessions}, attach_block(payload)
    )


def _concat_chunks(_sizes: List[int], parts: List[Any]) -> list:
    """Merge per-chunk outcome lists in chunk order."""
    return [item for part in parts for item in part]


def _dispatch_chunks(
    fn: Callable[..., Any],
    size_keyword: str,
    total: int,
    workers: Workers,
    rng: RandomSource,
    chunks: int | None,
    kwargs: dict,
    chunk_fns: Tuple[Callable[..., Any], Callable[..., Any]],
    merge: Callable[[List[int], List[Any]], Any],
    *,
    shared: Any = None,
    shared_keyword: str = "events",
    shared_type: type = EventBlock,
) -> Any:
    """The shared body of the ``run_parallel_*`` entry points.

    ``workers == 1`` calls ``fn`` directly with the caller's ``rng`` (and
    ``shared`` as ``shared_keyword=``). Otherwise ``total`` is split by
    :func:`chunk_sizes`, each chunk gets a :func:`spawn_chunk_seeds`
    child, ``shared`` travels through the pool's arena as a descriptor,
    and the unwrapped chunk results go to ``merge(sizes, parts)`` in chunk
    order. An ``int`` count runs on a private pool, so the arena always
    belongs to a pool and is unlinked when that pool closes.
    ``chunk_fns`` is the ``(plain, shared)`` chunk-function pair; a shared
    ``block`` is sliced by trial-row offset, a shared event stream is
    replayed whole by every chunk. A ``total`` below one raises
    :class:`ValueError` naming ``size_keyword`` on every path.
    """
    check_positive_int(total, size_keyword)
    if shared is not None and not isinstance(shared, shared_type):
        raise TypeError(
            f"shared {shared_keyword} must be of type {shared_type.__name__}, "
            f"got {type(shared).__name__}"
        )
    if worker_count(workers) == 1:
        if shared is not None:
            kwargs = dict(kwargs, **{shared_keyword: shared})
        return fn(**{size_keyword: total}, rng=rng, **kwargs)
    sizes = chunk_sizes(
        total, chunks if chunks is not None else default_chunk_count(total)
    )
    seeds = spawn_chunk_seeds(rng, len(sizes))
    plain_chunk, shared_chunk = chunk_fns
    with _pool_for(workers) as pool:
        if shared is None:
            chunk_fn = plain_chunk
            tasks = [(fn, size, seed, kwargs) for size, seed in zip(sizes, seeds)]
        else:
            chunk_fn = shared_chunk
            payload = pool.share_block(shared)
            if shared_keyword == "block":
                offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
                tasks = [
                    (fn, size, int(offset), seed, payload, kwargs)
                    for size, offset, seed in zip(sizes, offsets, seeds)
                ]
            else:
                tasks = [
                    (fn, size, seed, payload, kwargs)
                    for size, seed in zip(sizes, seeds)
                ]
        parts = [
            _unwrap_chunk(part, pool.report)
            for part in parallel_map(chunk_fn, tasks, pool)
        ]
    return merge(sizes, parts)


def run_parallel_batch(
    batch_fn: Callable[..., list],
    sessions: int,
    workers: Workers,
    rng: RandomSource = None,
    chunks: int | None = None,
    shared_events: EventBlock | None = None,
    **kwargs: Any,
) -> list:
    """Run a session batch split across ``workers`` processes.

    Parameters
    ----------
    batch_fn:
        A serial batch runner taking ``sessions=`` and ``rng=`` keywords —
        :func:`~repro.experiments.runners.run_random_graph_batch`,
        :func:`~repro.experiments.runners.run_faulty_graph_batch`, or
        :func:`~repro.experiments.runners.run_trace_batch`.
    sessions:
        Total sessions across all chunks.
    workers:
        Requested parallelism: an ``int`` or a persistent
        :class:`WorkerPool`. ``1`` calls ``batch_fn`` directly with ``rng``
        (seed-exact with the serial path — which is why ``workers=1`` is
        the one configuration whose outcomes differ from the chunked
        runs: the serial path consumes the caller's generator itself,
        while chunks draw from ``SeedSequence.spawn`` children; both are
        equally valid samples of the same distribution).
    rng:
        Master seed source; chunk streams are spawned from it.
    chunks:
        Number of chunks. Defaults to :func:`default_chunk_count`, a pure
        function of ``sessions`` — so the merged outcome is byte-identical
        for every ``workers ≥ 2``; more chunks smooth load imbalance at
        the cost of more per-chunk setup.
    shared_events:
        Optional pre-generated :class:`EventBlock` shipped to every chunk
        (``batch_fn`` must accept an ``events=`` keyword) through a
        shared-memory arena — chunks reattach it zero-copy. Without it
        each chunk regenerates its own event stream from the chunk seed.
        :func:`shared_contact_block` draws it for graph batches.
    kwargs:
        Every other keyword goes to ``batch_fn`` in every chunk — the
        graph, the horizon, and knobs such as ``kernel=`` and
        ``backend=``. Backends travel by *name* (see
        :mod:`repro.sim.backend`), so they pickle cleanly into worker
        processes and each worker resolves its own instance.

    Multi-worker runs are supervised by the pool (see
    :func:`parallel_map`); chunk-level degradation events (kernel →
    object loop) recorded inside workers are merged into its ``report``.

    Results are concatenated in chunk order, so the merged list is
    deterministic for a fixed master seed and — because the default chunk
    layout depends only on ``sessions`` — identical for every requested
    worker count ≥ 2, regardless of the effective pool size or completion
    order.
    """
    return _dispatch_chunks(
        batch_fn, "sessions", sessions, workers, rng, chunks, kwargs,
        (_run_batch_chunk, _run_shared_batch_chunk), _concat_chunks,
        shared=shared_events,
    )


def _run_fused_sweep_chunk(
    sweep_fn: Callable[..., list],
    sessions_per_variant: int,
    seed_seq: np.random.SeedSequence,
    kwargs: dict,
) -> _ChunkPayload:
    """One worker's share of a fused sweep (module-level for pickling)."""
    return _run_chunk_with_ladder(
        sweep_fn, seed_seq, kwargs, {"sessions_per_variant": sessions_per_variant}
    )


def _run_shared_fused_sweep_chunk(
    sweep_fn: Callable[..., list],
    sessions_per_variant: int,
    seed_seq: np.random.SeedSequence,
    payload,
    kwargs: dict,
) -> _ChunkPayload:
    """Fused-sweep chunk replaying a shared columnar event stream."""
    return _run_chunk_with_ladder(
        sweep_fn,
        seed_seq,
        kwargs,
        {"sessions_per_variant": sessions_per_variant},
        attach_block(payload),
    )


def run_parallel_fused_sweep(
    sweep_fn: Callable[..., list],
    variants: Sequence[Any],
    sessions_per_variant: int,
    workers: Workers,
    rng: RandomSource = None,
    chunks: int | None = None,
    shared_events: EventBlock | None = None,
    **kwargs: Any,
) -> list:
    """Run a fused parameter-grid sweep split across ``workers`` processes.

    ``sweep_fn`` is a fused sweep runner taking ``variants=``,
    ``sessions_per_variant=``, and ``rng=`` keywords and returning one
    outcome list per variant —
    :func:`~repro.experiments.runners.run_fused_graph_sweep` or
    :func:`~repro.experiments.runners.run_fused_trace_sweep`. Each chunk
    runs its share of the per-variant sessions for *every* variant (so the
    shared-window fusion happens inside every chunk), and the per-variant
    lists are concatenated across chunks in chunk order — deterministic
    for a fixed master seed and identical for every requested worker
    count ≥ 2 (the chunk layout is a pure function of
    ``sessions_per_variant``), following the
    :func:`run_parallel_batch` conventions for ``rng``, ``chunks``,
    ``shared_events`` (graph sweeps only — trace sweeps replay the trace
    themselves), and the keywords forwarded to ``sweep_fn``.
    """
    def merge(_sizes: List[int], parts: List[Any]) -> list:
        merged: list = [[] for _ in variants]
        for part in parts:
            if len(part) != len(merged):
                raise ValueError(
                    f"fused sweep chunk returned {len(part)} variant lists "
                    f"(expected {len(merged)})"
                )
            for variant_results, chunk_results in zip(merged, part):
                variant_results.extend(chunk_results)
        return merged

    return _dispatch_chunks(
        sweep_fn, "sessions_per_variant", sessions_per_variant, workers, rng,
        chunks, dict(kwargs, variants=list(variants)),
        (_run_fused_sweep_chunk, _run_shared_fused_sweep_chunk), merge,
        shared=shared_events,
    )


def _run_montecarlo_chunk(
    mc_fn: Callable[..., Tuple[float, ...]],
    trials: int,
    seed_seq: np.random.SeedSequence,
    kwargs: dict,
) -> _ChunkPayload:
    """One worker's share of a Monte Carlo estimate (module-level)."""
    return _run_chunk_with_ladder(mc_fn, seed_seq, kwargs, {"trials": trials})


def _run_shared_montecarlo_chunk(
    mc_fn: Callable[..., Tuple[float, ...]],
    trials: int,
    offset: int,
    seed_seq: np.random.SeedSequence,
    payload,
    kwargs: dict,
) -> _ChunkPayload:
    """Monte Carlo chunk scoring a row slice of one shared trial block.

    Trials are independent rows, so chunk ``k`` scores
    ``block[offset : offset + trials]`` — views into the shared segment,
    no copies — and the trial-weighted merge reproduces the full-block
    estimate.
    """
    chunk_block = attach_block(payload).slice_trials(offset, offset + trials)
    return _run_chunk_with_ladder(
        mc_fn, seed_seq, kwargs, {"trials": trials, "block": chunk_block}
    )


def run_parallel_montecarlo(
    mc_fn: Callable[..., Tuple[float, ...]],
    trials: int,
    workers: Workers,
    rng: RandomSource = None,
    chunks: int | None = None,
    shared_block=None,
    **kwargs: Any,
) -> Tuple[float, ...]:
    """Parallel trial-mean estimator for Monte Carlo runners.

    ``mc_fn`` (e.g. :func:`~repro.experiments.runners.security_montecarlo`)
    must take ``trials=`` / ``rng=`` keywords and return a non-empty tuple
    of per-trial means, the same width for every chunk; chunk results are
    merged as a trial-count-weighted average, so the estimate is unbiased
    for any chunking. Malformed chunk results (empty, or width-mismatched)
    raise :class:`ValueError` instead of crashing the merge.

    ``shared_block`` ships one pre-sampled
    :class:`~repro.adversary.kernel.SecurityTrialBlock` (``trials`` rows)
    through the shared-memory arena; each chunk scores its own row slice
    (``mc_fn`` must accept a ``block=`` keyword, e.g.
    :func:`~repro.experiments.runners.security_sweep_montecarlo`), so the
    sampling cost is paid once and the workers only score.

    Other keywords go to ``mc_fn`` in every chunk, as in
    :func:`run_parallel_batch`. Security runners have no
    ``kernel`` knob, so a failing chunk has no lower rung to degrade to:
    its error goes to the supervisor's retries.
    """
    from repro.adversary.kernel import SecurityTrialBlock

    if isinstance(shared_block, SecurityTrialBlock) and shared_block.trials != trials:
        raise ValueError(
            f"shared_block holds {shared_block.trials} trials but the "
            f"run asked for {trials}"
        )

    def merge(sizes: List[int], results: List[Any]) -> Tuple[float, ...]:
        width = None
        for index, values in enumerate(results):
            if width is None:
                width = len(values)
            if len(values) == 0 or len(values) != width:
                raise ValueError(
                    f"montecarlo chunk {index} returned {len(values)} estimates "
                    f"(expected {width or 'at least one'}): "
                    f"{getattr(mc_fn, '__name__', mc_fn)!r} must return one "
                    "fixed-width non-empty tuple per chunk"
                )
        totals = np.zeros(width)
        for size, values in zip(sizes, results):
            totals += np.asarray(values, dtype=float) * size
        merged = totals / sum(sizes)
        return tuple(float(v) for v in merged)

    return _dispatch_chunks(
        mc_fn, "trials", trials, workers, rng, chunks, kwargs,
        (_run_montecarlo_chunk, _run_shared_montecarlo_chunk), merge,
        shared=shared_block, shared_keyword="block",
        shared_type=SecurityTrialBlock,
    )
