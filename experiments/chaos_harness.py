"""Chaos harness: inject worker failures mid-sweep, assert byte-identity.

The resilient execution layer promises that a sweep which survives
SIGKILLed workers, hung chunks, injected exceptions, kernel-path failures,
and a corrupted checkpoint still merges to results *byte-identical* to an
unfailed run — with every incident classified in the structured failure
report. This script proves it end to end:

1. A reference sweep runs with no injection.
2. The same workload re-runs on a real multi-process supervised pool
   (``max_processes`` forces subprocesses even on a 1-CPU host) under
   phased injection: two workers are SIGKILLed during the first key, the
   checkpoint file is then overwritten with garbage (quarantine +
   recompute), a worker hangs past the chunk timeout during the resumed
   key, and the last key hits both an exception that exhausts the chunk
   degradation ladder and a kernel-rung failure the ladder absorbs.
3. A shared-memory phase ships one event block through the pool-owned
   zero-copy arena, SIGKILLs a worker mid-task, and asserts the requeued
   merge equals a fuse-free shared run — and that no ``reproarena-*``
   segment survives under ``/dev/shm`` once the pool closes.
4. The harness asserts the per-key result digests match the reference and
   that the failure taxonomy recorded every injected class, then writes a
   JSON summary (``--output``) and exits non-zero on any mismatch.

Injection uses one-shot "fuse" files: each worker-side chunk execution
claims at most one fuse (atomic ``unlink``) and misbehaves accordingly, so
a retried chunk runs clean and must reproduce the uninjected bytes.

Run from the repository root::

    python experiments/chaos_harness.py --output chaos_summary.json

This is a stress/validation script, not a unit test — the test suite
lives in ``tests/`` (see ``tests/test_chaos_injection.py`` for the fast,
deterministic cousins of these scenarios).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np

from repro.contacts.events import ExponentialContactProcess
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.parallel import WorkerPool, run_parallel_batch
from repro.experiments.persistence import run_checkpointed
from repro.experiments.runners import run_random_graph_batch
from repro.experiments.shm import leaked_arena_segments
from repro.utils.resilience import (
    CHECKPOINT_CORRUPT,
    CHUNK_ERROR,
    CHUNK_TIMEOUT,
    KERNEL_FALLBACK,
    SHM_LEAK,
    WORKER_CRASH,
    ExecutionReport,
    RetryPolicy,
)

_HANG_SECONDS = 60.0


def arm_fuses(fuse_dir: Path, names) -> None:
    """Create one ``.fuse`` file per injection; consuming it fires it."""
    for name in names:
        (fuse_dir / f"{name}.fuse").write_text("armed")


def unspent_fuses(fuse_dir: Path) -> list:
    return sorted(p.name for p in fuse_dir.glob("*.fuse"))


def _trip_one_fuse(fuse_dir: str, parent_pid: int, kernel) -> None:
    """Consume at most one armed fuse and misbehave accordingly.

    ``unlink`` is the atomic claim: when two workers race for the same
    fuse, exactly one wins and fires. Inline executions (same PID as the
    supervisor) never trip fuses — killing the supervisor would prove
    nothing about the pool.

    Fuse kinds: ``kill`` SIGKILLs the worker, ``hang`` sleeps past any
    chunk timeout, ``kernelfail`` raises only while the kernel rung is
    active (so the ladder's ``kernel=False`` retry runs clean and the
    incident is classified ``KernelFallback``), and ``chunkfail`` raises
    on *every* ladder rung of one execution — it leaves a PID marker so
    the same process's degraded rung re-raises — which exhausts the
    ladder and surfaces as a supervisor-level ``ChunkError`` retry.
    """
    if not fuse_dir or os.getpid() == parent_pid:
        return
    marker = Path(fuse_dir) / f"chunkfail.claimed-{os.getpid()}"
    if marker.exists():
        marker.unlink()
        raise RuntimeError("chaos: injected chunk failure (degraded rung)")
    for fuse in sorted(Path(fuse_dir).glob("*.fuse")):
        kind = fuse.name.split("-", 1)[0]
        if kind == "kernelfail" and kernel is False:
            continue
        try:
            fuse.unlink()
        except FileNotFoundError:
            continue  # another worker claimed it first
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "hang":
            time.sleep(_HANG_SECONDS)
            return  # pragma: no cover - the pool is killed long before
        if kind == "kernelfail":
            raise RuntimeError("chaos: injected kernel-path failure")
        if kind == "chunkfail":
            marker.write_text("claimed")
            raise RuntimeError("chaos: injected chunk failure (first rung)")
        return


def chaotic_batch(
    graph,
    group_size,
    onion_routers,
    copies,
    horizon,
    sessions,
    rng,
    fuse_dir: str = "",
    parent_pid: int = 0,
    kernel=None,
    events=None,
):
    """`run_random_graph_batch` with a pre-flight chaos fuse check.

    The explicit ``kernel`` parameter opts this wrapper into the chunk
    degradation ladder (a failed execution is retried with
    ``kernel=False``); all simulation arguments pass straight through —
    including the shared-stream protocol's ``events`` and its per-chunk
    ``sessions``/``rng`` lists, one fuse check per worker task — so an
    execution whose fuses are spent is byte-identical to the clean runner.
    """
    _trip_one_fuse(fuse_dir, parent_pid, kernel)
    extra = {} if kernel is None else {"kernel": kernel}
    return run_random_graph_batch(
        graph=graph,
        group_size=group_size,
        onion_routers=onion_routers,
        copies=copies,
        horizon=horizon,
        sessions=sessions,
        rng=rng,
        events=events,
        **extra,
    )


def _digest(outcomes) -> str:
    """Canonical value digest: ``repr`` of every (route, outcome) pair.

    ``pickle`` bytes are identity-sensitive (memoised references differ
    between in-process and cross-process results even when every value is
    equal); ``repr`` is pure value, with exact shortest-round-trip floats.
    """
    canonical = "\n".join(f"{route!r}|{outcome!r}" for route, outcome in outcomes)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_compute(graph, sessions, workers, chunks, seed, fuse_dir, parent_pid):
    """Per-key sweep closure: deterministic given the key and seed."""

    def compute(key: str):
        g = int(key.split("=", 1)[1])
        outcomes = run_parallel_batch(
            chaotic_batch,
            sessions=sessions,
            workers=workers,
            rng=np.random.default_rng(seed + g),
            chunks=chunks,
            graph=graph,
            group_size=g,
            onion_routers=2,
            copies=1,
            horizon=720.0,
            fuse_dir=fuse_dir,
            parent_pid=parent_pid,
        )
        delivered = sum(1 for _, outcome in outcomes if outcome.delivered)
        return {"digest": _digest(outcomes), "delivered": delivered}

    return compute


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4,
                        help="requested parallelism (fixes chunk seeds)")
    parser.add_argument("--chunks", type=int, default=8)
    parser.add_argument("--processes", type=int, default=2,
                        help="real worker processes (max_processes override)")
    parser.add_argument("--timeout", type=float, default=3.0,
                        help="per-chunk wall-clock budget, seconds")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON chaos summary here")
    args = parser.parse_args(argv)

    group_sizes = [1, 5]
    keys = [f"g={g}" for g in group_sizes]
    graph = random_contact_graph(n=30, rng=np.random.default_rng(args.seed))
    parent_pid = os.getpid()
    started = time.monotonic()
    phases = []

    with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
        tmp_path = Path(tmp)

        clean_report = ExecutionReport()
        clean = run_checkpointed(
            keys,
            make_compute(graph, args.sessions, args.workers, args.chunks,
                         args.seed, "", parent_pid),
            tmp_path / "clean.ckpt.json",
            report=clean_report,
        )
        if clean_report:
            print("FAIL: reference sweep recorded incidents:",
                  clean_report.describe(), file=sys.stderr)
            return 2

        fuse_dir = tmp_path / "fuses"
        fuse_dir.mkdir()
        policy = RetryPolicy(
            max_retries=4, backoff=0.05, timeout=args.timeout,
            max_pool_restarts=8,
        )
        report = ExecutionReport()
        checkpoint = tmp_path / "chaos.ckpt.json"
        with WorkerPool(
            args.workers, max_processes=args.processes,
            policy=policy, report=report,
        ) as pool:
            compute = make_compute(
                graph, args.sessions, pool, args.chunks, args.seed,
                str(fuse_dir), parent_pid,
            )

            # Phase 1: two workers SIGKILLed while the first key runs.
            arm_fuses(fuse_dir, ("kill-0", "kill-1"))
            run_checkpointed(keys[:1], compute, checkpoint, report=report)
            phases.append(("kill two workers", unspent_fuses(fuse_dir)))

            # Phase 2: corrupt the checkpoint, then resume with a hung
            # worker — quarantine, recompute, and a chunk timeout.
            checkpoint.write_text('{"schema_version": 2, "values": }garbage')
            arm_fuses(fuse_dir, ("hang-0",))
            run_checkpointed(keys[:1], compute, checkpoint, report=report)
            phases.append(("corrupt checkpoint + hang", unspent_fuses(fuse_dir)))

            # Phase 3: the second key hits a ladder-exhausting chunk error
            # and a kernel-rung failure the ladder absorbs.
            arm_fuses(fuse_dir, ("chunkfail-0", "kernelfail-0"))
            chaos = run_checkpointed(keys, compute, checkpoint, report=report)
            phases.append(("chunk error + kernel fallback", unspent_fuses(fuse_dir)))

            # Phase 4: the shared-memory arena under a SIGKILLed worker.
            # The block travels as a zero-copy descriptor through the
            # pool-owned arena; one worker dies mid-task, the supervisor
            # restarts the pool (the segment must survive the restart so
            # the requeued task can reattach), and the merge must equal the
            # fuse-free shared run chunk for chunk.
            shared_block = ExponentialContactProcess(
                graph, rng=np.random.default_rng(args.seed)
            ).events_until_columnar(720.0)

            def shared_run(workers, fuses):
                return run_parallel_batch(
                    chaotic_batch,
                    sessions=args.sessions,
                    workers=workers,
                    rng=np.random.default_rng(args.seed),
                    chunks=args.chunks,
                    shared_events=shared_block,
                    graph=graph,
                    group_size=4,
                    onion_routers=2,
                    copies=1,
                    horizon=720.0,
                    fuse_dir=fuses,
                    parent_pid=parent_pid,
                )

            shared_clean = shared_run(args.workers, "")
            arm_fuses(fuse_dir, ("kill-2",))
            shared_chaos = shared_run(pool, str(fuse_dir))
            phases.append(("shared arena + kill", unspent_fuses(fuse_dir)))

        leftover = unspent_fuses(fuse_dir)
        # The pool is closed: every arena segment must be gone from
        # /dev/shm no matter how many workers were SIGKILLed.
        leaked = leaked_arena_segments()
        if leaked:
            report.record(
                SHM_LEAK,
                "pool close",
                attempt=1,
                detail=", ".join(leaked),
                resolution="leaked",
            )
        shm_identical = _digest(shared_clean) == _digest(shared_chaos)

    identical = clean == chaos
    counts = report.counts()
    expected_kinds = {
        WORKER_CRASH: 3,        # two SIGKILLed workers + one mid-arena kill
        CHUNK_TIMEOUT: 1,       # one hung chunk past its budget
        CHUNK_ERROR: 1,         # one ladder-exhausting exception
        KERNEL_FALLBACK: 1,     # one kernel-rung failure, degraded
        CHECKPOINT_CORRUPT: 1,  # one garbage checkpoint, quarantined
    }
    missing = {
        kind: need for kind, need in expected_kinds.items()
        if counts.get(kind, 0) < need
    }

    summary = {
        "identical": identical,
        "wall_seconds": round(time.monotonic() - started, 3),
        "sessions": args.sessions,
        "workers_requested": args.workers,
        "processes": args.processes,
        "keys": keys,
        "clean": clean,
        "chaos": chaos,
        "phases": [
            {"phase": name, "fuses_unspent_after": left} for name, left in phases
        ],
        "fuses_unspent": leftover,
        "expected_minimum_counts": expected_kinds,
        "shm": {
            "identical": shm_identical,
            "leaked_segments": leaked,
        },
        "report": report.summary(),
    }
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"summary written to {args.output}")

    print(report.describe() or "resilience: no incidents (?)")
    for key, value in zip(keys, chaos):
        print(f"  {key}: delivered={value['delivered']} digest={value['digest'][:16]}…")
    if not identical:
        print("FAIL: chaos sweep diverged from the reference run", file=sys.stderr)
        return 1
    if not shm_identical:
        print("FAIL: shared-arena sweep diverged after the worker kill",
              file=sys.stderr)
        return 1
    if leaked:
        print(f"FAIL: arena segments leaked past pool close: {leaked}",
              file=sys.stderr)
        return 1
    if missing:
        print(f"FAIL: expected failure kinds not observed: {missing} "
              f"(unspent fuses: {leftover})", file=sys.stderr)
        return 1
    print("OK: chaos sweep byte-identical to the reference run; "
          "all injected failure classes recovered and reported; "
          "no arena segment outlived the pool")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
