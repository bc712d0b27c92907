#!/usr/bin/env python
"""Engine pipeline benchmark: producers, dispatch strategies, parallelism.

Reference workload (paper-scale defaults): 1000 single-copy onion sessions
over one n=100 random contact graph (g=5, K=3, L=1) with a 720-minute
horizon. The script measures two layers of the pipeline:

* **producer** — raw contact-event generation for the workload's stream:
  the legacy lazy iterator (``events_until``) vs the columnar window
  (``events_until_columnar``), same seed, same events.
* **engine** — the same batch end-to-end under these arms:

  - ``indexed``   — the engine's object loop fed lazily by the event
    iterator (``consume="iterator"``; the baseline the columnar speedup
    is quoted against),
  - ``columnar``  — the object loop consuming one pre-built columnar
    window (``kernel=False``),
  - ``kernel``    — the struct-of-arrays :class:`BatchKernel` sweep
    (``kernel=True``): eligible fault-free single-copy sessions are
    advanced by array operations, dispatching only state-changing events,
  - ``parallel``  — the columnar engine under ``run_parallel_batch`` with
    a *shared* event stream: the window is generated once, serialised,
    and replayed by every worker chunk instead of re-sampled per chunk.

Two further workloads exercise the rest of the kernel family:

* **multicopy** — the same graph and stream with L=4 spray-and-wait
  copies per session: ``columnar-multicopy`` vs ``kernel-multicopy``
  (the :class:`MultiCopyBatchKernel` acceptance numbers are quoted
  against this pair).
* **trace** — single-copy sessions replayed over the Infocom-2005-like
  synthetic trace: ``columnar-trace`` vs ``kernel-trace`` times the
  trace-replay eligibility path (``TraceReplayProcess`` feeding the
  struct-of-arrays kernels).
* **security** — the contact-graph-independent security Monte Carlo
  (traceable rate + path anonymity, 2000 trials) through
  :class:`SecurityBatchKernel`, the only security scorer: one
  single-point arm plus a fused figure-6-shaped (c, K) sweep arm sharing
  one trial block. A second
  set of arms (``security-backend-<name>``) then re-scores the same
  fused grid per kernel backend — numpy vs the embedded-C ``cc``
  backend when a C compiler is present — through the fused
  ``smallest_k_mask`` + ``security_scores`` ops, with compile warm-up
  outside the timer and result digests required to match bit-for-bit.
* **parallel** — the zero-copy shared-memory path: one columnar window
  registered in a :class:`SharedBlockArena`, replayed through the batch
  kernels by a warm persistent :class:`WorkerPool` (chunk pickles carry a
  few-hundred-byte descriptor, not the columns), timed against the serial
  ``kernel=True`` run at the same seed.
* **stream** — the streaming million-session path: ``consume="stream"``
  drains the event source window by window under a stated
  ``max_window_events`` ceiling (full workload: 10^6 sessions over a
  14400-minute horizon; ``--quick`` shrinks it for CI) against the
  one-shot kernel arm, which materialises an event window that *exceeds*
  that ceiling. Outcomes must be digest-identical; per-arm peak RSS is
  measured in forked children via ``resource.getrusage``.
* **backend** — the numpy kernel backend vs the embedded-C ``cc``
  backend sweeping the single-copy reference workload through
  :class:`BatchKernel` over one pre-produced columnar window. The
  ``warmup()`` call covers *every* compiled op — delivery trajectories
  and the security family alike — so first-call compilation can never
  pollute a timed arm of any mode; outcome digests must match across
  arms.

Engine rows are split into ``generation_seconds`` (producing the event
stream) and ``dispatch_seconds`` (everything else: sessions, dispatch,
bookkeeping), so producer and dispatch regressions are visible separately.
Paired dispatch modes are checked for byte-identity; the measurements
land in ``BENCH_engine.json`` at the repo root::

    python scripts/bench_engine.py                  # full reference workload
    python scripts/bench_engine.py --quick          # CI smoke (seconds)
    python scripts/bench_engine.py --mode kernel    # columnar + kernel only
    python scripts/bench_engine.py --mode multicopy # multi-copy kernel pair
    python scripts/bench_engine.py --mode trace     # trace-replay kernel pair
    python scripts/bench_engine.py --mode security  # security Monte Carlo kernel
    python scripts/bench_engine.py --mode parallel  # shared-arena worker pool
    python scripts/bench_engine.py --mode stream    # streaming 10^6-session path
    python scripts/bench_engine.py --mode backend   # numpy vs compiled backend
    python scripts/bench_engine.py --repeat 3       # best-of-3 walls
    python scripts/bench_engine.py --profile prof.out   # cProfile columnar run
                                                        # (the kernel sweep
                                                        # under --mode backend)

CI archives the JSON as a build artifact and ``scripts/bench_delta.py``
diffs a fresh run against the committed file (report-only) so the numbers
are tracked over time without gating merges on machine speed.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pickle
import platform
import pstats
import os
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.adversary.compromise import CompromiseModel
from repro.adversary.kernel import SecuritySweepVariant
from repro.contacts.events import (
    ColumnarEventSource,
    ExponentialContactProcess,
    TraceReplayProcess,
    stream_event_blocks,
)
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import infocom05_like_trace
from repro.core.onion_groups import OnionGroupDirectory
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.parallel import WorkerPool, run_parallel_batch
from repro.experiments.runners import (
    run_random_graph_batch,
    run_trace_batch,
    sample_endpoints,
    security_montecarlo,
    security_sweep_montecarlo,
)

MULTICOPY_COPIES = 4
TRACE_DEADLINE = 86400.0
SECURITY_COMPROMISE_RATE = 0.10
SECURITY_SWEEP_ONIONS = (3, 5, 10)

#: The backend-mode reference workload. Route depth is pinned to the
#: paper's deepest Fig. 5 sweep point (K = 10) and the batch doubled so
#: the sweep is dominated by the per-hop race/trajectory computation the
#: backends actually implement — at the shallow K = 3 default, shared
#: batch setup (target table, event index) and outcome construction
#: drown out the backend difference and the comparison measures mostly
#: common code.
BACKEND_ONION_ROUTERS = 10
BACKEND_SESSIONS = 2000

#: The streaming million-session workloads. ``deadline`` is far below the
#: horizon so the batch finishes (and the stream drain early-exits) long
#: before the window runs out; ``max_window_events`` is the stated memory
#: ceiling the one-shot path exceeds (``events > ceiling``) and the
#: streaming path provably respects per window.
STREAM_WORKLOADS = {
    "full": dict(
        sessions=1_000_000,
        horizon=14400.0,
        deadline=720.0,
        stream_window=1440.0,
        max_window_events=500_000,
    ),
    "quick": dict(
        sessions=20_000,
        horizon=2880.0,
        deadline=240.0,
        stream_window=288.0,
        max_window_events=100_000,
    ),
}


def count_events(graph, group_size, onion_routers, sessions, horizon, seed):
    """Events the engine dispatches for the batch's seeded stream.

    Replays the exact RNG consumption order of ``run_random_graph_batch``
    (directory, process block pre-draws, per-session endpoint/route draws)
    so the counted stream is the one the timed runs actually see.
    """
    generator = np.random.default_rng(seed)
    directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    process = ExponentialContactProcess(graph, rng=generator)
    for _ in range(sessions):
        source, destination = sample_endpoints(graph.n, generator)
        directory.select_route(source, destination, onion_routers, rng=generator)
    return sum(1 for _ in process.events_until(horizon))


def outcome_signature(pairs):
    """Hashable per-session outcome fields for cross-mode comparison."""
    return [
        (
            outcome.delivered,
            outcome.delivery_time,
            outcome.transmissions,
            outcome.status,
            tuple(tuple(path) for path in outcome.paths),
        )
        for _, outcome in pairs
    ]


def _best_wall(fn, repeat):
    """Run ``fn`` ``repeat`` times; return (best wall, first result)."""
    best = None
    result = None
    for attempt in range(repeat):
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        if best is None or wall < best:
            best = wall
        if attempt == 0:
            result = out
    return best, result


def producer_benchmark(graph, horizon, seed, repeat):
    """Raw event-generation timing: legacy iterator vs columnar window."""

    def legacy():
        process = ExponentialContactProcess(graph, rng=np.random.default_rng(seed))
        return sum(1 for _ in process.events_until(horizon))

    def columnar():
        process = ExponentialContactProcess(graph, rng=np.random.default_rng(seed))
        return len(process.events_until_columnar(horizon))

    legacy_wall, legacy_events = _best_wall(legacy, repeat)
    columnar_wall, columnar_events = _best_wall(columnar, repeat)
    if legacy_events != columnar_events:
        raise AssertionError(
            f"producer streams diverged: iterator yielded {legacy_events} "
            f"events, columnar {columnar_events}"
        )
    return {
        "events": legacy_events,
        "legacy_iterator_seconds": round(legacy_wall, 4),
        "columnar_seconds": round(columnar_wall, 4),
        "legacy_events_per_second": round(legacy_events / legacy_wall, 1),
        "columnar_events_per_second": round(columnar_events / columnar_wall, 1),
        "columnar_producer_speedup": round(legacy_wall / columnar_wall, 2),
    }


def _generation_seconds(graph, seed, horizon, columnar, repeat):
    """Time producing the batch stream exactly as the engine run sees it.

    Replays the batch's RNG prefix (directory construction consumes the
    generator before the process is built) so the generation phase is
    measured on the same stream state, then produces the whole window.
    """

    def produce():
        generator = np.random.default_rng(seed)
        OnionGroupDirectory(graph.n, 5, rng=generator)
        process = ExponentialContactProcess(graph, rng=generator)
        if columnar:
            return len(process.events_until_columnar(horizon))
        return sum(1 for _ in process.events_until(horizon))

    wall, _ = _best_wall(produce, repeat)
    return wall


def multicopy_benchmark(
    graph, group_size, onion_routers, copies, horizon, sessions, seed, repeat
):
    """Columnar vs struct-of-arrays kernel on the multi-copy workload.

    Same reference graph and seeded contact stream as the single-copy
    rows (session construction draws no randomness, so ``count_events``
    counts the identical stream), with ``copies`` source-sprayed copies
    per session. Returns ``(rows, identical, dispatch_speedup)``.
    """
    events = count_events(
        graph, group_size, onion_routers, sessions, horizon, seed
    )
    rows = {}
    signatures = {}
    for name, kernel in (
        ("columnar-multicopy", False),
        ("kernel-multicopy", True),
    ):

        def batch(kernel=kernel):
            return run_random_graph_batch(
                graph,
                group_size,
                onion_routers,
                copies=copies,
                horizon=horizon,
                sessions=sessions,
                rng=np.random.default_rng(seed),
                kernel=kernel,
            )

        wall, pairs = _best_wall(batch, repeat)
        generation = _generation_seconds(
            graph, seed, horizon, columnar=True, repeat=repeat
        )
        signatures[name] = outcome_signature(pairs)
        rows[name] = {
            "wall_seconds": round(wall, 4),
            "generation_seconds": round(generation, 4),
            "dispatch_seconds": round(max(wall - generation, 0.0), 4),
            "events": events,
            "events_per_second": round(events / wall, 1),
            "copies": copies,
            "delivered": sum(1 for _, o in pairs if o.delivered),
        }
    identical = signatures["columnar-multicopy"] == signatures["kernel-multicopy"]
    speedup = round(
        rows["columnar-multicopy"]["dispatch_seconds"]
        / max(rows["kernel-multicopy"]["dispatch_seconds"], 1e-9),
        2,
    )
    return rows, identical, speedup


def trace_benchmark(group_size, onion_routers, deadline, sessions, seed, repeat):
    """Columnar vs kernel dispatch over a replayed synthetic trace.

    Single-copy sessions placed on the Infocom-2005-like trace — the
    :class:`TraceReplayProcess` serves columnar windows, so this times
    the trace-replay eligibility path of the batch kernels. The
    "generation" phase here is replaying the recorded contacts into a
    columnar block, not sampling them. Returns
    ``(rows, identical, dispatch_speedup)``.
    """
    trace = infocom05_like_trace(rng=np.random.default_rng(seed)).normalized()

    def replay():
        return len(
            TraceReplayProcess(trace).events_until_columnar(trace.end + 1.0)
        )

    generation, events = _best_wall(replay, repeat)
    rows = {}
    signatures = {}
    for name, kernel in (
        ("columnar-trace", False),
        ("kernel-trace", True),
    ):

        def batch(kernel=kernel):
            return run_trace_batch(
                trace,
                group_size,
                onion_routers,
                copies=1,
                deadline=deadline,
                sessions=sessions,
                rng=np.random.default_rng(seed),
                kernel=kernel,
            )

        wall, pairs = _best_wall(batch, repeat)
        signatures[name] = outcome_signature(pairs)
        rows[name] = {
            "wall_seconds": round(wall, 4),
            "generation_seconds": round(generation, 4),
            "dispatch_seconds": round(max(wall - generation, 0.0), 4),
            "events": events,
            "events_per_second": round(events / wall, 1),
            "trace_nodes": trace.n,
            "deadline": deadline,
            "placed_sessions": len(pairs),
            "delivered": sum(1 for _, o in pairs if o.delivered),
        }
    identical = signatures["columnar-trace"] == signatures["kernel-trace"]
    speedup = round(
        rows["columnar-trace"]["dispatch_seconds"]
        / max(rows["kernel-trace"]["dispatch_seconds"], 1e-9),
        2,
    )
    return rows, identical, speedup


def security_benchmark(n, group_size, onion_routers, trials, seed, repeat):
    """Security Monte Carlo through :class:`SecurityBatchKernel`.

    ``security-kernel`` times the single-point reference workload (n=100,
    g=5, K=3, L=1, c=10%, ``trials`` trials); ``security-sweep-kernel``
    times a figure-6-shaped fused sweep (K ∈ {3, 5, 10} × the Table II
    compromise rates, one shared trial block). The kernel's agreement
    with the per-trial scalar objects is an oracle test in the test
    suite, not a bench arm. Returns the two rows.
    """
    wall, out = _best_wall(
        lambda: security_montecarlo(
            n=n,
            group_size=group_size,
            onion_routers=onion_routers,
            copies=1,
            compromise_rate=SECURITY_COMPROMISE_RATE,
            trials=trials,
            rng=np.random.default_rng(seed),
        ),
        repeat,
    )
    rows = {
        "security-kernel": {
            "wall_seconds": round(wall, 4),
            "trials": trials,
            "trials_per_second": round(trials / wall, 1),
            "traceable_rate": round(out[0], 6),
            "path_anonymity": round(out[1], 6),
        }
    }

    grid = tuple(
        SecuritySweepVariant(
            label=f"K={k} c={rate:g}",
            onion_routers=k,
            copies=1,
            compromise_rate=rate,
        )
        for k in SECURITY_SWEEP_ONIONS
        for rate in DEFAULT_CONFIG.compromise_rates
    )
    wall, _ = _best_wall(
        lambda: security_sweep_montecarlo(
            n, group_size, grid, trials=trials, rng=np.random.default_rng(seed)
        ),
        repeat,
    )
    rows["security-sweep-kernel"] = {
        "wall_seconds": round(wall, 4),
        "trials": trials,
        "grid_points": len(grid),
        "grid_scores_per_second": round(len(grid) * trials / wall, 1),
    }
    return rows


def security_backend_benchmark(n, group_size, trials, seed, repeat):
    """Per-backend arms of the fused security sweep: numpy vs cc.

    One shared :class:`SecurityTrialBlock` (the figure-6-shaped grid's
    widest point) is scored through :class:`SecurityBatchKernel` once per
    backend — ``numpy`` (reference) and ``cc`` when a C compiler is
    present — so the arms time exactly the fused ``smallest_k_mask`` +
    ``security_scores`` op chain over identical inputs. Each arm's
    compile warm-up is paid by ``warmup()`` plus one throwaway scoring
    pass *before* the timer; the per-arm result digest (sha256 over the
    concatenated traceable/anonymity arrays) must match the numpy
    reference bit-for-bit. Wall, stats and digest all come from the
    fastest attempt. Returns ``(rows, identity_checks, speedups)``.
    """
    from repro.adversary.kernel import (
        SecurityBatchKernel,
        sample_security_block,
    )
    from repro.sim.backend import CcBackend, resolve_backend

    # The figure-6 grid shape: every onion-router count the paper sweeps
    # (K = 1 … 10) crossed with the config's compromise rates, scored
    # against one shared block sampled at the widest K.
    grid = tuple(
        SecuritySweepVariant(
            label=f"K={k} c={rate:g}",
            onion_routers=k,
            copies=1,
            compromise_rate=rate,
        )
        for k in range(1, 11)
        for rate in DEFAULT_CONFIG.compromise_rates
    )
    block = sample_security_block(
        n,
        group_size,
        k_max=max(v.onion_routers for v in grid),
        l_max=1,
        trials=trials,
        rng=np.random.default_rng(seed),
    )
    model = CompromiseModel(n, SECURITY_COMPROMISE_RATE)

    def digest_of(scored):
        digest = hashlib.sha256()
        for traceable, anonymity in scored:
            digest.update(np.ascontiguousarray(traceable).tobytes())
            digest.update(np.ascontiguousarray(anonymity).tobytes())
        return digest.hexdigest()

    compiled = "cc" if CcBackend.available() else None
    arm_names = ["numpy"] + ([compiled] if compiled else [])

    rows = {}
    walls = {}
    digests = {}
    for name in arm_names:
        # Compile warm-up and one throwaway pass outside the timer, so
        # the arms measure steady-state scoring only.
        resolve_backend(name).warmup()
        SecurityBatchKernel(block, model, backend=name).score(grid)
        best = None
        for _ in range(repeat):
            kernel = SecurityBatchKernel(block, model, backend=name)
            start = time.perf_counter()
            scored = kernel.score(grid)
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
                digest = digest_of(scored)
                stats = dict(kernel.stats)
        row_name = f"security-backend-{name}"
        walls[row_name] = best
        digests[row_name] = digest
        rows[row_name] = {
            "wall_seconds": round(best, 4),
            "backend": stats["backend"],
            "requested_backend": name,
            "trials": trials,
            "grid_points": len(grid),
            "grid_scores_per_second": round(len(grid) * trials / best, 1),
            "backend_seconds": round(stats["backend_seconds"], 4),
            "anonymity_lookup_hits": stats["anonymity_lookup_hits"],
            "anonymity_lookup_misses": stats["anonymity_lookup_misses"],
            "mask_cache_hits": stats["mask_cache_hits"],
            "mask_cache_misses": stats["mask_cache_misses"],
            "result_digest": digest,
        }

    identity_checks = {
        "security_backend": all(
            digest == digests["security-backend-numpy"]
            for digest in digests.values()
        )
    }
    speedups = {}
    if compiled is not None:
        compiled_row = f"security-backend-{compiled}"
        speedups["speedup_security_backend_vs_numpy"] = round(
            walls["security-backend-numpy"] / max(walls[compiled_row], 1e-9),
            2,
        )
        rows[compiled_row]["speedup_vs_numpy"] = speedups[
            "speedup_security_backend_vs_numpy"
        ]
    else:
        rows["security-backend-numpy"]["note"] = (
            "no compiled backend available in this environment (no C "
            "compiler found); only the numpy arm was timed"
        )
    return rows, identity_checks, speedups


def _signature_digest(pairs) -> str:
    """sha256 over the canonical outcome signature (cross-process safe)."""
    canonical = "\n".join(repr(sig) for sig in outcome_signature(pairs))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def backend_benchmark(
    graph, group_size, onion_routers, horizon, sessions, seed, repeat,
    profile_path=None,
):
    """Numpy vs compiled kernel backend on the single-copy reference sweep.

    The workload replays the exact RNG order of ``run_random_graph_batch``
    (directory, process pre-draws, per-session endpoint/route draws), then
    pre-produces the columnar window once — so both arms time *only* the
    :class:`~repro.sim.kernel.BatchKernel` sweep over identical inputs.
    ``run_benchmark`` pins this mode to its own reference workload
    (``BACKEND_ONION_ROUTERS``/``BACKEND_SESSIONS``): deep K = 10 routes
    keep the sweep dominated by the backend's race computation rather
    than by the batch setup both arms share.
    The compiled arm is the embedded-C ``cc`` backend when a C compiler
    is present; its compile cost is paid by an explicit ``warmup()`` plus
    one throwaway run *before* the timer starts. Each arm's wall, stats,
    digest and delivered count come from its fastest attempt. Outcome
    digests must match across arms. Returns
    ``(rows, identity_checks, speedups)``.
    """
    from repro.core.single_copy import SingleCopySession
    from repro.sim.backend import CcBackend, resolve_backend
    from repro.sim.kernel import BatchKernel
    from repro.sim.message import Message

    generator = np.random.default_rng(seed)
    directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    process = ExponentialContactProcess(graph, rng=generator)
    specs = []
    for _ in range(sessions):
        src, dst = sample_endpoints(graph.n, generator)
        route = directory.select_route(src, dst, onion_routers, rng=generator)
        specs.append((src, dst, route))
    block = process.events_until_columnar(horizon)

    def fresh_sessions():
        return [
            SingleCopySession(Message(src, dst, 0.0, horizon), route)
            for src, dst, route in specs
        ]

    def run_arm(backend_name):
        resolve_backend(backend_name).warmup()  # compile outside the timer
        BatchKernel(fresh_sessions(), backend=backend_name).run(block)
        best = None
        for _ in range(repeat):
            batch = fresh_sessions()
            kernel = BatchKernel(batch, backend=backend_name)
            start = time.perf_counter()
            kernel.run(block)
            wall = time.perf_counter() - start
            if best is None or wall < best:
                best = wall
                pairs = [(None, session.outcome()) for session in batch]
                digest = _signature_digest(pairs)
                stats = dict(kernel.stats)
                delivered = sum(1 for _, o in pairs if o.delivered)
        return best, digest, stats, delivered

    arms = [("numpy", "backend-numpy")]
    compiled = "cc" if CcBackend.available() else None
    if compiled is not None:
        arms.append((compiled, f"backend-{compiled}"))

    rows = {}
    walls = {}
    digests = {}
    for backend_name, row_name in arms:
        wall, digest, stats, delivered = run_arm(backend_name)
        walls[row_name] = wall
        digests[row_name] = digest
        rows[row_name] = {
            "wall_seconds": round(wall, 4),
            "backend": stats["backend"],
            "requested_backend": backend_name,
            "events": len(block),
            "events_per_second": round(len(block) / wall, 1),
            "sessions": sessions,
            "delivered": delivered,
            "rounds": stats["rounds"],
            "scalar_dispatches": stats["scalar_dispatches"],
            "backend_seconds": round(stats["backend_seconds"], 4),
            "kernel_dispatch_seconds": round(stats["dispatch_seconds"], 4),
            "active_peak": stats["active_peak"],
            "active_total": stats["active_total"],
            "outcome_digest": digest,
        }
    identity_checks = {}
    speedups = {}
    if compiled is not None:
        compiled_row = f"backend-{compiled}"
        identity_checks["backend"] = (
            digests["backend-numpy"] == digests[compiled_row]
        )
        speedups["speedup_backend_vs_numpy"] = round(
            walls["backend-numpy"] / max(walls[compiled_row], 1e-9), 2
        )
        rows[compiled_row]["speedup_vs_numpy"] = speedups[
            "speedup_backend_vs_numpy"
        ]
    else:
        rows["backend-numpy"]["note"] = (
            "no compiled backend available in this environment (no C "
            "compiler found); only the numpy arm was timed"
        )

    if profile_path is not None:
        timed_backend = compiled if compiled is not None else "numpy"
        batch = fresh_sessions()
        kernel = BatchKernel(batch, backend=timed_backend)
        profiler = cProfile.Profile()
        profiler.enable()
        kernel.run(block)
        profiler.disable()
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler).sort_stats("tottime")
        stats.print_stats(12)
        print(f"profile ({timed_backend} backend kernel run): {profile_path}")

    return rows, identity_checks, speedups


def _run_forked(fn):
    """Run ``fn()`` in a forked child; ``(result, peak_rss_kb)``.

    ``ru_maxrss`` is a process-lifetime high-water mark, so measuring an
    arm inside the parent would report the *max* across every arm run so
    far. A forked child starts its own accounting (inheriting roughly the
    parent's current RSS — subtract a no-op baseline child to isolate the
    arm); the result travels back over a pipe. Falls back to running
    inline with ``rss=None`` where ``fork`` is unavailable.
    """
    if resource is None or not hasattr(os, "fork"):
        return fn(), None
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 0
        try:
            os.close(read_fd)
            out = fn()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(write_fd, "wb") as sink:
                sink.write(pickle.dumps((out, rss)))
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as source:
        payload = source.read()
    _pid, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError("forked benchmark arm failed")
    return pickle.loads(payload)


def parallel_benchmark(
    graph, group_size, onion_routers, copies, horizon, sessions, workers,
    seed, repeat,
):
    """Zero-copy shared-arena parallel batch vs the serial kernel path.

    One columnar window is generated in the parent and registered in the
    pool-owned shared-memory arena; every worker chunk reattaches it and
    replays it through the batch kernels. The serial arm runs the same
    seed through ``kernel=True`` — the strongest serial baseline, so
    ``speedup_vs_serial_kernel`` measures what parallelism adds on top of
    the kernels, not on top of a strawman. The merge must be byte-
    identical across worker counts (the default chunk layout is a pure
    function of the session count). Returns ``(rows, identity_checks)``.
    """
    events = count_events(
        graph, group_size, onion_routers, sessions, horizon, seed
    )

    def serial():
        return run_random_graph_batch(
            graph,
            group_size,
            onion_routers,
            copies=copies,
            horizon=horizon,
            sessions=sessions,
            rng=np.random.default_rng(seed),
            kernel=True,
        )

    serial_wall, serial_pairs = _best_wall(serial, repeat)

    block = ExponentialContactProcess(
        graph, rng=np.random.default_rng(seed)
    ).events_until_columnar(horizon)

    def chunked(workers_arg):
        return run_parallel_batch(
            run_random_graph_batch,
            sessions=sessions,
            workers=workers_arg,
            rng=np.random.default_rng(seed),
            shared_events=block,
            graph=graph,
            group_size=group_size,
            onion_routers=onion_routers,
            copies=copies,
            horizon=horizon,
        )

    with WorkerPool(workers) as pool:
        pool.warm()
        wall, pairs = _best_wall(lambda: chunked(pool), repeat)
        descriptor_bytes = len(pickle.dumps(pool.share_block(block)))
        effective = pool.processes
    invariant = outcome_signature(chunked(2)) == outcome_signature(pairs)

    row = {
        "wall_seconds": round(wall, 4),
        "serial_kernel_wall_seconds": round(serial_wall, 4),
        "workers_requested": workers,
        "workers_effective": effective,
        "events": events,
        "events_per_second": round(events / wall, 1),
        "delivered": sum(1 for _, o in pairs if o.delivered),
        "delivered_serial": sum(1 for _, o in serial_pairs if o.delivered),
        "descriptor_bytes": descriptor_bytes,
        "block_npz_bytes": len(block.to_bytes()),
        "speedup_vs_serial_kernel": round(serial_wall / wall, 2),
    }
    if (os.cpu_count() or 1) == 1:
        row["warning"] = (
            "cpu_count=1: the worker processes share one core, so "
            "speedup_vs_serial_kernel measures dispatch overhead, not "
            "concurrency, on this machine"
        )
    return {"parallel-kernel": row}, {"parallel_worker_invariance": invariant}


def stream_benchmark(graph, group_size, onion_routers, seed, quick):
    """The streaming million-session path vs one-shot kernel consumption.

    Both arms run the same seeded workload with ``deadline`` far below the
    horizon. The ``full`` arm (``consume="auto"``) materialises the
    entire event window before dispatching — its live event set exceeds
    the stated ceiling. The ``stream`` arm drains the source window by
    window under ``max_window_events``, never holding more than the
    ceiling, and exits as soon as every session is delivered or expired.
    Outcomes must be byte-identical (compared by digest — a million
    signatures never leave the forked child). Peak RSS per arm comes from
    forked children (see :func:`_run_forked`). Returns
    ``(row, identity_checks)``.
    """
    params = STREAM_WORKLOADS["quick" if quick else "full"]
    sessions = params["sessions"]
    horizon = params["horizon"]
    deadline = params["deadline"]
    window = params["stream_window"]
    ceiling = params["max_window_events"]

    def arm(consume, **knobs):
        def run():
            start = time.perf_counter()
            pairs = run_random_graph_batch(
                graph,
                group_size,
                onion_routers,
                copies=1,
                horizon=horizon,
                sessions=sessions,
                rng=np.random.default_rng(seed),
                deadline=deadline,
                consume=consume,
                **knobs,
            )
            wall = time.perf_counter() - start
            return {
                "wall": wall,
                "delivered": sum(1 for _, o in pairs if o.delivered),
                "digest": _signature_digest(pairs),
            }

        return run

    def census():
        # Replay the batch's RNG prefix, then measure the stream: total
        # events, and the window census of a full ceiling-bounded drain.
        generator = np.random.default_rng(seed)
        directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
        process = ExponentialContactProcess(graph, rng=generator)
        for _ in range(sessions):
            src, dst = sample_endpoints(graph.n, generator)
            directory.select_route(src, dst, onion_routers, rng=generator)
        block = process.events_until_columnar(horizon)
        lens = [
            len(w)
            for w in stream_event_blocks(
                ColumnarEventSource(block),
                horizon,
                window=window,
                max_window_events=ceiling,
            )
        ]
        return {
            "events": len(block),
            "windows_full_drain": len(lens),
            "peak_window_events": max(lens) if lens else 0,
        }

    _none, baseline_rss = _run_forked(lambda: None)
    counts, _rss = _run_forked(census)
    full, full_rss = _run_forked(arm("auto"))
    stream, stream_rss = _run_forked(
        arm("stream", stream_window=window, max_window_events=ceiling)
    )

    events = counts["events"]
    row = {
        "sessions": sessions,
        "horizon": horizon,
        "deadline": deadline,
        "stream_window": window,
        "ceiling_events": ceiling,
        "events": events,
        "windows_full_drain": counts["windows_full_drain"],
        "peak_window_events": counts["peak_window_events"],
        "full_window_exceeds_ceiling": events > ceiling,
        "full_wall_seconds": round(full["wall"], 4),
        "stream_wall_seconds": round(stream["wall"], 4),
        "events_per_second_full": round(events / full["wall"], 1),
        "events_per_second_stream": round(events / stream["wall"], 1),
        "sessions_per_second_stream": round(sessions / stream["wall"], 1),
        "delivered": stream["delivered"],
        "speedup_stream_vs_full": round(full["wall"] / stream["wall"], 2),
        "note": (
            "both arms share the seed and deadline << horizon; the stream "
            "arm stops draining once every session is delivered or "
            "expired and never holds more than ceiling_events events at "
            "once, so events_per_second_stream is a throughput proxy over "
            "the full stream length, tracked for trend only"
        ),
    }
    if baseline_rss is not None:
        row["baseline_rss_kb"] = baseline_rss
        row["peak_rss_full_kb"] = full_rss
        row["peak_rss_stream_kb"] = stream_rss
        delta_full = max(full_rss - baseline_rss, 0)
        delta_stream = max(stream_rss - baseline_rss, 0)
        row["rss_delta_full_kb"] = delta_full
        row["rss_delta_stream_kb"] = delta_stream
        row["rss_saving_ratio"] = round(delta_full / max(delta_stream, 1), 2)
    return row, {"stream": full["digest"] == stream["digest"]}


def run_benchmark(
    sessions: int,
    n: int,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    workers: int,
    seed: int,
    repeat: int = 1,
    profile_path: Path | None = None,
    mode: str = "all",
    security_trials: int = 2000,
    quick: bool = False,
) -> dict:
    graph_rng = np.random.default_rng(seed)
    graph = random_contact_graph(
        n, DEFAULT_CONFIG.mean_intercontact_range, rng=graph_rng
    )
    single_modes = mode in ("all", "kernel")
    results = {}
    signatures = {}
    identity_checks = {}
    speedups = {}
    producer = None

    if single_modes:
        events = count_events(
            graph, group_size, onion_routers, sessions, horizon, seed
        )
        producer = producer_benchmark(graph, horizon, seed, repeat)

        batch_modes = (
            ("indexed", dict(consume="iterator")),
            ("columnar", dict(kernel=False)),
            ("kernel", dict(kernel=True)),
        )
        if mode == "kernel":
            # CI smoke subset: just the pair whose identity/speedup the
            # kernel acceptance criteria are quoted against.
            batch_modes = tuple(
                (name, kwargs) for name, kwargs in batch_modes
                if name in ("columnar", "kernel")
            )
        for bench_mode, mode_kwargs in batch_modes:

            def batch(mode_kwargs=mode_kwargs):
                return run_random_graph_batch(
                    graph,
                    group_size,
                    onion_routers,
                    copies=copies,
                    horizon=horizon,
                    sessions=sessions,
                    rng=np.random.default_rng(seed),
                    **mode_kwargs,
                )

            wall, pairs = _best_wall(batch, repeat)
            generation = _generation_seconds(
                graph,
                seed,
                horizon,
                columnar=(bench_mode in ("columnar", "kernel")),
                repeat=repeat,
            )
            signatures[bench_mode] = outcome_signature(pairs)
            results[bench_mode] = {
                "wall_seconds": round(wall, 4),
                "generation_seconds": round(generation, 4),
                "dispatch_seconds": round(max(wall - generation, 0.0), 4),
                "events": events,
                "events_per_second": round(events / wall, 1),
                "delivered": sum(1 for _, o in pairs if o.delivered),
            }
        identity_checks["single"] = all(
            sig == signatures["columnar"] for sig in signatures.values()
        )
        speedups["speedup_kernel_vs_columnar"] = round(
            results["columnar"]["dispatch_seconds"]
            / max(results["kernel"]["dispatch_seconds"], 1e-9),
            2,
        )

    if mode in ("all", "multicopy"):
        rows, identical, speedup = multicopy_benchmark(
            graph,
            group_size,
            onion_routers,
            MULTICOPY_COPIES,
            horizon,
            sessions,
            seed,
            repeat,
        )
        results.update(rows)
        identity_checks["multicopy"] = identical
        speedups["speedup_kernel_multicopy_vs_columnar"] = speedup

    if mode in ("all", "trace"):
        rows, identical, speedup = trace_benchmark(
            group_size, onion_routers, TRACE_DEADLINE, sessions, seed, repeat
        )
        results.update(rows)
        identity_checks["trace"] = identical
        speedups["speedup_kernel_trace_vs_columnar"] = speedup

    if mode in ("all", "security"):
        results.update(
            security_benchmark(
                n, group_size, onion_routers, security_trials, seed, repeat
            )
        )
        rows, backend_checks, backend_speedups = security_backend_benchmark(
            n, group_size, security_trials, seed, repeat
        )
        results.update(rows)
        identity_checks.update(backend_checks)
        speedups.update(backend_speedups)

    if mode in ("all", "backend"):
        rows, backend_checks, backend_speedups = backend_benchmark(
            graph,
            group_size,
            BACKEND_ONION_ROUTERS,
            horizon,
            BACKEND_SESSIONS,
            seed,
            repeat,
            profile_path=profile_path if mode == "backend" else None,
        )
        results.update(rows)
        identity_checks.update(backend_checks)
        speedups.update(backend_speedups)

    if profile_path is not None and mode != "backend":
        profiler = cProfile.Profile()
        profiler.enable()
        run_random_graph_batch(
            graph,
            group_size,
            onion_routers,
            copies=copies,
            horizon=horizon,
            sessions=sessions,
            rng=np.random.default_rng(seed),
            kernel=False,
        )
        profiler.disable()
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler).sort_stats("tottime")
        stats.print_stats(12)
        print(f"profile: {profile_path}")

    if mode == "all":
        # Shared-stream parallel: generate the window once in the parent,
        # serialise it, and let every worker chunk replay it. The block
        # generation and serialisation are charged to the parallel wall —
        # the comparison against the indexed row is end-to-end.
        def shared_block():
            return ExponentialContactProcess(
                graph, rng=np.random.default_rng(seed)
            ).events_until_columnar(horizon)

        with WorkerPool(workers) as pool:
            pool.warm()

            def parallel_batch():
                block = shared_block()
                return (
                    block,
                    run_parallel_batch(
                        run_random_graph_batch,
                        sessions=sessions,
                        workers=pool,
                        rng=np.random.default_rng(seed),
                        shared_events=block,
                        graph=graph,
                        group_size=group_size,
                        onion_routers=onion_routers,
                        copies=copies,
                        horizon=horizon,
                    ),
                )

            wall, (block, parallel_pairs) = _best_wall(parallel_batch, repeat)
            effective = pool.processes

        delivered_serial = results["columnar"]["delivered"]
        delivered_parallel = sum(1 for _, o in parallel_pairs if o.delivered)
        results["parallel"] = {
            "wall_seconds": round(wall, 4),
            "workers_requested": workers,
            "workers_effective": effective,
            "stream_events": len(block),
            "stream_bytes": len(block.to_bytes()),
            "delivered": delivered_parallel,
            "delivered_serial": delivered_serial,
            "delivered_delta": delivered_parallel - delivered_serial,
            "note": (
                "parallel chunks draw endpoints/routes from spawned "
                "SeedSequence children, a different (equally valid) sample "
                "than the serial master stream; a small delivered-count "
                "divergence is expected and bounded by the tolerance "
                "asserted in benchmarks/test_perf_engine.py"
            ),
            "speedup_vs_indexed": round(
                results["indexed"]["wall_seconds"] / wall, 2
            ),
        }
        if (os.cpu_count() or 1) == 1:
            results["parallel"]["warning"] = (
                "cpu_count=1: every worker process shares the single core, "
                "so the parallel wall measures serialisation overhead, not "
                "concurrency; speedup_vs_indexed is not meaningful on this "
                "machine"
            )

    if mode in ("all", "parallel"):
        rows, parallel_checks = parallel_benchmark(
            graph, group_size, onion_routers, copies, horizon, sessions,
            workers, seed, repeat,
        )
        results.update(rows)
        identity_checks.update(parallel_checks)
        speedups["speedup_parallel_vs_serial_kernel"] = rows[
            "parallel-kernel"
        ]["speedup_vs_serial_kernel"]

    if mode in ("all", "stream"):
        row, stream_checks = stream_benchmark(
            graph, group_size, onion_routers, seed, quick
        )
        results["stream"] = row
        identity_checks.update(stream_checks)
        speedups["speedup_stream_vs_full"] = row["speedup_stream_vs_full"]

    report = {
        "workload": {
            "sessions": sessions,
            "n": n,
            "group_size": group_size,
            "onion_routers": onion_routers,
            "copies": copies,
            "horizon": horizon,
            "seed": seed,
            "security_trials": security_trials,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "workers_requested": workers,
            "workers_effective": min(workers, os.cpu_count() or 1),
        },
        "results": results,
        "identical_outcomes": all(identity_checks.values()),
        "identity_checks": identity_checks,
    }
    if producer is not None:
        report["producer"] = producer
    report.update(speedups)
    if mode == "all":
        report["speedup_columnar_vs_indexed"] = round(
            results["indexed"]["wall_seconds"]
            / results["columnar"]["wall_seconds"],
            2,
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke workload instead of the 1000-session reference",
    )
    parser.add_argument(
        "--mode",
        choices=(
            "all", "kernel", "multicopy", "trace", "security", "parallel",
            "stream", "backend",
        ),
        default="all",
        help="'all' runs every strategy plus the multicopy, trace, "
        "security, parallel, stream, and backend workloads; 'kernel', "
        "'multicopy', "
        "and 'trace' each time only their columnar/kernel pair, 'security' "
        "times the security Monte Carlo kernel and its per-backend arms, "
        "'parallel' times the shared-arena pool against the "
        "serial kernel path, 'stream' drains the streaming workload "
        "(million sessions, or the quick variant with --quick) under its "
        "memory ceiling against the one-shot kernel path, and 'backend' "
        "times the numpy kernel backend against the compiled cc backend "
        "on the single-copy reference sweep with compile warm-up "
        "excluded and outcome digests checked",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per timing; the best wall is reported",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="PATH",
        help="cProfile the columnar serial run and dump stats to PATH",
    )
    parser.add_argument(
        "--output", type=Path, default=ROOT / "BENCH_engine.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    sessions = args.sessions
    if sessions is None:
        sessions = 100 if args.quick else 1000
    horizon = 240.0 if args.quick else 720.0
    security_trials = 400 if args.quick else 2000

    report = run_benchmark(
        sessions=sessions,
        n=100,
        group_size=5,
        onion_routers=3,
        copies=1,
        horizon=horizon,
        workers=args.workers,
        seed=args.seed,
        repeat=max(1, args.repeat),
        profile_path=args.profile,
        mode=args.mode,
        security_trials=security_trials,
        quick=args.quick,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    producer = report.get("producer")
    results = report["results"]
    print(f"workload: {sessions} sessions, n=100, horizon={horizon:g}")
    if producer is not None:
        print(
            f"producer:  iterator {producer['legacy_iterator_seconds']:.3f}s, "
            f"columnar {producer['columnar_seconds']:.3f}s  "
            f"speedup {producer['columnar_producer_speedup']:.2f}x"
        )
    for name in (
        "indexed",
        "columnar",
        "kernel",
        "columnar-multicopy",
        "kernel-multicopy",
        "columnar-trace",
        "kernel-trace",
    ):
        row = results.get(name)
        if row is None:
            continue
        print(
            f"{name + ':':<19} {row['wall_seconds']:8.3f}s "
            f"(gen {row['generation_seconds']:.3f}s + "
            f"dispatch {row['dispatch_seconds']:.3f}s, "
            f"{row['events_per_second']:>9.1f} events/s)"
        )
    row = results.get("security-kernel")
    if row is not None:
        print(
            f"{'security-kernel:':<22} {row['wall_seconds']:8.3f}s "
            f"({row['trials_per_second']:>9.1f} trials/s, "
            f"traceable {row['traceable_rate']:.4f}, "
            f"anonymity {row['path_anonymity']:.4f})"
        )
    row = results.get("security-sweep-kernel")
    if row is not None:
        print(
            f"{'security-sweep-kernel:':<22} {row['wall_seconds']:8.3f}s "
            f"({row['grid_points']} grid points, "
            f"{row['grid_scores_per_second']:>9.1f} scores/s)"
        )
    for name, row in sorted(results.items()):
        if not name.startswith("backend-"):
            continue
        print(
            f"{name + ':':<22} {row['wall_seconds']:8.3f}s "
            f"(backend {row['backend']}, {row['rounds']} rounds, "
            f"{row['scalar_dispatches']} scalar dispatches, "
            f"{row['events_per_second']:>9.1f} events/s)"
        )
    for name, row in sorted(results.items()):
        if not name.startswith("security-backend-"):
            continue
        print(
            f"{name + ':':<26} {row['wall_seconds']:8.3f}s "
            f"(backend {row['backend']}, {row['grid_points']} grid points, "
            f"{row['grid_scores_per_second']:>9.1f} scores/s)"
        )
    parallel = results.get("parallel")
    if parallel is not None:
        print(
            f"parallel:  {parallel['wall_seconds']:8.3f}s "
            f"({parallel['workers_requested']} workers requested, "
            f"{parallel['workers_effective']} effective, "
            f"{parallel['stream_bytes']} stream bytes)  "
            f"speedup vs indexed {parallel['speedup_vs_indexed']:.2f}x"
        )
        print(
            f"parallel delivered {parallel['delivered']} vs serial "
            f"{parallel['delivered_serial']} "
            f"(delta {parallel['delivered_delta']:+d}; expected — spawned "
            "chunk seeds sample different endpoints/routes)"
        )
        warning = parallel.get("warning")
        if warning:
            print(f"WARNING: {warning}", file=sys.stderr)
            summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
            if summary_path:
                with open(summary_path, "a", encoding="utf-8") as handle:
                    handle.write(f"> ⚠ engine bench: {warning}\n")
    shared = results.get("parallel-kernel")
    if shared is not None:
        print(
            f"parallel-kernel: {shared['wall_seconds']:8.3f}s "
            f"({shared['workers_effective']} workers, "
            f"{shared['events_per_second']:>9.1f} events/s, "
            f"descriptor {shared['descriptor_bytes']} B vs "
            f"{shared['block_npz_bytes']} B serialised)  "
            f"speedup vs serial kernel "
            f"{shared['speedup_vs_serial_kernel']:.2f}x"
        )
        warning = shared.get("warning")
        if warning:
            print(f"WARNING: {warning}", file=sys.stderr)
            summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
            if summary_path:
                with open(summary_path, "a", encoding="utf-8") as handle:
                    handle.write(f"> ⚠ engine bench: {warning}\n")
    stream = results.get("stream")
    if stream is not None:
        print(
            f"stream:    {stream['stream_wall_seconds']:8.3f}s vs full "
            f"{stream['full_wall_seconds']:.3f}s "
            f"({stream['sessions']} sessions, {stream['events']} events, "
            f"{stream['windows_full_drain']} windows, "
            f"peak window {stream['peak_window_events']} <= ceiling "
            f"{stream['ceiling_events']}; full one-shot window exceeds "
            f"ceiling: {stream['full_window_exceeds_ceiling']})"
        )
        if stream.get("peak_rss_stream_kb") is not None:
            print(
                f"stream RSS: full {stream['rss_delta_full_kb']} kB vs "
                f"stream {stream['rss_delta_stream_kb']} kB above baseline "
                f"(saving {stream['rss_saving_ratio']:.2f}x)"
            )
    if "speedup_columnar_vs_indexed" in report:
        print(
            f"columnar vs indexed: "
            f"{report['speedup_columnar_vs_indexed']:.2f}x"
        )
    for label, key in (
        ("kernel vs columnar dispatch", "speedup_kernel_vs_columnar"),
        (
            "multicopy kernel vs columnar dispatch",
            "speedup_kernel_multicopy_vs_columnar",
        ),
        (
            "trace kernel vs columnar dispatch",
            "speedup_kernel_trace_vs_columnar",
        ),
        (
            "compiled backend vs numpy (single-copy kernel)",
            "speedup_backend_vs_numpy",
        ),
        (
            "compiled backend vs numpy (security fused sweep)",
            "speedup_security_backend_vs_numpy",
        ),
    ):
        if key in report:
            print(f"{label}: {report[key]:.2f}x")
    print(f"identical outcomes: {report['identical_outcomes']}")
    print(f"report: {args.output}")
    if not report["identical_outcomes"]:
        print(
            "ERROR: serial dispatch modes produced divergent outcomes",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
