#!/usr/bin/env python
"""Engine path benchmark: paired code paths timed on identical inputs.

Every workload here runs two live code paths over the same seeded
inputs, requires identical outcomes, and reports the ratio between them.
perfbench (``perfbench/``) times the figures, the stream, the worker pool
and the per-layer split end to end; it never runs these paths side by
side, so their ratios live here.

Reference workload (paper-scale defaults): 1000 single-copy onion
sessions over one n=100 random contact graph (g=5, K=3, L=1) with a
720-minute horizon.

* **kernel** — the batch through the engine's object loop over one
  columnar window (``columnar``, ``kernel=False``) vs the
  struct-of-arrays :class:`BatchKernel` sweep (``kernel``).
* **multicopy** — the same graph and stream with L=4 spray-and-wait
  copies per session: ``columnar-multicopy`` vs ``kernel-multicopy``.
* **trace** — single-copy sessions replayed over the Infocom-2005-like
  synthetic trace: ``columnar-trace`` vs ``kernel-trace``. Heterogeneous
  inter-contact times load the kernels differently from the exponential
  model.
* **backend** — the numpy kernel backend vs the embedded-C ``cc``
  backend (when a C compiler is present) sweeping one pre-produced
  columnar window through :class:`BatchKernel`.

Engine rows split the wall into ``generation_seconds`` (producing the
event stream, timed in the same attempt just before the arm runs) and
``dispatch_seconds`` (everything else), and the engine ratios are quoted
on the dispatch phase; the backend ratio is quoted on the wall. A ratio
whose phase time is not positive (generation timed longer than an arm's
whole wall) is written as ``null``, a failed measurement that
``bench_delta.py`` fails on. Each arm reports its best-of-``--repeat``
wall, and its generation time, stats, digest and delivered count come
from that same fastest attempt.
Backend compile warm-up runs outside the timer. The report lands in
``BENCH_engine.json`` at the repo root::

    python scripts/bench_engine.py                  # every workload
    python scripts/bench_engine.py --quick          # CI smoke (seconds)
    python scripts/bench_engine.py --mode kernel    # columnar + kernel only
    python scripts/bench_engine.py --mode multicopy # multi-copy kernel pair
    python scripts/bench_engine.py --mode trace     # trace-replay kernel pair
    python scripts/bench_engine.py --mode backend   # numpy vs cc kernel sweep
    python scripts/bench_engine.py --repeat 3       # best-of-3 walls

The script exits non-zero when paired paths disagree;
``scripts/bench_delta.py`` diffs a run against the committed file and
gates the machine-independent ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.contacts.events import ExponentialContactProcess, TraceReplayProcess
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import infocom05_like_trace
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.single_copy import SingleCopySession
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runners import (
    run_random_graph_batch,
    run_trace_batch,
    sample_endpoints,
)
from repro.sim.backend import CcBackend, resolve_backend
from repro.sim.kernel import BatchKernel
from repro.sim.message import Message

MULTICOPY_COPIES = 4
TRACE_DEADLINE = 86400.0

#: The backend-mode reference workload: the paper's deepest Fig. 5 route
#: (K = 10) and a doubled batch, so the per-hop race the backends
#: implement dominates the sweep rather than the batch setup both share.
BACKEND_ONION_ROUTERS = 10
BACKEND_SESSIONS = 2000


def batch_stream(graph, seed, group_size=None, onion_routers=None, sessions=0):
    """The seeded contact process as the batch's engine finds it.

    With ``group_size``, replays ``run_random_graph_batch``'s whole draw
    order before any event is produced: the directory, the process's
    block pre-draws, then each session's endpoint and route draws. Without
    it, the bare seeded process.
    """
    generator = np.random.default_rng(seed)
    if group_size is not None:
        directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    process = ExponentialContactProcess(graph, rng=generator)
    for _ in range(sessions):
        source, destination = sample_endpoints(graph.n, generator)
        directory.select_route(source, destination, onion_routers, rng=generator)
    return process


def produce_events(
    graph, seed, horizon, group_size=None, onion_routers=None, sessions=0
):
    """Produce the seeded contact stream; returns its event count.

    With the batch's ``group_size``, ``onion_routers`` and ``sessions``,
    the stream is the one the engine run over the same seed sees (see
    :func:`batch_stream`), so the count is the events the engine
    dispatches.
    """
    process = batch_stream(graph, seed, group_size, onion_routers, sessions)
    return len(process.events_until_columnar(horizon))


def observe_batch(pairs) -> dict:
    """An engine arm's outcome digest and counts, in batch order."""
    canonical = "\n".join(
        repr(
            (
                outcome.delivered,
                outcome.delivery_time,
                outcome.transmissions,
                outcome.status,
                tuple(tuple(path) for path in outcome.paths),
            )
        )
        for _, outcome in pairs
    )
    return {
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "placed_sessions": len(pairs),
        "delivered": sum(1 for _, outcome in pairs if outcome.delivered),
    }


def timed(fn):
    """``(wall, result)`` of one ``fn()`` call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def call_arm(fn, observe=lambda result: {}):
    """An attempt that times the whole ``fn()`` call and observes its result."""

    def attempt():
        wall, result = timed(fn)
        return wall, observe(result)

    return attempt


def best_of(attempt, repeat):
    """``(wall, observed)`` of the fastest of ``repeat`` attempts."""
    return min((attempt() for _ in range(repeat)), key=lambda run: run[0])


def compare(arms, repeat, reference, cost=lambda wall, observed: wall, warm=None):
    """Time each arm best-of-``repeat``; ``(best, identical, ratio)``.

    ``arms`` maps a row name to ``attempt()``, which runs the arm once and
    returns ``(wall, observed)``: its own timed wall and a dict of what it
    observed, including the ``digest`` the arms must agree on. ``best``
    maps each name to its fastest attempt's ``(wall, observed)``, so an
    arm's stats never pair with another attempt's wall. ``warm(name)``
    runs untimed before an arm's attempts. ``identical`` is whether every
    digest matches ``reference``'s, and ``ratio`` is the reference arm's
    ``cost(wall, observed)`` over the last arm's, or ``None`` when either cost
    is not positive: that is a failed measurement, not a huge ratio.
    """
    best = {}
    for name, attempt in arms.items():
        if warm is not None:
            warm(name)
        best[name] = best_of(attempt, repeat)
    digest = best[reference][1]["digest"]
    identical = all(observed["digest"] == digest for _, observed in best.values())
    last = list(best)[-1]
    numerator = cost(*best[reference])
    denominator = cost(*best[last])
    if min(numerator, denominator) <= 0:
        return best, identical, None  # a failed measurement has no ratio
    return best, identical, round(numerator / denominator, 2)


def paths(suffix=""):
    """The object-loop and kernel arms of one engine workload."""
    return {
        f"columnar{suffix}": dict(kernel=False),
        f"kernel{suffix}": dict(kernel=True),
    }


def engine_benchmark(
    run, modes, generate, events, repeat, check, speedup_key, extra=None,
    fields=("delivered",),
):
    """Time ``run(**kwargs)`` per mode; ``(rows, identity_checks, speedups)``.

    ``modes`` maps a row name to the runner kwargs selecting its path:
    the columnar reference first, the kernel last. ``generate`` maps a row name to a call producing its
    event stream; each attempt times it just before the arm's run, and
    that time splits the attempt's wall into generation and dispatch, so
    both halves are measured under the same conditions. The identity
    verdict goes under ``check`` and the columnar/kernel dispatch ratio
    under ``speedup_key``. ``extra`` fields ride on every row, followed by
    ``fields`` from each arm's observation.
    """

    def arm(kwargs, produce):
        run_once = call_arm(lambda: run(**kwargs), observe_batch)

        def attempt():
            generation, _ = timed(produce)
            wall, observed = run_once()
            return wall, {**observed, "generation": generation}

        return attempt

    arms = {name: arm(kwargs, generate[name]) for name, kwargs in modes.items()}

    def dispatch(wall, observed):
        return wall - observed["generation"]

    best, identical, ratio = compare(arms, repeat, next(iter(modes)), cost=dispatch)
    rows = {
        name: {
            "wall_seconds": round(wall, 4),
            "generation_seconds": round(observed["generation"], 4),
            "dispatch_seconds": round(dispatch(wall, observed), 4),
            "events": events,
            "events_per_second": round(events / wall, 1),
            **(extra or {}),
            **{key: observed[key] for key in fields},
        }
        for name, (wall, observed) in best.items()
    }
    return rows, {check: identical}, {speedup_key: ratio}


def graph_benchmark(
    graph, group_size, onion_routers, copies, horizon, sessions, seed, repeat,
    modes, events, check, speedup_key, extra=None,
):
    """Engine paths on the random-graph batch; see ``engine_benchmark``.

    Session construction draws no randomness, so every copy count sees
    the stream ``produce_events`` counts.
    """

    def run(**kwargs):
        return run_random_graph_batch(
            graph, group_size, onion_routers, copies=copies, horizon=horizon,
            sessions=sessions, rng=np.random.default_rng(seed), **kwargs,
        )

    def produce():
        return produce_events(
            graph, seed, horizon, group_size, onion_routers, sessions
        )

    generate = dict.fromkeys(modes, produce)
    return engine_benchmark(
        run, modes, generate, events, repeat, check, speedup_key, extra
    )


def trace_benchmark(group_size, onion_routers, deadline, sessions, seed, repeat):
    """Columnar vs kernel dispatch over a replayed synthetic trace.

    Single-copy sessions placed on the Infocom-2005-like trace — the
    :class:`TraceReplayProcess` serves columnar windows, so this times
    the trace-replay eligibility path of the batch kernels. The
    "generation" phase here is replaying the recorded contacts into a
    columnar block, not sampling them.
    """
    trace = infocom05_like_trace(rng=np.random.default_rng(seed)).normalized()

    def replay():
        return len(TraceReplayProcess(trace).events_until_columnar(trace.end + 1.0))

    def run(**kwargs):
        return run_trace_batch(
            trace, group_size, onion_routers, copies=1, deadline=deadline,
            sessions=sessions, rng=np.random.default_rng(seed), **kwargs,
        )

    modes = paths("-trace")
    return engine_benchmark(
        run,
        modes,
        dict.fromkeys(modes, replay),
        replay(),
        repeat,
        "trace",
        "speedup_kernel_trace_vs_columnar",
        extra={"trace_nodes": trace.n, "deadline": deadline},
        fields=("placed_sessions", "delivered"),
    )


def backend_benchmark(
    graph, group_size, onion_routers, horizon, sessions, seed, repeat
):
    """Numpy vs compiled kernel backend on the single-copy reference sweep.

    The workload replays the exact RNG order of ``run_random_graph_batch``
    (directory, process pre-draws, per-session endpoint/route draws), then
    pre-produces the columnar window once — so both arms time only the
    :class:`~repro.sim.kernel.BatchKernel` sweep over identical inputs.
    ``run_benchmark`` pins this mode to its own reference workload
    (``BACKEND_ONION_ROUTERS``/``BACKEND_SESSIONS``). The ``cc`` arm runs
    when a C compiler is present; each backend's compile warm-up and one
    throwaway sweep happen before its timer. Outcome digests must match
    across arms. Returns ``(rows, identity_checks, speedups)``: rows keyed
    ``backend-<name>``, and the cc arm's wall ratio (a numpy-only run gets
    a note instead).
    """
    generator = np.random.default_rng(seed)
    directory = OnionGroupDirectory(graph.n, group_size, rng=generator)
    process = ExponentialContactProcess(graph, rng=generator)
    specs = []
    for _ in range(sessions):
        src, dst = sample_endpoints(graph.n, generator)
        route = directory.select_route(src, dst, onion_routers, rng=generator)
        specs.append((src, dst, route))
    block = process.events_until_columnar(horizon)
    names = ["numpy"] + (["cc"] if CcBackend.available() else [])
    backends = {f"backend-{name}": name for name in names}

    def make(backend):
        return BatchKernel(
            [
                SingleCopySession(Message(src, dst, 0.0, horizon), route)
                for src, dst, route in specs
            ],
            backend=backend,
        )

    def warm(row):
        resolve_backend(backends[row]).warmup()
        make(backends[row]).run(block)

    def arm(name):
        def attempt():
            kernel = make(name)
            wall, _ = timed(lambda: kernel.run(block))
            observed = observe_batch(
                [(None, session.outcome()) for session in kernel.sessions]
            )
            return wall, dict(observed, stats=dict(kernel.stats))

        return attempt

    best, identical, speedup = compare(
        {row: arm(name) for row, name in backends.items()},
        repeat,
        "backend-numpy",
        warm=warm,
    )
    rows = {}
    for row, (wall, observed) in best.items():
        stats = observed["stats"]
        rows[row] = {
            "wall_seconds": round(wall, 4),
            "backend": stats["backend"],
            "requested_backend": backends[row],
            "events": len(block),
            "events_per_second": round(len(block) / wall, 1),
            "sessions": sessions,
            "delivered": observed["delivered"],
            "rounds": stats["rounds"],
            "scalar_dispatches": stats["scalar_dispatches"],
            "backend_seconds": round(stats["backend_seconds"], 4),
            "kernel_dispatch_seconds": round(stats["dispatch_seconds"], 4),
            "active_peak": stats["active_peak"],
            "active_total": stats["active_total"],
            "outcome_digest": observed["digest"],
        }
    if len(rows) == 1:
        rows["backend-numpy"]["note"] = (
            "no compiled backend available in this environment (no C "
            "compiler found); only the numpy arm was timed"
        )
        return rows, {}, {}
    rows["backend-cc"]["speedup_vs_numpy"] = speedup
    return rows, {"backend": identical}, {"speedup_backend_vs_numpy": speedup}


def run_benchmark(
    sessions: int,
    n: int,
    group_size: int,
    onion_routers: int,
    copies: int,
    horizon: float,
    seed: int,
    repeat: int = 1,
    mode: str = "all",
) -> dict:
    graph = random_contact_graph(
        n, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(seed)
    )
    graph_args = (graph, group_size, onion_routers)
    if mode in ("all", "kernel", "multicopy"):
        events = produce_events(
            graph, seed, horizon, group_size, onion_routers, sessions
        )
    workloads = {
        "kernel": lambda: graph_benchmark(
            *graph_args, copies, horizon, sessions, seed, repeat, paths(), events,
            "single", "speedup_kernel_vs_columnar",
        ),
        "multicopy": lambda: graph_benchmark(
            *graph_args, MULTICOPY_COPIES, horizon, sessions, seed, repeat,
            paths("-multicopy"), events, "multicopy",
            "speedup_kernel_multicopy_vs_columnar", {"copies": MULTICOPY_COPIES},
        ),
        "trace": lambda: trace_benchmark(
            group_size, onion_routers, TRACE_DEADLINE, sessions, seed, repeat
        ),
        "backend": lambda: backend_benchmark(
            graph, group_size, BACKEND_ONION_ROUTERS, horizon, BACKEND_SESSIONS,
            seed, repeat,
        ),
    }
    results = {}
    identity_checks = {}
    speedups = {}
    for name, bench in workloads.items():
        if mode in ("all", name):
            rows, checks, ratios = bench()
            results.update(rows)
            identity_checks.update(checks)
            speedups.update(ratios)

    report = {
        "workload": {
            "sessions": sessions,
            "n": n,
            "group_size": group_size,
            "onion_routers": onion_routers,
            "copies": copies,
            "horizon": horizon,
            "seed": seed,
        },
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": results,
        "identical_outcomes": all(identity_checks.values()),
        "identity_checks": identity_checks,
    }
    report.update(speedups)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke workload instead of the 1000-session reference",
    )
    parser.add_argument(
        "--mode",
        choices=("all", "kernel", "multicopy", "trace", "backend"),
        default="all",
        help="'all' runs every workload; 'kernel', 'multicopy' and 'trace' "
        "each time only their columnar/kernel pair, 'backend' times the "
        "numpy kernel backend against the compiled cc backend on the "
        "single-copy sweep",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="repetitions per timing; the best wall is reported",
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

    report = run_benchmark(
        sessions=sessions,
        n=100,
        group_size=5,
        onion_routers=3,
        copies=1,
        horizon=horizon,
        seed=args.seed,
        repeat=max(1, args.repeat),
        mode=args.mode,
    )
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload: {sessions} sessions, n=100, horizon={horizon:g}")
    for name, row in report["results"].items():
        if "dispatch_seconds" in row:
            detail = (
                f"gen {row['generation_seconds']:.3f}s + "
                f"dispatch {row['dispatch_seconds']:.3f}s, "
                f"{row['events_per_second']:>9.1f} events/s"
            )
        else:
            detail = (
                f"backend {row['backend']}, {row['rounds']} rounds, "
                f"{row['scalar_dispatches']} scalar dispatches, "
                f"{row['events_per_second']:>9.1f} events/s"
            )
        print(f"{name + ':':<26} {row['wall_seconds']:8.3f}s ({detail})")
    for key, value in report.items():
        if key.startswith("speedup_"):
            shown = "failed measurement" if value is None else f"{value:.2f}x"
            print(f"{key}: {shown}")
    print(f"identical outcomes: {report['identical_outcomes']}")
    print(f"report: {args.output}")
    if not report["identical_outcomes"]:
        print("ERROR: paired code paths produced divergent outcomes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
