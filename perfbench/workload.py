"""One benchmark workload in its own process: set up, run, check, report.

``perfbench/run.py`` starts this file; run it directly only to debug::

    PYTHONPATH=src python3 perfbench/workload.py --workload security-figs \\
        --seed 1 --seconds 5 --trace 0

After set-up it prints ``perfbench-ready`` and the :mod:`speed` probe's
state (the parent times launch to that line as ``setup_s``). It then runs
*rounds* in a closed loop with one client: each figure or batch call
starts only after the previous one returned. It stops at the first round
boundary after ``--seconds`` of measured time, and prints one JSON line
with the raw totals. Round ``r`` draws its inputs from ``(seed, r)``
alone, so a seed fixes every input; ``--start`` sets the first ``r``.
The speed probe samples the CPU throughout set-up and the plain rounds,
and each round's rate is taken per reference second.

With ``--trace 1`` an untimed tiny warm-up round comes first, then plain
rounds for half of ``--seconds`` to time the untraced wall, then as many
following rounds under :mod:`tracer` spans.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from speed import ELASTICITY, SpeedProbe  # noqa: E402

READY = "perfbench-ready"

#: Stream-sessions batch knobs: the streaming bench's horizon, deadline,
#: window and event ceiling, on one n=100 graph per round.
STREAM = dict(horizon=14400.0, deadline=720.0, stream_window=1440.0, max_window_events=500_000)
#: Sessions of each inspected stream round compared against Eq. 6 for model_gap.
STREAM_MODEL_SESSIONS = 5000
STREAM_MODEL_DEADLINES = tuple(60.0 * k for k in range(1, 13))
#: Round index of the untimed warm-up round of a traced run.
WARMUP_ROUND = 1 << 30


def round_seeds(seed: int, index: int, count: int) -> list:
    """``count`` independent figure seeds for round ``index`` of ``seed``."""
    state = np.random.SeedSequence([seed, index]).generate_state(count)
    return [int(value) for value in state]


def figure_digest(results) -> str:
    """sha256 over every series label and exact point of a round."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result.figure_id.encode())
        for series in result.series:
            digest.update(series.label.encode())
            for x, y in series.points:
                digest.update(f"{float(x).hex()},{float(y).hex()};".encode())
    return digest.hexdigest()


def outcome_digest(pairs) -> str:
    """sha256 over each session's outcome signature, in session order."""
    digest = hashlib.sha256()
    for _, outcome in pairs:
        time_hex = None if outcome.delivery_time is None else float(outcome.delivery_time).hex()
        digest.update(
            repr(
                (
                    outcome.delivered,
                    time_hex,
                    outcome.transmissions,
                    outcome.status,
                    tuple(tuple(path) for path in outcome.paths),
                )
            ).encode()
        )
    return digest.hexdigest()


def paired_gaps(result) -> list:
    """|Simulation - Analysis| at every x the two series share.

    A simulation series pairs with the analysis series of the same label
    suffix. A figure with one analysis series and no label match pairs it
    with its first simulation series only (R1's churn simulation, R2's
    no-recovery arm); later arms have no model.
    """
    analysis = {
        s.label.split(": ", 1)[1]: s for s in result.series if s.label.startswith("Analysis: ")
    }
    simulations = [s for s in result.series if s.label.startswith("Simulation: ")]
    gaps = []
    for index, simulation in enumerate(simulations):
        model = analysis.get(simulation.label.split(": ", 1)[1])
        if model is None and len(analysis) == 1 and index == 0:
            model = next(iter(analysis.values()))
        if model is None:
            continue
        expected = dict(model.points)
        gaps.extend(abs(y - expected[x]) for x, y in simulation.points if x in expected)
    return gaps


def bad_points(results) -> tuple:
    """(points checked, points not finite or outside [0, 1])."""
    checked = bad = 0
    for result in results:
        for series in result.series:
            for x, y in series.points:
                checked += 1
                if not (math.isfinite(x) and math.isfinite(y) and 0.0 <= y <= 1.0):
                    bad += 1
    return checked, bad


class Census:
    """Counts work items and failed sessions where batches return.

    Always installed (traced or not): one Python call per batch, never per
    session or event. Sessions are the outcomes the delivery batch entry
    points hand back; trial points are trials x grid points of each
    security Monte Carlo call.
    """

    def __init__(self) -> None:
        self.items = 0
        self.quarantined = 0
        self.patcher = tracing.Patcher()

    def count_sessions(self, batches) -> None:
        for pairs in batches:
            self.items += len(pairs)
            self.quarantined += sum(1 for _, outcome in pairs if outcome.status == "failed")

    def install(self) -> None:
        def batch(result, _args, _token):
            self.count_sessions([result])

        def sweep(result, _args, _token):
            self.count_sessions(result)

        def montecarlo(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.items += kwargs["trials"] * len(kwargs["variants"])
                return result

            return functools.wraps(fn)(counted)

        module = "repro.experiments.parallel"
        self.patcher.wrap(f"{module}:run_parallel_batch", lambda fn: tracing.call_hook(fn, batch))
        self.patcher.wrap(f"{module}:run_parallel_fused_sweep", lambda fn: tracing.call_hook(fn, sweep))
        self.patcher.wrap(f"{module}:run_parallel_montecarlo", montecarlo)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class FigureWorkload:
    """Rounds of paper figures, each figure call seeded from the round."""

    item = "sessions"
    min_rounds = 1
    figures: tuple = ()  # (module, function, size keyword)
    sizes = {"full": 0, "tiny": 0}
    backend = "numpy"

    def __init__(self, scale: str) -> None:
        self.size = self.sizes[scale]
        self.census = Census()
        self.pool = None

    def setup(self) -> None:
        from repro.sim.backend import resolve_backend

        self.modules = {m: importlib.import_module(f"repro.experiments.{m}") for m, _, _ in self.figures}
        self.resolve_fallbacks = []
        self.resolved = resolve_backend(
            self.backend, on_fallback=lambda name, error: self.resolve_fallbacks.append(name)
        ).name
        self.census.install()

    def new_pool(self) -> None:
        """Start a fresh pool (workloads that use one)."""

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def run_round(self, index: int, seed: int):
        extra = {"workers": self.pool} if self.pool is not None else {}
        return [
            getattr(self.modules[module], function)(
                **{keyword: self.size, "seed": figure_seed}, **extra
            )
            for (module, function, keyword), figure_seed in zip(
                self.figures, round_seeds(seed, index, len(self.figures))
            )
        ]

    def check(self, output) -> dict:
        checked, bad = bad_points(output)
        return {"points": checked, "bad": bad, "digest": figure_digest(output)}

    def model_gaps(self, output) -> list:
        return [gap for result in output for gap in paired_gaps(result)]


class DeliveryFigs(FigureWorkload):
    name = "delivery-figs"
    figures = (
        ("delivery_figs", "figure_04", "sessions_per_graph"),
        ("delivery_figs", "figure_05", "sessions_per_graph"),
        ("delivery_figs", "figure_10", "sessions_per_graph"),
        ("trace_figs", "figure_14", "sessions"),
        ("trace_figs", "figure_17", "sessions"),
    )
    sizes = {"full": 80, "tiny": 3}


class SecurityFigs(FigureWorkload):
    name = "security-figs"
    item = "trial_points"
    figures = tuple(
        ("security_figs", f"figure_{key}", "trials") for key in ("06", "07", "08", "09", "12", "13")
    ) + tuple(("trace_figs", f"figure_{key}", "trials") for key in ("15", "16", "18", "19"))
    sizes = {"full": 8000, "tiny": 40}


class FaultsPool(FigureWorkload):
    """R1/R2 through a 2-worker supervised pool, as ``--workers 2`` runs them.

    The pool starts its processes lazily at the first batch, like the CLI
    path; warming it in set-up would fork the workers before the first
    shared segment starts the resource tracker and so hide the tracker
    errors this workload counts.
    """

    name = "faults-pool"
    figures = (
        ("robustness_figs", "figure_r1", "sessions"),
        ("robustness_figs", "figure_r2", "sessions"),
    )
    sizes = {"full": 150, "tiny": 2}
    workers = 2

    def setup(self) -> None:
        super().setup()
        self.new_pool()

    def new_pool(self) -> None:
        from repro.experiments.parallel import WorkerPool
        from repro.utils.resilience import RetryPolicy

        self.close()
        self.pool = WorkerPool(self.workers, policy=RetryPolicy())

    def retries(self) -> int:
        from repro.utils.resilience import CHUNK_TIMEOUT

        report = self.pool.report
        return report.retries + report.counts().get(CHUNK_TIMEOUT, 0) + report.pool_restarts


class StreamSessions(FigureWorkload):
    """One windowed single-copy stream batch per round on the ``cc`` backend."""

    name = "stream-sessions"
    sizes = {"full": 20000, "tiny": 300}
    backend = "cc"
    # model_gap pools two graphs per process: the model error varies from
    # graph to graph.
    min_rounds = 2

    def setup(self) -> None:
        from repro.contacts import random_graph
        from repro.experiments import config, runners

        super().setup()
        self.random_graph, self.config, self.runners = random_graph, config.DEFAULT_CONFIG, runners

    def run_round(self, index: int, seed: int):
        config = self.config
        rng = np.random.default_rng(round_seeds(seed, index, 1)[0])
        graph = self.random_graph.random_contact_graph(config.n, config.mean_intercontact_range, rng=rng)
        pairs = self.runners.run_random_graph_batch(
            graph,
            config.group_size,
            config.onion_routers,
            1,
            sessions=self.size,
            rng=rng,
            consume="stream",
            backend=self.backend,
            **STREAM,
        )
        self.census.count_sessions([pairs])
        return graph, pairs

    def check(self, output) -> dict:
        _, pairs = output
        bad = 0
        for _, outcome in pairs:
            if outcome.delivered and not (0.0 <= outcome.delay <= STREAM["deadline"]):
                bad += 1
        return {"points": 0, "bad": bad, "digest": outcome_digest(pairs)}

    def model_gaps(self, output) -> list:
        graph, pairs = output
        sample = pairs[:STREAM_MODEL_SESSIONS]
        model = self.runners.analysis_delivery_curve(
            graph, [route for route, _ in sample], STREAM_MODEL_DEADLINES, copies=1
        )
        measured = self.runners.simulated_delivery_curve(
            [outcome for _, outcome in sample], STREAM_MODEL_DEADLINES
        )
        return [abs(m[1] - s[1]) for m, s in zip(model, measured)]


WORKLOADS = {cls.name: cls for cls in (DeliveryFigs, SecurityFigs, StreamSessions, FaultsPool)}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def run_rounds(
    workload, seed: int, seconds=0.0, rounds=None, start=0, min_rounds=1, inspect=None, probe=None
):
    """Run rounds ``start, start + 1, ...`` until ``seconds`` of measured
    wall have passed and at least ``min_rounds`` ran (or exactly ``rounds``
    of them).

    Checks every round's outputs between rounds, outside the timer.
    ``inspect(output)`` sees each of the first ``min_rounds`` outputs, the
    ones every run has, before it is released. With a running ``probe``
    each round's rate is per reference second (see :mod:`speed`), and
    ``wall_rates`` keeps the rates per second of wall.
    """
    rates = []
    wall_rates = []
    speeds = []
    wall = 0.0
    done = 0
    checks = {"points": 0, "bad": 0}
    items_before = workload.census.items
    while (done < rounds) if rounds is not None else (done < min_rounds or wall < seconds):
        items = workload.census.items
        mark = probe.mark() if probe is not None else None
        began = time.perf_counter()
        output = workload.run_round(start + done, seed)
        elapsed = time.perf_counter() - began
        wall += elapsed
        items = workload.census.items - items
        wall_rates.append(items / elapsed)
        if probe is None:
            rates.append(items / elapsed)
        else:
            reference, speed = probe.reference_seconds(elapsed, mark)
            rates.append(items / reference)
            speeds.append(speed)
        result = workload.check(output)
        checks["points"] += result["points"]
        checks["bad"] += result["bad"]
        if done == 0:
            checks["digest"] = result["digest"]
        if inspect is not None and done < min_rounds:
            inspect(output)
        del output
        done += 1
    return {
        "rounds": done,
        "wall_s": wall,
        "rates": rates,
        "wall_rates": wall_rates,
        "speeds": speeds,
        "items": workload.census.items - items_before,
        **checks,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def per_layer(tracer, traced: dict, retries: int, plain: dict) -> dict:
    """Per-round layer metrics from the traced pass (parent plus workers)."""
    rounds = traced["rounds"]
    traced_wall = traced["wall_s"]
    parent = tracer.totals
    total = tracing.Totals.combined(parent, tracer.worker)
    counts = total.counts

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def hit_ratio(prefix):
        hits = counts[f"adversary.{prefix}_hits"]
        return ratio(hits, hits + counts[f"adversary.{prefix}_misses"])

    def per_round(value):
        return value / rounds

    kernel_sessions = counts["engine.kernel_sessions"]
    return {
        "contacts.busy_s": per_round(total.busy_s["contacts"]),
        "contacts.events": per_round(counts["contacts.events"]),
        "core.busy_s": per_round(total.busy_s["core"]),
        "core.sessions": per_round(counts["core.sessions"]),
        "sim.engine.self_s": per_round(total.self_s["sim.engine"]),
        "sim.engine.kernel_share": ratio(kernel_sessions, counts["engine.sessions"]),
        "sim.kernel.self_s": per_round(total.self_s["sim.kernel"]),
        "sim.kernel.rounds": per_round(counts["kernel.rounds"]),
        "sim.kernel.scalar_dispatches_per_session": ratio(
            counts["kernel.scalar_dispatches"], kernel_sessions
        ),
        "sim.backend.busy_s": per_round(total.busy_s["sim.backend"]),
        "sim.backend.ops": per_round(total.calls["sim.backend"]),
        "sim.backend.fallbacks": per_round(counts["backend.fallbacks"]),
        "adversary.sample_s": per_round(total.busy_s["adversary.sample"]),
        "adversary.score_self_s": per_round(total.self_s["adversary.score"]),
        "adversary.mask_cache_hit_ratio": hit_ratio("mask_cache"),
        "adversary.anonymity_hit_ratio": hit_ratio("anonymity_lookup"),
        "analysis.busy_s": per_round(total.busy_s["analysis"]),
        "analysis.cdf_calls": per_round(counts["analysis.cdf_calls"]),
        "experiments.figures.self_s": per_round(total.self_s["experiments.figures"]),
        "experiments.runners.self_s": per_round(total.self_s["experiments.runners"]),
        "experiments.parallel.wait_s": per_round(parent.self_s["experiments.parallel"]),
        "experiments.parallel.chunks": per_round(counts["parallel.chunks"]),
        "experiments.parallel.retries": per_round(retries),
        "experiments.shm.share_s": per_round(total.busy_s["experiments.shm"]),
        "experiments.shm.bytes": per_round(counts["shm.bytes"]),
        "trace.overhead_frac": (traced_wall / traced["items"]) / (plain["wall_s"] / plain["items"]) - 1.0,
        "trace.coverage": sum(parent.self_s.values()) / traced_wall,
    }


def run_plain(workload, seed: int, seconds: float, start: int, probe: SpeedProbe) -> dict:
    """The end-to-end pass: rounds for ``seconds``, model gaps on the side."""
    gaps = []
    report = run_rounds(
        workload, seed, seconds, start=start, min_rounds=workload.min_rounds,
        inspect=lambda output: gaps.extend(workload.model_gaps(output)), probe=probe,
    )
    report["gaps"] = gaps
    return report


def run_traced(workload, seed: int, seconds: float, start: int, probe: SpeedProbe) -> dict:
    """Plain rounds for half of ``seconds``, then as many traced ones.

    The speed probe is stopped first: its samples would land in whatever
    span is open."""
    probe.stop()
    # Lazy imports and first-call caches land in this untimed tiny round,
    # so neither timed pass below pays them.
    full = workload.size
    workload.size = workload.sizes["tiny"]
    warm = run_rounds(workload, seed, rounds=1, start=WARMUP_ROUND)
    workload.size = full
    report = run_rounds(workload, seed, seconds / 2, start=start)
    # The traced pass runs the next rounds, not the same ones again:
    # replayed inputs would hit caches the plain pass filled.
    workload.close()
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer, ship_to_parent=True)
    try:
        workload.new_pool()
        traced = run_rounds(workload, seed, rounds=report["rounds"], start=start + report["rounds"])
        retries = workload.retries() if workload.pool is not None else 0
        workload.close()
    finally:
        # After the pool has shut down, so the workers' last records are in.
        tracing.uninstall(tracer, patcher)
    for key in ("points", "bad"):
        report[key] += warm[key] + traced[key]
    report["layers"] = per_layer(tracer, traced, retries, report)
    report["backends_seen"] = sorted(label for label in tracer.labels if label)
    report["missing_spans"] = tracer.missing
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--start", type=int, default=0, help="index of the first round")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    workload = WORKLOADS[args.workload](args.scale)
    workload.setup()
    # The parent knows the wall time from launch; reference seconds are
    # (wall - probe_wall) * scale.
    speed = probe.speed_since((0.0, 0.0, 0))
    setup_probe = {"probe_wall": probe.probe_wall, "scale": speed**ELASTICITY}
    print(READY, json.dumps(setup_probe), flush=True)
    try:
        if args.setup_only:
            return 0
        run = run_traced if args.trace else run_plain
        report = run(workload, args.seed, args.seconds, args.start, probe)
    finally:
        probe.stop()
        workload.close()
    report.update(
        workload=workload.name,
        item=workload.item,
        backend=workload.resolved,
        resolve_fallbacks=len(workload.resolve_fallbacks),
        checked_items=workload.census.items,
        quarantined=workload.census.quarantined,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
