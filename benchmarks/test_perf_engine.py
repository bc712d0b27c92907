"""Perf bench: engine consumption modes on a fixed seeded workload.

Times the same seeded session batch under the engine's consumption modes
and under the parallel batch layer, records events/sec in the benchmark
extra-info, and asserts the modes agree outcome-for-outcome. Wall-time is
archived, not gated — machine speed varies; the invariants (identical
outcomes, kernel not slower than the object loop) do not.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.parallel import run_parallel_batch
from repro.experiments.runners import run_random_graph_batch
from scripts.bench_engine import count_events, outcome_signature

SESSIONS = 200
HORIZON = 360.0
SEED = 42


@pytest.fixture(scope="module")
def workload_graph():
    return random_contact_graph(
        100, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(SEED)
    )


def test_perf_parallel_batch(benchmark, workload_graph):
    pairs = benchmark.pedantic(
        lambda: run_parallel_batch(
            run_random_graph_batch,
            sessions=SESSIONS,
            workers=2,
            rng=np.random.default_rng(SEED),
            graph=workload_graph,
            group_size=5,
            onion_routers=3,
            copies=1,
            horizon=HORIZON,
        ),
        rounds=1,
        iterations=1,
    )
    assert len(pairs) == SESSIONS

    # Parallel chunks draw endpoints/routes from spawned SeedSequence
    # children — a different (equally valid) sample than the serial master
    # stream — so the delivered count may drift slightly from serial
    # (BENCH_engine.json records 945 vs 946 on the reference workload).
    # That divergence is *by design* and cannot be closed: ``workers=1``
    # contractually consumes the caller's generator itself (seed-exact
    # with the serial path), so the chunked layout necessarily draws from
    # different streams. What must hold is (a) the drift stays a
    # statistical wobble, not a systematic loss of deliveries, and (b)
    # the chunked outcome is byte-identical across *worker counts*: the
    # default chunk layout is a pure function of ``sessions``.
    serial = run_random_graph_batch(
        workload_graph,
        5,
        3,
        copies=1,
        horizon=HORIZON,
        sessions=SESSIONS,
        rng=np.random.default_rng(SEED),
    )
    delivered_serial = sum(1 for _, o in serial if o.delivered)
    delivered_parallel = sum(1 for _, o in pairs if o.delivered)
    tolerance = max(5, int(0.05 * SESSIONS))
    assert abs(delivered_parallel - delivered_serial) <= tolerance

    four_workers = run_parallel_batch(
        run_random_graph_batch,
        sessions=SESSIONS,
        workers=4,
        rng=np.random.default_rng(SEED),
        graph=workload_graph,
        group_size=5,
        onion_routers=3,
        copies=1,
        horizon=HORIZON,
    )
    assert outcome_signature(four_workers) == outcome_signature(pairs)

    benchmark.extra_info["workers"] = 2
    benchmark.extra_info["delivered_serial"] = delivered_serial
    benchmark.extra_info["delivered_parallel"] = delivered_parallel


def test_perf_columnar_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    iterator = run_random_graph_batch(
        workload_graph,
        5,
        3,
        copies=1,
        horizon=HORIZON,
        sessions=SESSIONS,
        rng=np.random.default_rng(SEED),
        consume="iterator",
    )
    columnar = benchmark.pedantic(
        lambda: run_random_graph_batch(
            workload_graph,
            5,
            3,
            copies=1,
            horizon=HORIZON,
            sessions=SESSIONS,
            rng=np.random.default_rng(SEED),
            kernel=False,
        ),
        rounds=3,
        iterations=1,
    )
    assert outcome_signature(iterator) == outcome_signature(columnar)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_columnar"] = round(
        events / benchmark.stats["mean"], 1
    )


def test_perf_kernel_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    def batch(kernel):
        return run_random_graph_batch(
            workload_graph,
            5,
            3,
            copies=1,
            horizon=HORIZON,
            sessions=SESSIONS,
            rng=np.random.default_rng(SEED),
            kernel=kernel,
        )

    start = time.perf_counter()
    columnar = batch(False)
    columnar_wall = time.perf_counter() - start

    kernel = benchmark.pedantic(
        lambda: batch(True), rounds=3, iterations=1
    )
    kernel_wall = benchmark.stats["mean"]

    assert outcome_signature(columnar) == outcome_signature(kernel)
    # The end-to-end walls share the generation phase, so the ratio here
    # understates the dispatch-only speedup BENCH_engine.json records; the
    # kernel must still win end-to-end on this workload.
    assert kernel_wall < columnar_wall

    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_kernel"] = round(
        events / kernel_wall, 1
    )
    benchmark.extra_info["speedup_vs_columnar"] = round(
        columnar_wall / kernel_wall, 2
    )


def test_perf_shared_stream_parallel(benchmark, workload_graph):
    import pickle

    from repro.contacts.events import ExponentialContactProcess
    from repro.experiments.parallel import WorkerPool
    from repro.experiments.shm import leaked_arena_segments

    block = ExponentialContactProcess(
        workload_graph, rng=np.random.default_rng(SEED)
    ).events_until_columnar(HORIZON)
    with WorkerPool(2) as pool:
        pairs = benchmark.pedantic(
            lambda: run_parallel_batch(
                run_random_graph_batch,
                sessions=SESSIONS,
                workers=pool,
                rng=np.random.default_rng(SEED),
                shared_events=block,
                graph=workload_graph,
                group_size=5,
                onion_routers=3,
                copies=1,
                horizon=HORIZON,
            ),
            rounds=2,
            iterations=1,
        )
        # Zero-copy transport: the per-chunk pickle carries a descriptor a
        # few hundred bytes long, not the block's serialized columns.
        descriptor = pool.share_block(block)
        descriptor_bytes = len(pickle.dumps(descriptor))
    assert len(pairs) == SESSIONS
    assert descriptor_bytes < 1024
    assert leaked_arena_segments() == []
    benchmark.extra_info["stream_bytes"] = len(block.to_bytes())
    benchmark.extra_info["descriptor_bytes"] = descriptor_bytes


def test_perf_stream_consume(benchmark, workload_graph):
    events = count_events(workload_graph, 5, 3, SESSIONS, HORIZON, SEED)

    def batch(consume, **knobs):
        return run_random_graph_batch(
            workload_graph,
            5,
            3,
            copies=1,
            horizon=HORIZON,
            sessions=SESSIONS,
            rng=np.random.default_rng(SEED),
            consume=consume,
            **knobs,
        )

    kernel = batch("auto")
    stream = benchmark.pedantic(
        lambda: batch("stream", stream_window=HORIZON / 8), rounds=3, iterations=1
    )
    assert outcome_signature(kernel) == outcome_signature(stream)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_second_stream"] = round(
        events / benchmark.stats["mean"], 1
    )



def _slow_first_timed_attempt(monkeypatch, kernel_cls, method, stat, repeat):
    """Make each arm's first timed attempt 50 ms slower inside ``stat``.

    Every arm calls ``method`` once untimed, then ``repeat`` timed times,
    so the first timed attempt is never the fastest one.
    """
    original = getattr(kernel_cls, method)
    calls = []

    def slowed(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(None)
        if len(calls) % (repeat + 1) == 2:
            time.sleep(0.05)
            self.stats[stat] += 0.05
        return result

    monkeypatch.setattr(kernel_cls, method, slowed)


def test_backend_bench_stats_come_from_the_timed_attempt(
    benchmark, workload_graph, monkeypatch
):
    # Each arm's wall is its best attempt; the layer seconds must come
    # from that same attempt, so they can never add up to more than it.
    from repro.sim.kernel import BatchKernel
    from scripts.bench_engine import backend_benchmark

    _slow_first_timed_attempt(
        monkeypatch, BatchKernel, "run", "dispatch_seconds", repeat=3
    )
    rows, identity, _ = benchmark.pedantic(
        lambda: backend_benchmark(
            workload_graph, 5, 3, HORIZON, SESSIONS, SEED, repeat=3
        ),
        rounds=1,
        iterations=1,
    )
    assert identity.get("backend", True)
    for name, row in rows.items():
        # Each figure is rounded to 4 decimals on its own.
        layers = row["backend_seconds"] + row["kernel_dispatch_seconds"]
        assert layers <= row["wall_seconds"] + 1.5e-4, (name, row)


def test_security_backend_bench_stats_come_from_the_timed_attempt(
    benchmark, monkeypatch
):
    from repro.adversary.kernel import SecurityBatchKernel
    from scripts.bench_engine import security_backend_benchmark

    _slow_first_timed_attempt(
        monkeypatch, SecurityBatchKernel, "score", "backend_seconds", repeat=3
    )
    rows, identity, _ = benchmark.pedantic(
        lambda: security_backend_benchmark(60, 5, 200, SEED, repeat=3),
        rounds=1,
        iterations=1,
    )
    assert identity["security_backend"]
    for name, row in rows.items():
        assert row["backend_seconds"] <= row["wall_seconds"] + 1e-4, (name, row)
