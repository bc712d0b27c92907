"""bench_engine: an arm's stats come from the attempt its wall came from.

Each backend arm reports its best-of-N wall. The layer seconds on the
same row must come from that same fastest attempt, so they can never add
up to more than the wall. The generation time an engine row subtracts
must likewise be measured on the stream that row's batch consumes, and a
dispatch phase that comes out non-positive is a failed measurement, not
a clamped one.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import numpy as np

from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG
from repro.sim.kernel import BatchKernel

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_engine", ROOT / "scripts" / "bench_engine.py"
)
bench_engine = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_engine)

_delta_spec = importlib.util.spec_from_file_location(
    "bench_delta", ROOT / "scripts" / "bench_delta.py"
)
bench_delta = importlib.util.module_from_spec(_delta_spec)
_delta_spec.loader.exec_module(bench_delta)

SESSIONS = 200
HORIZON = 360.0
SEED = 42
REPEAT = 3


def _slow_first_timed_attempt(monkeypatch, kernel_cls, method, stat):
    """Make each arm's first timed attempt 50 ms slower inside ``stat``.

    Every arm calls ``method`` once untimed, then ``REPEAT`` timed times,
    so the first timed attempt is never the fastest one.
    """
    original = getattr(kernel_cls, method)
    calls = []

    def slowed(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append(None)
        if len(calls) % (REPEAT + 1) == 2:
            time.sleep(0.05)
            self.stats[stat] += 0.05
        return result

    monkeypatch.setattr(kernel_cls, method, slowed)


def test_backend_bench_stats_come_from_the_timed_attempt(monkeypatch):
    graph = random_contact_graph(
        100, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(SEED)
    )
    _slow_first_timed_attempt(monkeypatch, BatchKernel, "run", "dispatch_seconds")
    rows, identity, _ = bench_engine.backend_benchmark(
        graph, 5, 3, HORIZON, SESSIONS, SEED, repeat=REPEAT
    )
    assert identity.get("backend", True)
    for name, row in rows.items():
        # Each figure is rounded to 4 decimals on its own.
        layers = row["backend_seconds"] + row["kernel_dispatch_seconds"]
        assert layers <= row["wall_seconds"] + 1.5e-4, (name, row)


def test_produced_stream_is_the_counted_batch_stream():
    # The batch draws every endpoint and route before the engine pulls its
    # first window, so the timed generation must replay those draws too.
    graph = random_contact_graph(
        40, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(SEED)
    )
    batch = (5, 3, SESSIONS)
    counted = bench_engine.count_events(graph, *batch, HORIZON, SEED)
    for columnar in (True, False):
        assert bench_engine.produce_events(
            graph, SEED, HORIZON, columnar, *batch
        ) == counted


def test_non_positive_dispatch_is_a_failed_measurement(monkeypatch, tmp_path):
    # Plant the fault seen in the wild: the timed generation outlasts the
    # kernel arm's whole wall, so wall − generation < 0.
    graph = random_contact_graph(
        40, DEFAULT_CONFIG.mean_intercontact_range, rng=np.random.default_rng(SEED)
    )
    produce = bench_engine.produce_events

    def slow_produce(*args, **kwargs):
        time.sleep(0.5)
        return produce(*args, **kwargs)

    monkeypatch.setattr(bench_engine, "produce_events", slow_produce)
    rows, identity, speedups = bench_engine.graph_benchmark(
        graph, 5, 3, 1, HORIZON, SESSIONS, SEED, 1, bench_engine.paths(),
        events=0, check="kernel", speedup_key="speedup_kernel_vs_columnar",
    )
    assert identity["kernel"]
    assert rows["kernel"]["dispatch_seconds"] < 0
    assert speedups == {"speedup_kernel_vs_columnar": None}

    current = tmp_path / "current.json"
    current.write_text(json.dumps({"results": rows, **speedups}))
    baseline = ROOT / "BENCH_engine.json"
    assert bench_delta.failed_measurements(json.loads(current.read_text())) == [
        "kernel vs columnar dispatch"
    ]
    for extra in ([], ["--allow-regression"]):
        assert bench_delta.main([str(current), str(baseline), *extra]) == 1
