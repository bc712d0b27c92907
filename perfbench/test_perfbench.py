"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

Every workload runs at ``--scale tiny`` (a few seconds each) in both
modes; the digest gate, the span arithmetic, the speed probe and the
bare-directory failure are checked directly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    results = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            done = bench(
                "--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--scale", "tiny",
            )
            assert done.returncode == 0, done.stderr
            results[name, trace] = done.stdout.splitlines()
    return results


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(tiny_runs, name, trace):
    lines = tiny_runs[name, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])
        label = metric["name"]
        if label == "sessions_per_s" and name == "security-figs":
            label = "trial_points_per_s"
        assert any(
            line.split()[:1] == [label] and line.endswith(f" {metric['unit']}")
            for line in lines[:-1]
        ), label
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
    assert any(line.strip().startswith("failed_frac") for line in lines)


def test_layers_stay_off_the_workloads_that_bypass_them(tiny_runs):
    layers = {
        name: json.loads(tiny_runs[name, "1"][-1])["metrics"] for name in WORKLOADS
    }
    value = lambda name, metric: layers[name][metric]["value"]  # noqa: E731
    assert value("security-figs", "contacts.events") == 0
    assert value("security-figs", "core.sessions") == 0
    assert value("security-figs", "adversary.sample_s") > 0
    assert value("stream-sessions", "analysis.cdf_calls") == 0
    assert value("stream-sessions", "sim.engine.kernel_share") == 1.0
    assert value("delivery-figs", "analysis.cdf_calls") > 0
    for name in ("delivery-figs", "security-figs", "stream-sessions"):
        assert value(name, "experiments.parallel.chunks") == 0
        assert value(name, "experiments.shm.bytes") == 0
    # Worker spans come back over the pipe: the object loop runs there.
    assert value("faults-pool", "experiments.parallel.chunks") > 0
    assert value("faults-pool", "sim.engine.self_s") > 0
    assert value("faults-pool", "sim.engine.kernel_share") < 1.0
    for name in WORKLOADS:
        assert 0.5 < value(name, "trace.coverage") <= 1.0 + 1e-9


def test_digest_gate_trips_on_a_perturbed_result(tmp_path, monkeypatch):
    from repro.experiments.result import FigureResult, Series

    points = ((60.0, 0.25), (120.0, 0.5))
    result = FigureResult("Fig. X", "t", "x", "y", (Series("Simulation: a", points),))
    digest = workload.figure_digest([result])
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"delivery-figs": digest}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    check = lambda d: run.digest_check("delivery-figs", run.DEFAULT_SEED, "full", d)  # noqa: E731
    assert check(digest) == "match"

    nudged = ((60.0, 0.25), (120.0, math.nextafter(0.5, 1.0)))
    perturbed = FigureResult("Fig. X", "t", "x", "y", (Series("Simulation: a", nudged),))
    assert check(workload.figure_digest([perturbed])) == "mismatch"
    assert run.digest_check("delivery-figs", run.DEFAULT_SEED + 1, "full", "0") == "unchecked"


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a = tracer.enter("A")  # 0 .. 10
    b = tracer.enter("B")  # 1 .. 4
    inner_b = tracer.enter("B")  # 2 .. 3, same layer nested
    tracer.exit(inner_b)
    tracer.exit(b)
    c = tracer.enter("C")  # 5 .. 8
    tracer.exit(c)
    d = tracer.enter("D")  # 9 .. 10, closes at the same tick as A
    tracer.exit(d)
    tracer.exit(a)
    totals = tracer.totals
    assert totals.self_s["A"] == pytest.approx(10 - 3 - 3 - 1)
    assert totals.self_s["B"] == pytest.approx(3.0)  # (3 - 1) + 1
    assert totals.busy_s["B"] == pytest.approx(3.0)  # nested span counted once
    assert totals.self_s["C"] == pytest.approx(3.0)
    assert totals.calls["B"] == 2
    assert sum(totals.self_s.values()) == pytest.approx(totals.busy_s["A"])


def test_speed_probe_samples_while_the_workload_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        began = time.perf_counter()
        while time.perf_counter() - began < 0.3:
            pass
        wall = time.perf_counter() - began
    finally:
        probe.stop()
    assert probe.samples - mark[2] >= 3
    reference, mean_speed = probe.reference_seconds(wall, mark)
    assert mean_speed > 0 and 0 < reference < wall * mean_speed**speed.ELASTICITY


def test_reference_seconds_drop_probe_time_and_scale_by_mean_speed():
    probe = speed.SpeedProbe()
    mark = probe.mark()
    # Three samples inside the interval, then the closing one.
    probe.probe_wall, probe.speed_sum, probe.samples = 0.25, 1.5, 3

    def closing_sample():
        probe.speed_sum += 0.5
        probe.samples += 1
        probe.probe_wall += 0.1

    probe.sample = closing_sample
    reference, mean_speed = probe.reference_seconds(10.0, mark)
    assert mean_speed == pytest.approx(0.5)
    assert reference == pytest.approx((10.0 - 0.25) * 0.5**speed.ELASTICITY)


def test_install_and_uninstall_restore_every_entry_point():
    import repro.experiments.delivery_figs as delivery_figs
    import repro.sim.engine as engine

    before = (delivery_figs.run_parallel_fused_sweep, engine.SimulationEngine.run)
    tracer = tracing.Tracer()
    patcher = tracing.install(tracer)
    assert delivery_figs.run_parallel_fused_sweep is not before[0]
    assert tracer.missing == []
    tracing.uninstall(tracer, patcher)
    assert (delivery_figs.run_parallel_fused_sweep, engine.SimulationEngine.run) == before


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
