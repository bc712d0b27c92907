"""bench_delta reporting: one-sided modes, new ratio gates.

The delta table must state one-sided rows explicitly — a bench mode
present only in the current run is "new", one present only in the
baseline is "not in current run" — instead of an ambiguous n/a, and
rows neither run measured are dropped. The soft regression gate covers
the kernel-family ratio rows, including the multicopy and trace pairs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_delta", ROOT / "scripts" / "bench_delta.py"
)
bench_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_delta)


WORKLOAD = {
    "sessions": 1000,
    "n": 100,
    "group_size": 5,
    "onion_routers": 3,
    "copies": 1,
    "horizon": 720.0,
    "seed": 42,
}


def report(**overrides):
    base = {
        "workload": dict(WORKLOAD),
        "results": {},
        "identical_outcomes": True,
    }
    base.update(overrides)
    return base


def test_new_mode_reported_as_new():
    current = report(speedup_kernel_multicopy_vs_columnar=19.3)
    baseline = report()
    table = bench_delta.build_table(current, baseline, [])
    row = next(
        line for line in table.splitlines()
        if "multicopy kernel vs columnar" in line
    )
    assert "| new |" in row
    assert "19.30x" in row


def test_baseline_only_mode_reported_not_skipped():
    current = report()
    baseline = report(speedup_kernel_trace_vs_columnar=5.2)
    table = bench_delta.build_table(current, baseline, [])
    row = next(
        line for line in table.splitlines()
        if "trace kernel vs columnar" in line
    )
    assert "not in current run" in row


def test_unmeasured_rows_are_dropped():
    table = bench_delta.build_table(report(), report(), [])
    assert "multicopy kernel" not in table


def test_two_sided_rows_keep_percentage_delta():
    current = report(speedup_kernel_multicopy_vs_columnar=10.0)
    baseline = report(speedup_kernel_multicopy_vs_columnar=20.0)
    table = bench_delta.build_table(current, baseline, [])
    row = next(
        line for line in table.splitlines()
        if "multicopy kernel vs columnar" in line
    )
    assert "-50.0%" in row


def test_multicopy_ratio_is_gated():
    current = report(speedup_kernel_multicopy_vs_columnar=10.0)
    baseline = report(speedup_kernel_multicopy_vs_columnar=20.0)
    regressions = bench_delta.find_regressions(current, baseline, threshold=25.0)
    labels = [label for label, _ in regressions]
    assert "multicopy kernel vs columnar dispatch" in labels


def test_trace_ratio_is_gated():
    current = report(speedup_kernel_trace_vs_columnar=2.0)
    baseline = report(speedup_kernel_trace_vs_columnar=5.0)
    regressions = bench_delta.find_regressions(current, baseline, threshold=25.0)
    labels = [label for label, _ in regressions]
    assert "trace kernel vs columnar dispatch" in labels


def test_one_sided_ratio_never_gates():
    # A mode subset run (e.g. --mode multicopy) lacks the other ratios;
    # missing-vs-present must not fire the gate.
    current = report(speedup_kernel_multicopy_vs_columnar=19.0)
    baseline = report(
        speedup_kernel_multicopy_vs_columnar=19.0,
        speedup_kernel_vs_columnar=9.0,
        speedup_kernel_trace_vs_columnar=5.0,
    )
    assert bench_delta.find_regressions(current, baseline, threshold=25.0) == []


def test_mismatched_workloads_stay_report_only():
    current = report(speedup_kernel_multicopy_vs_columnar=1.0)
    current["workload"]["sessions"] = 100
    baseline = report(speedup_kernel_multicopy_vs_columnar=20.0)
    assert bench_delta.find_regressions(current, baseline, threshold=25.0) == []


def test_every_metric_resolves_in_the_committed_baseline():
    # A row whose path the committed report lacks never reports or gates
    # anything: it would be dead weight in the table.
    baseline = json.loads((ROOT / "BENCH_engine.json").read_text())
    missing = [
        label for label, path, *_ in bench_delta.METRICS
        if bench_delta._get(baseline, *path) is None
    ]
    assert missing == []
