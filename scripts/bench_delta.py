#!/usr/bin/env python
"""Diff a fresh engine-bench run against the committed baseline.

Prints a markdown delta table (and appends it to ``$GITHUB_STEP_SUMMARY``
when set, so it shows up on the workflow run page). Absolute numbers
depend on machine speed, so they are reported as a trend signal only; the
*ratio* metrics (producer speedup, columnar-vs-indexed,
kernel-vs-columnar and its multicopy and trace variants, and the compiled
backend vs numpy on the single-copy kernel) are machine-independent, and
those are gated: a ratio regressing by more than ``--threshold`` percent
(default 25%) against the committed baseline fails the run. Pass
``--allow-regression`` to demote the gate back to report-only — e.g. when
committing an intentional trade-off alongside a refreshed baseline.

A gated ratio the current run wrote as ``null`` is a failed measurement
(``bench_engine.py`` timed a non-positive phase). It fails the run
whatever the baseline, the workloads or ``--allow-regression`` say.

Usage::

    python scripts/bench_engine.py --quick --output bench_quick.json
    python scripts/bench_delta.py bench_quick.json            # vs BENCH_engine.json
    python scripts/bench_delta.py current.json baseline.json  # explicit baseline
    python scripts/bench_delta.py current.json --allow-regression
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_THRESHOLD = 25.0


def _get(report: dict, *path):
    """Walk nested keys, returning None when any level is missing."""
    node = report
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _fmt(value, unit=""):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:,.2f}{unit}"
    return f"{value:,}{unit}"


def _change_percent(current, baseline, higher_is_better=True):
    """Signed relative change, '+' meaning improvement; None when unknown."""
    if current is None or baseline is None or not baseline:
        return None
    change = (current - baseline) / baseline * 100.0
    if not higher_is_better:
        change = -change
    return change


def _delta(current, baseline, higher_is_better=True):
    change = _change_percent(current, baseline, higher_is_better)
    return "n/a" if change is None else f"{change:+.1f}%"


METRICS = (
    # (label, key path, unit, higher-is-better, machine-independent ratio)
    ("producer speedup (columnar/iterator)",
     ("producer", "columnar_producer_speedup"), "x", True, True),
    ("producer events/s (columnar)",
     ("producer", "columnar_events_per_second"), "", True, False),
    ("indexed events/s",
     ("results", "indexed", "events_per_second"), "", True, False),
    ("columnar events/s",
     ("results", "columnar", "events_per_second"), "", True, False),
    ("kernel events/s",
     ("results", "kernel", "events_per_second"), "", True, False),
    ("kernel-multicopy events/s",
     ("results", "kernel-multicopy", "events_per_second"), "", True, False),
    ("kernel-trace events/s",
     ("results", "kernel-trace", "events_per_second"), "", True, False),
    ("columnar vs indexed",
     ("speedup_columnar_vs_indexed",), "x", True, True),
    ("kernel vs columnar dispatch",
     ("speedup_kernel_vs_columnar",), "x", True, True),
    ("multicopy kernel vs columnar dispatch",
     ("speedup_kernel_multicopy_vs_columnar",), "x", True, True),
    ("trace kernel vs columnar dispatch",
     ("speedup_kernel_trace_vs_columnar",), "x", True, True),
    # The compiled-backend ratio is gated only when both runs timed a
    # compiled arm; a numpy-only environment simply omits the key and the
    # rows degrade to report-only/new.
    ("compiled backend vs numpy (single-copy kernel)",
     ("speedup_backend_vs_numpy",), "x", True, True),
    ("backend-numpy events/s",
     ("results", "backend-numpy", "events_per_second"), "", True, False),
)


def same_workload(current: dict, baseline: dict) -> bool:
    """Whether the two reports measured the same reference workload."""
    return _get(current, "workload") == _get(baseline, "workload")


def find_regressions(current: dict, baseline: dict, threshold: float) -> list:
    """Gated (ratio) metrics that regressed more than ``threshold`` percent.

    Only the machine-independent ratio rows participate: absolute
    throughput tracks runner speed, not code quality, and the gate has to
    hold on arbitrary CI hardware. Even ratios shift with workload scale
    (a shorter window amortises the producer less), so the gate only
    fires when the workloads match — mismatched runs stay report-only.
    """
    if not same_workload(current, baseline):
        return []
    regressions = []
    for label, path, _unit, higher, is_ratio in METRICS:
        if not is_ratio:
            continue
        change = _change_percent(
            _get(current, *path), _get(baseline, *path), higher
        )
        if change is not None and change < -threshold:
            regressions.append((label, change))
    return regressions


def failed_measurements(current: dict) -> list:
    """Labels of the gated ratios that ``current`` recorded as ``null``.

    A missing key is a mode the run skipped; only an explicit ``null``
    marks a failed measurement.
    """
    return [
        label
        for label, path, _unit, _higher, is_ratio in METRICS
        if is_ratio and (_get(current, *path[:-1]) or {}).get(path[-1], 0) is None
    ]


def build_table(
    current: dict, baseline: dict, regressions: list, failed: list = ()
) -> str:
    gated = {label for label, _ in regressions}
    lines = [
        "### Engine bench delta (ratio-gated)",
        "",
        "| metric | current | baseline | delta |",
        "|---|---|---|---|",
    ]
    for label, path, unit, higher, _is_ratio in METRICS:
        cur = _get(current, *path)
        base = _get(baseline, *path)
        if cur is None and base is None and label not in failed:
            continue  # neither run measured this mode — nothing to say
        marker = " ⚠" if label in gated or label in failed else ""
        # One-sided rows are stated explicitly: a metric the current run
        # has but the baseline lacks is "new" (a freshly added bench
        # mode), and one only the baseline has is "not in current run"
        # (e.g. a --mode subset), instead of an ambiguous n/a.
        if label in failed:
            delta = "failed measurement"
        elif base is None:
            delta = "new"
        elif cur is None:
            delta = "not in current run"
        else:
            delta = _delta(cur, base, higher)
        lines.append(
            f"| {label}{marker} | {_fmt(cur, unit)} | {_fmt(base, unit)} "
            f"| {delta} |"
        )
    if not same_workload(current, baseline):
        cur_sessions = _get(current, "workload", "sessions")
        base_sessions = _get(baseline, "workload", "sessions")
        lines.append("")
        lines.append(
            f"_workloads differ ({cur_sessions} vs {base_sessions} sessions): "
            "rows are not directly comparable, so the regression gate is "
            "report-only for this pair._"
        )
    identical = _get(current, "identical_outcomes")
    lines.append("")
    lines.append(f"_identical outcomes across dispatch modes: **{identical}**_")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[1],
    )
    parser.add_argument("current", type=Path, help="fresh bench JSON to check")
    parser.add_argument(
        "baseline", type=Path, nargs="?", default=ROOT / "BENCH_engine.json",
        help="baseline JSON (default: committed BENCH_engine.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, metavar="PCT",
        help="ratio regression percentage that fails the gate "
        f"(default {DEFAULT_THRESHOLD:g})",
    )
    parser.add_argument(
        "--allow-regression", action="store_true",
        help="report regressions but exit 0 anyway (escape hatch for "
        "intentional trade-offs landing with a refreshed baseline)",
    )
    args = parser.parse_args(argv)

    try:
        current = json.loads(args.current.read_text())
        baseline = json.loads(args.baseline.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench-delta: cannot compare ({error}); skipping", file=sys.stderr)
        return 0

    regressions = find_regressions(current, baseline, args.threshold)
    failed = failed_measurements(current)
    table = build_table(current, baseline, regressions, failed)
    try:
        print(table)
    except BrokenPipeError:  # e.g. piped into head
        return 0
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(table + "\n")
    for label in failed:
        print(
            f"bench-delta: {label} is a failed measurement "
            "(a non-positive phase time)",
            file=sys.stderr,
        )
    if failed:
        return 1
    if regressions:
        for label, change in regressions:
            print(
                f"bench-delta: {label} regressed {change:.1f}% "
                f"(threshold -{args.threshold:g}%)",
                file=sys.stderr,
            )
        if args.allow_regression:
            print(
                "bench-delta: --allow-regression set; not failing the gate",
                file=sys.stderr,
            )
            return 0
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
