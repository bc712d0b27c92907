"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload delivery-figs --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The program is built from ``src/`` (a
pure-Python package; the ``cc`` kernel backend compiles its C library
into ``.bench_build/`` on first use). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The lines before
it repeat the metrics for people, with the ones JSON does not carry
(``failed_frac``, backend provenance, the digest check).

An end-to-end run splits its rounds between :data:`PROCESSES` workload
processes that run one after the other. ``setup_s`` is the median
launch-to-ready time of those processes and of one set-up-only process.
Times are in reference seconds: wall seconds rescaled by the CPU speed
that ``perfbench/speed.py`` samples while they pass. The ``cc`` library
is built before any of them when its cache is empty, so no timed process
pays the one-time compile. See ``perfbench/README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
DIGESTS = HERE / "digests.json"

#: Seed whose first-round result digest is recorded in ``digests.json``.
DEFAULT_SEED = 1
#: Workload processes per end-to-end run. On a shared VM each process runs
#: at a speed of its own for its whole life, so two processes with half
#: the rounds each average that out, and each gives a set-up sample.
PROCESSES = 2
#: Distance between the first round indices of those processes, so they
#: run disjoint rounds.
ROUND_STRIDE = 1000
#: Every child process is killed after this long.
CHILD_TIMEOUT_S = 170.0
TRACKER_ERROR = re.compile(r"resource_tracker\.py.*\n.*\n\s*KeyError")


def bench_env(root: Path) -> dict:
    """The child environment: program on the path, backend choice left to
    each workload, every cache and temp file inside the checkout, string
    hashing fixed so that result digests reproduce."""
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CC_CACHE"] = str(build / "repro-cc-cache")
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """A workload process in its own session, killed with its workers on
    timeout. Times launch to the ready line."""

    def __init__(self, args: list, env: dict, stderr_path: Path):
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKLOAD), *args],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=str(ROOT),
            text=True,
            start_new_session=True,
        )
        self._timer = threading.Timer(CHILD_TIMEOUT_S, self._kill)
        self._timer.start()

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def run(self) -> tuple:
        """(reference seconds from launch to ready, the JSON report or None)."""
        ready = None
        lines = []
        try:
            for line in self.proc.stdout:
                if ready is None and line.startswith("perfbench-ready "):
                    wall = time.perf_counter() - self.started
                    probe = json.loads(line.split(" ", 1)[1])
                    ready = (wall - probe["probe_wall"]) * probe["scale"]
                else:
                    lines.append(line)
        except BaseException:
            self._kill()
            raise
        finally:
            code = self.proc.wait()
            self._timer.cancel()
            self._stderr.close()
        if code != 0 or ready is None:
            sys.stderr.write(self.stderr_path.read_text())
            raise RuntimeError(f"workload process exited with code {code}")
        return ready, json.loads(lines[-1]) if lines else None

    def tracker_errors(self) -> int:
        return len(TRACKER_ERROR.findall(self.stderr_path.read_text()))


def build(env: dict) -> None:
    """Compile the ``cc`` backend's library once per checkout."""
    if not list(Path(env["REPRO_CC_CACHE"]).glob("*.so")):
        subprocess.run(
            [sys.executable, "-c", "from repro.sim.backend import resolve_backend; resolve_backend('cc')"],
            env=env, cwd=str(ROOT), check=True, timeout=CHILD_TIMEOUT_S,
        )


def digest_check(workload: str, seed: int, scale: str, digest: str) -> str:
    """``match``, ``mismatch`` or ``unchecked`` for the first round's digest."""
    recorded = json.loads(DIGESTS.read_text()).get(workload)
    if scale != "full" or seed != DEFAULT_SEED or recorded is None:
        return "unchecked"
    return "match" if recorded == digest else "mismatch"


def run_children(args, env: dict) -> tuple:
    """Run the workload processes: (set-up samples, merged report, tracker
    errors per round)."""
    tmp = Path(env["TMPDIR"])
    common = ["--workload", args.workload, "--scale", args.scale]
    if args.trace:
        runs = [["--trace", "1", "--seconds", str(args.seconds)]]
        setup = []
    else:
        runs = [
            ["--trace", "0", "--seconds", str(args.seconds / PROCESSES), "--start", str(k * ROUND_STRIDE)]
            for k in range(PROCESSES)
        ]
        setup = [Child([*common, "--setup-only"], env, tmp / "setup.err").run()[0]]
    reports = []
    tracker = 0
    for k, extra in enumerate(runs):
        child = Child([*common, "--seed", str(args.seed), *extra], env, tmp / f"workload-{k}.err")
        ready, report = child.run()
        setup.append(ready)
        reports.append(report)
        tracker += child.tracker_errors()

    merged = dict(reports[0])
    for report in reports[1:]:
        for key in ("rounds", "wall_s", "items", "checked_items", "points", "bad", "quarantined", "resolve_fallbacks"):
            merged[key] += report[key]
        for key in ("rates", "wall_rates", "speeds", "gaps"):
            merged[key] = merged[key] + report[key]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], report["peak_rss_mb"])
    # A traced run adds a warm-up round and a traced pass as long as the plain one.
    rounds = merged["rounds"] * 2 + 1 if args.trace else merged["rounds"]
    return setup, merged, tracker / rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: seconds-long inputs for the benchmark's own tests",
    )
    parser.add_argument(
        "--record-digest", action="store_true",
        help=f"store this run's first-round digest as the seed-{DEFAULT_SEED} reference",
    )
    args = parser.parse_args(argv)
    # Turn a terminate request into an exception, so the running workload
    # process group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(names)})", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.record_digest and (args.seed != DEFAULT_SEED or args.scale != "full"):
        print(f"error: record digests at --seed {DEFAULT_SEED} --scale full", file=sys.stderr)
        return 2

    env = bench_env(ROOT)
    build(env)
    setup, report, tracker = run_children(args, env)

    if args.record_digest:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests[args.workload] = report["digest"]
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")

    check = digest_check(args.workload, args.seed, args.scale, report["digest"])
    attempted = report["checked_items"] + report["points"]
    failed = report["quarantined"] + report["bad"]
    if check == "mismatch":
        failed = attempted
    correct = failed == 0

    if args.trace:
        values = dict(report["layers"], **{"experiments.shm.tracker_errors": tracker})
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            # Median over rounds: a burst of load from outside shifts one
            # round, not the figure.
            "sessions_per_s": statistics.median(report["rates"]),
            "peak_rss_mb": report["peak_rss_mb"],
            "model_gap": statistics.fmean(report["gaps"]),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    item_rate = "trial_points_per_s" if report["item"] == "trial_points" else "sessions_per_s"
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {report['rounds']} rounds, "
        f"{report['items']} {report['item']} in {report['wall_s']:.3f} s"
    )
    for name, metric in metrics.items():
        label = item_rate if name == "sessions_per_s" else name
        print(f"  {label:<44} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(
            f"  {'(per second of wall, not rescaled)':<44} {statistics.median(report['wall_rates']):.6g} 1/s; "
            f"mean CPU speed {statistics.fmean(report['speeds']):.3f} x reference"
        )
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print(
        f"  backend {report['backend']} (REPRO_KERNEL_BACKEND cleared; "
        f"resolve-time KernelFallback events: {report['resolve_fallbacks']})"
    )
    print(f"  resource_tracker KeyError tracebacks per round: {tracker:.6g}")
    print(f"  first-round digest {report['digest'][:16]}: {check}")
    if args.trace:
        print(f"  kernels ran on (parent process): {', '.join(report['backends_seen']) or 'none'}")
        if report["missing_spans"]:
            print(f"  spans not installed (entry point gone): {', '.join(report['missing_spans'])}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
