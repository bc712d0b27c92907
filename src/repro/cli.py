"""Command-line entry point.

Subcommands::

    onion-dtn list                          # available figures
    onion-dtn figure 6 [--chart]            # regenerate one paper figure
    onion-dtn figure r1                     # extension/robustness figures
    onion-dtn model --n 100 -g 5 -K 3 ...   # evaluate the analytical models
    onion-dtn plan --target 0.95 ...        # invert the models for planning
    onion-dtn simulate --protocol multi ... # quick protocol simulation
    onion-dtn simulate --availability 0.8 --drop-prob 0.5 ...  # with faults
    onion-dtn trace stats FILE              # inspect a haggle-format trace
    onion-dtn backends                      # kernel backends + availability

The compute backend of the delivery kernels (the single- and multi-copy
session sweeps) is chosen by ``$REPRO_KERNEL_BACKEND`` (``numpy`` by
default, or ``cc``) for every subcommand; it affects only those kernels,
and the security Monte Carlo always scores on numpy. Outcomes are
byte-identical across backends, so ``REPRO_KERNEL_BACKEND=cc onion-dtn
figure 5`` prints what the default run prints, only faster or slower.
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from typing import Callable, Dict, Optional, Union

from repro.experiments import (
    figure_04,
    figure_05,
    figure_06,
    figure_07,
    figure_08,
    figure_09,
    figure_10,
    figure_11,
    figure_12,
    figure_13,
    figure_14,
    figure_15,
    figure_16,
    figure_17,
    figure_18,
    figure_19,
    figure_e1,
    figure_e2,
    figure_r1,
    figure_r2,
)
from repro.experiments.result import FigureResult
from repro.sim.backend import BACKENDS, ENV_VAR, check_backend_name

FigureKey = Union[int, str]

_FIGURES: Dict[FigureKey, Callable[..., FigureResult]] = {
    4: figure_04,
    5: figure_05,
    6: figure_06,
    7: figure_07,
    8: figure_08,
    9: figure_09,
    10: figure_10,
    11: figure_11,
    12: figure_12,
    13: figure_13,
    14: figure_14,
    15: figure_15,
    16: figure_16,
    17: figure_17,
    18: figure_18,
    19: figure_19,
    "e1": figure_e1,
    "e2": figure_e2,
    "r1": figure_r1,
    "r2": figure_r2,
}


def _figure_key(value: str) -> FigureKey:
    """Parse a figure selector: a number (``6``) or an alias (``r1``)."""
    text = value.lower().strip()
    if text.startswith("fig"):  # tolerate "fig6" / "fig. r1"
        text = text[3:].lstrip(". ")
    try:
        key: FigureKey = int(text)
    except ValueError:
        key = text
    if key not in _FIGURES:
        known = ", ".join(str(k) for k in _sorted_figure_keys())
        raise argparse.ArgumentTypeError(
            f"unknown figure {value!r} (choose from {known})"
        )
    return key


def _checked(parse: Callable, accept: Callable, expected: str) -> Callable:
    """Argparse type: ``parse`` the text, then require ``accept(value)``.

    A bad value is a usage error (exit 2), never a traceback mid-run.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    return convert


# ``x < math.inf`` is False for nan and inf, so the floats must be finite.
_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer seed")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_non_negative_float = _checked(
    float, lambda v: 0 <= v < math.inf, "a non-negative number"
)
_probability = _checked(float, lambda v: 0 <= v <= 1, "a probability in [0, 1]")
_fraction = _checked(float, lambda v: 0 <= v < 1, "a fraction in [0, 1)")


def _sorted_figure_keys() -> list:
    numbers = sorted(k for k in _FIGURES if isinstance(k, int))
    names = sorted(k for k in _FIGURES if isinstance(k, str))
    return numbers + names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onion-dtn",
        description=(
            "Reproduce 'An Analysis of Onion-Based Anonymous Routing for "
            "Delay Tolerant Networks' (ICDCS 2016)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available figures")

    figure = subparsers.add_parser("figure", help="regenerate one figure")
    figure.add_argument(
        "number",
        type=_figure_key,
        metavar="FIGURE",
        help="paper figure number (4-19) or alias (e1, e2, r1, r2)",
    )
    figure.add_argument("--seed", type=_seed, default=None)
    figure.add_argument(
        "--trials", type=_positive_int, default=None,
        help="Monte Carlo trials (security figures)",
    )
    figure.add_argument(
        "--compromise-model",
        choices=("uniform", "bernoulli", "targeted", "stake"),
        default=None,
        help="adversary sampling strategy for the security figures "
        "(default uniform: fixed-count uniform compromise)",
    )
    figure.add_argument(
        "--sessions", type=_positive_int, default=None,
        help="simulated sessions (delivery/cost figures)",
    )
    figure.add_argument(
        "--workers", type=_positive_int, default=None,
        help="worker processes for the simulation/Monte Carlo batches "
        "(default 1: serial, seed-exact with historical runs)",
    )
    figure.add_argument("--markdown", action="store_true")
    figure.add_argument(
        "--chart", action="store_true", help="render an ASCII chart too"
    )
    figure.add_argument(
        "--save", metavar="PATH", default=None,
        help="also save the figure as JSON",
    )

    model = subparsers.add_parser(
        "model", help="evaluate the analytical models for one configuration"
    )
    _add_config_args(model)
    model.add_argument(
        "--deadline", type=_non_negative_float, default=720.0,
        help="deadline T (minutes)",
    )
    model.add_argument(
        "--compromise", type=_probability, default=0.10,
        help="compromise rate c/n",
    )
    model.add_argument("--seed", type=_seed, default=0)

    plan = subparsers.add_parser(
        "plan", help="invert the models: deadline or copies for a target"
    )
    _add_config_args(plan)
    plan.add_argument("--target", type=_fraction, required=True,
                      help="delivery target, e.g. 0.95")
    plan.add_argument("--deadline", type=_positive_float, default=None,
                      help="fix the deadline and solve for copies L")
    plan.add_argument("--seed", type=_seed, default=0)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one protocol configuration"
    )
    _add_config_args(simulate)
    simulate.add_argument(
        "--protocol",
        choices=("single", "multi", "arden", "epidemic", "spray", "direct"),
        default="single",
    )
    simulate.add_argument("--deadline", type=_positive_float, default=720.0)
    simulate.add_argument("--trials", type=_positive_int, default=100)
    simulate.add_argument("--seed", type=_seed, default=0)
    faults = simulate.add_argument_group(
        "fault injection",
        "node churn / fail-stop affect every protocol (suppressed "
        "contacts); dropping relays and custody recovery require "
        "--protocol single or multi",
    )
    faults.add_argument(
        "--availability", default=None,
        type=_checked(
            float, lambda v: 0 < v < 1,
            "an availability in (0, 1) (omit the flag for no churn)",
        ),
        help="stationary node availability under churn, in (0, 1)",
    )
    faults.add_argument(
        "--churn-cycle", type=_positive_float, default=20.0,
        help="mean up+down churn cycle length (same units as --deadline)",
    )
    faults.add_argument(
        "--death-rate", type=_non_negative_float, default=None,
        help="per-node fail-stop death rate (permanent crashes)",
    )
    faults.add_argument(
        "--drop-prob", type=_probability, default=None,
        help="greyhole drop probability of compromised relays",
    )
    faults.add_argument(
        "--drop-compromise", type=_fraction, default=0.2,
        help="compromised fraction acting as dropping relays",
    )
    faults.add_argument(
        "--custody-timeout", type=_positive_float, default=None,
        help="enable custody recovery with this re-anycast timeout",
    )
    faults.add_argument(
        "--max-retries", type=_positive_int, default=3,
        help="bounded recovery retries / ticket reclamations",
    )

    trace = subparsers.add_parser("trace", help="trace-file utilities")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    stats = trace_sub.add_parser("stats", help="summarise a haggle-format file")
    stats.add_argument("path")

    subparsers.add_parser(
        "backends",
        help="list the registered kernel backends, their availability, "
        "and the degradation reason for each unavailable one",
    )

    return parser


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=_positive_int, default=100, help="network size")
    parser.add_argument("-g", "--group-size", type=_positive_int, default=5)
    parser.add_argument("-K", "--onion-routers", type=_positive_int, default=3)
    parser.add_argument("-L", "--copies", type=_positive_int, default=1)


# Figure flags, the figure-function keywords each one sets (the first one
# the function takes), and the figure family named when none is taken.
_FIGURE_FLAGS = {
    "trials": (("trials",), "security"),
    "compromise_model": (("compromise_model",), "security"),
    "sessions": (("sessions_per_graph", "sessions"), "simulated"),
    "workers": (("workers",), "parallel"),
}


def _figure_keyword(func, keywords) -> Optional[str]:
    params = inspect.signature(func).parameters
    return next((keyword for keyword in keywords if keyword in params), None)


def _run_figure(args: argparse.Namespace) -> int:
    func = _FIGURES[args.number]
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    # A given flag applies to the figures whose function takes its keyword.
    for flag, (keywords, family) in _FIGURE_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        keyword = _figure_keyword(func, keywords)
        if keyword is None:
            takers = [
                str(key)
                for key in _sorted_figure_keys()
                if _figure_keyword(_FIGURES[key], keywords)
            ]
            print(
                f"error: --{flag.replace('_', '-')} only applies to the "
                f"{family} figures ({', '.join(takers)})",
                file=sys.stderr,
            )
            return 2
        kwargs[keyword] = value
    # Fail fast on a bad $REPRO_KERNEL_BACKEND instead of surfacing a
    # traceback from deep inside the sweep at resolve time.
    env_backend = os.environ.get(ENV_VAR)
    if env_backend:
        try:
            check_backend_name(env_backend)
        except ValueError as exc:
            print(f"error: ${ENV_VAR}: {exc}", file=sys.stderr)
            return 2
    workers = kwargs.pop("workers", 1)
    if workers != 1:
        # One persistent pool for the whole figure: every batch the sweep
        # runs reuses the same worker processes instead of forking per call.
        # The pool is supervised — chunk timeouts, crash recovery, bounded
        # seed-exact retries — so a flaky worker degrades the run instead
        # of aborting it. The pool caps its processes at the CPU count, so
        # the figure is the same on every host.
        from repro.experiments.parallel import WorkerPool

        with WorkerPool(workers) as pool:
            kwargs["workers"] = pool
            result = func(**kwargs)
        if pool.report:
            print(pool.report.describe(), file=sys.stderr)
    else:
        result = func(**kwargs)
    print(result.to_markdown() if args.markdown else result.to_table())
    if args.chart:
        from repro.experiments.ascii_chart import render_chart

        print()
        print(render_chart(result))
    if args.save:
        from repro.experiments.persistence import save_figure

        save_figure(result, args.save)
        print(f"saved JSON to {args.save}")
    return 0


def _check_route_config(parser: argparse.ArgumentParser, args) -> None:
    """Reject ``--n``/``-g``/``-K`` combinations no route can satisfy.

    A route from node 0 to node n-1 picks K distinct groups other than
    the endpoints' own, so it needs K + 2 of the ⌈n/g⌉ groups whenever
    the endpoints land in different groups.
    """
    n, g, k = args.n, args.group_size, args.onion_routers
    if g > n:
        parser.error(f"-g {g} exceeds --n {n}")
    groups = -(-n // g)
    if groups < k + 2:
        parser.error(
            f"-K {k} needs K + 2 = {k + 2} onion groups, but --n {n} "
            f"with -g {g} gives {groups}"
        )


def _sample_route(args, rng):
    from repro.contacts.random_graph import random_contact_graph
    from repro.core.onion_groups import OnionGroupDirectory

    graph = random_contact_graph(n=args.n, rng=rng)
    directory = OnionGroupDirectory(args.n, args.group_size, rng=rng)
    route = directory.select_route(0, args.n - 1, args.onion_routers, rng=rng)
    return graph, directory, route


def _run_model(args: argparse.Namespace) -> int:
    from repro.analysis import (
        delivery_rate_multicopy,
        multi_copy_cost_bound,
        path_anonymity_multicopy,
        traceable_rate_model,
    )
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(args.seed)
    graph, _, route = _sample_route(args, rng)
    eta = args.onion_routers + 1
    delivery = delivery_rate_multicopy(
        graph, route.source, route.groups, route.destination,
        args.deadline, copies=args.copies,
    )
    print(f"configuration: n={args.n} g={args.group_size} "
          f"K={args.onion_routers} L={args.copies} "
          f"T={args.deadline:g} c/n={args.compromise:.0%}")
    print(f"delivery rate (Eq. 7, one sampled route): {delivery:.4f}")
    print(f"traceable rate (Eq. 12):                  "
          f"{traceable_rate_model(eta, args.compromise):.4f}")
    print(f"path anonymity (Eq. 19/20):               "
          f"{path_anonymity_multicopy(args.n, eta, args.group_size, args.compromise, args.copies):.4f}")
    print(f"transmission bound ((K+2)L):              "
          f"{multi_copy_cost_bound(args.onion_routers, args.copies)}")
    return 0


#: The most copies ``plan --deadline`` considers.
_PLAN_MAX_COPIES = 64


def _run_plan(args: argparse.Namespace) -> int:
    from repro.analysis.delay import copies_for_deadline, deadline_for_target
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(args.seed)
    graph, _, route = _sample_route(args, rng)
    if args.deadline is None:
        deadline = deadline_for_target(
            graph, route.source, route.groups, route.destination,
            args.target, copies=args.copies,
        )
        print(f"deadline for a {args.target!r} delivery target at "
              f"L={args.copies}: {deadline:.1f} time units")
    else:
        try:
            copies = copies_for_deadline(
                graph, route.source, route.groups, route.destination,
                args.deadline, args.target, max_copies=_PLAN_MAX_COPIES,
            )
        except ValueError:
            print(
                f"onion-dtn plan: a {args.target!r} delivery target is "
                f"unreachable within T={args.deadline:g}, even at the "
                f"{_PLAN_MAX_COPIES}-copy limit",
                file=sys.stderr,
            )
            return 1
        print(f"copies for a {args.target!r} delivery target within "
              f"T={args.deadline:g}: L={copies}")
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    from repro.adversary.dropping import DroppingRelays
    from repro.contacts.events import ExponentialContactProcess
    from repro.core.arden import ArdenSingleCopySession
    from repro.core.multi_copy import MultiCopySession
    from repro.core.single_copy import SingleCopySession
    from repro.faults.churn import NodeChurnProcess, NodeChurnSchedule
    from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
    from repro.faults.recovery import FaultPlan, RecoveryPolicy
    from repro.routing.direct import DirectDeliverySession
    from repro.routing.epidemic import EpidemicSession
    from repro.routing.spray_and_wait import SprayAndWaitSession
    from repro.sim.engine import SimulationEngine
    from repro.sim.message import Message
    from repro.sim.metrics import status_counts, summarize
    from repro.utils.rng import ensure_rng, spawn_rng

    faulty = (
        args.availability is not None
        or args.death_rate is not None
        or args.drop_prob is not None
    )
    if args.drop_prob is not None and args.protocol not in ("single", "multi"):
        print(
            "error: --drop-prob requires --protocol single or multi "
            "(only the onion sessions model dropping relays)",
            file=sys.stderr,
        )
        return 2

    rng = ensure_rng(args.seed)
    # Each trial's contacts come from its own child stream, so no trial
    # depends on how far an earlier one read; ``rng`` feeds the rest.
    contact_rngs = spawn_rng(rng, args.trials)
    graph, directory, _ = _sample_route(args, rng)
    relays = None
    if args.drop_prob is not None:
        relays = DroppingRelays.sample(
            args.n, args.drop_compromise, args.drop_prob, rng=rng,
            protected=(0, args.n - 1),
        )
    recovery = None
    if args.custody_timeout is not None:
        recovery = RecoveryPolicy(
            custody_timeout=args.custody_timeout, max_retries=args.max_retries
        )
    outcomes = []
    for contact_rng in contact_rngs:
        # Fresh schedules each trial: engines restart the clock at zero.
        failstop = None
        if args.death_rate is not None:
            failstop = FailStopSchedule(args.n, death_rate=args.death_rate, rng=rng)
        churn = None
        if args.availability is not None:
            churn = NodeChurnSchedule.from_availability(
                args.n, args.availability, args.churn_cycle, rng=rng
            )
        plan = None
        if failstop is not None or relays is not None:
            plan = FaultPlan(failstop=failstop, relays=relays)
        message = Message(0, args.n - 1, 0.0, args.deadline)
        if args.protocol in ("single", "multi", "arden"):
            route = directory.select_route(
                0, args.n - 1, args.onion_routers, rng=rng
            )
        if args.protocol == "single":
            session = SingleCopySession(
                message, route, faults=plan, recovery=recovery
            )
        elif args.protocol == "multi":
            session = MultiCopySession(
                message, route, copies=args.copies,
                faults=plan, recovery=recovery,
            )
        elif args.protocol == "arden":
            dest_group = directory.members(directory.group_of(args.n - 1))
            session = ArdenSingleCopySession(message, route, dest_group)
        elif args.protocol == "epidemic":
            session = EpidemicSession(message)
        elif args.protocol == "spray":
            session = SprayAndWaitSession(message, copies=args.copies)
        else:
            session = DirectDeliverySession(message)
        events = ExponentialContactProcess(graph, rng=contact_rng)
        if failstop is not None:
            events = FailStopContactProcess(events, failstop)
        if churn is not None:
            events = NodeChurnProcess(events, churn)
        # Trials usually end well before the deadline; windowed reads stop
        # producing events soon after delivery.
        engine = SimulationEngine(events, horizon=args.deadline, consume="stream")
        engine.add_session(session)
        engine.run()
        outcomes.append(session.outcome())
    print(f"protocol={args.protocol} trials={args.trials} "
          f"T={args.deadline:g}")
    print(summarize(outcomes))
    if faulty:
        tally = status_counts(outcomes)
        print("outcomes: " + " ".join(
            f"{status}={count}" for status, count in sorted(tally.items())
        ))
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from repro.contacts.traces import ContactTrace

    trace = ContactTrace.load(args.path).normalized()
    counts = trace.contact_counts()
    pairs_possible = trace.n * (trace.n - 1) / 2
    print(f"trace: {args.path}")
    print(f"  nodes:     {trace.n}")
    print(f"  contacts:  {len(trace)}")
    print(f"  span:      {trace.duration:g} time units")
    print(f"  pairs met: {len(counts)} / {pairs_possible:.0f} "
          f"({len(counts) / pairs_possible:.0%})")
    if counts:
        import numpy as np

        values = list(counts.values())
        print(f"  contacts/pair: mean={np.mean(values):.1f} "
              f"median={np.median(values):.0f} max={max(values)}")
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    """List kernel backends: availability, role, and degradation reasons.

    Always exits 0 — an unavailable backend is an expected state (it
    degrades to numpy at resolve time), not an error. The output is the
    introspection counterpart of ``$REPRO_KERNEL_BACKEND``: each row names
    a valid selection and what selecting it would actually run.
    """
    env_backend = os.environ.get(ENV_VAR)
    print(f"kernel backends (select with ${ENV_VAR}):")
    for name, cls in BACKENDS.items():
        if cls.available():
            status = "available"
            if name == "numpy":
                status += " (default)"
        else:
            reason = cls.unavailable_reason() or "unavailable"
            status = f"unavailable — degrades to numpy: {reason}"
        kind = "compiled" if cls.compiled else "reference"
        print(f"  {name:<6} [{kind:>9}] {status}")
    if env_backend:
        print(f"${ENV_VAR}={env_backend} is set"
              + ("" if env_backend in BACKENDS else " (unknown name!)"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("model", "plan", "simulate"):
        _check_route_config(parser, args)
    if args.command == "list":
        for key in _sorted_figure_keys():
            doc = (_FIGURES[key].__doc__ or "").strip().splitlines()[0]
            print(f"figure {key!s:>2}  {doc}")
        return 0
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "model":
        return _run_model(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "backends":
        return _run_backends(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
