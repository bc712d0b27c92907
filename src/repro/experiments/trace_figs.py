"""Trace-driven figures (Figs. 14–19).

The paper evaluates on CRAWDAD ``cambridge/haggle`` Experiments 2 and 3;
this repo substitutes statistically matched synthetic traces (see
DESIGN.md §3). Cambridge: 12 nodes, dense, K = 3, g = 10, L = 1 with
overlapping onion groups (disjoint groups are impossible at that scale).
Infocom 2005: 41 nodes, sparse with off-hours, K = 3, g = 5, L ∈ {1, 3, 5}.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.anonymity import path_anonymity, path_anonymity_multicopy
from repro.analysis.traceable import traceable_rate_model
from repro.contacts.synthetic import cambridge_like_trace, infocom05_like_trace
from repro.contacts.traces import ContactTrace
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import (
    workers_metadata,
    Workers,
    run_parallel_fused_sweep,
)
from repro.experiments.runners import (
    SweepVariant,
    analysis_delivery_curve,
    estimate_active_span,
    run_fused_trace_sweep,
    simulated_delivery_curve,
    trace_contact_graph,
)
from repro.experiments.security_figs import (
    CompromiseModelSpec,
    fused_security_points,
    security_figure_metadata,
)
from repro.utils.rng import RandomSource, ensure_rng

CAMBRIDGE_GROUP_SIZE = 10
CAMBRIDGE_ONIONS = 3
INFOCOM_GROUP_SIZE = 5
INFOCOM_ONIONS = 3


def _trace_delivery_sweep(
    trace: ContactTrace,
    group_size: int,
    onion_routers: int,
    copy_counts: Sequence[int],
    deadlines: Sequence[float],
    sessions: int,
    rng: RandomSource,
    overlapping: bool,
    labels: Sequence[str],
    workers: Workers = 1,
) -> List[List[Series]]:
    """(Analysis, Simulation) series per L, fused over one trace replay.

    Every copy count's sessions run in a single engine pass over one
    :class:`~repro.contacts.events.TraceReplayProcess` — the trace-replay
    blocks feed the struct-of-arrays kernels directly (single-copy and
    multi-copy alike), and the grid points share the replayed contacts.
    """
    generator = ensure_rng(rng)
    normalized = trace.normalized()
    variants = [
        SweepVariant(
            label=label,
            group_size=group_size,
            onion_routers=onion_routers,
            copies=copies,
        )
        for label, copies in zip(labels, copy_counts)
    ]
    sweep = run_parallel_fused_sweep(
        run_fused_trace_sweep,
        variants=variants,
        sessions_per_variant=sessions,
        workers=workers,
        rng=generator,
        trace=normalized,
        deadline=max(deadlines),
        overlapping=overlapping,
    )
    graph = trace_contact_graph(normalized, estimate_active_span(normalized))
    pairs: List[List[Series]] = []
    for variant, batch in zip(variants, sweep):
        routes = [route for route, _ in batch]
        outcomes = [outcome for _, outcome in batch]
        analysis = analysis_delivery_curve(
            graph, routes, deadlines, copies=variant.copies
        )
        simulation = simulated_delivery_curve(outcomes, deadlines)
        pairs.append(
            [
                Series(label=f"Analysis: {variant.label}", points=tuple(analysis)),
                Series(
                    label=f"Simulation: {variant.label}", points=tuple(simulation)
                ),
            ]
        )
    return pairs


def _trace_security_figure(
    figure_id: str,
    title: str,
    n: int,
    group_size: int,
    onion_routers: int,
    copy_counts: Sequence[int],
    compromise_rates: Sequence[float],
    trials: int,
    seed: RandomSource,
    metric: str,
    overlapping: bool,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Shared body of the trace security figures (15, 16, 18, 19).

    The whole (L, c) grid runs as one fused Monte Carlo call: every copy
    count and compromise rate shares a single sampled trial block.
    """
    generator = ensure_rng(seed)
    eta = onion_routers + 1
    series: List[Series] = []
    for copies in copy_counts:
        if metric == "traceable":
            label = f"Analysis: {onion_routers} onions"
            points = tuple(
                (rate, traceable_rate_model(eta, rate)) for rate in compromise_rates
            )
        elif copies == 1:
            label = "Analysis: L=1"
            points = tuple(
                (rate, path_anonymity(n, eta, group_size, rate))
                for rate in compromise_rates
            )
        else:
            label = f"Analysis: L={copies}"
            points = tuple(
                (rate, path_anonymity_multicopy(n, eta, group_size, rate, copies))
                for rate in compromise_rates
            )
        series.append(Series(label=label, points=points))
        if metric == "traceable":
            break  # the traceable rate is copy-count independent (§IV-D)
    # The traceable rate is copy-count independent, so its simulation only
    # needs the first copy count.
    simulated_copies = copy_counts[:1] if metric == "traceable" else copy_counts
    grid = [
        (onion_routers, copies, rate)
        for copies in simulated_copies
        for rate in compromise_rates
    ]
    scored = fused_security_points(
        n,
        group_size,
        grid,
        trials,
        workers,
        generator,
        overlapping=overlapping,
        compromise_model=compromise_model,
    )
    metric_index = 0 if metric == "traceable" else 1
    for row, copies in enumerate(simulated_copies):
        points = tuple(
            (rate, scored[row * len(compromise_rates) + col][metric_index])
            for col, rate in enumerate(compromise_rates)
        )
        label = (
            f"Simulation: {onion_routers} onions"
            if metric == "traceable"
            else f"Simulation: L={copies}"
        )
        series.append(Series(label=label, points=points))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Compromised rate (c/n)",
        y_label="Traceable rate" if metric == "traceable" else "Path anonymity",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


# ----------------------------------------------------------------------
# Cambridge (Figs. 14–16)
# ----------------------------------------------------------------------


def figure_14(
    trace: Optional[ContactTrace] = None,
    deadlines: Sequence[float] = tuple(float(t) for t in range(120, 1801, 120)),
    sessions: int = 50,
    seed: RandomSource = 14,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 14 — delivery rate vs deadline (s) on the Cambridge-like trace."""
    generator = ensure_rng(seed)
    if trace is None:
        trace = cambridge_like_trace(rng=generator)
    series = _trace_delivery_sweep(
        trace,
        group_size=CAMBRIDGE_GROUP_SIZE,
        onion_routers=CAMBRIDGE_ONIONS,
        copy_counts=(1,),
        deadlines=deadlines,
        sessions=sessions,
        rng=generator,
        overlapping=True,
        labels=("L=1",),
        workers=workers,
    )[0]
    return FigureResult(
        figure_id="Fig. 14",
        title="Delivery rate w.r.t. deadline (Cambridge-like trace)",
        x_label="Deadline (seconds)",
        y_label="Delivery rate",
        series=tuple(series),
        metadata=workers_metadata(workers),
    )


def figure_15(
    n: int = 12,
    compromise_rates: Sequence[float] = tuple(c / 100 for c in range(5, 51, 5)),
    trials: int = 2000,
    seed: RandomSource = 15,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 15 — traceable rate vs compromised rate (Cambridge-like trace)."""
    return _trace_security_figure(
        figure_id="Fig. 15",
        title="Traceable rate w.r.t. compromised rate (Cambridge-like trace)",
        n=n,
        group_size=CAMBRIDGE_GROUP_SIZE,
        onion_routers=CAMBRIDGE_ONIONS,
        copy_counts=(1,),
        compromise_rates=compromise_rates,
        trials=trials,
        seed=seed,
        workers=workers,
        metric="traceable",
        overlapping=True,
        compromise_model=compromise_model,
    )


def figure_16(
    n: int = 12,
    compromise_rates: Sequence[float] = tuple(c / 100 for c in range(5, 51, 5)),
    trials: int = 2000,
    seed: RandomSource = 16,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 16 — path anonymity vs compromised rate (Cambridge-like trace)."""
    return _trace_security_figure(
        figure_id="Fig. 16",
        title="Path anonymity w.r.t. compromised rate (Cambridge-like trace)",
        n=n,
        group_size=CAMBRIDGE_GROUP_SIZE,
        onion_routers=CAMBRIDGE_ONIONS,
        copy_counts=(1,),
        compromise_rates=compromise_rates,
        trials=trials,
        seed=seed,
        workers=workers,
        metric="anonymity",
        overlapping=True,
        compromise_model=compromise_model,
    )


# ----------------------------------------------------------------------
# Infocom 2005 (Figs. 17–19)
# ----------------------------------------------------------------------


def figure_17(
    trace: Optional[ContactTrace] = None,
    copy_counts: Sequence[int] = (1, 3, 5),
    deadlines: Sequence[float] = tuple(float(2**k) for k in range(4, 18)),
    sessions: int = 50,
    seed: RandomSource = 17,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 17 — delivery rate vs deadline (log s) on the Infocom-like trace.

    The off-hours plateau appears between deadlines that fall inside the
    first night: delivery stalls until contacts resume the next day.
    """
    generator = ensure_rng(seed)
    if trace is None:
        trace = infocom05_like_trace(rng=generator)
    # One fused sweep: all L values replay the trace once, in one engine
    # pass — single-copy through BatchKernel, L>1 through the multi-copy
    # kernel, over the same replayed contacts.
    pairs = _trace_delivery_sweep(
        trace,
        group_size=INFOCOM_GROUP_SIZE,
        onion_routers=INFOCOM_ONIONS,
        copy_counts=copy_counts,
        deadlines=deadlines,
        sessions=sessions,
        rng=generator,
        overlapping=False,
        labels=tuple(f"L={copies}" for copies in copy_counts),
        workers=workers,
    )
    analysis_half = [pair[0] for pair in pairs]
    simulation_half = [pair[1] for pair in pairs]
    series = analysis_half + simulation_half
    return FigureResult(
        figure_id="Fig. 17",
        title="Delivery rate w.r.t. deadline (Infocom-2005-like trace)",
        x_label="Deadline (seconds)",
        y_label="Delivery rate",
        series=tuple(series),
        metadata=workers_metadata(workers),
    )


def figure_18(
    n: int = 41,
    compromise_rates: Sequence[float] = tuple(c / 100 for c in range(5, 51, 5)),
    trials: int = 2000,
    seed: RandomSource = 18,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 18 — traceable rate vs compromised rate (Infocom-like trace)."""
    return _trace_security_figure(
        figure_id="Fig. 18",
        title="Traceable rate w.r.t. compromised rate (Infocom-2005-like trace)",
        n=n,
        group_size=INFOCOM_GROUP_SIZE,
        onion_routers=INFOCOM_ONIONS,
        copy_counts=(1,),
        compromise_rates=compromise_rates,
        trials=trials,
        seed=seed,
        workers=workers,
        metric="traceable",
        overlapping=False,
        compromise_model=compromise_model,
    )


def figure_19(
    n: int = 41,
    copy_counts: Sequence[int] = (1, 3, 5),
    compromise_rates: Sequence[float] = tuple(c / 100 for c in range(5, 51, 5)),
    trials: int = 2000,
    seed: RandomSource = 19,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 19 — path anonymity vs compromised rate (Infocom-like trace)."""
    return _trace_security_figure(
        figure_id="Fig. 19",
        title="Path anonymity w.r.t. compromised rate (Infocom-2005-like trace)",
        n=n,
        group_size=INFOCOM_GROUP_SIZE,
        onion_routers=INFOCOM_ONIONS,
        copy_counts=copy_counts,
        compromise_rates=compromise_rates,
        trials=trials,
        seed=seed,
        workers=workers,
        metric="anonymity",
        overlapping=False,
        compromise_model=compromise_model,
    )
