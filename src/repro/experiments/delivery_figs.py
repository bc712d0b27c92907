"""Delivery-rate figures on random contact graphs (Figs. 4, 5, 10).

:func:`delivery_figure` is the one body of every delivery-rate figure,
the trace figures 14 and 17 included; :func:`graph_sweeps` runs the
random-graph sweeps that Figs. 4, 5, 10 and 11 measure.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import (
    workers_metadata,
    Workers,
    run_parallel_fused_sweep,
    shared_contact_block,
)
from repro.experiments.runners import (
    SweepVariant,
    analysis_delivery_curve,
    run_fused_graph_sweep,
    simulated_delivery_curve,
)
from repro.utils.rng import RandomSource, ensure_rng, spawn_rng
from repro.utils.validation import check_positive_int


def graph_sweeps(
    config: PaperConfig,
    variants: Sequence[SweepVariant],
    graphs: int,
    sessions_per_graph: int,
    rng: RandomSource,
    workers: Workers = 1,
) -> Iterator[Tuple[ContactGraph, List[list]]]:
    """Yield ``(graph, sweep)`` for each of ``graphs`` random contact graphs.

    Each graph is drawn from its own :func:`~repro.utils.rng.spawn_rng`
    child, and its whole variant grid runs as one fused sweep: all grid
    points share the graph's contact window — one engine pass (one
    struct-of-arrays kernel invocation per kernel class) advances the
    entire grid, and between-point comparisons see common random numbers.
    ``sweep`` holds one ``[(route, outcome), …]`` list per variant.

    ``workers`` is a count or a persistent
    :class:`~repro.experiments.parallel.WorkerPool`; more than one worker
    splits each graph's per-variant session batches across the pool and
    shares a single pre-generated columnar event stream between the chunks
    (deterministic for a fixed seed); one worker keeps the seed-exact
    serial behaviour. Eligible fault-free batches run on the compute
    backend named by ``$REPRO_KERNEL_BACKEND`` (see
    :mod:`repro.sim.backend`); outcomes are byte-identical across backends.
    """
    check_positive_int(graphs, "graphs")
    generator = ensure_rng(rng)
    for graph_rng in spawn_rng(generator, graphs):
        graph = random_contact_graph(
            config.n, config.mean_intercontact_range, rng=graph_rng
        )
        # Shared-stream protocol: generate this graph's contact stream once
        # and ship it to the worker tasks instead of re-sampling per chunk. The
        # block draw advances graph_rng, so parallel results are a different
        # (equally valid) sample than serial — workers=1 stays untouched.
        yield graph, run_parallel_fused_sweep(
            run_fused_graph_sweep,
            variants=variants,
            sessions_per_variant=sessions_per_graph,
            workers=workers,
            rng=graph_rng,
            shared_events=shared_contact_block(
                workers, graph, graph_rng, config.max_deadline
            ),
            graph=graph,
            horizon=config.max_deadline,
        )


def delivery_figure(
    figure_id: str,
    title: str,
    x_label: str,
    variants: Sequence[SweepVariant],
    deadlines: Sequence[float],
    runs: Iterable[Tuple[ContactGraph, List[list]]],
    workers: Workers,
) -> FigureResult:
    """The one body of every delivery-rate figure: rate vs deadline.

    ``runs`` yields ``(graph, sweep)`` pairs, ``sweep`` holding one
    ``[(route, outcome), …]`` list per variant. Each variant gets an
    ``"Analysis: {label}"`` series, the Eq. 6/7 model of each run's routes
    on its graph averaged over the runs, and a ``"Simulation: {label}"``
    series measured from the outcomes of all runs pooled. The figure
    lists every Analysis series, then every Simulation series.
    """
    analysis_totals = [np.zeros(len(deadlines)) for _ in variants]
    outcomes_per_variant: List[list] = [[] for _ in variants]
    count = 0
    for count, (graph, sweep) in enumerate(runs, start=1):
        for slot, (variant, batch) in enumerate(zip(variants, sweep)):
            routes = [route for route, _ in batch]
            outcomes_per_variant[slot].extend(outcome for _, outcome in batch)
            curve = analysis_delivery_curve(
                graph, routes, deadlines, copies=variant.copies
            )
            analysis_totals[slot] += np.array([y for _, y in curve])
    analysis = [
        Series(
            label=f"Analysis: {variant.label}",
            points=tuple(zip(deadlines, total / count)),
        )
        for variant, total in zip(variants, analysis_totals)
    ]
    simulation = [
        Series(
            label=f"Simulation: {variant.label}",
            points=tuple(simulated_delivery_curve(outcomes, deadlines)),
        )
        for variant, outcomes in zip(variants, outcomes_per_variant)
    ]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label="Delivery rate",
        series=tuple(analysis + simulation),
        metadata=workers_metadata(workers),
    )


def figure_04(
    group_sizes: Sequence[int] = (1, 5, 10),
    config: PaperConfig = DEFAULT_CONFIG,
    graphs: int = 5,
    sessions_per_graph: int = 40,
    seed: RandomSource = 4,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 4 — delivery rate vs deadline for group sizes g ∈ {1, 5, 10}.

    The g grid runs as one fused sweep: every group size shares the same
    contact graphs and windows.
    """
    variants = [
        SweepVariant(
            label=f"g={group_size}",
            group_size=group_size,
            onion_routers=config.onion_routers,
            copies=1,
        )
        for group_size in group_sizes
    ]
    return delivery_figure(
        "Fig. 4", "Delivery rate w.r.t. deadline (group sizes)",
        "Deadline (minutes)", variants, config.deadlines,
        graph_sweeps(config, variants, graphs, sessions_per_graph, seed, workers),
        workers,
    )


def figure_05(
    onion_router_counts: Sequence[int] = (3, 5, 10),
    config: PaperConfig = DEFAULT_CONFIG,
    graphs: int = 5,
    sessions_per_graph: int = 40,
    seed: RandomSource = 5,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 5 — delivery rate vs deadline for K ∈ {3, 5, 10} onion routers.

    The K grid runs as one fused sweep over shared contact windows.
    """
    variants = [
        SweepVariant(
            label=f"{onion_routers} onions",
            group_size=config.group_size,
            onion_routers=onion_routers,
            copies=1,
        )
        for onion_routers in onion_router_counts
    ]
    return delivery_figure(
        "Fig. 5", "Delivery rate w.r.t. deadline (onion router counts)",
        "Deadline (minutes)", variants, config.deadlines,
        graph_sweeps(config, variants, graphs, sessions_per_graph, seed, workers),
        workers,
    )


def figure_10(
    copy_counts: Sequence[int] = (1, 3, 5),
    config: PaperConfig = DEFAULT_CONFIG,
    graphs: int = 5,
    sessions_per_graph: int = 40,
    seed: RandomSource = 10,
    workers: Workers = 1,
) -> FigureResult:
    """Fig. 10 — delivery rate vs deadline for L ∈ {1, 3, 5} copies (g = 5).

    The paper pins g = 5 here "to make sure that L ≤ g holds". The L grid
    runs as one fused sweep — single-copy sessions sweep through
    :class:`~repro.sim.kernel.BatchKernel` and the multi-copy grid points
    through :class:`~repro.sim.kernel.MultiCopyBatchKernel`, all over the
    same shared contact windows.
    """
    multicopy_config = config.with_(group_size=5)
    variants = [
        SweepVariant(
            label=f"L={copies}",
            group_size=multicopy_config.group_size,
            onion_routers=multicopy_config.onion_routers,
            copies=copies,
        )
        for copies in copy_counts
    ]
    return delivery_figure(
        "Fig. 10", "Delivery rate w.r.t. deadline (copy counts, g=5)",
        "Deadline (minutes)", variants, multicopy_config.deadlines,
        graph_sweeps(
            multicopy_config, variants, graphs, sessions_per_graph, seed, workers
        ),
        workers,
    )
