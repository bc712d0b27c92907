"""Delivery-rate figures on random contact graphs (Figs. 4, 5, 10)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

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


def delivery_sweep_series(
    config: PaperConfig,
    variants: Sequence[SweepVariant],
    graphs: int,
    sessions_per_graph: int,
    rng: RandomSource,
    workers: Workers = 1,
) -> List[Tuple[Series, Series]]:
    """(Analysis, Simulation) series pairs for a fused parameter sweep.

    All grid points share each graph's contact window — one engine pass
    (one struct-of-arrays kernel invocation per kernel class) advances the
    entire grid per graph, and between-point comparisons see common random
    numbers. ``workers`` is a count or a persistent
    :class:`~repro.experiments.parallel.WorkerPool`; more than one worker
    splits each graph's per-variant session batches across the pool and
    shares a single pre-generated columnar event stream between the chunks
    (deterministic for a fixed seed); one worker keeps the seed-exact
    serial behaviour.

    Eligible fault-free single-copy *and* multi-copy batches run through
    the struct-of-arrays kernels, on the compute backend named by
    ``$REPRO_KERNEL_BACKEND`` (see :mod:`repro.sim.backend`) — outcomes
    are byte-identical across backends, only the sweep speed changes.
    """
    generator = ensure_rng(rng)
    deadlines = config.deadlines
    analysis_totals = [np.zeros(len(deadlines)) for _ in variants]
    outcomes_per_variant: List[list] = [[] for _ in variants]
    for graph_rng in spawn_rng(generator, graphs):
        graph = random_contact_graph(
            config.n, config.mean_intercontact_range, rng=graph_rng
        )
        # Shared-stream protocol: generate this graph's contact stream once
        # and ship it to every chunk instead of re-sampling per chunk. The
        # block draw advances graph_rng, so parallel results are a different
        # (equally valid) sample than serial — workers=1 stays untouched.
        sweep = run_parallel_fused_sweep(
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
        for slot, (variant, batch) in enumerate(zip(variants, sweep)):
            routes = [route for route, _ in batch]
            outcomes_per_variant[slot].extend(outcome for _, outcome in batch)
            curve = analysis_delivery_curve(
                graph, routes, deadlines, copies=variant.copies
            )
            analysis_totals[slot] += np.array([y for _, y in curve])
    pairs: List[Tuple[Series, Series]] = []
    for variant, total, outcomes in zip(
        variants, analysis_totals, outcomes_per_variant
    ):
        analysis_points = tuple(zip(deadlines, total / graphs))
        sim_points = tuple(simulated_delivery_curve(outcomes, deadlines))
        pairs.append(
            (
                Series(label=f"Analysis: {variant.label}", points=analysis_points),
                Series(label=f"Simulation: {variant.label}", points=sim_points),
            )
        )
    return pairs


def _sweep_figure(
    figure_id: str,
    title: str,
    config: PaperConfig,
    variants: Sequence[SweepVariant],
    graphs: int,
    sessions_per_graph: int,
    seed: RandomSource,
    workers: Workers,
) -> FigureResult:
    """Shared body of the fused delivery-rate figures."""
    pairs = delivery_sweep_series(
        config,
        variants,
        graphs=graphs,
        sessions_per_graph=sessions_per_graph,
        rng=ensure_rng(seed),
        workers=workers,
    )
    analysis = [a for a, _ in pairs]
    simulation = [s for _, s in pairs]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="Deadline (minutes)",
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
    return _sweep_figure(
        "Fig. 4",
        "Delivery rate w.r.t. deadline (group sizes)",
        config,
        variants,
        graphs,
        sessions_per_graph,
        seed,
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
    return _sweep_figure(
        "Fig. 5",
        "Delivery rate w.r.t. deadline (onion router counts)",
        config,
        variants,
        graphs,
        sessions_per_graph,
        seed,
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
    return _sweep_figure(
        "Fig. 10",
        "Delivery rate w.r.t. deadline (copy counts, g=5)",
        multicopy_config,
        variants,
        graphs,
        sessions_per_graph,
        seed,
        workers,
    )
