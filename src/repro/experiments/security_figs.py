"""Security figures: traceable rate and path anonymity (Figs. 6–9, 12, 13).

These metrics are independent of the contact-graph realisation (§V-A), so
the "Simulation" series are Monte Carlo draws of routes and compromised
sets, and the "Analysis" series are the closed-form models.

Each figure's whole (compromise-rate c, onion-count K, copies L) grid runs
as ONE fused Monte Carlo call per group size: the grid points share a
single :class:`~repro.adversary.kernel.SecurityTrialBlock` (common random
numbers), and the :class:`~repro.adversary.kernel.SecurityBatchKernel`
scores every point without per-trial Python objects. The kernel is the
only scorer; the test suite checks it against a row-by-row walk of the
same block through the per-trial objects.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.adversary.compromise import CompromiseModel
from repro.adversary.kernel import SecuritySweepVariant
from repro.analysis.anonymity import path_anonymity, path_anonymity_multicopy
from repro.analysis.traceable import traceable_rate_model
from repro.experiments.config import DEFAULT_CONFIG, PaperConfig
from repro.experiments.result import FigureResult, Series
from repro.experiments.parallel import Workers, run_parallel_montecarlo, workers_metadata
from repro.experiments.runners import security_sweep_montecarlo
from repro.utils.rng import RandomSource, ensure_rng

CompromiseModelSpec = Union[str, CompromiseModel]


def compromise_model_name(compromise_model: CompromiseModelSpec) -> str:
    """A JSON-safe label for the adversary used in figure metadata."""
    if isinstance(compromise_model, str):
        return compromise_model
    return getattr(compromise_model, "name", type(compromise_model).__name__)


def security_figure_metadata(
    workers: Workers, compromise_model: CompromiseModelSpec
) -> dict:
    """Execution metadata for security figures: workers + adversary."""
    meta = workers_metadata(workers)
    meta["compromise_model"] = compromise_model_name(compromise_model)
    return meta


def fused_security_points(
    n: int,
    group_size: int,
    grid: Sequence[Tuple[int, int, float]],
    trials: int,
    workers: Workers,
    rng: RandomSource,
    overlapping: bool = False,
    compromise_model: CompromiseModelSpec = "uniform",
) -> List[Tuple[float, float]]:
    """(traceable, anonymity) per ``(K, L, c)`` grid point, one fused call.

    All grid points of one group size share a single sampled trial block
    (common random numbers), so e.g. the K = 3 and K = 10 curves of
    fig. 6 differ only through the metric, not through sampling noise.
    """
    variants = tuple(
        SecuritySweepVariant(
            label=f"K={onion_routers} L={copies} c={rate:g}",
            onion_routers=onion_routers,
            copies=copies,
            compromise_rate=rate,
        )
        for onion_routers, copies, rate in grid
    )
    flat = run_parallel_montecarlo(
        security_sweep_montecarlo,
        n=n,
        group_size=group_size,
        variants=variants,
        trials=trials,
        workers=workers,
        rng=rng,
        overlapping=overlapping,
        compromise_model=compromise_model,
    )
    return [(flat[2 * k], flat[2 * k + 1]) for k in range(len(variants))]


def figure_06(
    onion_router_counts: Sequence[int] = (3, 5, 10),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 6,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 6 — traceable rate vs compromised rate for K ∈ {3, 5, 10}."""
    generator = ensure_rng(seed)
    rates = config.compromise_rates
    series: List[Series] = []
    for onion_routers in onion_router_counts:
        eta = onion_routers + 1
        series.append(
            Series(
                label=f"Analysis: {onion_routers} onions",
                points=tuple(
                    (rate, traceable_rate_model(eta, rate)) for rate in rates
                ),
            )
        )
    grid = [
        (onion_routers, 1, rate)
        for onion_routers in onion_router_counts
        for rate in rates
    ]
    scored = fused_security_points(
        config.n,
        config.group_size,
        grid,
        trials,
        workers,
        generator,
        compromise_model=compromise_model,
    )
    for row, onion_routers in enumerate(onion_router_counts):
        points = tuple(
            (rate, scored[row * len(rates) + col][0])
            for col, rate in enumerate(rates)
        )
        series.append(Series(label=f"Simulation: {onion_routers} onions", points=points))
    return FigureResult(
        figure_id="Fig. 6",
        title="Traceable rate w.r.t. compromised rate",
        x_label="Compromised rate (c/n)",
        y_label="Traceable rate",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


def figure_07(
    compromise_rates: Sequence[float] = (0.10, 0.20, 0.30),
    onion_router_counts: Sequence[int] = tuple(range(1, 11)),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 7,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 7 — traceable rate vs number of onion relays for c/n ∈ {10, 20, 30}%."""
    generator = ensure_rng(seed)
    series: List[Series] = []
    for rate in compromise_rates:
        series.append(
            Series(
                label=f"Analysis: c/n={rate:.0%}",
                points=tuple(
                    (float(k), traceable_rate_model(k + 1, rate))
                    for k in onion_router_counts
                ),
            )
        )
    grid = [
        (onion_routers, 1, rate)
        for rate in compromise_rates
        for onion_routers in onion_router_counts
    ]
    scored = fused_security_points(
        config.n,
        config.group_size,
        grid,
        trials,
        workers,
        generator,
        compromise_model=compromise_model,
    )
    for row, rate in enumerate(compromise_rates):
        points = tuple(
            (float(onion_routers), scored[row * len(onion_router_counts) + col][0])
            for col, onion_routers in enumerate(onion_router_counts)
        )
        series.append(Series(label=f"Simulation: c/n={rate:.0%}", points=points))
    return FigureResult(
        figure_id="Fig. 7",
        title="Traceable rate w.r.t. number of onion relays",
        x_label="Number of onion relays",
        y_label="Traceable rate",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


def figure_08(
    group_sizes: Sequence[int] = (1, 5, 10),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 8,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 8 — path anonymity vs compromised rate for g ∈ {1, 5, 10}."""
    generator = ensure_rng(seed)
    rates = config.compromise_rates
    eta = config.eta
    series: List[Series] = []
    for group_size in group_sizes:
        series.append(
            Series(
                label=f"Analysis: g={group_size}",
                points=tuple(
                    (rate, path_anonymity(config.n, eta, group_size, rate))
                    for rate in rates
                ),
            )
        )
    # The trial block is sampled per group size, so the fusion unit is one
    # g value: each series' whole rate sweep shares one block.
    for group_size in group_sizes:
        grid = [(config.onion_routers, 1, rate) for rate in rates]
        scored = fused_security_points(
            config.n,
            group_size,
            grid,
            trials,
            workers,
            generator,
            compromise_model=compromise_model,
            )
        points = tuple(
            (rate, scored[col][1]) for col, rate in enumerate(rates)
        )
        series.append(Series(label=f"Simulation: g={group_size}", points=points))
    return FigureResult(
        figure_id="Fig. 8",
        title="Path anonymity w.r.t. compromised rate",
        x_label="Compromised rate (c/n)",
        y_label="Path anonymity",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


def figure_09(
    compromise_rates: Sequence[float] = (0.10, 0.20, 0.30),
    group_sizes: Sequence[int] = tuple(range(1, 11)),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 9,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 9 — path anonymity vs group size for c/n ∈ {10, 20, 30}%."""
    generator = ensure_rng(seed)
    eta = config.eta
    series: List[Series] = []
    for rate in compromise_rates:
        series.append(
            Series(
                label=f"Analysis: c/n={rate:.0%}",
                points=tuple(
                    (float(g), path_anonymity(config.n, eta, g, rate))
                    for g in group_sizes
                ),
            )
        )
    # One fused rate sweep per g (the block depends on g); transpose the
    # per-g columns into the figure's per-rate series.
    columns = []
    for group_size in group_sizes:
        grid = [(config.onion_routers, 1, rate) for rate in compromise_rates]
        columns.append(
            fused_security_points(
                config.n,
                group_size,
                grid,
                trials,
                workers,
                generator,
                compromise_model=compromise_model,
                    )
        )
    for row, rate in enumerate(compromise_rates):
        points = tuple(
            (float(group_size), columns[col][row][1])
            for col, group_size in enumerate(group_sizes)
        )
        series.append(Series(label=f"Simulation: c/n={rate:.0%}", points=points))
    return FigureResult(
        figure_id="Fig. 9",
        title="Path anonymity w.r.t. group size",
        x_label="Group size",
        y_label="Path anonymity",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


def figure_12(
    copy_counts: Sequence[int] = (1, 3, 5),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 12,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 12 — path anonymity vs compromised rate for L ∈ {1, 3, 5} (g = 5)."""
    generator = ensure_rng(seed)
    multicopy_config = config.with_(group_size=5)
    rates = multicopy_config.compromise_rates
    eta = multicopy_config.eta
    g = multicopy_config.group_size
    series: List[Series] = []
    for copies in copy_counts:
        series.append(
            Series(
                label=f"Analysis: L={copies}",
                points=tuple(
                    (
                        rate,
                        path_anonymity_multicopy(
                            multicopy_config.n, eta, g, rate, copies
                        ),
                    )
                    for rate in rates
                ),
            )
        )
    grid = [
        (multicopy_config.onion_routers, copies, rate)
        for copies in copy_counts
        for rate in rates
    ]
    scored = fused_security_points(
        multicopy_config.n,
        g,
        grid,
        trials,
        workers,
        generator,
        compromise_model=compromise_model,
    )
    for row, copies in enumerate(copy_counts):
        points = tuple(
            (rate, scored[row * len(rates) + col][1])
            for col, rate in enumerate(rates)
        )
        series.append(Series(label=f"Simulation: L={copies}", points=points))
    return FigureResult(
        figure_id="Fig. 12",
        title="Path anonymity w.r.t. compromised rate (multi-copy, g=5)",
        x_label="Compromised rate (c/n)",
        y_label="Path anonymity",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )


def figure_13(
    copy_counts: Sequence[int] = (1, 3, 5),
    group_sizes: Sequence[int] = tuple(range(1, 11)),
    compromise_rate: float = 0.10,
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 13,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 13 — path anonymity vs group size for L ∈ {1, 3, 5} (c/n = 10%)."""
    generator = ensure_rng(seed)
    eta = config.eta
    series: List[Series] = []
    for copies in copy_counts:
        series.append(
            Series(
                label=f"Analysis: L={copies}",
                points=tuple(
                    (
                        float(g),
                        path_anonymity_multicopy(
                            config.n, eta, g, compromise_rate, copies
                        ),
                    )
                    for g in group_sizes
                ),
            )
        )
    columns = []
    for group_size in group_sizes:
        grid = [
            (config.onion_routers, copies, compromise_rate)
            for copies in copy_counts
        ]
        columns.append(
            fused_security_points(
                config.n,
                group_size,
                grid,
                trials,
                workers,
                generator,
                compromise_model=compromise_model,
                    )
        )
    for row, copies in enumerate(copy_counts):
        points = tuple(
            (float(group_size), columns[col][row][1])
            for col, group_size in enumerate(group_sizes)
        )
        series.append(Series(label=f"Simulation: L={copies}", points=points))
    return FigureResult(
        figure_id="Fig. 13",
        title="Path anonymity w.r.t. group size (multi-copy, c/n=10%)",
        x_label="Group size",
        y_label="Path anonymity",
        series=tuple(series),
        metadata=security_figure_metadata(workers, compromise_model),
    )
