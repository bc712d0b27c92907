"""Security figures: traceable rate and path anonymity (Figs. 6–9, 12, 13).

These metrics are independent of the contact-graph realisation (§V-A), so
the "Simulation" series are Monte Carlo draws of routes and compromised
sets, and the "Analysis" series are the closed-form models.

Every security figure, the trace figures 15, 16, 18 and 19 included, is
one call to :func:`security_figure`. It runs the figure's (c, K, L) grid
as ONE fused Monte Carlo call per group size: the grid points share a
single :class:`~repro.adversary.kernel.SecurityTrialBlock` (common random
numbers), and the :class:`~repro.adversary.kernel.SecurityBatchKernel`
scores every point without per-trial Python objects. The kernel is the
only scorer; the test suite checks it against a row-by-row walk of the
same block through the per-trial objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

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

#: The y label of each security metric, in the order
#: :func:`fused_security_points` returns them per grid point.
SECURITY_METRICS = ("Traceable rate", "Path anonymity")


def compromise_model_name(compromise_model: CompromiseModelSpec) -> str:
    """A JSON-safe label for the adversary used in figure metadata."""
    if isinstance(compromise_model, str):
        return compromise_model
    return getattr(compromise_model, "name", type(compromise_model).__name__)


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


def security_figure(
    figure_id: str,
    title: str,
    x_label: str,
    y_label: str,
    lines: Sequence[Any],
    xs: Sequence[Any],
    label: Callable[[Any], str],
    model: Callable[[Any, Any], float],
    cell: Callable[[Any, Any], Tuple[int, int, int, float]],
    n: int,
    trials: int,
    seed: RandomSource,
    workers: Workers,
    compromise_model: CompromiseModelSpec,
    overlapping: bool = False,
) -> FigureResult:
    """The one body of every security figure: a metric vs one grid axis.

    Each of ``lines`` gives an ``"Analysis: {label(line)}"`` series of
    ``model(line, x)`` and a ``"Simulation: {label(line)}"`` series of the
    Monte Carlo estimate of ``cell(line, x) = (g, K, L, c)`` over ``xs``.
    ``y_label`` names the metric: ``"Traceable rate"`` or ``"Path anonymity"``.

    Fusion rule: the trial block is sampled per group size, so the cells
    run as one :func:`fused_security_points` call per group size ``g``,
    in the order each ``g`` first appears, with the cells of a call in
    line-major order. Every seeded figure output depends on this order.
    """
    metric = SECURITY_METRICS.index(y_label)
    generator = ensure_rng(seed)
    groups: Dict[int, list] = {}  # g -> [(row, col, (K, L, c)), ...]
    for row, line in enumerate(lines):
        for col, x in enumerate(xs):
            group_size, onion_routers, copies, rate = cell(line, x)
            groups.setdefault(group_size, []).append(
                (row, col, (onion_routers, copies, rate))
            )
    simulated = [[0.0] * len(xs) for _ in lines]
    for group_size, members in groups.items():
        scored = fused_security_points(
            n,
            group_size,
            [grid_point for _, _, grid_point in members],
            trials,
            workers,
            generator,
            overlapping=overlapping,
            compromise_model=compromise_model,
        )
        for (row, col, _), point in zip(members, scored):
            simulated[row][col] = point[metric]
    series = [
        Series(
            label=f"Analysis: {label(line)}",
            points=tuple((x, model(line, x)) for x in xs),
        )
        for line in lines
    ] + [
        Series(label=f"Simulation: {label(line)}", points=tuple(zip(xs, ys)))
        for line, ys in zip(lines, simulated)
    ]
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label=y_label,
        series=tuple(series),
        metadata=dict(
            workers_metadata(workers),
            compromise_model=compromise_model_name(compromise_model),
        ),
    )


def figure_06(
    onion_router_counts: Sequence[int] = (3, 5, 10),
    config: PaperConfig = DEFAULT_CONFIG,
    trials: int = 2000,
    seed: RandomSource = 6,
    workers: Workers = 1,
    compromise_model: CompromiseModelSpec = "uniform",
) -> FigureResult:
    """Fig. 6 — traceable rate vs compromised rate for K ∈ {3, 5, 10}."""
    return security_figure(
        "Fig. 6", "Traceable rate w.r.t. compromised rate",
        "Compromised rate (c/n)", "Traceable rate",
        lines=onion_router_counts,
        xs=config.compromise_rates,
        label=lambda k: f"{k} onions",
        model=lambda k, rate: traceable_rate_model(k + 1, rate),
        cell=lambda k, rate: (config.group_size, k, 1, rate),
        n=config.n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
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
    return security_figure(
        "Fig. 7", "Traceable rate w.r.t. number of onion relays",
        "Number of onion relays", "Traceable rate",
        lines=compromise_rates,
        xs=onion_router_counts,
        label=lambda rate: f"c/n={rate:.0%}",
        model=lambda rate, k: traceable_rate_model(k + 1, rate),
        cell=lambda rate, k: (config.group_size, k, 1, rate),
        n=config.n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
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
    return security_figure(
        "Fig. 8", "Path anonymity w.r.t. compromised rate",
        "Compromised rate (c/n)", "Path anonymity",
        lines=group_sizes,
        xs=config.compromise_rates,
        label=lambda g: f"g={g}",
        model=lambda g, rate: path_anonymity(config.n, config.eta, g, rate),
        cell=lambda g, rate: (g, config.onion_routers, 1, rate),
        n=config.n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
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
    return security_figure(
        "Fig. 9", "Path anonymity w.r.t. group size",
        "Group size", "Path anonymity",
        lines=compromise_rates,
        xs=group_sizes,
        label=lambda rate: f"c/n={rate:.0%}",
        model=lambda rate, g: path_anonymity(config.n, config.eta, g, rate),
        cell=lambda rate, g: (g, config.onion_routers, 1, rate),
        n=config.n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
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
    multicopy_config = config.with_(group_size=5)
    n, eta, g = multicopy_config.n, multicopy_config.eta, multicopy_config.group_size
    return security_figure(
        "Fig. 12", "Path anonymity w.r.t. compromised rate (multi-copy, g=5)",
        "Compromised rate (c/n)", "Path anonymity",
        lines=copy_counts,
        xs=multicopy_config.compromise_rates,
        label=lambda copies: f"L={copies}",
        model=lambda copies, rate: path_anonymity_multicopy(n, eta, g, rate, copies),
        cell=lambda copies, rate: (g, multicopy_config.onion_routers, copies, rate),
        n=n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
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
    return security_figure(
        "Fig. 13", "Path anonymity w.r.t. group size (multi-copy, c/n=10%)",
        "Group size", "Path anonymity",
        lines=copy_counts,
        xs=group_sizes,
        label=lambda copies: f"L={copies}",
        model=lambda copies, g: path_anonymity_multicopy(
            config.n, config.eta, g, compromise_rate, copies
        ),
        cell=lambda copies, g: (g, config.onion_routers, copies, compromise_rate),
        n=config.n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model,
    )
