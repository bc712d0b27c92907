"""Trace-driven figures (Figs. 14–19).

The paper evaluates on CRAWDAD ``cambridge/haggle`` Experiments 2 and 3;
this repo substitutes statistically matched synthetic traces (see
DESIGN.md §3). Cambridge: 12 nodes, dense, K = 3, g = 10, L = 1 with
overlapping onion groups (disjoint groups are impossible at that scale).
Infocom 2005: 41 nodes, sparse with off-hours, K = 3, g = 5, L ∈ {1, 3, 5}.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.analysis.anonymity import path_anonymity, path_anonymity_multicopy
from repro.analysis.traceable import traceable_rate_model
from repro.contacts.synthetic import cambridge_like_trace, infocom05_like_trace
from repro.contacts.traces import ContactTrace
from repro.experiments.delivery_figs import delivery_figure
from repro.experiments.result import FigureResult
from repro.experiments.parallel import Workers, run_parallel_fused_sweep
from repro.experiments.runners import (
    SweepVariant,
    estimate_active_span,
    run_fused_trace_sweep,
    trace_contact_graph,
)
from repro.experiments.security_figs import CompromiseModelSpec, security_figure
from repro.utils.rng import RandomSource, ensure_rng

CAMBRIDGE_GROUP_SIZE = 10
CAMBRIDGE_ONIONS = 3
INFOCOM_GROUP_SIZE = 5
INFOCOM_ONIONS = 3


def _trace_delivery_figure(
    figure_id: str,
    title: str,
    trace: Optional[ContactTrace],
    synthetic_trace: Callable[..., ContactTrace],
    group_size: int,
    onion_routers: int,
    copy_counts: Sequence[int],
    deadlines: Sequence[float],
    sessions: int,
    seed: RandomSource,
    overlapping: bool,
    workers: Workers,
) -> FigureResult:
    """Shared body of the trace delivery figures (14, 17).

    Every copy count's sessions run in a single engine pass over one
    :class:`~repro.contacts.events.TraceReplayProcess` — the trace-replay
    blocks feed the struct-of-arrays kernels directly (single-copy and
    multi-copy alike), and the grid points share the replayed contacts.
    Without a ``trace`` the figure draws ``synthetic_trace`` from its seed.
    """
    if len(deadlines) == 0:
        raise ValueError("deadlines must not be empty")
    generator = ensure_rng(seed)
    if trace is None:
        trace = synthetic_trace(rng=generator)
    normalized = trace.normalized()
    variants = [
        SweepVariant(
            label=f"L={copies}",
            group_size=group_size,
            onion_routers=onion_routers,
            copies=copies,
        )
        for copies in copy_counts
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
    return delivery_figure(
        figure_id, title, "Deadline (seconds)", variants, deadlines,
        [(graph, sweep)], workers,
    )


def _trace_security_figure(
    figure_id: str,
    title: str,
    y_label: str,
    n: int,
    group_size: int,
    onion_routers: int,
    copy_counts: Sequence[int],
    compromise_rates: Sequence[float],
    trials: int,
    seed: RandomSource,
    overlapping: bool,
    workers: Workers,
    compromise_model: CompromiseModelSpec,
) -> FigureResult:
    """Shared body of the trace security figures (15, 16, 18, 19).

    The traceable rate is copy-count independent (§IV-D), so a traceable
    figure has one line, for the first copy count.
    """
    eta = onion_routers + 1
    traceable = y_label == "Traceable rate"

    def model(copies: int, rate: float) -> float:
        if traceable:
            return traceable_rate_model(eta, rate)
        if copies == 1:
            return path_anonymity(n, eta, group_size, rate)
        return path_anonymity_multicopy(n, eta, group_size, rate, copies)

    return security_figure(
        figure_id, title, "Compromised rate (c/n)", y_label,
        lines=copy_counts[:1] if traceable else copy_counts,
        xs=compromise_rates,
        label=lambda copies: f"{onion_routers} onions" if traceable else f"L={copies}",
        model=model,
        cell=lambda copies, rate: (group_size, onion_routers, copies, rate),
        n=n, trials=trials, seed=seed, workers=workers,
        compromise_model=compromise_model, overlapping=overlapping,
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
    return _trace_delivery_figure(
        "Fig. 14", "Delivery rate w.r.t. deadline (Cambridge-like trace)",
        trace, cambridge_like_trace, CAMBRIDGE_GROUP_SIZE, CAMBRIDGE_ONIONS, (1,),
        deadlines, sessions=sessions, seed=seed, overlapping=True, workers=workers,
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
        "Fig. 15",
        "Traceable rate w.r.t. compromised rate (Cambridge-like trace)",
        "Traceable rate",
        n, CAMBRIDGE_GROUP_SIZE, CAMBRIDGE_ONIONS, (1,), compromise_rates,
        trials=trials, seed=seed, overlapping=True, workers=workers,
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
        "Fig. 16",
        "Path anonymity w.r.t. compromised rate (Cambridge-like trace)",
        "Path anonymity",
        n, CAMBRIDGE_GROUP_SIZE, CAMBRIDGE_ONIONS, (1,), compromise_rates,
        trials=trials, seed=seed, overlapping=True, workers=workers,
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
    return _trace_delivery_figure(
        "Fig. 17", "Delivery rate w.r.t. deadline (Infocom-2005-like trace)",
        trace, infocom05_like_trace, INFOCOM_GROUP_SIZE, INFOCOM_ONIONS, copy_counts,
        deadlines, sessions=sessions, seed=seed, overlapping=False, workers=workers,
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
        "Fig. 18",
        "Traceable rate w.r.t. compromised rate (Infocom-2005-like trace)",
        "Traceable rate",
        n, INFOCOM_GROUP_SIZE, INFOCOM_ONIONS, (1,), compromise_rates,
        trials=trials, seed=seed, overlapping=False, workers=workers,
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
        "Fig. 19",
        "Path anonymity w.r.t. compromised rate (Infocom-2005-like trace)",
        "Path anonymity",
        n, INFOCOM_GROUP_SIZE, INFOCOM_ONIONS, copy_counts, compromise_rates,
        trials=trials, seed=seed, overlapping=False, workers=workers,
        compromise_model=compromise_model,
    )
