"""Sensitivity of the models to parameters the paper holds fixed.

The paper evaluates at ``n = 100`` on complete contact graphs. These
sweeps ask how the headline metrics move when the environment itself
changes — network size, contact-graph density, and inter-contact scale —
using the analytical models (instant) plus spot-check simulation points.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.anonymity import (
    expected_compromised_on_path,
    path_anonymity,
    path_entropy,
)
from repro.analysis.delivery import analysis_delivery_curve
from repro.analysis.traceable import traceable_rate_model
from repro.contacts.random_graph import random_contact_graph
from repro.core.onion_groups import OnionGroupDirectory
from repro.experiments.result import FigureResult, Series
from repro.utils.rng import RandomSource, ensure_rng


def _mean_model_delivery(
    n: int,
    density: float,
    group_size: int,
    onion_routers: int,
    deadline: float,
    routes: int,
    rng,
) -> float:
    """Average Eq. 6 over random routes; unreachable routes count as zero."""
    graph = random_contact_graph(n=n, density=density, rng=rng)
    directory = OnionGroupDirectory(n, group_size, rng=rng)
    sampled = []
    for _ in range(routes):
        source, destination = rng.choice(n, size=2, replace=False)
        sampled.append(
            directory.select_route(
                int(source), int(destination), onion_routers, rng=rng
            )
        )
    return analysis_delivery_curve(graph, sampled, (deadline,))[0][1]


def network_size_sensitivity(
    sizes: Sequence[int] = (30, 50, 100, 200, 400),
    group_size: int = 5,
    onion_routers: int = 3,
    deadline: float = 360.0,
    compromise_rate: float = 0.10,
    routes: int = 30,
    seed: RandomSource = 201,
) -> FigureResult:
    """How n moves delivery, anonymity, and traceable rate.

    Two distinct anonymity readings: the *absolute* residual entropy
    ``H(φ')`` grows with n (bigger anonymity set), while the *ratio*
    ``D(φ') = H/H_max`` slightly falls — a compromised hop retains
    ``log₂ g`` bits however large n is, an ever smaller fraction of the
    ``log₂ n``-ish bits a clean hop carries. The traceable rate is
    n-independent, and delivery is roughly n-independent on complete
    graphs (per-pair rates do not change with n).
    """
    rng = ensure_rng(seed)
    eta = onion_routers + 1
    delivery_points: List = []
    anonymity_points: List = []
    entropy_points: List = []
    traceable_points: List = []
    for n in sizes:
        delivery_points.append(
            (float(n), _mean_model_delivery(
                n, 1.0, group_size, onion_routers, deadline, routes, rng
            ))
        )
        anonymity_points.append(
            (float(n), path_anonymity(n, eta, group_size, compromise_rate))
        )
        entropy_points.append(
            (
                float(n),
                path_entropy(
                    n,
                    eta,
                    group_size,
                    expected_compromised_on_path(eta, compromise_rate),
                ),
            )
        )
        traceable_points.append(
            (float(n), traceable_rate_model(eta, compromise_rate))
        )
    return FigureResult(
        figure_id="Fig. S1",
        title="Sensitivity to network size n",
        x_label="Network size n",
        y_label="Metric value",
        series=(
            Series(label="Delivery (Eq. 6)", points=tuple(delivery_points)),
            Series(label="Path anonymity D", points=tuple(anonymity_points)),
            Series(label="Residual entropy H (bits)", points=tuple(entropy_points)),
            Series(label="Traceable rate", points=tuple(traceable_points)),
        ),
    )


def density_sensitivity(
    densities: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    n: int = 100,
    group_size: int = 5,
    onion_routers: int = 3,
    deadline: float = 360.0,
    routes: int = 30,
    seed: RandomSource = 202,
) -> FigureResult:
    """Delivery vs contact-graph density.

    Sparse graphs thin every anycast sum; below some density routes start
    containing unreachable hops and delivery collapses — the model-side
    view of why DTN anonymity needs enough contact diversity.
    """
    rng = ensure_rng(seed)
    points = []
    for density in densities:
        points.append(
            (density, _mean_model_delivery(
                n, density, group_size, onion_routers, deadline, routes, rng
            ))
        )
    return FigureResult(
        figure_id="Fig. S2",
        title="Sensitivity to contact-graph density",
        x_label="Density (fraction of pairs that ever meet)",
        y_label="Delivery rate (Eq. 6)",
        series=(Series(label="Delivery (Eq. 6)", points=tuple(points)),),
    )
