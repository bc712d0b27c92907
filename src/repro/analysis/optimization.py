"""Model-driven configuration search over (K, g, L).

Operationalises the paper's trade-off discussion: given a contact graph
and operational constraints — a delivery target within a deadline and a
transmission budget — find the configuration maximising path anonymity.
Pure model evaluation (Eq. 6/7, §IV-C, Eq. 19/20), so the search is
instant compared to simulation and suitable for online reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.anonymity import path_anonymity_multicopy
from repro.analysis.cost import multi_copy_cost_bound
from repro.analysis.delivery import analysis_delivery_curve
from repro.analysis.traceable import traceable_rate_model
from repro.contacts.graph import ContactGraph
from repro.core.onion_groups import OnionGroupDirectory
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class ConfigurationScore:
    """One evaluated (K, g, L) point."""

    onion_routers: int
    group_size: int
    copies: int
    delivery: float
    anonymity: float
    traceable: float
    cost_bound: int

    def meets(self, delivery_target: float, cost_budget: Optional[int]) -> bool:
        """Whether this point satisfies the operational constraints."""
        if self.delivery < delivery_target:
            return False
        if cost_budget is not None and self.cost_bound > cost_budget:
            return False
        return True


def _mean_delivery(
    graph: ContactGraph,
    group_size: int,
    onion_routers: int,
    copies: int,
    deadline: float,
    routes: int,
    rng,
) -> float:
    """Average Eq. 7 over random routes; unreachable routes count as zero.

    The caller only asks for (K, g) points where K distinct non-endpoint
    groups exist, so route selection cannot fail here.
    """
    directory = OnionGroupDirectory(graph.n, group_size, rng=rng)
    sampled = []
    for _ in range(routes):
        source, destination = rng.choice(graph.n, size=2, replace=False)
        sampled.append(
            directory.select_route(
                int(source), int(destination), onion_routers, rng=rng
            )
        )
    return analysis_delivery_curve(graph, sampled, (deadline,), copies)[0][1]


def evaluate_configurations(
    graph: ContactGraph,
    deadline: float,
    compromise_rate: float,
    onion_router_options: Sequence[int] = (2, 3, 5),
    group_size_options: Sequence[int] = (2, 5, 10),
    copy_options: Sequence[int] = (1, 2, 3, 5),
    routes_per_point: int = 20,
    rng: RandomSource = None,
) -> List[ConfigurationScore]:
    """Score every (K, g, L) combination with the analytical models.

    Combinations that cannot select K distinct groups on this network are
    skipped. Delivery is averaged over ``routes_per_point`` random routes.
    """
    check_positive(deadline, "deadline")
    check_probability(compromise_rate, "compromise_rate")
    generator = ensure_rng(rng)
    scores: List[ConfigurationScore] = []
    for onion_routers in onion_router_options:
        eta = onion_routers + 1
        for group_size in group_size_options:
            if group_size > graph.n:
                continue
            # feasibility: enough non-endpoint groups to choose from
            group_count = -(-graph.n // group_size)
            if onion_routers > group_count - 2:
                continue
            for copies in copy_options:
                if copies > group_size:
                    continue  # the paper requires L <= g
                delivery = _mean_delivery(
                    graph, group_size, onion_routers, copies,
                    deadline, routes_per_point, generator,
                )
                scores.append(
                    ConfigurationScore(
                        onion_routers=onion_routers,
                        group_size=group_size,
                        copies=copies,
                        delivery=delivery,
                        anonymity=path_anonymity_multicopy(
                            graph.n, eta, group_size, compromise_rate, copies
                        ),
                        traceable=traceable_rate_model(eta, compromise_rate),
                        cost_bound=multi_copy_cost_bound(onion_routers, copies),
                    )
                )
    return scores


def best_configuration(
    graph: ContactGraph,
    deadline: float,
    compromise_rate: float,
    delivery_target: float = 0.95,
    cost_budget: Optional[int] = None,
    rng: RandomSource = None,
    **grid_options,
) -> ConfigurationScore:
    """The anonymity-maximising configuration meeting the constraints.

    Ties break toward lower cost, then lower traceable rate. Raises
    :class:`ValueError` when no configuration meets the constraints —
    callers should relax the deadline, target, or budget.
    """
    check_probability(delivery_target, "delivery_target")
    scores = evaluate_configurations(
        graph, deadline, compromise_rate, rng=rng, **grid_options
    )
    feasible = [s for s in scores if s.meets(delivery_target, cost_budget)]
    if not feasible:
        raise ValueError(
            f"no configuration reaches {delivery_target:.0%} delivery within "
            f"T={deadline:g}"
            + (f" under cost budget {cost_budget}" if cost_budget else "")
        )
    return max(
        feasible, key=lambda s: (s.anonymity, -s.cost_bound, -s.traceable)
    )
