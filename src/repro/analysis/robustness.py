"""Analytical degradation models matching :mod:`repro.faults`.

Two equivalences keep Eq. 4–7 predictive under faults:

* **Availability scaling (churn).** A contact survives churn iff both
  endpoints are up — probability ``a_i · a_j`` in stationarity — so the
  pair process is (asymptotically, fast-churn limit) a Poisson process
  with rate ``λ_ij · a_i · a_j``. Evaluating the unmodified Eq. 6/7 on
  :func:`~repro.faults.churn.churned_graph` therefore predicts delivery
  under a :class:`~repro.faults.churn.NodeChurnProcess`.

* **Survival scaling (greyhole).** Without recovery, a single copy dies
  the first time a dropping relay eats it. On a homogeneous-rate graph the
  anycast winner of hop ``k`` is uniform over the group, so the copy
  survives hop ``k`` with probability ``1 − f_k · p`` (``f_k`` = the
  compromised fraction of ``R_k``; the destination hop never drops), and
  whether it survives is independent of how long the hop took. Hence

      ``P_delivery(T) = HypoexpCDF(T) · Π_k (1 − f_k · p)``.

  On heterogeneous graphs the member choice is rate-weighted and the
  product is an approximation; the robustness figure quantifies the gap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Sequence, Union

import numpy as np

from repro.analysis.delivery import (
    delivery_rate_multicopy,
    onion_path_rates,
    route_delivery_curves,
)
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.graph import ContactGraph
from repro.utils.validation import (
    check_non_negative,
    check_positive_int,
    check_probability,
)

if TYPE_CHECKING:
    from repro.core.route import OnionRoute


def churned_delivery_rate(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    deadline: float,
    availability: Union[float, Sequence[float]],
    copies: int = 1,
) -> float:
    """Eq. 6/7 evaluated on the availability-scaled contact graph.

    Predicts delivery under node churn at stationary ``availability``
    (scalar or per-node); ``availability = 1`` reduces to the fault-free
    model. A hop whose rate the scaling drives to zero (an always-down
    node cut the route) yields delivery probability ``0.0`` — what the
    protocol would experience — rather than the degenerate-route error.
    """
    from repro.faults.churn import churned_graph

    try:
        return delivery_rate_multicopy(
            churned_graph(graph, availability),
            source,
            groups,
            destination,
            deadline,
            copies=copies,
        )
    except ValueError as err:
        if "zero contact rate" in str(err):
            return 0.0
        raise


def greyhole_survival_probability(
    groups: Sequence[Sequence[int]],
    compromised: AbstractSet[int],
    drop_prob: float,
) -> float:
    """Probability a single copy is never eaten: ``Π_k (1 − f_k · p)``.

    ``f_k`` is the fraction of ``R_k``'s members in ``compromised``. The
    destination hop is excluded — end hosts do not drop.
    """
    check_probability(drop_prob, "drop_prob")
    if not groups:
        raise ValueError("an onion route needs at least one onion group")
    survival = 1.0
    for members in groups:
        if not members:
            raise ValueError("onion groups must be non-empty")
        fraction = len(set(members) & set(compromised)) / len(members)
        survival *= 1.0 - fraction * drop_prob
    return survival


def greyhole_delivery_rate(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    deadline: float,
    compromised: AbstractSet[int],
    drop_prob: float,
    copies: int = 1,
) -> float:
    """Single/multi-copy delivery under greyhole relays, no recovery.

    The timing term (Eq. 6/7 hypoexponential CDF) multiplies the
    path-survival term. For ``copies > 1`` the survival of ``L``
    independent replicas is approximated as ``1 − (1 − s)^L`` with ``s``
    the single-copy survival — exact when replicas traverse disjoint
    members, optimistic when they collide.
    """
    check_non_negative(deadline, "deadline")
    check_positive_int(copies, "copies")
    rates = onion_path_rates(graph, source, groups, destination)
    timing = float(
        Hypoexponential([rate * copies for rate in rates]).cdf(deadline)
    )
    return timing * _replica_survival(groups, compromised, drop_prob, copies)


def mean_greyhole_delivery_rate(
    graph: ContactGraph,
    routes: Sequence["OnionRoute"],
    deadline: float,
    compromised: AbstractSet[int],
    drop_prob: float,
    copies: int = 1,
) -> float:
    """:func:`greyhole_delivery_rate` averaged over ``routes``, bit for bit.

    The timing terms of all routes come from one batched evaluation
    (:func:`~repro.analysis.delivery.route_delivery_curves`), and the
    products are summed in route order, as a per-route loop would. A route
    with an unreachable hop contributes ``0.0`` instead of raising.
    """
    check_non_negative(deadline, "deadline")
    check_positive_int(copies, "copies")
    timing = route_delivery_curves(graph, routes, np.array([float(deadline)]), copies)
    return sum(
        float(curve[0])
        * _replica_survival(route.groups, compromised, drop_prob, copies)
        for curve, route in zip(timing, routes)
    ) / len(routes)


def _replica_survival(
    groups: Sequence[Sequence[int]],
    compromised: AbstractSet[int],
    drop_prob: float,
    copies: int,
) -> float:
    """Probability that one of ``copies`` replicas survives: ``1 − (1 − s)^L``."""
    survival = greyhole_survival_probability(groups, compromised, drop_prob)
    if copies > 1:
        survival = 1.0 - (1.0 - survival) ** copies
    return survival
