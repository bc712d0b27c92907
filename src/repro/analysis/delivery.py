"""Delivery-rate models (paper §IV-A / §IV-B, Eq. 4–7).

The *opportunistic onion path* of a route ``v_s → R_1 → … → R_K → v_d`` has
``η = K + 1`` exponential hops whose rates come from the anycast property of
group onion routing:

* hop 1: the source meets *any* member of ``R_1`` — rates sum;
* hops 2…K: any member of ``R_{k-1}`` may hold the message (average over
  senders) and may pass to any member of ``R_k`` (sum over receivers);
* hop K+1: the carrier in ``R_K`` meets the destination — the paper sums the
  member-to-destination rates symmetrically with hop 1.

Multi-copy forwarding with ``L`` replicas divides the expected per-hop delay
by ``L`` (after Spyropoulos et al.), i.e. multiplies each rate by ``L``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.hypoexponential import Hypoexponential, Method
from repro.contacts.graph import ContactGraph
from repro.utils.validation import check_non_negative, check_positive_int

if TYPE_CHECKING:
    from repro.core.route import OnionRoute


def onion_path_rates(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
) -> list[float]:
    """Per-hop rates ``λ_1 … λ_{K+1}`` of an onion route (paper Eq. 4).

    Parameters
    ----------
    graph:
        The contact graph supplying pairwise rates.
    source, destination:
        End hosts ``v_s`` and ``v_d``.
    groups:
        The selected onion groups ``R_1 … R_K``, each a sequence of node ids.

    Raises
    ------
    ValueError
        If any hop has zero aggregate rate (the route can never complete) or
        the route is degenerate (no groups, or source == destination).
    """
    if source == destination:
        raise ValueError("source and destination must differ")
    if not groups:
        raise ValueError("an onion route needs at least one onion group")

    rates: list[float] = [graph.anycast_rate(source, groups[0])]
    for previous, current in zip(groups, groups[1:]):
        rates.append(graph.group_to_group_rate(previous, current))
    rates.append(graph.anycast_rate(destination, groups[-1]))

    for hop, rate in enumerate(rates, start=1):
        if rate <= 0:
            raise ValueError(
                f"hop {hop} of the onion route has zero contact rate; "
                "the route can never complete"
            )
    return rates


def delivery_rate(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    deadline: float,
    method: Method = "auto",
) -> float:
    """Single-copy delivery probability within ``deadline`` (paper Eq. 6).

    ``P_delivery(T) = Σ_k A_k (1 − e^{−λ_k T})`` — the hypoexponential CDF
    of the opportunistic onion path evaluated at the message deadline.
    """
    check_non_negative(deadline, "deadline")
    rates = onion_path_rates(graph, source, groups, destination)
    return float(Hypoexponential(rates, method=method).cdf(deadline))


def delivery_rate_multicopy(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    deadline: float,
    copies: int,
    method: Method = "auto",
) -> float:
    """L-copy delivery probability within ``deadline`` (paper Eq. 7).

    Each per-hop rate is multiplied by ``L``: with ``L`` replicas racing
    through every hop, the expected hop delay shrinks by a factor ``L``.
    ``copies=1`` reduces exactly to :func:`delivery_rate`.
    """
    check_non_negative(deadline, "deadline")
    check_positive_int(copies, "copies")
    rates = onion_path_rates(graph, source, groups, destination)
    boosted = [rate * copies for rate in rates]
    return float(Hypoexponential(boosted, method=method).cdf(deadline))


def delivery_rate_from_rates(
    hop_rates: Sequence[float],
    deadline: float,
    copies: int = 1,
    method: Method = "auto",
) -> float:
    """Delivery probability from precomputed per-hop rates.

    Convenience entry point for experiments that already hold ``λ_k`` values
    (e.g. averaged over many sampled routes).
    """
    check_non_negative(deadline, "deadline")
    check_positive_int(copies, "copies")
    boosted = [rate * copies for rate in hop_rates]
    return float(Hypoexponential(boosted, method=method).cdf(deadline))


def analysis_delivery_curve(
    graph: ContactGraph,
    routes: Sequence["OnionRoute"],
    deadlines: Sequence[float],
    copies: int = 1,
) -> List[Tuple[float, float]]:
    """Average the Eq. 6/7 model over concrete route realisations.

    This is the one route-set evaluator: every figure or model that
    averages the delivery model over routes calls it. Routes containing an
    unreachable hop (zero aggregate rate — possible on sparse
    trace-estimated graphs) contribute zero delivery probability, matching
    what the protocol would experience.
    """
    deadline_arr = np.asarray(list(deadlines), dtype=float)
    # A running sum in route order: the mean must not depend on how the
    # routes were batched.
    total = np.zeros_like(deadline_arr)
    for curve in route_delivery_curves(graph, routes, deadline_arr, copies):
        total += curve
    mean = total / max(len(routes), 1)
    return [(float(t), float(p)) for t, p in zip(deadline_arr, mean)]


def route_delivery_curves(
    graph: ContactGraph,
    routes: Sequence["OnionRoute"],
    deadlines: np.ndarray,
    copies: int = 1,
) -> np.ndarray:
    """Eq. 6/7 of every route at every deadline, as a ``(routes × deadlines)`` array.

    All routes with the same number of hops are evaluated as one
    :class:`Hypoexponential` batch over the rows of
    :func:`route_rate_matrix`. Row ``r`` is bit-identical to
    :func:`delivery_rate_multicopy` of ``routes[r]`` at each deadline, except
    that a route with an unreachable hop reads ``0.0`` instead of raising.
    """
    per_route = np.zeros((len(routes), len(deadlines)))
    by_hops: Dict[int, List[int]] = defaultdict(list)
    for index, route in enumerate(routes):
        by_hops[len(route.groups)].append(index)
    for indices in by_hops.values():
        rates = route_rate_matrix(graph, [routes[i] for i in indices])
        reachable = (rates > 0).all(axis=1)
        if reachable.any():
            rows = np.asarray(indices)[reachable]
            per_route[rows] = Hypoexponential(rates[reachable] * copies).cdf(deadlines)
    return per_route


def route_rate_matrix(
    graph: ContactGraph, routes: Sequence["OnionRoute"]
) -> np.ndarray:
    """The ``(routes × η)`` Eq. 4 hop rates of routes with equal ``K``.

    Row ``r`` equals ``onion_path_rates`` of ``routes[r]``, bit for bit,
    except that an unreachable hop reads ``0.0`` instead of raising. Groups
    of unequal size are padded with ``-1``, a member that adds no rate.
    """
    rate = graph.rates
    hops = len(routes[0].groups)
    members = [
        _padded_members([route.groups[k] for route in routes]) for k in range(hops)
    ]
    sources = np.array([[route.source] for route in routes])
    destinations = np.array([[route.destination] for route in routes])
    out = np.empty((len(routes), hops + 1))
    out[:, 0] = _pair_rate_sum(rate, sources, members[0])
    for k in range(1, hops):
        senders, receivers = members[k - 1], members[k]
        total = _pair_rate_sum(rate, senders[:, :, None], receivers[:, None, :])
        out[:, k] = total / (senders >= 0).sum(axis=1)
    out[:, hops] = _pair_rate_sum(rate, destinations, members[-1])
    return out


def _padded_members(groups: Sequence[Sequence[int]]) -> np.ndarray:
    """One group per row, padded on the right with ``-1``."""
    width = max(len(members) for members in groups)
    return np.array(
        [tuple(members) + (-1,) * (width - len(members)) for members in groups]
    )


def _pair_rate_sum(
    rate: np.ndarray, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """Per row, ``Σ rate[i, j]`` over the broadcast (sender, receiver) pairs.

    ``ContactGraph.anycast_rate`` and ``group_to_group_rate`` add pair by
    pair from ``0.0`` in sender-major order, skipping ``i == j``. The running
    sum (``cumsum``) keeps that order, with ``0.0`` added for skipped pairs
    and padding. ``np.sum`` would not: it reassociates the additions.
    """
    counted = (senders >= 0) & (receivers >= 0) & (senders != receivers)
    terms = np.where(counted, rate[senders, receivers], 0.0)
    return np.cumsum(terms.reshape(len(terms), -1), axis=1)[:, -1]


def expected_path_delay(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    copies: int = 1,
) -> float:
    """Expected end-to-end delay of the opportunistic onion path.

    ``E[delay] = Σ_k 1/(L·λ_k)`` — useful for sizing deadlines in
    experiments and examples.
    """
    check_positive_int(copies, "copies")
    rates = onion_path_rates(graph, source, groups, destination)
    return sum(1.0 / (copies * rate) for rate in rates)
