"""Delay statistics of the opportunistic onion path.

The paper reports delivery *rates* at fixed deadlines; operators usually
plan the other way round — "what deadline do I need for a 95% delivery
target?". This module inverts and summarises the Eq. 6/7 model:

* moments (mean, variance, coefficient of variation) in closed form,
* quantiles by numerically inverting the hypoexponential CDF,
* the *deadline-for-target* helper used by the capacity-planning example.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.graph import ContactGraph
from repro.analysis.delivery import onion_path_rates
from repro.utils.validation import check_positive_int, check_probability


def delay_moments(hop_rates: Sequence[float], copies: int = 1) -> dict:
    """Mean, variance, std, and CV of the path delay.

    ``E[D] = Σ 1/(Lλ_k)``, ``Var[D] = Σ 1/(Lλ_k)²`` — sums of independent
    exponential stages.
    """
    check_positive_int(copies, "copies")
    dist = Hypoexponential([rate * copies for rate in hop_rates])
    mean = dist.mean()
    variance = dist.var()
    return {
        "mean": mean,
        "var": variance,
        "std": math.sqrt(variance),
        "cv": math.sqrt(variance) / mean,
    }


def delay_quantile(
    hop_rates: Sequence[float],
    q: float,
    copies: int = 1,
    tolerance: float = 1e-9,
) -> float:
    """The delay ``t`` with ``P[D ≤ t] = q`` (bisection on the CDF).

    ``q = 0`` returns 0; ``q`` must be strictly below 1 (the support is
    unbounded).
    """
    check_probability(q, "q")
    if q >= 1.0:
        raise ValueError("q must be < 1: the delay has unbounded support")
    if q == 0.0:
        return 0.0
    check_positive_int(copies, "copies")
    dist = Hypoexponential([rate * copies for rate in hop_rates])

    # Bracket: mean + k stds grows until the CDF passes q.
    hi = dist.mean()
    while dist.cdf(hi) < q:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tolerance * max(hi, 1.0):
        mid = (lo + hi) / 2.0
        if dist.cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def deadline_for_target(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    target_delivery: float,
    copies: int = 1,
) -> float:
    """Smallest deadline achieving ``target_delivery`` on a concrete route.

    The planning primitive: invert Eq. 6/7 for the deadline.
    """
    rates = onion_path_rates(graph, source, groups, destination)
    return delay_quantile(rates, target_delivery, copies=copies)


def copies_for_deadline(
    graph: ContactGraph,
    source: int,
    groups: Sequence[Sequence[int]],
    destination: int,
    deadline: float,
    target_delivery: float,
    max_copies: int = 64,
) -> int:
    """Smallest ``L`` meeting a delivery target at a fixed deadline.

    Raises :class:`ValueError` if even ``max_copies`` cannot reach the
    target — the route itself is then the bottleneck.
    """
    check_probability(target_delivery, "target_delivery")
    check_positive_int(max_copies, "max_copies")
    rates = onion_path_rates(graph, source, groups, destination)
    for copies in range(1, max_copies + 1):
        dist = Hypoexponential([rate * copies for rate in rates])
        if dist.cdf(deadline) >= target_delivery:
            return copies
    raise ValueError(
        f"even L={max_copies} copies cannot reach a delivery rate of "
        f"{target_delivery!r} within T={deadline:g} on this route"
    )
