"""Tests for the fault-degradation analytical models."""

import numpy as np
import pytest

from repro.analysis.delivery import delivery_rate_multicopy
from repro.analysis.robustness import (
    churned_delivery_rate,
    greyhole_delivery_rate,
    greyhole_survival_probability,
    mean_greyhole_delivery_rate,
)
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.core.route import OnionRoute

GROUPS = ((1, 2, 3), (4, 5, 6))


@pytest.fixture
def graph():
    return ContactGraph.complete(10, 0.05)


class TestSurvival:
    def test_no_compromise_survives(self):
        assert greyhole_survival_probability(GROUPS, set(), 0.9) == 1.0

    def test_zero_drop_prob_survives(self):
        assert greyhole_survival_probability(GROUPS, {1, 4}, 0.0) == 1.0

    def test_product_over_hops(self):
        # one of three compromised in each group, p = 0.6
        expected = (1 - 0.6 / 3) ** 2
        assert greyhole_survival_probability(
            GROUPS, {1, 4}, 0.6
        ) == pytest.approx(expected)

    def test_fully_compromised_blackhole_kills(self):
        assert greyhole_survival_probability(
            GROUPS, {1, 2, 3, 4, 5, 6}, 1.0
        ) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            greyhole_survival_probability(GROUPS, set(), 1.5)
        with pytest.raises(ValueError):
            greyhole_survival_probability((), set(), 0.5)
        with pytest.raises(ValueError):
            greyhole_survival_probability(((),), set(), 0.5)


class TestGreyholeDelivery:
    def test_reduces_to_eq6_without_drops(self, graph):
        base = delivery_rate_multicopy(graph, 0, GROUPS, 9, 300.0, copies=1)
        assert greyhole_delivery_rate(
            graph, 0, GROUPS, 9, 300.0, set(), 0.7
        ) == pytest.approx(base)

    def test_monotone_in_drop_prob(self, graph):
        values = [
            greyhole_delivery_rate(graph, 0, GROUPS, 9, 300.0, {1, 4}, p)
            for p in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_timing_times_survival(self, graph):
        timing = delivery_rate_multicopy(graph, 0, GROUPS, 9, 300.0, copies=1)
        survival = greyhole_survival_probability(GROUPS, {1, 4}, 0.5)
        assert greyhole_delivery_rate(
            graph, 0, GROUPS, 9, 300.0, {1, 4}, 0.5
        ) == pytest.approx(timing * survival)

    def test_multicopy_survival_boost(self, graph):
        single = greyhole_delivery_rate(graph, 0, GROUPS, 9, 300.0, {1, 4}, 0.8)
        multi = greyhole_delivery_rate(
            graph, 0, GROUPS, 9, 300.0, {1, 4}, 0.8, copies=3
        )
        assert multi > single


class TestMeanGreyholeDelivery:
    """The batched route-set mean against the per-route loop, bit for bit."""

    @staticmethod
    def _routes(n, count, seed):
        rng = np.random.default_rng(seed)
        routes = []
        for _ in range(count):
            nodes = [int(v) for v in rng.choice(n, size=2 + 3 * 3, replace=False)]
            groups = tuple(tuple(nodes[2 + 3 * k : 5 + 3 * k]) for k in range(3))
            routes.append(OnionRoute(nodes[0], nodes[1], (0, 1, 2), groups))
        return routes

    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("drop_prob", [0.0, 0.5, 1.0])
    def test_equals_the_per_route_loop(self, copies, drop_prob):
        graph = random_contact_graph(30, (10, 360), rng=copies)
        routes = self._routes(30, 80, seed=copies)
        compromised = {0, 3, 7, 11, 19, 24}
        loop = sum(
            greyhole_delivery_rate(
                graph, r.source, r.groups, r.destination, 720.0,
                compromised, drop_prob, copies=copies,
            )
            for r in routes
        ) / len(routes)
        assert mean_greyhole_delivery_rate(
            graph, routes, 720.0, compromised, drop_prob, copies=copies
        ) == loop


class TestChurnedDelivery:
    def test_full_availability_is_identity(self, graph):
        base = delivery_rate_multicopy(graph, 0, GROUPS, 9, 300.0, copies=1)
        assert churned_delivery_rate(
            graph, 0, GROUPS, 9, 300.0, 1.0
        ) == pytest.approx(base)

    def test_monotone_in_availability(self, graph):
        values = [
            churned_delivery_rate(graph, 0, GROUPS, 9, 300.0, a)
            for a in (0.2, 0.5, 0.8, 1.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_availability_never_delivers(self, graph):
        assert churned_delivery_rate(graph, 0, GROUPS, 9, 300.0, 0.0) == 0.0

    def test_copies_boost(self, graph):
        single = churned_delivery_rate(graph, 0, GROUPS, 9, 120.0, 0.5)
        multi = churned_delivery_rate(graph, 0, GROUPS, 9, 120.0, 0.5, copies=3)
        assert multi > single
