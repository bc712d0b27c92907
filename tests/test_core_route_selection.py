"""Tests for route-selection strategies."""

import numpy as np
import pytest

from repro.analysis.delivery import onion_path_rates
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route_selection import (
    DiverseSelector,
    RateAwareSelector,
    UniformSelector,
)


@pytest.fixture
def setting():
    graph = random_contact_graph(n=60, rng=0)
    directory = OnionGroupDirectory(60, 5, rng=0)
    return graph, directory


def _model_score(graph, route, deadline=240.0):
    rates = onion_path_rates(graph, route.source, route.groups, route.destination)
    return float(Hypoexponential(rates).cdf(deadline))


class TestUniformSelector:
    def test_valid_routes(self, setting):
        _, directory = setting
        selector = UniformSelector(directory, rng=1)
        route = selector.select(0, 59, 3)
        assert route.onion_routers == 3

    def test_variety(self, setting):
        _, directory = setting
        selector = UniformSelector(directory, rng=2)
        ids = {selector.select(0, 59, 3).group_ids for _ in range(20)}
        assert len(ids) > 1


class TestRateAwareSelector:
    def test_beats_uniform_on_model_score(self, setting):
        graph, directory = setting
        deadline = 240.0
        uniform = UniformSelector(directory, rng=3)
        aware = RateAwareSelector(
            directory, graph, reference_deadline=deadline, candidates=8, rng=3
        )
        uniform_scores = [
            _model_score(graph, uniform.select(0, 59, 3), deadline)
            for _ in range(30)
        ]
        aware_scores = [
            _model_score(graph, aware.select(0, 59, 3), deadline)
            for _ in range(30)
        ]
        assert np.mean(aware_scores) > np.mean(uniform_scores)

    def test_single_candidate_is_uniform(self, setting):
        graph, directory = setting
        selector = RateAwareSelector(
            directory, graph, reference_deadline=100.0, candidates=1, rng=4
        )
        assert selector.select(0, 59, 2).onion_routers == 2

    def test_invalid_parameters(self, setting):
        graph, directory = setting
        with pytest.raises(ValueError):
            RateAwareSelector(directory, graph, reference_deadline=0.0)
        with pytest.raises(ValueError):
            RateAwareSelector(
                directory, graph, reference_deadline=10.0, candidates=0
            )


class TestDiverseSelector:
    def test_avoids_recent_groups(self, setting):
        _, directory = setting
        selector = DiverseSelector(directory, memory=6, rng=5)
        first = selector.select(0, 59, 3)
        second = selector.select(0, 59, 3)
        assert not (set(first.group_ids) & set(second.group_ids))

    def test_falls_back_when_infeasible(self):
        # 4 groups, endpoints take 2, K=2 uses both free groups every time
        directory = OnionGroupDirectory(20, 5)
        selector = DiverseSelector(directory, memory=8, attempts=3, rng=6)
        first = selector.select(0, 19, 2)
        second = selector.select(0, 19, 2)  # must reuse; still succeeds
        assert second.onion_routers == 2

    def test_memory_window_slides(self, setting):
        _, directory = setting
        selector = DiverseSelector(directory, memory=3, rng=7)
        for _ in range(5):
            selector.select(0, 59, 3)
        assert len(selector.recently_used) <= 3
