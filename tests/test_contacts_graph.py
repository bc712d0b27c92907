"""Tests for the ContactGraph substrate."""

import math

import numpy as np
import pytest

from repro.contacts.graph import ContactGraph


def triangle_graph():
    """3 nodes: 0-1 at rate 0.1, 1-2 at rate 0.2, 0-2 never meets."""
    rates = np.array(
        [
            [0.0, 0.1, 0.0],
            [0.1, 0.0, 0.2],
            [0.0, 0.2, 0.0],
        ]
    )
    return ContactGraph(rates)


class TestConstruction:
    def test_basic(self):
        graph = triangle_graph()
        assert graph.n == 3
        assert graph.rate(0, 1) == pytest.approx(0.1)
        assert graph.rate(1, 0) == pytest.approx(0.1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ContactGraph(np.zeros((2, 3)))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="two nodes"):
            ContactGraph(np.zeros((1, 1)))

    def test_rejects_negative_rate(self):
        rates = np.zeros((2, 2))
        rates[0, 1] = rates[1, 0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            ContactGraph(rates)

    def test_rejects_asymmetric(self):
        rates = np.zeros((2, 2))
        rates[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            ContactGraph(rates)

    def test_rejects_self_contact(self):
        rates = np.full((2, 2), 0.1)
        with pytest.raises(ValueError, match="diagonal"):
            ContactGraph(rates)

    def test_matrix_read_only(self):
        graph = triangle_graph()
        with pytest.raises(ValueError):
            graph.rates[0, 1] = 9.0

    def test_from_mean_intercontact(self):
        means = [[0.0, 10.0], [10.0, 0.0]]
        graph = ContactGraph.from_mean_intercontact(means)
        assert graph.rate(0, 1) == pytest.approx(0.1)

    def test_from_mean_intercontact_inf_means_never(self):
        means = [[0.0, math.inf], [math.inf, 0.0]]
        graph = ContactGraph.from_mean_intercontact(means)
        assert graph.rate(0, 1) == 0.0

    def test_complete(self):
        graph = ContactGraph.complete(5, 0.3)
        assert graph.density() == 1.0
        assert graph.rate(2, 4) == pytest.approx(0.3)


class TestAccessors:
    def test_mean_intercontact(self):
        graph = triangle_graph()
        assert graph.mean_intercontact(0, 1) == pytest.approx(10.0)
        assert graph.mean_intercontact(0, 2) == math.inf

    def test_contact_probability_matches_formula(self):
        graph = triangle_graph()
        expected = 1.0 - math.exp(-0.1 * 30.0)
        assert graph.contact_probability(0, 1, 30.0) == pytest.approx(expected)

    def test_contact_probability_zero_rate(self):
        graph = triangle_graph()
        assert graph.contact_probability(0, 2, 1e9) == 0.0

    def test_contact_probability_zero_deadline(self):
        graph = triangle_graph()
        assert graph.contact_probability(0, 1, 0.0) == 0.0

    def test_neighbors(self):
        graph = triangle_graph()
        assert list(graph.neighbors(1)) == [0, 2]
        assert list(graph.neighbors(0)) == [1]

    def test_pairs(self):
        graph = triangle_graph()
        assert sorted(graph.pairs()) == [(0, 1), (1, 2)]

    def test_degree(self):
        graph = triangle_graph()
        assert graph.degree(1) == 2
        assert graph.degree(2) == 1

    def test_density(self):
        assert triangle_graph().density() == pytest.approx(2 / 3)

    def test_mean_rate(self):
        assert triangle_graph().mean_rate() == pytest.approx(0.15)

    def test_repr_mentions_size(self):
        assert "n=3" in repr(triangle_graph())


class TestAggregateRates:
    def test_anycast_rate_sums(self):
        graph = ContactGraph.complete(6, 0.2)
        assert graph.anycast_rate(0, [1, 2, 3]) == pytest.approx(0.6)

    def test_anycast_rate_excludes_self(self):
        graph = ContactGraph.complete(6, 0.2)
        assert graph.anycast_rate(0, [0, 1]) == pytest.approx(0.2)

    def test_group_to_group_rate_average_of_sums(self):
        graph = ContactGraph.complete(8, 0.1)
        # 2 senders x 3 receivers, all distinct: (1/2) * 6 * 0.1 = 0.3
        assert graph.group_to_group_rate([0, 1], [2, 3, 4]) == pytest.approx(0.3)

    def test_group_to_group_skips_shared_members(self):
        graph = ContactGraph.complete(8, 0.1)
        # sender 0 appears in both groups; the 0->0 pair contributes nothing
        rate = graph.group_to_group_rate([0], [0, 1])
        assert rate == pytest.approx(0.1)

    def test_group_to_group_empty_group_rejected(self):
        graph = ContactGraph.complete(4, 0.1)
        with pytest.raises(ValueError, match="non-empty"):
            graph.group_to_group_rate([], [1])
