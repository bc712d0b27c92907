"""Tests for path-delay statistics and planning helpers."""

import math

import pytest

from repro.analysis.delay import (
    copies_for_deadline,
    deadline_for_target,
    delay_moments,
    delay_quantile,
)
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.graph import ContactGraph

RATES = [0.05, 0.05, 0.05]
GROUPS = [(5, 6, 7, 8, 9), (10, 11, 12, 13, 14)]


@pytest.fixture
def graph():
    return ContactGraph.complete(20, 0.01)


class TestMoments:
    def test_mean_is_sum_of_inverse_rates(self):
        moments = delay_moments(RATES)
        assert moments["mean"] == pytest.approx(60.0)

    def test_variance(self):
        moments = delay_moments(RATES)
        assert moments["var"] == pytest.approx(3 * 400.0)

    def test_copies_scale_mean(self):
        single = delay_moments(RATES)["mean"]
        triple = delay_moments(RATES, copies=3)["mean"]
        assert triple == pytest.approx(single / 3)

    def test_cv_below_one_for_multi_hop(self):
        # Erlang CV = 1/sqrt(k) < 1
        assert delay_moments(RATES)["cv"] == pytest.approx(1 / math.sqrt(3))


class TestQuantile:
    def test_quantile_inverts_cdf(self):
        for q in (0.1, 0.5, 0.9, 0.99):
            t = delay_quantile(RATES, q)
            assert Hypoexponential(RATES).cdf(t) == pytest.approx(q, abs=1e-6)

    def test_quantile_monotone(self):
        values = [delay_quantile(RATES, q) for q in (0.1, 0.5, 0.9)]
        assert values == sorted(values)

    def test_zero_quantile(self):
        assert delay_quantile(RATES, 0.0) == 0.0

    def test_one_rejected(self):
        with pytest.raises(ValueError, match="unbounded"):
            delay_quantile(RATES, 1.0)

    def test_single_stage_closed_form(self):
        # exponential: q-quantile = -ln(1-q)/λ
        t = delay_quantile([0.2], 0.5)
        assert t == pytest.approx(math.log(2) / 0.2, rel=1e-6)


class TestPlanning:
    def test_deadline_for_target(self, graph):
        deadline = deadline_for_target(graph, 0, GROUPS, 19, 0.95)
        from repro.analysis.delivery import delivery_rate

        assert delivery_rate(graph, 0, GROUPS, 19, deadline) == pytest.approx(
            0.95, abs=1e-6
        )

    def test_tighter_target_needs_longer_deadline(self, graph):
        d90 = deadline_for_target(graph, 0, GROUPS, 19, 0.90)
        d99 = deadline_for_target(graph, 0, GROUPS, 19, 0.99)
        assert d99 > d90

    def test_copies_for_deadline(self, graph):
        tight = deadline_for_target(graph, 0, GROUPS, 19, 0.95)
        copies = copies_for_deadline(graph, 0, GROUPS, 19, tight / 3, 0.95)
        assert copies > 1
        # and the answer actually meets the target
        from repro.analysis.delivery import delivery_rate_multicopy

        achieved = delivery_rate_multicopy(
            graph, 0, GROUPS, 19, tight / 3, copies=copies
        )
        assert achieved >= 0.95

    def test_copies_minimal(self, graph):
        tight = deadline_for_target(graph, 0, GROUPS, 19, 0.95)
        copies = copies_for_deadline(graph, 0, GROUPS, 19, tight / 3, 0.95)
        if copies > 1:
            from repro.analysis.delivery import delivery_rate_multicopy

            below = delivery_rate_multicopy(
                graph, 0, GROUPS, 19, tight / 3, copies=copies - 1
            )
            assert below < 0.95

    def test_unreachable_target_raises(self, graph):
        with pytest.raises(ValueError, match="cannot reach"):
            copies_for_deadline(graph, 0, GROUPS, 19, 0.01, 0.99, max_copies=4)

    def test_unreachable_target_is_printed_unrounded(self, graph):
        # A 0.9999 target must not read as "100%" in the error.
        with pytest.raises(ValueError, match="cannot reach") as excinfo:
            copies_for_deadline(graph, 0, GROUPS, 19, 0.01, 0.9999, max_copies=4)
        message = str(excinfo.value)
        assert "0.9999" in message
        assert "100%" not in message
