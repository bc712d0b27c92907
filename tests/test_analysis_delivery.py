"""Tests for the delivery-rate models (paper Eq. 4–7)."""

import math

import numpy as np
import pytest

from repro.analysis.delivery import (
    analysis_delivery_curve,
    delivery_rate,
    delivery_rate_from_rates,
    delivery_rate_multicopy,
    expected_path_delay,
    onion_path_rates,
    route_rate_matrix,
)
from repro.analysis.hypoexponential import Hypoexponential
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.experiments.config import DEFAULT_CONFIG


@pytest.fixture
def graph():
    return ContactGraph.complete(20, 0.01)


GROUPS = [(5, 6, 7, 8, 9), (10, 11, 12, 13, 14)]


class TestOnionPathRates:
    def test_equation_4_on_uniform_graph(self, graph):
        rates = onion_path_rates(graph, 0, GROUPS, 19)
        # hop 1: sum over 5 members; hop 2: (1/5)·25 pairs; hop 3: sum over 5.
        assert rates == pytest.approx([0.05, 0.05, 0.05])

    def test_hop_count_is_k_plus_one(self, graph):
        rates = onion_path_rates(graph, 0, GROUPS, 19)
        assert len(rates) == len(GROUPS) + 1

    def test_first_hop_sums_source_rates(self):
        rates_matrix = np.zeros((6, 6))
        # source 0 only meets members 1 (rate .1) and 2 (rate .3)
        rates_matrix[0, 1] = rates_matrix[1, 0] = 0.1
        rates_matrix[0, 2] = rates_matrix[2, 0] = 0.3
        rates_matrix[1, 5] = rates_matrix[5, 1] = 0.2
        rates_matrix[2, 5] = rates_matrix[5, 2] = 0.2
        graph = ContactGraph(rates_matrix)
        rates = onion_path_rates(graph, 0, [(1, 2)], 5)
        assert rates[0] == pytest.approx(0.4)
        assert rates[1] == pytest.approx(0.4)

    def test_middle_hop_averages_over_senders(self):
        matrix = np.zeros((5, 5))
        matrix[0, 1] = matrix[1, 0] = 0.5
        matrix[0, 2] = matrix[2, 0] = 0.5
        # group (1,2) -> group (3,): λ_{1,3}=0.2, λ_{2,3}=0.4
        matrix[1, 3] = matrix[3, 1] = 0.2
        matrix[2, 3] = matrix[3, 2] = 0.4
        matrix[3, 4] = matrix[4, 3] = 0.1
        graph = ContactGraph(matrix)
        rates = onion_path_rates(graph, 0, [(1, 2), (3,)], 4)
        assert rates[1] == pytest.approx((0.2 + 0.4) / 2)

    def test_zero_rate_hop_raises(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = matrix[1, 0] = 0.1  # source reaches group
        # group member 1 never meets destination 3
        graph = ContactGraph(matrix)
        with pytest.raises(ValueError, match="zero contact rate"):
            onion_path_rates(graph, 0, [(1,)], 3)

    def test_same_endpoints_rejected(self, graph):
        with pytest.raises(ValueError, match="differ"):
            onion_path_rates(graph, 0, GROUPS, 0)

    def test_empty_route_rejected(self, graph):
        with pytest.raises(ValueError, match="at least one"):
            onion_path_rates(graph, 0, [], 19)


class TestDeliveryRate:
    def test_monotone_in_deadline(self, graph):
        p1 = delivery_rate(graph, 0, GROUPS, 19, 60.0)
        p2 = delivery_rate(graph, 0, GROUPS, 19, 600.0)
        assert p1 < p2 <= 1.0

    def test_zero_deadline(self, graph):
        assert delivery_rate(graph, 0, GROUPS, 19, 0.0) == 0.0

    def test_known_erlang_value(self, graph):
        """Uniform rates make the path Erlang(3, 0.05)."""
        from scipy.stats import erlang

        p = delivery_rate(graph, 0, GROUPS, 19, 100.0)
        assert p == pytest.approx(erlang.cdf(100.0, a=3, scale=20.0), abs=1e-9)

    def test_larger_groups_deliver_faster(self):
        graph = ContactGraph.complete(30, 0.01)
        small = delivery_rate(graph, 0, [(1, 2)], 29, 120.0)
        large = delivery_rate(graph, 0, [(1, 2, 3, 4, 5, 6)], 29, 120.0)
        assert large > small

    def test_more_onions_deliver_slower(self):
        graph = ContactGraph.complete(30, 0.01)
        short = delivery_rate(graph, 0, [(1, 2, 3)], 29, 120.0)
        long = delivery_rate(graph, 0, [(1, 2, 3), (4, 5, 6), (7, 8, 9)], 29, 120.0)
        assert long < short


class TestMulticopy:
    def test_reduces_to_single_copy_at_one(self, graph):
        single = delivery_rate(graph, 0, GROUPS, 19, 120.0)
        multi = delivery_rate_multicopy(graph, 0, GROUPS, 19, 120.0, copies=1)
        assert multi == pytest.approx(single)

    def test_monotone_in_copies(self, graph):
        values = [
            delivery_rate_multicopy(graph, 0, GROUPS, 19, 120.0, copies=L)
            for L in (1, 2, 3, 5)
        ]
        assert values == sorted(values)

    def test_equation_7_rate_scaling(self, graph):
        """L copies is exactly the single-copy model with rates × L."""
        boosted = delivery_rate_from_rates([0.15, 0.15, 0.15], 120.0)
        multi = delivery_rate_multicopy(graph, 0, GROUPS, 19, 120.0, copies=3)
        assert multi == pytest.approx(boosted)

    def test_invalid_copies(self, graph):
        with pytest.raises(ValueError):
            delivery_rate_multicopy(graph, 0, GROUPS, 19, 120.0, copies=0)


class TestExpectedPathDelay:
    def test_uniform_case(self, graph):
        assert expected_path_delay(graph, 0, GROUPS, 19) == pytest.approx(60.0)

    def test_copies_divide_delay(self, graph):
        single = expected_path_delay(graph, 0, GROUPS, 19, copies=1)
        triple = expected_path_delay(graph, 0, GROUPS, 19, copies=3)
        assert triple == pytest.approx(single / 3)


# ----------------------------------------------------------------------
# analysis_delivery_curve: the one route-set evaluator
# ----------------------------------------------------------------------
#
# Each figure or model that averages Eq. 6/7 over routes calls
# analysis_delivery_curve. The oracles below are the per-route loops those
# callers once ran by hand — a scalar Hypoexponential per route, summed in
# route order — and the tests demand exact equality with them.


def _scalar_model(graph, route, deadline):
    """Eq. 6 for one route with a fresh scalar Hypoexponential."""
    rates = onion_path_rates(graph, route.source, route.groups, route.destination)
    return float(Hypoexponential(rates).cdf(deadline))


def _loop_mean(graph, routes, deadline):
    """Per-route mean of the scalar model; unreachable routes add zero."""
    total = 0.0
    for route in routes:
        try:
            total += _scalar_model(graph, route, deadline)
        except ValueError:
            pass
    return total / len(routes)


def _loop_mean_model_delivery(
    n, density, group_size, onion_routers, deadline, routes, rng
):
    """The sensitivity figures' route draw followed by the per-route loop."""
    graph = random_contact_graph(n=n, density=density, rng=rng)
    directory = OnionGroupDirectory(n, group_size, rng=rng)
    sampled = []
    for _ in range(routes):
        source, destination = rng.choice(n, size=2, replace=False)
        sampled.append(
            directory.select_route(int(source), int(destination), onion_routers, rng=rng)
        )
    return _loop_mean(graph, sampled, deadline)


class TestAnalysisDeliveryCurve:
    def test_runners_reexports_the_evaluator(self):
        from repro.experiments import runners

        assert runners.analysis_delivery_curve is analysis_delivery_curve

    def test_figure_r1_analysis_is_mean_of_churned_delivery_rate(self, monkeypatch):
        from repro.analysis.robustness import churned_delivery_rate
        from repro.experiments import robustness_figs

        churn_batches = []
        real_batch = robustness_figs.run_parallel_batch

        def recording_batch(fn, **kwargs):
            pairs = real_batch(fn, **kwargs)
            if fn is robustness_figs.run_faulty_graph_batch:
                churn_batches.append((kwargs["graph"], pairs))
            return pairs

        monkeypatch.setattr(robustness_figs, "run_parallel_batch", recording_batch)
        availabilities = (1.0, 0.6, 0.2)
        result = robustness_figs.figure_r1(
            availabilities=availabilities, deadline=360.0, sessions=12, seed=5
        )
        assert len(churn_batches) == len(availabilities)
        expected = []
        for availability, (graph, pairs) in zip(availabilities, churn_batches):
            total = 0.0
            for route, _ in pairs:
                total += churned_delivery_rate(
                    graph, route.source, route.groups, route.destination,
                    360.0, availability, copies=DEFAULT_CONFIG.copies,
                )
            expected.append((availability, total / len(pairs)))
        assert result.get("Analysis: Eq. 6 on churned graph").points == tuple(expected)

    def test_sensitivity_series_equal_the_per_route_loop(self, monkeypatch):
        from repro.experiments import sensitivity

        def figures():
            return (
                sensitivity.network_size_sensitivity(sizes=(30, 60), routes=12, seed=3),
                sensitivity.density_sensitivity(
                    densities=(0.1, 0.3, 1.0), n=40, routes=15, seed=4
                ),
            )

        evaluated = figures()
        monkeypatch.setattr(
            sensitivity, "_mean_model_delivery", _loop_mean_model_delivery
        )
        assert figures() == evaluated

    def test_figure_e1_paper_series_equals_the_per_route_loop(self, monkeypatch):
        from repro.experiments import extension_figs

        graphs, routes = [], []
        real_graph = extension_figs.random_contact_graph
        real_select = OnionGroupDirectory.select_route

        def recording_graph(*args, **kwargs):
            graphs.append(real_graph(*args, **kwargs))
            return graphs[-1]

        def recording_select(self, *args, **kwargs):
            routes.append(real_select(self, *args, **kwargs))
            return routes[-1]

        monkeypatch.setattr(extension_figs, "random_contact_graph", recording_graph)
        monkeypatch.setattr(OnionGroupDirectory, "select_route", recording_select)
        result = extension_figs.figure_e1(sessions=15, seed=3)
        assert len(graphs) == 1 and len(routes) == 15
        deadlines = np.asarray(DEFAULT_CONFIG.deadlines)
        total = np.zeros(len(deadlines))
        for route in routes:
            rates = onion_path_rates(
                graphs[0], route.source, route.groups, route.destination
            )
            total += Hypoexponential(rates).cdf(deadlines)
        expected = tuple(
            (float(t), float(p)) for t, p in zip(deadlines, total / len(routes))
        )
        assert result.get("Paper model (Eq. 6)").points == expected


# ----------------------------------------------------------------------
# the batched pass against the per-route loop, bit for bit
# ----------------------------------------------------------------------


def _loop_curve(graph, routes, deadlines, copies=1):
    """One scalar Hypoexponential per route, summed in route order."""
    grid = np.asarray(deadlines, dtype=float)
    total = np.zeros_like(grid)
    for route in routes:
        try:
            rates = onion_path_rates(
                graph, route.source, route.groups, route.destination
            )
        except ValueError:
            continue
        total += Hypoexponential([rate * copies for rate in rates]).cdf(grid)
    mean = total / max(len(routes), 1)
    return [(float(t), float(p)) for t, p in zip(grid, mean)]


def _sample_routes(n, group_size, onion_routers, count, seed, avoid=True):
    rng = np.random.default_rng(seed)
    directory = OnionGroupDirectory(n, group_size, rng=rng)
    routes = []
    for _ in range(count):
        source, destination = rng.choice(n, size=2, replace=False)
        routes.append(
            directory.select_route(
                int(source), int(destination), onion_routers, rng=rng,
                avoid_endpoint_groups=avoid,
            )
        )
    return routes


def _unreachable(graph, route):
    try:
        onion_path_rates(graph, route.source, route.groups, route.destination)
    except ValueError:
        return True
    return False


def _trace_graph():
    from repro.contacts.synthetic import infocom05_like_trace
    from repro.experiments.runners import estimate_active_span, trace_contact_graph

    trace = infocom05_like_trace(rng=11).normalized()
    return trace_contact_graph(trace, estimate_active_span(trace))


DEADLINE_GRIDS = (
    (0.0, 60.0, 180.0, 600.0, 1800.0, 7200.0),
    (300.0,),
    (0.0,),
    # Past 50/Λ on the synthetic graphs: uniformization runs several segments.
    (4e3, 3e4),
)
GRID_IDS = ("grid", "single", "zero", "long")


class TestBatchedRouteSet:
    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    @pytest.mark.parametrize("deadlines", DEADLINE_GRIDS, ids=GRID_IDS)
    def test_random_graph_equals_the_loop(self, copies, deadlines):
        graph = random_contact_graph(40, density=0.3, rng=copies)
        routes = _sample_routes(40, 4, 3, 60, seed=copies, avoid=copies % 2 == 0)
        assert analysis_delivery_curve(graph, routes, deadlines, copies) == (
            _loop_curve(graph, routes, deadlines, copies)
        )

    @pytest.mark.parametrize("copies", [1, 3])
    # The trace graph's rates are per second of a multi-day trace, so its
    # multi-segment deadlines are longer.
    @pytest.mark.parametrize(
        "deadlines", DEADLINE_GRIDS + ((3e5, 1e6),), ids=GRID_IDS + ("trace-long",)
    )
    def test_trace_graph_with_unequal_groups_equals_the_loop(self, copies, deadlines):
        graph = _trace_graph()
        routes = _sample_routes(graph.n, 5, 3, 120, seed=2)
        sizes = {len(members) for route in routes for members in route.groups}
        assert len(sizes) > 1  # n = 41 leaves a group of one
        assert any(_unreachable(graph, route) for route in routes)
        assert analysis_delivery_curve(graph, routes, deadlines, copies) == (
            _loop_curve(graph, routes, deadlines, copies)
        )

    def test_zero_rate_hops_contribute_zero(self):
        graph = random_contact_graph(30, density=0.05, rng=4)
        routes = _sample_routes(30, 2, 2, 80, seed=4)
        unreachable = sum(_unreachable(graph, route) for route in routes)
        assert 0 < unreachable < len(routes)
        deadlines = DEADLINE_GRIDS[0]
        assert analysis_delivery_curve(graph, routes, deadlines) == (
            _loop_curve(graph, routes, deadlines)
        )

    def test_all_routes_unreachable(self):
        graph = ContactGraph(np.zeros((6, 6)))
        routes = [OnionRoute(0, 5, (0,), ((1, 2),))]
        assert analysis_delivery_curve(graph, routes, (10.0, 20.0)) == [
            (10.0, 0.0),
            (20.0, 0.0),
        ]

    @pytest.mark.parametrize("deadlines", DEADLINE_GRIDS, ids=GRID_IDS)
    def test_coinciding_rates_equal_the_loop(self, deadlines):
        """Equal and near-equal hop rates go to uniformization."""
        rng = np.random.default_rng(8)
        uniform = ContactGraph.complete(30, 0.01)
        jitter = 0.01 * (1 + rng.uniform(-1e-6, 1e-6, size=(30, 30)))
        jitter = (jitter + jitter.T) / 2
        np.fill_diagonal(jitter, 0.0)
        routes = _sample_routes(30, 5, 3, 10, seed=8)
        for graph in (uniform, ContactGraph(jitter)):
            for copies in (1, 2):
                assert analysis_delivery_curve(graph, routes, deadlines, copies) == (
                    _loop_curve(graph, routes, deadlines, copies)
                )

    def test_overlapping_groups_and_mixed_hop_counts_equal_the_loop(self):
        """Members equal to an endpoint or shared between groups add 0.0."""
        graph = random_contact_graph(12, density=0.6, rng=3)
        routes = [
            OnionRoute(0, 11, (0, 1), ((0, 1, 2), (2, 3, 11))),
            OnionRoute(4, 5, (0,), ((4, 5, 6, 7),)),
            OnionRoute(1, 9, (0, 1, 2), ((2,), (2, 3, 4, 5), (5, 6))),
            OnionRoute(3, 8, (0, 1), ((9, 10), (10,))),
        ]
        deadlines = DEADLINE_GRIDS[0]
        for copies in (1, 2):
            assert analysis_delivery_curve(graph, routes, deadlines, copies) == (
                _loop_curve(graph, routes, deadlines, copies)
            )

    def test_rate_matrix_rows_equal_onion_path_rates(self):
        graph = _trace_graph()
        routes = _sample_routes(graph.n, 5, 3, 120, seed=6, avoid=False)
        matrix = route_rate_matrix(graph, routes)
        for route, row in zip(routes, matrix):
            if _unreachable(graph, route):
                assert (row == 0.0).any()
            else:
                assert list(row) == onion_path_rates(
                    graph, route.source, route.groups, route.destination
                )
