"""Tests for the experiment runner machinery."""

import hashlib
import logging

import numpy as np
import pytest

from repro.adversary.dropping import DroppingRelays
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import cambridge_like_trace
from repro.contacts.traces import ContactRecord, ContactTrace
from repro.core.route import OnionRoute
from repro.experiments.runners import (
    analysis_delivery_curve,
    run_faulty_graph_batch,
    estimate_active_span,
    run_random_graph_batch,
    run_trace_batch,
    sample_endpoints,
    security_montecarlo,
    select_overlapping_route,
    simulated_delivery_curve,
    trace_contact_graph,
)
from repro.faults.failstop import FailStopSchedule
from repro.faults.churn import NodeChurnSchedule
from repro.faults.recovery import RecoveryPolicy
from repro.utils.rng import ensure_rng


class TestSampleEndpoints:
    def test_distinct(self):
        rng = ensure_rng(0)
        for _ in range(50):
            source, destination = sample_endpoints(10, rng)
            assert source != destination
            assert 0 <= source < 10 and 0 <= destination < 10


class TestSelectOverlappingRoute:
    def test_excludes_endpoints(self):
        rng = ensure_rng(1)
        route = select_overlapping_route(12, 0, 11, 3, 10, rng)
        for members in route.groups:
            assert 0 not in members
            assert 11 not in members
            assert len(members) == 10

    def test_groups_may_overlap(self):
        rng = ensure_rng(2)
        route = select_overlapping_route(12, 0, 11, 3, 10, rng)
        # 10 eligible nodes, groups of 10: all three groups identical
        assert route.groups[0] == route.groups[1] == route.groups[2]

    def test_too_large_group_rejected(self):
        rng = ensure_rng(3)
        with pytest.raises(ValueError, match="eligible"):
            select_overlapping_route(5, 0, 4, 2, 4, rng)


class TestRandomGraphBatch:
    def test_batch_shape_and_outcomes(self):
        graph = ContactGraph.complete(30, 0.05)
        batch = run_random_graph_batch(
            graph, group_size=5, onion_routers=2, copies=1,
            horizon=500.0, sessions=10, rng=0,
        )
        assert len(batch) == 10
        for route, outcome in batch:
            assert isinstance(route, OnionRoute)
            if outcome.delivered:
                assert outcome.delay <= 500.0
                assert outcome.transmissions == route.eta

    def test_multicopy_batch_costs_more(self):
        graph = ContactGraph.complete(30, 0.05)
        single = run_random_graph_batch(
            graph, 5, 2, copies=1, horizon=2000.0, sessions=15, rng=1
        )
        multi = run_random_graph_batch(
            graph, 5, 2, copies=3, horizon=2000.0, sessions=15, rng=1
        )
        mean = lambda batch: np.mean([o.transmissions for _, o in batch])
        assert mean(multi) > mean(single)


class TestDeliveryCurves:
    def test_analysis_curve_monotone(self):
        graph = ContactGraph.complete(30, 0.02)
        batch = run_random_graph_batch(graph, 5, 2, 1, 400.0, 5, rng=2)
        routes = [route for route, _ in batch]
        curve = analysis_delivery_curve(graph, routes, [50.0, 150.0, 400.0])
        values = [y for _, y in curve]
        assert values == sorted(values)
        assert all(0 <= y <= 1 for y in values)

    def test_unreachable_route_contributes_zero(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 0.5
        graph = ContactGraph(rates)
        route = OnionRoute(source=0, destination=3, group_ids=(0,), groups=((1,),))
        curve = analysis_delivery_curve(graph, [route], [100.0])
        assert curve == [(100.0, 0.0)]

    def test_simulated_curve_from_outcomes(self):
        graph = ContactGraph.complete(30, 0.05)
        batch = run_random_graph_batch(graph, 5, 2, 1, 800.0, 20, rng=3)
        outcomes = [o for _, o in batch]
        curve = simulated_delivery_curve(outcomes, [100.0, 800.0])
        assert curve[0][1] <= curve[1][1]


class TestSecurityMonteCarlo:
    def test_zero_compromise(self):
        traceable, anonymity = security_montecarlo(
            100, 5, 3, copies=1, compromise_rate=0.0, trials=50, rng=0
        )
        assert traceable == 0.0
        assert anonymity == pytest.approx(1.0)

    def test_matches_models_at_moderate_rate(self):
        from repro.analysis.anonymity import path_anonymity
        from repro.analysis.traceable import traceable_rate_model

        traceable, anonymity = security_montecarlo(
            100, 5, 3, copies=1, compromise_rate=0.2, trials=4000, rng=1
        )
        assert traceable == pytest.approx(traceable_rate_model(4, 0.2), abs=0.02)
        assert anonymity == pytest.approx(
            path_anonymity(100, 4, 5, 0.2, form="exact"), abs=0.02
        )

    def test_multicopy_lowers_anonymity(self):
        _, single = security_montecarlo(100, 5, 3, 1, 0.2, trials=1500, rng=2)
        _, multi = security_montecarlo(100, 5, 3, 5, 0.2, trials=1500, rng=2)
        assert multi < single

    def test_overlapping_mode(self):
        traceable, anonymity = security_montecarlo(
            12, 10, 3, copies=1, compromise_rate=0.25, trials=300, rng=3,
            overlapping=True,
        )
        assert 0.0 < traceable < 1.0
        assert 0.0 < anonymity <= 1.0


class TestTraceBatch:
    def test_trace_pipeline(self):
        trace = cambridge_like_trace(days=2, rng=0)
        batch = run_trace_batch(
            trace, group_size=10, onion_routers=3, copies=1,
            deadline=3600.0, sessions=5, rng=0, overlapping=True,
        )
        assert len(batch) == 5
        for route, outcome in batch:
            assert route.eta == 4
            if outcome.delivered:
                assert outcome.delay <= 3600.0

    def test_trace_graph_and_active_span(self):
        trace = cambridge_like_trace(days=2, rng=1)
        span = estimate_active_span(trace)
        assert 0 < span <= trace.normalized().end + 3600
        graph = trace_contact_graph(trace, span)
        assert graph.n == 12
        assert graph.mean_rate() > 0


class TestFaultyGraphBatch:
    def _graph(self):
        return ContactGraph.complete(20, 0.05)

    def test_faultless_matches_plain_batch_shape(self):
        batch = run_faulty_graph_batch(
            self._graph(), group_size=3, onion_routers=2, copies=1,
            horizon=400.0, sessions=10, rng=5,
        )
        assert len(batch) == 10
        for route, outcome in batch:
            assert route.eta == 3
            assert outcome.status in {"delivered", "pending", "expired"}

    def test_churn_reduces_delivery(self):
        kwargs = dict(
            group_size=3, onion_routers=2, copies=1,
            horizon=300.0, sessions=40,
        )
        plain = run_faulty_graph_batch(self._graph(), rng=6, **kwargs)
        churned = run_faulty_graph_batch(
            self._graph(), rng=6,
            churn=NodeChurnSchedule.from_availability(20, 0.3, 20.0, rng=7),
            **kwargs,
        )
        delivered = lambda batch: sum(o.delivered for _, o in batch)
        assert delivered(churned) < delivered(plain)

    def test_blackhole_relays_drop_sessions(self):
        relays = DroppingRelays.blackholes(set(range(20)))
        batch = run_faulty_graph_batch(
            self._graph(), group_size=3, onion_routers=2, copies=1,
            horizon=400.0, sessions=15, rng=8, relays=relays,
        )
        statuses = {outcome.status for _, outcome in batch}
        assert "dropped" in statuses
        assert not any(outcome.delivered for _, outcome in batch)

    def test_recovery_with_failstop_runs(self):
        batch = run_faulty_graph_batch(
            self._graph(), group_size=3, onion_routers=2, copies=2,
            horizon=400.0, sessions=15, rng=9,
            failstop=FailStopSchedule(20, death_rate=0.002, rng=10),
            relays=DroppingRelays.sample(20, 0.2, 0.5, rng=11),
            recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
        )
        assert len(batch) == 15
        for _, outcome in batch:
            assert outcome.status in {
                "delivered", "pending", "expired", "dropped", "failed",
            }


class TestSparseTrace:
    def test_partial_batch_with_warning(self, caplog):
        # Only nodes 0 and 1 ever contact in the first half of the trace,
        # so almost no sampled source can be placed: the batch must come
        # back partial instead of raising.
        records = [ContactRecord(0, 1, 0.0, 1.0)]
        for i in range(2, 300, 2):
            records.append(ContactRecord(i, i + 1, 900.0 + i, 905.0 + i))
        trace = ContactTrace(records)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runners"):
            batch = run_trace_batch(
                trace, group_size=5, onion_routers=2, copies=1,
                deadline=100.0, sessions=8, rng=3, overlapping=True,
            )
        assert len(batch) < 8  # partial, not empty-handed ...
        assert any("trace too sparse" in r.message for r in caplog.records)
        for route, outcome in batch:  # ... and the placed sessions are real
            assert route.eta == 3


def _outcome_digest(pairs) -> str:
    canonical = "\n".join(f"{route!r}|{outcome!r}" for route, outcome in pairs)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestPinnedRandomStreams:
    """The batch runners keep their random streams, outcome for outcome.

    The digests were recorded from the standalone batch bodies that the
    fused sweeps' one-variant case replaced; any change to a runner's
    draw order, session placement or deadline handling breaks them.
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return random_contact_graph(30, rng=np.random.default_rng(41))

    @pytest.mark.parametrize(
        "consume, copies, deadline, expected",
        [
            ("auto", 1, None, "f9b2daad93ac440aa3d74782f2196360e831d2f44e25c5f7e71ca8c7cac6ef02"),
            ("stream", 1, None, "f9b2daad93ac440aa3d74782f2196360e831d2f44e25c5f7e71ca8c7cac6ef02"),
            ("auto", 3, None, "96ce8a371314eec5f2f1174cd5370c8e132492cfd6e646000f3c9fadae6a4d4b"),
            ("stream", 1, 150.0, "93ac0792e4f034779a3b7d7e1dee1f1c5c117f2d545a765ac6bc5eb5ea024823"),
            ("auto", 3, 150.0, "7383b847d95c1bb729e74bf35dfe6ad9d19bf0da16a024972923eb54b453f006"),
        ],
    )
    def test_random_graph_batch(self, graph, consume, copies, deadline, expected):
        pairs = run_random_graph_batch(
            graph, 4, 2, copies, horizon=400.0, sessions=30, rng=42,
            consume=consume, deadline=deadline,
        )
        assert _outcome_digest(pairs) == expected

    @pytest.mark.parametrize(
        "overlapping, group_size, expected",
        [
            (False, 3, "da80092be69a0a1a551c870d6d0848d0b3fd19896ba1cea4f1cab203d2450cc4"),
            (True, 10, "87a3142e9834859a7c8fdb2bc8d4e2151703a78215930b9991ddeee320130fef"),
        ],
    )
    def test_trace_batch(self, overlapping, group_size, expected):
        pairs = run_trace_batch(
            cambridge_like_trace(days=2, rng=43), group_size, 3, copies=1,
            deadline=3600.0, sessions=20, rng=44, overlapping=overlapping,
        )
        assert _outcome_digest(pairs) == expected

    def test_faulty_batch_under_churn(self, graph):
        pairs = run_faulty_graph_batch(
            graph, 4, 2, 1, horizon=400.0, sessions=30, rng=46,
            churn=NodeChurnSchedule.from_availability(30, 0.7, 20.0, rng=45),
        )
        assert _outcome_digest(pairs) == (
            "0500569fc539ab3380f5016457d2c7cc7976996ad3395fb7b2aa7804a9068255"
        )

    def test_faulty_batch_greyhole_with_recovery(self, graph):
        pairs = run_faulty_graph_batch(
            graph, 4, 2, 2, horizon=400.0, sessions=30, rng=48,
            relays=DroppingRelays.sample(30, 0.3, 0.5, rng=47),
            recovery=RecoveryPolicy(custody_timeout=30.0, max_retries=2),
        )
        assert _outcome_digest(pairs) == (
            "428f1ba07880fd3315a4f16c303d5efe6ccdd7a8e887c73b47386078c142f2e1"
        )
