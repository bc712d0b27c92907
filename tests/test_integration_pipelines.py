"""Cross-subsystem integration: pipelines that span many packages."""

import numpy as np
import pytest

from repro.contacts.events import TraceReplayProcess
from repro.contacts.graph import ContactGraph
from repro.contacts.intercontact import estimate_rates_from_trace
from repro.contacts.mobility import RandomWaypointConfig, random_waypoint_trace
from repro.core.group_management import ManagedGroupDirectory
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route_selection import RateAwareSelector
from repro.core.single_copy import SingleCopySession
from repro.crypto.onion import build_onion, pad_blob, peel_onion
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.workload import PoissonWorkload, onion_session_factory


class TestMobilityToModelPipeline:
    """Motion → trace → rates → routing → models, end to end."""

    @pytest.fixture(scope="class")
    def trace(self):
        config = RandomWaypointConfig(
            width=150.0, height=150.0, radio_range=20.0,
            min_speed=1.0, max_speed=3.0, pause_time=10.0,
        )
        return random_waypoint_trace(15, duration=4000.0, config=config, rng=0)

    def test_trace_statistics_sane(self, trace):
        graph = estimate_rates_from_trace(trace.normalized())
        assert graph.n <= 15
        assert graph.density() > 0.5

    def test_replayed_protocol_delivers(self, trace):
        normalized = trace.normalized()
        n = normalized.n
        directory = OnionGroupDirectory(n, 3, rng=1)
        delivered = 0
        trials = 15
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            source, destination = rng.choice(n, size=2, replace=False)
            try:
                route = directory.select_route(
                    int(source), int(destination), 2, rng=rng
                )
            except ValueError:
                continue
            message = Message(
                int(source), int(destination), created_at=0.0,
                deadline=normalized.end,
            )
            session = SingleCopySession(message, route)
            engine = SimulationEngine(
                TraceReplayProcess(normalized), horizon=normalized.end + 1
            )
            engine.add_session(session)
            engine.run()
            delivered += session.outcome().delivered
        assert delivered > 0

    def test_estimated_graph_feeds_models(self, trace):
        graph = estimate_rates_from_trace(trace.normalized())
        from repro.analysis.delivery import delivery_rate

        directory = OnionGroupDirectory(graph.n, 3, rng=2)
        route = directory.select_route(0, graph.n - 1, 2, rng=2)
        p = delivery_rate(graph, 0, route.groups, graph.n - 1, 2000.0)
        assert 0.0 <= p <= 1.0


def _community_graph(inter_rate):
    """Three communities of ten: fast inside, slow across, and the first
    two members of each community bridge to every other node."""
    community = np.arange(30) // 10
    bridge = np.arange(30) % 10 < 2
    rates = np.where(community[:, None] == community[None, :], 0.1, inter_rate)
    rates = np.where(
        (bridge[:, None] | bridge[None, :])
        & (community[:, None] != community[None, :]),
        0.05,
        rates,
    )
    np.fill_diagonal(rates, 0.0)
    return ContactGraph(rates)


class TestCommunityWorkloadPipeline:
    def test_workload_on_community_graph(self):
        graph = _community_graph(inter_rate=0.002)
        directory = OnionGroupDirectory(graph.n, 5, rng=3)
        workload = PoissonWorkload(
            arrival_rate=0.05, message_deadline=500.0, duration=300.0
        )
        result = workload.run(
            graph,
            onion_session_factory(directory, onion_routers=2, rng=3),
            rng=3,
        )
        assert result.stats.delivery_rate > 0.3

    def test_rate_aware_selection_on_community_graph(self):
        """Rate-aware routing exploits community structure (bridges)."""
        graph = _community_graph(inter_rate=0.001)
        directory = OnionGroupDirectory(30, 5, rng=4)
        selector = RateAwareSelector(
            directory, graph, reference_deadline=200.0,
            candidates=8, rng=4,
        )
        route = selector.select(0, 29, 2)
        assert route.onion_routers == 2


class TestManagedGroupsWithProtocol:
    def test_churned_groups_still_route_and_peel(self):
        """Membership churn, then a fresh onion routes under current keys."""
        directory = ManagedGroupDirectory(b"pipeline-master", group_count=4)
        for node, group in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)]:
            directory.join(node, group)
        directory.leave(2, 0)
        directory.join(7, 0)

        keyring = directory.routing_keyring((0, 1, 2))
        onion = build_onion([0, 1, 2], destination=9, payload=b"m", keyring=keyring)
        blob = onion.blob
        carriers = {0: 7, 1: 3, 2: 5}  # a current member per group
        for group_id in (0, 1, 2):
            carrier = carriers[group_id]
            key = directory.node_key(
                carrier, group_id, directory.epoch(group_id)
            )
            layer = peel_onion(blob, key)
            blob = pad_blob(layer.inner, onion.wire_size)
        assert layer.is_final
        assert layer.destination == 9


class TestSyntheticTraceDiagnostics:
    def test_cambridge_like_business_hours_fit(self):
        """One business day holds enough repeat contacts to estimate rates."""
        from repro.contacts.synthetic import cambridge_like_trace

        trace = cambridge_like_trace(days=1, rng=7).normalized()
        gaps = sum(count - 1 for count in trace.contact_counts().values())
        assert gaps > 100
        assert estimate_rates_from_trace(trace).mean_rate() > 0
