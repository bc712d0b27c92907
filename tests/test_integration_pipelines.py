"""Cross-subsystem integration: pipelines that span many packages."""

import numpy as np
import pytest

from repro.contacts.events import ExponentialContactProcess, TraceReplayProcess
from repro.contacts.graph import ContactGraph
from repro.contacts.intercontact import estimate_rates_from_trace
from repro.contacts.synthetic import cambridge_like_trace
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route_selection import RateAwareSelector
from repro.core.single_copy import SingleCopySession
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.metrics import summarize
from repro.sim.workload import PoissonWorkload


class TestMobilityToModelPipeline:
    """A human-mobility contact trace → rates → routing → models, end to end.

    The trace is the synthetic Cambridge stand-in, fed through the same
    chain a recorded haggle file takes: normalisation, rate estimation,
    trace replay under a protocol, and the Eq. 6 model.
    """

    @pytest.fixture(scope="class")
    def trace(self):
        return cambridge_like_trace(days=1, rng=0)

    def test_trace_statistics_sane(self, trace):
        graph = estimate_rates_from_trace(trace.normalized())
        assert graph.n == 12
        assert graph.density() > 0.5

    def test_replayed_protocol_delivers(self, trace):
        """Cambridge contacts are dense: most K=2 onions arrive in 1800 s."""
        normalized = trace.normalized()
        n = normalized.n
        directory = OnionGroupDirectory(n, 3, rng=1)
        delivered = 0
        trials = 15
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            source, destination = rng.choice(n, size=2, replace=False)
            route = directory.select_route(
                int(source), int(destination), 2, rng=rng
            )
            message = Message(
                int(source), int(destination), created_at=0.0, deadline=1800.0
            )
            session = SingleCopySession(message, route)
            engine = SimulationEngine(
                TraceReplayProcess(normalized), horizon=normalized.end + 1
            )
            engine.add_session(session)
            engine.run()
            delivered += session.outcome().delivered
        assert delivered > trials // 2

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
        rng = np.random.default_rng(3)
        messages = workload.generate_messages(graph.n, rng)
        engine = SimulationEngine(
            ExponentialContactProcess(graph, rng=rng), horizon=800.0
        )
        sessions = [
            engine.add_session(SingleCopySession(
                message,
                directory.select_route(
                    message.source, message.destination, 2, rng=rng
                ),
            ))
            for message in messages
        ]
        engine.run()
        stats = summarize([session.outcome() for session in sessions])
        assert stats.delivery_rate > 0.3

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


class TestSyntheticTraceDiagnostics:
    def test_cambridge_like_business_hours_fit(self):
        """One business day holds enough repeat contacts to estimate rates."""
        trace = cambridge_like_trace(days=1, rng=7).normalized()
        gaps = sum(count - 1 for count in trace.contact_counts().values())
        assert gaps > 100
        assert estimate_rates_from_trace(trace).mean_rate() > 0
