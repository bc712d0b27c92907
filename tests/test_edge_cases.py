"""Edge-case coverage across subsystems.

Scenarios the main suites don't reach: degenerate sizes, boundary
parameters, unusual-but-legal configurations, and determinism guarantees.
"""

import numpy as np
import pytest

from repro.contacts.events import ExponentialContactProcess
from repro.contacts.graph import ContactGraph
from repro.core.multi_copy import MultiCopySession, SprayPolicy
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message

from tests.helpers import feed


class TestMinimalNetworks:
    def test_smallest_possible_onion_route(self):
        """n = 3: source, one single-member group, destination."""
        route = OnionRoute(
            source=0, destination=2, group_ids=(0,), groups=((1,),)
        )
        session = SingleCopySession(
            Message(0, 2, 0.0, 100.0), route
        )
        feed(session, [(1.0, 0, 1), (2.0, 1, 2)])
        outcome = session.outcome()
        assert outcome.delivered
        assert outcome.transmissions == 2

    def test_two_node_graph_direct_only(self):
        graph = ContactGraph.complete(2, 0.5)
        process = ExponentialContactProcess(graph, rng=0)
        events = list(process.events_until_columnar(50.0))
        assert events
        assert all({e.a, e.b} == {0, 1} for e in events)

    def test_group_size_equals_n(self):
        directory = OnionGroupDirectory(10, 10)
        assert directory.group_count == 1
        with pytest.raises(ValueError):
            directory.select_route(0, 9, 1)  # the one group holds endpoints


class TestCopiesEqualGroupSize:
    def test_l_equals_g_spray_saturates_group(self):
        """With L = g the source can populate the whole first group."""
        route = OnionRoute(
            source=0, destination=9, group_ids=(0, 1),
            groups=((1, 2), (3, 4)),
        )
        session = MultiCopySession(
            Message(0, 9, 0.0, 100.0), route, copies=2
        )
        feed(session, [(1.0, 0, 1), (2.0, 0, 2)])
        assert session.live_copies == 2
        # the source exhausted its tickets and cannot spray again
        feed(session, [(3.0, 0, 1)])
        assert session.outcome().transmissions == 2

    def test_copies_exceeding_group_stall_gracefully(self):
        """L > g: the surplus tickets can never be spent; no crash, and the
        delivered copies still work."""
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1, 2),)
        )
        session = MultiCopySession(
            Message(0, 9, 0.0, 100.0), route, copies=5
        )
        feed(session, [(1.0, 0, 1), (2.0, 0, 2), (3.0, 1, 9), (4.0, 2, 9)])
        outcome = session.outcome()
        assert outcome.delivered
        # 2 sprays + 2 deliveries; the source still holds 3 unusable tickets
        assert outcome.transmissions == 4
        assert not session.done  # the stalled source copy keeps the session open


class TestBinarySprayDepth:
    def test_tickets_conserved(self):
        """Total tickets across live copies never exceed L."""
        route = OnionRoute(
            source=0, destination=19,
            group_ids=(0, 1, 2),
            groups=((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        )
        session = MultiCopySession(
            Message(0, 19, 0.0, 1000.0), route, copies=8,
            spray_policy=SprayPolicy.BINARY,
        )
        stream = [
            (1.0, 0, 1), (2.0, 1, 4), (3.0, 0, 2), (4.0, 4, 7),
            (5.0, 2, 5), (6.0, 5, 8),
        ]
        for event_args in stream:
            feed(session, [event_args])
            live_tickets = sum(
                copy.tickets for copy in session._copies if not copy.terminated
            )
            assert live_tickets <= 8


class TestEngineDeterminism:
    def test_same_seed_same_everything(self):
        graph = ContactGraph.complete(15, 0.05)
        directory = OnionGroupDirectory(15, 3)

        def run(seed):
            rng = np.random.default_rng(seed)
            route = directory.select_route(0, 14, 2, rng=rng)
            engine = SimulationEngine(
                ExponentialContactProcess(graph, rng=rng), horizon=300.0
            )
            session = SingleCopySession(Message(0, 14, 0.0, 300.0), route)
            engine.add_session(session)
            engine.run()
            outcome = session.outcome()
            return (
                outcome.delivered,
                outcome.delivery_time,
                tuple(outcome.paths[0]),
                engine.events_processed,
            )

        assert run(42) == run(42)
        # and different seeds genuinely differ somewhere
        results = {run(seed) for seed in range(6)}
        assert len(results) > 1


class TestSimultaneousContacts:
    def test_equal_timestamps_processed_in_order(self):
        """Two contacts at the identical instant both get dispatched."""
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1, 2),)
        )
        session = MultiCopySession(Message(0, 9, 0.0, 10.0), route, copies=2)
        feed(session, [(1.0, 0, 1), (1.0, 0, 2)])
        assert session.live_copies == 2

    def test_delivery_and_spray_same_instant(self):
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1, 2),)
        )
        session = MultiCopySession(Message(0, 9, 0.0, 10.0), route, copies=2)
        feed(session, [(1.0, 0, 1), (2.0, 1, 9), (2.0, 0, 2)])
        outcome = session.outcome()
        assert outcome.delivered
        assert outcome.delivery_time == 2.0


class TestZeroAndBoundaryParameters:
    def test_message_created_exactly_at_event_time(self):
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1,),)
        )
        session = SingleCopySession(
            Message(0, 9, created_at=5.0, deadline=10.0), route
        )
        feed(session, [(5.0, 0, 1)])  # not before creation: must count
        assert session.holder == 1

    def test_deadline_boundary_is_inclusive(self):
        route = OnionRoute(
            source=0, destination=9, group_ids=(0,), groups=((1,),)
        )
        session = SingleCopySession(Message(0, 9, 0.0, 5.0), route)
        feed(session, [(2.0, 0, 1), (5.0, 1, 9)])
        assert session.outcome().delivered

    def test_compromise_rate_rounding(self):
        from repro.adversary.compromise import CompromiseModel

        # 12 nodes at 10% -> round(1.2) = 1 compromised node
        model = CompromiseModel(12, 0.10)
        assert len(model.sample_fixed_count(rng=0)) == 1

    def test_hypoexponential_handles_extreme_rate_spread(self):
        from repro.analysis.hypoexponential import Hypoexponential

        dist = Hypoexponential([1e-4, 1e2])
        value = dist.cdf(100.0)
        # dominated by the slow stage: P ≈ 1 - e^{-0.01}
        assert value == pytest.approx(1 - np.exp(-1e-4 * 100), abs=0.01)

    def test_anonymity_at_maximum_exposure(self):
        from repro.analysis.anonymity import path_anonymity_exact

        value = path_anonymity_exact(100, 4, 5, 4.0)
        assert 0.0 < value < 1.0  # groups keep log2(g) bits per hop

    def test_traceable_rate_full_path_compromise(self):
        from repro.adversary.tracer import PathTracer

        tracer = PathTracer({0, 1, 2, 3})
        assert tracer.traceable_rate([0, 1, 2, 3]) == 1.0
