"""Tests for node churn and its availability-scaling analytical twin."""

import numpy as np
import pytest

from repro.contacts.events import ExponentialContactProcess
from repro.contacts.graph import ContactGraph
from repro.contacts.random_graph import random_contact_graph
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession
from repro.faults.churn import (
    FaultFilteredContactProcess,
    NodeChurnProcess,
    NodeChurnSchedule,
    churned_graph,
)
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.utils.rng import ensure_rng, spawn_rng
from tests.helpers import ScalarChurnOracle


@pytest.fixture
def graph():
    return ContactGraph.complete(10, 0.05)


class TestSchedule:
    def test_availability_formula(self):
        schedule = NodeChurnSchedule(5, fail_rate=1.0, repair_rate=3.0, rng=0)
        assert schedule.availability == pytest.approx(0.75)
        assert schedule.mean_cycle == pytest.approx(1.0 + 1.0 / 3.0)

    def test_never_failing_nodes(self):
        schedule = NodeChurnSchedule(5, fail_rate=0.0, repair_rate=1.0, rng=0)
        assert schedule.availability == 1.0
        for node in range(5):
            assert schedule.is_up(node, 1e6)

    def test_from_availability_round_trip(self):
        schedule = NodeChurnSchedule.from_availability(
            4, availability=0.6, mean_cycle=10.0, rng=1
        )
        assert schedule.availability == pytest.approx(0.6)
        assert schedule.mean_cycle == pytest.approx(10.0)

    def test_from_availability_rejects_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                NodeChurnSchedule.from_availability(4, bad, 10.0, rng=0)

    def test_stationary_up_fraction(self):
        schedule = NodeChurnSchedule.from_availability(
            2000, availability=0.7, mean_cycle=10.0, rng=2
        )
        up = sum(schedule.is_up(node, 0.0) for node in range(2000))
        assert up / 2000 == pytest.approx(0.7, abs=0.04)

    def test_time_averaged_up_fraction(self):
        schedule = NodeChurnSchedule.from_availability(
            1, availability=0.4, mean_cycle=5.0, rng=3
        )
        samples = [schedule.is_up(0, t) for t in np.linspace(0.0, 5000.0, 20000)]
        assert np.mean(samples) == pytest.approx(0.4, abs=0.05)

    def test_queries_need_not_be_monotone(self):
        # The timeline is drawn ahead, so a query back in time reads the
        # same timeline a forward query would.
        times = np.linspace(0.0, 200.0, 101)
        forward = NodeChurnSchedule.from_availability(3, 0.5, 10.0, rng=4)
        expected = [forward.is_up(1, t) for t in times]
        backward = NodeChurnSchedule.from_availability(3, 0.5, 10.0, rng=4)
        assert [backward.is_up(1, t) for t in times[::-1]] == expected[::-1]

    def test_node_bounds(self):
        schedule = NodeChurnSchedule.from_availability(3, 0.5, 10.0, rng=5)
        with pytest.raises(ValueError):
            schedule.is_up(3, 0.0)
        with pytest.raises(ValueError):
            schedule.is_up(-1, 0.0)

    def test_independent_of_query_order(self):
        """Spawned per-node streams: node 0's timeline ignores node 1."""
        a = NodeChurnSchedule.from_availability(2, 0.5, 10.0, rng=6)
        b = NodeChurnSchedule.from_availability(2, 0.5, 10.0, rng=6)
        times = np.linspace(0.0, 200.0, 50)
        only_zero = [a.is_up(0, t) for t in times]
        interleaved = []
        for t in times:
            b.is_up(1, t)
            interleaved.append(b.is_up(0, t))
        assert only_zero == interleaved


class TestChurnProcess:
    def test_keeps_a_squared_fraction(self, graph):
        availability = 0.7
        base = ExponentialContactProcess(graph, rng=10)
        total = len(base.events_until_columnar(3000.0))
        schedule = NodeChurnSchedule.from_availability(
            graph.n, availability, mean_cycle=5.0, rng=11
        )
        churned = NodeChurnProcess(
            ExponentialContactProcess(graph, rng=10), schedule
        )
        kept = len(churned.events_until_columnar(3000.0))
        assert kept / total == pytest.approx(availability**2, abs=0.05)

    def test_events_stay_chronological(self, graph):
        schedule = NodeChurnSchedule.from_availability(graph.n, 0.5, 5.0, rng=12)
        churned = NodeChurnProcess(
            ExponentialContactProcess(graph, rng=13), schedule
        )
        times = churned.events_until_columnar(500.0).times.tolist()
        assert times and times == sorted(times)

    def test_churn_only_batch_runs_on_the_kernels(self, graph):
        # Churn attaches no fault plan, so every session is kernel-eligible;
        # the outcomes equal the object loop's.
        from repro.core.multi_copy import MultiCopySession

        route = OnionRoute(
            source=0, destination=9, group_ids=(1, 2), groups=((1, 2, 3), (4, 5))
        )
        outcomes, modes = [], []
        for kernel in (True, False):
            engine = SimulationEngine(
                NodeChurnProcess(
                    ExponentialContactProcess(graph, rng=3),
                    NodeChurnSchedule.from_availability(graph.n, 0.6, 5.0, rng=4),
                ),
                horizon=400.0,
                kernel=kernel,
            )
            sessions = [
                SingleCopySession(Message(0, 9, 0.0, 400.0), route),
                MultiCopySession(Message(0, 9, 0.0, 400.0), route, copies=3),
            ]
            for session in sessions:
                engine.add_session(session)
            engine.run()
            outcomes.append([repr(session.outcome()) for session in sessions])
            modes.append(engine.dispatch_mode_counts)
        assert outcomes[0] == outcomes[1]
        assert modes[0] == {"kernel-single": 1, "kernel-multicopy": 1}
        assert modes[1] == {"object": 2}

    def test_requires_churn_schedule(self, graph):
        with pytest.raises(TypeError):
            NodeChurnProcess(ExponentialContactProcess(graph, rng=0), object())

    def test_generic_filter_accepts_any_schedule(self, graph):
        class AlwaysDown:
            def up_mask(self, nodes, times):
                return np.zeros(len(nodes), dtype=bool)

        filtered = FaultFilteredContactProcess(
            ExponentialContactProcess(graph, rng=0), AlwaysDown()
        )
        assert len(filtered.events_until_columnar(200.0)) == 0


def _rows(block):
    return list(zip(block.times.tolist(), block.a.tolist(), block.b.tolist()))


class TestMaskMatchesScalarOracle:
    """The churn mask equals the per-event renewal process, bit for bit.

    ``ScalarChurnOracle`` draws one duration at a time as each node's
    clock reaches its next toggle; the filter draws each node's timeline
    ahead and masks whole windows. Both read the same child streams.
    """

    HORIZONS = (0.5, 40.0, 40.0, 41.0, 300.0, 720.0)

    @staticmethod
    def _expected(window, *oracles):
        return [
            (e.time, e.a, e.b)
            for e in window
            if all(o.is_up(e.a, e.time) and o.is_up(e.b, e.time) for o in oracles)
        ]

    @pytest.mark.parametrize("availability", [0.9, 0.5, 0.1])
    @pytest.mark.parametrize("seed", range(4))
    def test_windowed_mask(self, seed, availability):
        graph = random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(seed))
        churned = NodeChurnProcess(
            ExponentialContactProcess(graph, rng=seed),
            NodeChurnSchedule.from_availability(
                graph.n, availability, 20.0, rng=np.random.default_rng(seed + 50)
            ),
        )
        inner = ExponentialContactProcess(graph, rng=seed)
        oracle = ScalarChurnOracle.from_availability(
            graph.n, availability, 20.0, np.random.default_rng(seed + 50)
        )
        kept = total = 0
        for horizon in self.HORIZONS:
            window = inner.events_until_columnar(horizon)
            got = _rows(churned.events_until_columnar(horizon))
            assert got == self._expected(window, oracle)
            kept, total = kept + len(got), total + len(window)
        assert 0 < kept < total

    @pytest.mark.parametrize("seed", range(3))
    def test_failstop_and_churn_stacked(self, seed):
        graph = random_contact_graph(30, (10.0, 120.0), rng=np.random.default_rng(seed))
        deaths = FailStopSchedule(graph.n, death_rate=0.002, rng=seed + 7)
        stacked = NodeChurnProcess(
            FailStopContactProcess(ExponentialContactProcess(graph, rng=seed), deaths),
            NodeChurnSchedule.from_availability(
                graph.n, 0.6, 15.0, rng=np.random.default_rng(seed + 50)
            ),
        )
        inner = ExponentialContactProcess(graph, rng=seed)
        oracle = ScalarChurnOracle.from_availability(
            graph.n, 0.6, 15.0, np.random.default_rng(seed + 50)
        )
        for horizon in self.HORIZONS:
            window = inner.events_until_columnar(horizon)
            assert _rows(stacked.events_until_columnar(horizon)) == self._expected(
                window, deaths, oracle
            )

    @pytest.mark.parametrize("availability", [0.9, 0.5, 0.1])
    def test_is_up_matches_oracle(self, availability):
        times = np.sort(np.random.default_rng(1).uniform(0.0, 500.0, 400))
        schedule = NodeChurnSchedule.from_availability(
            5, availability, 8.0, rng=np.random.default_rng(9)
        )
        oracle = ScalarChurnOracle.from_availability(
            5, availability, 8.0, np.random.default_rng(9)
        )
        for node in range(5):
            assert [schedule.is_up(node, t) for t in times] == [
                oracle.is_up(node, t) for t in times
            ]

    def test_toggle_instant_counts_as_toggled(self):
        # ``is_up`` at a toggle time is the state after the toggle.
        schedule = NodeChurnSchedule.from_availability(
            1, 0.5, 10.0, rng=np.random.default_rng(2)
        )
        schedule.is_up(0, 100.0)
        first = float(schedule._toggles[0][0])
        oracle = ScalarChurnOracle.from_availability(1, 0.5, 10.0, np.random.default_rng(2))
        assert schedule.is_up(0, first) == oracle.is_up(0, first)
        assert schedule.is_up(0, first) != schedule.is_up(0, np.nextafter(first, 0.0))


class TestChurnedGraph:
    def test_scalar_scaling(self, graph):
        scaled = churned_graph(graph, 0.5)
        assert scaled.rate(0, 1) == pytest.approx(0.05 * 0.25)

    def test_per_node_scaling(self, graph):
        a = np.full(graph.n, 1.0)
        a[0] = 0.5
        scaled = churned_graph(graph, a)
        assert scaled.rate(0, 1) == pytest.approx(0.05 * 0.5)
        assert scaled.rate(1, 2) == pytest.approx(0.05)

    def test_full_availability_is_identity(self, graph):
        scaled = churned_graph(graph, 1.0)
        assert np.allclose(scaled.rates, graph.rates)

    def test_rejects_bad_shapes_and_values(self, graph):
        with pytest.raises(ValueError):
            churned_graph(graph, [0.5, 0.5])
        with pytest.raises(ValueError):
            churned_graph(graph, 1.5)
        with pytest.raises(ValueError):
            churned_graph(graph, -0.1)


class TestAvailabilityScalingEquivalence:
    """The acceptance property: churn sim matches Eq. 6 on churned_graph.

    On a homogeneous complete graph with a singleton final onion group the
    Eq. 4–6 hypoexponential is exact for single-copy forwarding (a larger
    final group triggers the documented last-hop anycast optimism, which
    is a property of Eq. 4, not of churn), so the only gap left is Monte
    Carlo noise plus the fast-churn approximation.
    """

    @pytest.mark.parametrize("availability", [0.5, 0.8])
    def test_delivery_matches_model(self, availability):
        from repro.analysis.robustness import churned_delivery_rate

        n, rate, deadline, trials = 12, 0.05, 150.0, 400
        graph = ContactGraph.complete(n, rate)
        route = OnionRoute(
            source=0, destination=11, group_ids=(1, 2), groups=((1, 2, 3), (4,))
        )
        rng = ensure_rng(42)
        delivered = 0
        for child in spawn_rng(rng, trials):
            schedule = NodeChurnSchedule.from_availability(
                n, availability, mean_cycle=2.0, rng=child
            )
            events = NodeChurnProcess(
                ExponentialContactProcess(graph, rng=child), schedule
            )
            engine = SimulationEngine(events, horizon=deadline)
            session = SingleCopySession(
                Message(0, 11, 0.0, deadline), route
            )
            engine.add_session(session)
            engine.run()
            delivered += session.outcome().delivered
        model = churned_delivery_rate(
            graph, 0, route.groups, 11, deadline, availability
        )
        assert delivered / trials == pytest.approx(model, abs=0.07)
