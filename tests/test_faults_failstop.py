"""Tests for permanent fail-stop crashes."""

import math

import numpy as np
import pytest

from repro.contacts.events import ExponentialContactProcess
from repro.contacts.graph import ContactGraph
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule


@pytest.fixture
def graph():
    return ContactGraph.complete(8, 0.05)


class TestSchedule:
    def test_explicit_deaths(self):
        schedule = FailStopSchedule(4, deaths={1: 10.0, 3: 25.0})
        assert schedule.death_time(0) == math.inf
        assert schedule.death_time(1) == 10.0
        assert not schedule.is_dead(1, 9.9)
        assert schedule.is_dead(1, 10.0)
        assert schedule.is_up(1, 9.9)
        assert not schedule.is_up(1, 10.0)

    def test_sampled_deaths_are_per_node_draws(self):
        # One exponential per node, in node order, from the given stream.
        generator = np.random.default_rng(3)
        expected = [generator.exponential(1.0 / 0.02) for _ in range(50)]
        schedule = FailStopSchedule(50, death_rate=0.02, rng=3)
        assert [schedule.death_time(node) for node in range(50)] == expected

    def test_sampled_deaths_mean(self):
        schedule = FailStopSchedule(4000, death_rate=0.01, rng=0)
        times = [schedule.death_time(node) for node in range(4000)]
        assert sum(times) / len(times) == pytest.approx(100.0, rel=0.1)

    def test_survivors(self):
        schedule = FailStopSchedule(4, deaths={1: 10.0, 3: 25.0})
        assert schedule.survivors(5.0) == 4
        assert schedule.survivors(15.0) == 3
        assert schedule.survivors(30.0) == 2

    def test_exactly_one_spec_required(self):
        with pytest.raises(ValueError):
            FailStopSchedule(4)
        with pytest.raises(ValueError):
            FailStopSchedule(4, death_rate=0.1, deaths={0: 1.0})

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            FailStopSchedule(4, deaths={7: 1.0})
        schedule = FailStopSchedule(4, deaths={})
        with pytest.raises(ValueError):
            schedule.death_time(9)


class TestProcess:
    def test_dead_nodes_lose_their_contacts(self, graph):
        schedule = FailStopSchedule(graph.n, deaths={0: 100.0})
        events = FailStopContactProcess(
            ExponentialContactProcess(graph, rng=1), schedule
        )
        for event in events.events_until_columnar(1000.0):
            if event.time >= 100.0:
                assert 0 not in (event.a, event.b)

    def test_no_deaths_is_identity(self, graph):
        base = list(ExponentialContactProcess(graph, rng=2).events_until_columnar(300.0))
        filtered = list(
            FailStopContactProcess(
                ExponentialContactProcess(graph, rng=2),
                FailStopSchedule(graph.n, deaths={}),
            ).events_until_columnar(300.0)
        )
        assert base == filtered

    @pytest.mark.parametrize("seed", range(4))
    def test_mask_matches_scalar_deaths(self, graph, seed):
        # Windowed reads keep exactly the contacts whose endpoints are
        # both alive by the scalar ``is_up``, bit for bit.
        schedule = FailStopSchedule(graph.n, death_rate=0.004, rng=seed)
        filtered = FailStopContactProcess(
            ExponentialContactProcess(graph, rng=seed + 10), schedule
        )
        inner = ExponentialContactProcess(graph, rng=seed + 10)
        for horizon in (50.0, 51.0, 300.0, 900.0):
            window = inner.events_until_columnar(horizon)
            expected = [
                (e.time, e.a, e.b)
                for e in window
                if schedule.is_up(e.a, e.time) and schedule.is_up(e.b, e.time)
            ]
            got = filtered.events_until_columnar(horizon)
            assert list(zip(got.times.tolist(), got.a.tolist(), got.b.tolist())) == expected
        assert schedule.survivors(900.0) < graph.n  # the deaths bit
