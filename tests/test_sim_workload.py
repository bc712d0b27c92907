"""Tests for the Poisson multi-message arrival generator."""

import pytest

from repro.sim.workload import PoissonWorkload
from repro.utils.rng import ensure_rng


class TestMessageGeneration:
    def test_arrival_count_matches_rate(self):
        workload = PoissonWorkload(
            arrival_rate=0.5, message_deadline=10.0, duration=2000.0
        )
        messages = workload.generate_messages(30, ensure_rng(0))
        assert len(messages) == pytest.approx(1000, rel=0.15)

    def test_arrivals_ordered_and_within_window(self):
        workload = PoissonWorkload(
            arrival_rate=0.2, message_deadline=10.0, duration=500.0
        )
        messages = workload.generate_messages(30, ensure_rng(1))
        times = [m.created_at for m in messages]
        assert times == sorted(times)
        assert max(times) <= 500.0

    def test_endpoints_distinct(self):
        workload = PoissonWorkload(
            arrival_rate=0.2, message_deadline=10.0, duration=500.0
        )
        for message in workload.generate_messages(30, ensure_rng(2)):
            assert message.source != message.destination

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoissonWorkload(arrival_rate=0.0, message_deadline=10.0, duration=1.0)
        with pytest.raises(ValueError):
            PoissonWorkload(arrival_rate=1.0, message_deadline=0.0, duration=1.0)

