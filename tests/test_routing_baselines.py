"""Tests for the non-anonymous DTN routing baselines."""

from repro.routing.direct import DirectDeliverySession
from repro.routing.epidemic import EpidemicSession
from repro.routing.spray_and_wait import SprayAndWaitSession
from repro.sim.message import Message

from tests.helpers import feed


def _message(deadline=100.0, source=0, destination=9):
    return Message(
        source=source, destination=destination, created_at=0.0, deadline=deadline
    )


class TestDirectDelivery:
    def test_delivers_only_on_endpoint_contact(self):
        session = DirectDeliverySession(_message())
        feed(session, [(1.0, 0, 3), (2.0, 3, 9)])
        assert not session.outcome().delivered
        feed(session, [(3.0, 0, 9)])
        outcome = session.outcome()
        assert outcome.delivered
        assert outcome.transmissions == 1

    def test_deadline(self):
        session = DirectDeliverySession(_message(deadline=5.0))
        feed(session, [(6.0, 0, 9)])
        assert not session.outcome().delivered


class TestEpidemic:
    def test_floods_every_contact(self):
        session = EpidemicSession(_message())
        feed(session, [(1.0, 0, 1), (2.0, 1, 2), (3.0, 0, 3)])
        assert session.infected == 4
        assert session.outcome().transmissions == 3

    def test_no_reinfection(self):
        session = EpidemicSession(_message())
        feed(session, [(1.0, 0, 1), (2.0, 0, 1), (3.0, 1, 0)])
        assert session.outcome().transmissions == 1

    def test_delivers_via_any_carrier(self):
        session = EpidemicSession(_message())
        feed(session, [(1.0, 0, 1), (2.0, 1, 9)])
        outcome = session.outcome()
        assert outcome.delivered
        assert outcome.delivery_time == 2.0

    def test_stops_at_delivery_by_default(self):
        session = EpidemicSession(_message())
        feed(session, [(1.0, 0, 9), (2.0, 0, 1)])
        assert session.outcome().transmissions == 1

    def test_cost_counting_mode_keeps_flooding(self):
        session = EpidemicSession(_message(), count_cost_after_delivery=True)
        feed(session, [(1.0, 0, 9), (2.0, 0, 1)])
        assert session.outcome().transmissions == 2


class TestSprayAndWait:
    def test_source_spray_then_wait(self):
        session = SprayAndWaitSession(_message(), copies=2)
        feed(session, [(1.0, 0, 1), (2.0, 1, 2)])
        # node 1 has a single ticket: it waits, never re-sprays
        assert session.carriers == 2
        feed(session, [(3.0, 1, 9)])
        assert session.outcome().delivered

    def test_cost_bounded_by_2l(self):
        copies = 4
        session = SprayAndWaitSession(_message(), copies=copies)
        feed(
            session,
            [(float(t), 0, t) for t in range(1, 6)] + [(10.0, 1, 9)],
        )
        assert session.outcome().transmissions <= 2 * copies

    def test_binary_spray_spreads_tickets(self):
        session = SprayAndWaitSession(_message(), copies=4, binary=True)
        feed(session, [(1.0, 0, 1)])  # node 1 takes 2 tickets
        feed(session, [(2.0, 1, 2)])  # node 1 can spray again
        assert session.carriers == 3

    def test_direct_contact_delivers_immediately(self):
        session = SprayAndWaitSession(_message(), copies=3)
        feed(session, [(1.0, 0, 9)])
        assert session.outcome().delivered
