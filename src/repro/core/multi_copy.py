"""Multi-copy forwarding — the paper's Algorithm 2.

Up to ``L`` copies of the message circulate, regulated by tickets. The
source sprays copies into the first onion group (one per qualifying
contact, to members that do not already hold the message — the paper's
``Forward()`` predicate); each sprayed copy then relays single-copy style
through the remaining groups. The first copy to reach the destination
delivers the message; remaining copies keep consuming transmissions until
they terminate, which is what the paper's cost figure measures.

Fault-aware operation (``faults`` / ``recovery``): greyhole relays destroy
copies at receive time and fail-stop deaths destroy every copy the dead
carrier held. With a :class:`~repro.faults.recovery.RecoveryPolicy` the
tickets of a lost copy are *reclaimed* by the source copy (bounded by
``max_retries`` reclamations) and re-sprayed at future contacts; without
one the loss is final, and a session whose copies are all gone reports a
``dropped`` outcome instead of hanging until the horizon.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.contacts.events import ContactEvent
from repro.core.route import OnionRoute
from repro.sim.message import Message
from repro.sim.metrics import DeliveryOutcome
from repro.sim.protocol import ProtocolSession
from repro.utils.validation import check_positive_int


class SprayPolicy(str, enum.Enum):
    """How tickets split on a transfer.

    ``SOURCE`` is the paper's scheme ("we augment ARDEN with the source
    spray-and-wait"): the source hands single-ticket copies out one contact
    at a time. ``BINARY`` halves the ticket pool on every transfer (the
    classic binary spray-and-wait), kept as an ablation.
    """

    SOURCE = "source"
    BINARY = "binary"


@dataclass
class _Copy:
    """One circulating replica of the message."""

    copy_id: int
    holder: int
    next_hop: int
    tickets: int
    senders: List[int] = field(default_factory=list)
    terminated: bool = False


class MultiCopySession(ProtocolSession):
    """One message routed with Algorithm 2 over a contact-event stream."""

    def __init__(
        self,
        message: Message,
        route: OnionRoute,
        copies: int,
        spray_policy: SprayPolicy = SprayPolicy.SOURCE,
        *,
        faults: Optional["FaultPlan"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
    ):
        if (message.source, message.destination) != (route.source, route.destination):
            raise ValueError("message endpoints do not match the route")
        check_positive_int(copies, "copies")
        self._message = message
        self._route = route
        self._max_copies = copies
        self._policy = SprayPolicy(spray_policy)
        self._copy_ids = itertools.count(1)

        self._faults = faults
        self._recovery = recovery
        self._reclaims_left = recovery.max_retries if recovery is not None else 0

        seed = _Copy(
            copy_id=next(self._copy_ids),
            holder=message.source,
            next_hop=1,
            tickets=copies,
            senders=[message.source],
        )
        self._copies: List[_Copy] = [seed]
        self._holding: Set[int] = {message.source}
        self._outcome = DeliveryOutcome(
            paths=[seed.senders], created_at=message.created_at
        )
        self._expired = False
        # Mutation counter for the engine's no-op fast path and the batch
        # kernel's copy-mirror resync: bumped by every branch that can
        # change done / watched_nodes() / next_poll_time() or move a copy.
        self.state_version = 0
        # Immutable bounds cached off the message so the per-event hot path
        # avoids property descriptor calls per dispatch.
        self._created_at = message.created_at
        self._expires_at = message.created_at + message.deadline
        # Watched-nodes contract: rebuilt lazily after sprays/relays so the
        # engine's interest index follows every live copy.
        self._watched: FrozenSet[int] = frozenset()
        self._watched_dirty = True

    # ------------------------------------------------------------------
    # session interface
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        if self._expired:
            return True
        return all(copy.terminated for copy in self._copies)

    def outcome(self) -> DeliveryOutcome:
        return self._outcome

    @property
    def route(self) -> OnionRoute:
        """The route this session is executing."""
        return self._route

    @property
    def live_copies(self) -> int:
        """Number of replicas still circulating."""
        return sum(1 for copy in self._copies if not copy.terminated)

    @property
    def reclaims_left(self) -> int:
        """Remaining ticket reclamations (0 without a recovery policy)."""
        return self._reclaims_left

    @property
    def created_at(self) -> float:
        """When the bundle came into existence."""
        return self._created_at

    @property
    def expires_at(self) -> float:
        """Deadline after which the bundle is discarded at forwarding time."""
        return self._expires_at

    @property
    def faults(self) -> Optional["FaultPlan"]:
        """The fault plan this session is subject to (``None`` = fault-free)."""
        return self._faults

    @property
    def recovery(self) -> Optional["RecoveryPolicy"]:
        """The ticket-reclamation policy, when one is armed."""
        return self._recovery

    @property
    def spray_policy(self) -> SprayPolicy:
        """How tickets split on a transfer."""
        return self._policy

    def copy_states(self) -> Tuple[Tuple[int, int], ...]:
        """``(holder, next_hop)`` of every live copy, in spawn order.

        The batch kernel mirrors this to race each copy's anycast group;
        the tuple is rebuilt from scratch so callers can cache it against
        :attr:`state_version`.
        """
        return tuple(
            (copy.holder, copy.next_hop)
            for copy in self._copies
            if not copy.terminated
        )

    def watched_nodes(self) -> Optional[FrozenSet[int]]:
        """Copy holders ∪ their next-group members ∪ destination.

        Under fail-stop faults dead carriers are collected on every event,
        so the session opts back into broadcast dispatch; message expiry is
        covered by :meth:`next_poll_time`.
        """
        if self._faults is not None and self._faults.failstop is not None:
            return None  # dead-carrier collection needs every event
        if self._watched_dirty:
            watched = {self._message.destination}
            for copy in self._copies:
                if copy.terminated:
                    continue
                watched.add(copy.holder)
                watched.update(self._route.next_group_members(copy.next_hop))
            self._watched = frozenset(watched)
            self._watched_dirty = False
        return self._watched

    def next_poll_time(self) -> float:
        return math.inf if self.done else self._message.expires_at

    def on_contact(self, event: ContactEvent) -> None:
        self.on_contact_scalar(event.time, event.a, event.b)

    def on_contact_scalar(self, time: float, a: int, b: int) -> None:
        # Hot path: the engine's object loop and the multi-copy batch
        # kernel call this directly with event scalars, so no ContactEvent
        # is allocated for the overwhelmingly common no-op dispatches.
        if self.done:
            return
        if time < self._created_at:
            return  # the bundle does not exist yet
        if time > self._expires_at:
            self._expire()
            return
        if self._faults is not None and self._faults.failstop is not None:
            self._collect_dead_carriers(time)
            if self.done:
                return
        holding = self._holding
        if a not in holding and b not in holding:
            return  # fast path: neither side carries a copy
        # A contact may trigger at most one transfer per copy; iterate over a
        # snapshot because spraying appends new copies.
        for copy in list(self._copies):
            if copy.terminated:
                continue
            if copy.holder == a:
                peer = b
            elif copy.holder == b:
                peer = a
            else:
                continue
            self._try_forward(copy, peer, time)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _expire(self) -> None:
        self.state_version += 1
        self._expired = True
        self._outcome.expired_copies = sum(
            1 for copy in self._copies if not copy.terminated
        )
        for copy in self._copies:
            copy.terminated = True
        if not self._outcome.delivered:
            self._outcome.status = "expired"

    def _targets_for(self, copy: _Copy) -> tuple[int, ...]:
        return self._route.next_group_members(copy.next_hop)

    def _try_forward(self, copy: _Copy, peer: int, time: float) -> None:
        if peer not in self._targets_for(copy):
            return
        if copy.next_hop == self._route.eta:
            # Final hop: destination reached (end hosts never drop).
            self._outcome.record_transfer(time, copy.holder, peer)
            if not self._outcome.delivered:
                self._outcome.delivered = True
                self._outcome.delivery_time = time
                self._outcome.status = "delivered"
                # Surface the winning path first for delivered_path
                # (identity lookup: distinct copies may hold equal chains).
                index = next(
                    i
                    for i, path in enumerate(self._outcome.paths)
                    if path is copy.senders
                )
                self._outcome.paths.insert(0, self._outcome.paths.pop(index))
            self._terminate(copy)
            return
        if peer in self._holding:
            # Forward() is false: the peer already has the message.
            return
        if copy.tickets > 1:
            self._spray(copy, peer, time)
        else:
            self._relay(copy, peer, time)

    def _spray(self, copy: _Copy, peer: int, time: float) -> None:
        """Hand some tickets to ``peer`` as a new replica."""
        self.state_version += 1
        self._watched_dirty = True
        if self._policy is SprayPolicy.SOURCE:
            handed = 1
        else:  # BINARY: peer takes half, rounded down, at least one
            handed = max(copy.tickets // 2, 1)
        self._outcome.record_transfer(time, copy.holder, peer)
        copy.tickets -= handed
        if self._faults is not None and self._faults.drops_on_receive(peer):
            # Stillborn replica: the greyhole ate it on arrival. The peer
            # never joins the holding set, so a later retry may target it
            # again — matching the per-received-copy drop semantics.
            self._copy_lost(handed, time)
        else:
            spawned = _Copy(
                copy_id=next(self._copy_ids),
                holder=peer,
                next_hop=copy.next_hop + 1,
                tickets=handed,
                senders=copy.senders + [peer],
            )
            self._copies.append(spawned)
            self._outcome.paths.append(spawned.senders)
            self._holding.add(peer)
        if copy.tickets == 0:
            # "if L = 0 then v_i deletes m from its buffer."
            self._terminate(copy)

    def _relay(self, copy: _Copy, peer: int, time: float) -> None:
        """Single-ticket forwarding: the copy moves, the old holder deletes."""
        self.state_version += 1
        self._watched_dirty = True
        self._outcome.record_transfer(time, copy.holder, peer)
        self._holding.discard(copy.holder)
        if self._faults is not None and self._faults.drops_on_receive(peer):
            tickets = copy.tickets
            copy.tickets = 0  # the reclaim must not double-count them
            self._terminate(copy)
            self._copy_lost(tickets, time)
            return
        self._holding.add(peer)
        copy.holder = peer
        copy.senders.append(peer)
        copy.next_hop += 1

    def _collect_dead_carriers(self, time: float) -> None:
        """Fail-stop: a dead carrier loses every copy it held."""
        for copy in self._copies:
            if copy.terminated:
                continue
            if self._faults.carrier_lost(copy.holder, time):
                tickets = copy.tickets
                copy.tickets = 0  # the reclaim must not double-count them
                self._terminate(copy)
                self._copy_lost(tickets, time)

    def _copy_lost(self, tickets: int, time: float) -> None:
        """Account a destroyed copy; reclaim its tickets when possible."""
        self._outcome.lost_copies += 1
        if (
            self._recovery is None
            or self._reclaims_left <= 0
            or self._outcome.delivered
        ):
            self._mark_dropped_if_dead()
            return
        seed = self._copies[0]
        if self._faults is not None and self._faults.carrier_lost(
            seed.holder, time
        ):
            # The reclamation target itself is gone.
            self._mark_dropped_if_dead()
            return
        self._reclaims_left -= 1
        seed.tickets += tickets
        if seed.terminated:
            # Revive an exhausted source copy so it can re-spray.
            self.state_version += 1
            self._watched_dirty = True
            seed.terminated = False
            self._holding.add(seed.holder)
        if self._outcome.status == "dropped":
            # A just-terminated copy marked the session dropped before the
            # reclamation went through; the revived seed keeps it alive.
            self._outcome.status = "pending"

    def _terminate(self, copy: _Copy) -> None:
        self.state_version += 1
        self._watched_dirty = True
        copy.terminated = True
        self._holding.discard(copy.holder)
        self._mark_dropped_if_dead()

    def _mark_dropped_if_dead(self) -> None:
        """Every copy destroyed without delivery or expiry → ``dropped``."""
        if (
            not self._outcome.delivered
            and not self._expired
            and self._outcome.lost_copies > 0
            and all(copy.terminated for copy in self._copies)
        ):
            self._outcome.status = "dropped"
