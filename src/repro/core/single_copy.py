"""Single-copy forwarding — the paper's Algorithm 1.

One copy of the message travels ``v_s → R_1 → … → R_K → v_d``. At each
contact the holder checks whether the peer belongs to the next onion group
(anycast within the group) and, if so, hands the message over and deletes
its own copy. Expired messages are discarded at forwarding time.

Fault-aware operation (``faults`` / ``recovery``): a fail-stop carrier
death loses the copy it holds, and a greyhole relay may destroy the copy
at receive time. With a :class:`~repro.faults.recovery.RecoveryPolicy` the
previous custodian retains a shadow copy for ``custody_timeout`` after
each forward; once the copy is known lost and the timeout has elapsed it
re-anycasts to a *different* member of the same onion group, at most
``max_retries`` times. Without recovery the session reports a ``dropped``
outcome immediately — no future contact can change it — so batches never
hang on a faulted message.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Optional, Set

from repro.contacts.events import ContactEvent
from repro.core.route import OnionRoute
from repro.crypto.keys import GroupKeyring
from repro.crypto.onion import Onion, build_onion
from repro.sim.message import Message
from repro.sim.metrics import DeliveryOutcome
from repro.sim.protocol import ProtocolSession


class SingleCopySession(ProtocolSession):
    """One message routed with Algorithm 1 over a contact-event stream.

    Parameters
    ----------
    message:
        The bundle (its ``source``/``destination`` must match the route).
    route:
        The onion route selected by the source.
    keyring:
        Optional routing keyring; when provided, a real layered onion is
        built and carried as the payload, exercising the crypto path
        end-to-end (each forward peels nothing — peeling happens on
        reception in :meth:`_receive_checks` to honour the layer contract).
    faults:
        Optional :class:`~repro.faults.recovery.FaultPlan` — fail-stop
        deaths and/or dropping relays this session is subject to.
    recovery:
        Optional :class:`~repro.faults.recovery.RecoveryPolicy` enabling
        custody-timeout re-anycast after a loss.
    """

    def __init__(
        self,
        message: Message,
        route: OnionRoute,
        keyring: Optional[GroupKeyring] = None,
        *,
        faults: Optional["FaultPlan"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
    ):
        if (message.source, message.destination) != (route.source, route.destination):
            raise ValueError("message endpoints do not match the route")
        self._message = message
        self._route = route
        self._holder = message.source
        self._next_hop = 1  # 1-based index of the hop about to happen
        self._targets: Set[int] = set(route.next_group_members(1))
        self._outcome = DeliveryOutcome(
            paths=[[message.source]], created_at=message.created_at
        )
        self._expired = False
        # Mutation counter for the engine's no-op fast path: bumped by every
        # branch that can change done / watched_nodes() / next_poll_time().
        self.state_version = 0
        # Immutable bounds cached off the message so the per-event hot path
        # avoids two property descriptor calls per dispatch.
        self._created_at = message.created_at
        self._expires_at = message.created_at + message.deadline

        self._faults = faults
        self._recovery = recovery
        self._dropped = False
        # Custody state: the previous holder keeps a shadow copy until the
        # timeout; ``_custody_hop`` is the hop its outstanding transfer
        # belongs to and ``_tried`` the group members already attempted.
        self._custodian: Optional[int] = None
        self._custody_hop = 0
        self._custody_deadline = math.inf
        self._tried: Set[int] = set()
        self._retries_left = recovery.max_retries if recovery is not None else 0
        # Loss state: the copy is gone; ``_survivor`` may re-anycast once
        # ``_recover_at`` passes.
        self._lost = False
        self._survivor: Optional[int] = None
        self._recover_at = math.inf

        # Watched-nodes contract: rebuilt lazily whenever custody state
        # changes so the engine's interest index stays current.
        self._watched: FrozenSet[int] = frozenset()
        self._watched_dirty = True

        self._onion: Optional[Onion] = None
        if keyring is not None:
            self._onion = build_onion(
                route_group_ids=list(route.group_ids),
                destination=message.destination,
                payload=message.payload if isinstance(message.payload, bytes) else b"",
                keyring=keyring,
            )

    # ------------------------------------------------------------------
    # session interface
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._outcome.delivered or self._expired or self._dropped

    def outcome(self) -> DeliveryOutcome:
        return self._outcome

    @property
    def route(self) -> OnionRoute:
        """The route this session is executing."""
        return self._route

    @property
    def holder(self) -> int:
        """The node currently carrying the message."""
        return self._holder

    @property
    def next_hop(self) -> int:
        """1-based index of the hop about to happen (``eta`` = final hop)."""
        return self._next_hop

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
        """The custody-recovery policy, when one is armed."""
        return self._recovery

    @property
    def onion(self) -> Optional[Onion]:
        """The layered onion carried with the message, when crypto is on."""
        return self._onion

    @property
    def retries_left(self) -> int:
        """Remaining custody-recovery retries (0 without a policy)."""
        return self._retries_left

    def watched_nodes(self) -> Optional[FrozenSet[int]]:
        """Current custodians ∪ next-group members ∪ destination.

        Under fail-stop faults the carrier can die at any instant and the
        session polls every event for the loss, so it opts back into
        broadcast dispatch; time-armed transitions (expiry, custody-timeout
        re-anycast) are covered by :meth:`next_poll_time` instead.
        """
        if self._faults is not None and self._faults.failstop is not None:
            return None  # death detection needs every event
        if self._watched_dirty:
            watched = {self._holder, self._message.destination}
            watched.update(self._targets)
            if self._custodian is not None:
                watched.add(self._custodian)
            if self._survivor is not None:
                watched.add(self._survivor)
            self._watched = frozenset(watched)
            self._watched_dirty = False
        return self._watched

    def next_poll_time(self) -> float:
        if self.done:
            return math.inf
        if self._lost:
            return min(self._expires_at, self._recover_at)
        return self._expires_at

    def on_contact(self, event: ContactEvent) -> None:
        self.on_contact_scalar(event.time, event.a, event.b)

    def on_contact_scalar(self, time: float, a: int, b: int) -> None:
        # Hot path: the engine's object loop calls this directly with the
        # event scalars, so no ContactEvent is ever allocated for the
        # overwhelmingly common no-op dispatches.
        if self._outcome.delivered or self._expired or self._dropped:
            return
        if time < self._created_at:
            return  # the bundle does not exist yet
        if time > self._expires_at:
            # "If node v_i holding m detects that the deadline of m is past,
            #  m is discarded during a forwarding process."
            self.state_version += 1
            self._expired = True
            self._outcome.expired_copies = 0 if self._lost else 1
            self._outcome.status = "expired"
            return
        if (
            not self._lost
            and self._faults is not None
            and self._faults.carrier_lost(self._holder, time)
        ):
            # The carrier died holding the copy; only a distinct custodian
            # with a shadow copy can bring the message back.
            survivor = (
                self._custodian
                if self._custodian is not None and self._custodian != self._holder
                else None
            )
            self._outcome.lost_copies += 1
            self._lose_copy(time, survivor)
        if self._lost:
            self._attempt_recovery(time)
            if self._lost or self.done:
                return
        holder = self._holder
        if a == holder:
            peer = b
        elif b == holder:
            peer = a
        else:
            return
        if peer not in self._targets:
            return
        self._forward_to(peer, time)

    def apply_transitions(
        self, times, nodes_a, nodes_b, start: int, count: int
    ) -> int:
        """Apply ``count`` precomputed state-changing contacts in one call.

        Batch counterpart of :meth:`on_contact_scalar` through which
        :class:`~repro.sim.kernel.BatchKernel` applies every backend's
        trajectories: the kernel's race search has already established
        that ``times[start:start+count]`` (with ``nodes_a``/``nodes_b``,
        plain Python scalars) are exactly this session's state-changing
        events, in order, so the per-event no-op filtering is skipped and
        the per-hop work collapses to the transition bookkeeping itself.
        Every contact is still validated against the session's own
        acceptance predicate — the holder must be an endpoint and the peer
        a member of the current target group — so a backend that mispredicts
        the race raises ``RuntimeError`` here instead of silently corrupting
        the outcome. Final state and outcome are field-for-field identical
        to dispatching the same events through :meth:`on_contact_scalar`.

        Only valid for kernel-eligible sessions (fault-free, recovery-free;
        see :meth:`~repro.sim.kernel.BatchKernel.supports`). Returns the
        number of transitions applied.
        """
        route = self._route
        outcome = self._outcome
        path = outcome.paths[0]
        transfers = outcome.transfers
        holder = self._holder
        hop = self._next_hop
        eta = route.eta
        expires = self._expires_at
        applied = 0
        forwards = 0
        for j in range(start, start + count):
            time = times[j]
            if time > expires:
                # TTL expiry — discarded at forwarding time.
                self.state_version += 1
                self._expired = True
                outcome.expired_copies = 1
                outcome.status = "expired"
                applied += 1
                break
            a = nodes_a[j]
            b = nodes_b[j]
            if a == holder:
                peer = b
            elif b == holder:
                peer = a
            else:
                raise RuntimeError(
                    "apply_transitions: holder is not an endpoint of the "
                    "dispatched contact (kernel race diverged)"
                )
            if peer not in route.next_group_members(hop):
                raise RuntimeError(
                    "apply_transitions: peer is not a member of the current "
                    "target group (kernel race diverged)"
                )
            self.state_version += 1
            outcome.transmissions += 1
            transfers.append((time, holder, peer))
            applied += 1
            forwards += 1
            if hop == eta:
                outcome.delivered = True
                outcome.delivery_time = time
                outcome.status = "delivered"
                break
            path.append(peer)
            holder = peer
            hop += 1
        if forwards:
            self._holder = holder
            self._next_hop = hop
            self._targets = set(route.next_group_members(hop))
            self._watched_dirty = True
        return applied

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _forward_to(self, peer: int, time: float) -> None:
        self.state_version += 1
        self._watched_dirty = True
        self._outcome.record_transfer(time, self._holder, peer)
        if self._next_hop == self._route.eta:
            # Final hop: the carrier met the destination (end hosts never
            # drop, so delivery always counts).
            self._outcome.delivered = True
            self._outcome.delivery_time = time
            self._outcome.status = "delivered"
            return
        if self._recovery is not None:
            if self._custody_hop != self._next_hop:
                self._custody_hop = self._next_hop
                self._tried = set()
            self._tried.add(peer)
            self._custodian = self._holder
            self._custody_deadline = time + self._recovery.custody_timeout
        if self._faults is not None and self._faults.drops_on_receive(peer):
            # Greyhole relay: the transfer happened (and cost a
            # transmission) but the copy is destroyed on arrival. The
            # sender still holds its shadow copy and may retry.
            self._outcome.lost_copies += 1
            self._lose_copy(time, self._holder)
            return
        self._holder = peer
        self._outcome.paths[0].append(peer)
        self._next_hop += 1
        self._targets = set(self._route.next_group_members(self._next_hop))

    def _lose_copy(self, time: float, survivor: Optional[int]) -> None:
        """The copy is destroyed; arm recovery or report ``dropped``."""
        self.state_version += 1
        if (
            self._recovery is None
            or survivor is None
            or self._retries_left <= 0
        ):
            self._drop()
            return
        self._watched_dirty = True
        self._lost = True
        self._survivor = survivor
        self._recover_at = max(time, self._custody_deadline)

    def _attempt_recovery(self, time: float) -> None:
        """Re-anycast from the surviving custodian once the timeout passed."""
        if time < self._recover_at:
            return
        if self._faults is not None and self._faults.carrier_lost(
            self._survivor, time
        ):
            self._drop()
            return
        remaining = set(
            self._route.next_group_members(self._custody_hop)
        ) - self._tried
        if not remaining:
            self._drop()
            return
        self.state_version += 1
        self._watched_dirty = True
        self._retries_left -= 1
        self._lost = False
        self._holder = self._survivor
        if self._next_hop != self._custody_hop:
            # The relay received the copy and then died: rewind the hop it
            # never completed (it never acted as a sender).
            self._next_hop = self._custody_hop
            path = self._outcome.paths[0]
            if path and path[-1] != self._holder:
                path.pop()
        self._targets = remaining
        self._custodian = self._holder
        self._recover_at = math.inf
        self._survivor = None

    def _drop(self) -> None:
        self.state_version += 1
        self._dropped = True
        self._outcome.status = "dropped"
