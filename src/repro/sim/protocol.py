"""The protocol-session interface the engine drives."""

from __future__ import annotations

import abc
import math
from typing import FrozenSet, Optional

from repro.contacts.events import ContactEvent
from repro.sim.metrics import DeliveryOutcome


class ProtocolSession(abc.ABC):
    """One message's journey under one routing protocol.

    The engine calls :meth:`on_contact` for every contact event in time
    order; the session mutates its internal carrier state and reports the
    final :class:`~repro.sim.metrics.DeliveryOutcome`. Sessions should set
    :attr:`done` as soon as no future contact can change the outcome so the
    engine can stop early.

    Sessions may additionally implement the *watched-nodes contract*
    (:meth:`watched_nodes` / :meth:`next_poll_time`) so the engine's indexed
    dispatch can skip events that provably cannot change their state. The
    contract is an optimisation only: a session that keeps the defaults is
    dispatched every event (broadcast fallback) and behaves identically.
    """

    #: Optional mutation counter backing the engine's no-op fast path.
    #:
    #: A session that maintains this sets it to ``0`` in ``__init__`` and
    #: increments it on *every* state change that could alter :attr:`done`,
    #: :meth:`watched_nodes`, or :meth:`next_poll_time` (spurious increments
    #: are harmless; a missed one breaks indexed dispatch). When the value
    #: is unchanged across a dispatch the engine may skip re-reading the
    #: whole contract for that event. ``None`` (the default) opts out.
    state_version: Optional[int] = None

    @abc.abstractmethod
    def on_contact(self, event: ContactEvent) -> None:
        """React to a contact between ``event.a`` and ``event.b``."""

    def on_contact_scalar(self, time: float, a: int, b: int) -> None:
        """Scalar-argument twin of :meth:`on_contact`.

        The engine's object loop iterates ``(time, a, b)`` triples and
        prefers this hook: a session that overrides it is dispatched
        without a :class:`ContactEvent` ever being allocated.
        The default wraps the scalars and delegates, so overriding either
        method alone keeps both entry points behaviourally identical —
        overriders must preserve that equivalence.
        """
        self.on_contact(ContactEvent(time=time, a=a, b=b))

    @property
    @abc.abstractmethod
    def done(self) -> bool:
        """Whether the session's outcome can no longer change."""

    @abc.abstractmethod
    def outcome(self) -> DeliveryOutcome:
        """The (possibly still-evolving) delivery outcome."""

    # ------------------------------------------------------------------
    # watched-nodes contract (optional; default = broadcast)
    # ------------------------------------------------------------------

    def watched_nodes(self) -> Optional[FrozenSet[int]]:
        """Nodes whose contacts could change this session's state.

        Indexed dispatch only delivers events involving a watched node (or
        events at/after :meth:`next_poll_time`). The contract a session must
        uphold: *every event that is neither involving a watched node nor due
        per* :meth:`next_poll_time` *would be a no-op for* :meth:`on_contact`.
        The set must be kept current as custody moves (the engine re-reads it
        after every dispatched event).

        Return ``None`` (the default) to opt out: the session is then
        dispatched every event, exactly like the pre-index engine.
        """
        return None

    def next_poll_time(self) -> float:
        """Earliest time the session must be polled regardless of nodes.

        Lets time-armed state changes (message expiry, custody-timeout
        re-anycast) fire at the same event they would under broadcast
        dispatch: the engine dispatches the first event whose time is
        ``>= next_poll_time()`` to the session even when the event involves
        no watched node. Return ``math.inf`` (the default) when no such
        deadline is armed.
        """
        return math.inf
