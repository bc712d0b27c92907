"""Fault injection: node churn, fail-stop crashes, adversarial dropping.

The paper's models (Eq. 4–7) assume every node is always up and every relay
forwards honestly. Real DTNs violate both: carriers power-cycle, crash, and
— in the threat model of practical onion routing — compromised relays drop
the bundles they are asked to carry. This package injects those faults into
the simulation as filters over the contact stream, and every fault process
ships with an analytical counterpart, so the Eq. 4–7 predictions stay exact
(or exact-in-the-limit) under faults and tests can verify the equivalence.

* :mod:`repro.faults.churn` — per-node on/off renewal processes; contacts
  involving a down node are suppressed. Counterpart:
  :func:`~repro.faults.churn.churned_graph` scales each edge rate by the
  product of both endpoints' stationary availabilities.
* :mod:`repro.faults.failstop` — permanent node death; a dead carrier
  strands (and, protocol-side, loses) the copies it holds.
* :mod:`repro.faults.recovery` — the session-facing fault plan plus the
  custody-timeout recovery policy the protocols use to survive losses.

Adversarial *behaviour* (greyhole/blackhole relays) lives with the other
threat models in :mod:`repro.adversary.dropping` and is re-exported here;
the matching delivery models live in :mod:`repro.analysis.robustness`.
"""

from repro.adversary.dropping import DroppingRelays
from repro.faults.churn import (
    FaultFilteredContactProcess,
    NodeChurnProcess,
    NodeChurnSchedule,
    churned_graph,
)
from repro.faults.failstop import FailStopContactProcess, FailStopSchedule
from repro.faults.recovery import FaultPlan, RecoveryPolicy

__all__ = [
    "NodeChurnSchedule",
    "NodeChurnProcess",
    "churned_graph",
    "FailStopSchedule",
    "FailStopContactProcess",
    "FaultFilteredContactProcess",
    "DroppingRelays",
    "FaultPlan",
    "RecoveryPolicy",
]
