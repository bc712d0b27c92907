"""Discrete-event DTN simulation.

The engine replays a chronological stream of contact events — sampled from
exponential pairwise clocks or replayed from a trace — and hands each event
to the registered protocol sessions. The paper's modelling assumptions are
baked in: every contact is a full-transfer opportunity in both directions,
and message deadlines are enforced at forwarding time.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.message import Message
from repro.sim.metrics import (
    DeliveryOutcome,
    SummaryStats,
    status_counts,
    summarize,
)
from repro.sim.protocol import ProtocolSession
from repro.sim.workload import PoissonWorkload

__all__ = [
    "SimulationEngine",
    "Message",
    "ProtocolSession",
    "DeliveryOutcome",
    "SummaryStats",
    "summarize",
    "status_counts",
    "PoissonWorkload",
]
