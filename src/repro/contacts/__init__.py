"""Contact-graph substrate.

A delay tolerant network is represented by a *contact graph* (paper §III-A):
``n`` nodes, and for each pair ``(v_i, v_j)`` an exponential inter-contact
time with rate ``λ_ij`` (mean inter-contact time ``1/λ_ij``). This package
provides

* :class:`~repro.contacts.graph.ContactGraph` — the rate matrix plus helpers,
* random generators matching the paper's Table II configuration,
* trace ingestion for CRAWDAD-style contact records and rate estimation
  from a trace,
* the columnar contact-event producers the engine reads, and
* synthetic stand-ins for the Cambridge / Infocom 2005 haggle traces.
"""

from repro.contacts.events import ContactEvent, ExponentialContactProcess, TraceReplayProcess
from repro.contacts.graph import ContactGraph
from repro.contacts.intercontact import (
    estimate_rates_from_trace,
    sample_intercontact_times,
)
from repro.contacts.random_graph import random_contact_graph
from repro.contacts.synthetic import (
    cambridge_like_trace,
    infocom05_like_trace,
)
from repro.contacts.traces import ContactRecord, ContactTrace

__all__ = [
    "ContactGraph",
    "ContactEvent",
    "ExponentialContactProcess",
    "TraceReplayProcess",
    "ContactRecord",
    "ContactTrace",
    "random_contact_graph",
    "cambridge_like_trace",
    "infocom05_like_trace",
    "estimate_rates_from_trace",
    "sample_intercontact_times",
]
