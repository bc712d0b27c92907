"""The paper's contribution: abstract onion-based anonymous routing for DTNs.

* :mod:`~repro.core.onion_groups` — partitioning nodes into onion groups and
  selecting routes (§III-A).
* :mod:`~repro.core.route` — the :class:`OnionRoute` value object.
* :mod:`~repro.core.single_copy` — Algorithm 1 (single-copy forwarding).
* :mod:`~repro.core.multi_copy` — Algorithm 2 (ticket-based multi-copy).
* :mod:`~repro.core.arden` — the ARDEN-style variant the paper simulates,
  with a destination onion group on the last hop.
"""

from repro.core.arden import ArdenSingleCopySession
from repro.core.multi_copy import MultiCopySession, SprayPolicy
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route_selection import (
    DiverseSelector,
    RateAwareSelector,
    UniformSelector,
)
from repro.core.route import OnionRoute
from repro.core.single_copy import SingleCopySession

__all__ = [
    "OnionGroupDirectory",
    "UniformSelector",
    "RateAwareSelector",
    "DiverseSelector",
    "OnionRoute",
    "SingleCopySession",
    "MultiCopySession",
    "SprayPolicy",
    "ArdenSingleCopySession",
]
