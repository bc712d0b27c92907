"""Non-anonymous DTN routing baselines.

These are the carry-and-forward schemes the paper compares against (§V,
§VI-A): direct delivery, epidemic flooding and spray-and-wait. They serve
as the non-anonymous cost baseline of Fig. 11, as ``onion-dtn simulate``
protocols, and as independent validation of the simulation engine (e.g.
epidemic routing dominates every other scheme's delivery rate by
construction).
"""

from repro.routing.direct import DirectDeliverySession
from repro.routing.epidemic import EpidemicSession
from repro.routing.spray_and_wait import SprayAndWaitSession

__all__ = [
    "DirectDeliverySession",
    "EpidemicSession",
    "SprayAndWaitSession",
]
