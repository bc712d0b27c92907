"""Route-selection strategies beyond uniform random groups.

The paper's abstract protocol "selects K onion groups" uniformly. That
leaves delivery performance on the table when the contact graph is
heterogeneous: a route through sluggish groups dominates the delay. Two
additional strategies are provided (and compared in
``benchmarks/test_ablation_route_selection.py``):

* :class:`RateAwareSelector` — samples several candidate routes and keeps
  the one whose modelled delivery probability (Eq. 6) at a reference
  deadline is highest. Pure optimisation, no anonymity cost against the
  compromise adversary (groups are still sizeable sets), though a global
  observer correlating *route popularity* would gain: hence the candidate
  count caps the bias.
* :class:`DiverseSelector` — round-robin pressure away from recently used
  groups, spreading traffic so no group becomes a hotspot (hotspots both
  congest and concentrate compromise value).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.analysis.delivery import delivery_rate
from repro.contacts.graph import ContactGraph
from repro.core.onion_groups import OnionGroupDirectory
from repro.core.route import OnionRoute
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive, check_positive_int


class UniformSelector:
    """The paper's baseline: uniformly random distinct groups."""

    def __init__(self, directory: OnionGroupDirectory, rng: RandomSource = None):
        self._directory = directory
        self._rng = ensure_rng(rng)

    def select(self, source: int, destination: int, onion_routers: int) -> OnionRoute:
        """Pick a route for one message."""
        return self._directory.select_route(
            source, destination, onion_routers, rng=self._rng
        )


class RateAwareSelector:
    """Best-of-``candidates`` route by modelled delivery probability.

    Evaluates Eq. 6 at ``reference_deadline`` for each candidate and keeps
    the argmax. ``candidates=1`` degenerates to the uniform baseline.
    """

    def __init__(
        self,
        directory: OnionGroupDirectory,
        graph: ContactGraph,
        reference_deadline: float,
        candidates: int = 8,
        rng: RandomSource = None,
    ):
        check_positive(reference_deadline, "reference_deadline")
        check_positive_int(candidates, "candidates")
        self._directory = directory
        self._graph = graph
        self._deadline = reference_deadline
        self._candidates = candidates
        self._rng = ensure_rng(rng)

    def select(self, source: int, destination: int, onion_routers: int) -> OnionRoute:
        """Pick the best-modelled route among sampled candidates."""
        best_route: Optional[OnionRoute] = None
        best_score = -1.0
        for _ in range(self._candidates):
            route = self._directory.select_route(
                source, destination, onion_routers, rng=self._rng
            )
            try:
                score = delivery_rate(
                    self._graph, source, route.groups, destination, self._deadline
                )
            except ValueError:
                score = 0.0  # unreachable hop
            if score > best_score:
                best_route, best_score = route, score
        assert best_route is not None  # candidates >= 1
        return best_route


class DiverseSelector:
    """Avoid groups used by the last ``memory`` routes when possible.

    Keeps a sliding window of recently used group ids; candidate routes
    that reuse them are resampled (up to ``attempts`` times) before
    accepting whatever comes, so feasibility is never sacrificed.
    """

    def __init__(
        self,
        directory: OnionGroupDirectory,
        memory: int = 8,
        attempts: int = 10,
        rng: RandomSource = None,
    ):
        check_positive_int(memory, "memory")
        check_positive_int(attempts, "attempts")
        self._directory = directory
        self._recent: Deque[int] = deque(maxlen=memory)
        self._attempts = attempts
        self._rng = ensure_rng(rng)

    @property
    def recently_used(self) -> Set[int]:
        """Group ids the selector is currently steering away from."""
        return set(self._recent)

    def select(self, source: int, destination: int, onion_routers: int) -> OnionRoute:
        """Pick a route avoiding recently used groups when feasible."""
        fallback: Optional[OnionRoute] = None
        for _ in range(self._attempts):
            route = self._directory.select_route(
                source, destination, onion_routers, rng=self._rng
            )
            fallback = route
            if not (set(route.group_ids) & self.recently_used):
                break
        assert fallback is not None
        for group_id in fallback.group_ids:
            self._recent.append(group_id)
        return fallback
