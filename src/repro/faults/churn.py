"""Node churn: per-node on/off renewal processes over the contact stream.

Each node alternates independent exponential *up* periods (mean
``1/fail_rate``) and *down* periods (mean ``1/repair_rate``); a contact is
usable only while **both** endpoints are up. At a random time the
probability a node is up is its stationary availability

    ``a = repair_rate / (fail_rate + repair_rate)``.

Contacts of pair ``(i, j)`` form a Poisson process, and the up-indicator of
the pair at contact instants has mean ``a_i · a_j``, so churn thins the
pair process by ``a_i · a_j`` on average. When the churn cycle is short
relative to inter-contact times the indicators at successive contacts
decorrelate and the suppressed stream is statistically indistinguishable
from independent thinning — which, by the Poisson thinning property, is a
rate rescaling. :func:`churned_graph` applies exactly that rescaling, so
the Eq. 4–7 models evaluated on it predict what the protocol experiences
on a :class:`NodeChurnProcess` (exact in the fast-churn limit; the tests
verify the match at Monte Carlo tolerance).
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.contacts.events import EventBlock
from repro.contacts.graph import ContactGraph
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


class NodeChurnSchedule:
    """Per-node alternating-renewal up/down timelines.

    Each node gets an independent child RNG stream (SeedSequence spawning),
    so a node's timeline does not depend on which other nodes are queried.
    Nodes start in the stationary regime: up with probability
    :attr:`availability`.

    A node's timeline is its initial state plus its toggle times, the
    running sums of alternating up and down durations drawn from the
    node's own stream. It is drawn ahead, one vectorised draw per node at
    a time, as far as queries reach; a node is up at ``t`` iff its
    initial state, flipped once per toggle at or before ``t``, is up.
    Queries may come in any time order.

    Parameters
    ----------
    n:
        Network size.
    fail_rate:
        Rate of going down while up (``1 / mean uptime``). Zero means the
        node never fails.
    repair_rate:
        Rate of coming back while down (``1 / mean downtime``).
    """

    def __init__(
        self,
        n: int,
        fail_rate: float,
        repair_rate: float,
        rng: RandomSource = None,
    ):
        check_positive_int(n, "n")
        check_non_negative(fail_rate, "fail_rate")
        check_positive(repair_rate, "repair_rate")
        self._n = n
        self._fail_rate = float(fail_rate)
        self._repair_rate = float(repair_rate)
        base = ensure_rng(rng)
        seed_seq = base.bit_generator.seed_seq
        if seed_seq is None:  # pragma: no cover - generators always carry one
            raise ValueError("generator has no seed sequence to spawn from")
        self._rngs = [np.random.default_rng(child) for child in seed_seq.spawn(n)]
        availability = self.availability
        self._up = np.array(
            [generator.random() < availability for generator in self._rngs]
        )
        self._toggles = [np.empty(0)] * n
        # Every timeline is drawn past this time; never-failing nodes have
        # no toggles at all.
        self._covered = math.inf if self._fail_rate == 0.0 else 0.0

    @property
    def n(self) -> int:
        """Network size."""
        return self._n

    @property
    def availability(self) -> float:
        """Stationary probability that a node is up."""
        if self._fail_rate == 0.0:
            return 1.0
        return self._repair_rate / (self._fail_rate + self._repair_rate)

    @property
    def mean_cycle(self) -> float:
        """Mean up + down cycle length; ``inf`` when nodes never fail."""
        if self._fail_rate == 0.0:
            return math.inf
        return 1.0 / self._fail_rate + 1.0 / self._repair_rate

    def _cover(self, time: float) -> None:
        """Draw every node's toggles until its timeline passes ``time``.

        Duration ``k`` of a node is an up period iff ``k`` is even and the
        node started up, or odd and it started down. Each is its scale
        times a unit exponential, the exact float product
        ``exponential(scale)`` computes, and the toggle times are their
        running sums, so the timeline is bit-identical to drawing one
        duration per toggle as the node's clock reaches it.
        """
        if time < self._covered:
            return
        for node, generator in enumerate(self._rngs):
            toggles = self._toggles[node]
            while not len(toggles) or toggles[-1] <= time:
                start = toggles[-1] if len(toggles) else 0.0
                count = 16 + int(2.5 * (time - start) / self.mean_cycle)
                phase = np.arange(len(toggles), len(toggles) + count)
                scales = np.where(
                    (phase % 2 == 0) == self._up[node],
                    1.0 / self._fail_rate,
                    1.0 / self._repair_rate,
                )
                durations = generator.standard_exponential(count) * scales
                toggles = np.concatenate(
                    (toggles, np.cumsum(np.concatenate(((start,), durations)))[1:])
                )
            self._toggles[node] = toggles
        self._covered = min(toggles[-1] for toggles in self._toggles)

    def up_mask(self, nodes: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Whether ``nodes[k]`` is up at ``times[k]``, for every ``k``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        up = self._up[nodes]
        if not len(times) or self._fail_rate == 0.0:
            return up
        self._cover(float(times.max()))
        order = np.argsort(nodes, kind="stable")
        bounds = np.searchsorted(nodes[order], np.arange(self._n + 1))
        for node in np.flatnonzero(np.diff(bounds)).tolist():
            rows = order[bounds[node] : bounds[node + 1]]
            flips = np.searchsorted(self._toggles[node], times[rows], side="right")
            up[rows] ^= (flips & 1).astype(bool)
        return up

    def is_up(self, node: int, time: float) -> bool:
        """Whether ``node`` is up at ``time``."""
        if not (0 <= node < self._n):
            raise ValueError(f"node {node} outside 0..{self._n - 1}")
        return bool(self.up_mask(np.array([node]), np.array([time]))[0])

    @classmethod
    def from_availability(
        cls,
        n: int,
        availability: float,
        mean_cycle: float,
        rng: RandomSource = None,
    ) -> "NodeChurnSchedule":
        """Build from target availability ``a`` and mean cycle length.

        Mean uptime is ``a · mean_cycle`` and mean downtime
        ``(1 − a) · mean_cycle``, so the stationary availability is exactly
        ``a`` and the churn timescale is ``mean_cycle``. ``a`` must lie in
        ``(0, 1)`` — use no schedule at all for always-up nodes.
        """
        check_positive(mean_cycle, "mean_cycle")
        if not (0.0 < availability < 1.0):
            raise ValueError(
                f"availability must lie in (0, 1), got {availability!r}"
            )
        return cls(
            n,
            fail_rate=1.0 / (availability * mean_cycle),
            repair_rate=1.0 / ((1.0 - availability) * mean_cycle),
            rng=rng,
        )


class FaultFilteredContactProcess:
    """Suppress contacts whose endpoints are not both up.

    Generic over any schedule exposing ``up_mask(nodes, times)`` — node
    churn and fail-stop both do. Wraps any event source, so fault
    processes compose with each other in a single stream: each window is
    the inner window with the contacts of a down endpoint masked out.
    """

    def __init__(self, inner, schedule):
        self._inner = inner
        self._schedule = schedule

    @property
    def schedule(self):
        """The up/down schedule driving the suppression."""
        return self._schedule

    def events_until_columnar(self, horizon: float) -> EventBlock:
        """The inner window's contacts between two up nodes."""
        block = self._inner.events_until_columnar(horizon)
        if not len(block):
            return block
        keep = self._schedule.up_mask(block.a, block.times)
        keep &= self._schedule.up_mask(block.b, block.times)
        return EventBlock(times=block.times[keep], a=block.a[keep], b=block.b[keep])


class NodeChurnProcess(FaultFilteredContactProcess):
    """Contact stream under node churn: down nodes miss their contacts.

    The analytical counterpart is :func:`churned_graph` — see the module
    docstring for the availability-scaling equivalence.
    """

    def __init__(self, inner, schedule: NodeChurnSchedule):
        if not isinstance(schedule, NodeChurnSchedule):
            raise TypeError(
                f"expected NodeChurnSchedule, got {type(schedule).__name__}"
            )
        super().__init__(inner, schedule)


def churned_graph(
    graph: ContactGraph, availability: Union[float, Sequence[float]]
) -> ContactGraph:
    """The analytical counterpart of churn: rates scaled by ``a_i · a_j``.

    ``availability`` is either one scalar for all nodes or a length-``n``
    per-node sequence. Feeding the scaled graph to the Eq. 4–7 models
    predicts what the protocol experiences on a :class:`NodeChurnProcess`
    (fast-churn regime), by the Poisson thinning property.
    """
    a = np.asarray(availability, dtype=float)
    if a.ndim == 0:
        a = np.full(graph.n, float(a))
    if a.shape != (graph.n,):
        raise ValueError(
            f"availability must be a scalar or length-{graph.n} sequence, "
            f"got shape {a.shape}"
        )
    if np.any(a < 0.0) or np.any(a > 1.0) or not np.all(np.isfinite(a)):
        raise ValueError("availabilities must lie in [0, 1]")
    return ContactGraph(graph.rates * np.outer(a, a))
