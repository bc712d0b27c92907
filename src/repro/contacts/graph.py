"""The contact graph: pairwise exponential inter-contact rates.

Paper §III-A: "A DTN is represented by a contact graph with ``n`` nodes.
[...] The inter-contact time between ``v_i`` and ``v_j`` is defined by
``1/λ_ij``. The probability that node ``v_i`` has a contact with node
``v_j`` at time ``t`` follows the exponential distribution."
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive_int


class ContactGraph:
    """Symmetric matrix of contact rates ``λ_ij`` over ``n`` nodes.

    A zero rate means the pair never meets (no edge in the contact graph).
    Rates are per unit time; the library is unit-agnostic — the random-graph
    experiments use minutes, the trace experiments use seconds.

    Parameters
    ----------
    rates:
        ``(n, n)`` array-like of non-negative rates. Must be symmetric with a
        zero diagonal (a node does not contact itself).
    """

    def __init__(self, rates: Sequence[Sequence[float]]):
        matrix = np.asarray(rates, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"rates must be a square matrix, got shape {matrix.shape}")
        if matrix.shape[0] < 2:
            raise ValueError("a contact graph needs at least two nodes")
        if np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
            raise ValueError("rates must be finite and non-negative")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("rates must be symmetric (contacts are mutual)")
        if np.any(np.diag(matrix) != 0):
            raise ValueError("diagonal rates must be zero (no self-contacts)")
        self._rates = matrix
        self._rates.setflags(write=False)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_mean_intercontact(
        cls, means: Sequence[Sequence[float]]
    ) -> "ContactGraph":
        """Build from a matrix of *mean inter-contact times* ``1/λ_ij``.

        Non-finite or zero entries mean "never meets" and map to rate zero.
        """
        means_arr = np.asarray(means, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(
                np.isfinite(means_arr) & (means_arr > 0), 1.0 / means_arr, 0.0
            )
        np.fill_diagonal(rates, 0.0)
        return cls(rates)

    @classmethod
    def complete(cls, n: int, rate: float) -> "ContactGraph":
        """A complete contact graph where every pair shares the same rate."""
        check_positive_int(n, "n")
        check_non_negative(rate, "rate")
        rates = np.full((n, n), float(rate))
        np.fill_diagonal(rates, 0.0)
        return cls(rates)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._rates.shape[0]

    @property
    def rates(self) -> np.ndarray:
        """The (read-only) rate matrix."""
        return self._rates

    def rate(self, i: int, j: int) -> float:
        """Contact rate ``λ_ij`` between nodes ``i`` and ``j``."""
        return float(self._rates[i, j])

    def mean_intercontact(self, i: int, j: int) -> float:
        """Mean inter-contact time ``1/λ_ij``; ``inf`` if the pair never meets."""
        rate = self.rate(i, j)
        return 1.0 / rate if rate > 0 else math.inf

    def contact_probability(self, i: int, j: int, deadline: float) -> float:
        """Probability that ``i`` meets ``j`` within ``deadline`` (paper Eq. 3).

        ``P[v_i contacts v_j in T] = 1 - e^{-λ_ij T}``.
        """
        check_non_negative(deadline, "deadline")
        return -math.expm1(-self.rate(i, j) * deadline)

    def neighbors(self, i: int) -> np.ndarray:
        """Indices of nodes that ``i`` ever contacts (positive rate)."""
        return np.flatnonzero(self._rates[i] > 0)

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """All unordered pairs ``(i, j)`` with ``i < j`` that ever meet."""
        upper_i, upper_j = np.nonzero(np.triu(self._rates, k=1))
        return zip(upper_i.tolist(), upper_j.tolist())

    def degree(self, i: int) -> int:
        """Number of distinct nodes that ``i`` ever contacts."""
        return int(np.count_nonzero(self._rates[i]))

    # ------------------------------------------------------------------
    # aggregate rates used by the analytical models (paper Eq. 4)
    # ------------------------------------------------------------------

    def anycast_rate(self, sender: int, group: Iterable[int]) -> float:
        """Rate at which ``sender`` first meets *any* node in ``group``.

        The minimum of independent exponentials is exponential with the sum
        of the rates; this is the anycast property of group onion routing.
        ``sender`` itself is excluded if it appears in the group.
        """
        total = 0.0
        for member in group:
            if member != sender:
                total += self.rate(sender, member)
        return total

    def group_to_group_rate(
        self, senders: Sequence[int], receivers: Sequence[int]
    ) -> float:
        """Average-over-senders, sum-over-receivers rate between two groups.

        Paper Eq. 4 middle case: the effective rate for hop ``k`` (with
        ``2 <= k <= K``) is ``(1/g) Σ_i Σ_j λ_{r_{k-1,i}, r_{k,j}}`` — any of
        the ``g`` members of ``R_{k-1}`` may hold the message (average), and
        it may go to any member of ``R_k`` (sum).
        """
        senders = list(senders)
        receivers = list(receivers)
        if not senders or not receivers:
            raise ValueError("groups must be non-empty")
        total = 0.0
        for i in senders:
            for j in receivers:
                if i != j:
                    total += self.rate(i, j)
        return total / len(senders)

    # ------------------------------------------------------------------
    # stats / export
    # ------------------------------------------------------------------

    def density(self) -> float:
        """Fraction of pairs that ever meet."""
        n = self.n
        possible = n * (n - 1) / 2
        present = np.count_nonzero(np.triu(self._rates, k=1))
        return present / possible

    def mean_rate(self) -> float:
        """Mean rate over pairs that ever meet (0 if none do)."""
        upper = self._rates[np.triu_indices(self.n, k=1)]
        positive = upper[upper > 0]
        return float(positive.mean()) if positive.size else 0.0

    def __repr__(self) -> str:
        return (
            f"ContactGraph(n={self.n}, density={self.density():.3f}, "
            f"mean_rate={self.mean_rate():.6g})"
        )
