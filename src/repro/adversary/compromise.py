"""Node-compromise models: who the adversary controls, and how to sample it.

The paper's simulations select compromised nodes uniformly at random at a
given compromise rate ``c/n``; the analytical models treat each node as
independently compromised with probability ``c/n``. Both samplers are
provided, plus two richer adversaries grounded in the onion-routing
literature (Ando–Lysyanskaya–Upfal, "Practical and Provably Secure Onion
Routing"): a *targeted* adversary that corrupts the best-connected nodes
first, and a *stake-weighted* adversary whose corruption probability is
proportional to a per-node weight (compute share, observed traffic, …).

Every model exposes two sampling surfaces:

* :meth:`CompromiseModel.sample` — one compromised set per call (for
  code that walks one trial at a time), and
* :meth:`CompromiseModel.mask_from_keys` — a whole *batch* of compromised
  sets derived from a ``(trials, n)`` column of pre-drawn uniform keys.

The key-column contract is what the security batch kernel consumes: the
keys are drawn once per trial block, independent of the compromise rate,
so a fused ``(c, K, L)`` sweep can re-derive the mask at every rate from
the *same* keys — nested compromised sets across rates, i.e. common
random numbers for between-rate comparisons. ``sample`` draws one key row
and applies the same derivation, so the scalar and batched samplers agree
trial-for-trial when fed the same keys. The security Monte Carlo scores
through the key column only, so a custom model must override
:meth:`~CompromiseModel.selection_priority` or
:meth:`~CompromiseModel.mask_from_keys`; one that overrides only
``sample`` is rejected there rather than scored as the uniform model.

Every fixed-count strategy reduces to one primitive: build a per-trial
*selection priority* column (:meth:`CompromiseModel.selection_priority`)
and compromise each row's ``count`` smallest entries. That smallest-``k``
selection is the hot loop of batched mask construction, so
:meth:`mask_from_keys` accepts a ``smallest_k`` callable — the security
kernel passes its compiled backend's
:meth:`~repro.sim.backend.KernelBackend.smallest_k_mask` op; the default
is the in-module numpy reference. All implementations select by the same
rule (priority ≤ the row's ``count``-th order statistic), so the masks
are byte-identical regardless of who computes them.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Set,
    Type,
)

import numpy as np

from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_fraction, check_positive_int


class CompromiseModel:
    """Uniform fixed-count compromise over a population of ``n`` nodes.

    The base class *is* the paper's model — exactly ``round(c)`` nodes,
    uniformly without replacement — and doubles as the extension point for
    the strategy family: subclasses override :meth:`selection_priority`
    (fixed-count strategies) or :meth:`mask_from_keys` (and usually
    nothing else) to reinterpret the per-trial key column.

    Parameters
    ----------
    n:
        Network size.
    rate:
        Compromise rate ``c/n`` in ``[0, 1)``.
    protected:
        Nodes that can never be compromised (e.g. exclude the source and
        destination when studying relay exposure in isolation). The paper
        compromises uniformly over all nodes; the default matches that.
    """

    #: Registry name; also reported in bench/figure metadata.
    name = "uniform"

    def __init__(
        self,
        n: int,
        rate: float,
        protected: Iterable[int] = (),
    ):
        check_positive_int(n, "n")
        check_fraction(rate, "rate")
        self._n = n
        self._rate = rate
        self._protected: FrozenSet[int] = frozenset(protected)
        for node in self._protected:
            if not (0 <= node < n):
                raise ValueError(f"protected node {node} outside 0..{n - 1}")

    @property
    def n(self) -> int:
        """Network size."""
        return self._n

    @property
    def rate(self) -> float:
        """Compromise rate ``c/n``."""
        return self._rate

    @property
    def protected(self) -> FrozenSet[int]:
        """Nodes exempt from compromise."""
        return self._protected

    @property
    def expected_count(self) -> float:
        """Expected number of compromised nodes ``c = rate · n``."""
        return self._rate * self._n

    # ------------------------------------------------------------------
    # legacy samplers (paper-faithful draw order, kept verbatim)
    # ------------------------------------------------------------------

    def sample_fixed_count(self, rng: RandomSource = None) -> Set[int]:
        """Exactly ``round(c)`` compromised nodes, uniformly without replacement.

        This is the simulation-style sampler ("nodes are randomly selected
        as compromised nodes with a given compromised rate").
        """
        generator = ensure_rng(rng)
        count = round(self._rate * self._n)
        eligible = [v for v in range(self._n) if v not in self._protected]
        count = min(count, len(eligible))
        if count == 0:
            return set()
        chosen = generator.choice(len(eligible), size=count, replace=False)
        return {eligible[idx] for idx in chosen}

    def sample_bernoulli(self, rng: RandomSource = None) -> Set[int]:
        """Each node independently compromised with probability ``c/n``.

        Matches the independence assumption of the analytical models.
        """
        generator = ensure_rng(rng)
        draws = generator.random(self._n) < self._rate
        return {
            v for v in range(self._n) if draws[v] and v not in self._protected
        }

    # ------------------------------------------------------------------
    # key-column samplers (the batch kernel contract)
    # ------------------------------------------------------------------

    def _count(self, rate: float) -> int:
        """Compromised-node count at ``rate``, clamped to the eligible pool."""
        count = round(rate * self._n)
        return min(count, self._n - len(self._protected))

    def _masked_keys(self, keys: np.ndarray) -> np.ndarray:
        """A float copy of ``keys`` with protected nodes pushed to ``+inf``."""
        keys = np.asarray(keys, dtype=float)
        if keys.ndim != 2 or keys.shape[1] != self._n:
            raise ValueError(
                f"keys must have shape (trials, {self._n}), got {keys.shape}"
            )
        masked = keys.copy()
        if self._protected:
            masked[:, sorted(self._protected)] = np.inf
        return masked

    @staticmethod
    def _smallest_k_mask(priority: np.ndarray, count: int) -> np.ndarray:
        """Boolean mask selecting each row's ``count`` smallest priorities.

        Continuous priorities make exact ties measure-zero; a tie would
        merely over-select one node in one trial.
        """
        mask = np.zeros(priority.shape, dtype=bool)
        if count <= 0:
            return mask
        kth = np.partition(priority, count - 1, axis=1)[:, count - 1 : count]
        np.less_equal(priority, kth, out=mask)
        return mask

    def selection_priority(self, keys: np.ndarray) -> np.ndarray:
        """Per-trial priority column: each row's ``count`` smallest entries
        are compromised.

        The uniform model's priority is the key itself (protected nodes
        pushed to ``+inf``): the smallest-keyed eligible nodes form a
        uniformly random fixed-count subset. Fixed-count subclasses
        override *this* — not :meth:`mask_from_keys` — so the compiled
        smallest-``k`` selection covers every strategy.
        """
        return self._masked_keys(keys)

    def mask_from_keys(
        self,
        keys: np.ndarray,
        rate: Optional[float] = None,
        smallest_k: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
    ) -> np.ndarray:
        """Derive a ``(trials, n)`` compromise mask from uniform key columns.

        ``keys`` are i.i.d. ``U[0, 1)`` draws, one per (trial, node); the
        uniform model compromises each trial's ``round(rate · n)``
        smallest-keyed eligible nodes — a uniformly random fixed-count
        subset, *nested* across rates for the same keys. ``smallest_k``
        substitutes a compiled selection op (the kernel-backend seam);
        the default is the numpy reference, and every implementation is
        byte-identical by the order-statistic selection rule.
        """
        rate = self._rate if rate is None else check_fraction(rate, "rate")
        select = self._smallest_k_mask if smallest_k is None else smallest_k
        return select(self.selection_priority(keys), self._count(rate))

    def sample(self, rng: RandomSource = None) -> Set[int]:
        """One compromised set, via the same derivation as the batch mask."""
        keys = ensure_rng(rng).random((1, self._n))
        return set(int(v) for v in np.flatnonzero(self.mask_from_keys(keys)[0]))


class BernoulliCompromise(CompromiseModel):
    """Independent per-node compromise with probability ``c/n``.

    The analytical models' independence assumption as a first-class
    strategy: a node is compromised in a trial iff its key falls below the
    rate, so the count varies binomially and the sets are again nested
    across rates for shared keys.
    """

    name = "bernoulli"

    def mask_from_keys(
        self,
        keys: np.ndarray,
        rate: Optional[float] = None,
        smallest_k: Optional[Callable[[np.ndarray, int], np.ndarray]] = None,
    ) -> np.ndarray:
        """Mask where each eligible node's key lies below ``rate``.

        A threshold comparison, not a smallest-``k`` selection —
        ``smallest_k`` is accepted for interface uniformity and unused.
        """
        rate = self._rate if rate is None else check_fraction(rate, "rate")
        return self._masked_keys(keys) < rate


class TargetedCompromise(CompromiseModel):
    """Degree-targeted adversary: corrupt the best-connected nodes first.

    Nodes are ranked by descending ``weights`` (aggregate contact rate,
    degree, centrality — the caller's choice); each trial compromises the
    top ``round(rate · n)`` eligible nodes, breaking weight ties with the
    trial's uniform keys so equally weighted nodes are hit uniformly at
    random. With distinct weights the adversary is deterministic — the
    worst case the ALU line of work analyses.
    """

    name = "targeted"

    def __init__(
        self,
        n: int,
        rate: float,
        weights: Sequence[float],
        protected: Iterable[int] = (),
    ):
        super().__init__(n, rate, protected=protected)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(
                f"weights must have shape ({n},), got {weights.shape}"
            )
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        self._weights = weights
        self._weights.setflags(write=False)
        # Dense rank of -weight (0 = heaviest). The composite priority
        # ``rank + key`` sorts identically to lexsort((key, -weight)):
        # ranks are whole numbers and keys live in [0, 1), so a lighter
        # node can never outrank a heavier one, and equal-weight nodes
        # tie-break by key — uniformly at random, exactly as before.
        levels = np.unique(-weights)
        self._weight_rank = np.searchsorted(levels, -weights).astype(float)

    @property
    def weights(self) -> np.ndarray:
        """Per-node targeting weights (higher = compromised earlier)."""
        return self._weights

    def selection_priority(self, keys: np.ndarray) -> np.ndarray:
        """Composite ``weight-rank + key`` priority: heaviest nodes first,
        keys breaking ties, protected nodes at ``+inf``."""
        return self._weight_rank + self._masked_keys(keys)


class StakeWeightedCompromise(CompromiseModel):
    """Stake-proportional compromise: weight ∝ probability of corruption.

    Each trial draws a fixed-count sample *without replacement* where node
    ``v`` is favoured proportionally to ``stakes[v]`` (Efraimidis–Spirakis
    exponential races: the ``count`` smallest ``Exp(stake)`` arrival times
    win). Models adversaries that buy corruption in proportion to a
    resource — bandwidth, reputation, cryptocurrency stake.
    """

    name = "stake"

    def __init__(
        self,
        n: int,
        rate: float,
        stakes: Sequence[float],
        protected: Iterable[int] = (),
    ):
        super().__init__(n, rate, protected=protected)
        stakes = np.asarray(stakes, dtype=float)
        if stakes.shape != (n,):
            raise ValueError(f"stakes must have shape ({n},), got {stakes.shape}")
        eligible = np.ones(n, dtype=bool)
        if self._protected:
            eligible[sorted(self._protected)] = False
        if not np.all(np.isfinite(stakes[eligible])) or np.any(
            stakes[eligible] <= 0
        ):
            raise ValueError("stakes of eligible nodes must be positive finite")
        self._stakes = stakes
        self._stakes.setflags(write=False)

    @property
    def stakes(self) -> np.ndarray:
        """Per-node stakes (selection probability ∝ stake)."""
        return self._stakes

    def selection_priority(self, keys: np.ndarray) -> np.ndarray:
        """Each trial's ``Exp(stake)`` arrival times (earliest win)."""
        masked = self._masked_keys(keys)
        # -log(1-u)/stake ~ Exp(stake); u in [0, 1) keeps the log finite,
        # and the protected +inf keys map to +inf arrival times.
        with np.errstate(invalid="ignore"):
            priority = -np.log1p(-masked) / self._stakes
        priority[np.isnan(priority)] = np.inf
        return priority


#: Registry of the built-in strategies, keyed by their CLI names.
COMPROMISE_MODELS: Dict[str, Type[CompromiseModel]] = {
    CompromiseModel.name: CompromiseModel,
    BernoulliCompromise.name: BernoulliCompromise,
    TargetedCompromise.name: TargetedCompromise,
    StakeWeightedCompromise.name: StakeWeightedCompromise,
}


def make_compromise_model(
    name: str,
    n: int,
    rate: float,
    weights: Optional[Sequence[float]] = None,
    protected: Iterable[int] = (),
) -> CompromiseModel:
    """Instantiate a registered compromise strategy by name.

    ``weights`` feeds :class:`TargetedCompromise` (targeting weights) and
    :class:`StakeWeightedCompromise` (stakes); the uniform and Bernoulli
    models reject it, so a typo'd combination fails loudly.
    """
    try:
        cls = COMPROMISE_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(COMPROMISE_MODELS))
        raise ValueError(
            f"unknown compromise model {name!r} (choose from {known})"
        ) from None
    if cls in (TargetedCompromise, StakeWeightedCompromise):
        if weights is None:
            raise ValueError(f"compromise model {name!r} requires weights")
        return cls(n, rate, weights, protected=protected)
    if weights is not None:
        raise ValueError(f"compromise model {name!r} does not take weights")
    return cls(n, rate, protected=protected)
