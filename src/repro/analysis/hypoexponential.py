"""The hypoexponential distribution underlying opportunistic (onion) paths.

A DTN routing path whose per-hop delays are independent exponentials with
rates ``λ_1, …, λ_η`` has total delay distributed hypoexponentially — the
paper calls this an *opportunistic path* (after Gao et al., ICDCS 2010) and
extends it to the *opportunistic onion path* where each ``λ_k`` is a
group-anycast rate (Eq. 4).

Two evaluation strategies are provided:

* the closed form of the paper's Eq. 5/6, valid when all rates are distinct:
  ``F(t) = Σ_k A_k (1 − e^{−λ_k t})`` with
  ``A_k = Π_{j≠k} λ_j / (λ_j − λ_k)``;
* a phase-type evaluation via *uniformization* (Jensen's method), numerically
  robust when rates coincide or nearly coincide — the closed form has
  catastrophic cancellation there, and even ``scipy.linalg.expm`` loses four
  digits on these nearly-defective bidiagonal generators. ``method="auto"``
  picks between them.

:class:`Hypoexponential` also takes an ``(R, η)`` array of rates, a batch
of distributions that :meth:`Hypoexponential.cdf` evaluates in one pass; a
single distribution is a batch of one row.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal, Sequence, Union

import numpy as np

from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive

Method = Literal["auto", "closed-form", "matrix"]

# Relative gap below which two rates are treated as "coinciding" and the
# closed form is considered unsafe.
_RELATIVE_GAP_TOLERANCE = 1e-4

# Cap on Λ·τ per uniformization segment: e^{-50} ≈ 2e-22 stays far from
# double-precision underflow while keeping the series short.
_UNIFORMIZATION_SEGMENT = 50.0


class Hypoexponential:
    """Sum of independent exponential stage delays with given rates.

    Parameters
    ----------
    rates:
        Per-stage rates ``λ_k > 0``, in path order. An ``(R, η)`` array is
        a batch of ``R`` such distributions with ``η`` stages each:
        :meth:`cdf` and :meth:`sf` evaluate the whole batch in one pass and
        return one row per distribution, each bit-identical to that row's
        own instance. The other methods describe one distribution and
        reject a batch.
    method:
        ``"closed-form"`` forces the paper's Eq. 5/6 (raises if rates
        coincide), ``"matrix"`` forces the phase-type evaluation, ``"auto"``
        (default) uses the closed form when rates are well separated.
    """

    def __init__(
        self, rates: Union[Iterable[float], np.ndarray], method: Method = "auto"
    ):
        given = np.array(
            rates if isinstance(rates, np.ndarray) else list(rates), dtype=float
        )
        if given.ndim not in (1, 2):
            raise ValueError("rates must be a sequence or a (rows, stages) array")
        if not given.shape[-1]:
            raise ValueError("at least one stage rate is required")
        self._batch = given.ndim == 2
        self._rows = given.reshape(-1, given.shape[-1])
        bad = np.argwhere(~(np.isfinite(self._rows) & (self._rows > 0)))
        if bad.size:
            row, k = bad[0]
            rate = float(self._rows[row, k])
            raise ValueError(f"rate λ_{k + 1} must be positive, got {rate!r}")
        if method not in ("auto", "closed-form", "matrix"):
            raise ValueError(f"unknown method {method!r}")
        self._method = method
        # Computed at most once and published with one assignment: the
        # instance is immutable and may be shared across threads.
        self._coefficients_cache: Union[np.ndarray, None] = None

    def _single(self) -> np.ndarray:
        """The stage rates of the one distribution this instance describes."""
        if self._batch:
            raise ValueError(
                f"a batch of {len(self._rows)} distributions has no single "
                "rate vector; build one instance per row"
            )
        return self._rows[0]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def rates(self) -> tuple[float, ...]:
        """Stage rates in path order."""
        return tuple(float(rate) for rate in self._single())

    @property
    def stages(self) -> int:
        """Number of exponential stages (``η`` in the paper)."""
        return self._rows.shape[1]

    def mean(self) -> float:
        """Expected total delay ``Σ 1/λ_k``."""
        return sum(1.0 / r for r in self.rates)

    def var(self) -> float:
        """Variance of the total delay ``Σ 1/λ_k²``."""
        return sum(1.0 / (r * r) for r in self.rates)

    # ------------------------------------------------------------------
    # closed form (paper Eq. 5/6)
    # ------------------------------------------------------------------

    def has_distinct_rates(self) -> bool:
        """Whether all stage rates are pairwise well separated."""
        return bool(_distinct_rows(self._single()[None, :])[0])

    def coefficients(self) -> np.ndarray:
        """The ``A_k^{(η)}`` coefficients of the paper's Eq. 5.

        ``A_k = Π_{j≠k} λ_j / (λ_j − λ_k)``; the coefficients sum to one.
        Raises :class:`ValueError` when rates coincide (the closed form does
        not exist there — it degenerates to an Erlang-like mixture).
        """
        if not self.has_distinct_rates():
            raise ValueError(_NOT_DISTINCT)
        if self._coefficients_cache is None:
            self._coefficients_cache = _eq5_coefficients(self._rows)[0]
        return self._coefficients_cache

    # ------------------------------------------------------------------
    # public distribution API
    # ------------------------------------------------------------------

    @staticmethod
    def _as_time_grid(t: Union[float, Sequence[float]]) -> np.ndarray:
        """A 1-D float64 view of ``t``, copying only when conversion demands.

        The grid is only read, never written, so a precomputed float64
        grid is handed back untouched.
        """
        if isinstance(t, np.ndarray) and t.dtype == np.float64 and t.ndim == 1:
            return t
        return np.atleast_1d(np.asarray(t, dtype=float))

    def cdf(self, t: Union[float, Sequence[float]]) -> Union[float, np.ndarray]:
        """``P[delay ≤ t]``; accepts a scalar or an array of times.

        On a batch the result gains a leading axis, one entry per
        distribution. ``method="auto"`` chooses per distribution: the
        closed form (Eq. 5/6) when its rates are well separated and its
        values over the whole grid are finite and within
        ``[−1e-9, 1 + 1e-9]``, uniformization otherwise.
        """
        t_arr = self._as_time_grid(t)
        if np.any(t_arr < 0):
            raise ValueError("times must be non-negative")
        values = np.empty((len(self._rows), t_arr.size))
        step = max(1, _BLOCK_PAIRS // max(t_arr.size, 1))
        for start in range(0, len(self._rows), step):
            block = slice(start, start + step)
            values[block] = _cdf_block(self._rows[block], t_arr, self._method)
        scalar = np.isscalar(t) or np.ndim(t) == 0
        if scalar:
            values = values[:, 0]
        if self._batch:
            return values
        return float(values[0]) if scalar else values[0]

    def sf(self, t: Union[float, Sequence[float]]) -> Union[float, np.ndarray]:
        """Survival function ``P[delay > t]``."""
        result = self.cdf(t)
        return 1.0 - result

    def pdf(self, t: Union[float, Sequence[float]]) -> Union[float, np.ndarray]:
        """Probability density of the total delay.

        Accepts precomputed float64 grids without copying, like :meth:`cdf`.
        """
        t_arr = self._as_time_grid(t)
        if np.any(t_arr < 0):
            raise ValueError("times must be non-negative")
        rates = self._single()
        if self._method != "matrix" and self.has_distinct_rates():
            coeffs = self.coefficients()
            values = (coeffs * rates)[None, :] * np.exp(-np.outer(t_arr, rates))
            values = values.sum(axis=1)
        else:
            # Density is the absorption flux: (α e^{Qt})_{last} · λ_last.
            states = _uniformized_states(rates[None, :], t_arr)
            values = states[0, :, -1] * rates[-1]
        values = np.maximum(values, 0.0)
        return float(values[0]) if np.isscalar(t) or np.ndim(t) == 0 else values

    def sample(self, size: int = 1, rng: RandomSource = None) -> np.ndarray:
        """Draw total-delay samples (sum of per-stage exponentials)."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        generator = ensure_rng(rng)
        draws = np.zeros(size)
        for rate in self.rates:
            draws += generator.exponential(1.0 / rate, size=size)
        return draws

    def __repr__(self) -> str:
        if self._batch:
            return f"Hypoexponential(batch={len(self._rows)}, stages={self.stages})"
        return f"Hypoexponential(stages={self.stages}, mean={self.mean():.6g})"


# ----------------------------------------------------------------------
# the evaluator: many rate rows, one time grid
# ----------------------------------------------------------------------
#
# A single distribution is a batch of one row, so the batch and the scalar
# evaluation cannot drift apart. Each row's result is bit-identical to
# evaluating that row alone: the reductions run over the last, contiguous
# axis (the same kernel a single row uses), and uniformization advances
# each (row, time) pair with the stacked ``(P, 1, η) @ (P, η, η)`` product,
# the same per-pair core as a 1-D ``state @ transition`` product.

_NOT_DISTINCT = (
    "closed-form coefficients require pairwise distinct rates; use method='matrix'"
)

# (row, time) pairs evaluated per block, which bounds the batched
# temporaries (a few (pairs × η) arrays, and (pairs × η × η) transitions
# for the rows that need uniformization).
_BLOCK_PAIRS = 8192


def _cdf_block(rates: np.ndarray, t: np.ndarray, method: Method) -> np.ndarray:
    values = np.empty((len(rates), t.size))
    if method == "matrix":
        uniformize = np.ones(len(rates), dtype=bool)
    else:
        distinct = _distinct_rows(rates)
        if method == "closed-form" and not distinct.all():
            raise ValueError(_NOT_DISTINCT)
        closed = _closed_form_cdf(rates[distinct], t)
        values[distinct] = closed
        uniformize = ~distinct
        if method == "auto":
            # Cancellation guard: a row whose closed form misbehaved
            # anywhere on the grid is uniformized over the whole grid.
            uniformize[distinct] = ~np.isfinite(closed).all(axis=1) | (
                (closed < -1e-9) | (closed > 1 + 1e-9)
            ).any(axis=1)
    if uniformize.any():
        states = _uniformized_states(rates[uniformize], t)
        values[uniformize] = 1.0 - states.sum(axis=-1)
    return np.clip(values, 0.0, 1.0)


def _distinct_rows(rates: np.ndarray) -> np.ndarray:
    """Per row: are all stage rates pairwise well separated?"""
    ordered = np.sort(rates, axis=1)
    lo, hi = ordered[:, :-1], ordered[:, 1:]
    return ~((hi - lo) <= _RELATIVE_GAP_TOLERANCE * hi).any(axis=1)


def _eq5_coefficients(rates: np.ndarray) -> np.ndarray:
    """``A_k = Π_{j≠k} λ_j / (λ_j − λ_k)`` (paper Eq. 5) for every row."""
    coeffs = np.empty_like(rates)
    for k in range(rates.shape[1]):
        others = np.delete(rates, k, axis=1)
        coeffs[:, k] = np.prod(others / (others - rates[:, k : k + 1]), axis=1)
    return coeffs


def _closed_form_cdf(rates: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``F(t) = Σ_k A_k (1 − e^{−λ_k t})`` (paper Eq. 6) for every row."""
    # Extreme rate spreads overflow the coefficients; the caller's range
    # check sends such rows to uniformization.
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _eq5_coefficients(rates)
        exponent = -(t[None, :, None] * rates[:, None, :])
        terms = coeffs[:, None, :] * (-np.expm1(exponent))
        return terms.sum(axis=-1)


def _uniformized_states(rates: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``α e^{Q t}`` for every row of ``rates`` and every ``t``: ``(R, D, η)``.

    ``Q`` is the bidiagonal phase-type generator of the row's stages and
    ``α = e_1``. Jensen's uniformization with ``P = I + Q/Λ`` and
    ``Λ = max λ_k``: all intermediate quantities are non-negative, so there
    is no cancellation, and accuracy is limited only by the Poisson-tail
    cut-off (< 1e-15 here). Each (row, time) pair keeps its own schedule:
    long horizons are split into segments with ``Λτ ≤ 50`` so the leading
    ``e^{−Λτ}`` weight never underflows.
    """
    rows, eta = rates.shape
    biggest = rates.max(axis=1)
    ratio = rates / biggest[:, None]
    stage = np.arange(eta)
    transition = np.zeros((rows, eta, eta))
    transition[:, stage, stage] = 1.0 - ratio
    transition[:, stage[:-1], stage[1:]] = ratio[:, :-1]

    row = np.repeat(np.arange(rows), t.size)
    remaining = np.tile(t, rows)
    segment = _UNIFORMIZATION_SEGMENT / biggest[row]
    states = np.zeros((row.size, eta))
    states[:, 0] = 1.0
    pending = np.flatnonzero(remaining > 0)
    while pending.size:
        tau = np.minimum(remaining[pending], segment[pending])
        remaining[pending] -= tau
        states[pending] = _uniformized_segment(
            states[pending],
            transition[row[pending]],
            biggest[row[pending]] * tau,
        )
        pending = pending[remaining[pending] > 0]
    return states.reshape(rows, t.size, eta)


def _uniformized_segment(
    state: np.ndarray, transition: np.ndarray, lam_tau: np.ndarray
) -> np.ndarray:
    """``state · e^{Q τ}`` per pair, as ``Σ_m Pois(m; Λτ) · state · P^m``.

    A pair stops adding terms once its Poisson tail is negligible, exactly
    where a loop over that pair alone would stop. Pairs are kept as
    ``(P, 1, η)`` row vectors and per-pair scalars as ``(P, 1, 1)``, so each
    step is one stacked product and two broadcast updates.
    """
    lam_tau = lam_tau[:, None, None]
    weight = np.array([math.exp(-x) for x in lam_tau.ravel()])[:, None, None]
    term = state[:, None, :]
    acc = weight * term
    out = np.empty_like(state)
    live = np.arange(len(state))
    sure = lam_tau.min()  # every live pair continues while m < sure
    m = 0
    while True:
        # ``acc`` sums to about 1 at most, so a pair whose weight exceeds
        # 3e-18 passes the tail test whatever ``acc`` holds: the test only
        # needs to run once some live weight nears the cut-off.
        if m >= sure and weight.min() <= 3e-18:
            more = (
                (weight > 1e-18 * (1.0 + acc.sum(axis=-1, keepdims=True)))
                | (m < lam_tau)
            ).ravel()
            if not more.all():
                out[live[~more]] = acc[~more, 0]
                live, term, acc = live[more], term[more], acc[more]
                weight, lam_tau = weight[more], lam_tau[more]
                transition = transition[more]
                if not live.size:
                    return out
                sure = lam_tau.min()
        m += 1
        term = term @ transition
        weight = weight * (lam_tau / m)
        acc = acc + weight * term
        if m > 10000:  # pragma: no cover - defensive cut-off
            out[live] = acc[:, 0]
            return out
