"""Tests for the hypoexponential distribution (paper Eq. 5/6 machinery)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hypoexponential import Hypoexponential


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Hypoexponential([])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rate(self, bad):
        with pytest.raises(ValueError, match="positive"):
            Hypoexponential([0.1, bad])

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            Hypoexponential([0.1], method="magic")

    def test_properties(self):
        dist = Hypoexponential([0.5, 0.25])
        assert dist.stages == 2
        assert dist.mean() == pytest.approx(2.0 + 4.0)
        assert dist.var() == pytest.approx(4.0 + 16.0)


class TestSingleStage:
    """One stage must reduce exactly to the exponential distribution."""

    def test_cdf_matches_exponential(self):
        dist = Hypoexponential([0.2])
        for t in (0.0, 1.0, 5.0, 20.0):
            assert dist.cdf(t) == pytest.approx(1 - math.exp(-0.2 * t))

    def test_pdf_matches_exponential(self):
        dist = Hypoexponential([0.2])
        assert dist.pdf(3.0) == pytest.approx(0.2 * math.exp(-0.6))


class TestCoefficients:
    def test_sum_to_one(self):
        dist = Hypoexponential([0.1, 0.3, 0.7])
        assert dist.coefficients().sum() == pytest.approx(1.0)

    def test_two_stage_known_values(self):
        # A_1 = λ2/(λ2-λ1), A_2 = λ1/(λ1-λ2)
        dist = Hypoexponential([1.0, 2.0])
        coeffs = dist.coefficients()
        assert coeffs[0] == pytest.approx(2.0)
        assert coeffs[1] == pytest.approx(-1.0)

    def test_repeated_rates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Hypoexponential([0.5, 0.5]).coefficients()


class TestCdf:
    def test_zero_at_zero(self):
        assert Hypoexponential([0.1, 0.2]).cdf(0.0) == 0.0

    def test_approaches_one(self):
        assert Hypoexponential([0.1, 0.2]).cdf(1e5) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Hypoexponential([0.1]).cdf(-1.0)

    def test_array_input(self):
        dist = Hypoexponential([0.1, 0.2])
        values = dist.cdf([1.0, 10.0, 100.0])
        assert values.shape == (3,)
        assert (np.diff(values) >= 0).all()

    def test_matrix_equals_closed_form_when_distinct(self):
        rates = [0.05, 0.11, 0.3]
        closed = Hypoexponential(rates, method="closed-form")
        matrix = Hypoexponential(rates, method="matrix")
        for t in (1.0, 10.0, 50.0, 200.0):
            assert closed.cdf(t) == pytest.approx(matrix.cdf(t), abs=1e-9)

    def test_equal_rates_use_matrix_and_match_erlang(self):
        """All-equal rates give an Erlang distribution."""
        from scipy.stats import erlang

        dist = Hypoexponential([0.2, 0.2, 0.2])
        for t in (1.0, 5.0, 20.0):
            assert dist.cdf(t) == pytest.approx(
                erlang.cdf(t, a=3, scale=5.0), abs=1e-9
            )

    def test_nearly_equal_rates_stable(self):
        dist = Hypoexponential([0.2, 0.2 * (1 + 1e-9), 0.2 * (1 + 2e-9)])
        value = dist.cdf(10.0)
        assert 0.0 <= value <= 1.0

    def test_sf_complements_cdf(self):
        dist = Hypoexponential([0.1, 0.4])
        assert dist.sf(7.0) == pytest.approx(1 - dist.cdf(7.0))


class TestSampling:
    def test_sample_mean_matches(self):
        dist = Hypoexponential([0.1, 0.2])
        draws = dist.sample(size=20000, rng=0)
        assert draws.mean() == pytest.approx(dist.mean(), rel=0.05)

    def test_sample_cdf_agreement(self):
        dist = Hypoexponential([0.05, 0.2, 0.4])
        draws = dist.sample(size=20000, rng=1)
        t = 20.0
        assert (draws <= t).mean() == pytest.approx(dist.cdf(t), abs=0.02)

    def test_bad_size(self):
        with pytest.raises(ValueError, match="size"):
            Hypoexponential([0.1]).sample(size=0)


class TestPdf:
    def test_integrates_to_cdf(self):
        dist = Hypoexponential([0.1, 0.3])
        grid = np.linspace(0, 60, 4000)
        integral = np.trapezoid(dist.pdf(grid), grid)
        assert integral == pytest.approx(dist.cdf(60.0), abs=1e-3)

    def test_matrix_pdf_matches_closed_form(self):
        rates = [0.1, 0.3]
        closed = Hypoexponential(rates, method="closed-form")
        matrix = Hypoexponential(rates, method="matrix")
        assert closed.pdf(5.0) == pytest.approx(matrix.pdf(5.0), abs=1e-9)


class TestProperties:
    """Property-based invariants over random rate vectors."""

    @given(
        rates=st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=6
        ),
        t=st.floats(min_value=0.0, max_value=1e3),
    )
    @settings(max_examples=120, deadline=None)
    def test_cdf_in_unit_interval(self, rates, t):
        value = Hypoexponential(rates).cdf(t)
        assert 0.0 <= value <= 1.0

    @given(
        rates=st.lists(
            st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=5
        ),
        t1=st.floats(min_value=0.0, max_value=500.0),
        t2=st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_cdf_monotone(self, rates, t1, t2):
        lo, hi = sorted((t1, t2))
        dist = Hypoexponential(rates)
        assert dist.cdf(lo) <= dist.cdf(hi) + 1e-12

    @given(
        rates=st.lists(
            st.floats(min_value=1e-2, max_value=5.0),
            min_size=2,
            max_size=5,
            unique=True,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_adding_a_stage_slows_delivery(self, rates):
        """More hops can only reduce P[delay <= t] (stochastic dominance)."""
        shorter = Hypoexponential(rates[:-1])
        longer = Hypoexponential(rates)
        for t in (1.0, 10.0, 100.0):
            assert longer.cdf(t) <= shorter.cdf(t) + 1e-9


class TestDerivedQuantityCaching:
    """coefficients() is computed at most once."""

    def test_coefficients_cached(self):
        dist = Hypoexponential([0.5, 1.0, 2.0])
        first = dist.coefficients()
        assert dist.coefficients() is first

    def test_cached_cdf_matches_fresh_instance(self):
        times = [1.0, 10.0, 100.0]
        dist = Hypoexponential([0.3, 0.7, 1.3])
        warm = [dist.cdf(t) for t in times]  # second sweep hits the caches
        warm = [dist.cdf(t) for t in times]
        fresh = [Hypoexponential([0.3, 0.7, 1.3]).cdf(t) for t in times]
        assert warm == fresh


# ----------------------------------------------------------------------
# a batch of distributions against a per-row, per-deadline scalar oracle
# ----------------------------------------------------------------------
#
# The oracle is the scalar evaluation the batched one replaced: Eq. 5/6
# one row at a time, and Jensen's uniformization one deadline at a time
# with Python-float weights and 1-D state @ transition products. The
# figure digests hash exact float bits, so the batched evaluator must
# reproduce it exactly, not approximately.


def _oracle_coefficients(rates):
    coeffs = np.empty_like(rates)
    for k in range(len(rates)):
        others = np.delete(rates, k)
        coeffs[k] = np.prod(others / (others - rates[k]))
    return coeffs


def _oracle_distinct(rates):
    ordered = sorted(float(r) for r in rates)
    return all(hi - lo > 1e-4 * hi for lo, hi in zip(ordered, ordered[1:]))


def _oracle_propagate(rates, duration):
    eta, biggest = len(rates), max(float(r) for r in rates)
    transition = np.zeros((eta, eta))
    for k, rate in enumerate(rates):
        transition[k, k] = 1.0 - float(rate) / biggest
        if k + 1 < eta:
            transition[k, k + 1] = float(rate) / biggest
    state = np.zeros(eta)
    state[0] = 1.0
    remaining = float(duration)
    while remaining > 0:
        tau = min(remaining, 50.0 / biggest)
        remaining -= tau
        lam_tau = biggest * tau
        weight = math.exp(-lam_tau)
        term = state
        acc = weight * term
        m = 0
        while weight > 1e-18 * (1.0 + acc.sum()) or m < lam_tau:
            m += 1
            term = term @ transition
            weight *= lam_tau / m
            acc = acc + weight * term
        state = acc
    return state


def _oracle_cdf(rates, grid, method="auto"):
    rates = np.asarray(rates, dtype=float)

    def matrix():
        return np.array([1.0 - _oracle_propagate(rates, t).sum() for t in grid])

    if method == "matrix" or not _oracle_distinct(rates):
        values = matrix()
    else:
        terms = _oracle_coefficients(rates)[None, :] * (
            -np.expm1(-np.outer(grid, rates))
        )
        values = terms.sum(axis=1)
        if method == "auto" and (
            np.any(~np.isfinite(values))
            or np.any((values < -1e-9) | (values > 1 + 1e-9))
        ):
            values = matrix()
    return np.clip(values, 0.0, 1.0)


def _rate_rows(seed, rows=60):
    """Rows mixing separated, near-coincident, equal and spread rates."""
    rng = np.random.default_rng(seed)
    out = []
    for index in range(rows):
        eta = int(rng.integers(1, 10))
        base = rng.uniform(0.002, 0.5)
        kind = index % 4
        if kind == 0:
            row = rng.uniform(0.002, 0.5, size=eta)
        elif kind == 1:  # within the 1e-4 relative gap: uniformized
            row = base * (1 + rng.uniform(-1e-5, 1e-5, size=eta))
        elif kind == 2:  # separated but close: cancellation-prone
            row = np.linspace(base, base * 1.15, eta)
        else:
            row = np.full(eta, base)
        out.append(row)
    return out


GRIDS = (
    np.array([0.0, 5.0, 60.0, 240.0, 1800.0]),
    np.array([300.0]),
    np.array([0.0]),
    # Far past 50/Λ for every row above: several uniformization segments.
    np.array([2e4, 1e5]),
)


class TestBatchedEvaluator:
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.size}pts")
    def test_rows_equal_the_scalar_oracle(self, grid):
        rows = _rate_rows(seed=grid.size)
        for eta in {len(row) for row in rows}:
            block = np.array([row for row in rows if len(row) == eta])
            batched = Hypoexponential(block).cdf(grid)
            for row, values in zip(block, batched):
                np.testing.assert_array_equal(values, _oracle_cdf(row, grid))

    def test_matrix_method_equals_the_scalar_oracle(self):
        grid = GRIDS[0]
        block = np.array([row for row in _rate_rows(seed=9) if len(row) == 4])
        batched = Hypoexponential(block, method="matrix").cdf(grid)
        for row, values in zip(block, batched):
            np.testing.assert_array_equal(
                values, _oracle_cdf(row, grid, method="matrix")
            )

    def test_scalar_class_is_one_row_of_the_batch(self):
        grid = np.array([0.0, 10.0, 100.0, 1000.0])
        block = np.array([row for row in _rate_rows(seed=5) if len(row) == 6])
        batched = Hypoexponential(block).cdf(grid)
        for row, values in zip(block, batched):
            np.testing.assert_array_equal(Hypoexponential(row).cdf(grid), values)

    def test_blocking_does_not_change_values(self, monkeypatch):
        from repro.analysis import hypoexponential

        grid = GRIDS[0]
        block = np.array([row for row in _rate_rows(seed=3) if len(row) == 5])
        whole = Hypoexponential(block).cdf(grid)
        monkeypatch.setattr(hypoexponential, "_BLOCK_PAIRS", 1)
        np.testing.assert_array_equal(Hypoexponential(block).cdf(grid), whole)

    def test_matrix_pdf_equals_the_scalar_oracle(self):
        rates = [0.2, 0.2, 0.2 * (1 + 1e-6)]
        grid = np.array([0.0, 1.0, 30.0, 900.0])
        expected = [_oracle_propagate(rates, t)[-1] * rates[-1] for t in grid]
        np.testing.assert_array_equal(Hypoexponential(rates).pdf(grid), expected)

    def test_closed_form_method_rejects_coinciding_rows(self):
        with pytest.raises(ValueError, match="distinct"):
            Hypoexponential(
                np.array([[0.1, 0.3], [0.5, 0.5]]), method="closed-form"
            ).cdf(GRIDS[0])

    def test_scalar_time_gives_one_value_per_row(self):
        batch = Hypoexponential(np.array([[0.1, 0.3], [0.5, 0.9], [0.2, 0.2]]))
        values = batch.cdf(300.0)
        assert values.shape == (3,)
        np.testing.assert_array_equal(values, batch.cdf([300.0])[:, 0])
        np.testing.assert_array_equal(batch.sf(GRIDS[0]), 1.0 - batch.cdf(GRIDS[0]))

    def test_batch_validation(self):
        with pytest.raises(ValueError, match=r"rate λ_2 must be positive, got 0.0"):
            Hypoexponential(np.array([[0.1, 0.2], [0.1, 0.0]]))
        with pytest.raises(ValueError, match="rows, stages"):
            Hypoexponential(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="at least one stage"):
            Hypoexponential(np.empty((3, 0)))

    @pytest.mark.parametrize(
        "call",
        ["rates", "mean", "var", "coefficients", "has_distinct_rates", "pdf", "sample"],
    )
    def test_single_distribution_methods_reject_a_batch(self, call):
        batch = Hypoexponential(np.array([[0.1, 0.3], [0.5, 0.9]]))
        with pytest.raises(ValueError, match="batch of 2"):
            attribute = getattr(batch, call)
            if callable(attribute):
                attribute(1.0) if call == "pdf" else attribute()


@pytest.mark.xfail(
    strict=True,
    reason="method='auto' picks closed form or uniformization per grid, "
    "not per deadline, so cdf(t) depends on the other deadlines",
)
def test_cdf_does_not_depend_on_the_grid():
    dist = Hypoexponential(np.linspace(0.0706, 0.0848, 8))
    assert dist.cdf([10.0])[0] == dist.cdf([1.0, 10.0, 100.0, 1000.0, 10000.0])[1]
