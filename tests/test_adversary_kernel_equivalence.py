"""Security kernel vs the scalar oracle must be estimate-for-estimate identical.

The :class:`~repro.adversary.kernel.SecurityBatchKernel` claims that for a
shared :class:`~repro.adversary.kernel.SecurityTrialBlock` the vectorised
run-length traceable rate and the LUT-based entropy-ratio anonymity equal
the per-trial ``PathTracer`` / ``observed_path_anonymity`` walk exactly —
not statistically, bit-for-bit: both consume the same sampled draws, the
run-length sums are small exact integers, and the anonymity values come
from the same ``path_anonymity_exact`` evaluations. The walk is the test
oracle :func:`tests.helpers.reference_security_score`, monkeypatched over
``SecurityBatchKernel.score`` so runners, figures and the parallel merge
run unchanged through it. These tests check the claim across grid shapes,
compromise models, topologies, figure series and the two-worker merge,
plus the rejection of sample-only models and the one-rung security chunk
ladder.
"""

import numpy as np
import pytest

from repro.adversary.compromise import (
    CompromiseModel,
    make_compromise_model,
)
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    anonymity_lookup,
    sample_security_block,
)
from repro.analysis.anonymity import path_anonymity_exact
from repro.analysis.traceable import traceable_rate_empirical
from repro.experiments import runners
from repro.experiments.parallel import (
    WorkerPool,
    _run_montecarlo_chunk,
    run_parallel_montecarlo,
)
from repro.experiments.runners import (
    reference_node_weights,
    security_montecarlo,
    security_sweep_montecarlo,
)
from repro.utils.resilience import (
    CHUNK_ERROR,
    KERNEL_FALLBACK,
    ExecutionReport,
    RetryPolicy,
)
from tests.helpers import block_copy_paths, reference_security_score


def variant(onion_routers=3, copies=1, rate=0.1):
    return SecuritySweepVariant(
        label=f"K={onion_routers} L={copies} c={rate:g}",
        onion_routers=onion_routers,
        copies=copies,
        compromise_rate=rate,
    )


MIXED_GRID = (
    variant(3, 1, 0.10),
    variant(5, 3, 0.30),
    variant(2, 2, 0.02),
    variant(3, 5, 0.50),
)


@pytest.fixture
def oracle(monkeypatch):
    """Run a thunk with the scalar oracle in place of the kernel's scoring."""

    def run(thunk):
        with monkeypatch.context() as patch:
            patch.setattr(SecurityBatchKernel, "score", reference_security_score)
            return thunk()

    return run


# ----------------------------------------------------------------------
# single-point equivalence across the parameter space
# ----------------------------------------------------------------------


class TestSinglePointEquivalence:
    @pytest.mark.parametrize("onion_routers", [1, 3, 7])
    @pytest.mark.parametrize("copies", [1, 3])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_kernel_matches_scalar_exactly(
        self, oracle, onion_routers, copies, rate
    ):
        args = (100, 3, onion_routers, copies, rate, 400)
        kernel = security_montecarlo(*args, rng=11)
        scalar = oracle(lambda: security_montecarlo(*args, rng=11))
        assert kernel == scalar

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_is_the_kernel_path(self, seed):
        # The runner's means are the kernel's scores of the block its own
        # seed samples — nothing else sits between the two.
        default = security_montecarlo(60, 4, 3, 2, 0.2, 300, rng=seed)
        block = sample_security_block(
            60, 4, k_max=3, l_max=2, trials=300, rng=np.random.default_rng(seed)
        )
        (traceable, anonymity), = SecurityBatchKernel(
            block, CompromiseModel(60, 0.2)
        ).score((variant(3, 2, 0.2),))
        assert default == (traceable.sum() / 300, anonymity.sum() / 300)

    def test_overlapping_groups_equivalence(self, oracle):
        # Cambridge scale: disjoint groups impossible at n=12, g=10.
        args = (12, 10, 3, 1, 0.25, 400)
        kernel = security_montecarlo(*args, rng=7, overlapping=True)
        scalar = oracle(
            lambda: security_montecarlo(*args, rng=7, overlapping=True)
        )
        assert kernel == scalar

    def test_zero_compromise(self):
        traceable, anonymity = security_montecarlo(
            100, 5, 3, 1, 0.0, 200, rng=3
        )
        assert traceable == 0.0
        assert anonymity == pytest.approx(1.0)

    def test_estimates_lie_in_range(self):
        traceable, anonymity = security_montecarlo(100, 5, 3, 3, 0.3, 500, rng=9)
        assert 0.0 <= traceable <= 1.0
        assert 0.0 <= anonymity <= 1.0


# ----------------------------------------------------------------------
# fused sweeps: shared block, common random numbers
# ----------------------------------------------------------------------


class TestFusedSweepEquivalence:
    @pytest.mark.parametrize("overlapping,n,g", [(False, 100, 3), (True, 12, 10)])
    def test_mixed_grid_matches_scalar(self, oracle, overlapping, n, g):
        def run():
            return security_sweep_montecarlo(
                n, g, MIXED_GRID, 300, rng=5, overlapping=overlapping
            )

        kernel = run()
        scalar = oracle(run)
        assert kernel == scalar
        assert len(kernel) == 2 * len(MIXED_GRID)

    @pytest.mark.parametrize("name", ["uniform", "bernoulli", "targeted", "stake"])
    def test_every_builtin_model_matches_scalar(self, oracle, name):
        def run():
            return security_sweep_montecarlo(
                50, 3, MIXED_GRID, 200, rng=13, compromise_model=name
            )

        assert run() == oracle(run)

    def test_common_random_numbers_nest_uniform_masks(self):
        # Same block, rising rates: the uniform model compromises the
        # count smallest keys, so lower-rate sets nest in higher-rate sets.
        block = sample_security_block(
            60, 3, k_max=3, l_max=1, trials=50, rng=np.random.default_rng(1)
        )
        model = CompromiseModel(60, 0.1)
        masks = [
            model.mask_from_keys(block.compromise_keys, rate=rate)
            for rate in (0.1, 0.2, 0.4)
        ]
        assert np.all(masks[0] <= masks[1])
        assert np.all(masks[1] <= masks[2])

    def test_variant_prefix_property(self):
        # A fused grid samples one block at (k_max, l_max); a K=3 variant
        # scored there must match a dedicated K=3 block's leading columns,
        # which the single-variant sweep realises with the same rng.
        grid = (variant(3, 1, 0.1), variant(3, 1, 0.3))
        fused = security_sweep_montecarlo(80, 3, grid, 250, rng=21)
        masks_only_differ = fused[0] != fused[2] or fused[1] != fused[3]
        assert masks_only_differ  # different rates actually score differently

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one variant"):
            security_sweep_montecarlo(100, 3, (), 100, rng=0)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            security_sweep_montecarlo(
                100, 3, (variant(0, 1, 0.1),), 100, rng=0
            )
        with pytest.raises(ValueError):
            security_sweep_montecarlo(
                100, 3, (variant(3, 1, 1.5),), 100, rng=0
            )


# ----------------------------------------------------------------------
# figure series: kernel and oracle produce the same figures
# ----------------------------------------------------------------------


class TestFigureSeriesEquivalence:
    def test_figure_06_series_identical(self, oracle):
        from repro.experiments.security_figs import figure_06

        kernel = figure_06(trials=150)
        scalar = oracle(lambda: figure_06(trials=150))
        assert len(kernel.series) == len(scalar.series)
        for a, b in zip(kernel.series, scalar.series):
            assert a.label == b.label
            assert a.points == b.points

    def test_figure_12_series_identical(self, oracle):
        from repro.experiments.security_figs import figure_12

        kernel = figure_12(trials=150)
        scalar = oracle(lambda: figure_12(trials=150))
        assert len(kernel.series) == len(scalar.series)
        for a, b in zip(kernel.series, scalar.series):
            assert a.points == b.points

    def test_figure_19_series_identical(self, oracle):
        from repro.experiments.trace_figs import figure_19

        kernel = figure_19(trials=150)
        scalar = oracle(lambda: figure_19(trials=150))
        assert len(kernel.series) == len(scalar.series)
        for a, b in zip(kernel.series, scalar.series):
            assert a.points == b.points

    def test_figure_metadata_names_the_adversary(self):
        from repro.experiments.security_figs import figure_08

        result = figure_08(trials=100, compromise_model="targeted")
        assert result.metadata["compromise_model"] == "targeted"


# ----------------------------------------------------------------------
# model checks: population, type, and sample-only extensions
# ----------------------------------------------------------------------


class _PerTrialOnly(CompromiseModel):
    """A custom adversary that only knows how to sample one trial."""

    def sample(self, rng=None):
        return self.sample_fixed_count(rng)


class _PerTrialWithPriority(_PerTrialOnly):
    """The same adversary, also exposing the key-column contract."""

    def selection_priority(self, keys):
        return super().selection_priority(keys)


class _MaskFromKeysOnly(CompromiseModel):
    """A custom adversary that overrides the one-rate mask only."""

    def mask_from_keys(self, keys, rate=None):
        return np.zeros(np.shape(keys), dtype=bool)


class _WithMaskRule(_MaskFromKeysOnly):
    """The same adversary, also exposing the rule the kernel scores."""

    def mask_rule(self, keys):
        return lambda rate: self.mask_from_keys(keys, rate)


class TestIneligibleModels:
    def test_sample_only_model_rejected(self):
        # Scoring runs off the key column only; a model that overrides
        # sample() alone would silently be scored as the uniform model.
        with pytest.raises(TypeError, match="selection_priority.*mask_from_keys"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0,
                compromise_model=_PerTrialOnly(50, 0.2),
            )
        accepted = security_montecarlo(
            50, 3, 3, 1, 0.2, 50, rng=0,
            compromise_model=_PerTrialWithPriority(50, 0.2),
        )
        assert accepted == security_montecarlo(50, 3, 3, 1, 0.2, 50, rng=0)

    def test_mask_from_keys_only_model_rejected(self):
        # The kernel derives masks through mask_rule(); an override of
        # mask_from_keys() alone would be bypassed, not scored.
        with pytest.raises(TypeError, match="selection_priority.*mask_rule"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0,
                compromise_model=_MaskFromKeysOnly(50, 0.2),
            )
        traceable, anonymity = security_montecarlo(
            50, 3, 3, 1, 0.2, 50, rng=0,
            compromise_model=_WithMaskRule(50, 0.2),
        )
        assert traceable == 0.0 and anonymity == 1.0

    def test_model_population_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n=40"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0,
                compromise_model=CompromiseModel(40, 0.2),
            )

    def test_model_type_rejected(self):
        with pytest.raises(TypeError, match="CompromiseModel"):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0, compromise_model=3.14
            )


# ----------------------------------------------------------------------
# the chunk ladder: a security chunk has a single rung
# ----------------------------------------------------------------------


class TestDegradationRung:
    def test_chunk_kernel_failure_reraises(self, monkeypatch):
        kwargs = dict(
            n=50, group_size=3, onion_routers=3, copies=1,
            compromise_rate=0.2,
        )

        def broken_score(self, variants):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(SecurityBatchKernel, "score", broken_score)
        with pytest.raises(RuntimeError, match="injected kernel failure"):
            _run_montecarlo_chunk(
                security_montecarlo, 150, np.random.SeedSequence(123), kwargs
            )
        # Supervised, the error is retried and then raised; no rung
        # records a kernel fallback on the way.
        report = ExecutionReport()
        policy = RetryPolicy(max_retries=1, backoff=0.0, sleep=lambda _: None)
        with WorkerPool(2, max_processes=1, policy=policy, report=report) as pool:
            with pytest.raises(RuntimeError, match="injected kernel failure"):
                run_parallel_montecarlo(
                    security_montecarlo, trials=40, workers=pool, rng=1,
                    chunks=2, **kwargs,
                )
        counts = report.counts()
        assert counts.get(CHUNK_ERROR) == 2
        assert KERNEL_FALLBACK not in counts

    def test_clean_chunk_records_no_events(self):
        payload = _run_montecarlo_chunk(
            security_montecarlo,
            100,
            np.random.SeedSequence(5),
            dict(n=50, group_size=3, onion_routers=3, copies=1,
                 compromise_rate=0.2),
        )
        assert payload.events == []


# ----------------------------------------------------------------------
# kernel internals against the reference implementations
# ----------------------------------------------------------------------


class TestKernelInternals:
    def test_anonymity_lookup_matches_exact_formula(self):
        n, eta, group_size = 40, 4, 5
        table = anonymity_lookup(n, eta, group_size)
        assert len(table) == eta + 1
        for exposed in range(eta + 1):
            assert table[exposed] == path_anonymity_exact(
                n, eta, group_size, exposed
            )

    def test_run_length_scoring_matches_empirical(self):
        rng = np.random.default_rng(0)
        block = sample_security_block(
            30, 3, k_max=4, l_max=1, trials=64, rng=rng
        )
        model = CompromiseModel(30, 0.3)
        kernel = SecurityBatchKernel(block, model)
        v = variant(4, 1, 0.3)
        traceable, _ = kernel.score_variant(v)
        mask = model.mask_from_keys(block.compromise_keys, rate=0.3)
        for trial in range(block.trials):
            path = block_copy_paths(block, trial, 4, 1)[0]
            bits = [1 if node in set(np.flatnonzero(mask[trial])) else 0
                    for node in path]
            assert traceable[trial] == traceable_rate_empirical(bits)

    def test_block_shapes(self):
        block = sample_security_block(
            60, 4, k_max=5, l_max=3, trials=32, rng=np.random.default_rng(1)
        )
        assert block.trials == 32
        assert block.k_max == 5
        assert block.l_max == 3
        assert block.copy_members.shape == (32, 5, 3)
        assert block.compromise_keys.shape == (32, 60)
        assert not np.any(block.sources == block.destinations)

    def test_block_excludes_endpoints_from_routes(self):
        block = sample_security_block(
            12, 10, k_max=3, l_max=2, trials=64,
            rng=np.random.default_rng(2), overlapping=True,
        )
        for trial in range(block.trials):
            members = block.copy_members[trial]
            assert block.sources[trial] not in members
            assert block.destinations[trial] not in members

    def test_variant_wider_than_block_rejected(self):
        block = sample_security_block(
            30, 3, k_max=3, l_max=1, trials=8, rng=np.random.default_rng(0)
        )
        kernel = SecurityBatchKernel(block, CompromiseModel(30, 0.1))
        with pytest.raises(ValueError, match="k_max"):
            kernel.score_variant(variant(5, 1, 0.1))
        with pytest.raises(ValueError, match="l_max"):
            kernel.score_variant(variant(3, 2, 0.1))

    def test_impossible_disjoint_route_rejected(self):
        with pytest.raises(ValueError):
            sample_security_block(
                12, 3, k_max=4, l_max=1, trials=8,
                rng=np.random.default_rng(0),
            )

    def test_impossible_overlapping_group_rejected(self):
        with pytest.raises(ValueError):
            sample_security_block(
                12, 11, k_max=3, l_max=1, trials=8,
                rng=np.random.default_rng(0), overlapping=True,
            )


# ----------------------------------------------------------------------
# parallel merge and reference weights
# ----------------------------------------------------------------------


class TestParallelAndWeights:
    def test_worker_merge_identical_for_kernel_and_scalar(self, oracle):
        common = dict(
            n=50, group_size=3, variants=list(MIXED_GRID), trials=120,
            chunks=2, rng=31,
        )
        kernel = run_parallel_montecarlo(
            security_sweep_montecarlo, workers=2, **common
        )
        # Two requested workers run inline, so the oracle patch is in
        # effect for every chunk whatever the process start method.
        with WorkerPool(2, max_processes=1) as pool:
            scalar = oracle(
                lambda: run_parallel_montecarlo(
                    security_sweep_montecarlo, workers=pool, **common
                )
            )
        assert kernel == scalar

    def test_reference_weights_deterministic(self):
        assert reference_node_weights(30) == reference_node_weights(30)
        assert len(reference_node_weights(30)) == 30
        assert all(w > 0 for w in reference_node_weights(30))

    def test_string_model_resolves_with_weights(self):
        resolved = runners._resolve_compromise_model("targeted", 30)
        assert resolved.n == 30
        assert resolved.name == "targeted"

    def test_unknown_model_name_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            security_montecarlo(
                50, 3, 3, 1, 0.2, 50, rng=0, compromise_model="nonsense"
            )
