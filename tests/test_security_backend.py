"""Backend coverage of the security Monte Carlo ops.

PR 9 put the delivery kernels behind the :mod:`repro.sim.backend` seam;
this suite covers the adversary side: ``smallest_k_mask`` (the
compromise-set selection behind every fixed-count strategy) and the
fused ``security_scores`` pass (Eq. 1 run-length square sums + Eq. 20
exposure counts) must be byte-identical across numpy and every compiled
backend available here, for every built-in compromise model and mixed
fused grids; a compiled op that fails mid-run degrades to numpy without
changing outcomes, while a failing numpy op propagates; and requesting
``cc`` without a C compiler resolves to numpy with a ``KernelFallback``
event — never an error.
"""

import numpy as np
import pytest

from repro.adversary.compromise import make_compromise_model
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    sample_security_block,
)
from repro.experiments.runners import (
    reference_node_weights,
    security_sweep_montecarlo,
)
from repro.sim.backend import (
    CcBackend,
    NumpyBackend,
    _reset_backend_caches,
    resolve_backend,
)
from repro.utils.resilience import KERNEL_FALLBACK

# The compiled backend, when a C compiler makes it usable here.
SECURITY_BACKENDS = ["cc"] if CcBackend.available() else []


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


def model_for(name, n, rate=0.1):
    weights = (
        reference_node_weights(n) if name in ("targeted", "stake") else None
    )
    return make_compromise_model(name, n, rate, weights=weights)


def score_with(backend, grid=MIXED_GRID, model_name="uniform", seed=23):
    block = sample_security_block(
        60,
        4,
        k_max=max(v.onion_routers for v in grid),
        l_max=max(v.copies for v in grid),
        trials=250,
        rng=np.random.default_rng(seed),
    )
    kernel = SecurityBatchKernel(
        block, model_for(model_name, 60), backend=backend
    )
    return kernel, kernel.score(grid)


def assert_scored_equal(a, b):
    assert len(a) == len(b)
    for (t1, d1), (t2, d2) in zip(a, b):
        assert np.array_equal(t1, t2)
        assert np.array_equal(d1, d2)


# ----------------------------------------------------------------------
# op-level byte identity
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not SECURITY_BACKENDS, reason="no compiled backend available"
)
@pytest.mark.parametrize("backend", SECURITY_BACKENDS)
class TestOpIdentity:
    def priorities(self):
        rng = np.random.default_rng(3)
        uniform = rng.random((300, 60))
        ranked = np.floor(rng.random((300, 60)) * 5) + rng.random((300, 60))
        protected = rng.random((300, 60))
        protected[:, :15] = np.inf
        return {"uniform": uniform, "ranked": ranked, "protected": protected}

    def test_smallest_k_mask_identical(self, backend):
        reference = resolve_backend("numpy")
        compiled = resolve_backend(backend)
        compiled.warmup()
        for priority in self.priorities().values():
            for count in (0, 1, 7, 20, 59, 60):
                expected = reference.smallest_k_mask(priority, count)
                got = compiled.smallest_k_mask(priority, count)
                assert got.dtype == np.bool_
                assert np.array_equal(expected, got)

    def test_smallest_k_selects_exactly_count(self, backend):
        priority = np.random.default_rng(9).random((100, 40))
        mask = resolve_backend(backend).smallest_k_mask(priority, 13)
        # Continuous priorities: ties are measure-zero, so the mask holds
        # exactly count cells per row on every backend.
        assert (mask.sum(axis=1) == 13).all()

    def test_security_scores_identical(self, backend):
        rng = np.random.default_rng(5)
        trials, n, k_max, l_max = 300, 60, 7, 5
        mask = rng.random((trials, n)) < 0.3
        sources = rng.integers(0, n, size=trials)
        members = rng.integers(0, n, size=(trials, k_max, l_max))
        reference = resolve_backend("numpy")
        compiled = resolve_backend(backend)
        for onion_routers, copies in ((1, 1), (3, 2), (7, 5), (5, 1)):
            expected = reference.security_scores(
                mask, sources, members, onion_routers, copies
            )
            got = compiled.security_scores(
                mask, sources, members, onion_routers, copies
            )
            for exp, act in zip(expected, got):
                assert act.dtype == np.int64
                assert np.array_equal(exp, act)


# ----------------------------------------------------------------------
# kernel-level byte identity across models and grids
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not SECURITY_BACKENDS, reason="no compiled backend available"
)
@pytest.mark.parametrize("backend", SECURITY_BACKENDS)
class TestKernelIdentity:
    @pytest.mark.parametrize(
        "model_name", ["uniform", "bernoulli", "targeted", "stake"]
    )
    def test_every_builtin_model_matches_numpy(self, backend, model_name):
        _, reference = score_with("numpy", model_name=model_name)
        _, compiled = score_with(backend, model_name=model_name)
        assert_scored_equal(reference, compiled)

    def test_mixed_grid_sweep_runner_identical(self, backend):
        runs = {}
        for name in ("numpy", backend):
            runs[name] = security_sweep_montecarlo(
                50, 3, MIXED_GRID, 200, rng=13, backend=name
            )
        assert runs["numpy"] == runs[backend]

    def test_stats_name_the_backend(self, backend):
        kernel, _ = score_with(backend)
        assert kernel.backend == backend
        assert kernel.stats["requested_backend"] == backend
        assert kernel.stats["variants_scored"] == len(MIXED_GRID)
        assert kernel.stats["backend_seconds"] >= 0.0
        assert kernel.backend_fallbacks == ()


# ----------------------------------------------------------------------
# kernel bookkeeping (backend-independent)
# ----------------------------------------------------------------------


class TestKernelBookkeeping:
    def test_anonymity_lookup_traffic_counted(self):
        kernel, _ = score_with("numpy")
        stats = kernel.stats
        # Four variants over two distinct eta values: every fetch is
        # counted, hits + misses == variants scored.
        assert (
            stats["anonymity_lookup_hits"] + stats["anonymity_lookup_misses"]
            == len(MIXED_GRID)
        )
        assert stats["anonymity_lookup_hits"] >= 1

    def test_mask_reused_across_route_shapes(self):
        grid = (
            variant(3, 1, 0.10),
            variant(5, 1, 0.10),
            variant(2, 1, 0.10),
            variant(3, 1, 0.30),
        )
        block = sample_security_block(
            60, 4, k_max=5, l_max=1, trials=250, rng=np.random.default_rng(23)
        )
        model = model_for("uniform", 60)
        kernel = SecurityBatchKernel(block, model, backend="numpy")
        scored = kernel.score(grid)
        # Two distinct rates → two mask derivations, two cache hits; the
        # reuse must not change any scores vs a fresh kernel per variant.
        assert kernel.stats["mask_cache_misses"] == 2
        assert kernel.stats["mask_cache_hits"] == 2
        for point, result in zip(grid, scored):
            fresh_kernel = SecurityBatchKernel(block, model, backend="numpy")
            fresh = fresh_kernel.score((point,))
            assert fresh_kernel.stats["mask_cache_hits"] == 0
            assert_scored_equal((result,), fresh)

    def test_mask_cache_stays_bounded(self):
        cap = SecurityBatchKernel.MASK_CACHE_SIZE
        grid = tuple(
            variant(2, 1, rate)
            for rate in np.linspace(0.01, 0.6, cap + 5)
        )
        kernel, _ = score_with("numpy", grid=grid)
        assert len(kernel._mask_cache) == cap
        assert kernel.stats["mask_cache_misses"] == cap + 5


# ----------------------------------------------------------------------
# degradation: mid-run op failure and the compiler-less cc resolve
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not CcBackend.available(), reason="cc backend needs a C compiler"
)
class TestMidRunDegradation:
    @pytest.mark.parametrize("op", ["smallest_k_mask", "security_scores"])
    def test_security_op_failure_degrades_and_matches(self, monkeypatch, op):
        _, reference = score_with("numpy")

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected security-op failure")

        monkeypatch.setattr(CcBackend, op, explode)
        kernel, degraded = score_with("cc")

        assert kernel.backend == "numpy"
        assert kernel.stats["backend"] == "numpy"
        assert kernel.backend_fallbacks
        assert op in kernel.backend_fallbacks[0]
        assert "injected security-op failure" in kernel.backend_fallbacks[0]
        events = kernel.fallback_events
        assert events and events[0].kind == KERNEL_FALLBACK
        assert events[0].resolution == "degraded"
        assert_scored_equal(reference, degraded)


def test_numpy_op_failure_propagates(monkeypatch):
    # A failing numpy op is a real error: the shared ``_op`` re-raises it
    # after one call, with nothing recorded and nothing retried.
    calls = []

    def explode(self, *args, **kwargs):
        calls.append("security_scores")
        raise ZeroDivisionError("injected numpy security_scores failure")

    monkeypatch.setattr(NumpyBackend, "security_scores", explode)
    block = sample_security_block(
        60, 4, k_max=3, l_max=1, trials=50, rng=np.random.default_rng(23)
    )
    kernel = SecurityBatchKernel(block, model_for("uniform", 60), backend="numpy")
    with pytest.raises(ZeroDivisionError, match="injected numpy"):
        kernel.score((variant(3, 1, 0.10),))
    assert calls == ["security_scores"]
    assert kernel.backend == "numpy"
    assert kernel.backend_fallbacks == ()
    assert kernel.fallback_events == ()


class TestUnavailableFallback:
    @pytest.fixture(autouse=True)
    def no_compiler(self, monkeypatch):
        _reset_backend_caches()
        monkeypatch.setattr(CcBackend, "_compiler", classmethod(lambda cls: None))
        yield
        _reset_backend_caches()

    def test_missing_compiler_degrades_with_event(self):
        # Requesting cc without a C compiler is a recorded degradation,
        # not an error, and the scores stay those of numpy.
        _, reference = score_with("numpy")
        kernel, degraded = score_with("cc")
        assert kernel.backend == "numpy"
        assert kernel.stats["requested_backend"] == "cc"
        events = kernel.fallback_events
        assert events and events[0].kind == KERNEL_FALLBACK
        assert "'cc'" in events[0].detail
        assert_scored_equal(reference, degraded)
