"""The security Monte Carlo's one numpy scoring path.

The compromise models own the mask rule
(:meth:`~repro.adversary.compromise.CompromiseModel.mask_rule`: sort each
key block's selection priority once, then one comparison per rate) and
:func:`~repro.adversary.kernel.trial_scores` turns a mask into Eq. 1
run-length square sums and Eq. 20 exposure counts. This suite checks the
rule against the independent ``np.partition`` oracle of
:mod:`tests.helpers`, the scores against a scalar loop written here, the
kernel's bookkeeping, and that selecting a compiled kernel backend
leaves every security score unchanged: the backend registry serves the
delivery kernels only.
"""

import itertools

import numpy as np
import pytest

from repro.adversary.compromise import (
    BernoulliCompromise,
    CompromiseModel,
    StakeWeightedCompromise,
    TargetedCompromise,
    make_compromise_model,
)
from repro.adversary.kernel import (
    SecurityBatchKernel,
    SecuritySweepVariant,
    sample_security_block,
    trial_scores,
)
from repro.experiments.config import DEFAULT_CONFIG
from repro.experiments.runners import (
    reference_node_weights,
    security_sweep_montecarlo,
)
from repro.sim.backend import ENV_VAR, CcBackend
from tests.helpers import partition_mask, reference_mask

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


def score_with(grid=MIXED_GRID, model_name="uniform", seed=23):
    block = sample_security_block(
        60,
        4,
        k_max=max(v.onion_routers for v in grid),
        l_max=max(v.copies for v in grid),
        trials=250,
        rng=np.random.default_rng(seed),
    )
    kernel = SecurityBatchKernel(block, model_for(model_name, 60))
    return kernel, kernel.score(grid)


def assert_scored_equal(a, b):
    assert len(a) == len(b)
    for (t1, d1), (t2, d2) in zip(a, b):
        assert np.array_equal(t1, t2)
        assert np.array_equal(d1, d2)


class _GivenPriority(CompromiseModel):
    """A fixed-count model whose selection priority is its key block."""

    def selection_priority(self, keys):
        return np.asarray(keys, dtype=float)


def _priorities():
    rng = np.random.default_rng(3)
    uniform = rng.random((300, 60))
    ranked = np.floor(rng.random((300, 60)) * 5) + rng.random((300, 60))
    protected = rng.random((300, 60))
    protected[:, :15] = np.inf
    return {"uniform": uniform, "ranked": ranked, "protected": protected}


PRIORITIES = _priorities()


def scalar_scores(mask, sources, members, onion_routers, copies):
    """Eq. 1 sums and Eq. 20 exposures, one trial and one hop at a time."""
    sums, exposed = [], []
    for t in range(len(sources)):
        row = mask[t]
        run = total = count = 0
        if row[sources[t]]:
            run, count = 1, 1
        for k in range(onion_routers):
            if row[members[t, k, 0]]:
                run += 1
            else:
                total += run * run
                run = 0
            for c in range(copies):
                if row[members[t, k, c]]:
                    count += 1
                    break
        total += run * run
        sums.append(total)
        exposed.append(count)
    return np.array(sums), np.array(exposed)


def every_bit_row_problem(eta, copies, rng):
    """Trials whose copy-0 sender bits run through all ``2**eta`` rows.

    Each trial's mask row compromises a random half of 8 nodes; copy 0's
    senders are drawn from the compromised or the clean half as its bit
    row says, and the other copies' carriers from anywhere.
    """
    n = 8
    rows = np.array(list(itertools.product((0, 1), repeat=eta)), dtype=bool)
    trials = len(rows)
    mask = np.zeros((trials, n), dtype=bool)
    order = np.argsort(rng.random((trials, n)), axis=1)
    np.put_along_axis(mask, order[:, : n // 2], True, axis=1)
    picks = rng.integers(0, n // 2, size=(trials, eta))
    chosen = np.where(
        rows,
        np.take_along_axis(order[:, : n // 2], picks, axis=1),
        np.take_along_axis(order[:, n // 2 :], picks, axis=1),
    )
    members = rng.integers(0, n, size=(trials, max(eta - 1, 1), copies))
    members[:, : eta - 1, 0] = chosen[:, 1:]
    return mask, chosen[:, 0], members


# ----------------------------------------------------------------------
# the mask rule and the scores against independent oracles
# ----------------------------------------------------------------------


class TestOpIdentity:
    @pytest.mark.parametrize("count", [0, 1, 7, 20, 59, 60])
    @pytest.mark.parametrize("name", sorted(PRIORITIES))
    def test_mask_rule_matches_partition_oracle(self, name, count):
        priority = PRIORITIES[name]
        n = priority.shape[1]
        model = _GivenPriority(n, 0.0)
        # round(count - 0.4) == count, and the rate stays below 1.
        rate = max(count - 0.4, 0.0) / n
        expected = partition_mask(priority, count)
        assert np.array_equal(model.mask_rule(priority)(rate), expected)
        assert np.array_equal(model.mask_from_keys(priority, rate), expected)

    @pytest.mark.parametrize(
        "model",
        [
            CompromiseModel(40, 0.1),
            BernoulliCompromise(40, 0.1, protected=[3]),
            TargetedCompromise(40, 0.1, np.repeat([3.0, 2.0, 1.0, 0.5], 10)),
            StakeWeightedCompromise(
                40, 0.1, np.linspace(1.0, 4.0, 40), protected=[0, 7, 39]
            ),
        ],
        ids=lambda model: model.name,
    )
    def test_every_model_matches_oracle_at_every_rate(self, model):
        keys = np.random.default_rng(11).random((500, 40))
        mask_at = model.mask_rule(keys)
        for rate in DEFAULT_CONFIG.compromise_rates:
            expected = reference_mask(model, keys, rate)
            assert np.array_equal(mask_at(rate), expected), rate

    def test_smallest_k_selects_exactly_count(self):
        priority = np.random.default_rng(9).random((100, 40))
        mask = _GivenPriority(40, 0.0).mask_rule(priority)(13 / 40)
        # Continuous priorities: ties are measure-zero, so the mask holds
        # exactly count cells per row.
        assert (mask.sum(axis=1) == 13).all()

    @pytest.mark.parametrize("copies", [1, 2, 3, 4, 5])
    def test_trial_scores_match_scalar_loop(self, copies):
        rng = np.random.default_rng(copies)
        for eta in range(1, 12):
            mask, sources, members = every_bit_row_problem(eta, copies, rng)
            expected = scalar_scores(mask, sources, members, eta - 1, copies)
            got = trial_scores(mask, sources, members, eta - 1, copies)
            for exp, act in zip(expected, got):
                assert act.dtype == np.int64
                assert np.array_equal(exp, act), eta


# ----------------------------------------------------------------------
# a compiled backend selection never reaches the security scores
# ----------------------------------------------------------------------


@pytest.mark.skipif(
    not SECURITY_BACKENDS, reason="no compiled backend available"
)
@pytest.mark.parametrize("backend", SECURITY_BACKENDS)
class TestKernelIdentity:
    @pytest.mark.parametrize(
        "model_name", ["uniform", "bernoulli", "targeted", "stake"]
    )
    def test_every_builtin_model_matches_numpy(
        self, monkeypatch, backend, model_name
    ):
        _, reference = score_with(model_name=model_name)
        monkeypatch.setenv(ENV_VAR, backend)
        _, selected = score_with(model_name=model_name)
        assert_scored_equal(reference, selected)

    def test_mixed_grid_sweep_runner_identical(self, monkeypatch, backend):
        def run():
            return security_sweep_montecarlo(50, 3, MIXED_GRID, 200, rng=13)

        reference = run()
        monkeypatch.setenv(ENV_VAR, backend)
        assert run() == reference

    def test_stats_name_the_backend(self, monkeypatch, backend):
        monkeypatch.setenv(ENV_VAR, backend)
        kernel, _ = score_with()
        assert kernel.backend == "numpy"
        assert kernel.stats["variants_scored"] == len(MIXED_GRID)
        assert kernel.backend_fallbacks == ()


# ----------------------------------------------------------------------
# kernel bookkeeping
# ----------------------------------------------------------------------


class TestKernelBookkeeping:
    def test_anonymity_lookup_traffic_counted(self):
        kernel, _ = score_with()
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
        kernel = SecurityBatchKernel(block, model)
        scored = kernel.score(grid)
        # Two distinct rates → two mask derivations, two cache hits; the
        # reuse must not change any scores vs a fresh kernel per variant.
        assert kernel.stats["mask_cache_misses"] == 2
        assert kernel.stats["mask_cache_hits"] == 2
        for point, result in zip(grid, scored):
            fresh_kernel = SecurityBatchKernel(block, model)
            fresh = fresh_kernel.score((point,))
            assert fresh_kernel.stats["mask_cache_hits"] == 0
            assert_scored_equal((result,), fresh)

    def test_mask_cache_stays_bounded(self):
        cap = SecurityBatchKernel.MASK_CACHE_SIZE
        grid = tuple(
            variant(2, 1, rate)
            for rate in np.linspace(0.01, 0.6, cap + 5)
        )
        kernel, _ = score_with(grid=grid)
        assert len(kernel._mask_cache) == cap
        assert kernel.stats["mask_cache_misses"] == cap + 5


def test_numpy_op_failure_propagates(monkeypatch):
    # A failing scoring pass is a real error: it propagates out of the
    # kernel after one call, with nothing recorded and nothing retried.
    calls = []

    def explode(*args, **kwargs):
        calls.append("trial_scores")
        raise ZeroDivisionError("injected numpy trial_scores failure")

    monkeypatch.setattr("repro.adversary.kernel.trial_scores", explode)
    block = sample_security_block(
        60, 4, k_max=3, l_max=1, trials=50, rng=np.random.default_rng(23)
    )
    kernel = SecurityBatchKernel(block, model_for("uniform", 60))
    with pytest.raises(ZeroDivisionError, match="injected numpy"):
        kernel.score((variant(3, 1, 0.10),))
    assert calls == ["trial_scores"]
    assert kernel.backend == "numpy"
    assert kernel.backend_fallbacks == ()
