"""Tests for the adversary model: compromise, tracing, anonymity observation."""

import numpy as np
import pytest

from repro.adversary.compromise import (
    COMPROMISE_MODELS,
    BernoulliCompromise,
    CompromiseModel,
    StakeWeightedCompromise,
    TargetedCompromise,
    make_compromise_model,
)
from repro.adversary.observer import (
    observed_exposed_hops,
    observed_path_anonymity,
)
from repro.adversary.tracer import PathTracer
from repro.analysis.anonymity import path_anonymity_exact


class TestCompromiseModel:
    def test_fixed_count(self):
        model = CompromiseModel(100, 0.2)
        compromised = model.sample_fixed_count(rng=0)
        assert len(compromised) == 20
        assert all(0 <= v < 100 for v in compromised)

    def test_zero_rate(self):
        assert CompromiseModel(50, 0.0).sample_fixed_count(rng=0) == set()

    def test_protected_nodes_never_compromised(self):
        model = CompromiseModel(20, 0.5, protected=[0, 19])
        for seed in range(20):
            compromised = model.sample_fixed_count(rng=seed)
            assert 0 not in compromised
            assert 19 not in compromised

    def test_protected_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            CompromiseModel(10, 0.1, protected=[10])

    @pytest.mark.parametrize(
        "node",
        [2.0, 2.5, True, np.bool_(True), "2"],
        ids=["float", "fraction", "bool", "numpy-bool", "str"],
    )
    def test_protected_non_integer_rejected(self, node):
        # Rejected at construction, not as an IndexError mid-Monte-Carlo.
        with pytest.raises(ValueError, match="integers"):
            CompromiseModel(10, 0.2, protected=[node])

    def test_protected_numpy_integers_accepted(self):
        model = CompromiseModel(10, 0.2, protected=np.array([2, 5]))
        assert model.protected == frozenset({2, 5})
        keys = np.random.default_rng(0).random((4, 10))
        assert not model.mask_from_keys(keys)[:, [2, 5]].any()

    def test_bernoulli_rate(self):
        model = CompromiseModel(2000, 0.3)
        compromised = model.sample_bernoulli(rng=0)
        assert len(compromised) == pytest.approx(600, rel=0.15)

    def test_expected_count(self):
        assert CompromiseModel(100, 0.25).expected_count == 25.0

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            CompromiseModel(10, 1.0)

    def test_samples_vary_with_seed(self):
        model = CompromiseModel(100, 0.1)
        assert model.sample_fixed_count(rng=1) != model.sample_fixed_count(rng=2)


class TestCompromiseStrategies:
    """The strategy family built on the shared key-column contract."""

    def test_uniform_mask_count_is_exact(self):
        model = CompromiseModel(40, 0.25)
        keys = np.random.default_rng(0).random((16, 40))
        mask = model.mask_from_keys(keys)
        assert mask.shape == (16, 40)
        assert np.all(mask.sum(axis=1) == 10)

    def test_uniform_sample_matches_mask_derivation(self):
        model = CompromiseModel(40, 0.25)
        assert model.sample(rng=7) == model.sample(rng=7)
        assert len(model.sample(rng=7)) == 10

    def test_masks_nest_across_rates(self):
        keys = np.random.default_rng(1).random((32, 50))
        for model in (CompromiseModel(50, 0.1), BernoulliCompromise(50, 0.1)):
            low = model.mask_from_keys(keys, rate=0.1)
            high = model.mask_from_keys(keys, rate=0.4)
            assert np.all(low <= high)

    def test_bernoulli_mask_is_key_threshold(self):
        model = BernoulliCompromise(30, 0.3)
        keys = np.random.default_rng(2).random((8, 30))
        assert np.array_equal(model.mask_from_keys(keys), keys < 0.3)

    def test_targeted_hits_top_weights_first(self):
        weights = list(range(20))  # node 19 best connected
        model = TargetedCompromise(20, 0.2, weights)
        keys = np.random.default_rng(3).random((5, 20))
        mask = model.mask_from_keys(keys)
        # distinct weights: deterministic, the top-4 nodes in every trial
        assert np.all(mask[:, [19, 18, 17, 16]])
        assert mask.sum() == 5 * 4

    def test_targeted_breaks_ties_with_keys(self):
        model = TargetedCompromise(10, 0.2, [1.0] * 10)
        keys = np.random.default_rng(4).random((64, 10))
        mask = model.mask_from_keys(keys)
        assert np.all(mask.sum(axis=1) == 2)
        # all-equal weights degenerate to the uniform model
        uniform = CompromiseModel(10, 0.2).mask_from_keys(keys)
        assert np.array_equal(mask, uniform)

    def test_stake_weighting_prefers_large_stakes(self):
        stakes = [1.0] * 19 + [1000.0]
        model = StakeWeightedCompromise(20, 0.1, stakes)
        keys = np.random.default_rng(5).random((200, 20))
        mask = model.mask_from_keys(keys)
        assert np.all(mask.sum(axis=1) == 2)
        assert mask[:, 19].mean() > 0.9

    def test_protected_nodes_never_masked(self):
        keys = np.random.default_rng(6).random((32, 12))
        models = [
            CompromiseModel(12, 0.5, protected=[0, 11]),
            BernoulliCompromise(12, 0.5, protected=[0, 11]),
            TargetedCompromise(12, 0.5, list(range(12)), protected=[0, 11]),
            StakeWeightedCompromise(12, 0.5, [1.0] * 12, protected=[0, 11]),
        ]
        for model in models:
            mask = model.mask_from_keys(keys)
            assert not mask[:, 0].any(), model.name
            assert not mask[:, 11].any(), model.name

    def test_bad_key_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CompromiseModel(10, 0.1).mask_from_keys(np.zeros((4, 9)))

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="shape"):
            TargetedCompromise(10, 0.1, [1.0] * 9)
        with pytest.raises(ValueError, match="finite"):
            TargetedCompromise(10, 0.1, [np.inf] * 10)
        with pytest.raises(ValueError, match="positive"):
            StakeWeightedCompromise(10, 0.1, [0.0] * 10)

    def test_registry_and_factory(self):
        assert set(COMPROMISE_MODELS) == {
            "uniform", "bernoulli", "targeted", "stake"
        }
        model = make_compromise_model("targeted", 10, 0.2, weights=range(10))
        assert isinstance(model, TargetedCompromise)
        with pytest.raises(ValueError, match="unknown compromise model"):
            make_compromise_model("nonsense", 10, 0.2)
        with pytest.raises(ValueError, match="requires weights"):
            make_compromise_model("stake", 10, 0.2)
        with pytest.raises(ValueError, match="does not take weights"):
            make_compromise_model("uniform", 10, 0.2, weights=range(10))


class TestPathTracer:
    def test_bits_and_rate(self):
        tracer = PathTracer({1, 2, 4})
        # path senders v1 v2 v3 v4 (hops 1-4): bits 1101
        assert tracer.bits([1, 2, 3, 4]) == [1, 1, 0, 1]
        assert tracer.traceable_rate([1, 2, 3, 4]) == pytest.approx(0.3125)

    def test_disclosed_links(self):
        tracer = PathTracer({1, 3})
        assert tracer.disclosed_links([1, 2, 3, 4]) == 2

    def test_no_compromise_zero(self):
        tracer = PathTracer(set())
        assert tracer.traceable_rate([1, 2, 3]) == 0.0

    def test_mean_over_paths(self):
        tracer = PathTracer({1})
        mean = tracer.mean_traceable_rate([[1, 2], [3, 4]])
        assert mean == pytest.approx((0.25 + 0.0) / 2)

    def test_mean_requires_paths(self):
        with pytest.raises(ValueError):
            PathTracer(set()).mean_traceable_rate([])

    def test_mean_empty_error_names_the_context(self):
        with pytest.raises(ValueError, match="figure 6 sessions"):
            PathTracer(set()).mean_traceable_rate([], context="figure 6 sessions")

    def test_mean_streams_generators(self):
        tracer = PathTracer({1})
        mean = tracer.mean_traceable_rate(p for p in ([1, 2], [3, 4]))
        assert mean == pytest.approx((0.25 + 0.0) / 2)

    def test_compromised_is_frozen_copy(self):
        source = {1, 2}
        tracer = PathTracer(source)
        source.add(3)
        assert 3 not in tracer.compromised


class TestObserver:
    def test_single_path_count(self):
        exposed = observed_exposed_hops([[0, 5, 9]], {5}, eta=3)
        assert exposed == 1

    def test_union_over_copies(self):
        paths = [[0, 5, 9], [0, 6, 9]]
        # position 1 exposed via copy 1 (5), position 2 exposed via both (9)
        assert observed_exposed_hops(paths, {5, 9}, eta=3) == 2

    def test_position_counted_once_across_copies(self):
        paths = [[0, 5, 9], [0, 6, 9]]
        assert observed_exposed_hops(paths, {5, 6}, eta=3) == 1

    def test_short_paths_contribute_prefix(self):
        assert observed_exposed_hops([[0, 5]], {5}, eta=4) == 1

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            observed_exposed_hops([], {1}, eta=3)

    def test_anonymity_matches_exact_formula(self):
        paths = [[0, 5, 9]]
        value = observed_path_anonymity(paths, {5}, n=50, eta=3, group_size=5)
        assert value == pytest.approx(
            path_anonymity_exact(50, 3, 5, 1.0)
        )

    def test_anonymity_full_when_untouched(self):
        value = observed_path_anonymity([[0, 5, 9]], set(), n=50, eta=3, group_size=5)
        assert value == pytest.approx(1.0)

    def test_more_copies_cannot_raise_anonymity(self):
        compromised = {5, 6}
        one = observed_path_anonymity([[0, 5, 9]], compromised, 50, 3, 5)
        two = observed_path_anonymity(
            [[0, 5, 9], [0, 6, 9]], compromised, 50, 3, 5
        )
        assert two <= one
