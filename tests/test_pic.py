import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picscore.dataset import GENUINE, IMPOSTER, ComparisonRecord, LabeledScoreSet
from picscore.density import DensityModel, KdeDensity, fit_model
from picscore.pic import (
    decide,
    decision_confidence,
    fuse_groups,
    pic_multi,
    pic_single,
    pic_threshold_for_fmr,
    pic_values,
)
from picscore.synth import SynthConfig, analytic_posterior, generate


def flat_density(values, lo=0.0, hi=1.0):
    """Grid density with hand-chosen values, for exact likelihood ratios."""
    arr = np.asarray(values, dtype=float)
    return KdeDensity(
        train_scores=np.empty(0),
        bandwidth=1.0,
        grid_min=lo,
        grid_max=hi,
        grid_values=arr,
        grid_resolution=arr.size,
    )


def ratio_model(g_values, f_values):
    return DensityModel(genuine=flat_density(g_values), imposter=flat_density(f_values))


@pytest.fixture(scope="module")
def synth_model():
    config = SynthConfig(n_genuine=50000, n_imposter=50000, seed=11)
    return config, fit_model(generate(config))


class TestPicSingle:
    def test_equal_densities_give_half(self):
        scores = [0.2, 0.5, 0.8]
        records = [ComparisonRecord(s, GENUINE) for s in scores]
        records += [ComparisonRecord(s, IMPOSTER) for s in scores]
        model = fit_model(LabeledScoreSet(records))
        for s in (0.1, 0.5, 0.76):
            assert pic_single(model, s).value == pytest.approx(0.5, abs=1e-12)

    def test_synthetic_overlap_point(self, synth_model):
        config, model = synth_model
        # closed-form posterior sigmoid(50 * (s - 0.45)) at s = 0.47
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert pic_single(model, 0.47).value == pytest.approx(expected, abs=0.02)

    def test_deep_genuine_region(self, synth_model):
        _, model = synth_model
        top = float(model.genuine.train_scores.max())
        assert pic_single(model, top).value >= 0.999

    def test_matches_vectorized_path(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 0.9, 50)
        vector = pic_values(model, points)
        for s, v in zip(points, vector):
            assert pic_single(model, float(s)).value == v

    def test_value_tracks_log_lr_sum(self, synth_model):
        _, model = synth_model
        for s in (0.3, 0.45, 0.62):
            result = pic_single(model, s)
            expected = 1.0 / (1.0 + math.exp(-result.log_lr_sum))  # equal priors
            assert result.value == pytest.approx(expected, abs=1e-12)


class TestPicMulti:
    def test_reciprocal_ratios_cancel(self):
        model = ratio_model([0.3, 0.1], [0.1, 0.3])  # LR 3 at s=0, LR 1/3 at s=1
        assert pic_multi(model, [0.0, 1.0]).value == pytest.approx(0.5, abs=1e-15)

    def test_three_scores_ratio_two(self):
        model = ratio_model([0.4, 0.4], [0.2, 0.2])
        # brute-force product: L_g / (L_g + L_f)
        l_g, l_f = 0.4**3, 0.2**3
        expected = l_g / (l_g + l_f)  # 8/9
        assert expected == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert pic_multi(model, [0.2, 0.5, 0.9]).value == pytest.approx(expected, abs=1e-12)

    def test_neutral_score_leaves_value_unchanged(self):
        model = ratio_model([0.4, 0.2, 0.3], [0.1, 0.2, 0.3])  # g == f on [0.5, 1]
        base = pic_multi(model, [0.0, 0.1]).value
        extended = pic_multi(model, [0.0, 0.1, 0.75]).value
        assert extended == base

    def test_singleton_equals_single(self, synth_model):
        _, model = synth_model
        for s in (0.25, 0.45, 0.7):
            assert pic_multi(model, [s]).value == pytest.approx(
                pic_single(model, s).value, abs=1e-12
            )
            assert pic_multi(model, [s]).log_lr_sum == pic_single(model, s).log_lr_sum

    def test_permutation_invariance_exact(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.1, 0.8, 40)
        shuffled = scores.copy()
        rng.shuffle(shuffled)
        assert pic_multi(model, scores).value == pic_multi(model, shuffled).value

    def test_log_space_matches_direct_product(self, synth_model):
        config, model = synth_model
        rng = np.random.default_rng(17)
        from picscore.density import eval_density

        for n in range(1, 6):
            scores = rng.uniform(0.15, 0.75, n)
            g = np.prod(eval_density(model.genuine, scores))
            f = np.prod(eval_density(model.imposter, scores))
            if g == 0.0 or f == 0.0:
                continue  # direct form underflowed; contract does not apply
            direct = g * 0.5 / (g * 0.5 + f * 0.5)
            assert pic_multi(model, scores).value == pytest.approx(direct, abs=1e-9)

    def test_empty_scores_error(self, synth_model):
        _, model = synth_model
        with pytest.raises(ValueError, match="at least one"):
            pic_multi(model, [])

    def test_non_finite_scores_error(self, synth_model):
        _, model = synth_model
        with pytest.raises(ValueError, match="finite"):
            pic_multi(model, [0.5, float("inf")])

    @given(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_value_always_in_unit_interval(self, scores):
        model = ratio_model([0.9, 0.05], [0.02, 0.7])
        value = pic_multi(model, scores).value
        assert 0.0 <= value <= 1.0

    def test_prior_sensitivity_strict(self):
        base = ratio_model([0.4, 0.4], [0.2, 0.2])
        values = []
        for prior in (0.2, 0.5, 0.8):
            model = DensityModel(
                genuine=base.genuine, imposter=base.imposter, prior_genuine=prior
            )
            values.append(pic_multi(model, [0.3, 0.6]).value)
        assert values[0] < values[1] < values[2]


class TestDecisionConfidence:
    def test_genuine_decision(self):
        pic = pic_score(0.9)
        assert decision_confidence(pic, 0.5) == (GENUINE, 0.9)

    def test_imposter_decision_complement(self):
        pic = pic_score(0.2)
        decision, confidence = decision_confidence(pic, 0.5)
        assert decision == IMPOSTER
        assert confidence == pytest.approx(0.8)

    def test_tie_decides_genuine(self):
        pic = pic_score(0.5)
        assert decision_confidence(pic, 0.5)[0] == GENUINE


class TestFuseGroups:
    def test_matches_pic_multi_per_group(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(4)
        groups = rng.integers(0, 40, 300)
        groups[:40] = np.arange(40)  # every group occurs
        scores = rng.normal(0.45, 0.3, groups.size)
        values, sums = fuse_groups(model, scores, groups)
        for g in range(40):
            joint = pic_multi(model, scores[groups == g])
            assert values[g] == joint.value
            assert sums[g] == joint.log_lr_sum

    def test_independent_of_row_order(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(5)
        groups = np.repeat(np.arange(25), 4)
        scores = rng.normal(0.45, 0.3, groups.size)
        perm = rng.permutation(groups.size)
        assert np.array_equal(
            fuse_groups(model, scores, groups)[0], fuse_groups(model, scores[perm], groups[perm])[0]
        )

    @pytest.mark.parametrize("groups", [[0, 2], [1, 1], [-1, 0], [0]])
    def test_rejects_bad_group_indices(self, synth_model, groups):
        _, model = synth_model
        with pytest.raises(ValueError):
            fuse_groups(model, [0.4, 0.5], groups)


class TestDecide:
    def test_vectorized_rule(self):
        values = np.array([0.2, 0.5, 0.9, 0.49999])
        is_genuine, confidence = decide(values, 0.5)
        assert is_genuine.tolist() == [False, True, True, False]
        assert confidence.tolist() == [0.8, 0.5, 0.9, 1.0 - 0.49999]


def pic_score(value):
    from picscore.pic import PicScore

    return PicScore(value=value, n_comparisons=1, log_lr_sum=0.0)


class TestThresholdRule:
    def test_formula(self):
        assert pic_threshold_for_fmr(1e-3) == 0.999
        assert pic_threshold_for_fmr(0.5) == 0.5

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                pic_threshold_for_fmr(bad)


class TestOrderRelation:
    def test_monotone_over_supported_range(self, synth_model):
        # the log-LR of the fitted model rises over the well-sampled interval,
        # so ranking by posterior matches ranking by raw score there
        _, model = synth_model
        sweep = np.linspace(0.25, 0.65, 2001)
        values = pic_values(model, sweep)
        assert np.all(np.diff(values) > 0)

    def test_calibration_against_oracle(self, synth_model):
        config, model = synth_model
        test = generate(
            SynthConfig(n_genuine=20000, n_imposter=20000, seed=12)
        )
        scores = np.concatenate([test.genuine_scores, test.imposter_scores])
        gap = np.abs(pic_values(model, scores) - analytic_posterior(config, scores))
        assert np.mean(gap) <= 0.02
        assert np.quantile(gap, 0.99) <= 0.05
