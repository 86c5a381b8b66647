import numpy as np
import pytest

from picscore.baselines import (
    DtcEstimator,
    ErbcEstimator,
    LrcEstimator,
    dtc_confidence,
    erbc_confidence,
    fit_dtc,
    fit_erbc,
    fit_lrc,
    lrc_confidence,
)
from picscore.density import fit_model
from picscore.metrics import empirical_fmr, empirical_fnmr
from picscore.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def synth_train():
    return generate(SynthConfig(n_genuine=20000, n_imposter=20000, seed=51))


@pytest.fixture(scope="module")
def synth_fitted(synth_train):
    return fit_model(synth_train)


class TestDtc:
    def est(self):
        return DtcEstimator(threshold=0.5, score_min=0.0, score_max=1.0)

    def test_confidence_half_at_threshold(self):
        assert dtc_confidence(self.est(), 0.5) == 0.5

    def test_confidence_one_at_extremes(self):
        assert dtc_confidence(self.est(), 1.0) == 1.0
        assert dtc_confidence(self.est(), 0.0) == 1.0

    def test_linear_midpoint(self):
        assert dtc_confidence(self.est(), 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_clamped_beyond_extremes(self):
        assert dtc_confidence(self.est(), 1.5) == 1.0
        assert dtc_confidence(self.est(), -1.5) == 1.0

    def test_minimum_exactly_at_threshold(self):
        est = self.est()
        sweep = np.linspace(0.0, 1.0, 101)
        conf = dtc_confidence(est, sweep)
        assert sweep[np.argmin(conf)] == 0.5

    def test_piecewise_linear(self):
        est = self.est()
        upper = np.linspace(0.5, 1.0, 11)
        diffs = np.diff(dtc_confidence(est, upper))
        assert np.allclose(diffs, diffs[0])

    def test_fitted_state_from_training(self, synth_train):
        est = fit_dtc(synth_train, 1e-3)
        all_scores = np.concatenate(
            [synth_train.genuine_scores, synth_train.imposter_scores]
        )
        assert est.score_min == all_scores.min()
        assert est.score_max == all_scores.max()
        assert empirical_fmr(synth_train.imposter_scores, est.threshold) <= 1e-3

    def test_in_unit_interval(self, synth_train):
        est = fit_dtc(synth_train, 1e-2)
        conf = dtc_confidence(est, np.linspace(-3, 3, 301))
        assert np.all((conf >= 0) & (conf <= 1))


class TestLrc:
    def test_unit_ratio_gives_half(self, synth_fitted):
        est = LrcEstimator(threshold=0.45, abs_llr_min=0.0, abs_llr_max=10.0)
        # force llr == 0 by querying a model point where g == f
        from picscore.pic import log_likelihood_ratio

        sweep = np.linspace(0.3, 0.6, 10001)
        llr = log_likelihood_ratio(synth_fitted, sweep)
        crossing = sweep[np.argmin(np.abs(llr))]
        conf = lrc_confidence(est, synth_fitted, crossing)
        assert conf == pytest.approx(0.5, abs=1e-3)

    def test_training_maximum_maps_to_one(self, synth_train, synth_fitted):
        est = fit_lrc(synth_train, synth_fitted, 1e-3)
        from picscore.pic import log_likelihood_ratio

        all_scores = np.concatenate(
            [synth_train.genuine_scores, synth_train.imposter_scores]
        )
        llr = np.abs(log_likelihood_ratio(synth_fitted, all_scores))
        top = all_scores[np.argmax(llr)]
        assert lrc_confidence(est, synth_fitted, float(top)) == 1.0

    def test_monotone_in_llr_for_genuine_decisions(self, synth_train, synth_fitted):
        # confidence must be non-decreasing in the log likelihood ratio
        from picscore.pic import log_likelihood_ratio

        est = fit_lrc(synth_train, synth_fitted, 1e-3)
        sweep = np.linspace(est.threshold, 0.9, 400)
        conf = lrc_confidence(est, synth_fitted, sweep)
        order = np.argsort(log_likelihood_ratio(synth_fitted, sweep))
        assert np.all(np.diff(conf[order]) >= -1e-12)

    def test_in_unit_interval(self, synth_train, synth_fitted):
        est = fit_lrc(synth_train, synth_fitted, 1e-2)
        conf = lrc_confidence(est, synth_fitted, np.linspace(-3, 3, 301))
        assert np.all((conf >= 0) & (conf <= 1))


class TestErbc:
    def test_above_all_imposters_genuine_decision(self, synth_train):
        est = fit_erbc(synth_train, 1e-3)
        top = float(np.concatenate(
            [synth_train.genuine_scores, synth_train.imposter_scores]
        ).max())
        assert erbc_confidence(est, top) == 1.0

    def test_below_all_genuine_imposter_decision(self, synth_train):
        est = fit_erbc(synth_train, 1e-3)
        bottom = float(np.concatenate(
            [synth_train.genuine_scores, synth_train.imposter_scores]
        ).min())
        assert erbc_confidence(est, bottom) == 1.0

    def test_equal_error_point(self):
        # mirror-symmetric classes around 0.5 put the equal error rate there
        rng = np.random.default_rng(13)
        genuine = 0.5 + np.abs(rng.normal(0, 0.15, 4000))
        imposter = 1.0 - genuine  # exact mirror
        records_g = genuine
        records_f = imposter

        class FakeSet:
            genuine_scores = records_g
            imposter_scores = records_f

        est = fit_erbc(FakeSet(), target_fmr=0.5)
        eer = empirical_fmr(records_f, 0.5)
        assert eer == pytest.approx(empirical_fnmr(records_g, 0.5), abs=2e-3)
        est_at_half = ErbcEstimator(
            threshold=0.5,
            grid_thresholds=est.grid_thresholds,
            grid_fmr=est.grid_fmr,
            grid_fnmr=est.grid_fnmr,
        )
        genuine_branch = erbc_confidence(est_at_half, 0.5)
        imposter_branch = erbc_confidence(est_at_half, 0.4999)
        assert genuine_branch == pytest.approx(1 - eer, abs=5e-3)
        assert imposter_branch == pytest.approx(1 - eer, abs=5e-3)

    def test_genuine_branch_non_decreasing(self, synth_train):
        est = fit_erbc(synth_train, 1e-3)
        sweep = np.linspace(est.threshold, 1.2, 500)
        conf = erbc_confidence(est, sweep)
        assert np.all(np.diff(conf) >= 0)

    def test_in_unit_interval(self, synth_train):
        est = fit_erbc(synth_train, 1e-2)
        conf = erbc_confidence(est, np.linspace(-3, 3, 301))
        assert np.all((conf >= 0) & (conf <= 1))

    def test_equal_fits_compare_equal(self):
        train = generate(SynthConfig(n_genuine=500, n_imposter=500, seed=1))
        assert fit_erbc(train, 1e-2) == fit_erbc(train, 1e-2)
        assert fit_erbc(train, 1e-2) != fit_erbc(train, 1e-1)
