import warnings

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
from picscore.dataset import ScoreTable
from picscore.density import fit_model
from picscore.metrics import empirical_fmr, empirical_fnmr
from picscore.pic import log_likelihood_ratio
from picscore.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def synth_train():
    return generate(SynthConfig(n_genuine=20000, n_imposter=20000, seed=51))


@pytest.fixture(scope="module")
def synth_fitted(synth_train):
    return fit_model(synth_train)


def reference_dtc(est, x):
    """``dtc_confidence`` as it was before scores were clipped: the clamp absorbs overflow."""
    t = est.threshold
    up_span, down_span = est.score_max - t, t - est.score_min
    with np.errstate(over="ignore"):
        above = 0.5 + 0.5 * (x - t) / up_span if up_span > 0 else np.where(x > t, 1.0, 0.5)
        below = 0.5 + 0.5 * (t - x) / down_span if down_span > 0 else np.where(x < t, 1.0, 0.5)
    return np.clip(np.where(x >= t, above, below), 0.0, 1.0)


MAX = np.finfo(float).max
EXTREMES = [MAX, -MAX, 1e300, -1e300, 1e17, -1e17, 5e-324, -5e-324, -0.0]


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

    def test_extreme_scores_do_not_overflow(self):
        est = DtcEstimator(0.5, 0.0, 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dtc_confidence(est, np.array([MAX, -MAX, 1e300, -1e300])).tolist() == [1.0] * 4
            assert [dtc_confidence(est, x) for x in (MAX, -MAX)] == [1.0, 1.0]

    @pytest.mark.parametrize("fitted", ["synth", "threshold-above-all", "subnormal-span"])
    def test_fitted_confidences_are_unchanged(self, synth_train, fitted):
        """Bit for bit as before, in the training range and beyond it, with no warning.

        With no imposter score allowed above it, the threshold is ``nextafter``
        of the highest imposter score: a clipped score there would flip the
        decision. Above an imposter score of 0 the span below the threshold is
        subnormal, and a quotient of the other branch would overflow.
        """
        if fitted == "synth":
            est = fit_dtc(synth_train, 1e-2)
        else:
            scores, labels = (([0.5, 0.6, 0.7], [True, False, False])
                              if fitted == "threshold-above-all" else ([1.0, 0.0], [True, False]))
            with pytest.warns(RuntimeWarning, match="returning a threshold above"):
                est = fit_dtc(ScoreTable(scores, labels), 0.1)
            assert est.threshold == np.nextafter(max(scores[labels.index(False):]), np.inf)
        ends = [est.score_min, est.score_max, est.threshold]
        scores = np.array([*np.linspace(est.score_min, est.score_max, 1001), *ends,
                           *np.nextafter(ends, np.inf), *np.nextafter(ends, -np.inf), *EXTREMES])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dtc_confidence(est, scores)
        want = reference_dtc(est, scores)
        if fitted == "subnormal-span":
            # Every score below the threshold is at or below score_min: 1.0. The
            # reference halves the subnormal distance at score_min to 0 first.
            want[scores < est.threshold] = 1.0
        assert got.tobytes() == want.tobytes()

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

    def test_subnormal_span_does_not_overflow(self, synth_fitted):
        """A ratio beyond a subnormal span gives 1.0; one at or below its low end, 0.5."""
        est = LrcEstimator(threshold=0.5, abs_llr_min=0.0, abs_llr_max=5e-324)
        scores = np.array([0.0, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lrc_confidence(est, synth_fitted, scores)
        oriented = np.where(scores >= 0.5, 1.0, -1.0) * log_likelihood_ratio(synth_fitted, scores)
        assert got.tolist() == np.where(oriented > 0.0, 1.0, 0.5).tolist()


class TestErbc:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_beyond_the_grid_takes_the_ends_confidence(self, sign):
        grid = np.linspace(0.0, 1.0, 2048)
        est = ErbcEstimator(0.5, grid, np.linspace(0.9, 0.1, 2048), np.linspace(0.05, 0.7, 2048))
        end = grid[-1] if sign > 0 else grid[0]
        beyond = sign * np.array([1.0 + 1e-9, 2.0, 1e17, 1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_end = erbc_confidence(est, end)
            assert at_end == (0.9 if sign > 0 else 0.95)
            assert erbc_confidence(est, beyond).tolist() == [at_end] * beyond.size
            assert [erbc_confidence(est, x) for x in beyond.tolist()] == [at_end] * beyond.size

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

    @pytest.mark.parametrize("lo, hi", [
        (0.1, np.finfo(float).max), (-np.finfo(float).max, np.finfo(float).max),
        (-np.finfo(float).max, -0.1), (-1e300, 1e300),
    ])
    def test_grid_over_the_widest_ranges_does_not_overflow(self, lo, hi):
        mid = lo / 2 + hi / 2
        train = ScoreTable([lo, mid, hi] * 2, [True] * 3 + [False] * 3)
        top = np.finfo(float).max
        scores = np.array([-top, lo, -1.0, -0.0, 5e-324, 0.25, 1.0, hi, top])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = fit_erbc(train, 0.5)
            conf = erbc_confidence(est, scores)
        grid = est.grid_thresholds
        assert np.isfinite(grid).all() and (grid[0], grid[-1]) == (lo, hi)
        assert np.all(np.diff(grid) >= 0)
        assert np.isfinite(conf).all() and np.all((conf >= 0) & (conf <= 1))

    def test_grid_of_an_ordinary_range_is_linspaces(self, synth_train):
        scores = np.concatenate([synth_train.genuine_scores, synth_train.imposter_scores])
        grid = fit_erbc(synth_train, 1e-2).grid_thresholds
        assert grid.tobytes() == np.linspace(scores.min(), scores.max(), 2048).tobytes()

    def test_equal_fits_compare_equal(self):
        train = generate(SynthConfig(n_genuine=500, n_imposter=500, seed=1))
        assert fit_erbc(train, 1e-2) == fit_erbc(train, 1e-2)
        assert fit_erbc(train, 1e-2) != fit_erbc(train, 1e-1)


class TestShapesAndTies:
    """All three estimators decide with ``pic.decide`` and keep the input's shape."""

    @pytest.fixture(scope="class")
    def confidences(self, synth_train, synth_fitted):
        dtc, erbc = fit_dtc(synth_train, 1e-2), fit_erbc(synth_train, 1e-2)
        lrc = fit_lrc(synth_train, synth_fitted, 1e-2)
        return [(dtc, lambda s: dtc_confidence(dtc, s)),
                (erbc, lambda s: erbc_confidence(erbc, s)),
                (lrc, lambda s: lrc_confidence(lrc, synth_fitted, s))]

    def test_scalar_in_gives_float_out(self, confidences):
        for est, confidence in confidences:
            for s in (-0.5, 0.2, est.threshold, 0.9, 2.0):
                got = confidence(s)
                assert isinstance(got, float) and np.ndim(got) == 0
                assert got == confidence(np.array([s]))[0]

    def test_array_shape_is_kept(self, confidences):
        scores = np.linspace(-0.5, 1.5, 12).reshape(3, 4)
        for _, confidence in confidences:
            got = confidence(scores)
            assert got.shape == (3, 4)
            assert np.array_equal(got.ravel(), confidence(scores.ravel()))

    def test_a_tie_takes_the_accept_branch(self, synth_train, synth_fitted):
        erbc = fit_erbc(synth_train, 1e-2)
        lrc = fit_lrc(synth_train, synth_fitted, 1e-2)
        just_below = np.nextafter(erbc.threshold, -np.inf)
        idx = int(np.rint((erbc.threshold - erbc.grid_thresholds[0])
                          / (erbc.grid_thresholds[1] - erbc.grid_thresholds[0])))
        assert erbc_confidence(erbc, erbc.threshold) == 1.0 - erbc.grid_fmr[idx]
        assert erbc_confidence(erbc, just_below) == 1.0 - erbc.grid_fnmr[idx]
        # The accept branch orients the log LR as it is; the reject branch flips it.
        llr = float(log_likelihood_ratio(synth_fitted, lrc.threshold))
        span = lrc.abs_llr_max - lrc.abs_llr_min
        expected = 0.5 + 0.5 * np.clip((llr - lrc.abs_llr_min) / span, 0.0, 1.0)
        assert lrc_confidence(lrc, synth_fitted, lrc.threshold) == expected
