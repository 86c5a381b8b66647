import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picscore.cli import CALIBRATION_COLUMNS, CCC_COLUMNS
from picscore.dataset import ScoreTable
from picscore.density import fit_model
from picscore.metrics import (
    calibration_report,
    ccc,
    ece,
    empirical_fmr,
    empirical_fnmr,
    fnmr_at_fmr,
    mce,
    threshold_at_fmr,
    true_confidence,
)
from picscore.pic import decide
from picscore.synth import SynthConfig, analytic_posterior, generate


def phi_c(z):
    return 0.5 * math.erfc(z / math.sqrt(2))


@st.composite
def tied_scores_and_target(draw):
    """1 to 120 scores drawn from at most 12 values, so ties are common, and a
    target drawn as k/100, as any value in (0, 1), or below 1/n."""
    grid = draw(st.lists(st.floats(-5, 5), min_size=1, max_size=12, unique=True))
    scores = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=120))
    target = draw(st.one_of(
        st.integers(1, 99).map(lambda k: k / 100),
        st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.floats(0, 1 / len(scores), exclude_min=True, exclude_max=True),
    ))
    return scores, target


class TestThresholdAtFmr:
    def test_ten_point_example(self):
        imposters = [round(0.1 * k, 1) for k in range(1, 11)]
        t = threshold_at_fmr(imposters, 0.1)
        assert t == 1.0
        # brute force over all observed candidates: 1.0 is the smallest with FMR <= 0.1
        for candidate in imposters:
            fmr = sum(1 for s in imposters if s >= candidate) / 10
            if fmr <= 0.1:
                assert candidate >= t

    def test_boundary_large_target(self):
        # target >= 1 - 1/n: the smallest observed threshold with
        # FMR(t) = #(scores >= t)/n <= target is the second-smallest score
        # (the minimum itself has FMR exactly 1)
        imposters = [0.1, 0.2, 0.3, 0.4, 0.5]
        t = threshold_at_fmr(imposters, 1 - 1 / 5)
        assert t == 0.2
        assert empirical_fmr(imposters, t) <= 1 - 1 / 5

    def test_unreachable_target_warns_and_returns_above_max(self):
        imposters = [0.1, 0.2, 0.3]
        with pytest.warns(RuntimeWarning, match="below 1/3"):
            t = threshold_at_fmr(imposters, 0.2)
        assert t > 0.3
        assert empirical_fmr(imposters, t) == 0.0

    def test_ties_step_up(self):
        imposters = [0.1, 0.5, 0.5, 0.5, 0.9]
        t = threshold_at_fmr(imposters, 0.4)  # allows 2 matches; 0.5 would match 4
        assert t == 0.9
        assert empirical_fmr(imposters, t) <= 0.4

    @given(
        st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=200),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_postcondition_fmr_below_target(self, scores, target):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # unreachable targets expected
            t = threshold_at_fmr(scores, target)
        assert empirical_fmr(scores, t) <= target

    @given(case=tied_scores_and_target())
    @example(case=(list(range(100)), 0.29))  # 0.29 * 100 rounds below 29
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, case):
        scores, target = case
        n = len(scores)
        qualifying = [s for s in set(scores) if sum(x >= s for x in scores) / n <= target]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = threshold_at_fmr(scores, target)
        if qualifying:
            assert t == min(qualifying)
            assert not caught
            return
        reason = f"is below 1/{n}" if 1 / n > target else "unreachable due to tied scores"
        assert t == np.nextafter(max(scores), np.inf)
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, (
            f"target FMR {target} {reason}; returning a threshold above the maximum "
            "imposter score (FMR 0)"))]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        message = f"imposter scores must be finite, got {bad!r} at index 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fnmr_at_fmr([0.9, 0.8], [0.1, bad, 0.2, 0.3], 0.3)

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty"):
            threshold_at_fmr([], 0.5)

    def test_bad_target_errors(self):
        with pytest.raises(ValueError, match="target"):
            threshold_at_fmr([0.1, 0.2], 1.5)


class TestFnmrAtFmr:
    def test_perfect_separation(self):
        result = fnmr_at_fmr([0.8, 0.9, 0.95], [0.1, 0.2, 0.3, 0.4], 0.25)
        assert result.fnmr == 0.0

    def test_identical_distributions(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(0.5, 0.1, 100000)
        result = fnmr_at_fmr(scores, scores, 0.2)
        assert result.fnmr == pytest.approx(0.8, abs=0.01)

    def test_two_gaussian_oracle(self):
        rng = np.random.default_rng(44)
        genuine = rng.normal(0.7, 0.1, 50000)
        imposter = rng.normal(0.2, 0.1, 50000)
        result = fnmr_at_fmr(genuine, imposter, 1e-3)
        z = 3.0902323061678132  # standard normal quantile at 1 - 1e-3
        predicted = 1 - phi_c((0.2 + 0.1 * z - 0.7) / 0.1)
        assert result.fnmr == pytest.approx(predicted, rel=0.2)

    def test_result_counts_and_rates(self):
        genuine = [0.4, 0.6, 0.8]
        imposter = [0.1, 0.3, 0.5, 0.7]
        result = fnmr_at_fmr(genuine, imposter, 0.3)
        assert result.n_genuine == 3 and result.n_imposter == 4
        assert result.fmr == empirical_fmr(imposter, result.threshold)
        assert result.fnmr == empirical_fnmr(genuine, result.threshold)

    def test_monotone_rate_sweeps(self):
        rng = np.random.default_rng(9)
        genuine = rng.normal(0.7, 0.1, 2000)
        imposter = rng.normal(0.2, 0.1, 2000)
        ts = np.linspace(-0.2, 1.2, 100)
        fmrs = [empirical_fmr(imposter, t) for t in ts]
        fnmrs = [empirical_fnmr(genuine, t) for t in ts]
        assert all(a >= b for a, b in zip(fmrs, fmrs[1:]))
        assert all(a <= b for a, b in zip(fnmrs, fnmrs[1:]))

    def test_rates_count_through_the_decision_rule(self):
        genuine = [0.9, math.nan, 0.2, 0.8]
        assert empirical_fnmr(genuine, 0.5) == 0.5
        assert empirical_fnmr(genuine, 0.5) == np.mean(~decide(genuine, 0.5)[0])
        imposter = [0.5, math.nan, 0.4]  # a tie accepts, NaN does not
        assert empirical_fmr(imposter, 0.5) == np.mean(decide(imposter, 0.5)[0]) == 1 / 3


@pytest.mark.parametrize("call, message", [
    (lambda: calibration_report([], []), "confidence array is empty"),
    (lambda: calibration_report([0.5], [True], 0), "m_bins must be >= 1, got 0"),
    (lambda: ccc([], []), "input arrays are empty"),
    (lambda: ccc([0.5], [0.5], 0), "b_bins must be >= 1, got 0"),
    (lambda: fnmr_at_fmr([], [0.1], 0.5), "genuine score array is empty"),
    (lambda: empirical_fmr([], 0.5), "imposter score array is empty"),
    (lambda: empirical_fnmr([], 0.5), "genuine score array is empty"),
], ids=["calibration-empty", "calibration-0-bins", "ccc-empty", "ccc-0-bins", "fnmr-empty",
        "empirical-fmr-empty", "empirical-fnmr-empty"])
def test_empty_input_and_zero_bins_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestEceMce:
    def test_perfectly_calibrated_single_bin(self):
        conf = [0.8] * 10
        correct = [True] * 8 + [False] * 2
        assert ece(conf, correct, 1) == pytest.approx(0.0, abs=1e-12)
        assert mce(conf, correct, 1) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_gap(self):
        conf = [0.8] * 10
        correct = [True] * 6 + [False] * 4
        assert ece(conf, correct, 1) == pytest.approx(0.2, abs=1e-12)

    def test_two_bin_hand_example(self):
        # bin 1: 10 samples at 0.3, 5 correct; bin 2: 15 samples at 0.9, 12 correct
        # ECE = 0.4 * |0.5 - 0.3| + 0.6 * |0.8 - 0.9| = 0.14; MCE = 0.2
        conf = [0.3] * 10 + [0.9] * 15
        correct = [True] * 5 + [False] * 5 + [True] * 12 + [False] * 3
        assert ece(conf, correct, 2) == pytest.approx(0.14, abs=1e-12)
        assert mce(conf, correct, 2) == pytest.approx(0.20, abs=1e-12)

    def test_m_equals_one_identity(self):
        rng = np.random.default_rng(0)
        conf = rng.uniform(0, 1, 500)
        correct = rng.random(500) < 0.6
        expected = abs(correct.mean() - conf.mean())
        assert abs(ece(conf, correct, 1) - expected) <= 1e-12

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_mce_dominates_ece(self, data):
        n = data.draw(st.integers(min_value=1, max_value=200))
        conf = data.draw(
            st.lists(st.floats(min_value=0, max_value=1), min_size=n, max_size=n)
        )
        correct = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        bins = data.draw(st.integers(min_value=1, max_value=25))
        assert mce(conf, correct, bins) >= ece(conf, correct, bins) - 1e-15

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        conf = rng.uniform(0, 1, 300)
        correct = rng.random(300) < conf
        perm = rng.permutation(300)
        assert ece(conf, correct, 10) == pytest.approx(ece(conf[perm], correct[perm], 10), abs=1e-12)
        assert mce(conf, correct, 10) == pytest.approx(mce(conf[perm], correct[perm], 10), abs=1e-12)

    def test_confidence_of_one_in_last_bin(self):
        report = calibration_report([1.0, 0.95], [True, True], 10)
        assert report.count[9] == 2

    def test_empty_bins_excluded(self):
        # bin 0: p_true 0 vs conf 0.05; bin 9: p_true 1 vs conf 0.95
        report = calibration_report([0.05, 0.95], [False, True], 10)
        assert report.ece == pytest.approx(0.05, abs=1e-12)
        assert report.mce == pytest.approx(0.05, abs=1e-12)
        assert report.count.sum() == 2
        assert math.isnan(report.p_true[5])

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            ece([0.5, 0.6], [True], 10)

    def test_confidence_out_of_range_errors(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            ece([1.2], [True], 10)

    @pytest.mark.parametrize("bad", [-0.5, 1.2, 1e308])
    def test_confidence_out_of_range_names_first_index(self, bad):
        message = f"confidences must lie in [0, 1], got {bad!r} at index 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibration_report([0.5, bad, 0.9, bad], [True, True, False, False], 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_names_first_index(self, bad):
        with pytest.raises(ValueError, match=f"confidences must be finite, got {bad!r} at index 1$"):
            calibration_report([0.5, bad, 0.9, bad], [True, True, False, False], 10)


class TestCcc:
    def test_identity_predictor_near_bisectrix(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0, 1, 3000)
        series = ccc(truth, truth, 30)
        for count, mean, center in zip(series.count, series.pred_mean, series.bin_center):
            if count:
                assert abs(mean - center) <= 0.5 / 30

    def test_constant_predictor(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0, 1, 500)
        series = ccc(truth, np.full(500, 0.5), 30)
        for count, mean in zip(series.count, series.pred_mean):
            if count:
                assert mean == 0.5

    def test_empty_bins_marked(self):
        series = ccc([0.05, 0.95], [0.1, 0.9], 10)
        assert series.count[5] == 0
        assert math.isnan(series.pred_mean[5])
        assert all(getattr(series, c).shape == (10,) for c in CCC_COLUMNS)

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            ccc([0.5], [0.5, 0.6], 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_true_confidence_names_first_index(self, bad):
        with pytest.raises(ValueError, match=f"^true confidences must be finite, got {bad!r} "
                                             "at index 2$"):
            ccc([0.1, 0.5, bad], [0.1, 0.5, 0.9], 10)

    def test_non_finite_predicted_confidence_names_first_index(self):
        with pytest.raises(ValueError, match="^predicted confidences must be finite, got nan "
                                             "at index 0$"):
            ccc([0.1, 0.5], [math.nan, 0.5], 10)

    @pytest.mark.parametrize("bad", [-1e-9, 1.5, 1e308])
    def test_predicted_confidence_out_of_range_names_first_index(self, bad):
        message = f"predicted confidences must lie in [0, 1], got {bad!r} at index 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ccc([0.1, 0.5, 0.9], [0.5, bad, bad], 10)

    def test_calibrated_posterior_tracks_bisectrix(self, test_fitted):
        # predicted confidence from a train-fitted model, ground truth from a
        # model fitted on held-out scores: populated bins hug the diagonal
        from picscore.pic import pic_values

        config, eval_model = test_fitted
        train_model = fit_model(
            generate(SynthConfig(n_genuine=20000, n_imposter=20000, seed=32))
        )
        sample = generate(SynthConfig(n_genuine=10000, n_imposter=10000, seed=33))
        scores = np.concatenate([sample.genuine_scores, sample.imposter_scores])
        threshold = 0.45
        genuine_decision = scores >= threshold

        predicted = pic_values(train_model, scores)
        predicted = np.where(genuine_decision, predicted, 1 - predicted)
        truth = pic_values(eval_model, scores)
        truth = np.where(genuine_decision, truth, 1 - truth)

        series = ccc(truth, predicted, 30)
        for count, mean, center in zip(series.count, series.pred_mean, series.bin_center):
            if count >= 100:
                assert abs(mean - center) <= 0.05


def reference_bins(keys, n_bins):
    # Right-open bins; a value of exactly 1.0 lands in the top bin.
    return np.clip(np.floor(keys * n_bins).astype(int), 0, n_bins - 1)


def reference_calibration(confidences, correct, m_bins):
    """The per-bin loop of ``calibration_report`` before it returned columns.

    Returns its columns as arrays, in ``CALIBRATION_COLUMNS`` order, then ECE and MCE.
    """
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=bool)
    n = conf.size
    idx = reference_bins(conf, m_bins)
    rows = []
    ece_total = 0.0
    mce_max = 0.0
    for b in range(m_bins):
        mask = idx == b
        count = int(np.count_nonzero(mask))
        lo, hi = b / m_bins, (b + 1) / m_bins
        if count == 0:
            rows.append((lo, hi, 0, math.nan, math.nan, math.nan))
            continue
        p_true = float(np.mean(corr[mask]))
        p_pred = float(np.mean(conf[mask]))
        p_std = float(np.std(conf[mask]))
        gap = abs(p_true - p_pred)
        ece_total += (count / n) * gap
        mce_max = max(mce_max, gap)
        rows.append((lo, hi, count, p_true, p_pred, p_std))
    return [np.array(column) for column in zip(*rows)], ece_total, mce_max


def reference_ccc(true_conf, pred_conf, b_bins):
    """The per-bin loop of ``ccc`` before it returned columns, in ``CCC_COLUMNS`` order."""
    t = np.asarray(true_conf, dtype=float)
    p = np.asarray(pred_conf, dtype=float)
    idx = reference_bins(t, b_bins)
    rows = []
    for b in range(b_bins):
        mask = idx == b
        count = int(np.count_nonzero(mask))
        center = (b + 0.5) / b_bins
        if count == 0:
            rows.append((center, math.nan, math.nan, 0))
        else:
            rows.append((center, float(np.mean(p[mask])), float(np.std(p[mask])), count))
    return [np.array(column) for column in zip(*rows)]


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()  # NaN included


@st.composite
def binned_samples(draw, others):
    """A bin count of 1-25, keys in [0, 1] (any, exactly 0 or 1, or on a bin edge),
    and one value drawn from ``others`` per key.

    With at most 200 keys and up to 25 bins, many draws leave bins empty.
    """
    bins = draw(st.integers(1, 25))
    edges = [k / bins for k in range(bins + 1)]
    keys = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, *edges])),
                         min_size=1, max_size=200))
    return bins, keys, draw(st.lists(others, min_size=len(keys), max_size=len(keys)))


# Ten bins, five of them empty; 0.1, 0.3 and 0.7 are bin edges.
EDGES_AND_EMPTY_BINS = (10, [0.0, 0.1, 0.3, 0.7, 1.0])
# Hundreds of values per bin, where a sum in another order than ``np.mean``'s differs.
_RNG = np.random.default_rng(0)
CROWDED_BINS = (3, _RNG.uniform(0.0, 1.0, 1000).tolist())


class TestBinsMatchReference:
    """The column-wise binning against the per-bin loops it replaced, bit for bit."""

    @given(binned_samples(st.booleans()))
    @example((*EDGES_AND_EMPTY_BINS, [True, False, True, True, False]))
    @example((*CROWDED_BINS, (_RNG.random(1000) < 0.6).tolist()))
    @settings(max_examples=300, deadline=None)
    def test_calibration_report(self, drawn):
        bins, conf, correct = drawn
        report = calibration_report(conf, correct, bins)
        columns, ece_total, mce_max = reference_calibration(conf, correct, bins)
        for name, expected in zip(CALIBRATION_COLUMNS, columns, strict=True):
            assert_same_bits(getattr(report, name), expected)
        assert_same_bits(np.array(report.ece), np.array(ece_total))
        assert_same_bits(np.array(report.mce), np.array(mce_max))
        assert report.n_samples == len(conf)

    @pytest.mark.parametrize("bins", [255, 256, 257, 65536, 65537])
    def test_bin_counts_past_a_byte_and_two(self, bins):
        """Bin numbers are kept in the narrowest unsigned type: 1, 2 or 4 bytes here."""
        rng = np.random.default_rng(bins)
        keys = np.concatenate([[0.0, 1.0, 1.0 - 1.0 / bins, (bins - 1) / bins, 0.5],
                               rng.uniform(0.0, 1.0, 300)])
        predicted = rng.uniform(0.0, 1.0, keys.size)
        series = ccc(keys, predicted, bins)
        for name, expected in zip(CCC_COLUMNS, reference_ccc(keys, predicted, bins), strict=True):
            assert_same_bits(getattr(series, name), expected)
        report = calibration_report(keys, predicted < keys, bins)
        columns, ece_total, _ = reference_calibration(keys, predicted < keys, bins)
        for name, expected in zip(CALIBRATION_COLUMNS, columns, strict=True):
            assert_same_bits(getattr(report, name), expected)
        assert_same_bits(np.array(report.ece), np.array(ece_total))

    @given(binned_samples(st.floats(0.0, 1.0)))
    @example((*EDGES_AND_EMPTY_BINS, [0.9, 0.2, 0.4, 0.6, 0.8]))
    @example((*CROWDED_BINS, _RNG.uniform(0.0, 1.0, 1000).tolist()))
    @settings(max_examples=300, deadline=None)
    def test_ccc(self, drawn):
        bins, truth, predicted = drawn
        series = ccc(truth, predicted, bins)
        for name, expected in zip(CCC_COLUMNS, reference_ccc(truth, predicted, bins), strict=True):
            assert_same_bits(getattr(series, name), expected)


@pytest.fixture(scope="module")
def test_fitted():
    config = SynthConfig(n_genuine=20000, n_imposter=20000, seed=31)
    return config, fit_model(generate(config))


class TestTrueConfidence:

    def test_equal_density_point_genuine_decision(self):
        scores = [0.2, 0.5, 0.8]
        model = fit_model(ScoreTable(scores + scores, [True] * 3 + [False] * 3))
        assert true_confidence(model, 0.5, accepted=0.5 >= 0.4) == pytest.approx(0.5, abs=1e-12)

    def test_deep_genuine_region(self, test_fitted):
        _, model = test_fitted
        assert true_confidence(model, 0.95, accepted=0.95 >= 0.5) >= 0.999

    def test_agrees_with_analytic_oracle(self, test_fitted):
        config, model = test_fitted
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.0, 0.9, 5000)
        threshold = 0.5
        folded_oracle = np.where(
            scores >= threshold,
            analytic_posterior(config, scores),
            1 - analytic_posterior(config, scores),
        )
        got = true_confidence(model, scores, accepted=scores >= threshold)
        assert np.mean(np.abs(got - folded_oracle)) <= 0.02
