"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line through the conftest hook. The criteria
pin the tolerances; experiment seeds are fixed so every run is identical.

Two synthetic regimes are used. The calibration experiments use the default
well-separated generator (means 0.7/0.2, sigma 0.1). The fusion experiments
use a harder overlap (means 0.5/0.3) so that error rates stay measurable
after multi-reference fusion at desk scale.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit
from scipy.stats import kendalltau, norm

from picscore.density import eval_density, fit_model, scott_bandwidth
from picscore.metrics import (
    ece,
    empirical_fmr,
    fnmr_at_fmr,
    mce,
)
from picscore.pic import (
    log_likelihood_ratio,
    pic_multi,
    pic_threshold_for_fmr,
    pic_values,
)
from picscore.synth import SynthConfig, generate

CAL_TRAIN_CFG = SynthConfig(n_genuine=50000, n_imposter=50000, seed=101)
CAL_TEST_CFG = SynthConfig(n_genuine=50000, n_imposter=50000, seed=202)
FUSE_TRAIN_CFG = SynthConfig(
    genuine_mean=0.5, imposter_mean=0.3, n_genuine=50000, n_imposter=50000, seed=404
)
FUSE_TEST_CFG = SynthConfig(
    genuine_mean=0.5,
    imposter_mean=0.3,
    n_genuine=100000,
    n_imposter=100000,
    seed=505,
    refs_per_probe=5,
)
TARGET_FMR = 1e-3


@pytest.fixture(scope="module")
def cal_train():
    return generate(CAL_TRAIN_CFG)


@pytest.fixture(scope="module")
def cal_model(cal_train):
    return fit_model(cal_train)


@pytest.fixture(scope="module")
def cal_test():
    return generate(CAL_TEST_CFG)


@pytest.fixture(scope="module")
def cal_test_arrays(cal_test):
    scores = np.concatenate([cal_test.genuine_scores, cal_test.imposter_scores])
    is_genuine = np.concatenate(
        [np.ones(cal_test.n_genuine, bool), np.zeros(cal_test.n_imposter, bool)]
    )
    return scores, is_genuine


def analytic_single(config, scores):
    # independent oracle: exact Gaussian log densities via scipy
    lg = norm.logpdf(scores, config.genuine_mean, config.genuine_std)
    lf = norm.logpdf(scores, config.imposter_mean, config.imposter_std)
    return expit(lg - lf)


def analytic_fused(config, matrix):
    lg = norm.logpdf(matrix, config.genuine_mean, config.genuine_std).sum(axis=1)
    lf = norm.logpdf(matrix, config.imposter_mean, config.imposter_std).sum(axis=1)
    return expit(lg - lf)


def deployment_confidences(values, target_fmr):
    threshold = pic_threshold_for_fmr(target_fmr)
    decide_genuine = values >= threshold
    confidence = np.where(decide_genuine, values, 1.0 - values)
    return decide_genuine, confidence


def test_c01_oracle_calibration():
    """Posterior tracks the closed-form oracle; ECE at most 0.01; under 60 s."""
    start = time.monotonic()
    train = generate(CAL_TRAIN_CFG)
    model = fit_model(train)
    test = generate(CAL_TEST_CFG)
    scores = np.concatenate([test.genuine_scores, test.imposter_scores])
    is_genuine = np.concatenate(
        [np.ones(test.n_genuine, bool), np.zeros(test.n_imposter, bool)]
    )

    values = pic_values(model, scores)
    oracle = analytic_single(CAL_TRAIN_CFG, scores)
    mad = float(np.mean(np.abs(values - oracle)))

    decide_genuine, confidence = deployment_confidences(values, TARGET_FMR)
    correct = decide_genuine == is_genuine
    calibration_error = ece(confidence, correct, 10)
    elapsed = time.monotonic() - start

    print(f"\n  mean|pic - oracle| = {mad:.5f} (<= 0.02)")
    print(f"  ECE(M=10) = {calibration_error:.5f} (<= 0.01)")
    print(f"  runtime = {elapsed:.1f} s (<= 60)")
    assert mad <= 0.02
    assert calibration_error <= 0.01
    assert elapsed <= 60.0


def test_c02_baseline_ranking(cal_train, cal_model, cal_test_arrays):
    """Posterior confidence beats DTC, LRC, and ERBC by at least 3x in ECE."""
    from picscore.baselines import (
        dtc_confidence,
        erbc_confidence,
        fit_dtc,
        fit_erbc,
        fit_lrc,
        lrc_confidence,
    )

    scores, is_genuine = cal_test_arrays
    values = pic_values(cal_model, scores)
    decide_genuine, confidence = deployment_confidences(values, TARGET_FMR)
    ece_pic = ece(confidence, decide_genuine == is_genuine, 10)

    dtc = fit_dtc(cal_train, TARGET_FMR)
    lrc = fit_lrc(cal_train, cal_model, TARGET_FMR)
    erbc = fit_erbc(cal_train, TARGET_FMR)
    results = {}
    for name, conf in (
        ("dtc", dtc_confidence(dtc, scores)),
        ("lrc", lrc_confidence(lrc, cal_model, scores)),
        ("erbc", erbc_confidence(erbc, scores)),
    ):
        decisions = scores >= dtc.threshold  # all three share the raw threshold
        results[name] = ece(conf, decisions == is_genuine, 10)

    print(f"\n  ECE pic {ece_pic:.5f} | " + " | ".join(
        f"{k} {v:.5f} ({v / ece_pic:.0f}x)" for k, v in results.items()
    ))
    for name, value in results.items():
        assert value >= 3.0 * ece_pic, f"{name} only {value / ece_pic:.2f}x"


@pytest.fixture(scope="module")
def smooth_model(cal_train):
    # strongly smoothed fit (bare Scott factor as bandwidth): its log
    # likelihood ratio rises over the whole test range, the regime where
    # rank preservation is claimed
    h = scott_bandwidth(CAL_TRAIN_CFG.n_genuine)
    return fit_model(cal_train, bandwidth=h)


def test_c03_order_preservation_rank(smooth_model, cal_test_arrays):
    """Posterior ranking equals raw-score ranking exactly (Kendall tau 1)."""
    scores, _ = cal_test_arrays
    values = pic_values(smooth_model, scores)

    order = np.argsort(scores)
    unique_mask = np.diff(scores[order]) > 0
    # premise: the fitted log-LR is strictly increasing over the test range
    assert np.all(np.diff(values[order])[unique_mask] > 0)

    tau = kendalltau(scores, values).statistic
    print(f"\n  kendall tau = {tau!r}")
    assert tau == 1.0


def test_c03_order_preservation_fnmr_identity(smooth_model, cal_test):
    """FNMR at fixed FMR is identical under raw and posterior thresholds."""
    raw = fnmr_at_fmr(cal_test.genuine_scores, cal_test.imposter_scores, TARGET_FMR)
    transformed = fnmr_at_fmr(
        pic_values(smooth_model, cal_test.genuine_scores),
        pic_values(smooth_model, cal_test.imposter_scores),
        TARGET_FMR,
    )
    print(f"\n  FNMR raw {raw.fnmr:.5f} vs posterior {transformed.fnmr:.5f}")
    assert raw.fnmr == transformed.fnmr
    assert raw.fmr == transformed.fmr


@pytest.fixture(scope="module")
def fuse_model():
    return fit_model(generate(FUSE_TRAIN_CFG))


@pytest.fixture(scope="module")
def fuse_groups():
    test = generate(FUSE_TEST_CFG)
    refs = FUSE_TEST_CFG.refs_per_probe
    return (
        test.genuine_scores.reshape(-1, refs),
        test.imposter_scores.reshape(-1, refs),
    )


def fused_values(model, matrix, k):
    llr = log_likelihood_ratio(model, matrix[:, :k])
    return expit(llr.sum(axis=1))


def test_c04_fusion_recognition_gain(fuse_model, fuse_groups):
    """FNMR at 1e-3 FMR strictly drops from 1 to 2 to 5 references."""
    genuine, imposter = fuse_groups

    # vectorized fusion must agree with the scalar entry point
    rng = np.random.default_rng(0)
    sample = rng.integers(0, genuine.shape[0], 50)
    for k in (2, 5):
        bulk = fused_values(fuse_model, genuine[sample], k)
        for row, expected in zip(genuine[sample], bulk):
            assert pic_multi(fuse_model, row[:k]).value == pytest.approx(expected, abs=1e-12)

    fnmrs = {}
    for k in (1, 2, 5):
        result = fnmr_at_fmr(
            fused_values(fuse_model, genuine, k),
            fused_values(fuse_model, imposter, k),
            TARGET_FMR,
        )
        fnmrs[k] = result.fnmr
    print(f"\n  FNMR@1e-3: 1 ref {fnmrs[1]:.4f} > 2 refs {fnmrs[2]:.4f} > 5 refs {fnmrs[5]:.4f}")
    assert fnmrs[1] > fnmrs[2] > fnmrs[5]

    for k in (2, 5):
        got = np.concatenate(
            [fused_values(fuse_model, genuine, k), fused_values(fuse_model, imposter, k)]
        )
        oracle = np.concatenate(
            [analytic_fused(FUSE_TRAIN_CFG, genuine[:, :k]),
             analytic_fused(FUSE_TRAIN_CFG, imposter[:, :k])]
        )
        mad = float(np.mean(np.abs(got - oracle)))
        print(f"  {k}-ref mean|fused - oracle| = {mad:.5f} (<= 0.02)")
        assert mad <= 0.02


def test_c05_fusion_calibration_gain(fuse_model, fuse_groups):
    """Joint-confidence ECE does not increase from 1 to 2 to 5 references."""
    genuine, imposter = fuse_groups
    n_genuine, n_imposter = genuine.shape[0], imposter.shape[0]
    is_genuine = np.concatenate([np.ones(n_genuine, bool), np.zeros(n_imposter, bool)])

    eces = {}
    for k in (1, 2, 5):
        values = np.concatenate(
            [fused_values(fuse_model, genuine, k), fused_values(fuse_model, imposter, k)]
        )
        decide_genuine, confidence = deployment_confidences(values, TARGET_FMR)
        eces[k] = ece(confidence, decide_genuine == is_genuine, 10)
    print(f"\n  ECE: 1 ref {eces[1]:.5f} >= 2 refs {eces[2]:.5f} >= 5 refs {eces[5]:.5f}")
    assert eces[1] >= eces[2] >= eces[5]
    assert eces[5] <= eces[1]


def test_c06_metric_identities():
    """MCE dominates ECE; single-bin ECE identity; the hand example is exact."""
    rng = np.random.default_rng(606)
    total = 0
    while total < 10000:
        n = int(rng.integers(50, 500))
        total += n
        conf = rng.uniform(0, 1, n)
        if rng.random() < 0.5:
            correct = rng.random(n) < conf  # calibrated
        else:
            correct = rng.random(n) < rng.uniform(0, 1)  # miscalibrated
        bins = int(rng.integers(1, 30))
        assert mce(conf, correct, bins) >= ece(conf, correct, bins)

    conf = rng.uniform(0, 1, 10000)
    correct = rng.random(10000) < 0.37
    identity = abs(correct.mean() - conf.mean())
    assert abs(ece(conf, correct, 1) - identity) <= 1e-12

    hand_conf = [0.3] * 10 + [0.9] * 15
    hand_correct = [True] * 5 + [False] * 5 + [True] * 12 + [False] * 3
    assert abs(ece(hand_conf, hand_correct, 2) - 0.14) <= 1e-12
    assert abs(mce(hand_conf, hand_correct, 2) - 0.20) <= 1e-12
    print("\n  identities hold; hand example ECE 0.14 / MCE 0.20 exact")


def test_c07_numerical_stability(cal_model):
    """Fusing 100 deep-genuine scores stays finite and matches the oracle."""
    rng = np.random.default_rng(99)
    tail = []
    while len(tail) < 100:
        draw = rng.normal(CAL_TRAIN_CFG.genuine_mean, CAL_TRAIN_CFG.genuine_std)
        if draw >= 0.8:
            tail.append(draw)
    tail = np.array(tail)
    assert tail.max() < cal_model.genuine.grid_max

    joint = pic_multi(cal_model, tail)
    assert math.isfinite(joint.value)
    assert 0.0 <= joint.value <= 1.0
    assert math.isfinite(joint.log_lr_sum)

    oracle = float(analytic_fused(CAL_TRAIN_CFG, tail[None, :])[0])
    print(f"\n  joint = {joint.value}, log-LR sum = {joint.log_lr_sum:.1f}, "
          f"oracle = {oracle}")
    assert abs(joint.value - oracle) <= 1e-6


def test_c08_kde_correctness(cal_train, cal_model):
    """Closed-form kernel values, unit mass, and lookup fidelity."""
    from picscore.density import kernel_density

    assert kernel_density([0.5], 0.1, 0.5)[0] == pytest.approx(3.9894228, abs=1e-6)
    assert kernel_density([0.5], 0.1, 0.6)[0] == pytest.approx(2.4197072, abs=1e-6)

    rng = np.random.default_rng(88)
    worst_rel = 0.0
    for density, class_scores in (
        (cal_model.genuine, cal_train.genuine_scores),
        (cal_model.imposter, cal_train.imposter_scores),
    ):
        xs = density.grid_points()
        integral = np.trapezoid(density.grid_values, xs)
        assert abs(integral - 1.0) <= 1e-3
        assert density.grid_resolution == 4096

        lo, hi = class_scores.min(), class_scores.max()
        points = rng.uniform(lo, hi, 1000)
        lookup = eval_density(density, points)
        exact = kernel_density(class_scores, density.bandwidth, points)
        worst_rel = max(worst_rel, float(np.max(np.abs(lookup - exact) / exact)))
    print(f"\n  max lookup relative error = {worst_rel:.2e} (<= 1e-3)")
    assert worst_rel <= 1e-3


def test_c09_threshold_rule_value():
    """Fixed-FMR threshold formula is exact: 1 - 1e-3 = 0.999."""
    assert pic_threshold_for_fmr(1e-3) == 0.999
    assert pic_threshold_for_fmr(1e-3) == 1.0 - 1e-3


def test_c09_threshold_rule_empirical_fmr(cal_model):
    """Measured FMR at the 0.999 threshold within 3x of the exact posterior's.

    The rule bounds the FMR, it does not attain it. With equal priors,
    accepting when the posterior is at least 1 - a means accepting when the
    likelihood ratio g/f is at least (1 - a) / a, so Markov's inequality
    under the imposter density f caps the FMR at a / (1 - a); nothing bounds
    it from below. What the rule reproduces is the FMR that the exact
    posterior gives at the same threshold. On this data the closed-form
    oracle posterior reaches 0.999 at the score s* = 0.5881, where the
    imposter tail is 5.19e-5: about 5 false matches expected among 100k
    imposters (a Poisson count with that mean lands in the band with
    probability 0.97). The band is 3x around that reference.
    """
    config = SynthConfig(n_genuine=1, n_imposter=100000, seed=303)
    imposters = generate(config).imposter_scores
    # the reference uses the stated threshold, not the function under test
    s_star = brentq(
        lambda s: analytic_single(CAL_TRAIN_CFG, s) - (1.0 - TARGET_FMR),
        CAL_TRAIN_CFG.imposter_mean,
        CAL_TRAIN_CFG.genuine_mean,
    )
    reference = float(norm.sf(s_star, config.imposter_mean, config.imposter_std))

    values = pic_values(cal_model, imposters)
    measured = empirical_fmr(values, pic_threshold_for_fmr(TARGET_FMR))
    print(f"\n  measured FMR = {measured:.2e}, oracle FMR at s* = {s_star:.4f}: "
          f"{reference:.2e}, band = [{reference / 3:.2e}, {3 * reference:.2e}]")
    assert measured <= TARGET_FMR  # the cap; a / (1 - a) exceeds it by only 0.1%
    assert reference / 3 <= measured <= 3 * reference


PIPELINE = [
    ["synth", "scores.csv", "--n-genuine", "3000", "--n-imposter", "3000",
     "--n-subjects", "30", "--refs-per-probe", "5", "--seed", "7"],
    ["split", "scores.csv", "--out-train", "train.csv", "--out-test", "test.csv",
     "--seed", "7"],
    ["train", "train.csv", "model.json"],
    ["train", "test.csv", "test_model.json"],
    ["score", "model.json", "test.csv", "scored.csv"],
    ["fuse", "model.json", "test.csv", "fused.csv", "--max-refs", "5", "--fmr", "0.01"],
    ["eval", "scored.csv", "report", "--fmr", "0.01"],
    ["eval", "fused.csv", "fused_report", "--fmr", "0.01"],
    ["curve", "scored.csv", "test_model.json", "curve.csv"],
]


def run_pipeline(workdir: Path, env: dict[str, str]) -> dict[str, bytes]:
    workdir.mkdir()
    for command in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-m", "picscore", *command],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{command}: {proc.stderr}"
    return {
        p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()
    }


def test_c10_pipeline_determinism(tmp_path, child_env):
    """Two identical CLI pipeline runs produce byte-identical artifacts."""
    first = run_pipeline(tmp_path / "run1", child_env)
    second = run_pipeline(tmp_path / "run2", child_env)
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    print(f"\n  {len(first)} artifacts compared, {len(differing)} differ")
    assert differing == []
