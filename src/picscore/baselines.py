"""Score-level baseline confidence estimators: DTC, LRC, ERBC.

All three express decision confidence (the probability the accept/reject
decision is correct) so their calibration can be compared directly with
posterior-based confidence. Fitted state comes from training scores only,
and each estimator type holds exactly the state its confidence function uses.

DTC  - distance to the decision threshold, min-max normalized so the
       threshold maps to 0.5 and the training extremes map to 1.0.
LRC  - log likelihood ratio, min-max normalized over the training |log LR|
       range onto [0.5, 1], mirrored for imposter decisions.
ERBC - the training error rate (FMR or FNMR, by decision branch) of the
       tabulated threshold nearest the score, reported as 1 - error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ScoreTable
from .density import DensityModel
from .metrics import threshold_at_fmr
from .pic import log_likelihood_ratio

_ERBC_GRID_SIZE = 2048


@dataclass(frozen=True)
class DtcEstimator:
    """Fitted DTC: the decision threshold and the training score range."""

    threshold: float
    score_min: float
    score_max: float


@dataclass(frozen=True)
class LrcEstimator:
    """Fitted LRC: the decision threshold and the training |log LR| range."""

    threshold: float
    abs_llr_min: float
    abs_llr_max: float


@dataclass(frozen=True, eq=False)
class ErbcEstimator:
    """Fitted ERBC: the decision threshold and the training FMR and FNMR per grid threshold."""

    threshold: float
    grid_thresholds: np.ndarray
    grid_fmr: np.ndarray
    grid_fnmr: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ErbcEstimator):
            return NotImplemented
        return self.threshold == other.threshold and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("grid_thresholds", "grid_fmr", "grid_fnmr")
        )


def _train_arrays(train: ScoreTable) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(train.genuine_scores, dtype=float)
    f = np.asarray(train.imposter_scores, dtype=float)
    if g.size == 0 or f.size == 0:
        raise ValueError("baseline fitting needs both genuine and imposter training scores")
    return g, f


def fit_dtc(train: ScoreTable, target_fmr: float = 1e-3) -> DtcEstimator:
    g, f = _train_arrays(train)
    threshold = threshold_at_fmr(f, target_fmr)
    all_scores = np.concatenate([g, f])
    return DtcEstimator(
        threshold=float(threshold),
        score_min=float(all_scores.min()),
        score_max=float(all_scores.max()),
    )


def dtc_confidence(est: DtcEstimator, s):
    """Distance-to-threshold confidence, clamped to [0, 1]."""
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)
    t = est.threshold

    up_span = est.score_max - t
    down_span = t - est.score_min
    if up_span > 0:
        above = 0.5 + 0.5 * (x - t) / up_span
    else:
        above = np.where(x > t, 1.0, 0.5)
    if down_span > 0:
        below = 0.5 + 0.5 * (t - x) / down_span
    else:
        below = np.where(x < t, 1.0, 0.5)
    conf = np.clip(np.where(x >= t, above, below), 0.0, 1.0)
    return float(conf[0]) if scalar else conf


def fit_lrc(
    train: ScoreTable, model: DensityModel, target_fmr: float = 1e-3
) -> LrcEstimator:
    g, f = _train_arrays(train)
    threshold = threshold_at_fmr(f, target_fmr)
    abs_llr = np.abs(log_likelihood_ratio(model, np.concatenate([g, f])))
    return LrcEstimator(
        threshold=float(threshold),
        abs_llr_min=float(abs_llr.min()),
        abs_llr_max=float(abs_llr.max()),
    )


def lrc_confidence(est: LrcEstimator, model: DensityModel, s):
    """Likelihood-ratio confidence mapped onto [0.5, 1] per decision branch."""
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)

    llr = np.atleast_1d(log_likelihood_ratio(model, x))
    oriented = np.where(x >= est.threshold, llr, -llr)
    span = est.abs_llr_max - est.abs_llr_min
    if span > 0:
        norm = np.clip((oriented - est.abs_llr_min) / span, 0.0, 1.0)
    else:
        norm = np.where(oriented >= est.abs_llr_max, 1.0, 0.0)
    conf = np.clip(0.5 + 0.5 * norm, 0.0, 1.0)
    return float(conf[0]) if scalar else conf


def fit_erbc(train: ScoreTable, target_fmr: float = 1e-3) -> ErbcEstimator:
    g, f = _train_arrays(train)
    threshold = threshold_at_fmr(f, target_fmr)
    all_scores = np.concatenate([g, f])
    grid = np.linspace(float(all_scores.min()), float(all_scores.max()), _ERBC_GRID_SIZE)
    g_sorted = np.sort(g)
    f_sorted = np.sort(f)
    fmr_curve = (f_sorted.size - np.searchsorted(f_sorted, grid, side="left")) / f_sorted.size
    fnmr_curve = np.searchsorted(g_sorted, grid, side="left") / g_sorted.size
    return ErbcEstimator(
        threshold=float(threshold),
        grid_thresholds=grid,
        grid_fmr=fmr_curve,
        grid_fnmr=fnmr_curve,
    )


def erbc_confidence(est: ErbcEstimator, s):
    """Error-rate-based confidence from the nearest tabulated threshold."""
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)

    grid = est.grid_thresholds
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    if step > 0:
        idx = np.clip(np.rint((x - grid[0]) / step).astype(int), 0, grid.size - 1)
    else:
        idx = np.zeros(x.shape, dtype=int)
    genuine_decision = x >= est.threshold
    conf = np.where(genuine_decision, 1.0 - est.grid_fmr[idx], 1.0 - est.grid_fnmr[idx])
    conf = np.clip(conf, 0.0, 1.0)
    return float(conf[0]) if scalar else conf
