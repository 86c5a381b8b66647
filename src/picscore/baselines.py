"""Score-level baseline confidence estimators: DTC, LRC, ERBC.

All three express decision confidence (the probability the accept/reject
decision is correct) so their calibration can be compared directly with
posterior-based confidence. Fitted state comes from training scores only,
and each estimator type holds exactly the state its confidence function uses.
Each takes its accept branch from ``pic.accepts``, so ties accept. A scalar
score gives a float (``np.float64``) confidence. Confidences are computed a
block of rows at a time (``pic._blockwise``), so beyond the scores and the
result each holds one block's temporaries.

DTC  - distance to the decision threshold, min-max normalized so the
       threshold maps to 0.5 and the training extremes map to 1.0.
LRC  - log likelihood ratio, min-max normalized over the training |log LR|
       range onto [0.5, 1], mirrored for imposter decisions.
ERBC - the training error rate (FMR or FNMR, by decision branch) of the
       tabulated threshold nearest the score, reported as 1 - error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ScoreTable
from .density import DensityModel, _equal_fields
from .metrics import threshold_at_fmr
from .pic import _blockwise, accepts, log_likelihood_ratio

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

    __eq__ = _equal_fields


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
    """Distance-to-threshold confidence, clamped to [0, 1].

    Each span divides scores clipped to its own side of the threshold and to
    the training range, so no quotient exceeds 1, even in the branch a score
    does not take, and none overflows; beyond the range that gives 1.0, as
    the clamp does. The quotient is halved after the division, so that a
    subnormal distance does not underflow to 0 first.
    """
    t = est.threshold
    up_span = est.score_max - t
    down_span = t - est.score_min

    def confidence(x):
        if up_span > 0:
            above = 0.5 + 0.5 * ((np.clip(x, t, est.score_max) - t) / up_span)
        else:
            above = np.where(x > t, 1.0, 0.5)
        if down_span > 0:
            below = 0.5 + 0.5 * ((t - np.clip(x, est.score_min, t)) / down_span)
        else:
            below = np.where(x < t, 1.0, 0.5)
        return np.clip(np.where(accepts(x, t), above, below), 0.0, 1.0)

    return _blockwise(confidence, s)


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
    """Likelihood-ratio confidence mapped onto [0.5, 1] per decision branch.

    The oriented ratio is clipped to the training range before it is
    divided by the span, so no quotient exceeds 1 or overflows, even when
    the span is subnormal.
    """
    span = est.abs_llr_max - est.abs_llr_min

    def confidence(x):
        oriented = log_likelihood_ratio(model, x)
        np.negative(oriented, out=oriented, where=np.logical_not(accepts(x, est.threshold)))
        if span > 0:
            norm = np.clip(oriented, est.abs_llr_min, est.abs_llr_max, out=oriented)
            norm -= est.abs_llr_min
            norm /= span
        else:
            norm = np.where(oriented >= est.abs_llr_max, 1.0, 0.0)
        norm *= 0.5
        norm += 0.5
        return np.clip(norm, 0.0, 1.0, out=norm)

    return _blockwise(confidence, s)


def fit_erbc(train: ScoreTable, target_fmr: float = 1e-3) -> ErbcEstimator:
    g, f = _train_arrays(train)
    threshold = threshold_at_fmr(f, target_fmr)
    all_scores = np.concatenate([g, f])
    lo, hi = float(all_scores.min()), float(all_scores.max())
    scale = _grid_scale(lo, hi)
    grid = np.linspace(lo * scale, hi * scale, _ERBC_GRID_SIZE) / scale
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


def _grid_scale(lo: float, hi: float) -> float:
    """1, or 1/4 where a grid from ``lo`` to ``hi`` would overflow: in its span or
    its last step, as ``np.linspace`` computes them. A quarter of any finite range
    spans at most half the largest float, and a power of two scales a normal
    float exactly."""
    n = _ERBC_GRID_SIZE - 1
    return 1.0 if math.isfinite((hi - lo) / n * n) else 0.25


def erbc_confidence(est: ErbcEstimator, s):
    """Error-rate-based confidence from the nearest tabulated threshold.

    A score beyond the grid takes the confidence at the grid's nearer end:
    scores are clipped to the grid, and scaled as the grid was built,
    before they become indices, so no finite score overflows.
    """
    grid = est.grid_thresholds
    scale = _grid_scale(float(grid[0]), float(grid[-1]))
    lo = grid[0] * scale
    step = (grid[-1] * scale - lo) / (grid.size - 1)

    def confidence(x):
        if step > 0:
            position = np.clip(x, grid[0], grid[-1])
            position *= scale
            position -= lo
            position /= step
            np.rint(position, out=position)
            idx = np.clip(position, 0, grid.size - 1, out=position).astype(np.intp)
        else:
            idx = np.zeros(x.shape, dtype=np.intp)
        error = est.grid_fnmr[idx]
        np.copyto(error, est.grid_fmr[idx], where=accepts(x, est.threshold))
        np.subtract(1.0, error, out=error)
        return np.clip(error, 0.0, 1.0, out=error)

    return _blockwise(confidence, s)
