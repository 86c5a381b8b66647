"""Verification (FMR/FNMR) and calibration (ECE/MCE/CCC) metrics.

Conventions used throughout:
  match decision:  ``pic.accepts``, score >= threshold
  FMR(t)  = #(imposter scores accepted) / n_imposter
  FNMR(t) = #(genuine scores not accepted) / n_genuine
  calibration bins are equally spaced over [0, 1], right-open except the
  top bin, which includes 1.0
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import DensityModel
from .pic import accepts, pic_values


@dataclass(frozen=True)
class VerificationResult:
    threshold: float
    fmr: float
    fnmr: float
    n_genuine: int
    n_imposter: int


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """ECE, MCE and the calibration table: one array per CSV column, one entry per bin."""

    bin_lo: np.ndarray
    bin_hi: np.ndarray
    count: np.ndarray
    p_true: np.ndarray
    p_pred_mean: np.ndarray
    p_pred_std: np.ndarray
    ece: float
    mce: float
    n_samples: int


@dataclass(frozen=True, eq=False)
class CccSeries:
    """A confidence calibration curve, one array per CSV column and one entry per bin."""

    bin_center: np.ndarray
    pred_mean: np.ndarray
    pred_std: np.ndarray
    count: np.ndarray


def empirical_fmr(imposter_scores, threshold: float) -> float:
    imposter_scores = np.asarray(imposter_scores, dtype=float)
    return float(np.count_nonzero(accepts(imposter_scores, threshold)) / imposter_scores.size)


def empirical_fnmr(genuine_scores, threshold: float) -> float:
    genuine_scores = np.asarray(genuine_scores, dtype=float)
    rejected = genuine_scores.size - np.count_nonzero(accepts(genuine_scores, threshold))
    return float(rejected / genuine_scores.size)


def threshold_at_fmr(imposter_scores, target_fmr: float) -> float:
    """Smallest observed score usable as a threshold with FMR <= target.

    Computed by sorting the imposter scores and indexing. When the target
    is below 1/n (no observed threshold can reach it) the value just above
    the maximum imposter score is returned and a warning is emitted.
    """
    scores = np.sort(np.asarray(imposter_scores, dtype=float).ravel())
    n = scores.size
    if n == 0:
        raise ValueError("imposter score array is empty")
    if not 0.0 < target_fmr < 1.0:
        raise ValueError(f"target FMR must be in (0, 1), got {target_fmr}")

    allowed = int(math.floor(target_fmr * n))
    if allowed == 0:
        warnings.warn(
            f"target FMR {target_fmr} is below 1/{n}; returning a threshold "
            "above the maximum imposter score (FMR 0)",
            RuntimeWarning,
            stacklevel=2,
        )
        return float(np.nextafter(scores[-1], np.inf))

    # Candidate: the value whose suffix count is `allowed`; with ties the
    # suffix may be longer, in which case step up to the next distinct value.
    idx = n - allowed
    candidate = scores[idx]
    first = int(np.searchsorted(scores, candidate, side="left"))
    if first >= idx:
        return float(candidate)
    nxt = int(np.searchsorted(scores, candidate, side="right"))
    if nxt < n:
        return float(scores[nxt])
    warnings.warn(
        f"target FMR {target_fmr} unreachable due to tied scores; returning a "
        "threshold above the maximum imposter score (FMR 0)",
        RuntimeWarning,
        stacklevel=2,
    )
    return float(np.nextafter(scores[-1], np.inf))


def fnmr_at_fmr(genuine_scores, imposter_scores, target_fmr: float) -> VerificationResult:
    """False non-match rate at the threshold achieving the target FMR."""
    genuine_scores = np.asarray(genuine_scores, dtype=float).ravel()
    imposter_scores = np.asarray(imposter_scores, dtype=float).ravel()
    if genuine_scores.size == 0:
        raise ValueError("genuine score array is empty")
    t = threshold_at_fmr(imposter_scores, target_fmr)
    return VerificationResult(
        threshold=t,
        fmr=empirical_fmr(imposter_scores, t),
        fnmr=empirical_fnmr(genuine_scores, t),
        n_genuine=int(genuine_scores.size),
        n_imposter=int(imposter_scores.size),
    )


def _validated_confidences(confidences, correct) -> tuple[np.ndarray, np.ndarray]:
    conf = np.asarray(confidences, dtype=float).ravel()
    corr = np.asarray(correct, dtype=bool).ravel()
    if conf.size == 0:
        raise ValueError("confidence array is empty")
    if conf.size != corr.size:
        raise ValueError(f"length mismatch: {conf.size} confidences vs {corr.size} outcomes")
    _require_finite(conf, "confidences", unit=True)
    return conf, corr


def _require_finite(values: np.ndarray, name: str, unit: bool = False) -> None:
    """Fail naming the first index not finite, or then, with ``unit``, outside [0, 1]."""
    bad, must = np.flatnonzero(~np.isfinite(values)), "be finite"
    if unit and not bad.size:
        bad, must = np.flatnonzero((values < 0.0) | (values > 1.0)), "lie in [0, 1]"
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must {must}, got {float(values[i])!r} at index {i}")


def _binned(keys: np.ndarray, n_bins: int, values: np.ndarray, *others: np.ndarray):
    """Bin by key (right-open bins over [0, 1], 1.0 in the top bin): the count per bin,
    ``np.mean`` and ``np.std`` of ``values``, then ``np.mean`` of each array of
    ``others``, over each non-empty bin's values, in row order, and NaN for
    an empty bin.

    The bin of each key is computed in one float temporary and kept in the
    narrowest unsigned integer that holds it; a bin's values are then
    selected into one array, shared by its mean and its std.
    """
    position = keys * n_bins
    np.floor(position, out=position)
    np.clip(position, 0, n_bins - 1, out=position)
    idx = position.astype(np.min_scalar_type(n_bins - 1))
    del position
    count = np.bincount(idx, minlength=n_bins)
    mean, std, *means = (np.full(n_bins, math.nan) for _ in range(len(others) + 2))
    for b in np.flatnonzero(count):
        mask = idx == b
        selected = values[mask]
        mean[b] = np.mean(selected)
        std[b] = np.std(selected)
        for other, other_mean in zip(others, means):
            other_mean[b] = np.mean(other[mask])
    return count, mean, std, *means


def calibration_report(confidences, correct, m_bins: int = 10) -> CalibrationReport:
    """Bin-wise predicted-vs-true confidence table with ECE and MCE.

    ECE is the bin-count-weighted mean absolute gap between the mean
    predicted confidence and the fraction of correct decisions per bin;
    MCE is the maximum gap over non-empty bins. Empty bins contribute
    nothing to either. A confidence that is not finite, or lies outside
    [0, 1], raises ``ValueError`` naming the first such index.
    """
    if m_bins < 1:
        raise ValueError(f"m_bins must be >= 1, got {m_bins}")
    conf, corr = _validated_confidences(confidences, correct)
    n = conf.size
    count, p_pred_mean, p_pred_std, p_true = _binned(conf, m_bins, conf, corr)

    ece_total = mce_max = 0.0
    for c, gap in zip(count.tolist(), np.abs(p_true - p_pred_mean).tolist()):
        if c:  # one bin at a time, in bin order: the sum's bits depend on its order
            ece_total += (c / n) * gap
            mce_max = max(mce_max, gap)

    edges = np.arange(m_bins + 1) / m_bins
    return CalibrationReport(
        bin_lo=edges[:-1], bin_hi=edges[1:], count=count, p_true=p_true,
        p_pred_mean=p_pred_mean, p_pred_std=p_pred_std, ece=ece_total, mce=mce_max, n_samples=n,
    )


def ece(confidences, correct, m_bins: int = 10) -> float:
    """Expected calibration error over equally spaced confidence bins."""
    return calibration_report(confidences, correct, m_bins).ece


def mce(confidences, correct, m_bins: int = 10) -> float:
    """Maximum calibration error: worst bin gap over non-empty bins."""
    return calibration_report(confidences, correct, m_bins).mce


def ccc(true_conf, pred_conf, b_bins: int = 30) -> CccSeries:
    """Confidence calibration curve series.

    Samples are binned by their true confidence; each bin reports the mean
    and standard deviation of the predicted confidences it holds. Empty bins
    have count 0 and NaN statistics. A non-finite input, or a predicted
    confidence outside [0, 1], raises ``ValueError`` naming its index.
    """
    if b_bins < 1:
        raise ValueError(f"b_bins must be >= 1, got {b_bins}")
    t = np.asarray(true_conf, dtype=float).ravel()
    p = np.asarray(pred_conf, dtype=float).ravel()
    if t.size != p.size:
        raise ValueError(f"length mismatch: {t.size} true vs {p.size} predicted")
    if t.size == 0:
        raise ValueError("input arrays are empty")
    _require_finite(t, "true confidences")
    _require_finite(p, "predicted confidences", unit=True)
    count, pred_mean, pred_std = _binned(t, b_bins, p)
    return CccSeries(bin_center=(np.arange(b_bins) + 0.5) / b_bins, pred_mean=pred_mean,
                     pred_std=pred_std, count=count)


def true_confidence(model_test: DensityModel, scores, accepted):
    """Empirical correctness probability of each decision.

    Uses a model fitted on held-out (test) scores as the ground-truth
    posterior: the probability the score is genuine where the decision
    accepted it as genuine, otherwise its complement, computed in the
    posterior's buffer.
    """
    p = np.asarray(pic_values(model_test, scores))
    return np.subtract(1.0, p, out=p, where=np.logical_not(accepted))
