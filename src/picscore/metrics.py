"""Verification (FMR/FNMR) and calibration (ECE/MCE/CCC) metrics.

Conventions used throughout:
  match decision:  score >= threshold
  FMR(t)  = #(imposter scores >= t) / n_imposter
  FNMR(t) = #(genuine scores  < t) / n_genuine
  calibration bins are equally spaced over [0, 1], right-open except the
  top bin, which includes 1.0
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .density import DensityModel
from .pic import pic_values


@dataclass(frozen=True)
class VerificationResult:
    threshold: float
    fmr: float
    fnmr: float
    n_genuine: int
    n_imposter: int


@dataclass(frozen=True)
class CalibrationBin:
    lo: float
    hi: float
    count: int
    p_true: float
    p_pred_mean: float
    p_pred_std: float


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[CalibrationBin, ...]
    ece: float
    mce: float
    n_bins: int
    n_samples: int


@dataclass(frozen=True)
class CccBin:
    center: float
    pred_mean: float
    pred_std: float
    count: int


def empirical_fmr(imposter_scores, threshold: float) -> float:
    imposter_scores = np.asarray(imposter_scores, dtype=float)
    return float(np.count_nonzero(imposter_scores >= threshold) / imposter_scores.size)


def empirical_fnmr(genuine_scores, threshold: float) -> float:
    genuine_scores = np.asarray(genuine_scores, dtype=float)
    return float(np.count_nonzero(genuine_scores < threshold) / genuine_scores.size)


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
    _require_finite(conf, "confidences")
    if np.any(conf < 0.0) or np.any(conf > 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    return conf, corr


def _require_finite(values: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must be finite, got {float(values[i])!r} at index {i}")


def _bin_indices(values: np.ndarray, n_bins: int) -> np.ndarray:
    # Right-open bins; a value of exactly 1.0 lands in the top bin.
    return np.clip(np.floor(values * n_bins).astype(int), 0, n_bins - 1)


def calibration_report(confidences, correct, m_bins: int = 10) -> CalibrationReport:
    """Bin-wise predicted-vs-true confidence table with ECE and MCE.

    ECE is the bin-count-weighted mean absolute gap between the mean
    predicted confidence and the fraction of correct decisions per bin;
    MCE is the maximum gap over non-empty bins. Empty bins contribute
    nothing to either. A confidence that is not finite, or lies outside
    [0, 1], raises ``ValueError``; the first non-finite one is named by index.
    """
    if m_bins < 1:
        raise ValueError(f"m_bins must be >= 1, got {m_bins}")
    conf, corr = _validated_confidences(confidences, correct)
    n = conf.size
    idx = _bin_indices(conf, m_bins)

    bins = []
    ece_total = 0.0
    mce_max = 0.0
    for b in range(m_bins):
        mask = idx == b
        count = int(np.count_nonzero(mask))
        lo, hi = b / m_bins, (b + 1) / m_bins
        if count == 0:
            bins.append(CalibrationBin(lo, hi, 0, math.nan, math.nan, math.nan))
            continue
        p_true = float(np.mean(corr[mask]))
        p_pred = float(np.mean(conf[mask]))
        p_std = float(np.std(conf[mask]))
        gap = abs(p_true - p_pred)
        ece_total += (count / n) * gap
        mce_max = max(mce_max, gap)
        bins.append(CalibrationBin(lo, hi, count, p_true, p_pred, p_std))

    return CalibrationReport(
        bins=tuple(bins), ece=ece_total, mce=mce_max, n_bins=m_bins, n_samples=n
    )


def ece(confidences, correct, m_bins: int = 10) -> float:
    """Expected calibration error over equally spaced confidence bins."""
    return calibration_report(confidences, correct, m_bins).ece


def mce(confidences, correct, m_bins: int = 10) -> float:
    """Maximum calibration error: worst bin gap over non-empty bins."""
    return calibration_report(confidences, correct, m_bins).mce


def ccc(true_conf, pred_conf, b_bins: int = 30) -> list[CccBin]:
    """Confidence calibration curve series.

    Samples are binned by their true confidence; each bin reports the mean
    and standard deviation of the predicted confidences it holds. Empty
    bins are emitted with count 0 and NaN statistics so the series always
    has ``b_bins`` rows. A non-finite input raises ``ValueError`` naming
    its index.
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
    _require_finite(p, "predicted confidences")
    idx = _bin_indices(t, b_bins)

    series = []
    for b in range(b_bins):
        mask = idx == b
        count = int(np.count_nonzero(mask))
        center = (b + 0.5) / b_bins
        if count == 0:
            series.append(CccBin(center, math.nan, math.nan, 0))
        else:
            series.append(
                CccBin(center, float(np.mean(p[mask])), float(np.std(p[mask])), count)
            )
    return series


def true_confidence(model_test: DensityModel, scores, accepted):
    """Empirical correctness probability of each decision.

    Uses a model fitted on held-out (test) scores as the ground-truth
    posterior: the probability the score is genuine where the decision
    accepted it as genuine, otherwise its complement.
    """
    p = pic_values(model_test, scores)
    return np.where(accepted, p, 1.0 - p)
