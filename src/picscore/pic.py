"""Posterior confidence (PIC) scores from trained densities.

A PIC score is the posterior probability that one or more comparison
scores were drawn from the genuine distribution rather than the imposter
distribution. Multi-score fusion multiplies per-score likelihoods, which
is accumulated here as a sum of log likelihood ratios and squashed with a
numerically stable sigmoid, so fusing hundreds of scores cannot underflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GENUINE, IMPOSTER
from .density import DensityModel, eval_density


@dataclass(frozen=True)
class PicScore:
    """A posterior confidence value with its log-likelihood-ratio sum."""

    value: float
    n_comparisons: int
    log_lr_sum: float


def _stable_sigmoid(z):
    # exp only ever sees non-positive arguments, so neither branch overflows
    arr = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return float(out) if arr.ndim == 0 else out


def _prior_logit(model: DensityModel) -> float:
    return math.log(model.prior_genuine) - math.log(model.prior_imposter)


def log_likelihood_ratio(model: DensityModel, scores, mode: str = "lookup"):
    """log g(s) - log f(s) for each score; scalar in, scalar out."""
    g = eval_density(model.genuine, scores, mode=mode)
    f = eval_density(model.imposter, scores, mode=mode)
    return np.log(g) - np.log(f)


def pic_values(model: DensityModel, scores, mode: str = "lookup"):
    """Vectorized single-comparison posterior for an array of scores."""
    return _stable_sigmoid(log_likelihood_ratio(model, scores, mode=mode) + _prior_logit(model))


def pic_single(model: DensityModel, s: float, mode: str = "lookup") -> PicScore:
    """Posterior probability that one comparison score is genuine.

    value = g(s) * P(g) / (g(s) * P(g) + f(s) * P(f)), computed as a
    sigmoid of the log likelihood ratio plus the prior log-odds.
    """
    llr = float(log_likelihood_ratio(model, float(s), mode=mode))
    value = _stable_sigmoid(llr + _prior_logit(model))
    return PicScore(value=value, n_comparisons=1, log_lr_sum=llr)


def fuse_groups(model: DensityModel, scores, groups, mode: str = "lookup"):
    """Joint posterior of every group of scores of one claimed identity.

    ``groups[i]`` is the group index (0 .. G-1) of ``scores[i]``, and every
    index in that range must occur. Assumes the scores of a group are drawn
    independently, so the class likelihoods are per-score products; each
    group's ratio is accumulated in log space with an exactly rounded sum,
    making the result independent of score order. All scores go through
    one density lookup. Returns ``(values, log_lr_sums)``, one per group.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    groups = np.asarray(groups).ravel()
    if arr.size == 0:
        raise ValueError("fusion requires at least one score")
    if groups.shape != arr.shape:
        raise ValueError(f"got {groups.size} group indices for {arr.size} scores")
    if not np.isfinite(arr).all():
        raise ValueError("scores must all be finite")
    sizes = np.bincount(groups)  # raises ValueError on a negative index
    if not sizes.all():
        raise ValueError("every group index 0 .. G-1 must occur")
    ends = list(itertools.accumulate(sizes.tolist()))
    llrs = log_likelihood_ratio(model, arr[np.argsort(groups, kind="stable")], mode=mode).tolist()
    sums = np.array([math.fsum(llrs[a:b]) for a, b in zip([0, *ends], ends)])
    return _stable_sigmoid(sums + _prior_logit(model)), sums


def pic_multi(model: DensityModel, scores, mode: str = "lookup") -> PicScore:
    """Joint posterior for several scores of one claimed identity.

    The single-group case of ``fuse_groups``: independent scores, log
    likelihood ratios summed exactly, independent of score order.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    values, sums = fuse_groups(model, arr, np.zeros(arr.size, dtype=np.intp), mode=mode)
    return PicScore(value=float(values[0]), n_comparisons=int(arr.size), log_lr_sum=float(sums[0]))


def decide(values, threshold: float):
    """Threshold posterior values into decisions and their confidences.

    A value at or above the threshold decides genuine (ties accept) with
    confidence equal to the value itself; below decides imposter with
    confidence one minus the value. Returns ``(is_genuine, confidence)``
    arrays shaped like ``values``.
    """
    values = np.asarray(values, dtype=float)
    is_genuine = values >= threshold
    return is_genuine, np.where(is_genuine, values, 1.0 - values)


def decision_confidence(pic: PicScore, threshold: float) -> tuple[str, float]:
    """Threshold a PIC score into a decision and its correctness probability (see ``decide``)."""
    is_genuine, confidence = decide(pic.value, threshold)
    return (GENUINE if is_genuine else IMPOSTER), float(confidence)


def pic_threshold_for_fmr(target_fmr: float) -> float:
    """Posterior threshold ``1 - target_fmr`` on the PIC scale.

    The threshold bounds the false match rate, it does not attain it: with
    equal priors and a correct model, accepting when the posterior is at
    least ``1 - a`` caps the FMR at ``a / (1 - a)`` (Markov's inequality on
    the likelihood ratio under the imposter density), and the measured FMR
    is usually far lower. To operate at, not below, a target FMR, pick the
    threshold from imposter scores instead (``metrics.threshold_at_fmr``).
    """
    if not 0.0 < target_fmr < 1.0:
        raise ValueError(f"target FMR must be in (0, 1), got {target_fmr}")
    return 1.0 - target_fmr
