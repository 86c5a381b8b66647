"""Posterior confidence (PIC) scores from trained densities.

A PIC score is the posterior probability that one or more comparison
scores were drawn from the genuine distribution rather than the imposter
distribution. Multi-score fusion multiplies per-score likelihoods, which
is accumulated here as a sum of log likelihood ratios and squashed with a
numerically stable sigmoid, so fusing hundreds of scores cannot underflow.

The float kernels work ``_BLOCK_ROWS`` rows at a time through one loop,
``_blockwise``, so beyond their input and output they hold a fixed amount
of scratch memory. A kernel works in place only on a block it allocated
itself, never on its caller's array. Each element goes through the same
IEEE operations as in one whole-array pass, so the results do not depend
on the block size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import GENUINE, IMPOSTER, ScoreTable, fail_first_row
from .density import DensityModel, _require_finite, eval_density

_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class PicScore:
    """A posterior confidence value with its log-likelihood-ratio sum."""

    value: float
    n_comparisons: int
    log_lr_sum: float


def _blockwise(kernel, x):
    """``kernel`` of float64 ``x`` computed ``_BLOCK_ROWS`` elements at a time.

    The one loop of every elementwise kernel in the package. ``kernel`` maps
    a 1-d block, a view of ``x`` that it must not write into, to an array of
    the same size, one element from one element. Returns a new float64 array
    shaped like ``x``, or, by the package's 0-d rule ``[()]``, a float64
    scalar for a 0-d ``x``.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.size)
    for start in range(0, flat.size, _BLOCK_ROWS):
        out[start:start + _BLOCK_ROWS] = kernel(flat[start:start + _BLOCK_ROWS])
    return out.reshape(x.shape)[()]


def _sigmoid_block(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + e)`` where z >= 0, else ``e / (1 + e)``, with ``e = exp(-|z|)``.

    exp only ever sees non-positive arguments, so neither branch overflows.
    The result is written over ``z``, a float64 block its caller allocated,
    so that ``1 + e`` is the only temporary of a block's size.
    """
    positive = z >= 0.0
    np.abs(z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    denominator = z + 1.0
    np.copyto(z, 1.0, where=positive)  # the numerator
    return np.divide(z, denominator, out=z)


def _stable_sigmoid(z):
    """The numerically stable sigmoid of ``z``, a block at a time (``_sigmoid_block``).

    Each block is copied before the kernel works over it, so ``z`` is left
    as it is; a 0-d ``z`` gives a float64 scalar.
    """
    return _blockwise(lambda block: _sigmoid_block(block.copy()), z)


def _prior_logit(model: DensityModel) -> float:
    return math.log(model.prior_genuine) - math.log(model.prior_imposter)


def log_likelihood_ratio(model: DensityModel, scores):
    """log g(s) - log f(s) for each score; scalar in, scalar out.

    A score beyond the model's grid gets the ratio at the nearest grid
    edge; NaN gives NaN. The scores are taken a block of ``_BLOCK_ROWS``
    at a time: each block is sorted and clipped to the grid once, and both
    classes are looked up on that copy, in ascending order. Beyond the
    scores and the result, only arrays of one block's size are alive.
    """
    return _blockwise(lambda x: _llr_block(model, x), scores)


def _llr_block(model: DensityModel, x: np.ndarray) -> np.ndarray:
    order = np.argsort(x)
    llr = x[order]
    np.clip(llr, model.genuine.grid_min, model.genuine.grid_max, out=llr)
    log_f = eval_density(model.imposter, llr)
    np.log(log_f, out=log_f)
    np.log(eval_density(model.genuine, llr), out=llr)
    llr -= log_f
    log_f[order] = llr
    return log_f


def pic_values(model: DensityModel, scores):
    """Vectorized single-comparison posterior for an array of scores.

    One pass over the scores, a block at a time: the block's log likelihood
    ratios, plus the prior log-odds, then the sigmoid over that sum. Beyond
    the scores and the result it holds one block's scratch.
    """
    prior_logit = _prior_logit(model)
    return _blockwise(lambda x: _sigmoid_block(_llr_block(model, x) + prior_logit), scores)


def pic_single(model: DensityModel, s: float) -> PicScore:
    """Posterior probability that one comparison score is genuine.

    value = g(s) * P(g) / (g(s) * P(g) + f(s) * P(f)), computed as a
    sigmoid of the log likelihood ratio plus the prior log-odds.
    """
    llr = float(log_likelihood_ratio(model, float(s)))
    value = float(_stable_sigmoid(llr + _prior_logit(model)))
    return PicScore(value=value, n_comparisons=1, log_lr_sum=llr)


def pair_groups(table: ScoreTable, max_refs: int):
    """``table``'s rows grouped by (probe, claimed identity), ``probe_id`` and ``subject_b``.

    Returns ``(first, sizes, used, kept)``, the groups in order of first row: each group's
    first row; its size; ``used``, its size capped at ``max_refs`` (0 below 1); and its first
    ``used`` rows in file order, group after group, as ``fuse_groups`` takes them with
    ``used`` as their sizes. Fails at the lowest row with a blank id or a mixed label.
    """
    probes, claimed = table.probe_id, table.subject_b
    # Pair keys, and every index array, in 4 bytes where their range fits.
    fits = np.iinfo(np.int32).max
    pairs = probes.codes.astype(
        np.int32 if probes.values.size * claimed.values.size <= fits else np.int64)
    pairs *= claimed.values.size
    pairs += claimed.codes
    index = np.int32 if pairs.size <= fits else np.intp
    order = np.argsort(pairs, kind="stable").astype(index)  # by pair, file order within each
    pairs.sort()
    new = np.ones(pairs.size, dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    del pairs
    starts = np.flatnonzero(new).astype(index)  # where each pair's rows start in ``order``
    del new
    sizes = np.diff(starts, append=index(order.size))
    first = order[starts]  # each pair's first row
    label = table.is_genuine
    mixed = np.empty(label.size, dtype=bool)
    mixed[order] = label[order] != np.repeat(label[first], sizes)
    groups = np.argsort(first)  # the pairs in order of first row
    first, starts, sizes = first[groups], starts[groups], sizes[groups]
    used = np.minimum(sizes, max(0, min(max_refs, order.size)))  # in numpy's integer range
    place = np.arange(used.sum(), dtype=index)  # each kept row's place in ``order``
    place += np.repeat(starts - (np.cumsum(used, dtype=index) - used), used)
    blank = (probes.values == "")[probes.codes] | (claimed.values == "")[claimed.codes]
    fail_first_row(blank | mixed, lambda i: "probe_id and subject_b are required for fusion"
                   if blank[i] else f"group ({probes.values[probes.codes[i]]}, "
                   f"{claimed.values[claimed.codes[i]]}) mixes genuine and imposter labels")
    return first, sizes, used, order[place]


def fuse_groups(model: DensityModel, scores, sizes):
    """Joint posterior of every group of scores of one claimed identity.

    ``scores`` holds the groups one after another and ``sizes[g]`` is group
    g's length. Assumes the scores of a group are drawn independently, so
    the class likelihoods are per-score products; each group's ratio is
    accumulated in log space with an exactly rounded sum, making the result
    independent of score order within a group. All scores go through one
    ``log_likelihood_ratio`` call; the ratios are then turned into Python
    floats and summed a block of whole groups at a time. Returns
    ``(values, log_lr_sums)``, one per group.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    sizes = np.asarray(sizes)
    if arr.size == 0:
        raise ValueError("fusion requires at least one score")
    if (sizes.ndim != 1 or sizes.dtype.kind not in "iu"
            or ((sizes < 1) | (sizes > arr.size)).any() or sizes.sum() != arr.size):
        raise ValueError(f"sizes must be a 1-d array of integers >= 1 summing to {arr.size}")
    _require_finite(arr, "scores")
    llrs = log_likelihood_ratio(model, arr)
    # Whole groups, a block at a time: each block ends with the last group that
    # ends within the next ``step`` rows. A Python float and its list entry take
    # 4 times numpy's 8 bytes, so ``step`` is a quarter of the kernels' block.
    ends = np.cumsum(sizes)
    step = -(-_BLOCK_ROWS // 4)
    cuts = np.searchsorted(ends, np.arange(step, arr.size, step), side="right")
    sums = np.empty(sizes.size)
    for first, stop in itertools.pairwise([0, *cuts.tolist(), sizes.size]):
        if first == stop:  # a group longer than a block spans this cut too
            continue
        top = int(ends[first] - sizes[first])  # the block's first row
        block_ends = (ends[first:stop] - top).tolist()
        block = llrs[top:top + block_ends[-1]].tolist()
        sums[first:stop] = [math.fsum(block[a:b]) for a, b in zip([0, *block_ends], block_ends)]
    return _stable_sigmoid(sums + _prior_logit(model)), sums


def pic_multi(model: DensityModel, scores) -> PicScore:
    """Joint posterior for several scores of one claimed identity.

    The one-group case of ``fuse_groups``, ``sizes=[len(scores)]``: log likelihood
    ratios of independent scores summed exactly, independent of their order.
    """
    arr = np.asarray(scores, dtype=float).ravel()
    values, sums = fuse_groups(model, arr, [arr.size])
    return PicScore(value=float(values[0]), n_comparisons=int(arr.size), log_lr_sum=float(sums[0]))


def accepts(values, threshold: float):
    """The decision rule: a value at or above the threshold decides genuine, so ties accept."""
    return np.asarray(values, dtype=float) >= threshold


def decide(values, threshold: float):
    """Threshold posterior values into decisions and their confidences.

    A value at or above the threshold decides genuine (``accepts``) with
    confidence equal to the value itself; below decides imposter with
    confidence one minus the value. Returns ``(is_genuine, confidence)``
    arrays shaped like ``values``; the confidences are the only float array
    allocated, ``1 - values`` with the accepted values copied over it.
    """
    values = np.asarray(values, dtype=float)
    is_genuine = accepts(values, threshold)
    confidence = np.subtract(1.0, values, out=np.empty_like(values))
    np.copyto(confidence, values, where=is_genuine)
    return is_genuine, confidence


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

