"""Synthetic score generation with a closed-form posterior oracle.

Genuine and imposter scores are drawn from one Gaussian each, so the exact
Bayes posterior is available in closed form and every calibration claim can
be checked against it at desk scale. A generated score table carries
deterministic round-robin subject and probe identifier columns, which makes
it splittable by subject and groupable for multi-reference fusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import IdColumn, ScoreTable
from .pic import _stable_sigmoid


@dataclass(frozen=True)
class SynthConfig:
    """Two-Gaussian score generator parameters.

    ``refs_per_probe`` controls how many consecutive rows share one
    (probe, claimed identity) group, so fused scoring has groups to work
    with; the default of 1 yields plain independent comparisons.
    """

    genuine_mean: float = 0.7
    genuine_std: float = 0.1
    imposter_mean: float = 0.2
    imposter_std: float = 0.1
    n_genuine: int = 1000
    n_imposter: int = 1000
    seed: int = 0
    n_subjects: int = 100
    refs_per_probe: int = 1

    def __post_init__(self):
        for name in ("genuine_mean", "imposter_mean", "genuine_std", "imposter_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.genuine_std <= 0 or self.imposter_std <= 0:
            raise ValueError("standard deviations must be positive")
        if self.genuine_mean <= self.imposter_mean:
            raise ValueError("genuine_mean must exceed imposter_mean")
        if self.n_genuine < 1 or self.n_imposter < 1:
            raise ValueError("sample counts must be >= 1")
        if self.n_subjects < 2:
            raise ValueError("need at least two subjects")
        if self.refs_per_probe < 1:
            raise ValueError("refs_per_probe must be >= 1")


def generate(config: SynthConfig) -> ScoreTable:
    """Draw a labeled score table from the configured Gaussians.

    Deterministic per seed. Genuine rows come first, then imposters.
    Genuine groups compare a probe against references of its own subject;
    imposter groups claim a different subject, cycling over subject pairs.
    """
    rng = np.random.default_rng(config.seed)
    genuine = rng.normal(config.genuine_mean, config.genuine_std, config.n_genuine)
    imposter = rng.normal(config.imposter_mean, config.imposter_std, config.n_imposter)

    n, n_genuine, refs = config.n_subjects, config.n_genuine, config.refs_per_probe
    n_rows = n_genuine + config.n_imposter
    # int32 codes where the row count fits (``dataset`` reads codes no wider):
    # no code and no step of the subject arithmetic below exceeds it.
    code = np.int32 if n_rows <= np.iinfo(np.int32).max else np.intp
    is_genuine = np.zeros(n_rows, dtype=bool)
    is_genuine[:n_genuine] = True
    # Each row's group: its position within its class over refs_per_probe.
    group = np.arange(n_rows, dtype=code)
    group[n_genuine:] -= n_genuine
    group //= refs
    subject_a = group % n
    # An imposter group claims (subject_a + 1 + (group // n) % (n - 1)) % n.
    subject_b = group // n
    subject_b %= n - 1
    subject_b += subject_a
    subject_b += 1
    subject_b %= n
    np.copyto(subject_b, subject_a, where=is_genuine)
    # A probe string per group, genuine groups first, and a reference per row.
    kinds = (("g", n_genuine), ("i", config.n_imposter))
    probes = np.fromiter((f"{k}p{g:07d}" for k, size in kinds
                          for g in range(-(-size // refs))), dtype=object)
    group[n_genuine:] += -(-n_genuine // refs)  # now each row's code into the probes
    references = np.fromiter((f"{k}r{i:07d}" for k, size in kinds for i in range(size)),
                             dtype=object, count=n_rows)
    subjects = np.array([f"S{k:05d}" for k in range(n)], dtype=object)
    return ScoreTable(
        np.concatenate([genuine, imposter]),
        is_genuine,
        probe_id=IdColumn(group, probes),
        reference_id=IdColumn(np.arange(n_rows, dtype=code), references),
        subject_a=IdColumn(subject_a, subjects),
        subject_b=IdColumn(subject_b, subjects),
    )


def _log_density_ratio(config: SynthConfig, s) -> np.ndarray:
    """log N(s; mu_g, sd_g) - log N(s; mu_f, sd_f), vectorized and stable."""
    arr = np.asarray(s, dtype=float)
    zg = (arr - config.genuine_mean) / config.genuine_std
    zf = (arr - config.imposter_mean) / config.imposter_std
    return (
        0.5 * (zf * zf - zg * zg)
        + math.log(config.imposter_std)
        - math.log(config.genuine_std)
    )


def analytic_posterior(config: SynthConfig, s, prior_genuine: float = 0.5):
    """Exact Bayes posterior P(genuine | s) under the true densities.

    For equal variances and equal priors this reduces to
    sigmoid((mu_g - mu_f) * (s - (mu_g + mu_f) / 2) / sigma^2).
    """
    if not 0.0 < prior_genuine <= 1.0:
        raise ValueError(f"prior_genuine must be in (0, 1], got {prior_genuine}")
    if prior_genuine == 1.0:
        arr = np.asarray(s, dtype=float)
        return 1.0 if arr.ndim == 0 else np.ones_like(arr)
    prior_logit = math.log(prior_genuine) - math.log(1.0 - prior_genuine)
    return _stable_sigmoid(_log_density_ratio(config, s) + prior_logit)


def analytic_fused_posterior(config: SynthConfig, scores, prior_genuine: float = 0.5) -> float:
    """Exact fused Bayes posterior for independent scores of one identity."""
    arr = np.asarray(scores, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("need at least one score")
    if not 0.0 < prior_genuine <= 1.0:
        raise ValueError(f"prior_genuine must be in (0, 1], got {prior_genuine}")
    if prior_genuine == 1.0:
        return 1.0
    prior_logit = math.log(prior_genuine) - math.log(1.0 - prior_genuine)
    total = math.fsum(_log_density_ratio(config, arr).tolist())
    return float(_stable_sigmoid(total + prior_logit))
