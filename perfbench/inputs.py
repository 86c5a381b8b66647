"""Deterministic benchmark inputs drawn from the two-Gaussian score model.

The benchmark makes its own inputs so the program under test receives only
generated files. The score distributions match ``picscore.SynthConfig``
defaults, so the closed-form posterior in ``picscore.synth`` is an exact
oracle for every output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GENUINE_MEAN = 0.7
IMPOSTER_MEAN = 0.2
SCORE_STD = 0.1
N_SUBJECTS = 100
HEADER = "score,label,probe_id,reference_id,subject_a,subject_b"

# Independent random streams derived from one workload seed.
STREAM_TRAIN = 1
STREAM_REFERENCE = 2
STREAM_TEST = 3


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def oracle_config():
    """The generator's parameters as a ``SynthConfig`` for the analytic oracle."""
    from picscore import SynthConfig

    return SynthConfig(
        genuine_mean=GENUINE_MEAN,
        genuine_std=SCORE_STD,
        imposter_mean=IMPOSTER_MEAN,
        imposter_std=SCORE_STD,
    )


def write_scores(
    path: Path, seed: int, stream: int, n_genuine: int, n_imposter: int, refs_per_probe: int
) -> int:
    """Write a labeled score CSV; consecutive rows form (probe, claimed id) groups.

    Genuine groups compare a probe with references of its own subject;
    imposter groups claim another subject. Returns the number of rows.
    """
    rng = rng_for(seed, stream)
    genuine = rng.normal(GENUINE_MEAN, SCORE_STD, n_genuine)
    imposter = rng.normal(IMPOSTER_MEAN, SCORE_STD, n_imposter)
    lines = [HEADER]
    for i, score in enumerate(genuine.tolist()):
        group = i // refs_per_probe
        subject = f"S{group % N_SUBJECTS:05d}"
        lines.append(f"{score:.6f},genuine,gp{group:07d},gr{i:07d},{subject},{subject}")
    for j, score in enumerate(imposter.tolist()):
        group = j // refs_per_probe
        a = group % N_SUBJECTS
        b = (a + 1 + (group // N_SUBJECTS) % (N_SUBJECTS - 1)) % N_SUBJECTS
        lines.append(f"{score:.6f},imposter,ip{group:07d},ir{j:07d},S{a:05d},S{b:05d}")
    Path(path).write_text("\n".join(lines) + "\n")
    return n_genuine + n_imposter
