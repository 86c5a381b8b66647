"""Probabilistic confidence calibration for biometric comparison scores.

The public names below are imported from their modules on first use
(PEP 562), so ``import picscore`` and ``python -m picscore`` load only the
modules a program uses.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "baselines": (
        "dtc_confidence", "erbc_confidence", "fit_dtc", "fit_erbc", "fit_lrc", "lrc_confidence",
    ),
    "dataset": (
        "GENUINE", "IMPOSTER", "ScoreTable", "load_scores", "save_scores",
        "split_subject_exclusive",
    ),
    "density": (
        "DENSITY_FLOOR", "DensityModel", "KdeDensity", "default_bandwidth", "eval_density",
        "fit_kde", "fit_model", "load_model", "save_model", "scott_bandwidth",
    ),
    "metrics": (
        "CalibrationReport", "CccSeries", "VerificationResult",
        "calibration_report", "ccc", "ece", "empirical_fmr", "empirical_fnmr", "fnmr_at_fmr",
        "mce", "threshold_at_fmr", "true_confidence",
    ),
    "pic": (
        "PicScore", "decide", "decision_confidence", "fuse_groups", "log_likelihood_ratio",
        "pair_groups", "pic_multi", "pic_single", "pic_threshold_for_fmr", "pic_values",
    ),
    "synth": (
        "SynthConfig", "analytic_fused_posterior", "analytic_posterior", "generate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
