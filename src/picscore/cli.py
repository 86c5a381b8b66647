"""Command line pipeline: synth, split, train, score, fuse, eval, curve.

Every command writes a small JSON manifest next to each output artifact
recording the command, inputs, outputs, and parameters (every parsed option
that is not a file path), so a run can be reproduced bit-exactly. Numeric CSV
output uses fixed 6-decimal formatting.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .dataset import (
    GENUINE,
    IdColumn,
    MissingColumns,
    _replacing,
    label_column,
    load_scores,
    read_columns,
    save_scores,
    split_subject_exclusive,
    write_rows,
)

# Beyond the CSV layer, each command imports the library modules it uses, so
# that a process loads only what its command runs.

APPENDED_COLUMNS = ("pic", "decision", "confidence")
FUSED_COLUMNS = ("probe_id", "claimed_id", "label", "n_used", "pic", "decision", "confidence")
CCC_COLUMNS = ("bin_center", "pred_mean", "pred_std", "count")
CALIBRATION_COLUMNS = ("bin_lo", "bin_hi", "count", "p_true", "p_pred_mean", "p_pred_std")
# Parsed dests left out of a manifest's parameters: the command, its handler,
# and the file paths, which the manifest records as inputs and outputs.
NOT_PARAMETERS = frozenset(
    ("command", "func", "input", "out", "out_train", "out_test", "model", "test_model", "train")
)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_manifest(args, inputs: dict, outputs: dict) -> None:
    doc = {
        "command": args.command,
        "tool": "picscore",
        "tool_version": __version__,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "parameters": {k: v for k, v in vars(args).items() if k not in NOT_PARAMETERS},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for out_path in outputs.values():
        with _replacing(f"{out_path}.manifest.json") as handle:
            handle.write(text)


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def cmd_synth(args) -> None:
    from .synth import SynthConfig, generate

    config = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
    score_set = generate(config)
    save_scores(score_set, args.out)
    _write_manifest(args, {}, {"scores": args.out})
    print(f"wrote {len(score_set)} records ({score_set.n_genuine} genuine, "
          f"{score_set.n_imposter} imposter) to {args.out}")


def cmd_split(args) -> None:
    if os.path.realpath(args.out_train) == os.path.realpath(args.out_test):
        raise ValueError(f"--out-train {args.out_train} and --out-test {args.out_test} "
                         "are the same file")
    score_set = load_scores(args.input)
    train, test = split_subject_exclusive(score_set, args.fraction, args.seed)
    dropped = len(score_set) - len(train) - len(test)
    save_scores(train, args.out_train)
    save_scores(test, args.out_test)
    _write_manifest(args, {"scores": args.input}, {"train": args.out_train, "test": args.out_test})
    print(f"train: {train.n_genuine} genuine / {train.n_imposter} imposter")
    print(f"test:  {test.n_genuine} genuine / {test.n_imposter} imposter")
    print(f"dropped {dropped} cross-partition comparisons")


def cmd_train(args) -> None:
    from .density import fit_model, save_model

    train = load_scores(args.input, ("subject_a", "subject_b"))
    model = fit_model(train, prior_genuine=args.prior, resolution=args.resolution,
                      bandwidth=args.bandwidth)
    grid = model.genuine  # both classes share one grid
    step = (grid.grid_max - grid.grid_min) / (grid.grid_resolution - 1)
    bandwidth = min(model.genuine.bandwidth, model.imposter.bandwidth)
    if step > bandwidth:
        warnings.warn(f"grid step {step:.6g} exceeds the bandwidth {bandwidth:.6g}, so a lookup "
                      "between grid points can miss the density; raise --resolution or remove "
                      "outlying training scores", RuntimeWarning)
    save_model(model, args.out)
    _write_manifest(args, {"train": args.input}, {"model": args.out})
    print(f"genuine:  bandwidth {model.genuine.bandwidth:.6g}, "
          f"{train.n_genuine} scores")
    print(f"imposter: bandwidth {model.imposter.bandwidth:.6g}, "
          f"{train.n_imposter} scores")
    print(f"grid: [{model.genuine.grid_min:.6g}, {model.genuine.grid_max:.6g}] "
          f"at {model.genuine.grid_resolution} points")


def cmd_score(args) -> None:
    from .density import load_model
    from .pic import decide, pic_threshold_for_fmr, pic_values

    model = load_model(args.model)
    read = read_columns(args.input, ("score",), lines=True)
    keys = {name.strip().lower() for name in read.header}
    for appended in APPENDED_COLUMNS:
        if appended in keys:
            raise ValueError(f"{args.input}: column {appended!r} already present")

    # The scores are dropped once their posteriors exist.
    values = pic_values(model, read.columns.pop("score"))
    threshold = pic_threshold_for_fmr(args.fmr)
    is_genuine, confidence = decide(values, threshold)

    write_rows(args.out, read.header + list(APPENDED_COLUMNS),
               [values, label_column(is_genuine), confidence], lines=read.lines)
    _write_manifest(args, {"model": args.model, "scores": args.input}, {"scored": args.out})
    print(f"scored {read.n_rows} rows at pic threshold {_fmt(threshold)}")


def cmd_fuse(args) -> None:
    """Fuse each (probe, claimed) group's first ``--max-refs`` scores, in order of first row."""
    from .density import load_model
    from .pic import decide, fuse_groups, pair_groups, pic_threshold_for_fmr

    model = load_model(args.model)
    table = load_scores(args.input, ("probe_id", "subject_b"))
    first, sizes, used, kept = pair_groups(table, args.max_refs)
    ids = [IdColumn(codes[first], values) for codes, values in (table.probe_id, table.subject_b)]
    n_rows, is_genuine, scores = len(table), table.is_genuine[first], table.score[kept]
    del table, first, kept  # only the kept scores go into fusion
    values, _ = fuse_groups(model, scores, used)
    is_accepted, confidence = decide(values, pic_threshold_for_fmr(args.fmr))

    write_rows(args.out, FUSED_COLUMNS, [
        *ids,
        label_column(is_genuine),
        used,
        values,
        label_column(is_accepted),
        confidence,
    ])
    _write_manifest(args, {"model": args.model, "scores": args.input}, {"fused": args.out})
    print(f"fused {n_rows} rows into {sizes.size} groups (max {args.max_refs} refs)")
    print(f"truncated {int(np.count_nonzero(sizes > used))} groups to "
          f"{args.max_refs} refs, leaving {n_rows - int(used.sum())} rows unused")


def _baseline(args, scores):
    """``(accepted, confidences)`` of ``scores`` under the baseline fitted on ``--train``."""
    from .baselines import (
        dtc_confidence,
        erbc_confidence,
        fit_dtc,
        fit_erbc,
        fit_lrc,
        lrc_confidence,
    )
    from .density import load_model
    from .pic import accepts

    train = load_scores(args.train, ("subject_a", "subject_b"))
    if args.estimator == "dtc":
        est = fit_dtc(train, args.fmr)
        confidences = dtc_confidence(est, scores)
    elif args.estimator == "erbc":
        est = fit_erbc(train, args.fmr)
        confidences = erbc_confidence(est, scores)
    else:  # lrc
        model = load_model(args.model)
        est = fit_lrc(train, model, args.fmr)
        confidences = lrc_confidence(est, model, scores)
    return accepts(scores, est.threshold), confidences


def cmd_eval(args) -> None:
    from .metrics import calibration_report, fnmr_at_fmr

    pic = args.estimator == "pic"
    if not (pic or args.train):
        raise ValueError(f"--train is required for estimator {args.estimator!r}")
    if args.estimator == "lrc" and not args.model:
        raise ValueError("--model is required for estimator 'lrc'")
    needed = ("label", "pic", "decision", "confidence") if pic else ("score", "label")
    try:
        columns = read_columns(args.input, needed).columns
    except MissingColumns as error:
        if pic or "score" not in error.missing:
            raise
        raise ValueError(f"{args.input}: estimator {args.estimator!r} needs raw scores "
                         "(fused input supports the pic estimator only)") from None
    is_genuine = columns.pop("label")
    if pic:
        values, accepted, confidences = map(columns.pop, needed[1:])
    else:
        values = columns.pop("score")
        accepted, confidences = _baseline(args, values)

    # The decisions' own error counts, over all rows.
    false_matches = int(np.count_nonzero(accepted & ~is_genuine))
    false_non_matches = int(np.count_nonzero(is_genuine & ~accepted))
    correct = accepted == is_genuine
    if args.decisions != "all":
        keep = accepted == (args.decisions == GENUINE)
        if not keep.any():
            raise ValueError(f"no rows with decision {args.decisions!r} to evaluate")
        confidences, correct = confidences[keep], correct[keep]

    # Verification first, so that the values are freed before the confidences are binned.
    genuine_vals, imposter_vals = values[is_genuine], values[~is_genuine]
    del values, accepted, is_genuine
    if genuine_vals.size == 0 or imposter_vals.size == 0:
        raise ValueError(f"{args.input}: need both genuine and imposter rows for verification")
    verification = fnmr_at_fmr(genuine_vals, imposter_vals, args.fmr)
    del genuine_vals, imposter_vals
    report = calibration_report(confidences, correct, args.ece_bins)

    calibration_path = f"{args.out}.calibration.csv"
    summary_path = f"{args.out}.summary.csv"
    write_rows(calibration_path, CALIBRATION_COLUMNS,
               [getattr(report, column) for column in CALIBRATION_COLUMNS])
    summary_rows = [
        ("estimator", args.estimator),
        ("decision_filter", args.decisions),
        ("n_samples", report.n_samples),
        ("ece_bins", args.ece_bins),
        ("ece", _fmt(report.ece)),
        ("mce", _fmt(report.mce)),
        ("target_fmr", args.fmr),
        ("threshold", repr(verification.threshold)),
        ("fmr", _fmt(verification.fmr)),
        ("fnmr", _fmt(verification.fnmr)),
        ("n_genuine", verification.n_genuine),
        ("n_imposter", verification.n_imposter),
        ("decision_false_matches", false_matches),
        ("decision_false_non_matches", false_non_matches),
        ("decision_fmr", _fmt(false_matches / verification.n_imposter)),
        ("decision_fnmr", _fmt(false_non_matches / verification.n_genuine)),
    ]
    keys, values = zip(*summary_rows)
    write_rows(summary_path, ("key", "value"), [keys, list(map(str, values))])

    _write_manifest(
        args,
        {"scored": args.input, "train": args.train or "", "model": args.model or ""},
        {"calibration": calibration_path, "summary": summary_path},
    )
    print(f"estimator {args.estimator}: ECE {_fmt(report.ece)}, MCE {_fmt(report.mce)} "
          f"over {report.n_samples} samples ({args.ece_bins} bins)")
    print(f"FNMR {_fmt(verification.fnmr)} at FMR {_fmt(verification.fmr)} "
          f"(target {args.fmr:g}, threshold {_fmt(verification.threshold)})")


def cmd_curve(args) -> None:
    from .density import load_model
    from .metrics import ccc, true_confidence

    model = load_model(args.test_model)
    read = read_columns(args.input, ("score", "decision", "confidence"))
    truth = true_confidence(model, read.columns.pop("score"), read.columns.pop("decision"))
    series = ccc(truth, read.columns.pop("confidence"), args.bins)

    write_rows(args.out, CCC_COLUMNS, [getattr(series, column) for column in CCC_COLUMNS])
    _write_manifest(args, {"scored": args.input, "test_model": args.test_model},
                    {"curve": args.out})
    print(f"wrote {args.bins}-bin calibration curve for {read.n_rows} samples to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picscore",
        description="Probabilistic confidence calibration for biometric comparison scores.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic labeled scores")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--genuine-mean", type=float, default=0.7)
    p.add_argument("--genuine-std", type=float, default=0.1)
    p.add_argument("--imposter-mean", type=float, default=0.2)
    p.add_argument("--imposter-std", type=float, default=0.1)
    p.add_argument("--n-genuine", type=_positive_int, default=1000)
    p.add_argument("--n-imposter", type=_positive_int, default=1000)
    p.add_argument("--n-subjects", type=_positive_int, default=100)
    p.add_argument("--refs-per-probe", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="subject-exclusive train/test split")
    p.add_argument("input", help="labeled scores CSV")
    p.add_argument("--fraction", type=_fraction, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit the genuine/imposter density model")
    p.add_argument("input", help="training scores CSV")
    p.add_argument("out", help="output model JSON path")
    p.add_argument("--prior", type=_fraction, default=0.5)
    p.add_argument("--resolution", type=_positive_int, default=4096)
    p.add_argument("--bandwidth", type=float, default=None,
                   help="kernel bandwidth for both classes (default: per-class auto)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="append pic/decision/confidence columns")
    p.add_argument("model", help="model JSON path")
    p.add_argument("input", help="scores CSV")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--fmr", type=_fraction, default=1e-3)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("fuse", help="joint confidence per (probe, claimed identity) group")
    p.add_argument("model", help="model JSON path")
    p.add_argument("input", help="scores CSV with probe_id and subject_b")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--max-refs", type=_positive_int, default=5,
                   help="use at most this many references per group (file order)")
    p.add_argument("--fmr", type=_fraction, default=1e-3)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="calibration and verification report")
    p.add_argument("input", help="scored or fused CSV")
    p.add_argument("out", help="output report prefix")
    p.add_argument("--estimator", choices=("pic", "dtc", "lrc", "erbc"), default="pic")
    p.add_argument("--fmr", type=_fraction, default=1e-3)
    p.add_argument("--ece-bins", type=_positive_int, default=10)
    p.add_argument("--decisions", choices=("all", "genuine", "imposter"), default="all",
                   help="restrict calibration metrics to one decision branch")
    p.add_argument("--train", default=None, help="training CSV (required for baselines)")
    p.add_argument("--model", default=None, help="model JSON (required for lrc)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", help="confidence calibration curve series")
    p.add_argument("input", help="scored CSV")
    p.add_argument("test_model", help="model JSON fitted on the evaluation scores")
    p.add_argument("out", help="output CSV path")
    p.add_argument("--bins", type=_positive_int, default=30)
    p.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each warning prints as one plain line, without the library's file path
    # and source line.
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            args.func(args)
        except (ValueError, OSError) as exc:
            error = exc
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    if error is None:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
