"""Command line pipeline: synth, split, train, score, fuse, eval, curve.

Every command writes a small JSON manifest next to each output artifact
recording the command, inputs, outputs, and parameters, so a run can be
reproduced bit-exactly. Numeric CSV output uses fixed 6-decimal formatting.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (
    dtc_confidence,
    erbc_confidence,
    fit_dtc,
    fit_erbc,
    fit_lrc,
    lrc_confidence,
)
from .dataset import (
    GENUINE,
    IMPOSTER,
    check_rows,
    fail_first_row,
    load_scores,
    parse_floats,
    parse_labels,
    read_columns,
    save_scores,
    split_subject_exclusive,
    write_rows,
)
from .density import fit_model, load_model, save_model
from .metrics import calibration_report, ccc, fnmr_at_fmr, true_confidence
from .pic import decide, fuse_groups, pic_threshold_for_fmr, pic_values
from .synth import SynthConfig, generate

FUSED_COLUMNS = ("probe_id", "claimed_id", "label", "n_used", "pic", "decision", "confidence")
CCC_COLUMNS = ("bin_center", "pred_mean", "pred_std", "count")
CALIBRATION_COLUMNS = ("bin_lo", "bin_hi", "count", "p_true", "p_pred_mean", "p_pred_std")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_column(values) -> list[str]:
    return list(map("{:.6f}".format, np.asarray(values).tolist()))


def _decision_column(is_genuine) -> list[str]:
    return np.where(is_genuine, GENUINE, IMPOSTER).tolist()


def _write_manifest(command: str, inputs: dict, outputs: dict, parameters: dict) -> None:
    doc = {
        "command": command,
        "tool": "picscore",
        "tool_version": __version__,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "parameters": parameters,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for out_path in outputs.values():
        Path(str(out_path) + ".manifest.json").write_text(text)


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


def _require_columns(columns: dict, needed: tuple[str, ...], path: str) -> None:
    missing = [c for c in needed if c not in columns]
    if missing:
        raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")


def cmd_synth(args) -> int:
    config = SynthConfig(
        genuine_mean=args.genuine_mean,
        genuine_std=args.genuine_std,
        imposter_mean=args.imposter_mean,
        imposter_std=args.imposter_std,
        n_genuine=args.n_genuine,
        n_imposter=args.n_imposter,
        seed=args.seed,
        n_subjects=args.n_subjects,
        refs_per_probe=args.refs_per_probe,
    )
    score_set = generate(config)
    save_scores(score_set, args.out)
    _write_manifest(
        "synth",
        {},
        {"scores": args.out},
        {
            "genuine_mean": args.genuine_mean,
            "genuine_std": args.genuine_std,
            "imposter_mean": args.imposter_mean,
            "imposter_std": args.imposter_std,
            "n_genuine": args.n_genuine,
            "n_imposter": args.n_imposter,
            "n_subjects": args.n_subjects,
            "refs_per_probe": args.refs_per_probe,
            "seed": args.seed,
        },
    )
    print(f"wrote {len(score_set)} records ({score_set.n_genuine} genuine, "
          f"{score_set.n_imposter} imposter) to {args.out}")
    return 0


def cmd_split(args) -> int:
    score_set = load_scores(args.input)
    train, test = split_subject_exclusive(score_set, args.fraction, args.seed)
    dropped = len(score_set) - len(train) - len(test)
    save_scores(train, args.out_train)
    save_scores(test, args.out_test)
    _write_manifest(
        "split",
        {"scores": args.input},
        {"train": args.out_train, "test": args.out_test},
        {"fraction": args.fraction, "seed": args.seed},
    )
    print(f"train: {train.n_genuine} genuine / {train.n_imposter} imposter")
    print(f"test:  {test.n_genuine} genuine / {test.n_imposter} imposter")
    print(f"dropped {dropped} cross-partition comparisons")
    return 0


def cmd_train(args) -> int:
    train = load_scores(args.input)
    model = fit_model(
        train,
        prior_genuine=args.prior,
        resolution=args.resolution,
        genuine_bandwidth=args.bandwidth,
        imposter_bandwidth=args.bandwidth,
    )
    save_model(model, args.out)
    _write_manifest(
        "train",
        {"train": args.input},
        {"model": args.out},
        {
            "prior": args.prior,
            "resolution": args.resolution,
            "bandwidth": args.bandwidth,
        },
    )
    print(f"genuine:  bandwidth {model.genuine.bandwidth:.6g}, "
          f"{train.n_genuine} scores")
    print(f"imposter: bandwidth {model.imposter.bandwidth:.6g}, "
          f"{train.n_imposter} scores")
    print(f"grid: [{model.genuine.grid_min:.6g}, {model.genuine.grid_max:.6g}] "
          f"at {model.genuine.grid_resolution} points")
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    header, n_rows, columns = read_columns(args.input)
    _require_columns(columns, ("score",), args.input)
    for appended in ("pic", "decision", "confidence"):
        if appended in columns:
            raise ValueError(f"{args.input}: column {appended!r} already present")

    values = pic_values(model, parse_floats(columns["score"], "score"))
    threshold = pic_threshold_for_fmr(args.fmr)
    is_genuine, confidence = decide(values, threshold)

    write_rows(args.out, header + ["pic", "decision", "confidence"], zip(
        *columns.values(),
        _fmt_column(values),
        _decision_column(is_genuine),
        _fmt_column(confidence),
    ))

    _write_manifest(
        "score",
        {"model": args.model, "scores": args.input},
        {"scored": args.out},
        {"fmr": args.fmr},
    )
    print(f"scored {n_rows} rows at pic threshold {_fmt(threshold)}")
    return 0


def _require_ids(probes: np.ndarray, claimed: np.ndarray) -> None:
    fail_first_row((probes == "") | (claimed == ""),
                   lambda i: "probe_id and subject_b are required for fusion")


def _require_one_label(labels, groups: np.ndarray, first: np.ndarray, probes, claimed) -> None:
    """Every row's label, normalized, equals that of its group's first row."""
    normalized = {raw: raw.strip().lower() for raw in set(labels)}
    label = np.fromiter(map(normalized.__getitem__, labels), dtype=object, count=len(labels))
    fail_first_row(label != label[first][groups],
                   lambda i: f"group ({probes[i]}, {claimed[i]}) mixes genuine and imposter labels")


def cmd_fuse(args) -> int:
    model = load_model(args.model)
    needed = ("score", "label", "probe_id", "subject_b")
    _, n_rows, columns = read_columns(args.input, needed)
    _require_columns(columns, needed, args.input)

    probes = np.fromiter(map(str.strip, columns["probe_id"]), dtype=object, count=n_rows)
    claimed = np.fromiter(map(str.strip, columns["subject_b"]), dtype=object, count=n_rows)
    group_of = dict.fromkeys(zip(probes, claimed))  # (probe, claimed) in first-seen order
    for i, key in enumerate(group_of):
        group_of[key] = i
    groups = np.fromiter(
        map(group_of.__getitem__, zip(probes, claimed)), dtype=np.intp, count=n_rows
    )
    order = np.argsort(groups, kind="stable")  # file order within each group
    sizes = np.bincount(groups)
    starts = np.cumsum(sizes) - sizes
    first = order[starts]  # each group's first row
    _, is_genuine, scores, _ = check_rows(
        lambda: _require_ids(probes, claimed),
        lambda: parse_labels(columns["label"], "label"),
        lambda: parse_floats(columns["score"], "score"),
        lambda: _require_one_label(columns["label"], groups, first, probes, claimed),
    )

    # The first --max-refs rows of each group in file order.
    rank = np.arange(n_rows) - np.repeat(starts, sizes)
    kept = order[rank < args.max_refs]
    values, _ = fuse_groups(model, scores[kept], groups[kept])
    is_accepted, confidence = decide(values, pic_threshold_for_fmr(args.fmr))
    n_used = np.minimum(sizes, args.max_refs)

    write_rows(args.out, FUSED_COLUMNS, zip(
        *zip(*group_of),
        _decision_column(is_genuine[first]),
        n_used.tolist(),
        _fmt_column(values),
        _decision_column(is_accepted),
        _fmt_column(confidence),
    ))

    _write_manifest(
        "fuse",
        {"model": args.model, "scores": args.input},
        {"fused": args.out},
        {"max_refs": args.max_refs, "fmr": args.fmr},
    )
    print(f"fused {n_rows} rows into {len(group_of)} groups (max {args.max_refs} refs)")
    print(f"truncated {int(np.count_nonzero(sizes > args.max_refs))} groups to "
          f"{args.max_refs} refs, leaving {n_rows - int(n_used.sum())} rows unused")
    return 0


def _eval_pic(path):
    needed = ("label", "pic", "decision", "confidence")
    _, _, columns = read_columns(path, needed)
    _require_columns(columns, needed, path)
    is_genuine, accepted, values, confidences = check_rows(
        lambda: parse_labels(columns["label"], "label"),
        lambda: parse_labels(columns["decision"], "decision"),
        lambda: parse_floats(columns["pic"], "pic"),
        lambda: parse_floats(columns["confidence"], "confidence"),
    )
    return is_genuine, values, accepted, confidences


def _eval_baseline(args, path):
    needed = ("score", "label")
    _, _, columns = read_columns(path, needed)
    if "score" not in columns:
        raise ValueError(
            f"{path}: estimator {args.estimator!r} needs raw scores "
            "(fused input supports the pic estimator only)"
        )
    _require_columns(columns, needed, path)
    if not args.train:
        raise ValueError(f"--train is required for estimator {args.estimator!r}")
    train = load_scores(args.train)
    is_genuine, scores = check_rows(
        lambda: parse_labels(columns["label"], "label"),
        lambda: parse_floats(columns["score"], "score"),
    )

    if args.estimator == "dtc":
        est = fit_dtc(train, args.fmr)
        confidences = dtc_confidence(est, scores)
    elif args.estimator == "erbc":
        est = fit_erbc(train, args.fmr)
        confidences = erbc_confidence(est, scores)
    else:  # lrc
        if not args.model:
            raise ValueError("--model is required for estimator 'lrc'")
        model = load_model(args.model)
        est = fit_lrc(train, model, args.fmr)
        confidences = lrc_confidence(est, model, scores)

    accepted, _ = decide(scores, est.threshold)
    return is_genuine, scores, accepted, confidences


def cmd_eval(args) -> int:
    if args.estimator == "pic":
        is_genuine, values, accepted, confidences = _eval_pic(args.input)
    else:
        is_genuine, values, accepted, confidences = _eval_baseline(args, args.input)

    correct = accepted == is_genuine
    keep = np.ones(correct.size, dtype=bool)
    if args.decisions != "all":
        keep = accepted == (args.decisions == GENUINE)
        if not keep.any():
            raise ValueError(f"no rows with decision {args.decisions!r} to evaluate")
    report = calibration_report(np.asarray(confidences)[keep], correct[keep], args.ece_bins)

    genuine_vals = values[is_genuine]
    imposter_vals = values[~is_genuine]
    if genuine_vals.size == 0 or imposter_vals.size == 0:
        raise ValueError(f"{args.input}: need both genuine and imposter rows for verification")
    verification = fnmr_at_fmr(genuine_vals, imposter_vals, args.fmr)

    calibration_path = f"{args.out}.calibration.csv"
    summary_path = f"{args.out}.summary.csv"
    write_rows(calibration_path, CALIBRATION_COLUMNS, (
        [_fmt(b.lo), _fmt(b.hi), b.count, _fmt(b.p_true), _fmt(b.p_pred_mean), _fmt(b.p_pred_std)]
        for b in report.bins
    ))
    summary_rows = [
        ("estimator", args.estimator),
        ("decision_filter", args.decisions),
        ("n_samples", report.n_samples),
        ("ece_bins", report.n_bins),
        ("ece", _fmt(report.ece)),
        ("mce", _fmt(report.mce)),
        ("target_fmr", args.fmr),
        ("threshold", _fmt(verification.threshold)),
        ("fmr", _fmt(verification.fmr)),
        ("fnmr", _fmt(verification.fnmr)),
        ("n_genuine", verification.n_genuine),
        ("n_imposter", verification.n_imposter),
    ]
    write_rows(summary_path, ("key", "value"), summary_rows)

    _write_manifest(
        "eval",
        {"scored": args.input, "train": args.train or "", "model": args.model or ""},
        {"calibration": calibration_path, "summary": summary_path},
        {
            "estimator": args.estimator,
            "fmr": args.fmr,
            "ece_bins": args.ece_bins,
            "decisions": args.decisions,
        },
    )
    print(f"estimator {args.estimator}: ECE {_fmt(report.ece)}, MCE {_fmt(report.mce)} "
          f"over {report.n_samples} samples ({args.ece_bins} bins)")
    print(f"FNMR {_fmt(verification.fnmr)} at FMR {_fmt(verification.fmr)} "
          f"(target {args.fmr:g}, threshold {_fmt(verification.threshold)})")
    return 0


def cmd_curve(args) -> int:
    model = load_model(args.test_model)
    needed = ("score", "decision", "confidence")
    _, n_rows, columns = read_columns(args.input, needed)
    _require_columns(columns, needed, args.input)
    accepted, scores, predicted = check_rows(
        lambda: parse_labels(columns["decision"], "decision"),
        lambda: parse_floats(columns["score"], "score"),
        lambda: parse_floats(columns["confidence"], "confidence"),
    )

    series = ccc(true_confidence(model, scores, accepted), predicted, args.bins)

    write_rows(args.out, CCC_COLUMNS, (
        [_fmt(point.center), _fmt(point.pred_mean), _fmt(point.pred_std), point.count]
        for point in series
    ))

    _write_manifest(
        "curve",
        {"scored": args.input, "test_model": args.test_model},
        {"curve": args.out},
        {"bins": args.bins},
    )
    print(f"wrote {args.bins}-bin calibration curve for {n_rows} samples to {args.out}")
    return 0


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
    with warnings.catch_warnings(record=True) as caught:
        try:
            status, error = args.func(args), None
        except (ValueError, OSError) as exc:
            status, error = 2, exc
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
