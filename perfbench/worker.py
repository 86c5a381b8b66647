"""Child-process side of the benchmark: set-up, output checks, traced runs.

    python3 perfbench/worker.py prepare --workload W --dir D --seed N ...
    python3 perfbench/worker.py check   --workload W --dir D
    python3 perfbench/worker.py trace   --workload W --dir D --seed N ...

``run.py`` starts these with ``PYTHONPATH`` set to the absolute ``src`` path.
``check`` and ``trace`` print one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import stages

# --------------------------------------------------------------------------
# Set-up


def train_model(csv_path: Path, model_path: Path) -> None:
    """Fit and save a model with the library, as ``picscore train`` does."""
    from picscore import fit_model, load_scores, save_model

    save_model(fit_model(load_scores(csv_path), resolution=stages.RESOLUTION), model_path)


def prepare(workdir: Path, seed: int, n_test: int, n_train: int) -> None:
    """bulk-score: scoring model, independent reference model for ``curve``, test CSV."""
    inputs.write_scores(workdir / "train.csv", seed, inputs.STREAM_TRAIN, n_train, n_train, 1)
    train_model(workdir / "train.csv", workdir / "model.json")
    inputs.write_scores(
        workdir / "reference.csv", seed, inputs.STREAM_REFERENCE, n_train, n_train, 1
    )
    train_model(workdir / "reference.csv", workdir / "reference_model.json")
    # Eight references per probe, fused with --max-refs 5, so truncation runs.
    inputs.write_scores(workdir / "test.csv", seed, inputs.STREAM_TEST, n_test, n_test, 8)


# --------------------------------------------------------------------------
# Output checks


def read_table(path: Path) -> tuple[dict[str, int], list[list[str]]]:
    lines = path.read_text().splitlines()
    return {name: i for i, name in enumerate(lines[0].split(","))}, [
        line.split(",") for line in lines[1:]]


def summary_value(path: Path, key: str) -> float:
    for line in path.read_text().splitlines():
        k, _, v = line.partition(",")
        if k == key:
            return float(v)
    raise KeyError(f"{path.name}: no {key!r}")


def decision_errors(values, decisions, confidences) -> int:
    """Rows whose decision or confidence disagrees with the value and 1 - FMR.

    Values are read back at 6 decimals, so rows within rounding of the
    threshold are not judged.
    """
    v = np.asarray(values, dtype=float)
    c = np.asarray(confidences, dtype=float)
    d = np.asarray(decisions)
    genuine, imposter = d == "genuine", d == "imposter"
    bad = (~genuine & ~imposter)
    bad |= genuine & ((v < stages.THRESHOLD - 1e-6) | (np.abs(c - v) > 2e-6))
    bad |= imposter & ((v >= stages.THRESHOLD + 1e-6) | (np.abs(c - (1.0 - v)) > 2e-6))
    return int(np.count_nonzero(bad))


def check(workload: stages.CliWorkload, workdir: Path) -> dict:
    """Row counts, decision consistency, oracle error and pic evaluation of the outputs."""
    from picscore import analytic_fused_posterior, analytic_posterior

    failures = []
    config = inputs.oracle_config()
    col, test = read_table(workdir / workload.test_csv)
    groups: dict[tuple[str, str], list[float]] = {}
    for row in test:
        groups.setdefault((row[col["probe_id"]], row[col["subject_b"]]), []).append(
            float(row[col["score"]]))

    col, scored = read_table(workdir / "scored.csv")
    if len(scored) != len(test):
        failures.append(f"scored rows {len(scored)} != test rows {len(test)}")
    scores = np.array([float(r[col["score"]]) for r in scored])
    pic = np.array([float(r[col["pic"]]) for r in scored])
    bad = decision_errors(pic, [r[col["decision"]] for r in scored],
                          [float(r[col["confidence"]]) for r in scored])
    if bad:
        failures.append(f"{bad} scored rows disagree with their pic value")
    scored_err = np.abs(pic - analytic_posterior(config, scores))

    col, fused = read_table(workdir / "fused.csv")
    if len(fused) != len(groups):
        failures.append(f"fused rows {len(fused)} != groups {len(groups)}")
    fused_err, used_total = [], 0
    for row in fused:
        used = groups.get((row[col["probe_id"]], row[col["claimed_id"]]), [])[:stages.MAX_REFS]
        n_used = int(row[col["n_used"]])
        used_total += n_used
        if not used or n_used != len(used):
            failures.append(f"fused group {row[0]} uses {n_used} of {len(used)} refs")
            continue
        fused_err.append(abs(float(row[col["pic"]]) - analytic_fused_posterior(config, used)))
    bad = decision_errors([float(r[col["pic"]]) for r in fused], [r[col["decision"]] for r in fused],
                          [float(r[col["confidence"]]) for r in fused])
    if bad:
        failures.append(f"{bad} fused rows disagree with their pic value")

    curve_rows = stages.data_rows(workdir / "curve.csv")
    if curve_rows != stages.CURVE_BINS:
        failures.append(f"curve has {curve_rows} rows, expected {stages.CURVE_BINS}")

    model = json.loads((workdir / workload.model).read_text())["genuine"]
    off_grid = (scores < model["grid_min"]) | (scores > model["grid_max"])
    summary = workdir / "report.summary.csv"
    return {
        "failures": failures,
        "values": {
            "oracle_mae": float(np.concatenate([scored_err, fused_err]).mean()),
            "ece": summary_value(summary, "ece"),
            "fnmr": summary_value(summary, "fnmr"),
            "fused_groups": len(groups),
            "fused_used_ratio": used_total / len(test) if test else math.nan,
            "off_grid_rows": int(np.count_nonzero(off_grid)),
        },
    }


# --------------------------------------------------------------------------
# Traced runs


def trace_cli(workload: stages.CliWorkload, workdir: Path, tracer) -> float:
    """Run every stage in this process through ``picscore.cli.main``; returns the wall."""
    import picscore.cli

    sink = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    tracer.install()
    t0 = time.perf_counter()
    try:
        for i, stage in enumerate(workload.stages):
            tracer.set_run(i)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = picscore.cli.main(list(stage.argv))
            if code != 0:
                raise RuntimeError(f"traced stage {i} ({stage.command}) returned {code}")
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
        os.chdir(cwd)
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("task", choices=("prepare", "check", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-test", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=0)
    parser.add_argument("--pipeline-n", type=int, default=0)
    args = parser.parse_args(argv)

    if args.task == "prepare":
        prepare(args.dir, args.seed, args.n_test, args.n_train)
        return 0
    if args.workload == "pipeline":
        workload = stages.pipeline(args.seed, args.pipeline_n)
    else:
        workload = stages.bulk_score()
    if args.task == "check":
        print(json.dumps(check(workload, args.dir)))
        return 0

    from tracing import Tracer

    tracer = Tracer()
    if args.workload == "bulk-score":
        prepare(args.dir, args.seed, args.n_test, args.n_train)
    wall = trace_cli(workload, args.dir, tracer)
    tracer.write(args.dir / "spans.npz")
    print(json.dumps({"wall_s": wall, "root_s": tracer.root_seconds(),
                      "spans": tracer.summary(), "counts": tracer.counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
