"""CLI workloads: stage lists, child processes, artifact hashes and work counts.

Every stage runs as its own ``python -m picscore`` process with the working
directory set to the workload directory and ``PYTHONPATH`` set to the
absolute ``src`` path, so no relative import path is ever resolved against
a different directory. Wall time is taken around spawn and reap; peak RSS
comes from that one child's rusage (``os.wait4``).

This module and ``run.py`` import only the standard library and never hold
large data: Linux folds the parent's RSS high-water mark into an exec'd
child's ``ru_maxrss``, so a large parent would inflate every stage's peak.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FMR = "1e-3"
THRESHOLD = 1.0 - float(FMR)
RESOLUTION = 4096  # ``picscore train`` default grid size
CURVE_BINS = 30
MAX_REFS = 5


ALL_CPUS = sorted(os.sched_getaffinity(0))


def _spin(n: int = 50_000) -> float:
    t = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i % 7
    return time.perf_counter() - t


def pin_fastest_cpu() -> None:
    """Pin this process, and so the children it starts next, to the fastest CPU now.

    On a shared host each CPU's speed drifts independently; a short
    calibration loop on each allowed CPU picks the least disturbed one.
    """
    if len(ALL_CPUS) < 2:
        return
    best, best_s = ALL_CPUS[0], math.inf
    for cpu in ALL_CPUS:
        os.sched_setaffinity(0, {cpu})
        spin_s = min(_spin() for _ in range(2))
        if spin_s < best_s:
            best, best_s = cpu, spin_s
    os.sched_setaffinity(0, {best})


class Deadline(Exception):
    """The run's time limit passed while a child process was running."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per process: the workloads are single-process by design.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass(frozen=True)
class Stage:
    command: str
    argv: tuple[str, ...]
    reads: tuple[str, ...] = ()  # CSV inputs, for row counts
    writes: tuple[str, ...] = ()  # CSV outputs, for row counts


@dataclass
class StageRun:
    command: str
    wall_s: float
    rss_mb: float
    exit_code: int


def _alarm(signum, frame):
    raise Deadline()


def spawn(argv: list[str], cwd: Path, log_path: Path, deadline: float, label: str = "") -> StageRun:
    """Run one child to completion and return its wall time and own peak RSS.

    The child's standard output and error go to ``log_path``.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Deadline()
    pin_fastest_cpu()
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(label, wall, usage.ru_maxrss / 1024.0, proc.returncode)


def run_stage(stage: Stage, workdir: Path, index: int, deadline: float) -> StageRun:
    argv = [sys.executable, "-m", "picscore", *stage.argv]
    return spawn(argv, workdir, workdir / f"stage{index:02d}.log", deadline, stage.command)


def startup(workdir: Path, deadline: float) -> StageRun:
    """Run ``python -m picscore --version``: interpreter start, imports, argparse."""
    argv = [sys.executable, "-m", "picscore", "--version"]
    return spawn(argv, workdir, workdir / "startup.log", deadline, "startup")


# --------------------------------------------------------------------------
# Workload definitions


@dataclass(frozen=True)
class CliWorkload:
    name: str
    stages: tuple[Stage, ...]
    test_csv: str  # rows scored and fused
    model: str  # model used by score and fuse


def pipeline(seed: int, n: int) -> CliWorkload:
    """The README command sequence at README size."""
    s = str(seed)
    pic = ("--estimator", "pic", "--fmr", FMR, "--ece-bins", "10")
    stages = (
        Stage("synth", ("synth", "scores.csv", "--n-genuine", str(n), "--n-imposter", str(n),
                        "--n-subjects", "100", "--refs-per-probe", "5", "--seed", s),
              writes=("scores.csv",)),
        Stage("split", ("split", "scores.csv", "--out-train", "train.csv", "--out-test",
                        "test.csv", "--seed", s),
              reads=("scores.csv",), writes=("train.csv", "test.csv")),
        Stage("train", ("train", "train.csv", "model.json"), reads=("train.csv",)),
        Stage("train", ("train", "test.csv", "test_model.json"), reads=("test.csv",)),
        Stage("score", ("score", "model.json", "test.csv", "scored.csv", "--fmr", FMR),
              reads=("test.csv",), writes=("scored.csv",)),
        Stage("fuse", ("fuse", "model.json", "test.csv", "fused.csv", "--max-refs",
                       str(MAX_REFS), "--fmr", FMR),
              reads=("test.csv",), writes=("fused.csv",)),
        Stage("eval", ("eval", "scored.csv", "report", *pic),
              reads=("scored.csv",), writes=("report.calibration.csv",)),
        Stage("eval", ("eval", "fused.csv", "report_fused", *pic),
              reads=("fused.csv",), writes=("report_fused.calibration.csv",)),
        Stage("eval", ("eval", "scored.csv", "report_dtc", "--estimator", "dtc", "--train",
                       "train.csv", "--fmr", FMR),
              reads=("scored.csv", "train.csv"), writes=("report_dtc.calibration.csv",)),
        Stage("curve", ("curve", "scored.csv", "test_model.json", "curve.csv", "--bins",
                        str(CURVE_BINS)),
              reads=("scored.csv",), writes=("curve.csv",)),
    )
    return CliWorkload("pipeline", stages, "test.csv", "model.json")


def bulk_score() -> CliWorkload:
    """Scoring, fusion, evaluation and curve over a large prepared test CSV."""
    pic = ("--estimator", "pic", "--fmr", FMR, "--ece-bins", "10")
    base = ("--train", "train.csv", "--fmr", FMR)
    stages = (
        Stage("score", ("score", "model.json", "test.csv", "scored.csv", "--fmr", FMR),
              reads=("test.csv",), writes=("scored.csv",)),
        Stage("fuse", ("fuse", "model.json", "test.csv", "fused.csv", "--max-refs",
                       str(MAX_REFS), "--fmr", FMR),
              reads=("test.csv",), writes=("fused.csv",)),
        Stage("eval", ("eval", "scored.csv", "report", *pic),
              reads=("scored.csv",), writes=("report.calibration.csv",)),
        Stage("eval", ("eval", "fused.csv", "report_fused", *pic),
              reads=("fused.csv",), writes=("report_fused.calibration.csv",)),
        Stage("eval", ("eval", "scored.csv", "report_dtc", "--estimator", "dtc", *base),
              reads=("scored.csv", "train.csv"), writes=("report_dtc.calibration.csv",)),
        Stage("eval", ("eval", "scored.csv", "report_erbc", "--estimator", "erbc", *base),
              reads=("scored.csv", "train.csv"), writes=("report_erbc.calibration.csv",)),
        Stage("eval", ("eval", "scored.csv", "report_lrc", "--estimator", "lrc", *base,
                       "--model", "model.json"),
              reads=("scored.csv", "train.csv"), writes=("report_lrc.calibration.csv",)),
        Stage("curve", ("curve", "scored.csv", "reference_model.json", "curve.csv", "--bins",
                        str(CURVE_BINS)),
              reads=("scored.csv",), writes=("curve.csv",)),
    )
    return CliWorkload("bulk-score", stages, "test.csv", "model.json")


# --------------------------------------------------------------------------
# Artifacts: hashes and exact work counts


def artifact_hashes(workdir: Path) -> dict[str, str]:
    """sha256 of every file the workload wrote, manifests included; logs excluded."""
    out = {}
    for path in sorted(workdir.iterdir()):
        if path.is_file() and path.suffix not in (".log", ".npz") and path.name != "result.json":
            digest = hashlib.sha256()
            with open(path, "rb") as handle:
                while chunk := handle.read(1 << 20):
                    digest.update(chunk)
            out[path.name] = digest.hexdigest()
    return out


def data_rows(path: Path) -> int:
    """Lines after the header, counted in chunks so this process stays small."""
    lines = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines - 1


def work_counts(workload: CliWorkload, workdir: Path) -> dict[str, float]:
    """Exact work counts computed from the stage inputs and outputs."""
    counts: dict[str, float] = {}
    rows_of = functools.cache(lambda name: data_rows(workdir / name))
    kernel_evals = 0
    for stage in workload.stages:
        key = f"cli.{stage.command}"
        counts[f"{key}.rows_in"] = counts.get(f"{key}.rows_in", 0) + sum(map(rows_of, stage.reads))
        counts[f"{key}.rows_out"] = counts.get(f"{key}.rows_out", 0) + sum(map(rows_of, stage.writes))
        if stage.command == "train":
            kernel_evals += rows_of(stage.reads[0]) * RESOLUTION
    counts["density.fit_kernel_evals"] = kernel_evals
    if any(stage.command == "split" for stage in workload.stages):
        kept = rows_of("train.csv") + rows_of("test.csv")
        counts["dataset.split_kept_ratio"] = kept / rows_of("scores.csv")
    else:
        counts["dataset.split_kept_ratio"] = 0.0
    counts["density.model_bytes"] = (workdir / workload.model).stat().st_size
    return counts
