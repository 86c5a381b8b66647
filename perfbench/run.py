"""picscore benchmark: one command, two workloads, checked outputs.

    python3 perfbench/run.py --workload pipeline|bulk-score \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; every picscore process imports the
package from the checkout's ``src`` directory by absolute path. Metric
names, units and directions come from ``BENCHMARK.json``. With ``--trace 0``
the run measures the workload untraced and reports the end-to-end metrics;
with ``--trace 1`` it runs one untraced and one traced iteration and reports
the per-layer metrics. The lines before the last print every metric by name
and unit, the quality numbers the gate checks and any failure; the last line
is one JSON object.

This process imports only the standard library and keeps no large data, so
that it does not inflate its children's peak RSS (see ``stages.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import stages

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3

# Sizes. pipeline: README command sequence (50k+50k, 100 subjects, 5 refs
# per probe). bulk-score: 100k+100k test rows, 8 refs per probe, scored by a
# model fitted on 5k+5k.
SIZES = {"pipeline_n": 50_000, "test_n": 100_000, "train_n": 5_000}

# Gate tolerances on quality, several times the largest value seen over seeds 1-10.
TOLERANCE = {
    "pipeline": {"oracle_mae": 0.01, "ece": 0.02, "fnmr": 0.1},
    "bulk-score": {"oracle_mae": 0.01, "ece": 0.01, "fnmr": 0.1},
}
COMMANDS = ("synth", "split", "train", "score", "fuse", "eval", "curve")
LAYER_SPANS = (
    "synth.generate", "dataset.load", "dataset.save", "dataset.split", "density.fit",
    "density.lookup", "density.save", "density.load", "pic.values", "pic.multi", "pic.llr",
    "metrics.calibration", "metrics.verification", "metrics.ccc", "baselines.fit",
    "baselines.confidence")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


class Gate:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def compare(self, reference: dict[str, str], hashes: dict[str, str], what: str) -> None:
        """One operation per artifact: its bytes must equal the reference's."""
        for name, digest in sorted(reference.items()):
            self.record(hashes.get(name) == digest, f"{what}: {name} differs")

    def quality(self, values: dict, tolerance: dict) -> None:
        for key, limit in tolerance.items():
            self.record(values[key] <= limit, f"{key} {values[key]:.6g} above tolerance {limit}")


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "picscore").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def remember_hashes(workload: str, seed: int, hashes: dict[str, str], gate: Gate) -> None:
    """Compare with the first run of this workload, seed and code; record it if none."""
    store = OUT / "hashes" / f"{workload}-{seed}-{code_hash()}.json"
    if store.exists():
        gate.compare(json.loads(store.read_text()), hashes, "artifact vs first run")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(hashes, indent=1, sort_keys=True))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def python_child(script: str, args: list[str], workdir: Path, log: str, deadline: float):
    """Run ``perfbench/<script>``; returns (run, its last output line as JSON, or None)."""
    argv = [sys.executable, str(HERE / script), *args]
    run = stages.spawn(argv, workdir, workdir / log, deadline, script)
    if run.exit_code != 0:
        return run, None
    lines = (workdir / log).read_text().strip().splitlines()
    return run, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def worker(task: str, name: str, workdir: Path, seed: int, deadline: float, gate: Gate):
    args = [task, "--workload", name, "--dir", str(workdir), "--seed", str(seed),
            "--n-test", str(SIZES["test_n"]), "--n-train", str(SIZES["train_n"]),
            "--pipeline-n", str(SIZES["pipeline_n"])]
    run, result = python_child("worker.py", args, workdir, f"{task}.log", deadline)
    gate.record(result is not None, f"worker {task} exited {run.exit_code}; see {task}.log")
    return run, result


# --------------------------------------------------------------------------


def set_up(name: str, workdir: Path, seed: int, deadline: float, gate: Gate):
    """Set up SETUP_REPEATS times; returns (set-up seconds, CLI startup seconds).

    pipeline prepares nothing beyond first-run work such as bytecode
    compilation; bulk-score fits its two models and writes its test CSV.
    Each set-up also times ``picscore --version``.
    """
    setup_s, startup_s, first = [], [], None
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        if name != "pipeline" and worker("prepare", name, workdir, seed, deadline, gate)[1] is None:
            return None, None
        run = stages.startup(workdir, deadline)
        if not gate.record(run.exit_code == 0, "picscore --version failed; see startup.log"):
            return None, None
        startup_s.append(run.wall_s)
        setup_s.append(time.perf_counter() - t)
        hashes = stages.artifact_hashes(workdir)
        if first is None:
            first = hashes
        else:
            gate.compare(first, hashes, "set-up repeat")
    return setup_s, startup_s


def cli_stages(name: str, seed: int) -> stages.CliWorkload:
    if name == "pipeline":
        return stages.pipeline(seed, SIZES["pipeline_n"])
    return stages.bulk_score()


def run_iteration(workload, workdir: Path, deadline: float, gate: Gate):
    runs = []
    for i, stage in enumerate(workload.stages):
        run = stages.run_stage(stage, workdir, i, deadline)
        gate.record(run.exit_code == 0,
                    f"stage {i} ({stage.command}) exited {run.exit_code}; see stage{i:02d}.log")
        runs.append(run)
    return runs


def check_outputs(name: str, workdir: Path, seed: int, deadline: float, gate: Gate):
    _, result = worker("check", name, workdir, seed, deadline, gate)
    if result is None:
        return None
    for message in result["failures"]:
        gate.record(False, message)
    gate.quality(result["values"], TOLERANCE[name])
    return result["values"]


def measure_cli(name: str, seed: int, seconds: float, deadline: float):
    gate = Gate()
    workload = cli_stages(name, seed)
    workdir = fresh_dir(OUT / name)
    setup_s, _ = set_up(name, workdir, seed, deadline, gate)
    if setup_s is None:
        return gate, None, {}

    iterations, reference, values = [], None, None
    start = time.perf_counter()
    while True:
        runs = run_iteration(workload, workdir, deadline, gate)
        iterations.append(runs)
        if any(r.exit_code for r in runs):
            return gate, None, {}
        hashes = stages.artifact_hashes(workdir)
        if reference is None:
            reference = hashes
            values = check_outputs(name, workdir, seed, deadline, gate)
            if values is None:
                return gate, None, {}
            remember_hashes(name, seed, hashes, gate)
        else:
            gate.compare(reference, hashes, "artifact vs first iteration")
        # Whole iterations only: stop before one that would end past ``seconds``.
        if time.perf_counter() - start + sum(r.wall_s for r in runs) > seconds:
            break

    wall = statistics.median(sum(r.wall_s for r in runs) for runs in iterations)
    input_rows = stages.data_rows(workdir / ("scores.csv" if name == "pipeline" else "test.csv"))
    metrics = {
        "wall_s": wall,
        "rows_per_s": input_rows / wall,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs) for runs in iterations),
        "setup_s": statistics.median(setup_s),
    }
    info = {
        "iterations": len(iterations),
        "setup_runs_s": [round(s, 4) for s in setup_s],
        "stage_walls_s": [[round(r.wall_s, 4) for r in runs] for runs in iterations],
        "stage_rss_mb": [round(r.rss_mb, 1) for r in iterations[0]],
        "quality": {k: values[k] for k in ("ece", "fnmr", "oracle_mae")},
    }
    return gate, metrics, info


def layer_metrics(trace: dict, counts: dict, values: dict) -> dict:
    spans, traced_counts = trace["spans"], trace["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    metrics = {f"{name}_s": span(name, "self_s") for name in LAYER_SPANS}
    metrics["cli.main.self_s"] = span("cli.main", "self_s")
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = span(f"cli.{command}", "self_s")
        metrics[f"cli.{command}.rows_in"] = counts.get(f"cli.{command}.rows_in", 0)
        metrics[f"cli.{command}.rows_out"] = counts.get(f"cli.{command}.rows_out", 0)
    lookups = span("density.lookup", "calls")
    metrics.update({
        "density.fit_kernel_evals": counts["density.fit_kernel_evals"],
        "density.lookup_calls": lookups,
        "density.lookup_queries_per_call":
            traced_counts.get("density.lookup_queries", 0) / lookups if lookups else 0.0,
        "density.model_bytes": counts["density.model_bytes"],
        "pic.multi_calls": span("pic.multi", "calls"),
        "pic.fused_groups": values["fused_groups"],
        "pic.fused_used_ratio": values["fused_used_ratio"],
        "pic.off_grid_rows": values["off_grid_rows"],
        "pic.oracle_mae": values["oracle_mae"],
        "metrics.ece": values["ece"],
        "metrics.fnmr": values["fnmr"],
        "dataset.load_rows": traced_counts.get("dataset.load_rows", 0),
        "dataset.save_rows": traced_counts.get("dataset.save_rows", 0),
        "dataset.split_kept_ratio": counts["dataset.split_kept_ratio"],
    })
    return metrics


def trace_cli(name: str, seed: int, deadline: float):
    gate = Gate()
    workload = cli_stages(name, seed)
    workdir = fresh_dir(OUT / name)
    _, startup_s = set_up(name, workdir, seed, deadline, gate)
    if startup_s is None:
        return gate, None, {}
    runs = run_iteration(workload, workdir, deadline, gate)
    if any(r.exit_code for r in runs):
        return gate, None, {}
    values = check_outputs(name, workdir, seed, deadline, gate)
    if values is None:
        return gate, None, {}
    reference = stages.artifact_hashes(workdir)
    remember_hashes(name, seed, reference, gate)

    traced_dir = fresh_dir(OUT / f"{name}-traced")
    _, trace = worker("trace", name, traced_dir, seed, deadline, gate)
    if trace is None:
        return gate, None, {}
    gate.compare(reference, stages.artifact_hashes(traced_dir), "traced vs untraced artifact")

    startup = statistics.median(startup_s)
    untraced = sum(r.wall_s for r in runs)
    # In-process stages pay no interpreter start; add the measured startup per stage.
    traced_wall = trace["wall_s"] + startup * len(runs)
    metrics = layer_metrics(trace, stages.work_counts(workload, workdir), values)
    for command in COMMANDS:
        metrics[f"cli.{command}.wall_s"] = sum(r.wall_s for r in runs if r.command == command)
    metrics.update({
        "cli.startup_s": startup,
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced,
        "trace.unattributed_s": trace["wall_s"] - trace["root_s"],
    })
    info = {"layer_self_time_sum_s": trace["root_s"] + startup * len(runs)}
    return gate, metrics, info


# --------------------------------------------------------------------------


def emit(spec_metrics: list[dict], metrics: dict, gate: Gate, info: dict) -> None:
    width = max(len(m["name"]) for m in spec_metrics)
    for m in spec_metrics:
        print(f"{m['name']:<{width}}  {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':<{width}}  {gate.failed / gate.attempted:>14.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value)}")
    for message in gate.messages[:20]:
        print(f"# FAILED: {message}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in spec_metrics},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="picscore benchmark")
    parser.add_argument("--workload", required=True, choices=("pipeline", "bulk-score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not (ROOT / "src" / "picscore" / "__init__.py").is_file():
        fail(f"no picscore sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            gate, metrics, info = trace_cli(args.workload, args.seed, deadline)
        else:
            gate, metrics, info = measure_cli(args.workload, args.seed, args.seconds, deadline)
    except stages.Deadline:
        fail(f"{args.workload}: stopped after the {TIME_LIMIT_S:.0f} s time limit")

    if metrics is None:
        for message in gate.messages:
            print(f"# FAILED: {message}", file=sys.stderr)
        fail(f"{args.workload}: a step failed before the metrics could be taken")
    emit(spec["per_layer" if args.trace else "end_to_end"], metrics, gate, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
