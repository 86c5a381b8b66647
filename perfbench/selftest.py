"""Self-test of the benchmark harness at small size (3k+3k rows); runs in seconds.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric that
BENCHMARK.json names, with its unit, and that the correctness gate fails
when one pic value in a scored artifact is altered. It writes only under
``.bench_out/selftest``, so it never touches the hashes real runs remember.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stages  # noqa: E402

SEED = 3


def run_json(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    assert code == 0, f"{workload} trace={trace} exited {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    return result


def check_names(result: dict, spec_metrics: list[dict], label: str) -> None:
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in spec_metrics}, label
    for m in spec_metrics:
        entry = emitted[m["name"]]
        assert entry["unit"] == m["unit"], (label, m["name"], entry)
        assert isinstance(entry["value"], float), (label, m["name"], entry)


def gate_failures(workdir: Path) -> int:
    gate = run.Gate()
    run.check_outputs("bulk-score", workdir, SEED, time.monotonic() + 60, gate)
    return gate.failed


def altered_pic_fails() -> None:
    """Alter one pic value in scored.csv: the byte comparison and the row checks fail.

    A change across the decision threshold breaks the row checks on its own;
    the smallest change the CSV can show is caught by the byte comparison.
    """
    workdir = run.OUT / "bulk-score"
    reference = stages.artifact_hashes(workdir)
    assert gate_failures(workdir) == 0

    scored = workdir / "scored.csv"
    original = scored.read_text()
    lines = original.splitlines()
    header = lines[0].split(",")
    pic, decision = header.index("pic"), header.index("decision")
    row = next(i for i, line in enumerate(lines) if line.split(",")[decision] == "imposter")
    fields = lines[row].split(",")
    for new_value, row_checks_fail in (("0.999999", True),
                                       (f"{float(fields[pic]) + 1e-6:.6f}", False)):
        altered = fields.copy()
        altered[pic] = new_value
        scored.write_text("\n".join(lines[:row] + [",".join(altered)] + lines[row + 1:]) + "\n")
        gate = run.Gate()
        gate.compare(reference, stages.artifact_hashes(workdir), "altered")
        assert gate.failed == 1, gate.messages
        assert (gate_failures(workdir) > 0) == row_checks_fail, new_value
    scored.write_text(original)


def main() -> int:
    run.OUT = run.ROOT / ".bench_out" / "selftest"
    run.SIZES = {"pipeline_n": 3_000, "test_n": 3_000, "train_n": 1_000}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in ("pipeline", "bulk-score"):
        for trace, key in ((1, "per_layer"), (0, "end_to_end")):
            check_names(run_json(workload, trace), spec[key], f"{workload} trace={trace}")
            print(f"ok  {workload} --trace {trace}: {len(spec[key])} metrics with units")
    altered_pic_fails()
    print("ok  altering one pic value fails the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
