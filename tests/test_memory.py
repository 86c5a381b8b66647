"""Peak memory per row of ``score``, ``fuse``, ``eval``, ``curve`` and ``synth``, traced.

An id column costs one string per distinct value and a code per row, and
``score`` copies a plain file's lines from its bytes a chunk at a time, so
neither command holds a Python string per input row. A ``label`` or
``decision`` column is read into 9-byte fields (36 as 9-character ones),
``fuse`` frees numpy's table before it groups the rows, and the posterior
and confidence are computed in place, with one temporary array. Each bound
sits between the peak before that narrowing and today's, in bytes per row:

| command | before | today | bound |
|---|---|---|---|
| ``score`` | 142 | 126 | 135 |
| ``fuse`` | 151 | 82 | 115 |
| ``eval`` (pic) | 119 | 62 | 90 |
| ``eval --estimator lrc`` | 110 | 83 | 96 |
| ``curve`` | 112 | 76 | 94 |

Earlier, one string per id field cost about 240 bytes per row for ``score``
and 315 for ``fuse`` on this input.

``synth`` builds coded id columns, with one probe string per group where it
built one per row. Its bound sits between the peak of the per-row strings
(about 232 bytes per row) and today's (about 170).

Input that is not plain (``\r\n`` line ends, a quoted column) costs
``score`` one string per line and numpy's read of its one number column:
about 165-180 bytes per row, where reading every column as strings cost
about 505 with ``\r\n`` and 480 with the quoted column.
"""

import tracemalloc

import pytest

import numpy.random  # noqa: F401  numpy imports it on first use; imported here, so that
import picscore.baselines  # noqa: F401  no import is traced
import picscore.metrics  # noqa: F401
import picscore.pic  # noqa: F401
from picscore.cli import main
from picscore.dataset import save_scores
from picscore.density import fit_model, save_model
from picscore.synth import SynthConfig, generate

N_ROWS = 40000


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("memory")
    scores = generate(SynthConfig(n_genuine=N_ROWS // 2, n_imposter=N_ROWS // 2,
                                  refs_per_probe=8, seed=3))
    save_scores(scores, folder / "scores.csv")
    lines = (folder / "scores.csv").read_text().splitlines()
    (folder / "crlf.csv").write_text("".join(line + "\r\n" for line in lines))
    (folder / "quoted.csv").write_text("".join(  # the probe_id column quoted
        '{},{},"{}",{}\n'.format(*line.split(",", 3)) for line in lines))
    train = generate(SynthConfig(n_genuine=500, n_imposter=500, seed=4))
    save_scores(train, folder / "train.csv")
    save_model(fit_model(train, resolution=512), folder / "model.json")
    assert main(["score", str(folder / "model.json"), str(folder / "scores.csv"),
                 str(folder / "scored.csv")]) == 0
    return folder


def peak_bytes_per_row(inputs, command, scores):
    return traced_peak_per_row(
        [command, inputs / "model.json", inputs / scores, inputs / f"{command}.csv"])


def traced_peak_per_row(argv):
    tracemalloc.start()
    try:
        assert main([str(arg) for arg in argv]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / N_ROWS


@pytest.mark.parametrize("command, bytes_per_row", [("score", 135), ("fuse", 115)])
def test_peak_bytes_per_input_row(inputs, command, bytes_per_row):
    assert peak_bytes_per_row(inputs, command, "scores.csv") < bytes_per_row


def test_synth_peak_bytes_per_row(tmp_path):
    argv = ["synth", tmp_path / "scores.csv", "--n-genuine", N_ROWS // 2,
            "--n-imposter", N_ROWS // 2, "--refs-per-probe", 8, "--seed", 3]
    assert traced_peak_per_row(argv) < 215


@pytest.mark.parametrize("scores", ["crlf.csv", "quoted.csv"])
def test_score_peak_bytes_per_row_of_other_input(inputs, scores):
    assert peak_bytes_per_row(inputs, "score", scores) < 250


@pytest.mark.parametrize("argv, bytes_per_row", [
    (["eval", "scored.csv", "report"], 90),
    (["eval", "scored.csv", "lrc", "--estimator", "lrc", "--train", "train.csv",
      "--model", "model.json"], 96),
    (["curve", "scored.csv", "model.json", "curve.csv"], 94),
], ids=["eval", "eval-lrc", "curve"])
def test_scored_file_peak_bytes_per_row(inputs, monkeypatch, argv, bytes_per_row):
    monkeypatch.chdir(inputs)
    assert traced_peak_per_row(argv) < bytes_per_row
