"""Peak memory per row of ``score``, ``fuse``, ``eval``, ``curve``, ``synth``, ``split`` and
``train``, traced.

An id column costs one string per distinct value and a code per row, in
1, 2 or 4 bytes: the narrowest width that tells its distinct values
apart. ``score`` keeps only the offsets of a plain file's lines and reads
each chunk of them from the file as it writes it, so it holds neither the
file nor a string per input row. A ``label`` or ``decision`` column is read
as a 1-byte flag per row, on every route, and numpy's table is freed once
every column is copied out of it, before the labels are parsed. ``eval``
frees its values once it has verified, before it bins the confidences.
The float kernels (the log likelihood ratio, the posterior, the baselines'
confidences) work a block of rows at a time, with a fixed amount of
scratch. Each bound sits between the peak before these changes and
today's, in bytes per row of this 40k-row input:

| command | before | today | bound |
|---|---|---|---|
| ``score`` | 126 | 70 | 72 |
| ``fuse`` | 83 | 59 | 61 |
| ``eval`` (pic) | 61 | 38 | 43 |
| ``eval --estimator lrc`` | 81 | 52 | 68 |
| ``eval --estimator dtc`` | 73 | 45 | 60 |
| ``eval --estimator erbc`` | 74 | 47 | 62 |
| ``curve`` | 76 | 54 | 64 |
| ``synth`` | 232 | 128 | 150 |
| ``split`` | 179 | 157 | 158 |

At this size a block of rows is most of the input, so these figures hold
the blocks' scratch too. ``eval --estimator erbc`` is also measured on
four blocks of rows (131,072): 39 bytes per row while it held its values
through the calibration, 29 today, with a bound of 34. What ``score``
holds per row is measured apart, as the rise of its peak from this input
to one twice as long: about 70 bytes per row before (the whole file, 52
bytes per row, among them), 25 with 8-byte line offsets and 21 today with
4-byte ones. Its bound, 23, is below the file's own size per row, so that
any copy of the whole file fails it.

When label codes went from 4 bytes to 1 and numpy's table came to be
freed before the labels are parsed, ``score`` fell from 74 to 70 (its
line offsets), ``eval`` (pic) from 48 to 38 (``eval`` verifying first
too) and ``split`` from 159 to 157; each bound that moved by 1 byte per
row or more was lowered to sit between the two.

A scored file whose ``label`` and ``decision`` are written in 384 mixes of
case cost ``eval`` about 658 bytes per row while a label column of more
than 256 spellings was read again with ``csv.reader``. Read as flags, it
costs 41; its bound is 45.

Earlier, one string per id field cost about 240 bytes per row for ``score``
and 315 for ``fuse`` on this input.

``train`` reads only the id columns its subject check needs, ``subject_a``
and ``subject_b``: about 260 bytes per row of this input with
``--resolution 512``, where reading all four cost about 340. Its bound is 300.

``synth`` builds coded id columns, with one probe string per group where it
built one per row (about 232 bytes per row before, 165 after). It now builds
its 4-byte codes from one group index, in place, with no 8-byte temporaries,
and the subject check holds a 1- or 2-byte position per row where it held 8:
128 today. ``split``'s traced peak is numpy's read of all six columns. It
fell from 178 to 167 when the reader began to copy each id column's codes
out at the narrowest width and free its dict (the one that codes
``reference_id`` holds a distinct value per row) before it copies the
score column, and to 159 when its label column became 4-byte codes where
it was 9-byte fields; ``eval`` (pic), which reads two label columns, fell
from 56 to 48 then. ``fuse`` fell from 62 to 60 with those codes and with
``pair_groups``' 4-byte pair keys and row indices.

Input that is not plain (``\r\n`` line ends, a quoted column) costs
``score`` one string per line and numpy's read of its one number column:
about 165-175 bytes per row (180 with ``\r\n`` while numpy's table lived
on as the lines were quoted again; its bound is 176), where reading every
column as strings cost about 505 with ``\r\n`` and 480 with the quoted
column. On a ``\r\n`` copy of the input (and of ``score``'s output), each
command that reads a label column held a string per label field until
labels were coded on that route too:

| command | before | today | bound |
|---|---|---|---|
| ``fuse`` | 158 | 92 | 95 |
| ``eval`` (pic) | 246 | 117 | 122 |
| ``curve`` | 181 | 115 | 119 |
| ``split`` | 273 | 209 | 210 |

Before the label codes took 1 byte these were 97, 127, 122 and 211.
"""

import itertools
import tracemalloc

import pytest

import numpy.random  # noqa: F401  numpy imports it on first use; imported here, so that
import picscore.baselines  # noqa: F401  no import is traced
import picscore.metrics  # noqa: F401
import picscore.pic  # noqa: F401
from picscore.cli import main
from picscore.dataset import LABELS, save_scores
from picscore.density import fit_model, save_model
from picscore.pic import _BLOCK_ROWS
from picscore.synth import SynthConfig, generate

N_ROWS = 40000


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("memory")
    scores = generate(SynthConfig(n_genuine=N_ROWS // 2, n_imposter=N_ROWS // 2,
                                  refs_per_probe=8, seed=3))
    save_scores(scores, folder / "scores.csv")
    lines = (folder / "scores.csv").read_text().splitlines()
    (folder / "twice.csv").write_text("\n".join([*lines, *lines[1:]]) + "\n")
    (folder / "crlf.csv").write_text("".join(line + "\r\n" for line in lines))
    (folder / "quoted.csv").write_text("".join(  # the probe_id column quoted
        '{},{},"{}",{}\n'.format(*line.split(",", 3)) for line in lines))
    train = generate(SynthConfig(n_genuine=500, n_imposter=500, seed=4))
    save_scores(train, folder / "train.csv")
    save_model(fit_model(train, resolution=512), folder / "model.json")
    assert main(["score", str(folder / "model.json"), str(folder / "scores.csv"),
                 str(folder / "scored.csv")]) == 0
    lines = (folder / "scored.csv").read_text().splitlines()
    (folder / "scored_crlf.csv").write_text("".join(line + "\r\n" for line in lines))
    return folder


def peak_bytes_per_row(inputs, command, scores):
    return traced_peak_per_row(
        [command, inputs / "model.json", inputs / scores, inputs / f"{command}.csv"])


def traced_peak_per_row(argv, n_rows=N_ROWS):
    tracemalloc.start()
    try:
        assert main([str(arg) for arg in argv]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n_rows


@pytest.mark.parametrize("command, bytes_per_row", [("score", 72), ("fuse", 61)])
def test_peak_bytes_per_input_row(inputs, command, bytes_per_row):
    assert peak_bytes_per_row(inputs, command, "scores.csv") < bytes_per_row


def test_score_holds_less_per_row_than_its_input_file(inputs):
    bound = 23
    assert (inputs / "scores.csv").stat().st_size / N_ROWS > bound
    rise = (peak_bytes_per_row(inputs, "score", "twice.csv")
            - peak_bytes_per_row(inputs, "score", "scores.csv"))
    assert rise < bound


def test_synth_peak_bytes_per_row(tmp_path):
    argv = ["synth", tmp_path / "scores.csv", "--n-genuine", N_ROWS // 2,
            "--n-imposter", N_ROWS // 2, "--refs-per-probe", 8, "--seed", 3]
    assert traced_peak_per_row(argv) < 150


def test_split_peak_bytes_per_row(inputs, tmp_path):
    argv = ["split", inputs / "scores.csv", "--out-train", tmp_path / "train.csv",
            "--out-test", tmp_path / "test.csv", "--seed", 3]
    assert traced_peak_per_row(argv) < 158


def test_train_peak_bytes_per_row(inputs, tmp_path):
    argv = ["train", inputs / "scores.csv", tmp_path / "model.json", "--resolution", 512]
    assert traced_peak_per_row(argv) < 300


@pytest.mark.parametrize("scores, bytes_per_row", [("crlf.csv", 176), ("quoted.csv", 250)],
                         ids=["crlf.csv", "quoted.csv"])
def test_score_peak_bytes_per_row_of_other_input(inputs, scores, bytes_per_row):
    assert peak_bytes_per_row(inputs, "score", scores) < bytes_per_row


@pytest.mark.parametrize("argv, bytes_per_row", [
    (["eval", "scored.csv", "report"], 43),
    (["eval", "scored.csv", "lrc", "--estimator", "lrc", "--train", "train.csv",
      "--model", "model.json"], 68),
    (["eval", "scored.csv", "dtc", "--estimator", "dtc", "--train", "train.csv"], 60),
    (["eval", "scored.csv", "erbc", "--estimator", "erbc", "--train", "train.csv"], 62),
    (["curve", "scored.csv", "model.json", "curve.csv"], 64),
], ids=["eval", "eval-lrc", "eval-dtc", "eval-erbc", "curve"])
def test_scored_file_peak_bytes_per_row(inputs, monkeypatch, argv, bytes_per_row):
    monkeypatch.chdir(inputs)
    assert traced_peak_per_row(argv) < bytes_per_row


@pytest.mark.parametrize("argv, bytes_per_row", [
    (["fuse", "model.json", "crlf.csv", "fuse.csv"], 95),
    (["eval", "scored_crlf.csv", "report"], 122),
    (["curve", "scored_crlf.csv", "model.json", "curve.csv"], 119),
    (["split", "crlf.csv", "--out-train", "split_train.csv", "--out-test", "split_test.csv",
      "--seed", 3], 210),
], ids=["fuse", "eval", "curve", "split"])
def test_label_reading_peak_bytes_per_row_of_crlf_input(inputs, monkeypatch, argv,
                                                        bytes_per_row):
    monkeypatch.chdir(inputs)
    assert traced_peak_per_row(argv) < bytes_per_row


def case_mixes(label):
    """Every mix of upper and lower case of ``label``: 2 ** len(label) spellings."""
    return ["".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(label))
            for mask in range(2 ** len(label))]


def test_eval_peak_bytes_per_row_of_many_label_spellings(inputs, tmp_path):
    lines = (inputs / "scored.csv").read_text().splitlines()
    header = lines[0].split(",")
    mixes = {label: itertools.cycle(case_mixes(label)) for label in LABELS}
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for i in (header.index("label"), header.index("decision")):
            row[i] = next(mixes[row[i]])
    path = tmp_path / "scored.csv"
    path.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
    assert traced_peak_per_row(["eval", path, tmp_path / "report"]) < 45


def test_eval_erbc_peak_bytes_per_row_of_four_blocks(inputs, tmp_path):
    n_rows = 4 * _BLOCK_ROWS
    scores = generate(SynthConfig(n_genuine=n_rows // 2, n_imposter=n_rows // 2,
                                  refs_per_probe=8, seed=3))
    save_scores(scores, tmp_path / "scores.csv")
    argv = ["eval", tmp_path / "scores.csv", tmp_path / "erbc", "--estimator", "erbc",
            "--train", inputs / "train.csv"]
    assert traced_peak_per_row(argv, n_rows) < 34
