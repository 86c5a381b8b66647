"""The column-based CLI commands against per-row reference implementations.

``reference_score`` and ``reference_fuse`` are the earlier row-by-row
commands (``csv.DictReader`` rows, one density lookup per fusion group),
kept here as the reference the column code must match byte for byte.
``reference_eval`` and ``reference_curve`` read rows with ``csv.reader`` and
``float()``, call only the public numeric functions, and write ``"%.6f"``
fields as the README's format section states.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picscore import cli
from picscore.baselines import dtc_confidence, fit_dtc
from picscore.cli import main
from picscore.dataset import GENUINE, IMPOSTER, IdColumn, ScoreTable, load_scores, save_scores
from picscore.density import fit_model, load_model, save_model
from picscore.metrics import calibration_report, ccc, fnmr_at_fmr, true_confidence
from picscore.pic import log_likelihood_ratio, pair_groups, pic_threshold_for_fmr, pic_values
from picscore.synth import SynthConfig, generate
from test_dataset import through_pipe

HEADER = ["score", "label", "probe_id", "reference_id", "subject_a", "subject_b"]


def run(*args):
    return main([str(a) for a in args])


def reference_score(model_path, input_path, out_path, fmr):
    model = load_model(model_path)
    with open(input_path, newline="") as handle:
        fields = next(row for row in csv.reader(handle) if row)  # blank lines may lead
        rows = list(csv.DictReader(handle, fieldnames=fields))
    score = next(name for name in fields if name.strip().lower() == "score")
    values = pic_values(model, np.array([float(row[score]) for row in rows]))
    threshold = pic_threshold_for_fmr(fmr)
    with open(out_path, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=fields + ["pic", "decision", "confidence"], lineterminator="\n"
        )
        writer.writeheader()
        for row, value in zip(rows, values):
            decision = GENUINE if value >= threshold else IMPOSTER
            confidence = value if decision == GENUINE else 1.0 - value
            row = dict(row)
            row["pic"] = f"{value:.6f}"
            row["decision"] = decision
            row["confidence"] = f"{confidence:.6f}"
            writer.writerow(row)


def reference_joint(model, scores):
    """One group's joint posterior: exactly rounded log-LR sum, stable sigmoid."""
    total = math.fsum(log_likelihood_ratio(model, np.asarray(scores, dtype=float)).tolist())
    z = np.asarray(total + (math.log(model.prior_genuine) - math.log(model.prior_imposter)))
    ez = np.exp(-np.abs(z))
    return float(np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez)))


def reference_fuse(model_path, input_path, out_path, max_refs, fmr):
    model = load_model(model_path)
    groups = {}
    with open(input_path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["probe_id"].strip(), row["subject_b"].strip())
            group = groups.setdefault(key, {"label": row["label"].strip().lower(), "scores": []})
            group["scores"].append(float(row["score"]))
    threshold = pic_threshold_for_fmr(fmr)
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ("probe_id", "claimed_id", "label", "n_used", "pic", "decision", "confidence")
        )
        for (probe, claimed), group in groups.items():
            used = group["scores"][:max_refs]
            value = reference_joint(model, used)
            decision = GENUINE if value >= threshold else IMPOSTER
            confidence = value if decision == GENUINE else 1.0 - value
            writer.writerow([probe, claimed, group["label"], len(used), f"{value:.6f}",
                             decision, f"{confidence:.6f}"])


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    data = generate(SynthConfig(n_genuine=3000, n_imposter=3000, seed=21))
    save_model(fit_model(data, resolution=512), path)
    return path


def awkward_csv(path, seed=5):
    """Quoted ids with commas and quotes, padded ids and labels, CRLF, blank lines.

    Groups are interleaved and range from a singleton to eight rows.
    """
    rng = random.Random(seed)
    sizes = [1, 8, 3, 5, 6, 2, 7, 4, 1, 5]
    entries = []
    for g, size in enumerate(sizes):
        genuine = g % 2 == 0
        subject = f"S,{g}" if g % 3 == 0 else f'S"{g}'
        claimed = subject if genuine else f"T {g}"
        probe = f"p,{g}" if g % 4 == 0 else f" p{g}"
        for k in range(size):
            label = rng.choice(["genuine", "GENUINE", " Genuine"] if genuine
                               else ["imposter", "IMPOSTER", "Imposter "])
            score = rng.gauss(0.7 if genuine else 0.2, 0.12)
            entries.append([f"{score:.6f}", label, probe, f"r{g}-{k}", subject, claimed])
    rng.shuffle(entries)  # interleaves the groups and mixes which rows --max-refs keeps
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(HEADER)
    for i, entry in enumerate(entries):
        writer.writerow(entry)
        if i % 7 == 3:
            buffer.write("\r\n")
    path.write_bytes(buffer.getvalue().encode())
    return path


class TestAgainstRowReference:
    def test_input_has_the_awkward_cases(self, tmp_path):
        text = awkward_csv(tmp_path / "in.csv").read_bytes()
        assert b'"p,0"' in text and b'"S""1"' in text and b"\r\n\r\n" in text
        assert b"GENUINE" in text and b"Imposter " in text and b", p1," in text

    @pytest.mark.parametrize("seed", [5, 6])
    def test_score_bytes(self, tmp_path, model_path, seed):
        source = awkward_csv(tmp_path / "in.csv", seed)
        assert run("score", model_path, source, tmp_path / "new.csv", "--fmr", "0.05") == 0
        reference_score(model_path, source, tmp_path / "ref.csv", 0.05)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # Plain files: \n line ends and no quote, so score copies each row as written.
    PLAIN = {
        "blank-lines": "\n\nscore,label,probe_id\n\n0.61,genuine,p1\n0.20,imposter,p2\n\n\n"
                       "0.33,imposter,p3\n\n",
        "padded": "score , Label,probe_id\n 0.61 ,  genuine , p 1 \n0.2,imposter,\t\n",
        "mixed-case-header": "Probe_ID,SCORE,Subject_A\np1,0.7,A\np2,0.1,B\n",
        "no-final-newline": "score,label\n0.61,genuine\n0.2,imposter",
        "non-ascii": "score,probe_id,subject_a\n0.61,é中,ß\n0.2,プローブ,\U0001f600\n",
        "line-like-ids": "score,probe_id\n0.61,a\x85b\n0.2,c\x1cd\n0.3,e\u2028f\u2029\x0b\x0c\n",
        "lone-column": "score\n0.61\n\n0.2\n",
    }

    @pytest.mark.parametrize("name", list(PLAIN))
    def test_score_bytes_of_plain_files(self, tmp_path, model_path, name):
        source = tmp_path / "in.csv"
        source.write_bytes(self.PLAIN[name].encode())
        assert run("score", model_path, source, tmp_path / "new.csv", "--fmr", "0.05") == 0
        reference_score(model_path, source, tmp_path / "ref.csv", 0.05)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", ["blank-lines", "line-like-ids"])
    def test_score_bytes_of_a_plain_file_through_a_pipe(self, tmp_path, model_path, name):
        source = tmp_path / "in.csv"
        source.write_bytes(self.PLAIN[name].encode())
        assert run("score", model_path, source, tmp_path / "file.csv") == 0
        assert through_pipe(source.read_bytes(),
                            lambda fd: run("score", model_path, fd, tmp_path / "pipe.csv")) == 0
        assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("max_refs", [1, 3, 5, 9])
    def test_fuse_bytes(self, tmp_path, model_path, max_refs):
        source = awkward_csv(tmp_path / "in.csv")
        assert run("fuse", model_path, source, tmp_path / "new.csv",
                   "--max-refs", max_refs, "--fmr", "0.05") == 0
        reference_fuse(model_path, source, tmp_path / "ref.csv", max_refs, 0.05)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # ids equal once stripped: " p1", "p1\t" and "p1" followed by an ideographic space
    PADDED_IDS = ("score,label,probe_id,subject_b\n"
                  "0.81,genuine, p1,s1\n0.22,imposter,p2,s1\n0.77,genuine,p1\t,s1 \n"
                  "0.31,imposter,p2 ,s1\n0.74,genuine,p1\u3000, s1\n0.28,imposter,p1,s2\n")

    @pytest.mark.parametrize("through", ["file", "pipe", "crlf"])
    def test_fuse_bytes_of_padded_ids(self, tmp_path, model_path, through):
        source = tmp_path / "in.csv"
        source.write_bytes(self.PADDED_IDS.encode())
        reference_fuse(model_path, source, tmp_path / "ref.csv", 5, 0.05)
        out = tmp_path / "new.csv"
        if through == "pipe":
            code = through_pipe(source.read_bytes(), lambda fd: run(
                "fuse", model_path, fd, out, "--fmr", "0.05"))
        else:
            if through == "crlf":
                source.write_bytes(self.PADDED_IDS.replace("\n", "\r\n").encode())
            code = run("fuse", model_path, source, out, "--fmr", "0.05")
        assert code == 0
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert [line.rsplit(",", 3)[0] for line in out.read_text().splitlines()[1:]] == [
            "p1,s1,genuine,3", "p2,s1,imposter,2", "p1,s2,imposter,1"]

    @pytest.mark.parametrize("through", ["file", "pipe", "crlf"])
    def test_fuse_names_an_id_blank_once_stripped(self, tmp_path, model_path, capsys, through):
        text = self.PADDED_IDS + "0.5,genuine,\u3000\t,s1\n"
        source = tmp_path / "in.csv"
        source.write_bytes((text.replace("\n", "\r\n") if through == "crlf" else text).encode())
        if through == "pipe":
            code = through_pipe(source.read_bytes(), lambda fd: run(
                "fuse", model_path, fd, tmp_path / "f.csv"))
        else:
            code = run("fuse", model_path, source, tmp_path / "f.csv")
        assert code == 2
        assert "row 7: probe_id and subject_b are required for fusion" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["blank-lines", "padded", "no-final-newline", "non-ascii"])
    def test_score_over_its_own_input(self, tmp_path, model_path, name):
        """The output is the input file by its own path, a hard link or a symlink."""
        source = tmp_path / "in.csv"
        source.write_bytes(self.PLAIN[name].encode())
        assert run("score", model_path, source, tmp_path / "other.csv") == 0
        hard, soft = tmp_path / "hard.csv", tmp_path / "soft.csv"
        os.link(source, hard)
        soft.symlink_to(source)
        for out in (source, hard, soft):
            source.write_bytes(self.PLAIN[name].encode())
            assert run("score", model_path, source, out) == 0
            assert source.read_bytes() == (tmp_path / "other.csv").read_bytes()

    @pytest.mark.parametrize("change", ["longer", "same-size", "replaced"])
    def test_score_fails_when_its_input_changes_before_the_write(
            self, tmp_path, model_path, monkeypatch, capsys, change):
        source = tmp_path / "in.csv"
        text = self.PLAIN["blank-lines"]
        source.write_bytes(text.encode())
        write_rows = cli.write_rows

        def rewrite_then_write(*args, **kwargs):
            if change == "longer":
                source.write_bytes(text.replace("0.61", "0.71234").encode())
            elif change == "same-size":
                stat = source.stat()
                source.write_bytes(text.replace("0.61", "0.71").encode())
                os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            else:
                (tmp_path / "new.csv").write_bytes(text.encode())
                os.replace(tmp_path / "new.csv", source)
            return write_rows(*args, **kwargs)

        monkeypatch.setattr(cli, "write_rows", rewrite_then_write)
        assert run("score", model_path, source, tmp_path / "out.csv") == 2
        assert capsys.readouterr().err == f"error: {source}: the file changed after it was read\n"
        assert not (tmp_path / "out.csv").exists()

    def test_fuse_on_synthetic_scores(self, tmp_path, model_path):
        source = tmp_path / "scores.csv"
        assert run("synth", source, "--n-genuine", 400, "--n-imposter", 400,
                   "--n-subjects", 10, "--refs-per-probe", 4, "--seed", 8) == 0
        assert run("fuse", model_path, source, tmp_path / "new.csv", "--max-refs", 3) == 0
        reference_fuse(model_path, source, tmp_path / "ref.csv", 3, 1e-3)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fuse_reports_truncation(self, tmp_path, model_path, capsys):
        source = awkward_csv(tmp_path / "in.csv")
        assert run("fuse", model_path, source, tmp_path / "f.csv", "--max-refs", 5) == 0
        # group sizes 1, 8, 3, 5, 6, 2, 7, 4, 1, 5: three groups exceed 5 refs
        # and leave 3 + 1 + 2 rows unused
        assert "truncated 3 groups to 5 refs, leaving 6 rows unused" in capsys.readouterr().out

    @pytest.mark.parametrize("max_refs", [2**31, 2**63, 10**20])
    def test_fuse_max_refs_past_numpys_integers(self, tmp_path, model_path, capsys, max_refs):
        source = awkward_csv(tmp_path / "in.csv")  # 42 rows
        assert run("fuse", model_path, source, tmp_path / "all.csv", "--max-refs", 42) == 0
        capsys.readouterr()
        assert run("fuse", model_path, source, tmp_path / "f.csv", "--max-refs", max_refs) == 0
        assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "all.csv").read_bytes()
        assert f"(max {max_refs} refs)" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
        assert manifest["parameters"]["max_refs"] == max_refs


def reference_rows(path):
    """A CSV file's non-blank data rows as dicts keyed by the stripped, lower-cased header."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = filter(None, csv.reader(handle))
        keys = [name.strip().lower() for name in next(rows)]
        return [dict(zip(keys, row)) for row in rows]


def is_genuine_text(field):
    return field.strip().lower() == GENUINE


def write_reference(path, header, rows):
    """Rows of formatted fields, joined by ``,`` and ended by ``\\n``."""
    with open(path, "w", newline="") as handle:
        handle.write("".join(",".join(row) + "\n" for row in [header, *rows]))


def six(value):
    return "%.6f" % value  # ``nan`` for an empty bin


def reference_eval(input_path, prefix, estimator, fmr, bins, train_path=None):
    """``eval`` with ``--estimator pic`` or ``dtc`` (``--train train_path``), row by row."""
    rows = reference_rows(input_path)
    is_genuine = [is_genuine_text(row["label"]) for row in rows]
    if estimator == "pic":  # dtc's values come from its fit, below
        values = [float(row["pic"]) for row in rows]
        accepted = [is_genuine_text(row["decision"]) for row in rows]
        confidences = [float(row["confidence"]) for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an unreachable FMR target
        if estimator == "dtc":
            train = reference_rows(train_path)
            est = fit_dtc(ScoreTable(np.array([float(row["score"]) for row in train]),
                                     np.array([is_genuine_text(row["label"]) for row in train])),
                          fmr)
            values = [float(row["score"]) for row in rows]
            accepted = [value >= est.threshold for value in values]
            confidences = dtc_confidence(est, np.array(values)).tolist()
        verification = fnmr_at_fmr([v for v, g in zip(values, is_genuine) if g],
                                   [v for v, g in zip(values, is_genuine) if not g], fmr)
    # The decisions' errors, over every row.
    false_matches = sum(a and not g for a, g in zip(accepted, is_genuine))
    false_non_matches = sum(g and not a for a, g in zip(accepted, is_genuine))
    report = calibration_report(confidences, [a == g for a, g in zip(accepted, is_genuine)],
                                bins)
    write_reference(f"{prefix}.calibration.csv",
                    ["bin_lo", "bin_hi", "count", "p_true", "p_pred_mean", "p_pred_std"],
                    [[six(lo), six(hi), str(count), six(true), six(mean), six(std)]
                     for lo, hi, count, true, mean, std in zip(
                         report.bin_lo, report.bin_hi, report.count.tolist(), report.p_true,
                         report.p_pred_mean, report.p_pred_std)])
    write_reference(f"{prefix}.summary.csv", ["key", "value"], [
        ["estimator", estimator], ["decision_filter", "all"],
        ["n_samples", str(report.n_samples)], ["ece_bins", str(bins)],
        ["ece", six(report.ece)], ["mce", six(report.mce)], ["target_fmr", str(fmr)],
        ["threshold", repr(verification.threshold)], ["fmr", six(verification.fmr)],
        ["fnmr", six(verification.fnmr)], ["n_genuine", str(verification.n_genuine)],
        ["n_imposter", str(verification.n_imposter)],
        ["decision_false_matches", str(false_matches)],
        ["decision_false_non_matches", str(false_non_matches)],
        ["decision_fmr", six(false_matches / is_genuine.count(False))],
        ["decision_fnmr", six(false_non_matches / is_genuine.count(True))]])


def reference_curve(input_path, model_path, out_path, bins):
    """``curve``, row by row."""
    rows = reference_rows(input_path)
    truth = true_confidence(load_model(model_path), np.array([float(row["score"]) for row in rows]),
                            np.array([is_genuine_text(row["decision"]) for row in rows]))
    series = ccc(truth, [float(row["confidence"]) for row in rows], bins)
    write_reference(out_path, ["bin_center", "pred_mean", "pred_std", "count"],
                    [[six(center), six(mean), six(std), str(count)] for center, mean, std, count
                     in zip(series.bin_center, series.pred_mean, series.pred_std,
                            series.count.tolist())])


def crlf_with_blank_lines(data: bytes) -> bytes:
    """``\\r\\n`` line ends, and a blank line after one line in seven (no field holds a
    line end)."""
    lines = data.decode().splitlines()
    return "".join(line + ("\r\n\r\n" if i % 7 == 3 else "\r\n")
                   for i, line in enumerate(lines)).encode()


def bom_and_upper_header(data: bytes) -> bytes:
    header, rest = data.split(b"\n", 1)
    return b"\xef\xbb\xbf" + header.upper() + b"\n" + rest


class TestEvalAndCurveAgainstRowReference:
    """``eval --estimator pic``, ``eval --estimator dtc`` and ``curve`` against their
    references, byte for byte, on the renderings ``score`` and ``fuse`` are checked on.

    A rendering is a score file (``dtc`` reads it, and is trained on it) and
    ``score``'s output on it, written again the same way (``pic`` and
    ``curve`` read that). ``eval`` needs labels, so it runs only on the plain
    variants that have a label column.
    """

    LABELED = ["blank-lines", "padded", "no-final-newline"]
    RENDERINGS = ["awkward", "bom-upper-header", *TestAgainstRowReference.PLAIN]

    @staticmethod
    def files(tmp_path, model_path, name):
        """``(scores, scored)``: the rendering ``name`` of a score file and of its ``score``."""
        if name == "awkward":
            raw, render = awkward_csv(tmp_path / "raw.csv").read_bytes(), crlf_with_blank_lines
        elif name == "bom-upper-header":
            save_scores(generate(SynthConfig(n_genuine=200, n_imposter=200, seed=8)),
                        tmp_path / "raw.csv")
            raw, render = (tmp_path / "raw.csv").read_bytes(), bom_and_upper_header
        else:
            raw, render = TestAgainstRowReference.PLAIN[name].encode(), bytes
        scores, scored = tmp_path / "scores.csv", tmp_path / "scored.csv"
        scores.write_bytes(render(raw))
        assert run("score", model_path, scores, scored, "--fmr", "0.05") == 0
        scored.write_bytes(render(scored.read_bytes()))
        return scores, scored

    @staticmethod
    def run_on(path, through, *args):
        """``cli.main`` with ``path`` as its first argument, a file or a pipe of its bytes."""
        if through == "pipe":
            return through_pipe(path.read_bytes(), lambda fd: run(args[0], fd, *args[1:]))
        return run(args[0], path, *args[1:])

    @pytest.mark.parametrize("through", ["file", "pipe"])
    @pytest.mark.parametrize("estimator", ["pic", "dtc"])
    @pytest.mark.parametrize("name", ["awkward", "bom-upper-header", *LABELED])
    def test_eval_bytes(self, tmp_path, model_path, name, estimator, through):
        scores, scored = self.files(tmp_path, model_path, name)
        source = scored if estimator == "pic" else scores
        options = ["--estimator", estimator, "--fmr", "0.05", "--train", scores]
        assert self.run_on(source, through, "eval", tmp_path / "new", *options) == 0
        reference_eval(source, tmp_path / "ref", estimator, 0.05, 10, scores)
        for suffix in (".calibration.csv", ".summary.csv"):
            assert ((tmp_path / f"new{suffix}").read_bytes()
                    == (tmp_path / f"ref{suffix}").read_bytes())

    @pytest.mark.parametrize("through", ["file", "pipe"])
    @pytest.mark.parametrize("name", RENDERINGS)
    def test_curve_bytes(self, tmp_path, model_path, name, through):
        _, scored = self.files(tmp_path, model_path, name)
        assert self.run_on(scored, through, "curve", model_path, tmp_path / "new.csv") == 0
        reference_curve(scored, model_path, tmp_path / "ref.csv", 30)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def reference_groups(probes, claimed, max_refs):
    """``fuse``'s earlier grouping: ``np.unique`` of the pair keys, then two argsorts."""
    pairs = probes.codes.astype(np.int64) * claimed.values.size + claimed.codes
    _, first_rows, groups = np.unique(pairs, return_index=True, return_inverse=True)
    groups = np.argsort(np.argsort(first_rows))[groups]
    order = np.argsort(groups, kind="stable")  # file order within each group
    sizes = np.bincount(groups)
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(groups.size) - np.repeat(starts, sizes)
    used = np.minimum(sizes, max(0, min(max_refs, groups.size)))
    return order[starts], sizes, used, order[rank < max_refs]


def grouped(probes, claimed, max_refs):
    """``pair_groups`` of imposter rows with these ids."""
    table = ScoreTable(np.zeros(probes.codes.size), np.zeros(probes.codes.size, bool),
                       probe_id=probes, subject_b=claimed)
    return pair_groups(table, max_refs)


class TestPairGroups:
    """``pair_groups``' one-sort grouping against the ``np.unique`` grouping it replaced."""

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=40),
           st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_unique(self, pairs, max_refs, rng):
        rows = [pair for pair in pairs for _ in range(rng.randint(1, 3))]  # repeated pairs
        rng.shuffle(rows)
        probe_codes, claimed_codes = map(np.array, zip(*rows))
        probes = IdColumn(probe_codes, np.array([f"p{i}" for i in range(5)], dtype=object))
        claimed = IdColumn(claimed_codes, np.array([f"s{i}" for i in range(4)], dtype=object))
        got = grouped(probes, claimed, max_refs)
        want = reference_groups(probes, claimed, max_refs)
        assert [part.tolist() for part in got] == [part.tolist() for part in want]

    # 46,340**2 keys fit int32; 70,000**2 pass 2**32, where (61,356, 47,296) and
    # (0, 0) would wrap to one int32 key.
    @pytest.mark.parametrize("n_values", [46_340, 70_000])
    def test_matches_unique_at_the_ends_of_the_key_span(self, n_values):
        top = n_values - 1
        wrap = (61_356 % n_values, 47_296 % n_values)
        pairs = [(top, top), wrap, (0, 0), (top, 0), (0, top), (top, top), (0, 0), wrap,
                 (1, top - 1)]
        values = np.array([f"v{i}" for i in range(n_values)], dtype=object)
        probes, claimed = (IdColumn(np.array(codes), values) for codes in zip(*pairs))
        for max_refs in (1, 2, 3):
            got = grouped(probes, claimed, max_refs)
            want = reference_groups(probes, claimed, max_refs)
            assert [part.tolist() for part in got] == [part.tolist() for part in want]
            assert all(part.dtype == np.int32 for part in got)  # 4-byte row indices

    INTERLEAVED = (IdColumn(np.array([1, 0, 1, 1, 0, 1, 0]), np.array(["p", "q"], dtype=object)),
                   IdColumn(np.array([0, 0, 0, 1, 0, 0, 0]), np.array(["s", "t"], dtype=object)))

    def test_truncates_interleaved_groups(self):
        first, sizes, used, kept = grouped(*self.INTERLEAVED, 2)
        assert first.tolist() == [0, 1, 3]
        assert sizes.tolist() == [3, 3, 1]
        assert used.tolist() == [2, 2, 1]
        assert kept.tolist() == [0, 2, 1, 4, 3]

    @pytest.mark.parametrize("max_refs", [0, -1, 2**31, 2**63, 10**20])
    def test_matches_unique_past_any_cap(self, max_refs):
        """``pair_groups`` clamps any integer: none used below 1, every row past the count."""
        got = grouped(*self.INTERLEAVED, max_refs)
        want = reference_groups(*self.INTERLEAVED, max_refs)
        assert [part.tolist() for part in got] == [part.tolist() for part in want]


def data_rows(data):
    """A file's header keys, stripped and lower-cased, and its non-blank data rows."""
    rows = [row for row in csv.reader(io.StringIO(data.decode("utf-8-sig"), newline="")) if row]
    return [name.strip().lower() for name in rows[0]], rows[1:]


def first_bad_row(data, reads):
    """``(row, message)`` of the first bad field among the columns ``reads``, or ``None``.

    An independent scan of the file's bytes: ``csv.reader`` rows and ``float()``. A
    row with the wrong field count comes first; then the lowest row, and within it the
    leftmost column read, as the ``read_columns`` docstring states.
    """
    keys, rows = data_rows(data)
    for number, row in enumerate(rows, 1):
        if len(row) != len(keys):
            return number, f"expected {len(keys)} fields, got {len(row)}"
    for number, row in enumerate(rows, 1):
        for key, field in zip(keys, row):
            message = field_error(key, field) if key in reads else None
            if message:
                return number, message
    return None


def field_error(key, field):
    """The message for a bad ``field`` of column ``key``, or ``None``; an id may hold anything."""
    if key in ("label", "decision"):
        return None if field.strip().lower() in (GENUINE, IMPOSTER) else f"unknown {key} {field!r}"
    if key not in ("score", "pic", "confidence"):
        return None
    try:
        value = float(field)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        return f"invalid {key} value {field.strip()!r}"
    if key != "score" and not 0.0 <= value <= 1.0:
        return f"{key} must be in [0, 1], got {value!r}"
    return None


def first_bad_group(data):
    """``(row, message)`` of ``fuse``'s first row with a blank id or a mixed label, or ``None``."""
    keys, rows = data_rows(data)
    labels = {}
    for number, row in enumerate(rows, 1):
        fields = dict(zip(keys, row))
        pair = (fields["probe_id"].strip(), fields["subject_b"].strip())
        label = is_genuine_text(fields["label"])
        if "" in pair:
            return number, "probe_id and subject_b are required for fusion"
        if labels.setdefault(pair, label) != label:
            return number, f"group ({pair[0]}, {pair[1]}) mixes genuine and imposter labels"
    return None


def corrupted(data, row, column, how, value):
    """``data`` with data row ``row`` (0-based, modulo the count) changed at field ``column``
    (modulo the width): replaced by ``value``, ``value`` inserted before it, or it dropped.

    No field of these renderings holds a line end, so each line is one row; the row is
    written again with the ``csv`` module's quoting and keeps its line end.
    """
    lines = data.split(b"\n")
    rows = [i for i, line in enumerate(lines) if line.strip(b"\r")][1:]  # after the header
    i = rows[row % len(rows)]
    end = "\r" if lines[i].endswith(b"\r") else ""
    fields = next(csv.reader([lines[i].decode().rstrip("\r")]))
    j = column % len(fields)
    if how == "replace":
        fields[j] = value
    elif how == "insert":
        fields.insert(j, value)
    else:
        del fields[j]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=end).writerow(fields)
    lines[i] = buffer.getvalue().encode()
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def renderings(tmp_path_factory, model_path):
    """Each drawn rendering's ``(scores, scored)`` bytes, made once.

    ``awkward`` is ``TestEvalAndCurveAgainstRowReference``'s (CRLF, quoted ids, padded
    labels, blank lines: the text route); ``awkward-lf`` the same with ``\\n`` line ends
    (numpy reads the path); ``plain`` and ``bom-upper-header`` a synthetic file as it is
    saved and with a byte-order mark and an upper-case header (the plain route).
    """
    made = {}
    for name, render in [("awkward", crlf_with_blank_lines),
                         ("awkward-lf", lambda data: data.replace(b"\r\n", b"\n")),
                         ("plain", bytes), ("bom-upper-header", bom_and_upper_header)]:
        root = tmp_path_factory.mktemp(name)
        raw = root / "raw.csv"
        if name.startswith("awkward"):
            awkward_csv(raw)
        else:
            save_scores(generate(SynthConfig(n_genuine=30, n_imposter=30, n_subjects=6,
                                             refs_per_probe=2, seed=8)), raw)
        scores, scored = root / "scores.csv", root / "scored.csv"
        scores.write_bytes(render(raw.read_bytes()))
        assert run("score", model_path, scores, scored, "--fmr", "0.05") == 0
        made[name] = (scores.read_bytes(), render(scored.read_bytes()))
    return made


class TestDrawnInvalidInput:
    """One corrupted field, or a row with one field more or fewer, in a drawn rendering.

    Each command that reads the file exits 2 naming the row and message an independent
    scan finds first, if the fault is in a column it reads or is a field count; otherwise
    it exits 0. ``score``, ``fuse`` and ``eval --estimator dtc`` read the score file;
    ``eval`` (pic) and ``curve`` read ``score``'s output.
    """

    # command -> (the file it reads, the columns it reads, its argv with INPUT for that file)
    COMMANDS = {
        "score": ("scores", {"score"}, ["score", "{model}", "INPUT", "{dir}/s.csv"]),
        "fuse": ("scores", {"score", "label", "probe_id", "subject_b"},
                 ["fuse", "{model}", "INPUT", "{dir}/f.csv", "--fmr", "0.05"]),
        "eval-dtc": ("scores", {"score", "label"},
                     ["eval", "INPUT", "{dir}/d", "--estimator", "dtc", "--fmr", "0.05",
                      "--train", "{dir}/train.csv"]),
        "eval-pic": ("scored", {"label", "pic", "decision", "confidence"},
                     ["eval", "INPUT", "{dir}/p", "--fmr", "0.05"]),
        "curve": ("scored", {"score", "decision", "confidence"},
                  ["curve", "INPUT", "{model}", "{dir}/c.csv"]),
    }
    VALUES = st.one_of(
        st.sampled_from(["nan", " NaN ", "-nan", "inf", "-Infinity"]),
        # non-numbers, some quoted, padded, wider than any label or beyond ASCII
        st.text(alphabet='abxz _-.,"\u00e9\t\u3000\u00ff\x85', max_size=9),
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda value: not 0.0 <= value <= 1.0).map(repr),
        st.sampled_from(["maybe", "genuin", " Imposters", "GENUINE!", "yes"]),
    )

    @given(name=st.sampled_from(["awkward", "awkward-lf", "plain", "bom-upper-header"]),
           target=st.sampled_from(["scores", "scored"]), row=st.integers(0, 10**6),
           column=st.integers(0, 10**6), how=st.sampled_from(["replace", "insert", "drop"]),
           value=VALUES, through=st.sampled_from(["file", "pipe"]))
    @settings(max_examples=60, deadline=None)
    def test_exit_row_and_message(self, renderings, model_path, name, target, row, column, how,
                                  value, through):
        scores, scored = renderings[name]
        data = corrupted({"scores": scores, "scored": scored}[target], row, column, how, value)
        with tempfile.TemporaryDirectory() as root:
            source = Path(root, "in.csv")
            source.write_bytes(data)
            Path(root, "train.csv").write_bytes(scores)
            for command, (read_file, reads, argv) in self.COMMANDS.items():
                if read_file != target:
                    continue
                want = first_bad_row(data, reads)
                if want is None and command == "fuse":
                    want = first_bad_group(data)
                argv = [arg.format(model=model_path, dir=root) for arg in argv]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run_with_input(source, through, argv)
                if want is None:
                    assert code == 0 and "error:" not in err.getvalue(), (command, err.getvalue())
                else:
                    assert code == 2, command
                    assert err.getvalue().endswith(f"error: row {want[0]}: {want[1]}\n"), (
                        command, err.getvalue())


def run_with_input(path, through, argv):
    """``cli.main`` with ``INPUT`` in ``argv`` the file ``path`` or a pipe of its bytes."""
    if through == "pipe":
        return through_pipe(path.read_bytes(), lambda fd: run(
            *(fd if arg == "INPUT" else arg for arg in argv)))
    return run(*(path if arg == "INPUT" else arg for arg in argv))


class TestFieldCount:
    ROWS = "score,label,probe_id,subject_b\n0.9,genuine,p1,s1\n"

    @pytest.mark.parametrize("bad_row, got", [("0.9,genuine,p,1,s1", 5), ("0.9,genuine,p1", 3)])
    def test_score(self, tmp_path, model_path, capsys, bad_row, got):
        bad = tmp_path / "bad.csv"
        bad.write_text(self.ROWS + bad_row + "\n")
        out = tmp_path / "s.csv"
        assert run("score", model_path, bad, out) == 2
        assert f"row 2: expected 4 fields, got {got}" in capsys.readouterr().err
        assert not out.exists()

    def test_fuse(self, tmp_path, model_path, capsys):
        # an unquoted comma in an id shifts every later column
        bad = tmp_path / "bad.csv"
        bad.write_text(self.ROWS + "\n0.8,genuine,p1,s1\n0.9,genuine,p,1,s1\n")
        assert run("fuse", model_path, bad, tmp_path / "f.csv") == 2
        assert "row 3: expected 4 fields, got 5" in capsys.readouterr().err

    def test_load_scores(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("score,label,subject_a,subject_b\n0.9,genuine,S1,S1\n0.9,genuine,S1,S1,S1\n")
        with pytest.raises(ValueError, match=r"row 2: expected 4 fields, got 5"):
            load_scores(bad)


class TestCarriageReturn:
    def test_score_then_eval_keeps_a_quoted_cr(self, tmp_path, model_path):
        source = tmp_path / "in.csv"
        source.write_bytes(b'score,label,probe_id\n0.9,genuine,"a\rb"\n0.1,imposter,c\n')
        scored = tmp_path / "s.csv"
        assert run("score", model_path, source, scored) == 0
        assert run("eval", scored, tmp_path / "r") == 0
        with open(scored, newline="") as handle:
            assert [row["probe_id"] for row in csv.DictReader(handle)] == ["a\rb", "c"]


class TestHeaderOnly:
    @pytest.mark.parametrize("text", ["score,label\n", "score,label\n\n\r\n"])
    def test_no_records_and_nothing_else(self, tmp_path, child_env, text):
        source = tmp_path / "in.csv"
        source.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "picscore", "eval", str(source),
                               str(tmp_path / "r")], capture_output=True, text=True, env=child_env)
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {source}: no records\n")


class TestHeaderNames:
    def test_score_matches_any_case_and_keeps_header(self, tmp_path, model_path):
        source = tmp_path / "in.csv"
        source.write_text(" Score ,Label,Note\n0.9,GENUINE,a\n0.1,Imposter,b\n")
        out = tmp_path / "s.csv"
        assert run("score", model_path, source, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == " Score ,Label,Note,pic,decision,confidence"
        assert [line.split(",")[4] for line in lines[1:]] == [GENUINE, IMPOSTER]

    def test_fuse_matches_any_case(self, tmp_path, model_path):
        source = tmp_path / "in.csv"
        source.write_text("SCORE,Label,Probe_ID,Subject_B\n0.9,genuine,p1,s1\n0.8,genuine,p1,s1\n")
        out = tmp_path / "f.csv"
        assert run("fuse", model_path, source, out) == 0
        assert out.read_text().splitlines()[1].startswith("p1,s1,genuine,2,")

    @pytest.mark.parametrize("route", ["plain", "quoted", "pipe"])
    def test_train_reads_a_byte_order_mark_like_none(self, tmp_path, route):
        source = tmp_path / "in.csv"
        save_scores(generate(SynthConfig(n_genuine=300, n_imposter=300, seed=8)), source)
        text = source.read_bytes()
        if route == "quoted":  # numpy reads the file from its path, after a quoted first name
            text = b'"score"' + text[len(b"score"):]
        models = []
        for data in (b"\xef\xbb\xbf" + text, text):
            source.write_bytes(data)
            out = tmp_path / f"model{len(models)}.json"
            if route == "pipe":
                assert through_pipe(data, lambda fd: run("train", fd, out)) == 0
            else:
                assert run("train", source, out) == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_appended_column_in_any_case_is_rejected(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,PIC\n0.9,0.5\n")
        assert run("score", model_path, source, tmp_path / "s.csv") == 2
        assert "column 'pic' already present" in capsys.readouterr().err


class TestMessages:
    """Row errors the CLI reports; the lowest bad row is the one named."""

    def fails_with(self, capsys, message, *args):
        assert run(*args) == 2
        assert message in capsys.readouterr().err

    def test_fuse_mixed_group(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,probe_id,subject_b\n"
                          "0.9,genuine,p1,s1\n0.2,imposter,p2,s2\n0.1,imposter,p1,s1\n")
        self.fails_with(capsys, "row 3: group (p1, s1) mixes genuine and imposter labels",
                        "fuse", model_path, source, tmp_path / "f.csv")

    def test_fuse_without_a_probe_column(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,subject_b\n0.9,genuine,s1\n0.2,imposter,s2\n")
        self.fails_with(capsys, "row 1: probe_id and subject_b are required for fusion",
                        "fuse", model_path, source, tmp_path / "f.csv")

    def test_fuse_names_a_bad_score_before_a_lower_blank_probe(self, tmp_path, model_path,
                                                                capsys):
        """Field errors come first, as ``load_scores`` finds them; then the grouping's."""
        source = tmp_path / "in.csv"
        source.write_text("score,label,probe_id,subject_b\n0.9,genuine,,s1\nnan,genuine,p1,s1\n")
        self.fails_with(capsys, "row 2: invalid score value 'nan'",
                        "fuse", model_path, source, tmp_path / "f.csv")

    def test_eval_baseline_on_fused_input(self, tmp_path, capsys):
        source = tmp_path / "fused.csv"
        source.write_text("probe_id,claimed_id,label,n_used,pic,decision,confidence\n"
                          "p1,s1,genuine,1,0.9,genuine,0.9\n")
        self.fails_with(capsys, f"error: {source}: estimator 'dtc' needs raw scores "
                        "(fused input supports the pic estimator only)\n",
                        "eval", source, tmp_path / "r", "--estimator", "dtc", "--train", source)

    @pytest.mark.parametrize("argv, column, value", [
        (["eval", "in.csv", "r"], "pic", "-0.5"),
        (["eval", "in.csv", "r"], "confidence", "1e308"),
        (["curve", "in.csv", "model.json", "c.csv"], "confidence", "1e308"),
    ], ids=["eval-pic", "eval-confidence", "curve-confidence"])
    def test_probability_out_of_range(self, tmp_path, model_path, capsys, monkeypatch, argv,
                                      column, value):
        fields = {"score": "0.2", "label": "imposter", "pic": "0.1", "decision": "imposter",
                  "confidence": "0.9"}
        bad = {**fields, column: value}
        (tmp_path / "in.csv").write_text(",".join(fields) + "\n" + ",".join(fields.values())
                                         + "\n" + ",".join(bad.values()) + "\n")
        (tmp_path / "model.json").write_bytes(model_path.read_bytes())
        monkeypatch.chdir(tmp_path)
        self.fails_with(capsys, f"row 2: {column} must be in [0, 1], got {float(value)!r}",
                        *argv)

    def test_fuse_empty_probe(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,probe_id,subject_b\n0.9,genuine,p1,s1\n0.9,genuine, ,s1\n")
        self.fails_with(capsys, "row 2: probe_id and subject_b are required for fusion",
                        "fuse", model_path, source, tmp_path / "f.csv")

    def test_score_column_already_present(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,pic\n0.9,genuine,0.5\n")
        self.fails_with(capsys, "column 'pic' already present",
                        "score", model_path, source, tmp_path / "s.csv")

    @pytest.mark.parametrize("score, pic, message", [
        ("abc", "0.5", "row 1: invalid score value 'abc'"),
        ("0.9", "abc", "column 'pic' already present"),
    ])
    def test_score_names_field_errors_before_an_appended_column(self, tmp_path, model_path,
                                                                capsys, score, pic, message):
        """``score`` parses only the score; a column it would append fails after it."""
        source = tmp_path / "in.csv"
        source.write_text(f"score,label,pic\n{score},genuine,{pic}\n")
        self.fails_with(capsys, message, "score", model_path, source, tmp_path / "s.csv")

    @pytest.mark.parametrize("label, decision, message", [
        ("bogus", "genuine", "row 2: unknown label 'bogus'"),
        ("genuine", "maybe", "row 2: unknown decision 'maybe'"),
    ])
    def test_eval_unknown_values(self, tmp_path, capsys, label, decision, message):
        source = tmp_path / "in.csv"
        source.write_text("label,pic,decision,confidence\n"
                          f"genuine,0.9,genuine,0.9\n{label},0.8,{decision},0.8\n")
        self.fails_with(capsys, message, "eval", source, tmp_path / "r")

    @pytest.mark.parametrize("rows, argv, message", [
        (["genuine,0.9,genuine,0.9", "imposter,0.8,genuine,0.8"], ["--decisions", "imposter"],
         "no rows with decision 'imposter' to evaluate"),
        (["genuine,0.9,genuine,0.9", "genuine,0.2,imposter,0.8"], [],
         "need both genuine and imposter rows for verification"),
    ], ids=["no-imposter-decisions", "one-class"])
    def test_eval_rows_it_cannot_evaluate(self, tmp_path, capsys, rows, argv, message):
        source = tmp_path / "in.csv"
        source.write_text("label,pic,decision,confidence\n" + "\n".join(rows) + "\n")
        self.fails_with(capsys, message, "eval", source, tmp_path / "r", *argv)
        assert list(tmp_path.iterdir()) == [source]  # no report

    def test_curve_names_the_leftmost_bad_field_of_a_row(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,decision,confidence\n0.9,genuine,0.9\nnan,no,0.8\n")
        self.fails_with(capsys, "row 2: invalid score value 'nan'",
                        "curve", source, model_path, tmp_path / "c.csv")

    def test_curve_unknown_decision(self, tmp_path, model_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,decision,confidence\n0.9,genuine,0.9\n0.2,no,0.8\n")
        self.fails_with(capsys, "row 2: unknown decision 'no'",
                        "curve", source, model_path, tmp_path / "c.csv")

    @pytest.mark.parametrize("rows, message", [
        (["0.9,bogus,p1,s1", "nan,genuine,p2,s2"], "row 2: unknown label 'bogus'"),
        (["nan,genuine,p1,s1", "0.9,bogus,p2,s2"], "row 2: invalid score value 'nan'"),
        (["0.9,imposter,p0,s0", "0.9,genuine,,s2"], "row 2: group (p0, s0) mixes"),
        (["0.9,genuine,,s2", "0.9,imposter,p0,s0"], "row 2: probe_id and subject_b are"),
    ])
    def test_fuse_names_lower_row(self, tmp_path, model_path, capsys, rows, message):
        source = tmp_path / "in.csv"
        source.write_text("score,label,probe_id,subject_b\n0.9,genuine,p0,s0\n"
                          + "\n".join(rows) + "\n")
        self.fails_with(capsys, message, "fuse", model_path, source, tmp_path / "f.csv")

    @pytest.mark.parametrize("rows, message", [
        (["genuine,0.9,genuine,x", "genuine,0.9,no,0.9"], "row 1: invalid confidence value 'x'"),
        (["genuine,0.9,no,0.9", "genuine,0.9,genuine,x"], "row 1: unknown decision 'no'"),
        (["genuine,y,genuine,0.9", "bogus,0.9,genuine,0.9"], "row 1: invalid pic value 'y'"),
        # Two bad fields on one row: the leftmost is named.
        (["genuine,0.9,genuine,0.9", "genuine,y,no,0.9"], "row 2: invalid pic value 'y'"),
        # In one column too, the lowest row is named, whatever its fault.
        (["genuine,-0.5,genuine,0.9", "genuine,y,genuine,0.9"],
         "row 1: pic must be in [0, 1], got -0.5"),
    ])
    def test_eval_names_lower_row(self, tmp_path, capsys, rows, message):
        source = tmp_path / "in.csv"
        source.write_text("label,pic,decision,confidence\n" + "\n".join(rows) + "\n")
        self.fails_with(capsys, message, "eval", source, tmp_path / "r")

    @pytest.mark.parametrize("rows, error", [
        # Every field error comes before the table's subject check, even on a higher row.
        pytest.param(["0.9,genuine,A,B", "nan,genuine,A,A"], "row 2: invalid score value 'nan'$",
                     id="rows0-1"),
        pytest.param(["abc,genuine,A,A", "0.9,genuine,A,B"], "row 1: ", id="rows1-1"),
        pytest.param(["0.9,genuine,A,A", "0.9,genuine,A,B", "0.1,bogus,A,B"],
                     "row 3: unknown label 'bogus'$", id="rows2-2"),
        # One row with two faults: the score error wins, as it would in a per-row check.
        pytest.param(["0.9,genuine,A,A", "nan,genuine,A,B"], "row 2: invalid score value 'nan'$",
                     id="rows3-2"),
    ])
    def test_load_scores_names_lower_row(self, tmp_path, rows, error):
        source = tmp_path / "in.csv"
        source.write_text("score,label,subject_a,subject_b\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"^{error}"):
            load_scores(source)
