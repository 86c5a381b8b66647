"""The column-based CLI commands against per-row reference implementations.

``reference_score`` and ``reference_fuse`` are the earlier row-by-row
commands (``csv.DictReader`` rows, one density lookup per fusion group),
kept here as the reference the column code must match byte for byte.
"""

import csv
import io
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from picscore.cli import main
from picscore.dataset import GENUINE, IMPOSTER, load_scores
from picscore.density import fit_model, load_model, save_model
from picscore.pic import log_likelihood_ratio, pic_threshold_for_fmr, pic_values
from picscore.synth import SynthConfig, generate

HEADER = ["score", "label", "probe_id", "reference_id", "subject_a", "subject_b"]


def run(*args):
    return main([str(a) for a in args])


def reference_score(model_path, input_path, out_path, fmr):
    model = load_model(model_path)
    with open(input_path, newline="") as handle:
        reader = csv.DictReader(handle)
        fields = list(reader.fieldnames)
        rows = list(reader)
    values = pic_values(model, np.array([float(row["score"]) for row in rows]))
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

    @pytest.mark.parametrize("max_refs", [1, 3, 5, 9])
    def test_fuse_bytes(self, tmp_path, model_path, max_refs):
        source = awkward_csv(tmp_path / "in.csv")
        assert run("fuse", model_path, source, tmp_path / "new.csv",
                   "--max-refs", max_refs, "--fmr", "0.05") == 0
        reference_fuse(model_path, source, tmp_path / "ref.csv", max_refs, 0.05)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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

    @pytest.mark.parametrize("label, decision, message", [
        ("bogus", "genuine", "row 2: unknown label 'bogus'"),
        ("genuine", "maybe", "row 2: unknown decision 'maybe'"),
    ])
    def test_eval_unknown_values(self, tmp_path, capsys, label, decision, message):
        source = tmp_path / "in.csv"
        source.write_text("label,pic,decision,confidence\n"
                          f"genuine,0.9,genuine,0.9\n{label},0.8,{decision},0.8\n")
        self.fails_with(capsys, message, "eval", source, tmp_path / "r")

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
    ])
    def test_eval_names_lower_row(self, tmp_path, capsys, rows, message):
        source = tmp_path / "in.csv"
        source.write_text("label,pic,decision,confidence\n" + "\n".join(rows) + "\n")
        self.fails_with(capsys, message, "eval", source, tmp_path / "r")

    @pytest.mark.parametrize("rows, error", [
        pytest.param(["0.9,genuine,A,B", "nan,genuine,A,A"], "row 1: ", id="rows0-1"),
        pytest.param(["abc,genuine,A,A", "0.9,genuine,A,B"], "row 1: ", id="rows1-1"),
        pytest.param(["0.9,genuine,A,A", "0.9,genuine,A,B", "0.1,bogus,A,B"], "row 2: ",
                     id="rows2-2"),
        # One row with two faults: the score error wins, as it would in a per-row check.
        pytest.param(["0.9,genuine,A,A", "nan,genuine,A,B"], "row 2: invalid score value 'nan'$",
                     id="rows3-2"),
    ])
    def test_load_scores_names_lower_row(self, tmp_path, rows, error):
        source = tmp_path / "in.csv"
        source.write_text("score,label,subject_a,subject_b\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"^{error}"):
            load_scores(source)
