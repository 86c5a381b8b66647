"""The column-based CLI commands against per-row reference implementations.

``reference_score`` and ``reference_fuse`` are the earlier row-by-row
commands (``csv.DictReader`` rows, one density lookup per fusion group),
kept here as the reference the column code must match byte for byte.
"""

import csv
import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picscore import cli
from picscore.cli import main
from picscore.dataset import GENUINE, IMPOSTER, IdColumn, ScoreTable, load_scores, save_scores
from picscore.density import fit_model, load_model, save_model
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


def reference_groups(probes, claimed, max_refs):
    """``fuse``'s earlier grouping: ``np.unique`` of the pair keys, then two argsorts."""
    pairs = probes.codes.astype(np.int64) * claimed.values.size + claimed.codes
    _, first_rows, groups = np.unique(pairs, return_index=True, return_inverse=True)
    groups = np.argsort(np.argsort(first_rows))[groups]
    order = np.argsort(groups, kind="stable")  # file order within each group
    sizes = np.bincount(groups)
    starts = np.cumsum(sizes) - sizes
    rank = np.arange(groups.size) - np.repeat(starts, sizes)
    return order[starts], sizes, order[rank < max_refs]


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

    def test_truncates_interleaved_groups(self):
        probes = IdColumn(np.array([1, 0, 1, 1, 0, 1, 0]), np.array(["p", "q"], dtype=object))
        claimed = IdColumn(np.array([0, 0, 0, 1, 0, 0, 0]), np.array(["s", "t"], dtype=object))
        first, sizes, kept = grouped(probes, claimed, 2)
        assert first.tolist() == [0, 1, 3]
        assert sizes.tolist() == [3, 3, 1]
        assert kept.tolist() == [0, 2, 1, 4, 3]


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
                        "eval", source, tmp_path / "r", "--estimator", "dtc")

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
