import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from picscore.cli import main
from picscore.dataset import load_scores
from picscore.density import eval_density, load_model


def run_inprocess(*args):
    return main([str(a) for a in args])


def run_subprocess(env, *args):
    cmd = [sys.executable, "-m", "picscore", *[str(a) for a in args]]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "scores.csv"
    code = run_inprocess(
        "synth", path,
        "--n-genuine", 2000, "--n-imposter", 2000,
        "--n-subjects", 20, "--refs-per-probe", 5, "--seed", 3,
    )
    assert code == 0
    return path


@pytest.fixture()
def model_file(tmp_path, synth_csv):
    model_path = tmp_path / "model.json"
    assert run_inprocess("train", synth_csv, model_path) == 0
    return model_path


class TestSynthCommand:
    def test_writes_csv_and_manifest(self, synth_csv):
        loaded = load_scores(synth_csv)
        assert loaded.n_genuine == 2000
        assert loaded.n_imposter == 2000
        manifest = json.loads(Path(str(synth_csv) + ".manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["seed"] == 3

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_inprocess("synth", out, "--n-genuine", 100, "--n-imposter", 100,
                                 "--seed", 11) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_params_exit_2(self, tmp_path, child_env):
        proc = run_subprocess(child_env, "synth", tmp_path / "x.csv", "--n-genuine", 0)
        assert proc.returncode == 2


class TestSplitCommand:
    def test_disjoint_subjects(self, tmp_path, synth_csv):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        assert run_inprocess("split", synth_csv, "--out-train", train,
                             "--out-test", test, "--seed", 1) == 0
        train_set, test_set = load_scores(train), load_scores(test)
        train_subjects = set(train_set.subject_a)
        test_subjects = set(test_set.subject_a)
        assert train_subjects.isdisjoint(test_subjects)

    def test_drop_count_printed(self, tmp_path, synth_csv, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        run_inprocess("split", synth_csv, "--out-train", train, "--out-test", test)
        out = capsys.readouterr().out
        assert "dropped" in out

    def test_missing_subject_columns_exit_2(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("score,label\n0.9,genuine\n0.1,imposter\n")
        code = run_inprocess("split", bare, "--out-train", tmp_path / "a.csv",
                             "--out-test", tmp_path / "b.csv")
        assert code == 2

    def test_blank_subject_names_row(self, tmp_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,subject_a,subject_b\n0.9,genuine,A,A\n0.1,imposter,A, \n")
        code = run_inprocess("split", source, "--out-train", tmp_path / "a.csv",
                             "--out-test", tmp_path / "b.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2: subject_a and subject_b are required for splitting" in err

    def test_byte_identical_reruns(self, tmp_path, synth_csv):
        outs = []
        for tag in ("x", "y"):
            train = tmp_path / f"train_{tag}.csv"
            test = tmp_path / f"test_{tag}.csv"
            run_inprocess("split", synth_csv, "--out-train", train,
                          "--out-test", test, "--seed", 5)
            outs.append((train.read_bytes(), test.read_bytes()))
        assert outs[0] == outs[1]


class TestTrainCommand:
    def test_model_reloads_and_evaluates(self, model_file):
        model = load_model(model_file)
        xs = model.genuine.grid_points()
        for i in (0, 1000, 4095):
            assert eval_density(model.genuine, float(xs[i])) == model.genuine.grid_values[i]

    def test_prior_recorded_in_manifest(self, model_file):
        manifest = json.loads(Path(str(model_file) + ".manifest.json").read_text())
        assert manifest["parameters"]["prior"] == 0.5

    def test_bad_prior_exit_2(self, tmp_path, synth_csv, child_env):
        proc = run_subprocess(child_env, "train", synth_csv, tmp_path / "m.json", "--prior", "1.5")
        assert proc.returncode == 2

    def test_empty_class_exit_2(self, tmp_path):
        bad = tmp_path / "one_class.csv"
        bad.write_text("score,label\n0.9,genuine\n0.8,genuine\n")
        assert run_inprocess("train", bad, tmp_path / "m.json") == 2


class TestScoreCommand:
    def test_scored_output(self, tmp_path, synth_csv, model_file):
        out = tmp_path / "scored.csv"
        assert run_inprocess("score", model_file, synth_csv, out) == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        source = load_scores(synth_csv)
        assert len(rows) == len(source)
        values = np.array([float(r["pic"]) for r in rows])
        assert np.all((values >= 0) & (values <= 1))
        # hand-recompute one row from the model densities
        model = load_model(model_file)
        s = float(rows[17]["score"])
        g = eval_density(model.genuine, s)
        f = eval_density(model.imposter, s)
        assert values[17] == pytest.approx(g / (g + f), abs=1e-6)
        decision = rows[17]["decision"]
        expected_conf = values[17] if decision == "genuine" else 1 - values[17]
        assert float(rows[17]["confidence"]) == pytest.approx(expected_conf, abs=1e-6)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_row(self, tmp_path, model_file, capsys, raw):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"score,label\n0.9,genuine\n{raw},imposter\n")
        out = tmp_path / "s.csv"
        assert run_inprocess("score", model_file, bad, out) == 2
        assert f"row 2: invalid score value '{raw}'" in capsys.readouterr().err
        assert not out.exists()

    def test_model_version_guard(self, tmp_path, synth_csv, model_file):
        doc = json.loads(Path(model_file).read_text())
        doc["version"] = "42"
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        assert run_inprocess("score", bad, synth_csv, tmp_path / "s.csv") == 2


@pytest.fixture()
def scored_csv(tmp_path, synth_csv, model_file):
    out = tmp_path / "scored.csv"
    assert run_inprocess("score", model_file, synth_csv, out) == 0
    return out


class TestFuseCommand:
    def test_singleton_group_matches_score(self, tmp_path, synth_csv, model_file, scored_csv):
        fused = tmp_path / "fused.csv"
        assert run_inprocess("fuse", model_file, synth_csv, fused, "--max-refs", 1) == 0
        with open(fused, newline="") as handle:
            fused_rows = {(r["probe_id"], r["claimed_id"]): r for r in csv.DictReader(handle)}
        with open(scored_csv, newline="") as handle:
            first_scored = {}
            for r in csv.DictReader(handle):
                first_scored.setdefault((r["probe_id"], r["subject_b"]), r)
        assert fused_rows.keys() == first_scored.keys()
        for key, row in fused_rows.items():
            assert row["n_used"] == "1"
            assert row["pic"] == first_scored[key]["pic"]

    def test_max_refs_larger_than_group(self, tmp_path, synth_csv, model_file):
        fused = tmp_path / "fused.csv"
        assert run_inprocess("fuse", model_file, synth_csv, fused, "--max-refs", 9) == 0
        with open(fused, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["n_used"] for r in rows} == {"5"}  # groups hold 5 references

    def test_schema(self, tmp_path, synth_csv, model_file):
        fused = tmp_path / "fused.csv"
        run_inprocess("fuse", model_file, synth_csv, fused, "--max-refs", 2)
        header = fused.read_text().splitlines()[0]
        assert header == "probe_id,claimed_id,label,n_used,pic,decision,confidence"

    def test_non_finite_score_names_row(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "score,label,probe_id,subject_b\n"
            "0.9,genuine,p1,s1\n0.8,genuine,p1,s1\nnan,imposter,p1,s2\n"
        )
        assert run_inprocess("fuse", model_file, bad, tmp_path / "f.csv") == 2
        assert "row 3: invalid score value 'nan'" in capsys.readouterr().err

    def test_missing_ids_exit_2(self, tmp_path, model_file):
        bare = tmp_path / "bare.csv"
        bare.write_text("score,label\n0.9,genuine\n")
        assert run_inprocess("fuse", model_file, bare, tmp_path / "f.csv") == 2


class TestEvalCommand:
    def test_pic_report(self, tmp_path, synth_csv, scored_csv, capsys):
        prefix = tmp_path / "report"
        assert run_inprocess("eval", scored_csv, prefix) == 0
        cal = Path(f"{prefix}.calibration.csv")
        summary = Path(f"{prefix}.summary.csv")
        assert cal.exists() and summary.exists()
        assert cal.read_text().splitlines()[0] == (
            "bin_lo,bin_hi,count,p_true,p_pred_mean,p_pred_std"
        )
        rows = dict(
            line.split(",", 1) for line in summary.read_text().splitlines()[1:]
        )
        assert float(rows["mce"]) >= float(rows["ece"])

    def test_baseline_needs_train(self, tmp_path, scored_csv):
        assert run_inprocess("eval", scored_csv, tmp_path / "r", "--estimator", "dtc") == 2

    def test_dtc_worse_than_pic(self, tmp_path, synth_csv, scored_csv):
        pic_prefix = tmp_path / "pic_report"
        dtc_prefix = tmp_path / "dtc_report"
        assert run_inprocess("eval", scored_csv, pic_prefix) == 0
        assert run_inprocess("eval", scored_csv, dtc_prefix, "--estimator", "dtc",
                             "--train", synth_csv) == 0

        def ece_of(prefix):
            lines = Path(f"{prefix}.summary.csv").read_text().splitlines()[1:]
            return float(dict(line.split(",", 1) for line in lines)["ece"])

        assert ece_of(pic_prefix) < ece_of(dtc_prefix)

    def test_lrc_needs_model(self, tmp_path, synth_csv, scored_csv):
        code = run_inprocess("eval", scored_csv, tmp_path / "r", "--estimator", "lrc",
                             "--train", synth_csv)
        assert code == 2

    def test_fused_input(self, tmp_path, synth_csv, model_file):
        import warnings

        fused = tmp_path / "fused.csv"
        run_inprocess("fuse", model_file, synth_csv, fused, "--max-refs", 5)
        with warnings.catch_warnings():
            # only 400 fused imposter groups here, so FMR 1e-3 is unreachable
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_inprocess("eval", fused, tmp_path / "fr") == 0
        # baselines cannot run on fused rows (no raw score column)
        assert run_inprocess("eval", fused, tmp_path / "fr2", "--estimator", "dtc",
                             "--train", synth_csv) == 2

    def test_tied_imposters_warn_in_one_line(self, tmp_path, child_env):
        fused = tmp_path / "fused.csv"
        fused.write_text(
            "probe_id,claimed_id,label,n_used,pic,decision,confidence\n"
            "p1,s1,genuine,1,0.900000,genuine,0.900000\n"
            "p2,s2,genuine,1,0.800000,genuine,0.800000\n"
            + "p3,s1,imposter,1,0.000000,imposter,1.000000\n" * 4
        )
        proc = run_subprocess(child_env, "eval", fused, tmp_path / "r", "--fmr", "0.5")
        assert proc.returncode == 0
        assert proc.stderr == (
            "warning: target FMR 0.5 unreachable due to tied scores; returning a "
            "threshold above the maximum imposter score (FMR 0)\n"
        )
        assert ".py:" not in proc.stderr

    def test_decision_filter(self, tmp_path, scored_csv):
        assert run_inprocess("eval", scored_csv, tmp_path / "g", "--decisions", "genuine") == 0


class TestCurveCommand:
    def test_schema_and_default_bins(self, tmp_path, scored_csv, model_file):
        out = tmp_path / "curve.csv"
        assert run_inprocess("curve", scored_csv, model_file, out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_center,pred_mean,pred_std,count"
        assert len(lines) == 31  # header + 30 bins

    def test_identity_predictor_near_bisectrix(self, tmp_path, scored_csv, model_file):
        # scoring model doubles as the evaluation model, so predicted
        # confidence equals the folded posterior used as ground truth
        out = tmp_path / "curve.csv"
        run_inprocess("curve", scored_csv, model_file, out)
        with open(out, newline="") as handle:
            for row in csv.DictReader(handle):
                if int(row["count"]) >= 5:
                    # formatting rounds to 1e-6; allow half a bin plus that
                    assert abs(float(row["pred_mean"]) - float(row["bin_center"])) <= 0.5 / 30 + 1e-5

    def test_missing_file_exit_2(self, tmp_path, model_file):
        assert run_inprocess("curve", tmp_path / "nope.csv", model_file,
                             tmp_path / "c.csv") == 2


class TestExitCodes:
    def test_unknown_command(self, child_env):
        proc = run_subprocess(child_env, "frobnicate")
        assert proc.returncode == 2

    def test_version_flag(self, child_env):
        proc = run_subprocess(child_env, "--version")
        assert proc.returncode == 0
        assert "picscore" in proc.stdout
