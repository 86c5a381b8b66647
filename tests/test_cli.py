import csv
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from picscore import dataset
from picscore.cli import main
from picscore.dataset import GENUINE, IMPOSTER, load_scores
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

    @pytest.mark.parametrize("option, value", [("--genuine-std", "nan"),
                                               ("--imposter-mean", "inf")])
    def test_non_finite_param_names_it(self, tmp_path, capsys, option, value):
        out = tmp_path / "x.csv"
        assert run_inprocess("synth", out, option, value) == 2
        name = option[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not out.exists()


class TestSplitCommand:
    def test_disjoint_subjects(self, tmp_path, synth_csv):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        assert run_inprocess("split", synth_csv, "--out-train", train,
                             "--out-test", test, "--seed", 1) == 0
        train_set, test_set = load_scores(train), load_scores(test)
        train_subjects = set(train_set.subject_a.values[train_set.subject_a.codes])
        test_subjects = set(test_set.subject_a.values[test_set.subject_a.codes])
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

    def test_imposters_between_two_subjects_cannot_split(self, tmp_path, capsys):
        source = tmp_path / "in.csv"
        source.write_text("score,label,subject_a,subject_b\n0.1,imposter,A,B\n0.2,imposter,B,A\n")
        code = run_inprocess("split", source, "--out-train", tmp_path / "a.csv",
                             "--out-test", tmp_path / "b.csv")
        assert code == 2
        assert "cannot split: one side would be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [source]

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_one_file_for_both_sides_fails_before_any_write(self, tmp_path, synth_csv, capsys,
                                                            link):
        train = tmp_path / "x.csv"
        test = tmp_path / "y.csv" if link else train
        if link:
            test.symlink_to(train)
        before = sorted(tmp_path.iterdir())
        code = run_inprocess("split", synth_csv, "--out-train", train, "--out-test", test)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --out-train {train} and --out-test {test} are the same file\n")
        assert sorted(tmp_path.iterdir()) == before

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

    @pytest.mark.parametrize(("bandwidth", "message"), [
        ("inf", "bandwidth must be finite and positive, got inf"),
        ("1e308", "grid_min must be finite, got -inf"),
        ("1e-320", "bandwidth 1e-320 is too small"),
    ], ids=["inf", "1e308", "1e-320"])
    def test_bandwidth_that_cannot_be_saved_exit_2(self, tmp_path, synth_csv, capsys,
                                                    bandwidth, message):
        out = tmp_path / "m.json"
        assert run_inprocess("train", synth_csv, out, "--bandwidth", bandwidth) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "warning" not in err
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    @pytest.mark.parametrize("bandwidth", ["1e-300", "1e-200"])
    def test_tiny_bandwidth_trains_a_model_that_loads(self, tmp_path, synth_csv, capsys,
                                                       bandwidth):
        out = tmp_path / "m.json"
        assert run_inprocess("train", synth_csv, out, "--bandwidth", bandwidth) == 0
        # The grid step warning only: no overflow or other warning.
        err = capsys.readouterr().err
        assert err.startswith("warning: grid step ") and err.count("\n") == 1
        assert f"exceeds the bandwidth {float(bandwidth):.6g}," in err
        assert load_model(out).genuine.bandwidth == float(bandwidth)

    @pytest.mark.parametrize("outlier", [False, True], ids=["as-split", "with-1e308"])
    def test_grid_step_above_the_bandwidth_warns(self, tmp_path, capsys, outlier):
        """One training score of 1e308 stretches the grid to 4,096 points up to 1e308,
        whose step dwarfs ``--bandwidth 0.05``: the kernels fall between grid points,
        and ``eval`` of that model's scores would report FNMR 1. ``train`` still writes
        the model and exits 0, with one warning line."""
        scores, train = tmp_path / "scores.csv", tmp_path / "train.csv"
        assert run_inprocess("synth", scores, "--n-genuine", 5000, "--n-imposter", 5000,
                             "--seed", 3) == 0
        assert run_inprocess("split", scores, "--out-train", train,
                             "--out-test", tmp_path / "test.csv", "--seed", 3) == 0
        if outlier:
            with open(train, "a") as handle:
                handle.write("1e308,imposter,,,,\n")
        capsys.readouterr()
        assert run_inprocess("train", train, tmp_path / "m.json", "--bandwidth", 0.05) == 0
        out, err = capsys.readouterr()
        if not outlier:
            assert err == ""
            return
        assert "grid: [-0.359711, 1e+308] at 4096 points" in out
        assert err == ("warning: grid step 2.442e+304 exceeds the bandwidth 0.05, so a lookup "
                       "between grid points can miss the density; raise --resolution or remove "
                       "outlying training scores\n")

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

    @pytest.mark.parametrize("command", ["score", "fuse", "eval-lrc", "curve"])
    def test_model_whose_grid_span_overflows_exit_2(self, tmp_path, synth_csv, model_file,
                                                    capsys, command):
        doc = json.loads(Path(model_file).read_text())
        for name in ("genuine", "imposter"):
            doc[name]["grid_min"], doc[name]["grid_max"] = -1e308, 1e308  # finite bounds
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        out, before = tmp_path / "out.csv", set(tmp_path.iterdir())
        args = {"score": ("score", bad, synth_csv, out), "fuse": ("fuse", bad, synth_csv, out),
                "eval-lrc": ("eval", synth_csv, out, "--estimator", "lrc",
                             "--train", synth_csv, "--model", bad),
                "curve": ("curve", synth_csv, bad, out)}[command]
        assert run_inprocess(*args) == 2
        assert ("genuine.grid_min must be below genuine.grid_max with a finite span, "
                "got (-1e+308, 1e+308)") in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # nothing written


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

    @pytest.mark.parametrize("estimator, options, message", [
        ("dtc", [], "--train is required for estimator 'dtc'"),
        ("erbc", [], "--train is required for estimator 'erbc'"),
        ("lrc", ["--train", "missing-train.csv"], "--model is required for estimator 'lrc'"),
    ])
    def test_missing_option_is_named_before_any_file_is_read(self, tmp_path, capsys, estimator,
                                                             options, message):
        code = run_inprocess("eval", tmp_path / "missing.csv", tmp_path / "r",
                             "--estimator", estimator, *options)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

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

    def test_summary_writes_the_exact_threshold_and_the_decisions_errors(self, tmp_path,
                                                                          capsys):
        """Every imposter's ``pic`` is 0, so the threshold is the float just above it, which
        stdout prints as the summary writes it; one genuine row was decided imposter, an
        error the value column's FNMR of 0 does not show."""
        fused = tmp_path / "fused.csv"
        fused.write_text(
            "probe_id,claimed_id,label,n_used,pic,decision,confidence\n"
            "p1,s1,genuine,1,0.900000,genuine,0.900000\n"
            "p2,s2,genuine,1,0.400000,imposter,0.600000\n"
            + "p3,s1,imposter,1,0.000000,imposter,1.000000\n" * 4
        )
        assert run_inprocess("eval", fused, tmp_path / "r", "--fmr", "0.5") == 0
        rows = dict(line.split(",", 1)
                    for line in Path(f"{tmp_path / 'r'}.summary.csv").read_text().splitlines())
        assert rows["threshold"] == "5e-324" and float(rows["threshold"]) == np.nextafter(0, 1)
        assert "(target 0.5, threshold 5e-324)\n" in capsys.readouterr().out
        assert (rows["fmr"], rows["fnmr"]) == ("0.000000", "0.000000")
        decisions = [rows[f"decision_{key}"]
                     for key in ("false_matches", "false_non_matches", "fmr", "fnmr")]
        assert decisions == ["0", "1", "0.000000", "0.500000"]

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


SYNTH_OPTIONS = {
    "genuine_mean": 0.65, "genuine_std": 0.12, "imposter_mean": 0.25, "imposter_std": 0.09,
    "n_genuine": 300, "n_imposter": 400, "n_subjects": 20, "refs_per_probe": 3, "seed": 7,
}
EVAL_OPTIONS = ("--fmr", 0.01, "--ece-bins", 7, "--decisions", "genuine")
EVAL_PARAMETERS = {"fmr": 0.01, "ece_bins": 7, "decisions": "genuine"}

# (argv, parameters, inputs, outputs): every command with non-default options,
# run in one directory; "" is an input left out.
MANIFEST_RUNS = {
    "synth": (
        ["synth", "s.csv",
         *(x for k, v in SYNTH_OPTIONS.items() for x in (f"--{k.replace('_', '-')}", v))],
        SYNTH_OPTIONS, {}, {"scores": "s.csv"},
    ),
    "split": (
        ["split", "s.csv", "--fraction", 0.6, "--seed", 5,
         "--out-train", "tr.csv", "--out-test", "te.csv"],
        {"fraction": 0.6, "seed": 5}, {"scores": "s.csv"}, {"train": "tr.csv", "test": "te.csv"},
    ),
    "train": (
        ["train", "tr.csv", "m.json", "--prior", 0.3, "--resolution", 2048, "--bandwidth", 0.02],
        {"prior": 0.3, "resolution": 2048, "bandwidth": 0.02},
        {"train": "tr.csv"}, {"model": "m.json"},
    ),
    "train-defaults": (
        ["train", "te.csv", "tm.json"],
        {"prior": 0.5, "resolution": 4096, "bandwidth": None},
        {"train": "te.csv"}, {"model": "tm.json"},
    ),
    "score": (
        ["score", "m.json", "te.csv", "sc.csv", "--fmr", 0.01],
        {"fmr": 0.01}, {"model": "m.json", "scores": "te.csv"}, {"scored": "sc.csv"},
    ),
    "fuse": (
        ["fuse", "m.json", "te.csv", "fu.csv", "--max-refs", 2, "--fmr", 0.02],
        {"max_refs": 2, "fmr": 0.02}, {"model": "m.json", "scores": "te.csv"}, {"fused": "fu.csv"},
    ),
    "eval-pic": (
        ["eval", "sc.csv", "pic", *EVAL_OPTIONS],
        {"estimator": "pic", **EVAL_PARAMETERS},
        {"scored": "sc.csv", "train": "", "model": ""},
        {"calibration": "pic.calibration.csv", "summary": "pic.summary.csv"},
    ),
    "eval-dtc": (
        ["eval", "sc.csv", "dtc", "--estimator", "dtc", "--train", "tr.csv", *EVAL_OPTIONS],
        {"estimator": "dtc", **EVAL_PARAMETERS},
        {"scored": "sc.csv", "train": "tr.csv", "model": ""},
        {"calibration": "dtc.calibration.csv", "summary": "dtc.summary.csv"},
    ),
    "eval-lrc": (
        ["eval", "sc.csv", "lrc", "--estimator", "lrc", "--train", "tr.csv", "--model", "m.json",
         *EVAL_OPTIONS],
        {"estimator": "lrc", **EVAL_PARAMETERS},
        {"scored": "sc.csv", "train": "tr.csv", "model": "m.json"},
        {"calibration": "lrc.calibration.csv", "summary": "lrc.summary.csv"},
    ),
    "curve": (
        ["curve", "sc.csv", "tm.json", "cu.csv", "--bins", 12],
        {"bins": 12}, {"scored": "sc.csv", "test_model": "tm.json"}, {"curve": "cu.csv"},
    ),
}


class TestManifests:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        """The directory after every run of ``MANIFEST_RUNS``, in order."""
        directory = tmp_path_factory.mktemp("manifests")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(directory)
            for argv, *_ in MANIFEST_RUNS.values():
                assert run_inprocess(*argv) == 0, argv
        return directory

    @pytest.mark.parametrize("argv, parameters, inputs, outputs", list(MANIFEST_RUNS.values()),
                             ids=list(MANIFEST_RUNS))
    def test_records_every_option_and_no_path(self, run_dir, argv, parameters, inputs, outputs):
        for output in outputs.values():
            manifest = json.loads((run_dir / f"{output}.manifest.json").read_text())
            assert manifest["command"] == argv[0]
            assert manifest["parameters"] == parameters
            assert manifest["inputs"] == inputs
            assert manifest["outputs"] == outputs


class TestWritePath:
    """Each output is written to a new file beside it, which then replaces it."""

    @pytest.fixture()
    def scored(self, tmp_path, synth_csv, model_file):
        """``out.csv`` scored from ``synth_csv``, and its bytes and its manifest's."""
        out = tmp_path / "out.csv"
        assert run_inprocess("score", model_file, synth_csv, out) == 0
        return out, out.read_bytes(), Path(f"{out}.manifest.json").read_bytes()

    def test_a_write_that_fails_keeps_the_earlier_file(self, tmp_path, synth_csv, model_file,
                                                       scored, monkeypatch, capsys):
        out, data, manifest = scored
        before = sorted(tmp_path.iterdir())
        write_lines, calls = dataset._write_lines, []

        def third_fails(*args):
            calls.append(None)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write_lines(*args)

        monkeypatch.setattr(dataset, "_CHUNK_ROWS", 50)
        monkeypatch.setattr(dataset, "_write_lines", third_fails)
        assert run_inprocess("score", model_file, synth_csv, out, "--fmr", "0.01") == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out.read_bytes(), Path(f"{out}.manifest.json").read_bytes()) == (data, manifest)
        assert sorted(tmp_path.iterdir()) == before

    def test_a_model_write_that_fails_keeps_the_earlier_model(self, tmp_path, synth_csv,
                                                              model_file, monkeypatch, capsys):
        data = model_file.read_bytes()
        manifest = Path(f"{model_file}.manifest.json").read_bytes()
        before = sorted(tmp_path.iterdir())

        def part_then_fail(doc, handle, **kwargs):
            handle.write(json.dumps(doc, **kwargs)[:100])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", part_then_fail)
        assert run_inprocess("train", synth_csv, model_file, "--resolution", 256) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert model_file.read_bytes() == data
        assert Path(f"{model_file}.manifest.json").read_bytes() == manifest
        assert sorted(tmp_path.iterdir()) == before

    def test_a_temporary_name_in_use_is_left_alone(self, tmp_path, synth_csv, model_file,
                                                   scored):
        """Names taken, as by files a killed process left, are skipped, not used or removed."""
        out, data, _ = scored
        out.write_bytes(b"old")
        taken = [tmp_path / f"out.csv.{os.getpid()}{n}.tmp" for n in ("", ".1")]
        for path in taken:
            path.write_bytes(b"not ours")
        before = sorted(tmp_path.iterdir())
        assert run_inprocess("score", model_file, synth_csv, out) == 0
        assert out.read_bytes() == data
        assert [path.read_bytes() for path in taken] == [b"not ours"] * 2
        assert sorted(tmp_path.iterdir()) == before

    def test_permission_bits_are_kept(self, tmp_path, synth_csv, model_file, scored):
        out, data, _ = scored
        os.chmod(out, 0o640)
        os.chmod(model_file, 0o604)
        assert run_inprocess("score", model_file, synth_csv, out) == 0
        assert run_inprocess("train", synth_csv, model_file) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640 and out.read_bytes() == data
        assert stat.S_IMODE(model_file.stat().st_mode) == 0o604

    def test_an_output_the_process_may_not_write_is_opened_in_place(
            self, tmp_path, synth_csv, model_file, scored, monkeypatch):
        """``open`` refuses such a file, where a rename would replace it; root may write it."""
        out, data, _ = scored
        inode = out.stat().st_ino
        monkeypatch.setattr(dataset.os, "access", lambda path, mode: False)
        assert run_inprocess("score", model_file, synth_csv, out) == 0
        assert out.stat().st_ino == inode and out.read_bytes() == data

    def test_a_fifo_is_written_in_place(self, tmp_path, synth_csv, model_file, scored):
        _, data, _ = scored
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_inprocess("score", model_file, synth_csv, fifo) == 0
        reader.join(timeout=60)
        assert got == [data]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
    def test_a_symlink_stays_a_symlink(self, tmp_path, synth_csv, model_file, scored, exists):
        _, data, _ = scored
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        if exists:
            target.write_bytes(b"earlier\n")
        link.symlink_to(target.name)
        assert run_inprocess("score", model_file, synth_csv, link) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == data
        assert not Path(f"{target}.manifest.json").exists()


class TestExitCodes:
    def test_unknown_command(self, child_env):
        proc = run_subprocess(child_env, "frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--fmr", "1", "expected a value in (0, 1), got 1"),
        ("--max-refs", "0", "expected a positive integer, got 0"),
    ])
    def test_option_out_of_range(self, capsys, option, value, message):
        with pytest.raises(SystemExit) as exited:
            main(["fuse", "model.json", "in.csv", "f.csv", option, value])
        assert exited.value.code == 2
        assert message in capsys.readouterr().err

    def test_version_flag(self, child_env):
        proc = run_subprocess(child_env, "--version")
        assert proc.returncode == 0
        assert "picscore" in proc.stdout


class TestStrictChild:
    """The bulk commands in a ``python -bb -X dev -W error`` child: a bytes/str comparison,
    an unclosed file or any other warning fails the command."""

    STRICT = ("-bb", "-X", "dev", "-W", "error")

    def strict(self, env, folder, *argv):
        return subprocess.run([sys.executable, *self.STRICT, "-m", "picscore", *map(str, argv)],
                              capture_output=True, text=True, encoding="utf-8", env=env,
                              cwd=folder)

    def test_score_fuse_eval_curve(self, tmp_path, synth_csv, model_file, child_env,
                                   monkeypatch):
        source = tmp_path / "in.csv"
        header, *rows = synth_csv.read_text().splitlines()
        # Labels in other cases and padded, so that the odd spellings are matched.
        rows[::3] = [row.replace(",genuine,", ", Genuine,").replace(",imposter,", ",IMPOSTER,")
                     for row in rows[::3]]
        # One score far beyond the model's and the baselines' grids, in the scored
        # rows only: it takes the confidence at a grid's end, with no warning.
        rows[1] = "1e300," + rows[1].split(",", 1)[1]
        source.write_text("\n".join([header, *rows]) + "\n")
        runs = [
            ("score", model_file, source, "scored.csv"),
            ("fuse", model_file, source, "fused.csv", "--max-refs", 3),
            ("eval", "scored.csv", "report"),
            ("eval", "scored.csv", "dtc", "--estimator", "dtc", "--train", synth_csv),
            ("eval", "scored.csv", "erbc", "--estimator", "erbc", "--train", synth_csv),
            ("eval", "scored.csv", "lrc", "--estimator", "lrc", "--train", synth_csv,
             "--model", model_file),
            ("curve", "scored.csv", model_file, "curve.csv"),
        ]
        for folder in ("strict", "plain"):
            (tmp_path / folder).mkdir()
        for argv in runs:
            proc = self.strict(child_env, tmp_path / "strict", *argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        monkeypatch.chdir(tmp_path / "plain")
        for argv in runs:
            assert run_inprocess(*argv) == 0, argv
        outputs = sorted(path.name for path in (tmp_path / "plain").iterdir())
        assert len(outputs) == 22
        for name in outputs:
            assert ((tmp_path / "strict" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300, 1e17,
                5e-324, -5e-324, -0.0)
    # Scores whose class's standard deviation overflows, so that ``train`` has no bandwidth.
    UNTRAINABLE = EXTREMES[:4]

    def test_extreme_scores(self, tmp_path, child_env):
        """Each extreme score on one genuine and one imposter row, through every command:
        a clean exit, or one ``error:`` line that names the class ``train`` cannot fit."""
        assert run_inprocess("synth", tmp_path / "base.csv", "--n-genuine", 300,
                             "--n-imposter", 300, "--n-subjects", 10, "--refs-per-probe", 3,
                             "--seed", 3) == 0
        assert run_inprocess("train", tmp_path / "base.csv", tmp_path / "model.json") == 0
        base = (tmp_path / "base.csv").read_text()

        def write(name, values):
            rows = [f"{value!r},{label},x{k},{label[0]}{k},s0,{subject}" for k, value in
                    enumerate(values) for label, subject in ((GENUINE, "s0"), (IMPOSTER, "s1"))]
            (tmp_path / name).write_text(base + "\n".join(rows) + "\n")
            return name

        source = write("extremes.csv", self.EXTREMES)
        trainable = write("trainable.csv", [v for v in self.EXTREMES if v not in self.UNTRAINABLE])
        runs = [
            ("split", source, "--out-train", "train.csv", "--out-test", "test.csv"),
            ("score", "model.json", source, "scored.csv", "--fmr", 0.01),
            ("fuse", "model.json", source, "fused.csv", "--fmr", 0.01),
            ("eval", "scored.csv", "pic", "--fmr", 0.01),
            *(("eval", "scored.csv", estimator, "--estimator", estimator, "--train", source,
               "--model", "model.json", "--fmr", 0.01) for estimator in ("dtc", "erbc", "lrc")),
            ("curve", "scored.csv", "model.json", "curve.csv"),
            ("train", trainable, "trained.json"),
        ]
        for argv in runs:
            proc = self.strict(child_env, tmp_path, *argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        for value in self.UNTRAINABLE:
            proc = self.strict(child_env, tmp_path, "train", write("one.csv", [value]), "m.json")
            assert proc.returncode == 2, value
            assert proc.stderr == (f"error: genuine scores spread too widely for a bandwidth: "
                                   f"their standard deviation overflows (most extreme {value!r})\n")

    def test_unknown_label_is_named_as_text(self, tmp_path, child_env):
        source = tmp_path / "scored.csv"
        source.write_text("label,pic,decision,confidence\n"
                          "genuine,0.9,genuine,0.9\ngén,0.1,imposter,0.9\n", encoding="utf-8")
        proc = self.strict(child_env, tmp_path, "eval", source, tmp_path / "r")
        assert (proc.returncode, proc.stderr) == (2, "error: row 2: unknown label 'gén'\n")


def dispatched_cpu_features():
    """The SIMD features numpy dispatches to on this host, beyond its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


class TestSimdPaths:
    """``train`` and ``score`` in two children: one on numpy's native SIMD path, one with
    every feature numpy dispatched here disabled (``NPY_DISABLE_CPU_FEATURES``, which acts
    only on the process that sets it).

    ``scored.csv`` and every manifest must be byte-equal. The two models' fields must be
    equal, except ``grid_values``, which may differ by at most ``MAX_ULPS`` units in the
    last place: the kernel sums round differently at different vector widths. 2 ulp is
    the largest difference measured on this input, with numpy 2.4.6 on an x86-64 CPU
    with AVX-512 (117 of 4,096 genuine and 121 imposter values differ). Only AVX-512
    moves a value there: with it disabled, the AVX2 path writes the baseline's model byte
    for byte. So on a host without AVX-512 the test passes trivially, as it does where
    numpy dispatches nothing and the two runs take the same path.
    """

    MAX_ULPS = 2

    def test_outputs_equal_and_models_within_ulps(self, tmp_path, child_env):
        source = tmp_path / "scores.csv"
        assert run_inprocess("synth", source, "--n-genuine", 2000, "--n-imposter", 2000,
                             "--n-subjects", 50, "--refs-per-probe", 3, "--seed", 4) == 0
        assert run_inprocess("split", source, "--out-train", tmp_path / "train.csv",
                             "--out-test", tmp_path / "test.csv", "--seed", 4) == 0
        script = ("from picscore.cli import main\n"
                  "assert main(['train', '../train.csv', 'model.json']) == 0\n"
                  "assert main(['score', 'model.json', '../test.csv', 'scored.csv']) == 0\n")
        paths = {"native": {}, "baseline": {"NPY_DISABLE_CPU_FEATURES":
                                            " ".join(dispatched_cpu_features())}}
        for name, env in paths.items():
            (tmp_path / name).mkdir()
            proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path / name,
                                  capture_output=True, text=True, env={**child_env, **env})
            assert proc.returncode == 0, proc.stderr
        native, baseline = tmp_path / "native", tmp_path / "baseline"
        for name in ("scored.csv", "scored.csv.manifest.json", "model.json.manifest.json"):
            assert (native / name).read_bytes() == (baseline / name).read_bytes(), name
        models = [json.loads((folder / "model.json").read_text()) for folder in (native, baseline)]
        for key in ("genuine", "imposter"):
            values = [np.array(model[key].pop("grid_values")) for model in models]
            # Non-negative doubles order as their bit patterns do: the gap counts ulps.
            ulps = np.abs(values[0].view(np.int64) - values[1].view(np.int64))
            assert ulps.max() <= self.MAX_ULPS, key
        assert models[0] == models[1]
