"""The package namespace imports its modules on first use; both entry points run one function."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import picscore
from picscore.density import fit_model, save_model
from picscore.synth import SynthConfig, generate

ROOT = Path(__file__).resolve().parent.parent

# Runs picscore's command line in a fresh interpreter, then prints what it loaded.
PROBE = """
import gc, json, sys
{call}
print(json.dumps({{"status": status, "frozen": gc.get_freeze_count(),
                  "modules": sorted(m for m in sys.modules if m.startswith("picscore"))}}))
"""
MAIN = "from picscore.cli import main\nstatus = main(sys.argv[1:])"
RUN = "from picscore.__main__ import run\nsys.argv[0] = 'picscore'\nstatus = run()"


def probe(env, call, *args):
    proc = subprocess.run([sys.executable, "-c", PROBE.format(call=call), *map(str, args)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def score_args(tmp_path_factory):
    root = tmp_path_factory.mktemp("score")
    data = generate(SynthConfig(n_genuine=300, n_imposter=300, seed=2))
    save_model(fit_model(data, resolution=256), root / "model.json")
    (root / "in.csv").write_text("score,label\n0.7,genuine\n0.2,imposter\n")
    return ["score", root / "model.json", root / "in.csv", root / "out.csv"]


def test_score_loads_only_its_modules(child_env, score_args):
    got = probe(child_env, MAIN, *score_args)
    assert got["status"] == 0
    assert {"picscore.dataset", "picscore.density", "picscore.pic"} <= set(got["modules"])
    assert not {"picscore.synth", "picscore.baselines", "picscore.metrics"} & set(got["modules"])


def test_synth_loads_only_its_modules(child_env, tmp_path):
    got = probe(child_env, MAIN, "synth", tmp_path / "s.csv", "--n-genuine", 20,
                "--n-imposter", 20)
    assert got["status"] == 0
    assert set(got["modules"]) == {"picscore", "picscore.cli", "picscore.dataset",
                                   "picscore.synth"}


def test_only_the_process_entry_freezes_the_gc(child_env, score_args):
    assert probe(child_env, MAIN, *score_args)["frozen"] == 0
    got = probe(child_env, RUN, *score_args)
    assert got["status"] == 0 and got["frozen"] > 0


PUBLIC_NAMES = [
    "CalibrationReport", "CccSeries", "DENSITY_FLOOR", "DensityModel", "GENUINE", "IMPOSTER",
    "KdeDensity", "PicScore", "ScoreTable", "SynthConfig", "VerificationResult",
    "analytic_fused_posterior", "analytic_posterior", "calibration_report", "ccc", "decide",
    "decision_confidence", "default_bandwidth", "dtc_confidence", "ece", "empirical_fmr",
    "empirical_fnmr", "erbc_confidence", "eval_density", "fit_dtc", "fit_erbc", "fit_kde",
    "fit_lrc", "fit_model", "fnmr_at_fmr", "fuse_groups", "generate", "load_model",
    "load_scores", "log_likelihood_ratio", "lrc_confidence", "mce", "pair_groups", "pic_multi",
    "pic_single", "pic_threshold_for_fmr", "pic_values", "save_model", "save_scores",
    "scott_bandwidth", "split_subject_exclusive", "threshold_at_fmr", "true_confidence",
]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from picscore import *", namespace)
    assert picscore.__all__ == PUBLIC_NAMES
    for name in picscore.__all__:
        assert namespace[name] is getattr(picscore, name)


def test_dir_lists_every_public_name():
    assert set(picscore.__all__) <= set(dir(picscore))
    assert "__version__" in dir(picscore)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        picscore.frobnicate  # noqa: B018


def test_script_runs_the_function_that_python_m_runs():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["picscore"]
    module_name, _, attr = target.partition(":")
    assert module_name == "picscore.__main__"
    assert callable(getattr(importlib.import_module(module_name), attr))
    # What `python -m picscore` calls: the call under `if __name__ == "__main__":`.
    tree = ast.parse(Path(picscore.__file__).with_name("__main__.py").read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    called = [node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert called == [attr]


def test_version_is_stated_once():
    """The package's version is ``picscore.__version__``, which ``--version`` and manifests use."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in doc["project"] and doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "picscore.__version__"}


def test_readme_library_example_runs():
    """The README's "Library" code block, run as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    model, test, first, sizes, used, kept, values = (
        ns[name] for name in ("model", "test", "first", "sizes", "used", "kept", "values"))
    assert first[0] == 0 and values.shape == sizes.shape == ns["accepted"].shape
    assert used.tolist() == np.minimum(sizes, 5).tolist()
    assert kept.size == int(np.minimum(sizes, 5).sum())
    n = min(int(sizes[0]), 5)  # the first group's fused scores open ``kept``
    assert values[0] == picscore.pic_multi(model, test.score[kept[:n]]).value
