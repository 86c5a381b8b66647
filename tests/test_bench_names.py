"""The benchmark's tracer wraps picscore functions by name; a rename must fail here.

``perfbench/tracing.py`` is loaded from its file, as the benchmark's worker
loads it, and left as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from picscore import density
from picscore.dataset import load_scores

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    targets = [target for targets in tracing.SPANS.values() for target in targets]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(f"picscore.{module}"), attr, None)), (
            f"picscore.{module}.{attr}"
        )


def test_row_counters_accept_a_loaded_table(tracing, tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("score,label\n0.8,genuine\n0.1,imposter\n0.2,imposter\n")
    table = load_scores(path)
    _, loaded_rows = tracing.COUNTERS["dataset.load"]
    _, saved_rows = tracing.COUNTERS["dataset.save"]
    assert loaded_rows((path,), {}, table) == 3
    assert saved_rows((table, tmp_path / "out.csv"), {}, None) == 3


def test_lookup_counter_reads_a_real_eval_density_call(tracing):
    fitted = density.fit_kde([0.3, 0.5, 0.7], bandwidth=0.1, resolution=64)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        density.eval_density(fitted, np.zeros(5))
        assert tracer.counts["density.lookup_queries"] == 5
        density.eval_density(fitted, s=np.zeros(3))
        assert tracer.counts["density.lookup_queries"] == 8
    finally:
        tracer.uninstall()
    assert tracer.summary()["density.lookup"]["calls"] == 2
