"""Spans around calls into picscore's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
picscore module namespace that holds it, so names bound with
``from .x import y`` (``picscore.cli.fit_model``, ``picscore.pic.eval_density``
and so on) are traced too. A span records its name, start, end, parent span
and run id (the stage index); spans stay in memory in flat arrays and are
written out once at the end. A layer's self time is its spans' durations
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("synth", "dataset", "density", "pic", "metrics", "baselines", "cli")

# span name -> functions it covers (module, attribute)
SPANS = {
    "synth.generate": [("synth", "generate")],
    "dataset.load": [("dataset", "load_scores")],
    "dataset.save": [("dataset", "save_scores")],
    "dataset.split": [("dataset", "split_subject_exclusive")],
    "density.fit": [("density", "fit_model")],
    "density.lookup": [("density", "eval_density")],
    "density.save": [("density", "save_model")],
    "density.load": [("density", "load_model")],
    "pic.values": [("pic", "pic_values")],
    "pic.multi": [("pic", "pic_multi")],
    "pic.llr": [("pic", "log_likelihood_ratio")],
    "metrics.calibration": [("metrics", "calibration_report")],
    "metrics.verification": [("metrics", "fnmr_at_fmr")],
    "metrics.ccc": [("metrics", "ccc")],
    "baselines.fit": [("baselines", f"fit_{k}") for k in ("dtc", "erbc", "lrc")],
    "baselines.confidence": [("baselines", f"{k}_confidence") for k in ("dtc", "erbc", "lrc")],
    "cli.main": [("cli", "main")],
    **{f"cli.{c}": [("cli", f"cmd_{c}")]
       for c in ("synth", "split", "train", "score", "fuse", "eval", "curve")},
}


def _lookup_queries(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["s"]))


def _loaded_rows(args, kwargs, result):
    return len(result)


def _saved_rows(args, kwargs, result):
    return len(args[0])


# Work counted at the boundary: span name -> (counter name, function of the call)
COUNTERS = {
    "density.lookup": ("density.lookup_queries", lambda a, k, r: _lookup_queries(a, k)),
    "dataset.load": ("dataset.load_rows", _loaded_rows),
    "dataset.save": ("dataset.save_rows", _saved_rows),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def set_run(self, run_id: int) -> None:
        self.run_id = run_id

    def _wrap(self, name: str, fn):
        name_idx = self.name_id.setdefault(name, len(self.name_id))
        if name_idx == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        span_name, start, end, parent, run, stack = (
            self.span_name, self.start, self.end, self.parent, self.run, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(name_idx)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a picscore namespace binds it."""
        package = importlib.import_module("picscore")
        modules = [package] + [importlib.import_module(f"picscore.{m}") for m in MODULES]
        wrappers = {}
        for name, targets in SPANS.items():
            for module, attr in targets:
                fn = getattr(importlib.import_module(f"picscore.{module}"), attr)
                wrappers[id(fn)] = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        durations = (np.frombuffer(self.end, dtype=np.int64)
                     - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=durations[child], minlength=names.size)
        own = durations - covered
        out = {}
        for idx, name in enumerate(self.names):
            mask = names == idx
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "total_s": float(durations[mask].sum()) / 1e9,
                "self_s": float(own[mask].sum()) / 1e9,
            }
        return out

    def root_seconds(self) -> float:
        """Summed duration of spans without a parent."""
        durations = (np.frombuffer(self.end, dtype=np.int64)
                     - np.frombuffer(self.start, dtype=np.int64))
        roots = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float(durations[roots].sum()) / 1e9

    def write(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run_id=np.frombuffer(self.run, dtype=np.int32),
        )
