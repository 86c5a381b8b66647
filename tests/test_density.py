import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picscore.dataset import ScoreTable
from picscore.density import (
    DENSITY_FLOOR,
    MODEL_FORMAT,
    MODEL_VERSION,
    DensityModel,
    default_bandwidth,
    eval_density,
    fit_kde,
    fit_model,
    kernel_density,
    load_model,
    save_model,
    scott_bandwidth,
)
from picscore.pic import pic_values
from picscore.synth import SynthConfig, generate


class TestScottBandwidth:
    def test_exact_powers(self):
        assert scott_bandwidth(100000) == pytest.approx(0.1, abs=1e-15)
        assert scott_bandwidth(1) == 1.0
        assert scott_bandwidth(1024) == pytest.approx(0.25, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scott_bandwidth(0)

    def test_strictly_decreasing(self):
        values = [scott_bandwidth(n) for n in range(1, 2000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_default_bandwidth_scales_by_std(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(0.0, 2.5, 4000)
        expected = scores.std() * scott_bandwidth(4000)
        assert default_bandwidth(scores) == pytest.approx(expected, rel=1e-12)

    def test_default_bandwidth_constant_data_falls_back(self):
        scores = np.full(50, 0.3)
        assert default_bandwidth(scores) == scott_bandwidth(50)


class TestFitKde:
    def test_monte_carlo_matches_normal_pdf(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(0.5, 0.1, 10000)
        density = fit_kde(scores)
        peak = 1.0 / (0.1 * math.sqrt(2 * math.pi))  # 3.9894
        assert eval_density(density, 0.5) == pytest.approx(peak, rel=0.05)

    def test_empty_scores_error(self):
        with pytest.raises(ValueError, match="empty"):
            fit_kde([])

    def test_non_finite_scores_error(self):
        with pytest.raises(ValueError, match="finite"):
            fit_kde([0.1, float("nan")])

    def test_invalid_bandwidth_error(self):
        with pytest.raises(ValueError, match="bandwidth"):
            fit_kde([0.1, 0.2], bandwidth=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_index(self, bad):
        message = f"training scores must be finite, got {bad!r} at index 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_kde([0.1, bad, 0.2])

    @pytest.mark.parametrize(("kwargs", "message"), [
        ({"bandwidth": math.inf}, "bandwidth must be finite and positive, got inf"),
        ({"bandwidth": math.nan}, "bandwidth must be finite and positive, got nan"),
        ({"bandwidth": 1e308}, "grid_min must be finite, got -inf"),
        ({"bandwidth": 3e307}, "grid_min must be below grid_max with a finite span, "
                               "got (-1.5e+308, 1.5e+308)"),  # its width overflows
        ({"grid_range": (0.0, math.inf)}, "grid_max must be finite, got inf"),
        ({"grid_range": (1.0, 0.0)}, "grid_min must be below grid_max with a finite span, "
                                     "got (1.0, 0.0)"),
        ({"resolution": 1}, "grid_resolution must be a whole number >= 2, got 1.0"),
    ], ids=["inf", "nan", "1e308", "3e307", "infinite-range", "reversed-range", "resolution-1"])
    def test_fit_that_cannot_be_saved_is_rejected(self, kwargs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before the grid is built
            with pytest.raises(ValueError, match=re.escape(message)):
                fit_kde([0.1, 0.2], **kwargs)
            if "bandwidth" in kwargs:  # the grid range of a model is its classes'
                with pytest.raises(ValueError, match=re.escape(message)):
                    fit_model(_toy_set([0.6, 0.9], [0.1, 0.2]), **kwargs)

    def test_whole_number_resolution_given_as_float_fits(self):
        assert fit_kde([0.1, 0.2], resolution=16.0) == fit_kde([0.1, 0.2], resolution=16)

    def test_grid_spans_five_bandwidths(self):
        density = fit_kde([0.2, 0.8], bandwidth=0.05)
        assert density.grid_min == pytest.approx(0.2 - 0.25)
        assert density.grid_max == pytest.approx(0.8 + 0.25)

    def test_grid_values_floored(self):
        density = fit_kde([0.0, 1.0], bandwidth=0.001, grid_range=(-5.0, 6.0))
        assert np.all(density.grid_values >= DENSITY_FLOOR)

    def test_normalization(self):
        rng = np.random.default_rng(4)
        density = fit_kde(rng.normal(0.4, 0.2, 5000))
        integral = np.trapezoid(density.grid_values, density.grid_points())
        assert abs(integral - 1.0) < 1e-3


class TestEvalDensity:
    def test_lookup_at_grid_point_is_stored_value(self):
        density = fit_kde([0.1, 0.5, 0.9], bandwidth=0.1)
        xs = density.grid_points()
        for i in (0, 100, 2047, 4095):
            assert eval_density(density, float(xs[i])) == density.grid_values[i]

    def test_grid_points_built_once(self):
        density = fit_kde([0.1, 0.5, 0.9], bandwidth=0.1, resolution=64)
        xs = density.grid_points()
        assert density.grid_points() is xs
        assert not xs.flags.writeable
        assert np.array_equal(xs, np.linspace(density.grid_min, density.grid_max, 64))

    def test_far_outside_grid_returns_floor(self):
        density = fit_kde([0.4, 0.6], bandwidth=0.05)
        assert eval_density(density, 100.0) == DENSITY_FLOOR
        assert eval_density(density, -100.0) == DENSITY_FLOOR

    def test_result_never_below_floor(self):
        density = fit_kde([0.5], bandwidth=0.01)
        points = np.linspace(-10, 10, 500)
        assert np.all(eval_density(density, points) >= DENSITY_FLOOR)

    def test_array_shape_preserved(self):
        density = fit_kde([0.5], bandwidth=0.1)
        out = eval_density(density, np.array([0.4, 0.5, 0.6]))
        assert out.shape == (3,)
        assert isinstance(eval_density(density, 0.5), float)


def plain_lookup(density, s):
    """``eval_density`` as one ``np.interp`` call over the queries in their own order."""
    values = np.interp(s, density.grid_points(), density.grid_values,
                       left=DENSITY_FLOOR, right=DENSITY_FLOOR)
    return np.maximum(values, DENSITY_FLOOR)


class TestSortedLookup:
    """``eval_density`` in any query order: every result must equal the plain call's."""

    @pytest.fixture
    def density(self):
        return fit_kde(np.random.default_rng(4).normal(0.5, 0.1, 200), bandwidth=0.05,
                       resolution=256)

    def assert_bitwise(self, got, expected):
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    def test_scalar(self, density):
        got = eval_density(density, 0.537)
        assert isinstance(got, float)
        self.assert_bitwise(got, plain_lookup(density, 0.537))

    def test_unsorted_with_duplicates(self, density):
        queries = np.random.default_rng(5).normal(0.5, 0.3, 2000)
        queries = np.concatenate([queries, queries[::7], -queries[:50]])
        np.random.default_rng(6).shuffle(queries)
        self.assert_bitwise(eval_density(density, queries), plain_lookup(density, queries))

    def test_two_dimensional(self, density):
        queries = np.random.default_rng(7).normal(0.5, 0.3, (700, 5))
        self.assert_bitwise(eval_density(density, queries), plain_lookup(density, queries))
        self.assert_bitwise(eval_density(density, queries.T), plain_lookup(density, queries.T))

    def test_non_finite(self, density):
        queries = np.array([0.5, np.nan, np.inf, 0.2, -np.inf, np.nan, 0.9] * 100)
        got = eval_density(density, queries)
        self.assert_bitwise(got, plain_lookup(density, queries))
        assert np.isnan(got[1]) and got[2] == got[4] == DENSITY_FLOOR

    def test_grid_points_and_edges(self, density):
        xs = density.grid_points()
        queries = np.concatenate([xs[::-1], xs[:3], xs[-3:], np.nextafter(xs[[0, -1]], [-1, 2]),
                                  np.nextafter(xs[[0, -1]], [2, -1])])
        got = eval_density(density, queries)
        self.assert_bitwise(got, plain_lookup(density, queries))
        assert np.array_equal(got[:xs.size], np.maximum(density.grid_values[::-1], DENSITY_FLOOR))


class TestKernelDensity:
    """The exact kernel sum that tabulates the grid and checks its lookups."""

    def test_single_point_exact_values(self):
        assert kernel_density([0.5], 0.1, 0.5)[0] == pytest.approx(3.9894228, abs=1e-6)
        assert kernel_density([0.5], 0.1, 0.6)[0] == pytest.approx(2.4197072, abs=1e-6)

    def test_lookup_matches_exact_in_range(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(0.5, 0.15, 20000)
        density = fit_kde(scores)
        points = rng.uniform(scores.min(), scores.max(), 1000)
        lookup = eval_density(density, points)
        exact = kernel_density(scores, density.bandwidth, points)
        assert np.max(np.abs(lookup - exact) / exact) <= 1e-3

    def test_result_never_below_floor(self):
        points = np.linspace(-10, 10, 500)
        assert np.all(kernel_density([0.5], 0.01, points) >= DENSITY_FLOOR)

    def test_grid_is_tabulated_from_it(self):
        scores = [0.1, 0.5, 0.55, 0.9]
        density = fit_kde(scores, bandwidth=0.05, resolution=64)
        assert np.array_equal(
            density.grid_values, kernel_density(scores, 0.05, density.grid_points())
        )


def _brute_kernel_sum(train, h, queries):
    z = (queries[:, None] - train[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (train.size * h * math.sqrt(2 * math.pi))


class TestWindowedKernelSum:
    """The +-9h window against a full sum: every skipped term is below
    phi(9) / (n h), so the two differ by less than phi(9) / h ~= 1.03e-18 / h
    plus rounding. Both are floored, which moves neither further apart."""

    def _assert_within_bound(self, train, h, queries):
        window = kernel_density(train, h, queries)
        brute = np.maximum(_brute_kernel_sum(train, h, queries), DENSITY_FLOOR)
        assert np.all(np.abs(window - brute) <= 1.03e-18 / h + 1e-14 * brute.max())

    def test_clusters_further_apart_than_window(self):
        rng = np.random.default_rng(31)
        h = 0.02
        train = np.concatenate([rng.normal(0.0, 0.01, 300), rng.normal(1.0, 0.01, 300)])
        self._assert_within_bound(train, h, np.linspace(-0.5, 1.5, 801))

    def test_unsorted_duplicate_and_out_of_range_queries(self):
        rng = np.random.default_rng(32)
        train = rng.normal(0.5, 0.1, 500)
        inside = rng.uniform(0.0, 1.0, 200)
        queries = rng.permutation(
            np.concatenate([inside, inside[:50], np.full(7, 0.5), [-3.0, 4.0, -50.0, 50.0]])
        )
        self._assert_within_bound(train, default_bandwidth(train), queries)

    def test_bandwidth_below_grid_spacing(self):
        grid = np.linspace(-5.0, 6.0, 4096)
        self._assert_within_bound(np.array([0.0, 1.0]), 0.001, grid)

    def test_non_finite_queries(self):
        # Enough NaNs that some query block holds nothing else.
        queries = np.concatenate([np.full(100, np.nan), [-np.inf, 0.5, np.inf]])
        out = kernel_density([0.4, 0.6], 0.05, queries)
        assert np.all(np.isnan(out[:100]))
        assert out[100] == out[102] == DENSITY_FLOOR
        assert out[101] == kernel_density([0.4, 0.6], 0.05, 0.5)[0]


def _toy_set(genuine, imposter):
    scores = np.concatenate([np.asarray(genuine, dtype=float), np.asarray(imposter, dtype=float)])
    return ScoreTable(scores, np.arange(scores.size) < len(genuine))


class TestFitModel:
    @pytest.mark.parametrize("bandwidth, rejected", [
        (1e-320, True), (1e-300, False), (1e-200, False),
    ])
    def test_tiny_bandwidth_is_rejected_or_gives_finite_grids(self, bandwidth, rejected):
        table = _toy_set([0.6, 0.9], [0.1, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rejected:
                with pytest.raises(ValueError, match=f"^bandwidth {bandwidth} is too small"):
                    fit_model(table, bandwidth=bandwidth)
                return
            model = fit_model(table, bandwidth=bandwidth)
        for density in (model.genuine, model.imposter):
            assert np.isfinite(density.grid_values).all()
            assert density.grid_values.min() >= DENSITY_FLOOR

    @pytest.mark.parametrize("name, extreme", [
        ("genuine", 1e300), ("genuine", -1.7976931348623157e308), ("imposter", 1e300),
    ])
    def test_class_whose_spread_overflows_is_named(self, name, extreme):
        ordinary = [0.5, 0.6, 0.7]
        classes = {"genuine": ordinary, "imposter": [0.1, 0.2, 0.3]}
        classes[name] = [*classes[name], extreme]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} scores spread too widely for a bandwidth: their standard "
                    f"deviation overflows (most extreme {extreme!r})")):
                fit_model(_toy_set(classes["genuine"], classes["imposter"]))

    @pytest.mark.parametrize("bandwidth", [1e-300, 1e-200])
    def test_bandwidth_too_small_for_its_grid_is_rejected(self, bandwidth):
        # Grid cells a fraction of a bandwidth wide at a peak of 0.4 / bandwidth: the
        # interpolation slope overflows, and both classes' lookups would give inf.
        table = _toy_set([0.0, 0.0], [0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^grid_values\[\d+\] to \[\d+\] rise too "
                                                 r"steeply: the slope over a grid step of "):
                fit_model(table, bandwidth=bandwidth)

    def test_identical_classes_give_identical_grids(self):
        scores = [0.2, 0.4, 0.6, 0.8]
        model = fit_model(_toy_set(scores, scores))
        assert np.array_equal(model.genuine.grid_values, model.imposter.grid_values)

    def test_argmax_near_true_means(self):
        rng = np.random.default_rng(21)
        model = fit_model(
            _toy_set(rng.normal(0.7, 0.1, 20000), rng.normal(0.2, 0.1, 20000))
        )
        xs = model.genuine.grid_points()
        assert abs(xs[np.argmax(model.genuine.grid_values)] - 0.7) < 0.02
        assert abs(xs[np.argmax(model.imposter.grid_values)] - 0.2) < 0.02

    def test_prior_stored(self):
        model = fit_model(_toy_set([0.5, 0.6], [0.1, 0.2]), prior_genuine=0.5)
        assert model.prior_genuine == 0.5
        assert model.prior_imposter == 0.5

    def test_shared_grid(self):
        model = fit_model(_toy_set([0.6, 0.9], [0.0, 0.3]))
        assert model.genuine.grid_min == model.imposter.grid_min
        assert model.genuine.grid_max == model.imposter.grid_max

    @pytest.mark.parametrize(("key", "change"), [
        ("grid_min", lambda d: {"grid_min": d.grid_min - 0.5}),
        ("grid_max", lambda d: {"grid_max": d.grid_max + 0.5}),
        ("grid_resolution", lambda d: {"grid_values": d.grid_values[:-1]}),
    ], ids=["grid_min", "grid_max", "grid_resolution"])
    def test_classes_on_different_grids_name_the_field(self, key, change):
        model = fit_model(_toy_set([0.6, 0.9], [0.0, 0.3]), resolution=64)
        imposter = replace(model.imposter, **change(model.imposter))
        with pytest.raises(ValueError, match=rf"^imposter\.{key} must equal genuine\.{key}, got "):
            DensityModel(genuine=model.genuine, imposter=imposter)

    def test_empty_class_error(self):
        with pytest.raises(ValueError, match="genuine"):
            fit_model(ScoreTable([0.1], [False]))
        with pytest.raises(ValueError, match="imposter"):
            fit_model(ScoreTable([0.9], [True]))

    def test_prior_out_of_range_error(self):
        with pytest.raises(ValueError, match="prior"):
            fit_model(_toy_set([0.5], [0.1]), prior_genuine=1.0)


class TestModelEquality:
    def _table(self):
        rng = np.random.default_rng(6)
        return _toy_set(rng.normal(0.7, 0.1, 300), rng.normal(0.2, 0.1, 300))

    def test_same_fit_is_equal(self):
        table = self._table()
        assert fit_model(table, resolution=256) == fit_model(table, resolution=256)

    def test_different_prior_is_not_equal(self):
        table = self._table()
        assert fit_model(table, prior_genuine=0.3) != fit_model(table)

    def test_densities_compare_every_field(self):
        density = fit_kde([0.2, 0.4, 0.7], bandwidth=0.1, resolution=64)
        assert density == fit_kde([0.2, 0.4, 0.7], bandwidth=0.1, resolution=64)
        for change in (
            {"bandwidth": 0.2},
            {"grid_min": density.grid_min - 1.0},
            {"grid_max": density.grid_max + 1.0},
            {"grid_values": density.grid_values * 2.0},
            {"grid_values": density.grid_values[:-1]},
        ):
            assert density != replace(density, **change)


class TestSerialization:
    def _model(self):
        rng = np.random.default_rng(5)
        return fit_model(
            _toy_set(rng.normal(0.7, 0.1, 500), rng.normal(0.2, 0.1, 500)),
            resolution=256,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for original, restored in (
            (model.genuine, loaded.genuine),
            (model.imposter, loaded.imposter),
        ):
            assert np.array_equal(original.grid_values, restored.grid_values)
            assert original.bandwidth == restored.bandwidth
            assert original.grid_min == restored.grid_min
            assert original.grid_max == restored.grid_max
        assert loaded.prior_genuine == model.prior_genuine
        assert json.loads(path.read_text())["version"] == MODEL_VERSION
        xs = model.genuine.grid_points()
        assert np.array_equal(
            eval_density(model.genuine, xs), eval_density(loaded.genuine, xs)
        )

    def test_unknown_version_names_version(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = "99"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'99'"):
            load_model(path)

    def test_truncated_file_errors(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 200])
        with pytest.raises(ValueError, match="corrupt"):
            load_model(path)

    def test_wrong_format_errors(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a"):
            load_model(path)

    def test_reloaded_model_equals_fitted(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("seed", [1, 101])
    def test_reloaded_posterior_bit_identical(self, tmp_path, seed):
        model = fit_model(generate(SynthConfig(n_genuine=50000, n_imposter=50000, seed=seed)))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        xs = np.linspace(model.genuine.grid_min - 1.0, model.genuine.grid_max + 1.0, 40001)
        assert np.array_equal(pic_values(model, xs), pic_values(loaded, xs))

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("prior_genuine", 1.5),
            ("prior_genuine", 0.0),
            ("genuine.bandwidth", 0.0),
            ("imposter.bandwidth", float("inf")),
            ("genuine.grid_min", float("nan")),
            ("imposter.grid_max", float("-inf")),
            ("genuine.grid_values", [0.5, 0.5]),
        ],
    )
    def test_invalid_field_names_field(self, tmp_path, field, value):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        *parents, key = field.split(".")
        target = doc[parents[0]] if parents else doc
        target[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(field)):
            load_model(path)

    def test_swapped_grid_bounds_rejected(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        for name in ("genuine", "imposter"):
            doc[name]["grid_min"], doc[name]["grid_max"] = (
                doc[name]["grid_max"], doc[name]["grid_min"]
            )
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"genuine\.grid_min must be below"):
            load_model(path)

    def test_classes_on_different_grids_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["imposter"]["grid_max"] += 0.25
        path.write_text(json.dumps(doc))
        message = f"corrupt model file {path}: imposter.grid_max must equal genuine.grid_max"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def _saved_doc(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self._model(), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(("resolution", "values"), [
        (0, []), (1, [0.5]), (256.5, None), (255.5, None), (-3, None), ("x", None), (None, None),
    ], ids=["zero", "one", "fraction", "fraction-below", "negative", "text", "null"])
    def test_grid_resolution_must_be_a_whole_number_of_at_least_two(
            self, tmp_path, resolution, values):
        path, doc = self._saved_doc(tmp_path)
        doc["genuine"]["grid_resolution"] = resolution
        if values is not None:
            doc["genuine"]["grid_values"] = values
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"genuine\.grid_resolution must be"):
            load_model(path)

    @pytest.mark.parametrize("key", ["bandwidth", "grid_min", "grid_max", "grid_resolution"])
    @pytest.mark.parametrize("bad", ["x", [1.0], {"a": 1}, "0.5", True])
    def test_non_numeric_field_names_field(self, tmp_path, key, bad):
        path, doc = self._saved_doc(tmp_path)
        doc["imposter"][key] = bad
        path.write_text(json.dumps(doc))
        message = f"imposter.{key} must be a number, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("bad", ["x", [0.5], {"a": 1}, None, "0.5", True])
    def test_non_numeric_prior_names_field(self, tmp_path, bad):
        path, doc = self._saved_doc(tmp_path)
        doc["prior_genuine"] = bad
        path.write_text(json.dumps(doc))
        message = f"prior_genuine must be a number, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_integer_too_large_for_a_float_names_field(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        huge = "1" + "0" * 400  # an int in JSON, beyond float range
        path.write_text(json.dumps(doc).replace('"prior_genuine": 0.5', f'"prior_genuine": {huge}'))
        with pytest.raises(ValueError, match=f"prior_genuine must be a number, got {huge}$"):
            load_model(path)

    @pytest.mark.parametrize("field", [
        "prior_genuine", "genuine", "imposter.bandwidth", "genuine.grid_min",
        "imposter.grid_max", "genuine.grid_resolution", "imposter.grid_values",
    ])
    def test_missing_field_names_class_and_field(self, tmp_path, field):
        path, doc = self._saved_doc(tmp_path)
        *parents, key = field.split(".")
        del (doc[parents[0]] if parents else doc)[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f": missing field {field!r}")):
            load_model(path)

    @pytest.mark.parametrize("bad", ["x", [1.0], {"a": 1}])
    def test_non_numeric_grid_value_names_field(self, tmp_path, bad):
        path, doc = self._saved_doc(tmp_path)
        doc["genuine"]["grid_values"][17] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"genuine\.grid_values must be a list of numbers"):
            load_model(path)

    @pytest.mark.parametrize("shape", ["nested", "scalar", "strings", "boolean"])
    def test_grid_values_not_a_flat_list_of_numbers_names_field(self, tmp_path, shape):
        path, doc = self._saved_doc(tmp_path)
        values = doc["genuine"]["grid_values"]
        doc["genuine"]["grid_values"] = {"nested": [[v] for v in values], "scalar": values[0],
                                         "strings": [str(v) for v in values],
                                         "boolean": [True, *values[1:]]}[shape]
        path.write_text(json.dumps(doc))
        message = f"corrupt model file {path}: genuine.grid_values must be a list of numbers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_model(path)

    def test_grid_values_too_steep_to_interpolate_rejected(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        for name in ("genuine", "imposter"):
            doc[name]["grid_min"], doc[name]["grid_max"] = 0.0, 0.5  # cells 1/510 wide
            doc[name]["grid_values"][10] = 1e308
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                "genuine.grid_values[9] to [10] rise too steeply: the slope over a grid step "
                "of 0.00196078431372549")):
            load_model(path)

    @pytest.mark.parametrize("entry", [[], [1.0, 2.0], "genuine", 3])
    def test_class_entry_that_is_not_an_object_names_class(self, tmp_path, entry):
        path, doc = self._saved_doc(tmp_path)
        doc["imposter"] = entry
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r": imposter must be an object, got "):
            load_model(path)

    def test_whole_number_resolution_written_as_float_loads(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["genuine"]["grid_resolution"] = 256.0
        path.write_text(json.dumps(doc))
        assert load_model(path) == self._model()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
    def test_bad_grid_value_rejected(self, tmp_path, bad):
        model = self._model()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["imposter"]["grid_values"][17] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"imposter\.grid_values\[17\]"):
            load_model(path)


def _model_doc(grid_min, grid_max, resolution, genuine_values, imposter_values, prior=0.5,
               bandwidths=(0.1, 0.1)):
    classes = {
        name: {"bandwidth": h, "grid_min": grid_min, "grid_max": grid_max,
               "grid_resolution": resolution, "grid_values": values}
        for name, h, values in zip(("genuine", "imposter"), bandwidths,
                                   (genuine_values, imposter_values))
    }
    return {"format": MODEL_FORMAT, "version": MODEL_VERSION, "prior_genuine": prior, **classes}


@st.composite
def model_docs(draw):
    """Model documents over any finite grid up to +-1e308, with any finite values >= 0."""
    bound = st.floats(-1e308, 1e308)
    resolution = draw(st.integers(2, 64))
    values = st.lists(st.floats(min_value=0.0, allow_infinity=False),
                      min_size=resolution, max_size=resolution)
    return _model_doc(draw(bound), draw(bound), resolution, draw(values), draw(values),
                      prior=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                      bandwidths=draw(st.tuples(*[st.floats(1e-300, 1e300)] * 2)))


class TestOneGridRule:
    """``fit_kde`` and ``load_model`` apply one grid rule; what it accepts is safe to use."""

    @given(model_docs(), st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    @example(_model_doc(-1e308, 1e308, 4, [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]), [0.0])
    @example(_model_doc(0.0, 0.5, 2, [0.0, 1e308], [0.0, 1e308]), [0.25])  # slope 2e308
    @settings(max_examples=150, deadline=None)
    def test_every_loadable_model_gives_finite_posteriors(self, tmp_path_factory, doc, queries):
        path = tmp_path_factory.getbasetemp() / "drawn-model.json"
        path.write_text(json.dumps(doc))
        try:
            model = load_model(path)
        except ValueError:
            return
        grid = model.genuine.grid_points()
        middles = grid[:-1] + np.diff(grid) / 2.0
        xs = np.array([-1e308, 1e308, *grid, *middles, *queries])
        values = pic_values(model, xs)
        assert np.isfinite(values).all() and ((values >= 0.0) & (values <= 1.0)).all()

    @given(st.one_of(st.floats(), st.sampled_from([0.0, -0.5, 1e-300, 1e308])),
           st.floats(), st.floats(),
           st.one_of(st.integers(-2, 64), st.floats(-2.0, 64.0)))
    @example(1.0, -np.finfo(float).max, 0.0, 13)  # 12 steps of max / 12 round past max
    @settings(max_examples=300, deadline=None)
    def test_a_grid_load_rejects_fit_rejects_with_the_same_text(
            self, tmp_path_factory, bandwidth, grid_min, grid_max, resolution):
        values = [1.0] * max(0, int(resolution))  # right for every whole resolution
        doc = _model_doc(grid_min, grid_max, resolution, values, values,
                         bandwidths=(bandwidth, bandwidth))
        path = tmp_path_factory.getbasetemp() / "drawn-grid.json"
        path.write_text(json.dumps(doc))
        try:
            load_model(path)
        except ValueError as exc:
            loaded = str(exc).removeprefix(f"corrupt model file {path}: ")
        else:
            return
        assert loaded.startswith("genuine.")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as fitted:
                fit_kde([0.1, 0.2], bandwidth=bandwidth, resolution=resolution,
                        grid_range=(grid_min, grid_max))
        assert str(fitted.value) == loaded.replace("genuine.", "")

    def test_a_span_near_the_largest_float_fits_without_a_warning(self):
        """numpy's ``linspace`` takes the last grid point as 12 steps of max / 12, which
        rounds past the largest float, and then sets it to the grid's end."""
        largest = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = fit_kde([0.1, 0.2], bandwidth=1.0, resolution=13,
                              grid_range=(-largest, 0.0))
            grid = density.grid_points()
        assert (grid[0], grid[-1]) == (-largest, 0.0) and np.isfinite(grid).all()
