"""Gaussian kernel density estimation with tabulated lookup grids.

Genuine and imposter score distributions are each fitted with a Gaussian
KDE, and a model tabulates both on one uniform grid spanning their data
plus five bandwidths per side, which keeps the untabulated tail mass
below 1e-4; queries linearly interpolate that grid. The grid is all a
fitted density keeps, so a model reloaded from disk equals the fitted one.
The grid is tabulated with ``kernel_density``, the exact kernel sum, which
also serves as the reference the lookups are checked against. It skips
training points more than nine bandwidths from the query: each skipped term
is below phi(9) / (n * h), so the sum is off by less than
phi(9) / h ~= 1.03e-18 / h, under ``DENSITY_FLOOR`` for any bandwidth above
1.03e-6. Every evaluated density is floored at ``DENSITY_FLOOR`` so
posterior ratios stay finite in the tails.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import _replacing

DENSITY_FLOOR = 1e-12

MODEL_FORMAT = "picscore-density-model"
MODEL_VERSION = "1"

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_GRID_PAD_BANDWIDTHS = 5.0
# Kernel terms further out than this many bandwidths are left out of the sum.
_WINDOW_BANDWIDTHS = 9.0
_QUERY_BLOCK = 32
_BLOCK_CELLS = 4_000_000


def scott_bandwidth(n: int) -> float:
    """Scott factor for one-dimensional KDE: n ** (-1/5).

    This is the dimensionless factor; multiply by a data scale (see
    :func:`default_bandwidth`) to get a bandwidth in score units.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return float(n) ** -0.2


def default_bandwidth(scores: np.ndarray) -> float:
    """Scott bandwidth scaled by the sample standard deviation.

    Falls back to the bare Scott factor when the sample is constant
    (zero standard deviation). A standard deviation that overflows gives
    ``inf`` or NaN, with no warning.
    """
    scores = np.asarray(scores, dtype=float)
    factor = scott_bandwidth(scores.size)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(scores.std())
    scale = max(1.0, float(np.abs(scores).max())) if scores.size else 1.0
    if spread <= scale * 1e-12:  # numerically constant sample
        return factor
    return spread * factor


def _require_finite(values: np.ndarray, name: str, unit: bool = False) -> None:
    """Fail naming the first index not finite, or then, with ``unit``, outside [0, 1]."""
    bad, must = np.flatnonzero(~np.isfinite(values)), "be finite"
    if unit and not bad.size:
        bad, must = np.flatnonzero((values < 0.0) | (values > 1.0)), "lie in [0, 1]"
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must {must}, got {float(values[i])!r} at index {i}")


def _equal_fields(a, b) -> bool:
    """Dataclass equality that compares array fields by ``np.array_equal``."""
    return type(a) is type(b) and all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
                                      for f in fields(a))


def _check_grid(bandwidth, grid_min, grid_max, resolution, prefix: str = "") -> None:
    """The grid rule of every density, fitted or loaded; errors name ``prefix`` + field."""
    if not 0.0 < bandwidth < math.inf:
        raise ValueError(f"{prefix}bandwidth must be finite and positive, got {bandwidth!r}")
    for key, value in (("grid_min", grid_min), ("grid_max", grid_max)):
        if not math.isfinite(value):
            raise ValueError(f"{prefix}{key} must be finite, got {value!r}")
    if not (grid_min < grid_max and math.isfinite(grid_max - grid_min)):
        raise ValueError(f"{prefix}grid_min must be below {prefix}grid_max with a finite span, "
                         f"got ({grid_min!r}, {grid_max!r})")
    if not (resolution >= 2 and float(resolution).is_integer()):
        raise ValueError(f"{prefix}grid_resolution must be a whole number >= 2, "
                         f"got {float(resolution)!r}")


def _check_values(density: "KdeDensity", prefix: str = "") -> None:
    """The grid-value rule: values finite and >= 0, and no cell whose slope overflows
    (``np.interp`` would give ``inf`` inside it, and two such classes a NaN posterior)."""
    values, widths = density.grid_values, np.diff(density.grid_points())
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0.0)))
    if bad.size:
        raise ValueError(f"{prefix}grid_values[{bad[0]}] must be finite and >= 0, "
                         f"got {float(values[bad[0]])!r}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steep = np.flatnonzero(np.isinf(np.diff(values) / widths) & (widths > 0.0))
    if steep.size:
        raise ValueError(f"{prefix}grid_values[{steep[0]}] to [{steep[0] + 1}] rise too steeply: "
                         f"the slope over a grid step of {float(widths[steep[0]])!r} overflows")


@dataclass(frozen=True, eq=False)
class KdeDensity:
    """A fitted one-dimensional Gaussian KDE, tabulated on a uniform grid.

    ``grid_values`` holds the density at ``grid_resolution`` evenly spaced
    scores from ``grid_min`` to ``grid_max``; the training scores are not
    kept. Two densities are equal when their bandwidths, grid bounds and
    grid values are.
    """

    bandwidth: float
    grid_min: float
    grid_max: float
    grid_values: np.ndarray

    __eq__ = _equal_fields

    @property
    def grid_resolution(self) -> int:
        return self.grid_values.size

    def grid_points(self) -> np.ndarray:
        """The grid's scores: one read-only array, built on first use."""
        return self._grid

    @functools.cached_property
    def _grid(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # see fit_kde
            grid = np.linspace(self.grid_min, self.grid_max, self.grid_resolution)
        grid.flags.writeable = False
        return grid


def kernel_density(scores, bandwidth: float, queries) -> np.ndarray:
    """The exact Gaussian KDE of ``scores`` at ``queries``, floored at ``DENSITY_FLOOR``.

    Sums the kernel over the training scores within nine bandwidths of each
    query, off by less than phi(9) / h (see the module docstring). The
    sorted queries are walked in blocks, and ``searchsorted`` finds each
    block's window in the sorted training scores; a block's (block x window)
    buffer holds at most ``_BLOCK_CELLS`` entries. Returns one value per
    query, flattened; NaN queries give NaN.
    """
    train = np.sort(np.asarray(scores, dtype=float).ravel())
    queries = np.asarray(queries, dtype=float).ravel()
    order = np.argsort(queries, kind="stable")
    sorted_queries = queries[order]
    block = max(1, min(_QUERY_BLOCK, _BLOCK_CELLS // max(train.size, 1)))
    starts = np.arange(0, queries.size, block)
    ends = np.minimum(starts + block, queries.size)
    reach = _WINDOW_BANDWIDTHS * bandwidth
    lows = np.searchsorted(train, sorted_queries[starts] - reach, side="left")
    highs = np.searchsorted(train, sorted_queries[ends - 1] + reach, side="right")

    sums = np.empty(queries.size, dtype=float)
    scale = 1.0 / (train.size * bandwidth * _SQRT_2PI)
    for start, end, lo, hi in zip(starts, ends, lows, highs):
        # exp(-z^2 / 2) in place, in one (block x window) buffer.
        terms = np.subtract(sorted_queries[start:end, None], train[None, lo:hi])
        with np.errstate(over="ignore"):  # at a tiny bandwidth z^2 = inf, and exp(-inf) = 0
            terms /= bandwidth
            terms *= terms
        terms *= -0.5
        np.exp(terms, out=terms)
        sums[start:end] = terms.sum(axis=1) * scale
    np.maximum(sums, DENSITY_FLOOR, out=sums)
    # NaN queries sort last and get an empty window; keep them NaN, as a
    # full sum would.
    sums[np.isnan(sorted_queries)] = np.nan
    out = np.empty_like(sums)
    out[order] = sums
    return out


def fit_kde(
    scores,
    bandwidth: float | None = None,
    resolution: int = 4096,
    grid_range: tuple[float, float] | None = None,
) -> KdeDensity:
    """Fit a Gaussian KDE and tabulate it on a uniform grid.

    Parameters
    ----------
    scores : array-like
        Non-empty, finite training scores.
    bandwidth : float, optional
        Kernel bandwidth. Defaults to the sample-scaled Scott bandwidth.
    resolution : int
        Number of uniformly spaced grid points.
    grid_range : (float, float), optional
        Grid span. Defaults to the data range padded by five bandwidths
        on each side.

    The grid and its values must pass the rules :func:`load_model` applies, with the
    same error texts less the class name, so every fitted density loads again.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size == 0:
        raise ValueError("cannot fit a density to an empty score array")
    _require_finite(scores, "training scores")

    h = default_bandwidth(scores) if bandwidth is None else float(bandwidth)
    if grid_range is None:
        lo = float(scores.min()) - _GRID_PAD_BANDWIDTHS * h
        hi = float(scores.max()) + _GRID_PAD_BANDWIDTHS * h
    else:
        lo, hi = float(grid_range[0]), float(grid_range[1])
    _check_grid(h, lo, hi, resolution)
    if not math.isfinite(1.0 / (scores.size * h * _SQRT_2PI)):
        raise ValueError(f"bandwidth {h} is too small: the kernel's peak height overflows")

    # linspace's last point, (n - 1) steps, may round past the largest float; it then sets hi.
    with np.errstate(over="ignore"):
        grid = np.linspace(lo, hi, int(resolution))
    density = KdeDensity(h, lo, hi, kernel_density(scores, h, grid))
    _check_values(density)
    return density


def eval_density(density: KdeDensity, s):
    """Evaluate a fitted density at score(s) ``s`` from its grid.

    Linearly interpolates the tabulated grid (``np.interp``, in query
    order) and gives queries outside the grid the density floor. Results
    are always >= ``DENSITY_FLOOR``; NaN queries give NaN. ``np.interp``
    finds each query's grid cell from the last one's, so ascending queries,
    as ``pic.log_likelihood_ratio`` passes them, are looked up fastest.
    """
    arr = np.asarray(s, dtype=float)
    values = np.interp(arr.ravel(), density.grid_points(), density.grid_values,
                       left=DENSITY_FLOOR, right=DENSITY_FLOOR)
    np.maximum(values, DENSITY_FLOOR, out=values)
    return float(values[0]) if arr.ndim == 0 else values.reshape(arr.shape)


@dataclass(frozen=True)
class DensityModel:
    """Both class densities, on one grid (equal bounds and resolution), and the prior."""

    genuine: KdeDensity
    imposter: KdeDensity
    prior_genuine: float = 0.5

    def __post_init__(self):
        for key in ("grid_min", "grid_max", "grid_resolution"):
            got, want = getattr(self.imposter, key), getattr(self.genuine, key)
            if got != want:
                raise ValueError(f"imposter.{key} must equal genuine.{key}, got {got!r}, "
                                 f"not {want!r}")

    @property
    def prior_imposter(self) -> float:
        return 1.0 - self.prior_genuine


def fit_model(
    train,
    prior_genuine: float = 0.5,
    resolution: int = 4096,
    bandwidth: float | None = None,
) -> DensityModel:
    """Fit genuine and imposter KDEs over a shared grid.

    ``bandwidth`` is used for both classes; by default each class gets its
    own :func:`default_bandwidth`. The shared grid spans the union of both
    classes' data ranges, each padded by five of its own bandwidths.
    """
    if not 0.0 < prior_genuine < 1.0:
        raise ValueError(f"prior_genuine must be in (0, 1), got {prior_genuine}")
    g_scores = np.asarray(train.genuine_scores, dtype=float)
    f_scores = np.asarray(train.imposter_scores, dtype=float)
    if g_scores.size == 0:
        raise ValueError("training set has no genuine scores")
    if f_scores.size == 0:
        raise ValueError("training set has no imposter scores")

    if bandwidth is None:
        hg, hf = default_bandwidth(g_scores), default_bandwidth(f_scores)
        for name, scores, h in (("genuine", g_scores, hg), ("imposter", f_scores, hf)):
            if not math.isfinite(h):
                extreme = float(scores[np.argmax(np.abs(scores))])
                raise ValueError(f"{name} scores spread too widely for a bandwidth: their "
                                 f"standard deviation overflows (most extreme {extreme!r})")
    else:
        hg = hf = float(bandwidth)
    lo = min(g_scores.min() - _GRID_PAD_BANDWIDTHS * hg, f_scores.min() - _GRID_PAD_BANDWIDTHS * hf)
    hi = max(g_scores.max() + _GRID_PAD_BANDWIDTHS * hg, f_scores.max() + _GRID_PAD_BANDWIDTHS * hf)
    shared = (float(lo), float(hi))

    genuine = fit_kde(g_scores, bandwidth=hg, resolution=resolution, grid_range=shared)
    imposter = fit_kde(f_scores, bandwidth=hf, resolution=resolution, grid_range=shared)
    return DensityModel(genuine=genuine, imposter=imposter, prior_genuine=prior_genuine)


def _density_to_dict(density: KdeDensity) -> dict:
    return {"bandwidth": density.bandwidth, "grid_min": density.grid_min,
            "grid_max": density.grid_max, "grid_resolution": density.grid_resolution,
            "grid_values": density.grid_values.tolist()}


def _number(data: dict, field: str) -> float:
    """``data``'s number at ``field``, ``key`` or ``name.key``, which errors name.

    A missing key raises ``KeyError(field)``; a value that is not an ``int`` or ``float``
    (a ``bool`` is not), or is an ``int`` too large for a float, ``ValueError``.
    """
    key = field.rpartition(".")[2]
    if key not in data:
        raise KeyError(field)
    value = data[key]
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        return float(value)
    except (TypeError, OverflowError):
        raise ValueError(f"{field} must be a number, got {value!r}") from None


def _density_from_dict(data: dict, name: str) -> KdeDensity:
    """Rebuild one class density, naming the field (``name.key``) that is wrong."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object, got {type(data).__name__}")
    bandwidth, grid_min, grid_max, resolution = (
        _number(data, f"{name}.{key}")
        for key in ("bandwidth", "grid_min", "grid_max", "grid_resolution"))
    _check_grid(bandwidth, grid_min, grid_max, resolution, prefix=f"{name}.")
    if "grid_values" not in data:
        raise KeyError(f"{name}.grid_values")
    try:
        values = np.asarray(data["grid_values"])
        if (values.ndim != 1 or values.dtype.kind not in "iuf"
                or bool in map(type, data["grid_values"])):  # numpy takes true for 1.0
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(f"{name}.grid_values must be a list of numbers") from None
    if values.size != resolution:
        raise ValueError(f"{name}.grid_values has {values.size} values, expected {resolution:.0f}")
    density = KdeDensity(bandwidth, grid_min, grid_max, values.astype(float, copy=False))
    _check_values(density, prefix=f"{name}.")
    return density


def save_model(model: DensityModel, path: str | Path) -> None:
    """Serialize a model to JSON at format version ``MODEL_VERSION``.

    Every field round-trips bit-exactly (full-precision decimal repr), so
    ``load_model`` returns a model equal to the one saved.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "prior_genuine": model.prior_genuine,
        "genuine": _density_to_dict(model.genuine),
        "imposter": _density_to_dict(model.imposter),
    }
    with _replacing(path) as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str | Path) -> DensityModel:
    """Load a model saved with :func:`save_model`.

    Rejects, naming the field: a ``prior_genuine`` outside (0, 1), a class
    entry that is not an object, a field that is not a JSON number (a string or
    boolean is not), grid values that are not a flat list of numbers, and two
    classes on different grids. Each class must pass the one grid rule that
    :func:`fit_kde` applies too: a finite, positive bandwidth, finite bounds
    ``grid_min < grid_max`` whose span does not overflow, and a resolution that
    is a whole number >= 2; and the grid-value rule: values finite and >= 0, and
    no cell whose interpolation slope overflows.
    """
    path = Path(path)
    try:
        with path.open() as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from None

    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path} is not a {MODEL_FORMAT} file")
    version = doc.get("version")
    if version != MODEL_VERSION:
        raise ValueError(
            f"unsupported model version {version!r} in {path} (expected {MODEL_VERSION!r})"
        )
    try:
        prior_genuine = _number(doc, "prior_genuine")
        if not 0.0 < prior_genuine < 1.0:
            raise ValueError(f"prior_genuine must be in (0, 1), got {prior_genuine!r}")
        return DensityModel(
            genuine=_density_from_dict(doc["genuine"], "genuine"),
            imposter=_density_from_dict(doc["imposter"], "imposter"),
            prior_genuine=prior_genuine,
        )
    except KeyError as exc:
        raise ValueError(f"corrupt model file {path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from None
