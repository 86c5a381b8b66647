import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picscore import pic
from picscore.baselines import (
    DtcEstimator,
    ErbcEstimator,
    LrcEstimator,
    dtc_confidence,
    erbc_confidence,
    lrc_confidence,
)
from picscore.dataset import GENUINE, IMPOSTER, ScoreTable
from picscore.density import DensityModel, KdeDensity, eval_density, fit_model
from picscore.metrics import true_confidence
from picscore.pic import (
    decide,
    decision_confidence,
    fuse_groups,
    log_likelihood_ratio,
    pic_multi,
    pic_single,
    pic_threshold_for_fmr,
    pic_values,
)
from picscore.synth import SynthConfig, analytic_posterior, generate


def flat_density(values, lo=0.0, hi=1.0):
    """Grid density with hand-chosen values, for exact likelihood ratios."""
    arr = np.asarray(values, dtype=float)
    return KdeDensity(bandwidth=1.0, grid_min=lo, grid_max=hi, grid_values=arr)


def ratio_model(g_values, f_values):
    return DensityModel(genuine=flat_density(g_values), imposter=flat_density(f_values))


@pytest.fixture(scope="module")
def synth_model():
    config = SynthConfig(n_genuine=50000, n_imposter=50000, seed=11)
    return config, fit_model(generate(config))


class TestPicSingle:
    def test_equal_densities_give_half(self):
        scores = [0.2, 0.5, 0.8]
        model = fit_model(ScoreTable(scores + scores, [True] * 3 + [False] * 3))
        for s in (0.1, 0.5, 0.76):
            assert pic_single(model, s).value == pytest.approx(0.5, abs=1e-12)

    def test_synthetic_overlap_point(self, synth_model):
        config, model = synth_model
        # closed-form posterior sigmoid(50 * (s - 0.45)) at s = 0.47
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert pic_single(model, 0.47).value == pytest.approx(expected, abs=0.02)

    def test_deep_genuine_region(self, synth_model):
        config, model = synth_model
        top = float(generate(config).genuine_scores.max())
        assert pic_single(model, top).value >= 0.999

    def test_matches_vectorized_path(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 0.9, 50)
        vector = pic_values(model, points)
        for s, v in zip(points, vector):
            assert pic_single(model, float(s)).value == v

    def test_value_tracks_log_lr_sum(self, synth_model):
        _, model = synth_model
        for s in (0.3, 0.45, 0.62):
            result = pic_single(model, s)
            expected = 1.0 / (1.0 + math.exp(-result.log_lr_sum))  # equal priors
            assert result.value == pytest.approx(expected, abs=1e-12)


class TestLogLikelihoodRatio:
    """One sort and clip of the scores, then both class lookups: bit for bit the two
    lookups at the scores clipped to the grid."""

    QUERIES = [
        0.5,
        [0.7, 0.1, 0.7, -0.3, 1.4, 0.25, 0.1],
        [[0.9, 0.2], [0.2, 0.55]],
        [0.0, 1.0, -np.inf, np.inf, np.nan, 0.3],
    ]

    def models(self, synth_model):
        # A hand-built LLR that rises over three cells and falls over the
        # last, one that rises everywhere, and a fitted model.
        up_down = DensityModel(genuine=flat_density([0.1, 0.4, 2.0, 3.0, 0.5], lo=-0.5, hi=1.2),
                               imposter=flat_density([3.0, 1.0, 0.5, 0.2, 2.0], lo=-0.5, hi=1.2))
        return [up_down, ratio_model([1.0, 2.0, 4.0], [4.0, 2.0, 1.0]), synth_model[1]]

    @pytest.mark.parametrize("query", QUERIES, ids=["scalar", "unsorted", "2-D", "non-finite"])
    def test_matches_two_lookups(self, synth_model, query):
        for model in self.models(synth_model):
            # Off-grid scores are looked up at the nearest grid edge.
            clipped = np.clip(query, model.genuine.grid_min, model.genuine.grid_max)
            expected = (np.log(eval_density(model.genuine, clipped))
                        - np.log(eval_density(model.imposter, clipped)))
            got = log_likelihood_ratio(model, query)
            assert type(got) is type(expected)
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.shape(got) == np.shape(query)

    def test_sorts_once(self, synth_model):
        scores = np.random.default_rng(4).normal(0.4, 0.3, 1000)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            log_likelihood_ratio(synth_model[1], scores)
        assert argsort.call_count == 1


class TestOffGridPosterior:
    """A score beyond the grid gets exactly the posterior at the nearest grid edge."""

    @pytest.fixture(scope="class", params=[1, 2, 101])
    def model(self, request):
        return fit_model(generate(SynthConfig(n_genuine=50000, n_imposter=50000,
                                              seed=request.param)))

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_nearest_edge(self, model, data):
        lo, hi = model.genuine.grid_min, model.genuine.grid_max
        below = data.draw(st.lists(st.floats(max_value=lo, exclude_max=True), max_size=5))
        above = data.draw(st.lists(st.floats(min_value=hi, exclude_min=True), max_size=5))
        inside = data.draw(st.lists(st.floats(min_value=lo, max_value=hi), max_size=5))
        below += [-np.inf, np.nextafter(lo, -np.inf)]
        above += [np.inf, np.nextafter(hi, np.inf)]
        scores = np.array([*below, *above, *inside, np.nan])
        order = np.random.default_rng(len(scores)).permutation(scores.size)
        got = np.empty(scores.size)
        got[order] = pic_values(model, scores[order])

        edges = pic_values(model, [lo, hi])
        assert np.all(got[:len(below)] == edges[0])
        assert np.all(got[len(below):len(below) + len(above)] == edges[1])
        assert np.array_equal(got[-len(inside) - 1:-1], pic_values(model, inside))
        assert np.isnan(got[-1])
        assert pic_single(model, above[0]).value == edges[1]


class TestPicMulti:
    def test_reciprocal_ratios_cancel(self):
        model = ratio_model([0.3, 0.1], [0.1, 0.3])  # LR 3 at s=0, LR 1/3 at s=1
        assert pic_multi(model, [0.0, 1.0]).value == pytest.approx(0.5, abs=1e-15)

    def test_three_scores_ratio_two(self):
        model = ratio_model([0.4, 0.4], [0.2, 0.2])
        # brute-force product: L_g / (L_g + L_f)
        l_g, l_f = 0.4**3, 0.2**3
        expected = l_g / (l_g + l_f)  # 8/9
        assert expected == pytest.approx(8.0 / 9.0, abs=1e-15)
        assert pic_multi(model, [0.2, 0.5, 0.9]).value == pytest.approx(expected, abs=1e-12)

    def test_neutral_score_leaves_value_unchanged(self):
        model = ratio_model([0.4, 0.2, 0.3], [0.1, 0.2, 0.3])  # g == f on [0.5, 1]
        base = pic_multi(model, [0.0, 0.1]).value
        extended = pic_multi(model, [0.0, 0.1, 0.75]).value
        assert extended == base

    def test_singleton_equals_single(self, synth_model):
        _, model = synth_model
        for s in (0.25, 0.45, 0.7):
            assert pic_multi(model, [s]).value == pytest.approx(
                pic_single(model, s).value, abs=1e-12
            )
            assert pic_multi(model, [s]).log_lr_sum == pic_single(model, s).log_lr_sum

    def test_permutation_invariance_exact(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(5)
        scores = rng.uniform(0.1, 0.8, 40)
        shuffled = scores.copy()
        rng.shuffle(shuffled)
        assert pic_multi(model, scores).value == pic_multi(model, shuffled).value

    def test_log_space_matches_direct_product(self, synth_model):
        config, model = synth_model
        rng = np.random.default_rng(17)
        from picscore.density import eval_density

        for n in range(1, 6):
            scores = rng.uniform(0.15, 0.75, n)
            g = np.prod(eval_density(model.genuine, scores))
            f = np.prod(eval_density(model.imposter, scores))
            if g == 0.0 or f == 0.0:
                continue  # direct form underflowed; contract does not apply
            direct = g * 0.5 / (g * 0.5 + f * 0.5)
            assert pic_multi(model, scores).value == pytest.approx(direct, abs=1e-9)

    def test_empty_scores_error(self, synth_model):
        _, model = synth_model
        with pytest.raises(ValueError, match="at least one"):
            pic_multi(model, [])

    def test_non_finite_scores_error(self, synth_model):
        _, model = synth_model
        with pytest.raises(ValueError, match="finite"):
            pic_multi(model, [0.5, float("inf")])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_names_index(self, synth_model, bad):
        _, model = synth_model
        with pytest.raises(ValueError, match=f"^scores must be finite, got {bad!r} at index 2$"):
            fuse_groups(model, [0.5, 0.6, bad], [1, 2])

    @given(st.lists(st.floats(min_value=-0.5, max_value=1.5), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_value_always_in_unit_interval(self, scores):
        model = ratio_model([0.9, 0.05], [0.02, 0.7])
        value = pic_multi(model, scores).value
        assert 0.0 <= value <= 1.0

    def test_prior_sensitivity_strict(self):
        base = ratio_model([0.4, 0.4], [0.2, 0.2])
        values = []
        for prior in (0.2, 0.5, 0.8):
            model = DensityModel(
                genuine=base.genuine, imposter=base.imposter, prior_genuine=prior
            )
            values.append(pic_multi(model, [0.3, 0.6]).value)
        assert values[0] < values[1] < values[2]


class TestDecisionConfidence:
    def test_genuine_decision(self):
        pic = pic_score(0.9)
        assert decision_confidence(pic, 0.5) == (GENUINE, 0.9)

    def test_imposter_decision_complement(self):
        pic = pic_score(0.2)
        decision, confidence = decision_confidence(pic, 0.5)
        assert decision == IMPOSTER
        assert confidence == pytest.approx(0.8)

    def test_tie_decides_genuine(self):
        pic = pic_score(0.5)
        assert decision_confidence(pic, 0.5)[0] == GENUINE


class TestFuseGroups:
    def test_matches_pic_multi_per_group(self, synth_model):
        _, model = synth_model
        rng = np.random.default_rng(4)
        sizes = rng.integers(1, 15, 40)
        scores = rng.normal(0.45, 0.3, sizes.sum())
        values, sums = fuse_groups(model, scores, sizes)
        for g, group in enumerate(np.split(scores, np.cumsum(sizes)[:-1])):
            joint = pic_multi(model, group)
            assert values[g] == joint.value
            assert sums[g] == joint.log_lr_sum

    def test_independent_of_row_order(self, synth_model):
        """Within a group: the rows of each group shuffled among themselves."""
        _, model = synth_model
        rng = np.random.default_rng(5)
        sizes = np.full(25, 4)
        scores = rng.normal(0.45, 0.3, sizes.sum())
        shuffled = rng.permuted(scores.reshape(25, 4), axis=1).ravel()
        assert not np.array_equal(scores, shuffled)
        assert np.array_equal(fuse_groups(model, scores, sizes)[0],
                              fuse_groups(model, shuffled, sizes)[0])

    @pytest.mark.parametrize("sizes", [
        [1], [3], [2, 0], [3, -1], [1.0, 1.0], [[1, 1]], 2, [True, True],
        np.array([1, 1], dtype=object), [], [2**63 - 1, 2**63 - 1, 4],
    ], ids=["short", "over", "zero", "negative", "float", "2-d", "scalar", "bool", "object",
            "empty", "sum-wraps-to-2"])
    def test_rejects_bad_sizes(self, synth_model, sizes):
        _, model = synth_model
        with pytest.raises(ValueError, match="sizes must be a 1-d array of integers >= 1 "
                                             "summing to 2"):
            fuse_groups(model, [0.4, 0.5], sizes)


class TestDecide:
    def test_vectorized_rule(self):
        values = np.array([0.2, 0.5, 0.9, 0.49999])
        is_genuine, confidence = decide(values, 0.5)
        assert is_genuine.tolist() == [False, True, True, False]
        assert confidence.tolist() == [0.8, 0.5, 0.9, 1.0 - 0.49999]


def reference_sigmoid(z):
    """The out-of-place sigmoid that ``pic`` computed before it worked in place."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


FLOATS = st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e-300, 745.2, -745.2])),
                  max_size=20).map(np.array)


class TestInPlaceArithmetic:
    """The posterior and the decision rule, computed in their buffers, against the
    out-of-place arithmetic they replaced, bit for bit."""

    @given(FLOATS)
    @settings(max_examples=300, deadline=None)
    def test_sigmoid(self, z):
        from picscore.pic import _stable_sigmoid

        assert _stable_sigmoid(z.astype(float)).tobytes() == reference_sigmoid(z).tobytes()
        for value in z.tolist():
            assert math.isnan(value) or _stable_sigmoid(value) == float(reference_sigmoid(value))

    def test_pic_values(self, synth_model):
        _, model = synth_model
        scores = np.linspace(-1.0, 2.0, 10001)
        prior = math.log(model.prior_genuine) - math.log(model.prior_imposter)
        want = reference_sigmoid(log_likelihood_ratio(model, scores) + prior)
        assert pic_values(model, scores).tobytes() == want.tobytes()

    @given(FLOATS, st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_decide(self, values, threshold):
        is_genuine, confidence = decide(values, threshold)
        assert is_genuine.tolist() == (values >= threshold).tolist()
        assert confidence.tobytes() == np.where(values >= threshold, values, 1.0 - values).tobytes()


class TestBlocks:
    """The block-wise kernels with blocks far smaller than their input, against one block
    that holds it all: each element goes through the same operations, bit for bit."""

    @pytest.fixture(scope="class")
    def scores(self):
        scores = np.random.default_rng(8).normal(0.45, 0.4, 1000)
        scores[::97] = np.linspace(-1e300, 1e300, scores[::97].size)  # far beyond the grid
        return scores

    @staticmethod
    def in_blocks(rows, function):
        with mock.patch.object(pic, "_BLOCK_ROWS", rows):
            return function()

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_elementwise_kernels(self, synth_model, scores, rows):
        _, model = synth_model
        erbc = ErbcEstimator(0.5, np.linspace(0.0, 1.0, 2048), np.linspace(0.9, 0.0, 2048),
                             np.linspace(0.0, 0.8, 2048))
        kernels = [
            lambda: log_likelihood_ratio(model, scores),
            lambda: log_likelihood_ratio(model, scores.reshape(10, 100)),
            lambda: pic_values(model, scores),
            lambda: pic._stable_sigmoid(scores * 1000.0),
            lambda: true_confidence(model, scores, scores >= 0.5),
            lambda: dtc_confidence(DtcEstimator(0.5, 0.0, 1.0), scores),
            lambda: lrc_confidence(LrcEstimator(0.5, 0.0, 8.0), model, scores),
            lambda: erbc_confidence(erbc, scores),
        ]
        for kernel in kernels:
            want = self.in_blocks(1 << 30, kernel)
            got = self.in_blocks(rows, kernel)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_fuse_groups(self, synth_model, rows):
        _, model = synth_model
        rng = np.random.default_rng(9)
        sizes = rng.integers(1, 9, 120)
        sizes[[0, 50, -1]] = 150  # groups longer than several blocks, first and last among them
        scores = rng.normal(0.45, 0.3, sizes.sum())
        values, sums = self.in_blocks(rows, lambda: fuse_groups(model, scores, sizes))
        want_values, want_sums = self.in_blocks(1 << 30, lambda: fuse_groups(model, scores, sizes))
        assert values.tobytes() == want_values.tobytes()
        assert sums.tobytes() == want_sums.tobytes()
        assert sums.tolist() == [math.fsum(log_likelihood_ratio(model, group).tolist())
                                 for group in np.split(scores, np.cumsum(sizes)[:-1])]


def pic_score(value):
    from picscore.pic import PicScore

    return PicScore(value=value, n_comparisons=1, log_lr_sum=0.0)


class TestThresholdRule:
    def test_formula(self):
        assert pic_threshold_for_fmr(1e-3) == 0.999
        assert pic_threshold_for_fmr(0.5) == 0.5

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                pic_threshold_for_fmr(bad)


class TestOrderRelation:
    def test_monotone_over_supported_range(self, synth_model):
        # the log-LR of the fitted model rises over the well-sampled interval,
        # so ranking by posterior matches ranking by raw score there
        _, model = synth_model
        sweep = np.linspace(0.25, 0.65, 2001)
        values = pic_values(model, sweep)
        assert np.all(np.diff(values) > 0)

    def test_calibration_against_oracle(self, synth_model):
        config, model = synth_model
        test = generate(
            SynthConfig(n_genuine=20000, n_imposter=20000, seed=12)
        )
        scores = np.concatenate([test.genuine_scores, test.imposter_scores])
        gap = np.abs(pic_values(model, scores) - analytic_posterior(config, scores))
        assert np.mean(gap) <= 0.02
        assert np.quantile(gap, 0.99) <= 0.05
