import math

import numpy as np
import pytest

from picscore.dataset import save_scores, split_subject_exclusive
from picscore.synth import (
    SynthConfig,
    analytic_fused_posterior,
    analytic_posterior,
    generate,
)


def decoded(column):
    """An id column's strings, ``values[codes]``."""
    return column.values[column.codes]


def normal_pdf(x, mu, sd):
    return math.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))


def per_row_csv(config):
    """The CSV of ``generate(config)`` as rows of per-row f-strings, its earlier construction."""
    rng = np.random.default_rng(config.seed)
    scores = np.concatenate([rng.normal(config.genuine_mean, config.genuine_std, config.n_genuine),
                             rng.normal(config.imposter_mean, config.imposter_std,
                                        config.n_imposter)])
    n = config.n_subjects
    lines = ["score,label,probe_id,reference_id,subject_a,subject_b"]
    for row, score in enumerate(scores.tolist()):
        is_genuine = row < config.n_genuine
        index = row if is_genuine else row - config.n_genuine
        kind = "g" if is_genuine else "i"
        group = index // config.refs_per_probe
        subject_a = group % n
        subject_b = subject_a if is_genuine else (subject_a + 1 + (group // n) % (n - 1)) % n
        lines.append(f"{score:.6f},{'genuine' if is_genuine else 'imposter'},{kind}p{group:07d},"
                     f"{kind}r{index:07d},S{subject_a:05d},S{subject_b:05d}")
    return ("\n".join(lines) + "\n").encode()


class TestGenerate:
    def test_determinism(self):
        config = SynthConfig(n_genuine=500, n_imposter=400, seed=9)
        a, b = generate(config), generate(config)
        assert a.score.tolist() == b.score.tolist()
        assert decoded(a.probe_id).tolist() == decoded(b.probe_id).tolist()

    def test_counts_exact(self):
        out = generate(SynthConfig(n_genuine=123, n_imposter=456, seed=1))
        assert out.n_genuine == 123
        assert out.n_imposter == 456

    def test_sample_mean_clt_bound(self):
        config = SynthConfig(n_genuine=100000, n_imposter=1, seed=5)
        out = generate(config)
        bound = 3 * config.genuine_std / math.sqrt(config.n_genuine)
        assert abs(out.genuine_scores.mean() - config.genuine_mean) < bound

    def test_subject_structure(self):
        out = generate(SynthConfig(n_genuine=60, n_imposter=60, seed=2, n_subjects=5))
        for is_genuine, subject_a, subject_b in zip(out.is_genuine, decoded(out.subject_a),
                                                    decoded(out.subject_b)):
            if is_genuine:
                assert subject_a == subject_b
            else:
                assert subject_a != subject_b

    def test_refs_per_probe_groups(self):
        out = generate(
            SynthConfig(n_genuine=50, n_imposter=50, seed=2, n_subjects=4, refs_per_probe=5)
        )
        genuine = zip(decoded(out.probe_id)[out.is_genuine], decoded(out.subject_b)[out.is_genuine])
        groups = {}
        for probe_id, subject_b in genuine:
            groups.setdefault((probe_id, subject_b), 0)
            groups[(probe_id, subject_b)] += 1
        assert set(groups.values()) == {5}

    @pytest.mark.parametrize("n_genuine, n_imposter, n_subjects, refs_per_probe", [
        (40, 30, 7, 1), (23, 17, 4, 5), (7, 5, 20, 1), (12, 9, 30, 5),
    ])
    def test_saved_bytes_match_per_row_strings(self, tmp_path, n_genuine, n_imposter, n_subjects,
                                               refs_per_probe):
        config = SynthConfig(n_genuine=n_genuine, n_imposter=n_imposter, seed=6,
                             n_subjects=n_subjects, refs_per_probe=refs_per_probe)
        save_scores(generate(config), tmp_path / "coded.csv")
        assert (tmp_path / "coded.csv").read_bytes() == per_row_csv(config)

    def test_split_applies(self):
        out = generate(SynthConfig(n_genuine=400, n_imposter=400, seed=3, n_subjects=20))
        train, test = split_subject_exclusive(out, 0.5, seed=0)
        assert train.n_genuine > 0 and test.n_genuine > 0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(genuine_std=0.0)
        with pytest.raises(ValueError):
            SynthConfig(genuine_mean=0.2, imposter_mean=0.7)
        with pytest.raises(ValueError):
            SynthConfig(n_genuine=0)
        with pytest.raises(ValueError):
            SynthConfig(n_subjects=1)
        with pytest.raises(ValueError):
            SynthConfig(refs_per_probe=0)
        # Non-finite: the field is named, before any other check.
        for name in ("genuine_mean", "imposter_mean", "genuine_std", "imposter_std"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
                    SynthConfig(**{name: value}, n_genuine=0)


class TestAnalyticPosterior:
    def test_midpoint_is_half(self):
        config = SynthConfig()
        assert analytic_posterior(config, 0.45) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_point(self):
        config = SynthConfig()
        assert analytic_posterior(config, 0.47) == pytest.approx(0.7310586, abs=1e-6)

    def test_matches_density_ratio_oracle(self):
        config = SynthConfig(genuine_std=0.15, imposter_std=0.08)
        for s in (-0.2, 0.1, 0.44, 0.9):
            g = normal_pdf(s, config.genuine_mean, config.genuine_std)
            f = normal_pdf(s, config.imposter_mean, config.imposter_std)
            assert analytic_posterior(config, s) == pytest.approx(g / (g + f), abs=1e-12)

    def test_prior_to_one_limit(self):
        config = SynthConfig()
        assert analytic_posterior(config, 0.1, prior_genuine=1.0 - 1e-12) > 0.999
        assert analytic_posterior(config, 0.1, prior_genuine=1.0) == 1.0

    def test_extreme_scores_stay_finite(self):
        config = SynthConfig()
        assert analytic_posterior(config, 1000.0) == 1.0
        assert analytic_posterior(config, -1000.0) == 0.0

    def test_vectorized(self):
        config = SynthConfig()
        out = analytic_posterior(config, np.array([0.2, 0.45, 0.7]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5, abs=1e-12)


class TestAnalyticFusedPosterior:
    def test_single_score_reduction(self):
        config = SynthConfig()
        for s in (0.1, 0.45, 0.8):
            assert analytic_fused_posterior(config, [s]) == pytest.approx(
                float(analytic_posterior(config, s)), abs=1e-15
            )

    def test_symmetric_pair_cancels(self):
        config = SynthConfig()
        assert analytic_fused_posterior(config, [0.45 - 0.07, 0.45 + 0.07]) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_three_scores_match_summed_logits(self):
        config = SynthConfig()
        scores = [0.3, 0.5, 0.66]
        logits = []
        for s in scores:
            p = float(analytic_posterior(config, s))
            logits.append(math.log(p) - math.log1p(-p))
        expected = 1.0 / (1.0 + math.exp(-sum(logits)))
        assert analytic_fused_posterior(config, scores) == pytest.approx(expected, abs=1e-9)

    def test_product_form_oracle(self):
        config = SynthConfig()
        scores = [0.42, 0.51, 0.48]
        l_g = math.prod(normal_pdf(s, 0.7, 0.1) for s in scores)
        l_f = math.prod(normal_pdf(s, 0.2, 0.1) for s in scores)
        assert analytic_fused_posterior(config, scores) == pytest.approx(
            l_g / (l_g + l_f), abs=1e-12
        )

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            analytic_fused_posterior(SynthConfig(), [])


class TestGeneratorOracleConsistency:
    def test_empirical_genuine_fraction_per_bin(self):
        # bin test samples by the oracle posterior; the genuine fraction in a
        # bin must match its mean posterior within binomial noise
        config = SynthConfig(n_genuine=50000, n_imposter=50000, seed=77)
        out = generate(config)
        scores = np.concatenate([out.genuine_scores, out.imposter_scores])
        is_genuine = np.concatenate(
            [np.ones(out.n_genuine, bool), np.zeros(out.n_imposter, bool)]
        )
        posterior = analytic_posterior(config, scores)
        bins = np.clip((posterior * 10).astype(int), 0, 9)
        for b in range(10):
            mask = bins == b
            count = mask.sum()
            if count < 200:
                continue
            expected = posterior[mask].mean()
            observed = is_genuine[mask].mean()
            sigma = math.sqrt(max(expected * (1 - expected), 1e-6) / count)
            assert abs(observed - expected) < 4 * sigma + 0.005
