"""Tests for quantiles, intervals, ellipses, terciles and the delta check."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdiff.effects import StandardizationSet, effect_triple
from riskdiff.errors import DegenerateCloud, EmptySamples, TooFewDraws
from riskdiff.fixtures import cardia_cohort, cardia_fit
from riskdiff.glm import CARDIA_MODEL, FitResult, ModelSpec
from riskdiff.inference import (
    IntervalEstimate,
    chi2_2df_quantile,
    confidence_ellipse,
    delta_method_check,
    histogram_csv,
    marginal_report,
    percentile_ci,
    quantile,
    tercile_masks,
    tercile_report,
)
from riskdiff.montecarlo import EffectDistribution, effect_distribution


def make_dist(te1, te2, int_, seed=0):
    te1, te2, int_ = (np.asarray(a, dtype=float) for a in (te1, te2, int_))
    return EffectDistribution(te1=te1, te2=te2, int_=int_,
                              n_draws=len(te1), seed=seed, source_hash="test")


class TestQuantile:
    def test_rank_interpolation(self):
        # h = 99 * 0.25 + 1 = 25.75 -> blend of order stats 25 and 26
        assert quantile(range(1, 101), 0.25) == pytest.approx(25.75)

    def test_extremes(self):
        s = [5.0, -1.0, 3.0]
        assert quantile(s, 0.0) == -1.0
        assert quantile(s, 1.0) == 5.0

    def test_single_sample(self):
        for p in (0.0, 0.3, 1.0):
            assert quantile([7.0], p) == 7.0

    def test_empty(self):
        with pytest.raises(EmptySamples):
            quantile([], 0.5)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.floats(0, 1))
    @settings(max_examples=100)
    def test_within_sample_range(self, samples, p):
        q = quantile(samples, p)
        assert min(samples) <= q <= max(samples)


class TestPercentileCi:
    def test_equal_tail_counts(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=1000)
        lo, hi = percentile_ci(s, 0.05)
        assert abs(int(np.sum(s < lo)) - 25) <= 1
        assert abs(int(np.sum(s > hi)) - 25) <= 1

    def test_symmetric_samples(self):
        s = np.linspace(-1, 1, 201)
        lo, hi = percentile_ci(s, 0.1)
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            percentile_ci([1.0, 2.0], 0.0)


class TestIntervalEstimate:
    def test_nesting_enforced(self):
        with pytest.raises(ValueError):
            IntervalEstimate(point=0.0, ci50=(-2.0, 2.0), ci95=(-1.0, 1.0))

    def test_to_dict(self):
        d = IntervalEstimate(0.1, (-0.1, 0.2), (-0.3, 0.4)).to_dict()
        assert d["level_convention"] == "equal-tail"
        assert d["ci50"] == [-0.1, 0.2]


class TestChi2Quantile:
    def test_alpha_05(self):
        assert chi2_2df_quantile(0.05) == pytest.approx(5.9915, abs=5e-5)
        assert chi2_2df_quantile(0.05) == -2.0 * math.log(0.05)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            chi2_2df_quantile(0.0)


class TestConfidenceEllipse:
    def _cloud(self, n=10 ** 5, seed=14):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, 2))

    def test_standard_normal_calibration(self):
        pairs = self._cloud()
        ell = confidence_ellipse(pairs, alpha=0.05)
        inside = np.fromiter((ell.contains(q) for q in pairs), dtype=bool)
        assert inside.mean() == pytest.approx(0.95, abs=0.005)

    def test_center_and_shape_are_moments(self):
        pairs = self._cloud(n=500)
        ell = confidence_ellipse(pairs, alpha=0.1)
        assert np.allclose(ell.center, pairs.mean(axis=0))
        assert np.allclose(ell.shape, np.cov(pairs, rowvar=False, ddof=1))
        assert ell.level == 0.9

    def test_contains_center(self):
        ell = confidence_ellipse(self._cloud(n=100), alpha=0.05)
        assert ell.contains(ell.center)

    def test_swap_symmetry(self):
        pairs = self._cloud(n=400)
        ell = confidence_ellipse(pairs, alpha=0.05)
        ell_swapped = confidence_ellipse(pairs[:, ::-1], alpha=0.05)
        for q in ([0.5, -1.0], [2.0, 2.0], [-3.0, 0.1]):
            assert ell.contains(q) == ell_swapped.contains(q[::-1])

    def test_collinear_cloud(self):
        t = np.linspace(0, 1, 50)
        with pytest.raises(DegenerateCloud):
            confidence_ellipse(np.column_stack([t, 2 * t + 1]), alpha=0.05)

    def test_boundary_points_on_ellipse(self):
        pairs = self._cloud(n=2000)
        ell = confidence_ellipse(pairs, alpha=0.05)
        for q in ell.boundary(32):
            d = q - ell.center
            m = float(d @ np.linalg.solve(ell.shape, d))
            assert m == pytest.approx(ell.quantile, rel=1e-8)

    def test_axes_recompose_shape(self):
        pairs = self._cloud(n=300)
        ell = confidence_ellipse(pairs, alpha=0.05)
        (h1, h2), (v1, v2) = ell.axes()
        recomposed = (np.outer(v1, v1) * h1 ** 2
                      + np.outer(v2, v2) * h2 ** 2) / ell.quantile
        assert np.allclose(recomposed, ell.shape, rtol=1e-10, atol=1e-12)


class TestMarginalReport:
    def test_point_is_passed_plug_in(self):
        rng = np.random.default_rng(1)
        dist = make_dist(rng.normal(size=500), rng.normal(size=500),
                         rng.normal(size=500))
        rep = marginal_report(dist, "int", point=0.123)
        assert rep.point == 0.123
        assert rep.ci95[0] <= rep.ci50[0] <= rep.ci50[1] <= rep.ci95[1]

    def test_degenerate_distribution(self):
        dist = make_dist(np.zeros(40), np.zeros(40), np.full(40, 0.2))
        rep = marginal_report(dist, "int", point=0.2)
        assert rep.ci50 == (0.2, 0.2)
        assert rep.ci95 == (0.2, 0.2)

    def test_intervals_match_percentile_ci(self):
        rng = np.random.default_rng(2)
        ints = rng.normal(size=999)
        dist = make_dist(np.zeros(999), np.zeros(999), ints)
        rep = marginal_report(dist, "int", point=0.0)
        assert rep.ci95 == percentile_ci(ints, 0.05)
        assert rep.ci50 == percentile_ci(ints, 0.5)


class TestTercileReport:
    def _dist(self, n=3000, rho=0.0, seed=3):
        rng = np.random.default_rng(seed)
        cond = rng.normal(size=n)
        ints = rho * cond + np.sqrt(1 - rho ** 2) * rng.normal(size=n)
        return make_dist(cond, np.zeros(n), ints)

    def test_too_few_draws(self):
        with pytest.raises(TooFewDraws):
            tercile_report(self._dist(n=29), "te1")

    def test_bad_conditioning(self):
        with pytest.raises(ValueError):
            tercile_report(self._dist(), "int")

    def test_stratum_sizes_balanced(self):
        dist = self._dist(n=1000)
        rep = tercile_report(dist, "te1")
        q1, q2 = rep.boundaries
        cond = dist.te1
        sizes = [int(np.sum(cond <= q1)),
                 int(np.sum((cond > q1) & (cond <= q2))),
                 int(np.sum(cond > q2))]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) <= 1

    def test_strata_partition_int_draws(self):
        dist = self._dist(n=900)
        rep = tercile_report(dist, "te1")
        q1, q2 = rep.boundaries
        masks = (dist.te1 <= q1,
                 (dist.te1 > q1) & (dist.te1 <= q2),
                 dist.te1 > q2)
        merged = np.sort(np.concatenate([dist.int_[m] for m in masks]))
        assert np.array_equal(merged, np.sort(dist.int_))

    def test_independent_cloud_has_equal_means(self):
        n = 30000
        dist = self._dist(n=n, rho=0.0, seed=8)
        rep = tercile_report(dist, "te1")
        tol = 4.0 / np.sqrt(n / 3)
        means = [s.point for s in rep.strata]
        assert max(means) - min(means) < 2 * tol

    def test_correlated_cloud_orders_means(self):
        rep = tercile_report(self._dist(rho=0.9), "te1")
        means = [s.point for s in rep.strata]
        assert means[0] < means[1] < means[2]

    def test_conditioning_on_te2(self):
        rng = np.random.default_rng(5)
        dist = make_dist(np.zeros(300), rng.normal(size=300),
                         rng.normal(size=300))
        rep = tercile_report(dist, "te2")
        assert rep.conditioning == "te2"
        assert rep.boundaries[0] < rep.boundaries[1]

    def test_to_dict_ranges(self):
        rep = tercile_report(self._dist(n=300), "te1")
        d = rep.to_dict()
        assert len(d["strata"]) == 3
        assert d["strata"][0]["range"].startswith("(-inf,")
        assert d["strata"][2]["range"].endswith("+inf)")


class TestDeltaMethodCheck:
    def _synthetic_fit(self, seed):
        from riskdiff.glm import build_design, expit_stable, fit_logistic
        from riskdiff.dataset import Cohort, SubjectRecord
        rng = np.random.default_rng(seed)
        spec = ModelSpec.parse("z1,z2,z1*z2,x1")
        records = []
        for _ in range(400):
            z1, z2 = int(rng.random() < 0.5), int(rng.random() < 0.5)
            x = float(rng.normal())
            eta = -0.2 + 0.6 * z1 - 0.8 * z2 + 0.3 * z1 * z2 + 0.4 * x
            records.append(SubjectRecord(
                int(rng.random() < expit_stable(eta)), z1, z2, (x,)))
        cohort = Cohort(tuple(records), ("x1",))
        X = build_design(cohort, spec)
        y = np.array([r.y for r in cohort.records], dtype=float)
        fit = fit_logistic(X, y, term_names=spec.names)
        return fit, spec, StandardizationSet.from_cohort(cohort)

    def test_zero_covariance_gives_zero_variance(self):
        fit, spec, std = self._synthetic_fit(0)
        frozen = FitResult(pi_hat=fit.pi_hat,
                           sigma_hat=np.zeros_like(fit.sigma_hat),
                           loglik=fit.loglik, iterations=fit.iterations,
                           converged=True, term_names=fit.term_names)
        var = delta_method_check(frozen, spec, std)
        assert var == {"te1": 0.0, "te2": 0.0, "int": 0.0}

    def test_matches_mc_variance(self):
        fit, spec, std = self._synthetic_fit(1)
        var = delta_method_check(fit, spec, std)
        dist = effect_distribution(fit, spec, std, n_draws=10 ** 4, seed=17)
        for w in ("te1", "te2", "int"):
            mc = float(np.var(dist.component(w), ddof=1))
            assert var[w] == pytest.approx(mc, rel=0.2)

    def test_exact_for_linear_functional(self):
        # delta variance of a coordinate functional equals the sigma entry;
        # verified through the finite-difference machinery by a tiny sigma
        fit, spec, std = self._synthetic_fit(2)
        var = delta_method_check(fit, spec, std)
        # independent gradient oracle at much smaller step
        k = len(fit.pi_hat)
        h = 1e-7

        def grad(component):
            g = np.empty(k)
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                up = effect_triple(fit.pi_hat + e, spec, std)
                dn = effect_triple(fit.pi_hat - e, spec, std)
                g[j] = (getattr(up, component) - getattr(dn, component)) / (2 * h)
            return g

        for w, attr in (("te1", "te1"), ("te2", "te2"), ("int", "int_")):
            g = grad(attr)
            assert var[w] == pytest.approx(float(g @ fit.sigma_hat @ g),
                                           rel=1e-4)


@pytest.fixture(scope="module")
def dist():
    fit = cardia_fit()
    std = StandardizationSet.from_cohort(cardia_cohort())
    return effect_distribution(fit, CARDIA_MODEL, std,
                               n_draws=10 ** 4, seed=1)


class TestFixturePipeline:
    """End-to-end inference values on the bundled reconstruction."""

    def test_int_intervals(self, dist):
        lo95, hi95 = percentile_ci(dist.int_, 0.05)
        assert lo95 == pytest.approx(-0.31, abs=0.05)
        assert hi95 == pytest.approx(0.34, abs=0.05)

    def test_ellipse_not_degenerate(self, dist):
        ell = confidence_ellipse(
            np.column_stack([dist.te1, dist.int_]), alpha=0.05)
        inside = np.mean([ell.contains(q)
                          for q in np.column_stack([dist.te1, dist.int_])])
        # the cloud is non-normal, so only sanity bounds are asserted
        assert 0.9 < inside < 1.0


class TestHistogramCsv:
    def test_counts_sum(self):
        rng = np.random.default_rng(6)
        s = rng.normal(size=500)
        lines = histogram_csv(s, n_bins=20).strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,count"
        assert len(lines) == 21
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 500


class TestTercileTies:
    def test_masks_closed_on_the_right(self):
        cond = np.array([0.0, 1.0, 1.5, 2.0, 3.0])
        lower, middle, upper = tercile_masks(cond, (1.0, 2.0))
        assert lower.tolist() == [True, True, False, False, False]
        assert middle.tolist() == [False, False, True, True, False]
        assert upper.tolist() == [False, False, False, False, True]

    def test_tied_draws_raise_empty_samples_without_warnings(self):
        rng = np.random.default_rng(4)
        dist = make_dist(np.full(60, 0.25), rng.normal(size=60),
                         rng.normal(size=60))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySamples, match="middle te1 tercile"):
                tercile_report(dist, "te1")
