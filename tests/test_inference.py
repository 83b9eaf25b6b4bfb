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
from riskdiff.glm import (CARDIA_MODEL, FitResult, ModelSpec,
                          design_columns, expit_stable)
from riskdiff.inference import (
    ConfidenceEllipse,
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
        # a point at squared distance equal to the quantile is inside too
        ell = ConfidenceEllipse(center=(0, 0), shape=np.eye(2), level=0.95,
                                quantile=1.0)
        assert ell.contains((1.0, 0.0))

    def test_swap_symmetry(self):
        pairs = self._cloud(n=400)
        ell = confidence_ellipse(pairs, alpha=0.05)
        ell_swapped = confidence_ellipse(pairs[:, ::-1], alpha=0.05)
        for q in ([0.5, -1.0], [2.0, 2.0], [-3.0, 0.1]):
            assert ell.contains(q) == ell_swapped.contains(q[::-1])

    def test_int_lists_give_the_float_array_ellipse(self):
        pairs = [[1, 2], [3, -1], [0, 0], [2, 5], [-4, 1]]
        got = confidence_ellipse(pairs, alpha=0.1).to_dict()
        assert got == confidence_ellipse(np.array(pairs, float),
                                         alpha=0.1).to_dict()

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_alpha_outside_the_open_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            confidence_ellipse(self._cloud(n=100), alpha)

    def test_collinear_cloud(self):
        t = np.linspace(0, 1, 50)
        # a constant cloud: its det and its threshold are both exactly 0
        for pairs in (np.column_stack([t, 2 * t + 1]), np.full((40, 2), 0.5)):
            with pytest.raises(DegenerateCloud):
                confidence_ellipse(pairs, alpha=0.05)

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
        from riskdiff.dataset import Cohort
        rng = np.random.default_rng(seed)
        spec = ModelSpec.parse("z1,z2,z1*z2,x1")
        rows = []
        for _ in range(400):
            z1, z2 = int(rng.random() < 0.5), int(rng.random() < 0.5)
            x = float(rng.normal())
            eta = -0.2 + 0.6 * z1 - 0.8 * z2 + 0.3 * z1 * z2 + 0.4 * x
            rows.append((int(rng.random() < expit_stable(eta)), z1, z2,
                         (x,)))
        cohort = Cohort.from_columns(*zip(*rows), ("x1",))
        X = build_design(cohort, spec)
        fit = fit_logistic(X, cohort.y, term_names=spec.names)
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

    def test_distinct_rows_match_all_rows_formula(self):
        # the fixture's 150 subjects share 25 distinct covariate rows; the
        # reference forms each gradient over every subject row
        fit, cohort = cardia_fit(), cardia_cohort()
        std = StandardizationSet.from_cohort(cohort)
        assert len(std.distinct) < std.n
        dm = {}
        for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            d = design_columns(CARDIA_MODEL, z1, z2, cohort.x)
            mu = expit_stable(fit.pi_hat @ d)
            dm[z1, z2] = d @ (mu * (1.0 - mu)) / cohort.n
        grads = {"te1": dm[1, 0] - dm[0, 0], "te2": dm[0, 1] - dm[0, 0],
                 "int": dm[1, 1] - dm[0, 1] - dm[1, 0] + dm[0, 0]}
        var = delta_method_check(fit, CARDIA_MODEL, std)
        assert var.keys() == grads.keys()
        for w, g in grads.items():
            assert var[w] == pytest.approx(float(g @ fit.sigma_hat @ g),
                                           rel=1e-12, abs=0)


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


class TestDiagonalEllipseAxes:
    """With b = 0 the axes are the coordinate axes, larger variance first."""

    def _ellipse(self, shape):
        return ConfidenceEllipse(center=np.zeros(2), shape=np.asarray(shape),
                                 level=0.95, quantile=chi2_2df_quantile(0.05))

    def test_isotropic_axes_are_orthogonal_and_on_the_ellipse(self):
        ell = self._ellipse(2.0 * np.eye(2))
        (h1, h2), (v1, v2) = ell.axes()
        assert np.linalg.norm(v1) == 1.0 and np.linalg.norm(v2) == 1.0
        assert v1 @ v2 == 0.0
        assert h1 == h2
        for q in ell.boundary(8):
            m = float(q @ np.linalg.solve(ell.shape, q))
            assert m == pytest.approx(ell.quantile, rel=1e-12)

    def test_larger_second_variance_comes_first(self):
        ell = self._ellipse(np.diag([1.0, 4.0]))
        (h1, h2), (v1, v2) = ell.axes()
        assert v1.tolist() == [0.0, 1.0] and v2.tolist() == [1.0, 0.0]
        assert h1 == pytest.approx(2.0 * h2)


def floor_frac_quantile(samples, p):
    """The hand-written rule quantile replaced by np.quantile, with the two
    order statistics it interpolates between."""
    s = np.sort(np.asarray(samples, dtype=float))
    h = (len(s) - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (h - lo) * (s[hi] - s[lo])), s[lo], s[hi]


REPORTED_P = (0.025, 0.25, 0.75, 0.975, 1.0 / 3.0, 2.0 / 3.0)


class TestQuantileReference:
    @given(n=st.integers(1, 500), seed=st.integers(0, 2 ** 32 - 1),
           distinct=st.sampled_from([None, 1, 2, 7]),
           extra=st.lists(st.floats(0, 1), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_floor_frac_rule(self, n, seed, distinct, extra):
        """np.quantile agrees with the floor/frac rule to within two
        spacings of the larger order statistic, and a sequence of p gives
        the scalar calls' values bit for bit. The samples span 18 decades
        of magnitude and both signs; with `distinct` set they tie, taking
        at most that many values."""
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.integers(-12, 1, n)
        if distinct:
            samples = rng.choice(samples[:distinct], n)
        ps = (*REPORTED_P, *extra)
        got = quantile(samples, ps)
        assert isinstance(got, tuple) and len(got) == len(ps)
        scalar = [quantile(samples, p) for p in ps]
        assert all(isinstance(q, float) for q in scalar)
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(scalar).view(np.uint64))
        for p, q in zip(ps, got):
            ref, a, b = floor_frac_quantile(samples, p)
            assert abs(q - ref) <= 2 * np.spacing(max(abs(a), abs(b))), p

    def test_interval_ends_are_percentile_ci_ends(self):
        s = np.random.default_rng(5).standard_normal(1001)
        est = IntervalEstimate.from_samples(0.0, s)
        assert est.ci50 == percentile_ci(s, 0.5)
        assert est.ci95 == percentile_ci(s, 0.05)

    def test_any_p_out_of_range_is_refused(self):
        for ps in ((0.5, 1.5), (-0.1, 0.5), (float("nan"),)):
            with pytest.raises(ValueError):
                quantile([1.0, 2.0], ps)


def closed_form_axes(shape, chi2):
    """The 2x2 closed-form eigensolve that ConfidenceEllipse.axes used."""
    a, b, c = shape[0, 0], shape[0, 1], shape[1, 1]
    tr, det = a + c, a * c - b * b
    disc = math.sqrt(max((tr / 2.0) ** 2 - det, 0.0))
    lam = (tr / 2.0 + disc, tr / 2.0 - disc)
    vecs = []
    for i, l in enumerate(lam):
        if abs(b) > 1e-300:
            v = np.array([l - c, b])
        else:
            v = np.eye(2)[i if a >= c else 1 - i]
        vecs.append(v / np.linalg.norm(v))
    return tuple(math.sqrt(l * chi2) for l in lam), tuple(vecs)


def rotated_shape(scale, ratio, theta):
    """R(theta) diag(scale, scale / ratio) R(theta)', entry by entry."""
    l1, l2 = scale, scale / ratio
    c, s = math.cos(theta), math.sin(theta)
    off = (l1 - l2) * c * s
    return np.array([[l1 * c * c + l2 * s * s, off],
                     [off, l1 * s * s + l2 * c * c]])


def _ellipse(shape):
    return ConfidenceEllipse(center=np.zeros(2), shape=shape, level=0.95,
                             quantile=chi2_2df_quantile(0.05))


# 1e-6 to pi/4 rad either side of a coordinate axis: near-diagonal shapes
# down to 1e-6, below which the closed form loses the directions
angles = st.tuples(st.floats(-6.0, math.log10(math.pi / 4)),
                   st.sampled_from([-1.0, 1.0]),
                   st.sampled_from([0.0, math.pi / 2])).map(
    lambda t: t[1] * 10.0 ** t[0] + t[2])


class TestAxesReference:
    @given(log_scale=st.floats(-8.0, 4.0), log_ratio=st.floats(
               math.log10(1.1), 3.0), theta=angles)
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, log_scale, log_ratio, theta):
        """On SPD shapes with axis ratios from 1.1 to 1e3, rotated or
        near-diagonal, eigh's axes are the closed form's to 1e-12. Nearer
        to isotropic, or to diagonal, the closed form's (l - c, b) loses
        the directions to cancellation."""
        shape = rotated_shape(10.0 ** log_scale, 10.0 ** log_ratio, theta)
        ell = _ellipse(shape)
        (h1, h2), (v1, v2) = ell.axes()
        (g1, g2), (w1, w2) = closed_form_axes(shape, ell.quantile)
        assert h1 == pytest.approx(g1, rel=1e-12)
        assert h2 == pytest.approx(g2, rel=1e-12)
        assert abs(v1 @ w1) == pytest.approx(1.0, abs=1e-12)
        assert abs(v2 @ w2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("diagonal", [(3.0, 1.0), (1.0, 3.0),
                                          (2.0, 2.0), (5e-9, 5e-9)])
    def test_diagonal_and_isotropic_shapes(self, diagonal):
        """On diagonal shapes both give the coordinate axes; on an isotropic
        one, where every direction is an axis, the same pair in some order."""
        ell = _ellipse(np.diag(diagonal))
        (h1, h2), (v1, v2) = ell.axes()
        (g1, g2), (w1, w2) = closed_form_axes(ell.shape, ell.quantile)
        assert (h1, h2) == pytest.approx((g1, g2), rel=1e-12)
        if h1 != h2:
            assert abs(v1 @ w1) == abs(v2 @ w2) == 1.0
        else:
            assert {tuple(np.abs(v1)), tuple(np.abs(v2))} == \
                {tuple(np.abs(w1)), tuple(np.abs(w2))}
        assert v1 @ v2 == 0.0

    @pytest.mark.parametrize("theta", [1e-15, 1e-12, 1e-9, 1e-7,
                                       math.pi / 2 - 1e-12])
    def test_near_diagonal_directions_follow_the_rotation(self, theta):
        """eigh's long axis is the rotation's first column to 1e-12, even
        where the closed form's (l - c, b) loses it to cancellation."""
        ell = _ellipse(rotated_shape(2.0, 1.5, theta))
        _, (v1, v2) = ell.axes()
        u1 = np.array([math.cos(theta), math.sin(theta)])
        assert abs(v1[0] * u1[1] - v1[1] * u1[0]) <= 1e-12
        assert abs(v1 @ v2) <= 1e-15
