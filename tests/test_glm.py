"""Tests for model terms, design matrices, the logistic fit and LR tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from riskdiff.dataset import Cohort, SubjectRecord
from riskdiff.errors import (
    BadCovariateIndex,
    NegativeStatisticBeyondTolerance,
    RankDeficientDesign,
    SeparationDetected,
)
from riskdiff.glm import (
    CARDIA_MODEL,
    FitResult,
    ModelSpec,
    Term,
    build_design,
    chi2_sf,
    expit_stable,
    fit_logistic,
    lr_test,
)


def make_cohort(rows):
    """rows: iterable of (y, z1, z2, x-tuple)."""
    records = tuple(SubjectRecord(y, z1, z2, tuple(map(float, x)))
                    for y, z1, z2, x in rows)
    names = tuple(f"x{j + 1}" for j in range(len(records[0].x)))
    return Cohort(records, names)


class TestTermParsing:
    @pytest.mark.parametrize("text,term", [
        ("z1", Term("z1")),
        ("z2", Term("z2")),
        ("z1*z2", Term("z1z2")),
        ("z2*z1", Term("z1z2")),
        ("x3", Term("x", 3)),
        ("z1*x1", Term("z1x", 1)),
        ("x1*z1", Term("z1x", 1)),
        ("z2*x2", Term("z2x", 2)),
        ("1", Term("intercept")),
    ])
    def test_parse(self, text, term):
        assert Term.parse(text) == term

    def test_parse_rejects_garbage(self):
        for bad in ("z3", "x0*x1", "z1*z1*z2", ""):
            with pytest.raises(ValueError):
                Term.parse(bad)

    def test_names(self):
        assert [t.name for t in CARDIA_MODEL.terms] == \
            ["1", "z1", "z2", "z1*z2", "x1", "x2", "x3", "z1*x1"]

    def test_model_requires_exposure_terms(self):
        with pytest.raises(ValueError):
            ModelSpec.parse("z1,x1")  # no z2

    def test_model_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ModelSpec.parse("z1,z2,z1")


class TestBuildDesign:
    def test_full_model_row(self):
        cohort = make_cohort([(0, 1, 0, (67, 1, 0))])
        row = build_design(cohort, CARDIA_MODEL)[0]
        assert row.tolist() == [1, 1, 0, 0, 67, 1, 0, 67]

    def test_unexposed_row(self):
        cohort = make_cohort([(0, 0, 0, (50, 0, 1))])
        row = build_design(cohort, CARDIA_MODEL)[0]
        assert row.tolist() == [1, 0, 0, 0, 50, 0, 1, 0]

    def test_all_zero_record(self):
        cohort = make_cohort([(0, 0, 0, (0, 0, 0))])
        row = build_design(cohort, CARDIA_MODEL)[0]
        assert row.tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_bad_covariate_index(self):
        cohort = make_cohort([(0, 0, 0, (1.0,))])
        with pytest.raises(BadCovariateIndex):
            build_design(cohort, ModelSpec.parse("z1,z2,x2"))

    def test_all_seven_term_kinds(self):
        spec = ModelSpec.parse("z1,z2,z1*z2,x2,z1*x1,z2*x2")
        cohort = make_cohort([(0, 1, 1, (3.0, -2.0)),
                              (1, 1, 0, (0.5, 4.0)),
                              (0, 0, 1, (-1.0, 0.25))])
        X = build_design(cohort, spec)
        assert X.tolist() == [[1, 1, 1, 1, -2.0, 3.0, -2.0],
                              [1, 1, 0, 0, 4.0, 0.5, 0.0],
                              [1, 0, 1, 0, 0.25, 0.0, 0.25]]
        assert X.flags["C_CONTIGUOUS"]


def grouped_design(counts):
    """Expand {(x,): (events, total)} into a design with intercept + x."""
    X, y = [], []
    for (x,), (events, total) in counts.items():
        for i in range(total):
            X.append([1.0, float(x)])
            y.append(1 if i < events else 0)
    return np.array(X), np.array(y)


class TestFitLogistic:
    def test_saturated_two_by_two(self):
        # closed form: intercept = log-odds at x=0, slope = log odds ratio
        X, y = grouped_design({(0,): (10, 30), (1,): (20, 30)})
        fit = fit_logistic(X, y)
        assert fit.pi_hat[0] == pytest.approx(math.log(10 / 20), abs=1e-6)
        assert fit.pi_hat[1] == pytest.approx(
            math.log((20 / 10) / (10 / 20)), abs=1e-6)
        assert fit.converged

    def test_balanced_independence_gives_zeros(self):
        X = np.array([[1, 0], [1, 0], [1, 1], [1, 1]], dtype=float)
        y = np.array([0, 1, 0, 1], dtype=float)
        fit = fit_logistic(X, y)
        assert np.max(np.abs(fit.pi_hat)) < 1e-8

    def test_all_events_is_separation(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.ones(3)
        with pytest.raises(SeparationDetected):
            fit_logistic(X, y)

    def test_perfectly_separated_covariate(self):
        X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
        y = np.r_[np.zeros(10), np.ones(10)]
        with pytest.raises(SeparationDetected):
            fit_logistic(X, y)

    def test_rank_deficient_design(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        y = (np.arange(10) % 2).astype(float)
        with pytest.raises(RankDeficientDesign):
            fit_logistic(X, y)

    def test_more_terms_than_rows(self):
        with pytest.raises(RankDeficientDesign):
            fit_logistic(np.ones((1, 2)), np.array([1.0]))

    def test_score_equation_at_optimum(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        eta = X @ np.array([-0.3, 0.8, -0.5])
        y = (rng.random(200) < expit_stable(eta)).astype(float)
        fit = fit_logistic(X, y)
        mu = expit_stable(X @ fit.pi_hat)
        assert np.max(np.abs(X.T @ (y - mu))) < 1e-6

    def test_covariance_matches_fd_hessian(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = np.column_stack([np.ones(300), rng.normal(size=(300, 2))])
            eta = X @ rng.normal(scale=0.7, size=3)
            y = (rng.random(300) < expit_stable(eta)).astype(float)
            fit = fit_logistic(X, y)

            def ll(beta):
                e = X @ beta
                return y @ e - np.sum(np.logaddexp(0.0, e))

            k = len(fit.pi_hat)
            h = 1e-5
            H = np.empty((k, k))
            for a in range(k):
                for b in range(k):
                    ea, eb = np.zeros(k), np.zeros(k)
                    ea[a], eb[b] = h, h
                    H[a, b] = (ll(fit.pi_hat + ea + eb)
                               - ll(fit.pi_hat + ea - eb)
                               - ll(fit.pi_hat - ea + eb)
                               + ll(fit.pi_hat - ea - eb)) / (4 * h * h)
            sigma_fd = np.linalg.inv(-H)
            rel = np.max(np.abs(fit.sigma_hat - sigma_fd)) \
                / np.max(np.abs(sigma_fd))
            assert rel < 1e-4

    def test_permuted_rows_same_fit(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(120), rng.normal(size=120)])
        y = (rng.random(120) < 0.4).astype(float)
        fit = fit_logistic(X, y)
        perm = rng.permutation(120)
        fit_p = fit_logistic(X[perm], y[perm])
        assert np.max(np.abs(fit.pi_hat - fit_p.pi_hat)) < 1e-10

    def test_fitted_probabilities_interior(self):
        X, y = grouped_design({(0,): (3, 9), (1,): (5, 9)})
        fit = fit_logistic(X, y)
        mu = expit_stable(X @ fit.pi_hat)
        assert np.all(mu > 0) and np.all(mu < 1)


class TestFitResultSerialization:
    def test_json_round_trip(self):
        X, y = grouped_design({(0,): (10, 30), (1,): (20, 30)})
        fit = fit_logistic(X, y, term_names=("1", "x1"))
        back = FitResult.from_json(fit.to_json())
        assert back.term_names == fit.term_names
        assert np.array_equal(back.pi_hat, fit.pi_hat)
        assert np.array_equal(back.sigma_hat, fit.sigma_hat)
        assert back.loglik == fit.loglik

    def test_covariance_row_major(self):
        fit = FitResult(pi_hat=np.array([0.0, 0.0]),
                        sigma_hat=np.array([[2.0, 0.5], [0.5, 1.0]]),
                        loglik=0.0, iterations=1, converged=True,
                        term_names=("1", "z1"))
        assert json.loads(fit.to_json())["covariance"] == [2.0, 0.5, 0.5, 1.0]

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            FitResult(pi_hat=np.zeros(2),
                      sigma_hat=np.array([[1.0, 0.3], [0.1, 1.0]]),
                      loglik=0.0, iterations=1, converged=True,
                      term_names=("1", "z1"))

    @pytest.mark.parametrize("pi,sigma", [
        ([0.0, np.nan], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
        ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_rejects_non_finite(self, pi, sigma):
        with pytest.raises(ValueError, match="finite"):
            FitResult(pi_hat=np.array(pi), sigma_hat=np.array(sigma),
                      loglik=0.0, iterations=1, converged=True,
                      term_names=("1", "z1"))


class TestChiSquare:
    def test_df2_closed_form(self):
        assert chi2_sf(5.991, 2) == pytest.approx(math.exp(-5.991 / 2))
        assert chi2_sf(5.991, 2) == pytest.approx(0.0500, abs=5e-4)

    def test_df1_oracle(self):
        # 2 * standard-normal tail at sqrt(1.642); value from erfc
        expected = math.erfc(math.sqrt(1.642 / 2.0))
        assert chi2_sf(1.642, 1) == pytest.approx(expected, rel=1e-10)
        assert chi2_sf(1.642, 1) == pytest.approx(0.200, abs=5e-4)

    def test_nonpositive_statistic(self):
        assert chi2_sf(0.0, 3) == 1.0

    def test_closed_form_matches_gammaincc(self):
        xs = np.concatenate([np.geomspace(1e-8, 1.0, 17),
                             np.linspace(0.01, 400.0, 801)])
        for df in range(1, 60):
            got = [chi2_sf(x, df) for x in xs.tolist()]
            np.testing.assert_allclose(got, gammaincc(df / 2.0, xs / 2.0),
                                       rtol=1e-13, atol=0)

    @pytest.mark.parametrize("df", [0, -1, 1.5])
    def test_rejects_non_positive_integer_df(self, df):
        with pytest.raises(ValueError, match="df"):
            chi2_sf(1.0, df)


class TestLrTest:
    def _fits(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(150), rng.normal(size=(150, 2))])
        y = (rng.random(150) < expit_stable(X @ np.array([0.2, 0.6, 0.0])))
        full = fit_logistic(X, y.astype(float))
        reduced = fit_logistic(X[:, :2], y.astype(float))
        return full, reduced

    def test_identical_models(self):
        full, _ = self._fits()
        assert lr_test(full, full, df=1) == 1.0

    def test_nested_pair(self):
        full, reduced = self._fits()
        stat = 2.0 * (full.loglik - reduced.loglik)
        assert lr_test(full, reduced, df=1) == pytest.approx(
            chi2_sf(stat, 1))

    def test_reversed_nesting_rejected(self):
        full, reduced = self._fits()
        with pytest.raises(NegativeStatisticBeyondTolerance):
            lr_test(reduced, full, df=1)


class TestExpitStable:
    @given(st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=100)
    def test_range_and_symmetry(self, eta):
        p = float(expit_stable(eta))
        assert 0.0 <= p <= 1.0
        assert p + float(expit_stable(-eta)) == pytest.approx(1.0, abs=1e-12)

    def test_saturation_no_overflow(self):
        assert float(expit_stable(40.0)) == pytest.approx(1.0, abs=1e-12)
        assert float(expit_stable(-750.0)) == 0.0
