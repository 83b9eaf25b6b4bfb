"""Tests for model terms, design matrices and the logistic fit."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskdiff.dataset import Cohort
from riskdiff.errors import (
    BadCovariateIndex,
    RankDeficientDesign,
    SeparationDetected,
)
from riskdiff.glm import (
    CARDIA_MODEL,
    RANK_BLOCK,
    FitResult,
    ModelSpec,
    Term,
    _r_factor,
    build_design,
    expit_stable,
    fit_logistic,
)


def make_cohort(rows):
    """rows: iterable of (y, z1, z2, x-tuple)."""
    y, z1, z2, x = zip(*rows)
    return Cohort.from_columns(y, z1, z2, x,
                               tuple(f"x{j + 1}" for j in range(len(x[0]))))


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

    @pytest.mark.parametrize("text,term", [
        ("x2*z2", Term("z2x", 2)),
        ("x01", Term("x", 1)),
        ("x+1", Term("x", 1)),
        (" z1 * x 2 ", Term("z1x", 2)),
        *((bad, "cannot parse model term") for bad in (
            "*x1", "x1*", "1*x1", "x1*1", "x1*x1", "z1*z2*x1", "z2*z1*z1",
            "Z1")),
        ("x", "invalid literal for int()"),
        ("xa", "invalid literal for int()"),
        ("x0", "needs a covariate index >= 1"),
        ("x-1", "needs a covariate index >= 1"),
    ])
    def test_grammar(self, text, term):
        """The accepted spellings and the message of each refusal."""
        if isinstance(term, Term):
            assert Term.parse(text) == term
        else:
            with pytest.raises(ValueError, match=re.escape(term)):
                Term.parse(text)

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
        with pytest.raises(BadCovariateIndex) as exc:
            build_design(cohort, ModelSpec.parse("z1,z2,x2"))
        assert (exc.value.index, exc.value.n_covariates) == (2, 1)

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

    def test_quasi_separated_covariate(self):
        # every x = 1 subject has an event and the x = 0 subjects are mixed:
        # the x coefficient grows without bound while the x = 0 logits stay
        # finite, so only the bound on the coefficients stops the fit
        X = np.column_stack([np.ones(40), np.r_[np.ones(10), np.zeros(30)]])
        y = np.r_[np.ones(22), np.zeros(18)]
        with pytest.raises(SeparationDetected, match="coefficient magnitude"):
            fit_logistic(X, y)

    def test_rank_deficient_design(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        y = (np.arange(10) % 2).astype(float)
        with pytest.raises(RankDeficientDesign):
            fit_logistic(X, y)

    @pytest.mark.parametrize("n", [8, 511, 512, 513, 1025, 5000])
    def test_blocked_r_matches_full_qr(self, n):
        rng = np.random.default_rng(n)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 7))])
        X[:, 3] *= 1e3
        full = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        blocked = np.abs(np.diag(_r_factor(X)))
        if n <= RANK_BLOCK:
            assert np.array_equal(blocked, full)
        assert np.max(np.abs(blocked - full) / full) < 1e-13

    def test_blocked_r_of_a_wide_design_terminates(self):
        # k > RANK_BLOCK / 2: blocks grow to 2k rows so the stack shrinks
        X = np.random.default_rng(1).normal(size=(1500, 300))
        full = np.abs(np.diag(np.linalg.qr(X, mode="r")))
        blocked = np.abs(np.diag(_r_factor(X)))
        assert np.max(np.abs(blocked - full) / full) < 1e-13

    def test_rank_deficient_design_in_blocks(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5000, 2))
        X = np.column_stack([np.ones(5000), x, x @ [0.5, -2.0]])
        y = (rng.random(5000) < 0.4).astype(float)
        with pytest.raises(RankDeficientDesign):
            fit_logistic(X, y)

    def test_more_terms_than_rows(self):
        with pytest.raises(RankDeficientDesign):
            fit_logistic(np.ones((1, 2)), np.array([1.0]))

    def test_as_many_rows_as_terms(self):
        # a full-rank square design fits every row exactly: that is
        # separation, not too few rows
        X = np.array([[1.0, 0.3, 1.2], [1.0, 1.1, -0.4], [1.0, -0.7, 0.5]])
        with pytest.raises(SeparationDetected):
            fit_logistic(X, np.array([1.0, 0.0, 1.0]))

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sigma_and_loglik_are_those_at_pi_hat(self, seed):
        # bit for bit: the inverse information and the log-likelihood of
        # the returned coefficients, recomputed from scratch
        rng = np.random.default_rng(seed)
        n = 1000 * seed
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2)),
                             rng.integers(0, 2, n)])
        eta = X @ rng.normal(scale=0.6, size=4)
        y = (rng.random(n) < expit_stable(eta)).astype(float)
        fit = fit_logistic(X, y)
        eta = X @ fit.pi_hat
        mu = expit_stable(eta)
        sigma = np.linalg.inv(X.T @ ((mu * (1.0 - mu))[:, None] * X))
        assert np.array_equal(fit.sigma_hat, (sigma + sigma.T) / 2.0)
        assert fit.loglik == float(y @ eta - np.sum(np.logaddexp(0.0, eta)))

    @pytest.mark.parametrize("seed", [1, 2, 3, 2503])
    def test_memory_layout_moves_no_bit(self, seed, cohort_rows_design):
        # the same values in Fortran order and as strided column views: the
        # fit's BLAS calls sum in an order set by the layout. Seed 2503 is
        # perfbench's cohort-rows input, where a strided y moves the fit.
        if seed == 2503:
            X, y = cohort_rows_design(seed)
        else:
            rng = np.random.default_rng(seed)
            n = 2000
            X = np.column_stack([np.ones(n), rng.normal(size=(n, 3)),
                                 rng.integers(0, 2, (n, 2))])
            eta = X @ rng.normal(scale=0.5, size=6)
            y = (rng.random(n) < expit_stable(eta)).astype(float)
        table = np.column_stack([y, X])  # rows 8 (k + 1) bytes apart
        base = fit_logistic(X, y)
        for X_, y_ in ((np.asfortranarray(X), y), (X, table[:, 0]),
                       (table[:, 1:], table[:, 0])):
            fit = fit_logistic(X_, y_)
            assert fit.pi_hat.tobytes() == base.pi_hat.tobytes()
            assert fit.sigma_hat.tobytes() == base.sigma_hat.tobytes()
            assert (fit.loglik, fit.iterations) == (base.loglik,
                                                    base.iterations)

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

    def test_matches_select_formula_bit_for_bit(self):
        def expit_where(eta):
            # the formula expit_stable used before it went select-free
            t = np.exp(-np.abs(eta))
            return np.where(eta >= 0, 1.0, t) / (1.0 + t)

        rng = np.random.default_rng(2)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            800.0, -800.0, 710.0, -710.0, 740.0, -740.0,
                            745.1, -745.1, 5e-324, -5e-324])
        blocks = [special, rng.normal(size=4096),
                  rng.normal(scale=40.0, size=4096),
                  rng.uniform(-760.0, 760.0, size=4096),
                  rng.standard_cauchy(size=(64, 64))]
        for eta in blocks:
            assert np.all(expit_stable(eta).view(np.uint64)
                          == expit_where(eta).view(np.uint64))


class TestCompleteSeparationOnTheLogitScale:
    """y = 1 exactly when a covariate of scale c is positive. The MLE does
    not exist, but the coefficient can stay below MAX_ABS_COEF while every
    fitted logit grows past it on the side of its outcome."""

    @pytest.mark.parametrize("scale", [10.0, 60.0])
    def test_separated_covariate_raises(self, scale):
        i = np.arange(60)
        z1, z2 = i % 2, (i // 2) % 2
        c = np.where((i // 4) % 2, scale, -scale)
        X = np.column_stack([np.ones(60), z1, z2, z1 * z2, c])
        with pytest.raises(SeparationDetected, match="completely separated"):
            fit_logistic(X, (c > 0).astype(float))
