"""Tests for the argument and invariant checks that reject bad input."""

import numpy as np
import pytest

from riskdiff import glm
from riskdiff.dataset import Cohort
from riskdiff.effects import StandardizationSet
from riskdiff.errors import NonFiniteFit, NotConverged
from riskdiff.fixtures import cardia_cohort, cardia_fit
from riskdiff.glm import (CARDIA_MODEL, FitResult, Term, build_design,
                          fit_logistic)
from riskdiff.inference import confidence_ellipse
from riskdiff.montecarlo import cholesky, effect_distribution, sample_parameters


def make_fit(pi, sigma):
    pi = np.asarray(pi, dtype=float)
    return FitResult(pi_hat=pi, sigma_hat=np.asarray(sigma, dtype=float),
                     loglik=0.0, iterations=1, converged=True,
                     term_names=tuple(f"b{j}" for j in range(len(pi))))


def two_group_design():
    """Intercept and a 0/1 column, with 10/30 and 20/30 events."""
    x = np.r_[np.zeros(30), np.ones(30)]
    y = np.r_[np.arange(30) < 10, np.arange(30) < 20].astype(float)
    return np.column_stack([np.ones(60), x]), y


class TestTerm:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown term kind 'z3'"):
            Term("z3")

    @pytest.mark.parametrize("kind", ["intercept", "z1", "z2", "z1z2"])
    def test_covariate_index_on_a_kind_without_one(self, kind):
        with pytest.raises(ValueError, match="takes no covariate index"):
            Term(kind, covariate=1)


class TestFitResult:
    def test_shapes_do_not_match(self):
        with pytest.raises(ValueError, match="dimension does not match"):
            make_fit([0.0, 0.0], np.eye(3))

    def test_negative_variance(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            make_fit([0.0, 0.0], np.diag([1.0, -1.0]))


class TestFitLogistic:
    def test_non_binary_outcome(self):
        X, y = two_group_design()
        y[0] = 2.0
        with pytest.raises(ValueError, match="binary"):
            fit_logistic(X, y)

    def test_not_converged(self, monkeypatch):
        monkeypatch.setattr(glm, "MAX_ITER", 1)
        with pytest.raises(NotConverged, match="after 1 iterations"):
            fit_logistic(*two_group_design())

    def test_non_finite_information_stops_the_fit(self, monkeypatch):
        """A covariate whose square overflows fails at the first iterate."""
        X, y = np.full((60, 1), 1e154), two_group_design()[1]
        solves = []
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *a: solves.append(a) or np.zeros(2))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteFit):
            fit_logistic(X, y)
        assert solves == []

    def test_non_finite_qr_factor_stops_the_fit(self, monkeypatch):
        """A covariate near the largest float gives a NaN R diagonal; the
        rank check refuses it before the first log-likelihood."""
        cohort = cardia_cohort()
        x = cohort.x.copy()
        x[0, 0] = 1.7e308
        X = build_design(Cohort.from_columns(cohort.y, cohort.z1, cohort.z2,
                                             x, cohort.covariate_names),
                         CARDIA_MODEL)
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(np.diag(glm._r_factor(X))))
        calls = []
        monkeypatch.setattr(glm, "_loglik", lambda *a: calls.append(a) or 0.0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteFit):
            fit_logistic(X, cohort.y)
        assert calls == []


def test_empty_standardization_set():
    with pytest.raises(ValueError, match="at least one row"):
        StandardizationSet(rows=np.empty((0, 3)))


@pytest.mark.parametrize("pairs", [np.zeros((5, 3)), np.zeros(5)],
                         ids=["three-columns", "one-dimensional"])
def test_ellipse_needs_n_by_2_pairs(pairs):
    with pytest.raises(ValueError, match="n-by-2"):
        confidence_ellipse(pairs, alpha=0.05)


def test_cholesky_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        cholesky(np.zeros((2, 3)))


class TestDrawCount:
    def test_sample_parameters(self):
        with pytest.raises(ValueError, match="n_draws must be >= 1"):
            sample_parameters(make_fit([0.0], [[1.0]]), n_draws=0, seed=1)

    def test_effect_distribution(self):
        std = StandardizationSet.from_cohort(cardia_cohort())
        with pytest.raises(ValueError, match="n_draws must be >= 1"):
            effect_distribution(cardia_fit(), CARDIA_MODEL, std, n_draws=0,
                                seed=1)
