"""Logistic model fitting with observed-information covariance.

The model is specified as an ordered list of terms over the two binary
exposures and the covariate columns (main effects, the exposure product,
and exposure-by-covariate products). Fitting is plain Newton iteration on
the Bernoulli log-likelihood with step-halving; the reported covariance is
the inverse of the observed information (negative Hessian) at the optimum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Cohort
from .errors import (
    BadCovariateIndex,
    NegativeStatisticBeyondTolerance,
    NotConverged,
    RankDeficientDesign,
    SeparationDetected,
)

MAX_ABS_COEF = 15.0        # |logit coefficient| beyond this flags separation
DEVIANCE_RTOL = 1e-10
MAX_ITER = 100
RANK_PIVOT_RTOL = 1e-10


@dataclass(frozen=True)
class Term:
    """One design-matrix column.

    kind is one of "intercept", "z1", "z2", "z1z2", "x", "z1x", "z2x";
    covariate is the 1-based covariate index for the x kinds.
    """

    kind: str
    covariate: int = 0

    _KINDS = ("intercept", "z1", "z2", "z1z2", "x", "z1x", "z2x")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        needs_cov = self.kind in ("x", "z1x", "z2x")
        if needs_cov and self.covariate < 1:
            raise ValueError(f"term {self.kind!r} needs a covariate index >= 1")
        if not needs_cov and self.covariate != 0:
            raise ValueError(f"term {self.kind!r} takes no covariate index")

    @property
    def name(self) -> str:
        if self.kind == "intercept":
            return "1"
        if self.kind == "z1z2":
            return "z1*z2"
        if self.kind == "x":
            return f"x{self.covariate}"
        if self.kind in ("z1x", "z2x"):
            return f"{self.kind[:2]}*x{self.covariate}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "Term":
        s = text.strip().replace(" ", "")
        if s == "1":
            return cls("intercept")
        if s in ("z1", "z2"):
            return cls(s)
        if s in ("z1*z2", "z2*z1"):
            return cls("z1z2")
        if "*" in s:
            a, b = s.split("*", 1)
            if a.startswith("x") and b in ("z1", "z2"):
                a, b = b, a
            if b.startswith("x") and a in ("z1", "z2"):
                return cls(a + "x", covariate=int(b[1:]))
            raise ValueError(f"cannot parse model term {text!r}")
        if s.startswith("x"):
            return cls("x", covariate=int(s[1:]))
        raise ValueError(f"cannot parse model term {text!r}")


@dataclass(frozen=True)
class ModelSpec:
    terms: tuple[Term, ...]

    def __post_init__(self):
        kinds = [t.kind for t in self.terms]
        for required in ("intercept", "z1", "z2"):
            if required not in kinds:
                raise ValueError(f"model must contain the {required!r} term")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate model terms")

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    @classmethod
    def parse(cls, text: str) -> "ModelSpec":
        """Parse a comma list like "z1,z2,z1*z2,x1,x2,x3,z1*x1".

        The intercept is implicit and always prepended.
        """
        terms = [Term("intercept")]
        for part in text.split(","):
            if part.strip():
                terms.append(Term.parse(part))
        return cls(terms=tuple(terms))


#: The exposure-product model with three covariates and one z1-by-age product,
#: matching the bundled cardia cohort fixture.
CARDIA_MODEL = ModelSpec.parse("z1,z2,z1*z2,x1,x2,x3,z1*x1")


def design_columns(spec: ModelSpec, z1, z2, rows) -> np.ndarray:
    """k-by-n design columns, one per model term, for n covariate rows.

    z1 and z2 are scalars (every row at the same exposures) or per-row
    arrays (each subject's observed exposures).
    """
    rows = np.asarray(rows, dtype=float)
    n, m = rows.shape
    # each term is an exposure factor times a covariate (or 1.0); multiplying
    # by 1.0 is exact, so this form changes no bits of any column
    exposure = {"intercept": 1.0, "z1": z1, "z2": z2, "z1z2": z1 * z2,
                "x": 1.0, "z1x": z1, "z2x": z2}
    cols = np.empty((spec.k, n))
    for j, t in enumerate(spec.terms):
        if t.covariate > m:
            raise BadCovariateIndex(t.covariate, m)
        x = rows[:, t.covariate - 1] if t.covariate else 1.0
        cols[j] = exposure[t.kind] * x
    return cols


def build_design(cohort: Cohort, spec: ModelSpec) -> np.ndarray:
    """n-by-k design matrix with one column per model term."""
    return np.ascontiguousarray(
        design_columns(spec, cohort.z1, cohort.z2, cohort.x).T)


@dataclass(frozen=True)
class FitResult:
    pi_hat: np.ndarray
    sigma_hat: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    term_names: tuple[str, ...]

    def __post_init__(self):
        k = len(self.pi_hat)
        if self.pi_hat.ndim != 1 or self.sigma_hat.shape != (k, k):
            raise ValueError("covariance dimension does not match coefficients")
        if not (np.all(np.isfinite(self.pi_hat))
                and np.all(np.isfinite(self.sigma_hat))):
            raise ValueError("coefficients and covariance must be finite")
        asym = np.max(np.abs(self.sigma_hat - self.sigma_hat.T))
        scale = max(np.max(np.abs(self.sigma_hat)), 1.0)
        if asym > 1e-10 * scale:
            raise ValueError("covariance not symmetric within tolerance")
        if np.any(np.diag(self.sigma_hat) < 0):
            raise ValueError("covariance has a negative diagonal entry")

    def to_json(self) -> str:
        return json.dumps({
            "terms": list(self.term_names),
            "coefficients": self.pi_hat.tolist(),
            "covariance": self.sigma_hat.flatten().tolist(),
            "loglik": self.loglik,
            "iterations": self.iterations,
            "converged": self.converged,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        d = json.loads(text)
        k = len(d["coefficients"])
        return cls(
            pi_hat=np.asarray(d["coefficients"], dtype=float),
            sigma_hat=np.asarray(d["covariance"], dtype=float).reshape(k, k),
            loglik=float(d.get("loglik", float("nan"))),
            iterations=int(d.get("iterations", 0)),
            converged=bool(d.get("converged", True)),
            term_names=tuple(d["terms"]),
        )


def _loglik(X, y, beta):
    eta = X @ beta
    # log(1 + exp(eta)) computed stably
    return float(y @ eta - np.sum(np.logaddexp(0.0, eta)))


def _check_rank(X):
    # pivoted QR via column norms of R from numpy's QR on the full matrix
    r = np.linalg.qr(X, mode="r")
    diag = np.abs(np.diag(r))
    if diag.size and np.min(diag) <= RANK_PIVOT_RTOL * np.max(diag):
        raise RankDeficientDesign(
            f"design matrix is rank deficient (pivot ratio "
            f"{np.min(diag) / np.max(diag):.2e})"
        )


def fit_logistic(X, y, term_names=None) -> FitResult:
    """Maximize the Bernoulli log-likelihood under the logit link.

    Newton steps with step-halving whenever the log-likelihood fails to
    increase; stops when the relative deviance change drops below
    DEVIANCE_RTOL or after MAX_ITER iterations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n < k:
        raise RankDeficientDesign(f"n={n} rows cannot identify k={k} terms")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcome vector must be binary")
    _check_rank(X)
    if term_names is None:
        term_names = tuple(f"b{j}" for j in range(k))

    beta = np.zeros(k)
    ll = _loglik(X, y, beta)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        eta = X @ beta
        mu = expit_stable(eta)
        w = mu * (1.0 - mu)
        grad = X.T @ (y - mu)
        hess = X.T @ (w[:, None] * X)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SeparationDetected(
                "observed information became singular during iteration"
            ) from None
        # step-halving: require the log-likelihood not to decrease
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_new = _loglik(X, y, cand)
            if ll_new >= ll:
                break
            scale *= 0.5
        beta = beta + scale * step
        if np.max(np.abs(beta)) > MAX_ABS_COEF:
            raise SeparationDetected(
                f"coefficient magnitude exceeded {MAX_ABS_COEF} on the logit "
                "scale; the likelihood appears unbounded"
            )
        rel = abs(ll_new - ll) / (abs(ll) + 1e-300)
        ll = ll_new
        if rel < DEVIANCE_RTOL:
            converged = True
            break
    if not converged:
        raise NotConverged(f"no convergence after {MAX_ITER} iterations")

    mu = expit_stable(X @ beta)
    w = mu * (1.0 - mu)
    info = X.T @ (w[:, None] * X)
    sigma = np.linalg.inv(info)
    sigma = (sigma + sigma.T) / 2.0
    return FitResult(pi_hat=beta, sigma_hat=sigma, loglik=ll,
                     iterations=iterations, converged=True,
                     term_names=tuple(term_names))


def expit_stable(eta):
    """Logistic transform that never overflows for large |eta|.

    With t = exp(-|eta|), this is 1 / (1 + t) for eta >= 0 and t / (1 + t)
    otherwise: one exp and one divide per entry.
    """
    eta = np.asarray(eta, dtype=float)
    t = np.empty_like(eta)
    np.exp(np.negative(np.abs(eta, out=t), out=t), out=t)
    mu = np.where(eta >= 0, 1.0, t)
    t += 1.0
    mu /= t
    return mu


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with integer df >= 1.

    The closed form of Q(df/2, x/2) for integer df, with h = x/2: even df
    gives exp(-h) * sum_{i < df/2} h^i / i!, and odd df gives
    erfc(sqrt(h)) plus exp(-h) * sum_{i < (df-1)/2} h^(i+1/2) / Gamma(i+3/2).
    Each term is the previous one times h / (i + 1) or h / (i + 3/2). Past
    x of about 1490, exp(-h) underflows and the sum reads 0; for df <= 20
    the true tail there is below 1e-300.
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if x <= 0:
        return 1.0
    h = x / 2.0
    if df % 2 == 0:
        total, term, offset = 0.0, math.exp(-h), 1.0
    else:
        total = math.erfc(math.sqrt(h))
        term, offset = math.exp(-h) * 2.0 * math.sqrt(h / math.pi), 1.5
    for i in range(int(df) // 2):
        total += term
        term *= h / (i + offset)
    return total


def lr_test(full: FitResult, reduced: FitResult, df: int) -> float:
    """Likelihood-ratio p-value for a nested model pair."""
    if df < 1:
        raise ValueError("df must be >= 1")
    stat = 2.0 * (full.loglik - reduced.loglik)
    if stat < -1e-8:
        raise NegativeStatisticBeyondTolerance(
            f"LR statistic {stat:.3e} < 0: models not nested or misconverged"
        )
    stat = max(stat, 0.0)
    return chi2_sf(stat, df)
