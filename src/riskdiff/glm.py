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
    NonFiniteFit,
    NotConverged,
    RankDeficientDesign,
    SeparationDetected,
)

MAX_ABS_COEF = 15.0        # |logit coefficient| beyond this flags separation
DEVIANCE_RTOL = 1e-10
MAX_ITER = 100
RANK_PIVOT_RTOL = 1e-10
RANK_BLOCK = 512          # rows per QR call in the rank check
#: Exposure factor of each term kind; a kind ending in "x" is that factor
#: times a covariate, any other kind is the factor itself.
_EXPOSURE = {"intercept": "1", "z1": "z1", "z2": "z2", "z1z2": "z1*z2",
             "x": "1", "z1x": "z1", "z2x": "z2"}


@dataclass(frozen=True)
class Term:
    """One design-matrix column.

    kind is a key of _EXPOSURE; covariate is the 1-based covariate index
    for the kinds ending in "x".
    """

    kind: str
    covariate: int = 0

    def __post_init__(self):
        if self.kind not in _EXPOSURE:
            raise ValueError(f"unknown term kind {self.kind!r}")
        needs_cov = self.kind.endswith("x")
        if needs_cov and self.covariate < 1:
            raise ValueError(f"term {self.kind!r} needs a covariate index >= 1")
        if not needs_cov and self.covariate != 0:
            raise ValueError(f"term {self.kind!r} takes no covariate index")

    @property
    def name(self) -> str:
        """The exposure factor, or x{c}, or factor*x{c}."""
        factor, c = _EXPOSURE[self.kind], self.covariate
        if not c:
            return factor
        return f"x{c}" if factor == "1" else f"{factor}*x{c}"

    @classmethod
    def parse(cls, text: str) -> "Term":
        """The term whose '*'-factors, in any order and spacing, are one
        kind's exposure factor as name writes it and at most one x{c}."""
        factors = text.strip().replace(" ", "").split("*")
        covs = [f for f in factors if f.startswith("x")]
        exposure = "*".join(sorted(f for f in factors if f not in covs))
        kinds = [k for k, f in _EXPOSURE.items()
                 if k.endswith("x") == bool(covs)
                 and exposure == ("" if k == "x" else f)]
        if "" in factors or len(covs) > 1 or not kinds:
            raise ValueError(f"cannot parse model term {text!r}")
        return cls(kinds[0], *(int(c[1:]) for c in covs))


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
    """k-by-n design columns, one per model term, for n-by-m float rows.

    z1 and z2 are scalars (every row at the same exposures) or per-row
    arrays (each subject's observed exposures).
    """
    n, m = rows.shape
    # multiplying by a factor of 1.0 is exact, so this changes no column bits
    factor = {"1": 1.0, "z1": z1, "z2": z2, "z1*z2": z1 * z2}
    cols = np.empty((spec.k, n))
    for j, t in enumerate(spec.terms):
        if t.covariate > m:
            raise BadCovariateIndex(t.covariate, m)
        x = rows[:, t.covariate - 1] if t.covariate else 1.0
        cols[j] = factor[_EXPOSURE[t.kind]] * x
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


def _loglik(y, eta):
    # log(1 + exp(eta)) computed stably
    return float(y @ eta - np.sum(np.logaddexp(0.0, eta)))


def _r_factor(X):
    """R of X's QR, up to the signs of its rows, reduced in row blocks.

    The R of each block of RANK_BLOCK rows, then the R of the stacked Rs,
    until one call remains, so that no LAPACK call is big enough to thread;
    for n <= RANK_BLOCK this is one call on X itself. A block has at least
    2k rows, so each round at least halves the stack.
    """
    block = max(RANK_BLOCK, 2 * X.shape[1])
    while len(X) > block:
        X = np.vstack([np.linalg.qr(X[i:i + block], mode="r")
                       for i in range(0, len(X), block)])
    return np.linalg.qr(X, mode="r")


def _check_rank(X):
    diag = np.abs(np.diag(_r_factor(X)))
    if not np.all(np.isfinite(diag)):
        raise NonFiniteFit("the design's QR factor is not finite: the "
                           "covariates' scale overflows floating point")
    if diag.size and np.min(diag) <= RANK_PIVOT_RTOL * np.max(diag):
        raise RankDeficientDesign(
            f"design matrix is rank deficient (pivot ratio "
            f"{np.min(diag) / np.max(diag):.2e})"
        )


def check_coefficient_bound(beta):
    """Raise SeparationDetected if any |coefficient| exceeds MAX_ABS_COEF."""
    if np.max(np.abs(beta)) > MAX_ABS_COEF:
        raise SeparationDetected(
            f"coefficient magnitude exceeded {MAX_ABS_COEF} on the logit "
            "scale; the likelihood appears unbounded")


def fit_logistic(X, y, term_names=None) -> FitResult:
    """Maximize the Bernoulli log-likelihood under the logit link.

    Newton steps with step-halving whenever the log-likelihood fails to
    increase, forming each iterate's X @ beta once. The convergence test
    (the last step changed the log-likelihood by less than DEVIANCE_RTOL
    relative, within MAX_ITER steps) comes after the information at the
    current beta is formed; sigma_hat is the inverse of that information.
    """
    # BLAS sums in an order that depends on the memory layout: copy to C order
    X = np.ascontiguousarray(X, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n, k = X.shape
    if n < k:
        raise RankDeficientDesign(f"n={n} rows cannot identify k={k} terms")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcome vector must be binary")
    _check_rank(X)
    if term_names is None:
        term_names = tuple(f"b{j}" for j in range(k))

    beta = np.zeros(k)
    eta = X @ beta
    ll = _loglik(y, eta)
    rel = math.inf
    for iterations in range(MAX_ITER + 1):
        mu = expit_stable(eta)
        w = mu * (1.0 - mu)
        info = X.T @ (w[:, None] * X)
        if not (math.isfinite(ll) and np.all(np.isfinite(info))):
            raise NonFiniteFit(
                "the log-likelihood or the observed information is not "
                "finite: the covariates' scale overflows floating point")
        if rel < DEVIANCE_RTOL:
            break
        if iterations == MAX_ITER:
            raise NotConverged(f"no convergence after {MAX_ITER} iterations")
        grad = X.T @ (y - mu)
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise SeparationDetected(
                "observed information became singular during iteration"
            ) from None
        # step-halving: require the log-likelihood not to decrease
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            eta = X @ cand
            ll_new = _loglik(y, eta)
            if ll_new >= ll:
                break
            scale *= 0.5
        beta = cand
        check_coefficient_bound(beta)
        rel = abs(ll_new - ll) / (abs(ll) + 1e-300)
        ll = ll_new
    if np.all((2.0 * y - 1.0) * eta > MAX_ABS_COEF):
        raise SeparationDetected(
            f"every fitted logit is beyond {MAX_ABS_COEF} on its outcome's "
            "side; the data are completely separated")

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
    mu = np.maximum((eta >= 0).astype(float), t)  # select-free, same bits
    t += 1.0
    mu /= t
    return mu

