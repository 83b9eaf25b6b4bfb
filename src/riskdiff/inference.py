"""Interval estimates, confidence ellipses, and tercile-conditional reports.

Everything here consumes the Monte Carlo effect distribution: equal-tail
percentile intervals, the smallest-area normal-reference ellipse for an
(effect, interaction) pair, and interaction intervals conditional on which
tercile the conditioning effect estimate fell into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import columns_csv
from .effects import CELLS, StandardizationSet, contrasts
from .errors import DegenerateCloud, EmptySamples, TooFewDraws
from .glm import FitResult, ModelSpec, design_columns, expit_stable
from .montecarlo import EffectDistribution

MIN_TERCILE_DRAWS = 30


def quantile(samples, p):
    """np.quantile's default (type 7): a float, or a tuple for a sequence p."""
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise EmptySamples("cannot take a quantile of no samples")
    p = np.asarray(p, dtype=float)
    q = np.quantile(s, p)
    return tuple(q.tolist()) if p.ndim else float(q)


def percentile_ci(samples, alpha: float) -> tuple[float, float]:
    """Equal-tail interval: alpha/2 probability cut from each tail."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return quantile(samples, (alpha / 2.0, 1.0 - alpha / 2.0))


@dataclass(frozen=True)
class IntervalEstimate:
    point: float
    ci50: tuple[float, float]
    ci95: tuple[float, float]

    def __post_init__(self):
        if not (self.ci95[0] <= self.ci50[0] and self.ci50[1] <= self.ci95[1]):
            raise ValueError("ci50 must be contained in ci95")

    @classmethod
    def from_samples(cls, point, samples) -> "IntervalEstimate":
        """point with the equal-tail 50% and 95% intervals of samples."""
        lo95, lo50, hi50, hi95 = quantile(samples, (0.025, 0.25, 0.75, 0.975))
        return cls(point=float(point), ci50=(lo50, hi50), ci95=(lo95, hi95))

    def to_dict(self) -> dict:
        return {"point": self.point, "ci50": list(self.ci50),
                "ci95": list(self.ci95), "level_convention": "equal-tail"}


@dataclass(frozen=True)
class ConfidenceEllipse:
    center: np.ndarray       # componentwise mean of the pair cloud
    shape: np.ndarray        # 2x2 sample covariance of the pair cloud
    level: float             # confidence 1 - alpha
    quantile: float          # chi-square(2) upper quantile at that level

    def contains(self, q) -> bool:
        d = np.asarray(q, dtype=float) - self.center
        return float(d @ np.linalg.solve(self.shape, d)) <= self.quantile

    def axes(self):
        """Half-axis lengths and unit directions, the longer axis first."""
        lam, vecs = np.linalg.eigh(self.shape)
        return (tuple(np.sqrt(lam[::-1] * self.quantile).tolist()),
                tuple(vecs.T[::-1]))

    def boundary(self, n_points: int = 64) -> np.ndarray:
        """Closed polyline tracing the ellipse (n_points rows of x, y)."""
        (h1, h2), (v1, v2) = self.axes()
        t = np.linspace(0.0, 2.0 * np.pi, n_points)
        return (self.center
                + np.outer(h1 * np.cos(t), v1)
                + np.outer(h2 * np.sin(t), v2))

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "shape": self.shape.tolist(),
            "level": self.level,
            "chi2_quantile": self.quantile,
        }


def chi2_2df_quantile(alpha: float) -> float:
    """Upper-alpha quantile of chi-square with 2 df: -2 ln(alpha)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return -2.0 * math.log(alpha)


def confidence_ellipse(pairs, alpha: float) -> ConfidenceEllipse:
    """Smallest-area normal-reference ellipse covering 1 - alpha of the cloud.

    The shape matrix is the sample covariance of the pairs; membership uses
    the Mahalanobis form (q - center)' shape^-1 (q - center) <= chi2_2(1-alpha).
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be an n-by-2 array")
    if pairs.shape[0] < 3:
        raise DegenerateCloud("need at least 3 pairs for an ellipse")
    center = pairs.mean(axis=0)
    shape = np.cov(pairs, rowvar=False, ddof=1)
    det = shape[0, 0] * shape[1, 1] - shape[0, 1] ** 2
    scale = max(shape[0, 0], shape[1, 1], 1e-300)
    if det <= 1e-12 * scale ** 2:
        raise DegenerateCloud("pair cloud is (numerically) collinear")
    return ConfidenceEllipse(center=center, shape=shape, level=1.0 - alpha,
                             quantile=chi2_2df_quantile(alpha))


def marginal_report(dist: EffectDistribution, which: str,
                    point: float) -> IntervalEstimate:
    """Interval estimate for one effect component.

    The point estimate is the plug-in value at the fitted coefficients (not
    the draw mean); pass it in from effect_triple at pi_hat.
    """
    return IntervalEstimate.from_samples(point, dist.component(which))


@dataclass(frozen=True)
class TercileReport:
    conditioning: str                       # "te1" or "te2"
    boundaries: tuple[float, float]         # draws split at 1/3 and 2/3 quantiles
    strata: tuple[IntervalEstimate, ...]    # lower, middle, upper tercile

    def to_dict(self) -> dict:
        labels = [
            f"(-inf, {self.boundaries[0]!r}]",
            f"({self.boundaries[0]!r}, {self.boundaries[1]!r}]",
            f"({self.boundaries[1]!r}, +inf)",
        ]
        return {
            "conditioning": self.conditioning,
            "boundaries": list(self.boundaries),
            "strata": [
                {"range": lab, **est.to_dict()}
                for lab, est in zip(labels, self.strata)
            ],
        }


def tercile_masks(cond, boundaries):
    """Lower, middle and upper tercile strata of cond, closed on the right."""
    q1, q2 = boundaries
    return cond <= q1, (cond > q1) & (cond <= q2), cond > q2


def tercile_report(dist: EffectDistribution, conditioning: str) -> TercileReport:
    """Interaction intervals conditional on terciles of te1 or te2 draws.

    Stratum point estimates are conditional draw means; intervals are
    equal-tail percentiles within the stratum. Tercile intervals are closed
    on the right.
    """
    if conditioning.lower() not in ("te1", "te2"):
        raise ValueError("conditioning must be te1 or te2")
    if dist.n_draws < MIN_TERCILE_DRAWS:
        raise TooFewDraws(
            f"tercile report needs at least {MIN_TERCILE_DRAWS} draws, "
            f"got {dist.n_draws}"
        )
    cond = dist.component(conditioning)
    ints = dist.int_
    q1, q2 = quantile(cond, (1.0 / 3.0, 2.0 / 3.0))
    masks = tercile_masks(cond, (q1, q2))
    for label, m in zip(("lower", "middle", "upper"), masks):
        if not m.any():
            raise EmptySamples(f"the {label} {conditioning} tercile holds no "
                               f"draws: the draws tie at its boundaries")
    strata = tuple(IntervalEstimate.from_samples(np.mean(ints[m]), ints[m])
                   for m in masks)
    return TercileReport(conditioning=conditioning.lower(),
                         boundaries=(q1, q2), strata=strata)


def histogram_csv(samples, n_bins: int = 30) -> str:
    """Equal-width histogram as CSV (bin_lo, bin_hi, count) for plotting."""
    counts, edges = np.histogram(np.asarray(samples, dtype=float), bins=n_bins)
    return columns_csv("bin_lo,bin_hi,count", [edges[:-1], edges[1:], counts])


def delta_method_check(fit: FitResult, spec: ModelSpec,
                       std: StandardizationSet) -> dict:
    """First-order (delta-method) variance of each effect at pi_hat.

    Each standardized risk m(z1, z2) = mean_i expit(d_i . pi) has the exact
    gradient mean_i mu_i (1 - mu_i) d_i, where d_i is subject i's design
    row at (z1, z2) and mu_i its risk at pi_hat, averaged by std.mean. The
    effect gradients are the contrasts of these four, and each variance is
    g' sigma_hat g. This exists as an independent cross-check on the Monte
    Carlo variances, not as a reporting path.
    """
    grads = []
    for z1, z2 in CELLS:
        d = design_columns(spec, z1, z2, std.distinct)
        mu = expit_stable(fit.pi_hat @ d)
        grads.append(std.mean(d * (mu * (1.0 - mu))))
    return {name: float(g @ fit.sigma_hat @ g)
            for name, g in zip(("te1", "te2", "int"), contrasts(*grads))}


def ellipse_csv(ellipse: ConfidenceEllipse) -> str:
    """The ellipse's boundary polyline as CSV (x, y) for plotting."""
    return columns_csv("x,y", ellipse.boundary().T)
