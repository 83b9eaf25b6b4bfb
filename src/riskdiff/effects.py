"""Standardized risk differences and their additive interaction.

For a coefficient vector the model gives a risk for every exposure pair
and covariate vector; averaging those risks over the cohort's empirical
covariate distribution (every subject row, uniform weight, duplicates
kept) yields marginal risks, and their contrasts yield the two exposure
effects and the interaction:

    te1 = m(1,0) - m(0,0)
    te2 = m(0,1) - m(0,0)
    int = m(1,1) - m(0,1) - te1  =  m(1,1) - m(1,0) - te2

The two interaction expressions are algebraically identical; both are
evaluated and asserted to agree, which guards term-indexing mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Cohort
from .errors import DimensionMismatch
from .glm import ModelSpec, design_columns, expit_stable

DUAL_INT_ATOL = 1e-12


@dataclass(frozen=True)
class StandardizationSet:
    """Covariate rows of the full cohort, uniformly weighted."""

    rows: np.ndarray  # n-by-m covariate matrix, one row per subject

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise ValueError("standardization set needs at least one row")

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "StandardizationSet":
        return cls(rows=np.array([r.x for r in cohort.records], dtype=float))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def distinct(self):
        """(distinct rows, inverse) with rows == distinct[inverse].

        Rows are compared by their exact bytes, so 0.0 and -0.0 stay apart
        and a duplicate row is one whose every risk is bit-identical to its
        representative's. Built once per set and pickled with it.
        """
        rows = np.ascontiguousarray(self.rows, dtype=float)
        _, first, inverse = np.unique(rows.view(np.uint64), axis=0,
                                      return_index=True, return_inverse=True)
        return rows[first], inverse


@dataclass(frozen=True)
class EffectTriple:
    te1: float
    te2: float
    int_: float

    def __post_init__(self):
        if not (-1.0 <= self.te1 <= 1.0 and -1.0 <= self.te2 <= 1.0):
            raise ValueError("risk differences must lie in [-1, 1]")
        if not (-2.0 <= self.int_ <= 2.0):
            raise ValueError("interaction must lie in [-2, 2]")


def _linear_predictors(pi, spec: ModelSpec, z1, z2, rows):
    """Linear predictor for each covariate row at fixed (z1, z2).

    pi may be a single coefficient vector (k,) or a stack (d, k); the
    result is (n,) or (d, n) accordingly. The terms are accumulated one by
    one in model order (never via matrix multiplication) so the bits of the
    result cannot depend on how many vectors are stacked -- this is what
    makes Monte Carlo output invariant to chunking and parallelism.

    The leading terms that are equal on every row (intercept, z1, z2 and
    z1*z2 at a fixed cell) are summed once per vector, in the same order.
    All-zero columns are skipped: with finite coefficients they only add
    +-0, which can at most flip the sign of a zero predictor, and both
    zeros have risk 0.5.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1] != spec.k:
        raise DimensionMismatch(
            f"coefficient vector has length {pi.shape[-1]}, model has {spec.k} terms"
        )
    cols = design_columns(spec, z1, z2, rows)
    live = [j for j in range(spec.k) if cols[j].any()]
    lead = np.zeros(pi.shape[:-1])
    while live and not spec.terms[live[0]].covariate:
        j = live.pop(0)
        lead += pi[..., j] * cols[j, 0]
    eta = np.repeat(lead[..., None], cols.shape[1], axis=-1)
    tmp = np.empty_like(eta)
    for j in live:
        eta += np.multiply(pi[..., j, None], cols[j], out=tmp)
    return eta


def _mean_risk(pi, spec: ModelSpec, z1, z2, std: StandardizationSet):
    """mean_i expit(d_i(z1, z2) . pi) over every subject row of std.

    Each distinct row's risk is computed once and gathered back into subject
    order, so the mean sums the same values in the same order as a
    per-subject evaluation. np.take keeps the gathered (d, n) array
    C-ordered; mu[..., inverse] would not, and np.mean would then add in
    another order.
    """
    distinct, inverse = std.distinct
    mu = expit_stable(_linear_predictors(pi, spec, z1, z2, distinct))
    return np.mean(np.take(mu, inverse, axis=-1), axis=-1)


def risk(pi, spec: ModelSpec, z1, z2, x) -> float:
    """Model risk for one subject: logistic transform of the linear predictor."""
    rows = np.asarray(x, dtype=float).reshape(1, -1)
    return marginal_risk(pi, spec, z1, z2, StandardizationSet(rows))


def marginal_risk(pi, spec: ModelSpec, z1, z2, std: StandardizationSet) -> float:
    """Risk standardized over the cohort's empirical covariate distribution."""
    return float(_mean_risk(pi, spec, z1, z2, std))


def effect_triple(pi, spec: ModelSpec, std: StandardizationSet) -> EffectTriple:
    """Evaluate (te1, te2, int) at one coefficient vector."""
    te1, te2, int_ = effect_triples_batch(
        np.asarray(pi, dtype=float)[None, :], spec, std)
    return EffectTriple(te1=float(te1[0]), te2=float(te2[0]),
                        int_=float(int_[0]))


def effect_triples_batch(pis, spec: ModelSpec, std: StandardizationSet):
    """(te1, te2, int) arrays for a stack of coefficient vectors.

    The dual-interaction identity is asserted for every vector.
    """
    m00, m10, m01, m11 = (_mean_risk(pis, spec, z1, z2, std)
                          for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)))
    te1 = m10 - m00
    te2 = m01 - m00
    int_via_te1 = (m11 - m01) - te1
    int_via_te2 = (m11 - m10) - te2
    if np.max(np.abs(int_via_te1 - int_via_te2)) > DUAL_INT_ATOL:
        raise AssertionError("interaction computed two ways disagrees")
    return te1, te2, int_via_te1
