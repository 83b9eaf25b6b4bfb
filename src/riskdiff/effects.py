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
from .errors import DimensionMismatch, NonFiniteEffects
from .glm import ModelSpec, design_columns, expit_stable

DUAL_INT_ATOL = 1e-12
#: The exposure cells (z1, z2) in the order contrasts takes their values.
CELLS = ((0, 0), (1, 0), (0, 1), (1, 1))
#: Most coefficient vectors x distinct covariate rows the effect kernel
#: evaluates at once: each (draws, distinct rows) temporary of a block is
#: 512 KB, so a block's products, predictors and risks stay in cache.
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class StandardizationSet:
    """Covariate rows of the full cohort, uniformly weighted."""

    rows: np.ndarray  # n-by-m covariate matrix, one row per subject

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] < 1:
            raise ValueError("standardization set needs at least one row")

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "StandardizationSet":
        return cls(rows=cohort.x)

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

    @cached_property
    def counts(self):
        """How many subject rows each distinct row stands for, as floats."""
        return np.bincount(self.distinct[1]).astype(float)

    def mean(self, values):
        """Mean over every subject of values given per distinct row (last
        axis): each value weighted by its row's count, summed pairwise along
        the contiguous last axis with no BLAS, and divided by n. Every
        leading index is summed alone, so no bit depends on the stack height."""
        return np.sum(values * self.counts, axis=-1) / self.n


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


def _mean_risks(pis, spec: ModelSpec, cells, std: StandardizationSet):
    """mean_i expit(d_i(z1, z2) . pi) over every subject row of std, per cell.

    pis is one coefficient vector (k,) or a stack (d, k); the result has one
    row per (z1, z2) in cells, each shaped like pis without its last axis.
    Each cell's risks are computed once per distinct covariate row and
    averaged by std.mean. They differ from a per-subject evaluation only by
    rounding, and their bits do not depend on the stack height:

    - A cell's linear predictor is eta = a + s. The lead a sums, in model
      order, the live terms without a covariate (intercept, z1, z2, z1*z2
      at a fixed cell): one value per vector. The part s sums, in model
      order, the products pi_j * column_j of its live covariate terms. At
      0/1 exposures a live column of term j is that term's covariate in
      every cell, so cells with the same live covariate terms share s: the
      default model has two parts for its four cells. A part whose terms
      begin with another part's terms starts from that part's sum, which
      adds the same values in the same order. All-zero columns are
      skipped: with finite coefficients they only add +-0.
    - expit(eta) = 1 / (1 + exp(-a) * exp(-s)), with one array exp per
      part and one scalar exp per cell and vector. Where that product is
      not finite (an overflow, or inf * 0), the entry is expit_stable(a + s)
      instead, with s re-formed for just those entries, so saturated
      predictors keep their limits and opposite infinities stay NaN.
    - The stack is walked in blocks of BLOCK_ELEMENTS // len(distinct)
      vectors, so a block's (draws, distinct rows) temporaries stay in
      cache. All of the above is elementwise or per-row, so no bit depends
      on which vectors share a block.
    """
    pis = np.asarray(pis, dtype=float)
    if pis.shape[-1] != spec.k:
        raise DimensionMismatch(
            f"coefficient vector has length {pis.shape[-1]}, model has {spec.k} terms"
        )
    distinct = std.distinct[0]
    leads, keys, parts = [], [], {}  # per cell: lead terms, part key
    for z1, z2 in cells:
        cols = design_columns(spec, z1, z2, distinct)
        live = [j for j in range(spec.k) if cols[j].any()]
        leads.append([j for j in live if not spec.terms[j].covariate])
        keys.append(tuple(j for j in live if spec.terms[j].covariate))
        parts.setdefault(keys[-1], [(j, cols[j]) for j in keys[-1]])
    stack = pis.reshape(-1, spec.k)
    out = np.empty((len(cells), len(stack)))
    step = max(1, BLOCK_ELEMENTS // len(distinct))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(stack), step):
            p = stack[start:start + step]
            exps = {}  # per part: s, then exp(-s)
            for key, terms in parts.items():
                base = max((k for k in exps if key[:len(k)] == k), key=len,
                           default=())
                s = (exps[base].copy() if base in exps
                     else np.zeros((len(p), len(distinct))))
                for j, col in terms[len(base):]:
                    s += p[:, j, None] * col
                exps[key] = s
            for s in exps.values():
                np.exp(np.negative(s, out=s), out=s)
            for c, (lead_terms, key) in enumerate(zip(leads, keys)):
                a = np.zeros(len(p))
                for j in lead_terms:
                    a += p[:, j]
                r = np.exp(-a)[:, None] * exps[key]
                bad = ()
                if not np.isfinite(r.max()):  # inf or NaN if any entry is
                    bad = np.nonzero(~np.isfinite(r))
                r += 1.0
                np.divide(1.0, r, out=r)
                if bad:
                    s = np.zeros(len(bad[0]))
                    for j, col in parts[key]:
                        s += p[bad[0], j] * col[bad[1]]
                    r[bad] = expit_stable(a[bad[0]] + s)
                out[c, start:start + len(p)] = std.mean(r)
    return out.reshape((len(cells),) + pis.shape[:-1])


def risk(pi, spec: ModelSpec, z1, z2, x) -> float:
    """Model risk for one subject: logistic transform of the linear predictor."""
    rows = np.asarray(x, dtype=float).reshape(1, -1)
    return marginal_risk(pi, spec, z1, z2, StandardizationSet(rows))


def marginal_risk(pi, spec: ModelSpec, z1, z2, std: StandardizationSet) -> float:
    """Risk standardized over the cohort's empirical covariate distribution."""
    return float(_mean_risks(pi, spec, ((z1, z2),), std)[0])


def effect_triple(pi, spec: ModelSpec, std: StandardizationSet) -> EffectTriple:
    """Evaluate (te1, te2, int) at one coefficient vector."""
    te1, te2, int_ = effect_triples_batch(pi, spec, std)
    return EffectTriple(te1=float(te1), te2=float(te2), int_=float(int_))


def contrasts(m00, m10, m01, m11):
    """(te1, te2, int) of the values of the four CELLS, int through te1."""
    te1 = m10 - m00
    return te1, m01 - m00, (m11 - m01) - te1


def effect_triples_batch(pis, spec: ModelSpec, std: StandardizationSet):
    """(te1, te2, int) arrays for a stack of coefficient vectors.

    The standardized risks must be finite, and the dual-interaction
    identity is asserted for every vector.
    """
    risks = _mean_risks(pis, spec, CELLS, std)
    if not np.all(np.isfinite(risks)):
        raise NonFiniteEffects(
            "a standardized risk is not finite: terms of the linear "
            "predictor overflowed to infinities of opposite sign")
    m00, m10, m01, m11 = risks
    te1, te2, int_via_te1 = contrasts(m00, m10, m01, m11)
    int_via_te2 = (m11 - m10) - te2
    if np.max(np.abs(int_via_te1 - int_via_te2)) > DUAL_INT_ATOL:
        raise AssertionError("interaction computed two ways disagrees")
    return te1, te2, int_via_te1
