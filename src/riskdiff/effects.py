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


class StandardizationSet:
    """The cohort's empirical covariate distribution: its distinct covariate
    rows, in np.unique order, and how many of its n subject rows each one
    stands for, as floats.

    Rows are compared by their exact bytes, so 0.0 and -0.0 stay apart and
    a duplicate row is one whose every risk is bit-identical to its
    representative's.
    """

    def __init__(self, rows):
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("standardization set needs at least one row")
        distinct, counts = np.unique(rows.view(np.uint64), axis=0,
                                     return_counts=True)
        self.distinct, self.counts = distinct.view(float), counts.astype(float)
        self.n = rows.shape[0]

    @classmethod
    def from_cohort(cls, cohort: Cohort) -> "StandardizationSet":
        return cls(cohort.x)

    def mean(self, values):
        """Mean over every subject of values given per distinct row."""
        return self.mean_weighted(values * self.counts)

    def mean_weighted(self, weighted):
        """Mean over every subject of values given per distinct row (last
        axis) times their rows' counts: a pairwise np.sum of each leading
        index alone, so no bit depends on the stack height, divided by n."""
        return np.sum(weighted, axis=-1) / self.n


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
    Each cell's risks are computed once per distinct covariate row, times
    that row's count, and averaged by std.mean_weighted. They differ from a
    per-subject evaluation only by rounding, and their bits do not depend
    on the stack height:

    - A cell's linear predictor is eta = a + s. The lead a sums, in model
      order, the live terms without a covariate (intercept, z1, z2, z1*z2
      at a fixed cell): one value per vector, taken with exp(-a) once per
      stack. The part s sums, in model order, the products pi_j * column_j
      of its live covariate terms; it is formed as -s from the products
      (-pi_j) * column_j. At 0/1 exposures a live column of term j is that
      term's covariate in every cell, so cells with the same live covariate
      terms share s: the default model has two parts for its four cells. A
      part whose terms begin with another part's terms starts from that
      part's sum, which adds the same values in the same order. All-zero
      columns are skipped: with finite coefficients they only add +-0.
    - count * expit(eta) = count / (1 + exp(-a) * exp(-s)), with one array
      exp per part. Where that product is not finite (an overflow, or
      inf * 0), the entry is count * expit_stable(a + s) instead, with s
      re-formed for just those entries, so saturated predictors keep their
      limits and opposite infinities stay NaN. Such entries are looked for
      only where max(exp(-a)) * max(exp(-s)) is not finite.
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
    distinct, stack = std.distinct, pis.reshape(-1, spec.k)
    n, out = len(distinct), np.empty((len(cells), len(stack)))
    step = max(1, BLOCK_ELEMENTS // n)
    with np.errstate(over="ignore", invalid="ignore"):
        # numpy copies broadcast operands through its ufunc buffer unless a
        # row fills it; from 128 rows on, n floored to 16s is a faster size
        bufsize = np.setbufsize(n // 16 * 16 if 128 <= n < np.getbufsize()
                                else np.getbufsize())
        leads, keys, parts = [], [], {}  # per cell: (a, exp(-a)), part key
        for z1, z2 in cells:
            cols = design_columns(spec, z1, z2, distinct)
            live = [j for j in range(spec.k) if cols[j].any()]
            a = sum((stack[:, j] for j in live if not spec.terms[j].covariate),
                    np.zeros(len(stack)))
            leads.append((a, np.exp(-a)))
            keys.append(tuple(j for j in live if spec.terms[j].covariate))
            parts.setdefault(keys[-1], [(j, cols[j]) for j in keys[-1]])
        for start in range(0, len(stack), step):
            p = stack[start:start + step]
            block, neg = slice(start, start + len(p)), -p
            exps = {}  # per part: -s, then exp(-s)
            for key, terms in parts.items():
                base = max((k for k in exps if key[:len(k)] == k), key=len,
                           default=())
                todo = terms[len(base):]
                ns = (neg[:, todo[0][0], None] * todo[0][1] if todo
                      else np.zeros(n))  # no terms: -s = 0
                if base:
                    ns += exps[base]
                for j, col in todo[1:]:
                    ns += neg[:, j, None] * col
                exps[key] = ns
            # exp(-s) is >= 0 or NaN, so no product exp(-a) exp(-s) of a
            # cell is inf or NaN unless max(exp(-a)) * tops[key] is
            tops = {key: np.exp(ns, out=ns).max() for key, ns in exps.items()}
            for c, ((a, ea), key) in enumerate(zip(leads, keys)):
                a, ea = a[block], ea[block]
                r = ea[:, None] * exps[key]
                bad = (() if np.isfinite(ea.max() * tops[key])
                       else np.nonzero(~np.isfinite(r)))
                r += 1.0
                np.divide(std.counts, r, out=r)
                if bad and bad[0].size:
                    s = sum((p[bad[0], j] * col[bad[1]]
                             for j, col in parts[key]), np.zeros(len(bad[0])))
                    r[bad] = std.counts[bad[1]] * expit_stable(a[bad[0]] + s)
                out[c, block] = std.mean_weighted(r)
        np.setbufsize(bufsize)
    return out.reshape((len(cells),) + pis.shape[:-1])


def risk(pi, spec: ModelSpec, z1, z2, x) -> float:
    """Model risk for one subject: logistic transform of the linear predictor."""
    rows = np.asarray(x, dtype=float).reshape(1, -1)
    return marginal_risk(pi, spec, z1, z2, StandardizationSet(rows))


def marginal_risk(pi, spec: ModelSpec, z1, z2, std: StandardizationSet) -> float:
    """Risk standardized over the cohort's empirical covariate distribution."""
    if (z1, z2) not in CELLS:
        raise ValueError(f"exposures must be 0 or 1, got ({z1}, {z2})")
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
