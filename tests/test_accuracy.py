"""Accuracy of (te1, te2, int), and of the fit, against a 50-digit
decimal oracle.

The oracle evaluates the effects as the effects module defines them, in
stdlib decimal arithmetic at 50 significant digits: for each exposure cell
and each distinct covariate row, the predictor eta = sum_j pi_j d_j from
the float64 inputs taken exactly, the risk r = 1 / (1 + exp(-eta)), the
count-weighted mean m over the n subjects, and the three contrasts. Its own
error (about 1e-49 relative) is far below float64 rounding.

The bound on the float64 kernel follows from the problem, not from any
evaluation order. With u = eps / 2, for a row with count c, risk r and
A = sum_j |pi_j d_j|:

- any summation order of the k rounded products is within (k + 1) u A of
  eta, and a risk moves by r (1 - r) per unit of predictor;
- exp(-a) exp(-s), or expit's exp, adds two exp roundings of at most 1 ulp
  each (numpy's float64 exp is validated to 1 ulp) and a multiply: at most
  2.5 eps relative to exp(-eta), which is (1 - r) relative to r;
- 1 + x, the divide and the count multiply add at most 1.5 eps relative to
  c r.

So a row's c r is within c (r (1 - r) ((k + 1) u A + 2.5 eps) + 1.5 eps r).
Summing the rows' values in any order adds (rows - 1) u sum c r and the
divide by n adds u m: per cell, the bound is the rows' bounds over n, plus
rows u m, plus rows + 1 subnormal ulps for risks that underflow. Each
contrast adds the bounds of its two operands and u of its result.

Worst observed errors, in eps = eps(1.0), when this was written:
- the fixture at pi-hat and its first 199 draws (seed 1): 1.17 in te1,
  1.09 in te2 and 1.39 in int, against bounds of 7.0 to 143.7; the
  largest error / bound is 0.045;
- 3000 generated cohorts at coefficient scales 0.1 to 100: error / bound
  at most 0.32;
- the cancelling terms at scale 100: 9.0 in te1, 0.022 of its bound.

The fit's oracle is TestFit's: the score at the returned coefficients,
summed in decimal.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskdiff.dataset import Cohort
from riskdiff.effects import CELLS, StandardizationSet, effect_triples_batch
from riskdiff.errors import SeparationDetected
from riskdiff.fixtures import CARDIA_MODEL, cardia_cohort, cardia_fit
from riskdiff.glm import (DEVIANCE_RTOL, ModelSpec, Term, build_design,
                          fit_logistic)
from riskdiff.montecarlo import sample_parameters

EPS = float(np.finfo(float).eps)
U = EPS / 2
TINY = 2.0 ** -1074  # the smallest subnormal, one ulp below 2**-1022


def _oracle(pi, spec, rows, counts):
    """((te1, te2, int), their bounds): the 50-digit effects and the bound
    on the float64 kernel's error in each."""
    k, n = spec.k, sum(counts)
    m, err = {}, {}
    with localcontext() as ctx:
        ctx.prec = 50
        pi = [Decimal(p) for p in pi.tolist()]
        for z1, z2 in CELLS:
            factor = {"intercept": 1, "x": 1, "z1": z1, "z1x": z1, "z2": z2,
                      "z2x": z2, "z1z2": z1 * z2}  # of each term kind
            total, spread = Decimal(0), 0.0
            for row, c in zip(rows.tolist(), counts):
                terms = [p * Decimal(factor[t.kind] * (row[t.covariate - 1]
                                                       if t.covariate else 1))
                         for p, t in zip(pi, spec.terms)]
                r = 1 / (1 + (-sum(terms)).exp())
                total += c * r
                rf, a = float(r), float(sum(map(abs, terms)))
                spread += c * (rf * (1 - rf) * ((k + 1) * U * a + 2.5 * EPS)
                               + 1.5 * EPS * rf)
            m[z1, z2] = total / n
            err[z1, z2] = (spread / n + len(rows) * U * float(m[z1, z2])
                           + (len(rows) + 1) * TINY)
        te1, te2 = m[1, 0] - m[0, 0], m[0, 1] - m[0, 0]
        int_ = (m[1, 1] - m[0, 1]) - te1
    e_te1 = err[1, 0] + err[0, 0] + U * abs(float(te1))
    e_te2 = err[0, 1] + err[0, 0] + U * abs(float(te2))
    e_int = (err[1, 1] + err[0, 1] + U * abs(float(m[1, 1] - m[0, 1]))
             + e_te1 + U * abs(float(int_)))
    return (te1, te2, int_), (e_te1, e_te2, e_int)


def _errors(pis, spec, rows):
    """(errors, bounds), each (len(pis), 3): the kernel's distance from the
    oracle in te1, te2 and int, and the bound on it."""
    std = StandardizationSet(rows)
    got = np.column_stack(effect_triples_batch(pis, spec, std))
    counts = std.counts.astype(int).tolist()
    errors, bounds = [], []
    for pi, g in zip(pis, got):
        exact, bound = _oracle(pi, spec, std.distinct, counts)
        errors.append([float(abs(Decimal(v) - e))
                       for v, e in zip(g.tolist(), exact)])
        bounds.append(bound)
    return np.array(errors), np.array(bounds)


class TestFixture:
    def test_pi_hat_and_draws_within_bound(self):
        fit, cohort = cardia_fit(), cardia_cohort()
        draws, _ = sample_parameters(fit, 199, seed=1)
        pis = np.vstack([fit.pi_hat, draws])
        errors, bounds = _errors(pis, CARDIA_MODEL, cohort.x)
        assert np.all(errors <= bounds)


@st.composite
def cohorts(draw):
    """A random model with every term kind, a few distinct covariate rows
    (duplicated, with signed zeros) and coefficient vectors whose scale
    reaches 100, where large predictor terms cancel."""
    m = draw(st.integers(1, 3))
    terms = [Term("intercept"), Term("z1"), Term("z2"), Term("z1z2")]
    for kind in ("x", "z1x", "z2x"):
        covs = draw(st.sets(st.integers(1, m), min_size=1))
        terms += [Term(kind, covariate=c) for c in sorted(covs)]
    spec = ModelSpec(tuple(draw(st.permutations(terms))))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(-10, 10, allow_nan=False))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), m),
                           elements=value))
    rows = base[draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                              max_size=20))]
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    pis = scale * draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)),
                                               spec.k),
                                  elements=st.floats(-1, 1)))
    return spec, rows, pis


class TestGenerated:
    @given(cohorts())
    @settings(max_examples=60, deadline=None)
    def test_within_bound(self, case):
        spec, rows, pis = case
        errors, bounds = _errors(pis, spec, rows)
        assert np.all(errors <= bounds)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_cancelling_terms(self, scale):
        # x1 and z1*x1 nearly cancel in the exposed cells, so the predictor
        # there is small while sum_j |pi_j d_j| is about 2 scale |x|
        spec = ModelSpec.parse("z1,z2,x1,z1*x1")
        rows = np.array([[7.3], [-2.9], [0.0], [7.3], [9.99]])
        pis = np.array([[0.1, -0.4, 0.3, scale, -scale * (1 - 2 ** -20)],
                        [-0.2, 0.5, -0.1, -scale, scale * (1 + 1e-9)]])
        errors, bounds = _errors(pis, spec, rows)
        assert np.all(errors <= bounds)


def _score(X, y, pi):
    """sum_i (y_i - expit(x_i . pi)) x_i, in decimal at 50 digits, from the
    float64 X, y and pi taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 50
        pi = [Decimal(p) for p in pi.tolist()]
        g = [Decimal(0)] * len(pi)
        for row, yi in zip(X.tolist(), y.tolist()):
            row = [Decimal(v) for v in row]
            eta = sum(p * v for p, v in zip(pi, row))
            r = Decimal(yi) - 1 / (1 + (-eta).exp())
            g = [gj + r * v for gj, v in zip(g, row)]
    return np.array([float(v) for v in g])


@st.composite
def fit_cohorts(draw):
    """(X, y): 50-300 subjects with a continuous and a binary covariate,
    and both outcomes in every exposure cell and at each level of the
    binary covariate (its first eight subjects)."""
    n = draw(st.integers(50, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.integers(0, 2, (n, 2))
    z[:8] = [[1, 1], [0, 1], [1, 0], [0, 0]] * 2
    x = np.column_stack([rng.normal(0.0, 2.0, n), rng.integers(0, 2, n)])
    x[:8, 1] = [0, 1, 0, 1, 1, 0, 1, 0]
    spec = ModelSpec.parse("z1,z2,z1*z2,x1,x2,z1*x1")
    cohort = Cohort.from_columns(np.zeros(n), *z.T, x, ("x1", "x2"))
    X = build_design(cohort, spec)
    y = (rng.random(n) < 1 / (1 + np.exp(-X @ rng.normal(0, 0.5, spec.k))))
    y[:8] = [1, 1, 1, 1, 0, 0, 0, 0]
    return X, y.astype(float)


class TestFit:
    """The score g at the returned pi-hat against the stopping rule.

    The fit stops after a step whose gain in the log-likelihood l is below
    DEVIANCE_RTOL |l|. Near the optimum l is its quadratic model up to
    third-order terms, and a full Newton step there gains half the squared
    Newton decrement g' I^-1 g at the step's start, so that decrement was
    below 2 DEVIANCE_RTOL |l|. Newton's decrement shrinks quadratically
    from one step to the next near the optimum, so at pi-hat, where
    sigma-hat is I^-1, g' sigma-hat g <= 2 DEVIANCE_RTOL |l| too. g is
    exact at pi-hat to 50 digits; sigma-hat's rounding moves the product
    by a few ulps.

    Worst observed, when this was written (g' sigma-hat g against the
    bound, and max |g_j| / n):
    - the fixture refit (6 iterations): 5.2e-17 against 1.6e-8, 5.0e-9;
    - the cohort-rows input, seed 1 (4 iterations): 3.1e-21 against
      2.5e-7, 7.9e-13;
    - seed 2503 (5 iterations): 1.9e-16 against 2.5e-7, 7.2e-10;
    - 1000 generated cohorts (3 to 12 iterations): at most 3.2e-14, and
      at most 1.9e-6 of its bound; max |g_j| / n at most 4.6e-9.
    """

    @staticmethod
    def _check(X, y, fit):
        g = _score(X, y, fit.pi_hat)
        assert g @ fit.sigma_hat @ g <= 2 * DEVIANCE_RTOL * abs(fit.loglik)

    def test_fixture_refit(self):
        cohort = cardia_cohort()  # not cardia_fit(): its pi-hat is published
        X = build_design(cohort, CARDIA_MODEL)
        self._check(X, cohort.y, fit_logistic(X, cohort.y))

    @pytest.mark.parametrize("seed", [1, 2503])
    def test_cohort_rows_input(self, seed, cohort_rows_design):
        X, y = cohort_rows_design(seed)
        self._check(X, y, fit_logistic(X, y))

    @given(fit_cohorts())
    @settings(max_examples=20, deadline=None)
    def test_generated(self, case):
        try:
            fit = fit_logistic(*case)
        except SeparationDetected:
            # no maximum to stop near: about 1 in 250 of the 50-subject
            # cohorts, far fewer of the larger ones
            assume(False)
        self._check(*case, fit)
