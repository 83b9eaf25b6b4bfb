"""Relations the plug-in effects must satisfy across a refit, end to end.

Each test fits the model to a generated cohort and to a transformed copy of
it, and compares effect_triple at the two fits' coefficients. The model
z1,z2,z1*z2,x1,x2,z1*x1,z2*x1 gives every z*x term its x and treats the two
exposures alike, so each transformation only reparametrizes it: the fitted
risks, and so the effects, move in a known way.

The fit stops when the log-likelihood changes by less than 1e-10 relative
(glm.DEVIANCE_RTOL), which leaves each fit short of the optimum by its own
amount. Over 10 000 cohorts from _cohort the largest gaps were 1.3e-8 for
the triple and 1.4e-8 for the relative change in the covariance, so the
relations are held to TOL = 1e-7 rather than to rounding.

The interval relations hold only in distribution, since a reparametrized
fit gives other draws; they wait for order-statistic intervals that bound
the Monte Carlo error of each quantile.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from riskdiff.dataset import Cohort
from riskdiff.effects import StandardizationSet, effect_triple
from riskdiff.glm import ModelSpec, build_design, fit_logistic

MODEL = ModelSpec.parse("z1,z2,z1*z2,x1,x2,z1*x1,z2*x1")
TOL = 1e-7


def _cohort(rows, seed):
    """y, z1, z2 and x = (age rounded to 0.1, binary), y from a logistic
    model with both exposure-by-age products."""
    rng = np.random.default_rng(seed)
    z1, z2, x2 = rng.integers(0, 2, (3, rows))
    x1 = np.round(rng.normal(60.0, 10.0, rows), 1)
    eta = (-0.5 + 0.6 * z1 - 0.4 * z2 + 0.5 * z1 * z2 + 0.02 * (x1 - 60.0)
           + 0.3 * x2 + 0.01 * z1 * (x1 - 60.0) - 0.02 * z2 * (x1 - 60.0))
    y = (rng.random(rows) < expit(eta)).astype(int)
    return y, z1, z2, np.column_stack([x1, x2])


def _fit(y, z1, z2, x):
    """(te1, te2, int) at the refit's coefficients, and the refit."""
    cohort = Cohort.from_columns(y, z1, z2, x, ("x1", "x2"))
    fit = fit_logistic(build_design(cohort, MODEL), cohort.y,
                       term_names=MODEL.names)
    t = effect_triple(fit.pi_hat, MODEL, StandardizationSet.from_cohort(cohort))
    return np.array([t.te1, t.te2, t.int_]), fit


cohorts = st.builds(_cohort, st.integers(200, 600), st.integers(0, 2**32 - 1))


@given(cohort=cohorts)
@settings(max_examples=20, deadline=None)
def test_recoding_exposure_1(cohort):
    y, z1, z2, x = cohort
    (te1, te2, int_), _ = _fit(y, z1, z2, x)
    got, _ = _fit(y, 1 - z1, z2, x)
    np.testing.assert_allclose(got, [-te1, te2 + int_, -int_], rtol=0,
                               atol=TOL)


@given(cohort=cohorts)
@settings(max_examples=20, deadline=None)
def test_swapping_the_exposures(cohort):
    y, z1, z2, x = cohort
    (te1, te2, int_), _ = _fit(y, z1, z2, x)
    got, _ = _fit(y, z2, z1, x)
    np.testing.assert_allclose(got, [te2, te1, int_], rtol=0, atol=TOL)


@given(cohort=cohorts)
@settings(max_examples=20, deadline=None)
def test_affine_rescaling_of_a_covariate(cohort):
    y, z1, z2, x = cohort
    want, _ = _fit(y, z1, z2, x)
    got, _ = _fit(y, z1, z2, x * [0.1, 1.0] - [6.0, 0.0])
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@given(cohort=cohorts)
@settings(max_examples=20, deadline=None)
def test_duplicating_every_row(cohort):
    want, fit = _fit(*cohort)
    got, twice = _fit(*(np.concatenate([c, c]) for c in cohort))
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    half = fit.sigma_hat / 2.0
    assert np.max(np.abs(twice.sigma_hat - half)) <= TOL * np.max(np.abs(half))
