"""Tests for the standardized effect functionals."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskdiff.dataset import Cohort, SubjectRecord
from riskdiff.effects import (
    EffectTriple,
    StandardizationSet,
    effect_triple,
    effect_triples_batch,
    marginal_risk,
    risk,
)
from riskdiff.errors import DimensionMismatch
from riskdiff.fixtures import cardia_cohort, cardia_fit
from riskdiff.glm import (
    CARDIA_MODEL,
    ModelSpec,
    Term,
    design_columns,
    expit_stable,
    fit_logistic,
)

SAT_MODEL = ModelSpec.parse("z1,z2,z1*z2")  # exposure-saturated, no covariates


def single_row_std(x=(0.0,)):
    return StandardizationSet(rows=np.array([x], dtype=float))


class TestRisk:
    def test_zero_coefficients(self):
        pi = np.zeros(CARDIA_MODEL.k)
        assert risk(pi, CARDIA_MODEL, 1, 1, (67, 1, 0)) == 0.5

    def test_fixture_hand_evaluation(self):
        # eta = 3.92 + 0.95 - 0.06 * 67 = 0.85 for an unexposed subject
        pi = cardia_fit().pi_hat
        r = risk(pi, CARDIA_MODEL, 0, 0, (67, 1, 0))
        assert r == pytest.approx(1 / (1 + np.exp(-0.85)), abs=1e-12)
        assert r == pytest.approx(0.7006, abs=5e-4)

    def test_saturating_predictor(self):
        spec = ModelSpec.parse("z1,z2,x1")
        assert risk((40.0, 0, 0, 0), spec, 0, 0, (1.0,)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            risk((0.0, 0.0), CARDIA_MODEL, 0, 0, (67, 1, 0))


class TestMarginalRisk:
    def test_single_row_equals_risk(self):
        pi = np.array([0.3, -0.2, 0.1, 0.4, 0.05, 0.2, -0.1, 0.02])
        x = (55.0, 1.0, 0.0)
        std = single_row_std(x)
        assert marginal_risk(pi, CARDIA_MODEL, 1, 0, std) == \
            pytest.approx(risk(pi, CARDIA_MODEL, 1, 0, x), abs=1e-15)

    def test_uniform_mean_of_two_rows(self):
        # risks expit(x) at x in {logit(0.2), logit(0.6)} average to 0.4
        spec = ModelSpec.parse("z1,z2,x1")
        pi = np.array([0.0, 0.0, 0.0, 1.0])
        rows = np.array([[np.log(0.2 / 0.8)], [np.log(0.6 / 0.4)]])
        m = marginal_risk(pi, spec, 0, 0, StandardizationSet(rows))
        assert m == pytest.approx(0.4, abs=1e-12)

    def test_covariate_free_model_ignores_std(self):
        pi = np.array([0.7, -0.3, 0.2, 0.1])
        for rows in (np.zeros((1, 2)), np.random.default_rng(0).normal(size=(9, 2))):
            m = marginal_risk(pi, SAT_MODEL, 1, 1, StandardizationSet(rows))
            assert m == pytest.approx(float(expit_stable(0.7)), abs=1e-15)


    def test_equals_mean_over_design_matrix(self):
        # every term kind, evaluated by the fit's design matrix with every
        # subject set to z1 = z2 = 1
        from riskdiff.glm import build_design
        spec = ModelSpec.parse("z1,z2,z1*z2,x2,z1*x1,z2*x2")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 2))
        pi = rng.normal(size=spec.k)
        exposed = Cohort(tuple(SubjectRecord(0, 1, 1, tuple(r)) for r in x),
                         ("x1", "x2"))
        want = expit_stable(build_design(exposed, spec) @ pi).mean()
        got = marginal_risk(pi, spec, 1, 1, StandardizationSet(x))
        assert got == pytest.approx(want, rel=0, abs=1e-15)


class TestEffectTriple:
    def test_no_exposure_terms_gives_zero_triple(self):
        pi = np.array([0.4, 0.0, 0.0, 0.0, 0.03, -0.2, 0.5, 0.0])
        std = StandardizationSet(
            rows=np.random.default_rng(1).normal(size=(20, 3)))
        t = effect_triple(pi, CARDIA_MODEL, std)
        assert t == EffectTriple(0.0, 0.0, 0.0)

    def test_four_risk_arithmetic(self):
        # choose coefficients so the four risks are exactly known
        logit = lambda p: float(np.log(p / (1 - p)))
        r00, r10, r01, r11 = 0.4, 0.6, 0.5, 0.9
        pi = np.array([logit(r00),
                       logit(r10) - logit(r00),
                       logit(r01) - logit(r00),
                       logit(r11) - logit(r10) - logit(r01) + logit(r00)])
        t = effect_triple(pi, SAT_MODEL, single_row_std())
        assert t.te1 == pytest.approx(0.2, abs=1e-12)
        assert t.te2 == pytest.approx(0.1, abs=1e-12)
        assert t.int_ == pytest.approx(0.2, abs=1e-12)

    def test_fixture_plug_in(self):
        fit = cardia_fit()
        std = StandardizationSet.from_cohort(cardia_cohort())
        t = effect_triple(fit.pi_hat, CARDIA_MODEL, std)
        assert t.te1 == pytest.approx(0.12, abs=0.08)
        assert t.te2 == pytest.approx(-0.48, abs=0.08)
        assert t.int_ == pytest.approx(0.01, abs=0.08)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        std = StandardizationSet(rows=rng.normal(size=(15, 3)))
        pis = rng.normal(size=(50, CARDIA_MODEL.k))
        te1, te2, int_ = effect_triples_batch(pis, CARDIA_MODEL, std)
        for i in (0, 17, 49):
            t = effect_triple(pis[i], CARDIA_MODEL, std)
            assert te1[i] == pytest.approx(t.te1, abs=1e-14)
            assert te2[i] == pytest.approx(t.te2, abs=1e-14)
            assert int_[i] == pytest.approx(t.int_, abs=1e-14)


@st.composite
def pi_and_rows(draw):
    k = CARDIA_MODEL.k
    pi = draw(hnp.arrays(np.float64, k,
                         elements=st.floats(-8, 8, allow_nan=False)))
    n = draw(st.integers(1, 12))
    rows = draw(hnp.arrays(np.float64, (n, 3),
                           elements=st.floats(-5, 5, allow_nan=False)))
    return pi, rows


class TestProperties:
    @given(pi_and_rows())
    @settings(max_examples=200, deadline=None)
    def test_dual_int_identity_and_bounds(self, arg):
        pi, rows = arg
        t = effect_triple(pi, CARDIA_MODEL, StandardizationSet(rows))
        # EffectTriple's constructor enforces the bounds; the dual-interaction
        # assertion inside effect_triple enforces the identity at 1e-12
        assert -1.0 <= t.te1 <= 1.0
        assert -1.0 <= t.te2 <= 1.0
        assert -2.0 <= t.int_ <= 2.0

    @given(st.floats(-3, 3), st.floats(0.1, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_beta1(self, beta1, bump):
        std = StandardizationSet(
            rows=np.random.default_rng(2).normal(size=(6, 3)))
        base = np.array([0.2, beta1, -0.4, 0.3, 0.1, -0.2, 0.15, 0.0])
        raised = base.copy()
        raised[1] += bump
        t_lo = effect_triple(base, CARDIA_MODEL, std)
        t_hi = effect_triple(raised, CARDIA_MODEL, std)
        assert t_hi.te1 > t_lo.te1


class TestRandomizedTrialCollapse:
    def test_standardized_equals_crude(self):
        # covariates independent of exposures + saturated exposure model:
        # standardization must collapse to the crude risk differences
        rng = np.random.default_rng(21)
        records = []
        for z1 in (0, 1):
            for z2 in (0, 1):
                for _ in range(60):
                    x = tuple(rng.normal(size=2))
                    p = 0.15 + 0.2 * z1 + 0.3 * z2 + 0.1 * z1 * z2
                    records.append(
                        SubjectRecord(int(rng.random() < p), z1, z2, x))
        cohort = Cohort(tuple(records), ("x1", "x2"))

        from riskdiff.glm import build_design
        X = build_design(cohort, SAT_MODEL)
        y = np.array([r.y for r in cohort.records], dtype=float)
        fit = fit_logistic(X, y, term_names=SAT_MODEL.names)
        std = StandardizationSet.from_cohort(cohort)
        t = effect_triple(fit.pi_hat, SAT_MODEL, std)

        def crude(z1, z2):
            sel = [r.y for r in cohort.records
                   if r.z1 == z1 and r.z2 == z2]
            return sum(sel) / len(sel)

        assert t.te1 == pytest.approx(crude(1, 0) - crude(0, 0), abs=1e-8)
        assert t.te2 == pytest.approx(crude(0, 1) - crude(0, 0), abs=1e-8)
        assert t.int_ == pytest.approx(
            (crude(1, 1) - crude(0, 1)) - (crude(1, 0) - crude(0, 0)),
            abs=1e-8)


class TestEffectTripleType:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            EffectTriple(1.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            EffectTriple(0.0, 0.0, 2.5)


# Reference kernel: the per-subject evaluation the effect functionals must
# reproduce bit for bit -- every term added over every subject row in model
# order, the masked two-branch logistic transform, and the mean over all rows.

def _reference_expit(eta):
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _reference_mean_risk(pi, spec, z1, z2, rows):
    pi = np.asarray(pi, dtype=float)
    cols = design_columns(spec, z1, z2, rows)
    eta = np.zeros(pi.shape[:-1] + (cols.shape[1],))
    for j in range(spec.k):
        eta += pi[..., j, None] * cols[j]
    return np.mean(_reference_expit(eta), axis=-1)


def _reference_triples(pis, spec, rows):
    m00, m10, m01, m11 = (_reference_mean_risk(pis, spec, z1, z2, rows)
                          for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)))
    te1 = m10 - m00
    te2 = m01 - m00
    return te1, te2, (m11 - m01) - te1


@st.composite
def kernel_cases(draw):
    """A random model with all seven term kinds in random order, covariate
    rows with forced duplicates and signed zeros, and a coefficient stack
    whose predictors reach |eta| of several hundred."""
    m = draw(st.integers(1, 3))
    terms = [Term("intercept"), Term("z1"), Term("z2"), Term("z1z2")]
    for kind in ("x", "z1x", "z2x"):
        covs = draw(st.sets(st.integers(1, m), min_size=1))
        terms += [Term(kind, covariate=c) for c in sorted(covs)]
    spec = ModelSpec(tuple(draw(st.permutations(terms))))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(-10, 10, allow_nan=False))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), m),
                           elements=value))
    base[draw(st.integers(0, len(base) - 1))] = 0.0
    base[draw(st.integers(0, len(base) - 1))] = -0.0
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                          max_size=30))
    rows = base[picks]
    scale = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
    d = draw(st.integers(1, 50))
    pis = scale * draw(hnp.arrays(np.float64, (d, spec.k),
                                  elements=st.floats(-1, 1)))
    return spec, rows, pis


class TestKernelBits:
    @given(kernel_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_subject_reference(self, case):
        spec, rows, pis = case
        std = StandardizationSet(rows)
        got = effect_triples_batch(pis, spec, std)
        want = _reference_triples(pis, spec, rows)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert np.array_equal(
                marginal_risk(pis[0], spec, z1, z2, std),
                _reference_mean_risk(pis[0], spec, z1, z2, rows))

    def test_reaches_saturated_predictors(self):
        # the strategy's coefficient scales drive the kernel past exp's range
        spec = ModelSpec.parse("x1,z1,z2*x1,z1*z2,z2,z1*x1")
        rows = np.array([[8.0], [-8.0], [0.0], [-0.0], [8.0]])
        pis = np.linspace(-100.0, 100.0, 7 * spec.k).reshape(7, spec.k)
        assert np.max(np.abs(pis @ design_columns(spec, 1, 1, rows))) > 800
        got = effect_triples_batch(pis, spec, StandardizationSet(rows))
        for g, w in zip(got, _reference_triples(pis, spec, rows)):
            assert np.array_equal(g, w)

    def test_expit_special_values(self):
        eta = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 709.0,
                        -709.0, 745.0, -745.0, -746.0, 800.0, -800.0,
                        np.inf, -np.inf, np.nan])
        got, want = expit_stable(eta), _reference_expit(eta)
        finite = ~np.isnan(eta)
        assert np.array_equal(got[finite].view(np.uint64),
                              want[finite].view(np.uint64))
        assert np.isnan(got[~finite]).all() and np.isnan(want[~finite]).all()

    def test_distinct_rows_by_exact_bytes(self):
        rows = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [np.nan, 2.0],
                         [np.nan, 2.0]])
        distinct, inverse = StandardizationSet(rows).distinct
        assert len(distinct) == 3
        assert np.array_equal(distinct[inverse].view(np.uint64),
                              rows.view(np.uint64))

    def test_pickled_set_keeps_cache_and_bits(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, size=(40, 3)).astype(float)
        std = StandardizationSet(rows)
        pis = rng.normal(size=(20, CARDIA_MODEL.k))
        want = effect_triples_batch(pis, CARDIA_MODEL, std)
        copy = pickle.loads(pickle.dumps(std))
        assert "distinct" in vars(copy)
        assert np.array_equal(copy.distinct[1], std.distinct[1])
        for g, w in zip(effect_triples_batch(pis, CARDIA_MODEL, copy), want):
            assert np.array_equal(g, w)
