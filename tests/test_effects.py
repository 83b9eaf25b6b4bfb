"""Tests for the standardized effect functionals."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riskdiff import effects
from riskdiff.dataset import Cohort
from riskdiff.effects import (
    EffectTriple,
    StandardizationSet,
    effect_triple,
    effect_triples_batch,
    marginal_risk,
    risk,
)
from riskdiff.errors import DimensionMismatch, NonFiniteEffects
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

    @pytest.mark.parametrize("z1, z2", [(0.5, 0), (2, 0), (1, -1), (0, 1.5)])
    def test_exposures_other_than_0_or_1_are_refused(self, z1, z2):
        # the kernel sums a cell's lead terms without their exposure factor
        spec = ModelSpec.parse("z1,z2,z1*z2,x1")
        pi, x = np.array([0.3, 0.8, -0.4, 0.5, 0.2]), (1.0,)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            risk(pi, spec, z1, z2, x)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            marginal_risk(pi, spec, z1, z2, single_row_std(x))


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
        exposed = Cohort.from_columns([0] * 25, [1] * 25, [1] * 25, x,
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
        rows = []
        for z1 in (0, 1):
            for z2 in (0, 1):
                for _ in range(60):
                    x = rng.normal(size=2)
                    p = 0.15 + 0.2 * z1 + 0.3 * z2 + 0.1 * z1 * z2
                    rows.append((int(rng.random() < p), z1, z2, x))
        cohort = Cohort.from_columns(*zip(*rows), ("x1", "x2"))

        from riskdiff.glm import build_design
        X = build_design(cohort, SAT_MODEL)
        fit = fit_logistic(X, cohort.y, term_names=SAT_MODEL.names)
        std = StandardizationSet.from_cohort(cohort)
        t = effect_triple(fit.pi_hat, SAT_MODEL, std)

        def crude(z1, z2):
            return cohort.y[(cohort.z1 == z1) & (cohort.z2 == z2)].mean()

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


class TestNonFiniteEffects:
    """x1 and z1*x1 terms that overflow to opposite infinities give a NaN
    risk, which is refused before the dual-interaction check."""

    spec = ModelSpec.parse("z1,z2,x1,z1*x1")
    std = single_row_std((1.7e308,))

    def test_plug_in(self):
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEffects):
            effect_triple([0.0, 0.0, 0.0, 2.0, -2.0], self.spec, self.std)

    def test_one_vector_of_a_stack(self):
        pis = np.zeros((5, 5))
        assert np.all(np.isfinite(effect_triples_batch(pis, self.spec,
                                                       self.std)))
        pis[3, 3:] = (2.0, -2.0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteEffects):
            effect_triples_batch(pis, self.spec, self.std)


# Per-subject reference: every term added over every subject row in model
# order, the masked two-branch logistic transform, and the mean over all rows.
# The kernel stays within KERNEL_ATOL of it, plus the rounding of the
# reference's own predictor sum where large terms cancel (_eta_rounding).
KERNEL_ATOL = 8 * np.finfo(float).eps


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


def _reference_triples(pis, spec, rows, mean_risk=_reference_mean_risk):
    m00, m10, m01, m11 = (mean_risk(pis, spec, z1, z2, rows)
                          for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)))
    te1 = m10 - m00
    te2 = m01 - m00
    return te1, te2, (m11 - m01) - te1


# Formula reference: the arithmetic the kernel must reproduce bit for bit,
# written out plainly for the whole stack at once (its triples come from
# _reference_triples with _formula_mean_risk). eta = a + s splits into
# the terms without a covariate (a) and those with one (s), each summed in
# model order; each distinct row's risk times its number of subjects is
# count / (1 + exp(-a) exp(-s)), or count * expit_stable(a + s) where that
# product is not finite; the mean sums those along the rows and divides by n.

def _distinct_counts(rows):
    """Distinct rows, ordered by their bytes, and how often each occurs."""
    bits = np.unique(rows.view(np.uint64), axis=0)
    counts = (rows.view(np.uint64)[:, None] == bits).all(axis=-1).sum(axis=0)
    return bits.view(float), counts.astype(float)


def _formula_parts(pis, spec, z1, z2, rows):
    """(a, s, exp(-a) exp(-s)) of one cell over a (d, k) stack."""
    cols = design_columns(spec, z1, z2, rows)
    a, s = np.zeros(len(pis)), np.zeros((len(pis), len(rows)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(spec.terms):
            if t.covariate:
                s += pis[:, j, None] * cols[j]
            else:
                a += pis[:, j] * cols[j, 0]
        return a, s, np.exp(-a)[:, None] * np.exp(-s)


def _formula_mean_risk(pis, spec, z1, z2, rows):
    pis = np.asarray(pis, dtype=float)
    distinct, counts = _distinct_counts(rows)
    a, s, prod = _formula_parts(pis.reshape(-1, spec.k), spec, z1, z2,
                                distinct)
    weighted = counts / (1.0 + prod)
    bad = ~np.isfinite(prod)
    weighted[bad] = (np.broadcast_to(counts, prod.shape)[bad]
                     * expit_stable((a[:, None] + s)[bad]))
    return (np.sum(weighted, axis=-1) / len(rows)).reshape(pis.shape[:-1])


def _eta_rounding(pis, spec, rows):
    """Per cell and vector, the mean over subject rows of
    r (1 - r) (k + 1) eps sum_j |pi_j d_j|: two summation orders of the
    same predictor each lie within (k + 1) eps / 2 sum_j |pi_j d_j| of the
    exact sum, and a risk r moves by r (1 - r) per unit of predictor."""
    bounds = []
    for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        cols = design_columns(spec, z1, z2, rows)
        r = _reference_expit(pis @ cols)
        bounds.append(np.mean(r * (1 - r) * (np.abs(pis) @ np.abs(cols)),
                              axis=-1))
    return (spec.k + 1) * np.finfo(float).eps * np.array(bounds)


def _assert_kernel(pis, spec, rows):
    """The kernel's effects and marginal risks have the formula reference's
    bits, and lie within KERNEL_ATOL of the per-subject reference plus that
    reference's predictor rounding."""
    std = StandardizationSet(rows)
    got = effect_triples_batch(pis, spec, std)
    rounding = _eta_rounding(pis, spec, rows)
    for g, w, p in zip(got,
                       _reference_triples(pis, spec, rows, _formula_mean_risk),
                       _reference_triples(pis, spec, rows)):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        assert np.all(np.abs(g - p) <= KERNEL_ATOL + rounding.sum(axis=0))
    for c, (z1, z2) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        m = marginal_risk(pis[0], spec, z1, z2, std)
        assert np.array_equal(m, _formula_mean_risk(pis[0], spec, z1, z2,
                                                    rows))
        assert abs(m - _reference_mean_risk(pis[0], spec, z1, z2, rows)) \
            <= KERNEL_ATOL + rounding[c, 0]


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
        _assert_kernel(pis, spec, rows)

    def test_reaches_saturated_predictors(self, monkeypatch):
        # coefficients this large drive exp(-a) and exp(-s) past exp's range:
        # exp(-a) exp(-s) is inf or inf * 0 = NaN on some entries, and the
        # kernel takes expit_stable(a + s) there
        spec = ModelSpec.parse("x1,z1,z2*x1,z1*z2,z2,z1*x1")
        rows = np.array([[8.0], [-8.0], [0.0], [-0.0], [8.0]])
        pis = np.linspace(-300.0, 300.0, 7 * spec.k).reshape(7, spec.k)
        assert np.max(np.abs(pis @ design_columns(spec, 1, 1, rows))) > 800
        prods, fallback = [], []
        for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            a, s, prod = _formula_parts(pis, spec, z1, z2,
                                        _distinct_counts(rows)[0])
            prods.append(prod)
            fallback.append((a[:, None] + s)[~np.isfinite(prod)])
        assert np.any(np.isinf(prods)) and np.any(np.isnan(prods))
        calls = []

        def spy(eta):
            calls.append(np.array(eta))
            return expit_stable(eta)

        with monkeypatch.context() as mp:
            mp.setattr(effects, "expit_stable", spy)
            effect_triples_batch(pis, spec, StandardizationSet(rows))
        assert calls
        assert np.array_equal(np.sort(np.concatenate(calls)),
                              np.sort(np.concatenate(fallback)),
                              equal_nan=True)
        _assert_kernel(pis, spec, rows)

    def test_loose_bound_without_a_bad_product(self, monkeypatch):
        # one vector has exp(-a) = e^600, the other exp(-s) = e^600 on one
        # row: their maxima multiply past the largest float, but every
        # single product is at most e^600, so no entry takes the fallback
        spec = ModelSpec.parse("z1,z2,x1")
        rows = np.array([[0.0], [1.0], [1.0]])
        pis = np.array([[-600.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -600.0]])
        distinct = _distinct_counts(rows)[0]
        for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            a, s, prod = _formula_parts(pis, spec, z1, z2, distinct)
            with np.errstate(over="ignore"):
                assert np.isinf(np.exp(-a).max() * np.exp(-s).max())
            assert np.all(np.isfinite(prod))
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(effects, "expit_stable",
                       lambda eta: calls.append(eta) or expit_stable(eta))
            effect_triples_batch(pis, spec, StandardizationSet(rows))
        assert calls == []
        _assert_kernel(pis, spec, rows)

    def test_counts_divide_in_one_rounding(self):
        # counts 3, 5 and 6 are not powers of two: here c / x and
        # (1 / x) * c differ in some entries and in two cells' means
        spec = ModelSpec.parse("z1,z2,x1,z1*x1")
        rows = np.array([[0.5]] * 3 + [[-1.25]] * 5 + [[2.0]] * 6)
        pis = np.linspace(-1.0, 1.0, 3 * spec.k).reshape(3, spec.k)
        distinct, counts = _distinct_counts(rows)
        assert sorted(counts) == [3.0, 5.0, 6.0]
        moved = 0
        for z1, z2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            x = 1.0 + _formula_parts(pis, spec, z1, z2, distinct)[2]
            moved += np.sum(np.sum(counts / x, axis=-1)
                            != np.sum((1.0 / x) * counts, axis=-1))
        assert moved == 2
        _assert_kernel(pis, spec, rows)

    def test_many_distinct_rows_restore_the_buffer_size(self):
        # from 128 distinct rows on the kernel runs numpy's ufuncs with a
        # buffer of about one row: the bits stay the formula's, and the
        # caller's buffer size is back when the kernel returns
        rng = np.random.default_rng(6)
        spec = ModelSpec.parse("z2*x2,z1,x1,z1*z2,z2,z1*x1")
        rows = np.round(rng.normal(size=(600, 2)), 1)
        assert len(_distinct_counts(rows)[0]) > 300
        pis = rng.normal(size=(40, spec.k))
        before = np.getbufsize()
        _assert_kernel(pis, spec, rows)
        assert np.getbufsize() == before

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
        std = StandardizationSet(rows)
        assert std.n == 5 and std.counts.dtype == float
        assert np.array_equal(std.distinct.view(np.uint64),
                              np.unique(rows.view(np.uint64), axis=0))
        assert ({r.tobytes(): c for r, c in zip(std.distinct, std.counts)}
                == {rows[0].tobytes(): 2.0, rows[1].tobytes(): 1.0,
                    rows[3].tobytes(): 2.0})

    def test_int_lists_give_the_float_array_set(self):
        rows = [[3, 0], [1, 1], [3, 0], [-2, 1]]
        got, want = (StandardizationSet(r) for r in (rows, np.array(rows, float)))
        assert got.n == want.n == 4
        for name in ("distinct", "counts"):
            assert getattr(got, name).dtype == float
            assert (getattr(got, name).tobytes()
                    == getattr(want, name).tobytes())

    def test_pickled_set_keeps_rows_counts_and_bits(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3, size=(40, 3)).astype(float)
        std = StandardizationSet(rows)
        pis = rng.normal(size=(20, CARDIA_MODEL.k))
        want = effect_triples_batch(pis, CARDIA_MODEL, std)
        copy = pickle.loads(pickle.dumps(std))
        assert copy.n == std.n
        for name in ("distinct", "counts"):
            assert (getattr(copy, name).tobytes()
                    == getattr(std, name).tobytes())
        for g, w in zip(effect_triples_batch(pis, CARDIA_MODEL, copy), want):
            assert np.array_equal(g, w)


def _per_row(rows, w):
    """A function of each covariate row that tells 0.0 from -0.0 in x1:
    atan2(x1, -1) is pi at 0.0 and -pi at -0.0. w of shape (d, 1) stacks it."""
    return np.arctan2(rows[:, 0], -1.0) + w * rows[:, -1]


@st.composite
def mean_cases(draw):
    """Covariate rows with repeats, 0.0 and -0.0, up to 400 subjects (past
    np.mean's 128-element pairwise blocks), and a 1-D or stacked weight."""
    m = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    base = draw(hnp.arrays(np.float64, (draw(st.integers(2, 8)), m),
                           elements=value))
    base[0, 0], base[1, 0] = 0.0, -0.0
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1,
                          max_size=400))
    shape = draw(st.sampled_from([(), (1, 1), (7, 1)]))
    w = draw(hnp.arrays(np.float64, shape, elements=st.floats(-10, 10)))
    return base[picks], w


class TestStandardizationMean:
    @given(mean_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_per_subject_mean(self, case):
        # bits of the count-weighted sum over distinct rows; within the
        # rounding bound of two n-term sums of the per-subject values
        rows, w = case
        std = StandardizationSet(rows)
        distinct, counts = _distinct_counts(rows)
        got = std.mean(_per_row(std.distinct, w))
        formula = np.sum(_per_row(distinct, w) * counts, axis=-1) / len(rows)
        values = _per_row(rows, w)
        want = np.mean(values, axis=-1)
        assert got.shape == want.shape == np.shape(w)[:-1]
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(formula).view(np.uint64))
        bound = 2 * len(rows) * np.finfo(float).eps
        assert np.all(np.abs(got - want)
                      <= bound * np.mean(np.abs(values), axis=-1))

    @given(mean_cases())
    @settings(max_examples=50, deadline=None)
    def test_bits_do_not_depend_on_stack_height(self, case):
        std = StandardizationSet(case[0])
        values = _per_row(std.distinct, np.linspace(-3.0, 3.0, 7)[:, None])
        stacked = std.mean(values)
        for i in range(7):
            alone = std.mean(values[i:i + 1])
            assert alone.tobytes() == stacked[i:i + 1].tobytes()

    def test_signed_zeros_stay_apart(self):
        std = StandardizationSet(np.array([[0.0], [-0.0], [0.0]]))
        assert len(std.distinct) == 2
        got = std.mean(_per_row(std.distinct, 0.0))
        assert got == np.mean([np.pi, -np.pi, np.pi])


@pytest.fixture(scope="class", params=[1, 12])
def small_blocks(request):
    """Kernel blocks of at most 1 or 12 vectors x distinct rows, so that
    the kernel cases span several blocks, often with a remainder block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(effects, "BLOCK_ELEMENTS", request.param)
        yield request.param


@pytest.mark.usefixtures("small_blocks")
class TestKernelBitsAcrossBlocks:
    test_matches_per_subject_reference = \
        TestKernelBits.test_matches_per_subject_reference
    test_reaches_saturated_predictors = \
        TestKernelBits.test_reaches_saturated_predictors
