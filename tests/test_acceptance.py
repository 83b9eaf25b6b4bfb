"""Acceptance suite: one test per acceptance criterion.

Each test prints a single PASS line on success (pytest reports the FAIL
line otherwise). Published reference values come from the study that the
bundled cohort reconstruction mirrors; the raw subject ages behind that
study are unavailable, so criteria 1-3 use the documented loose tolerances.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from riskdiff.dataset import Cohort
from riskdiff.effects import (
    StandardizationSet,
    effect_triple,
    effect_triples_batch,
    marginal_risk,
)
from riskdiff.fixtures import cardia_cohort, cardia_fit
from riskdiff.glm import (
    CARDIA_MODEL,
    ModelSpec,
    build_design,
    expit_stable,
    fit_logistic,
)
from riskdiff.inference import (
    chi2_2df_quantile,
    confidence_ellipse,
    delta_method_check,
    percentile_ci,
    quantile,
    tercile_report,
)
from riskdiff.montecarlo import effect_distribution

ACCEPTANCE_SEED = 42
ACCEPTANCE_DRAWS = 10 ** 5

SAT_MODEL = ModelSpec.parse("z1,z2,z1*z2")


@pytest.fixture(scope="module")
def pipeline():
    """Fixture fit + reconstruction cohort -> plug-in triple and draw cloud."""
    fit = cardia_fit()
    cohort = cardia_cohort()
    std = StandardizationSet.from_cohort(cohort)
    plug = effect_triple(fit.pi_hat, CARDIA_MODEL, std)
    t0 = time.perf_counter()
    dist = effect_distribution(fit, CARDIA_MODEL, std,
                               n_draws=ACCEPTANCE_DRAWS, seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - t0
    return fit, cohort, std, plug, dist, elapsed


def ok(line):
    print(f"PASS  {line}")


def test_criterion_01_plug_in_estimates(pipeline):
    fit, cohort, std, plug, _, _ = pipeline
    t0 = time.perf_counter()
    triple = effect_triple(fit.pi_hat, CARDIA_MODEL, std)
    elapsed = time.perf_counter() - t0
    assert triple.te1 == pytest.approx(0.12, abs=0.08)
    assert triple.te2 == pytest.approx(-0.48, abs=0.08)
    assert triple.int_ == pytest.approx(0.01, abs=0.08)
    assert elapsed < 1.0
    ok(f"criterion 1: plug-in (te1, te2, int) = ({triple.te1:+.3f}, "
       f"{triple.te2:+.3f}, {triple.int_:+.3f}) within ±0.08 of "
       f"(0.12, -0.48, 0.01) in {elapsed:.3f}s")


def test_criterion_02_interaction_intervals(pipeline):
    _, _, _, _, dist, elapsed = pipeline
    lo95, hi95 = percentile_ci(dist.int_, 0.05)
    lo50, hi50 = percentile_ci(dist.int_, 0.5)
    assert lo95 == pytest.approx(-0.31, abs=0.05)
    assert hi95 == pytest.approx(0.34, abs=0.05)
    assert lo50 == pytest.approx(-0.10, abs=0.05)
    assert hi50 == pytest.approx(0.14, abs=0.05)
    assert elapsed < 10.0
    ok(f"criterion 2: INT 95% CI ({lo95:+.3f}, {hi95:+.3f}) and 50% CI "
       f"({lo50:+.3f}, {hi50:+.3f}) within ±0.05 of (-0.31, 0.34) / "
       f"(-0.10, 0.14); {ACCEPTANCE_DRAWS} draws in {elapsed:.1f}s")


def test_criterion_03_tercile_reports(pipeline):
    _, _, _, _, dist, _ = pipeline
    targets = {
        "te1": {
            "boundaries": (0.105, 0.246),
            "points": (0.18, 0.03, -0.15),
            "ci95": ((-0.05, 0.40), (-0.20, 0.21), (-0.40, 0.04)),
        },
        "te2": {
            "boundaries": (-0.508, -0.374),
            "points": (0.18, 0.01, -0.14),
            "ci95": ((-0.04, 0.40), (-0.20, 0.23), (-0.40, 0.14)),
        },
    }
    for which, t in targets.items():
        rep = tercile_report(dist, which)
        for got, want in zip(rep.boundaries, t["boundaries"]):
            assert got == pytest.approx(want, abs=0.03), \
                f"{which} boundary {got:+.3f} vs {want:+.3f}"
        for stratum, want_pt, want_ci in zip(rep.strata, t["points"],
                                             t["ci95"]):
            assert stratum.point == pytest.approx(want_pt, abs=0.05), \
                f"{which} stratum point {stratum.point:+.3f} vs {want_pt:+.3f}"
            for got, want in zip(stratum.ci95, want_ci):
                assert got == pytest.approx(want, abs=0.06), \
                    f"{which} stratum CI endpoint {got:+.3f} vs {want:+.3f}"
    ok("criterion 3: tercile boundaries (±0.03), stratum points (±0.05) and "
       "stratum 95% CI endpoints (±0.06) all match the published values")


def test_criterion_04_dual_interaction_identity():
    rng = np.random.default_rng(2024)
    total = 0
    worst = 0.0
    for _ in range(20):
        rows = rng.normal(scale=rng.uniform(0.5, 3.0),
                          size=(rng.integers(1, 30), 3))
        std = StandardizationSet(rows=rows)
        pis = rng.normal(scale=rng.uniform(0.2, 4.0),
                         size=(500, CARDIA_MODEL.k))
        for pi in pis:
            m00 = marginal_risk(pi, CARDIA_MODEL, 0, 0, std)
            m10 = marginal_risk(pi, CARDIA_MODEL, 1, 0, std)
            m01 = marginal_risk(pi, CARDIA_MODEL, 0, 1, std)
            m11 = marginal_risk(pi, CARDIA_MODEL, 1, 1, std)
            via_te1 = (m11 - m01) - (m10 - m00)
            via_te2 = (m11 - m10) - (m01 - m00)
            worst = max(worst, abs(via_te1 - via_te2))
        # the batch evaluator asserts the same identity internally
        effect_triples_batch(pis, CARDIA_MODEL, std)
        total += len(pis)
    assert total == 10 ** 4
    assert worst <= 1e-12
    ok(f"criterion 4: dual-interaction identity holds to {worst:.1e} "
       f"(<= 1e-12) over {total} random parameter vectors")


def test_criterion_05_fit_correctness():
    # closed-form recovery on a saturated 2x2 table
    X, y = [], []
    for x, (events, n) in {0: (10, 30), 1: (20, 30)}.items():
        X += [[1.0, float(x)]] * n
        y += [1] * events + [0] * (n - events)
    fit = fit_logistic(np.array(X), np.array(y, dtype=float))
    assert fit.pi_hat[0] == pytest.approx(np.log(0.5), abs=1e-6)
    assert fit.pi_hat[1] == pytest.approx(np.log(4.0), abs=1e-6)

    # score max-norm and FD-Hessian covariance agreement on 50 random fits
    rng = np.random.default_rng(7)
    worst_score, worst_rel = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(150, 400))
        k = int(rng.integers(2, 5))
        Xs = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        beta = rng.normal(scale=0.6, size=k)
        ys = (rng.random(n) < expit_stable(Xs @ beta)).astype(float)
        f = fit_logistic(Xs, ys)
        mu = expit_stable(Xs @ f.pi_hat)
        worst_score = max(worst_score, float(np.max(np.abs(Xs.T @ (ys - mu)))))

        def ll(b):
            e = Xs @ b
            return ys @ e - np.sum(np.logaddexp(0.0, e))

        h = 1e-5
        H = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                ea, eb = np.zeros(k), np.zeros(k)
                ea[a], eb[b] = h, h
                H[a, b] = (ll(f.pi_hat + ea + eb) - ll(f.pi_hat + ea - eb)
                           - ll(f.pi_hat - ea + eb)
                           + ll(f.pi_hat - ea - eb)) / (4 * h * h)
        sigma_fd = np.linalg.inv(-H)
        rel = np.max(np.abs(f.sigma_hat - sigma_fd)) / np.max(np.abs(sigma_fd))
        worst_rel = max(worst_rel, float(rel))
    assert worst_score < 1e-6
    assert worst_rel < 1e-4
    ok(f"criterion 5: closed-form recovery to 1e-6; worst score norm "
       f"{worst_score:.1e} (< 1e-6); worst covariance-vs-FD-Hessian error "
       f"{worst_rel:.1e} (< 1e-4) over 50 fits")


def test_criterion_06_randomized_trial_collapse():
    rng = np.random.default_rng(77)
    rows = []
    for z1 in (0, 1):
        for z2 in (0, 1):
            for _ in range(80):
                p = 0.2 + 0.25 * z1 + 0.2 * z2 - 0.1 * z1 * z2
                rows.append((int(rng.random() < p), z1, z2,
                             rng.normal(size=2)))
    cohort = Cohort.from_columns(*zip(*rows), ("x1", "x2"))
    X = build_design(cohort, SAT_MODEL)
    fit = fit_logistic(X, cohort.y, term_names=SAT_MODEL.names)
    std = StandardizationSet.from_cohort(cohort)
    t = effect_triple(fit.pi_hat, SAT_MODEL, std)

    def crude(z1, z2):
        return cohort.y[(cohort.z1 == z1) & (cohort.z2 == z2)].mean()

    c_te1 = crude(1, 0) - crude(0, 0)
    c_te2 = crude(0, 1) - crude(0, 0)
    c_int = (crude(1, 1) - crude(0, 1)) - c_te1
    assert t.te1 == pytest.approx(c_te1, abs=1e-8)
    assert t.te2 == pytest.approx(c_te2, abs=1e-8)
    assert t.int_ == pytest.approx(c_int, abs=1e-8)
    ok("criterion 6: standardized effects equal crude contrasts within 1e-8 "
       "for exposure-independent covariates + saturated exposure model")


def test_criterion_07_ellipse_calibration():
    assert chi2_2df_quantile(0.05) == -2.0 * np.log(0.05)
    assert chi2_2df_quantile(0.05) == pytest.approx(5.9915, abs=5e-5)
    rng = np.random.default_rng(15)
    pairs = rng.standard_normal((10 ** 5, 2))
    ell = confidence_ellipse(pairs, alpha=0.05)
    d = pairs - ell.center
    inv = np.linalg.inv(ell.shape)
    maha = np.einsum("ij,jk,ik->i", d, inv, d)
    frac = float(np.mean(maha <= ell.quantile))
    assert frac == pytest.approx(0.95, abs=0.005)
    ok(f"criterion 7: chi2_2(0.95) = {ell.quantile:.4f} exactly -2 ln(0.05); "
       f"inside fraction {frac:.4f} = 0.95 ± 0.005 on 1e5 pairs")


def test_criterion_08_delta_method_cross_check():
    rng = np.random.default_rng(100)
    spec = ModelSpec.parse("z1,z2,z1*z2,x1")
    worst = 0.0
    for trial in range(20):
        rows = []
        beta = np.array([rng.normal(scale=0.4), rng.normal(scale=0.5),
                         rng.normal(scale=0.5), rng.normal(scale=0.3),
                         rng.normal(scale=0.4)])
        for _ in range(300):
            z1, z2 = int(rng.random() < 0.5), int(rng.random() < 0.5)
            x = float(rng.normal())
            eta = beta @ np.array([1.0, z1, z2, z1 * z2, x])
            rows.append((int(rng.random() < expit_stable(eta)), z1, z2,
                         (x,)))
        cohort = Cohort.from_columns(*zip(*rows), ("x1",))
        X = build_design(cohort, spec)
        fit = fit_logistic(X, cohort.y, term_names=spec.names)
        std = StandardizationSet.from_cohort(cohort)
        delta = delta_method_check(fit, spec, std)
        dist = effect_distribution(fit, spec, std, n_draws=10 ** 5,
                                   seed=1000 + trial)
        for w in ("te1", "te2", "int"):
            mc = float(np.var(dist.component(w), ddof=1))
            rel = abs(delta[w] - mc) / mc
            worst = max(worst, rel)
            assert rel < 0.20, f"trial {trial} {w}: delta {delta[w]:.3e} " \
                               f"vs MC {mc:.3e} ({100 * rel:.1f}%)"
    ok(f"criterion 8: delta variances within 20% of 1e5-draw MC variances "
       f"on 20 synthetic fits (worst {100 * worst:.1f}%)")


def test_criterion_09_determinism(tmp_path):
    from riskdiff.fixtures import cardia_cohort  # noqa: F401 (fixture data)
    fixture_dir = tmp_path / "fixture"
    base = [sys.executable, "-m", "riskdiff.cli"]
    subprocess.run(base + ["fixture", "--out", str(fixture_dir)],
                   check=True, capture_output=True)
    report = base + [
        "report", "--input", str(fixture_dir / "cardia_cohort.csv"),
        "--outcome-col", "survival", "--exposure1-col", "large_hospital",
        "--exposure2-col", "advanced_stage", "--covariate-cols",
        "age,male,urban", "--model", "z1,z2,z1*z2,x1,x2,x3,z1*x1",
        "--fit-json", str(fixture_dir / "cardia_fit.json"),
        "--draws", "2000", "--seed", "31",
    ]
    outputs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        out = tmp_path / name
        subprocess.run(report + ["--out", str(out)] + extra,
                       check=True, capture_output=True)
        outputs.append((out / "draws.csv").read_bytes())
    assert outputs[0] == outputs[1], "same config must give identical bytes"
    assert outputs[0] == outputs[2], "parallelism must not change the bytes"
    ok("criterion 9: draws.csv byte-identical across reruns and across "
       "worker counts 1 vs 2")


def test_criterion_10_coverage_property():
    rng = np.random.default_rng(4242)
    spec = ModelSpec.parse("z1,z2,z1*z2,x1")
    truth = np.array([-0.4, 0.7, -0.5, 0.4, 0.5])

    def draw_cohort(n=500):
        z1 = (rng.random(n) < 0.5).astype(int)
        z2 = (rng.random(n) < 0.5).astype(int)
        x = rng.normal(size=n)
        eta = truth @ np.array([np.ones(n), z1, z2, z1 * z2, x])
        yv = (rng.random(n) < expit_stable(eta)).astype(int)
        return Cohort.from_columns(yv, z1, z2, x[:, None], ("x1",))

    # population truth for INT: standardize over a large reference sample
    ref = StandardizationSet(rows=rng.normal(size=(10 ** 5, 1)))
    true_int = effect_triple(truth, spec, ref).int_

    t0 = time.perf_counter()
    covered = 0
    replicates = 200
    for rep in range(replicates):
        cohort = draw_cohort()
        X = build_design(cohort, spec)
        fit = fit_logistic(X, cohort.y, term_names=spec.names)
        std = StandardizationSet.from_cohort(cohort)
        dist = effect_distribution(fit, spec, std, n_draws=1000, seed=rep)
        lo, hi = percentile_ci(dist.int_, 0.05)
        covered += int(lo <= true_int <= hi)
    elapsed = time.perf_counter() - t0
    rate = covered / replicates
    assert rate == pytest.approx(0.95, abs=0.04)
    assert elapsed < 300.0
    ok(f"criterion 10: 95% CI covered the true INT in {covered}/{replicates} "
       f"replicates ({100 * rate:.1f}%, within 95% ± 4%) in {elapsed:.0f}s")
