"""Checks of every operation's outputs against an independent computation.

Everything the checks compare against is computed here with numpy/scipy
from the input CSV: its own model-term parser, design builder, Newton fit,
g-computation and delta-method gradient. Nothing is compared against a
stored copy of earlier output. The one deliberate exception is the draw
prefix check, which compares the CLI's draws with an in-process
`effect_distribution` call at another chunk size: that is the program's
guarantee that draw bits do not depend on chunk size or worker count.

Each check returns a list of failures, each "<check>: <detail>"; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit, ndtri

from workloads import COVARIATES, MODEL, Inputs, Workload

ABS_TOL = 1e-12         # effects, draws, intervals, terciles, ellipses
FIT_TOL = 1e-8          # coefficients (absolute), covariance (relative)
SCORE_TOL = 1e-9        # score max-norm divided by n
LOGLIK_RTOL = 1e-10     # the program's own relative deviance stopping rule
DELTA_RTOL = 0.2        # delta-method vs Monte Carlo variance
ALPHA = 0.05            # the CLI's default --alpha, which the benchmark keeps
PREFIX_DRAWS = 300
PREFIX_CHUNK = 97       # odd, so no chunk boundary matches the CLI's
N_RECOMPUTED = 10
EFFECTS = ("te1", "te2", "int")


# --- independent model -----------------------------------------------------

def parse_terms(model: str) -> list[tuple[str, ...]]:
    """Model terms as factor tuples; the intercept () comes first."""
    terms = [()]
    for part in model.split(","):
        s = part.replace(" ", "")
        if s:
            terms.append(tuple(s.split("*")))
    return terms


def design(terms, z1, z2, x: np.ndarray) -> np.ndarray:
    """Design matrix; z1/z2 are per-row arrays or scalars."""
    n = x.shape[0]
    values = {"z1": np.broadcast_to(np.asarray(z1, float), (n,)),
              "z2": np.broadcast_to(np.asarray(z2, float), (n,))}
    cols = []
    for term in terms:
        col = np.ones(n)
        for f in term:
            col = col * (values[f] if f in values else x[:, int(f[1:]) - 1])
        cols.append(col)
    return np.column_stack(cols)


def read_cohort(inputs: Inputs):
    """(y, z1, z2, x) arrays from the input CSV."""
    header = inputs.csv.read_text().split("\n", 1)[0].strip().split(",")
    data = np.loadtxt(inputs.csv, delimiter=",", skiprows=1, ndmin=2)
    col = {name: data[:, header.index(name)] for name in header}
    x = np.column_stack([col[c] for c in COVARIATES])
    return col[inputs.outcome], col[inputs.exposure1], col[inputs.exposure2], x


def information(D: np.ndarray, pi: np.ndarray) -> np.ndarray:
    mu = expit(D @ pi)
    return D.T @ (D * (mu * (1.0 - mu))[:, None])


def newton_fit(D: np.ndarray, y: np.ndarray):
    """Plain Newton on the Bernoulli log-likelihood, run to machine precision."""
    pi = np.zeros(D.shape[1])
    for _ in range(100):
        step = np.linalg.solve(information(D, pi), D.T @ (y - expit(D @ pi)))
        pi = pi + step
        if np.max(np.abs(step)) <= 1e-13 * (1.0 + np.max(np.abs(pi))):
            return pi, np.linalg.inv(information(D, pi))
    raise RuntimeError("reference Newton fit did not converge")


def marginal_designs(terms, x):
    """Design at each exposure pair, in the order 00, 10, 01, 11."""
    return [design(terms, a, b, x) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))]


def g_computation(designs, pis: np.ndarray) -> np.ndarray:
    """(te1, te2, int) for each row of pis, shape (d, 3)."""
    m00, m10, m01, m11 = (expit(D @ pis.T).mean(axis=0) for D in designs)
    return np.column_stack([m10 - m00, m01 - m00, m11 - m10 - m01 + m00])


def delta_variances(designs, pi, sigma) -> np.ndarray:
    """Delta-method variances from the exact gradient mean_i mu(1-mu) d_i."""
    def gradient(D):
        mu = expit(D @ pi)
        return D.T @ (mu * (1.0 - mu)) / D.shape[0]

    g00, g10, g01, g11 = (gradient(D) for D in designs)
    grads = np.array([g10 - g00, g01 - g00, g11 - g10 - g01 + g00])
    return np.einsum("ij,jk,ik->i", grads, sigma, grads)


def draw_coefficients(pi, sigma, seed: int, indices) -> np.ndarray:
    """Coefficient draws pi + chol(sigma) z, z from Philox(key=[seed, i])."""
    L = np.linalg.cholesky(sigma)
    out = []
    for i in indices:
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed % (1 << 64), i], dtype=np.uint64)))
        u = gen.random(len(pi))
        u[u == 0.0] = 0.5 ** 53
        out.append(pi + L @ ndtri(u))
    return np.array(out)


# --- reference values, built once per run ----------------------------------

@dataclass
class Reference:
    workload: Workload
    rows: int
    plug: np.ndarray | None = None          # (te1, te2, int) at pi
    delta_var: np.ndarray | None = None
    recomputed: dict | None = None          # draw index -> (te1, te2, int)
    prefix: np.ndarray | None = None        # program draws at PREFIX_CHUNK
    design: np.ndarray | None = None        # observed design, fit workloads
    y: np.ndarray | None = None
    pi: np.ndarray | None = None            # benchmark's own fit
    failures: tuple = ()                    # failures that hit every operation
    program: dict | None = None             # riskdiff objects, for tracing


def build_reference(workload: Workload, inputs: Inputs, seed: int) -> Reference:
    from riskdiff import (ColumnSchema, FitResult, ModelSpec,
                          StandardizationSet, build_design,
                          effect_distribution, fit_logistic, load_cohort)

    y, z1, z2, x = read_cohort(inputs)
    terms = parse_terms(MODEL)
    ref = Reference(workload, rows=len(y))
    if inputs.fit_json is None:
        ref.design, ref.y = design(terms, z1, z2, x), y
        ref.pi, sigma = newton_fit(ref.design, y)
        pi = ref.pi
    else:
        d = json.loads(inputs.fit_json.read_text())
        k = len(d["coefficients"])
        pi = np.array(d["coefficients"], dtype=float)
        sigma = np.array(d["covariance"], dtype=float).reshape(k, k)
    if workload.command != "report":
        return ref

    spec = ModelSpec.parse(MODEL)
    cohort = load_cohort(inputs.csv, ColumnSchema(
        inputs.outcome, inputs.exposure1, inputs.exposure2, COVARIATES))
    if inputs.fit_json is not None:
        fit = FitResult.from_json(inputs.fit_json.read_text())
    else:
        # The bundle carries no fit, so fit the same input in-process (the
        # draw prefix check ties it bit for bit to the operation's fit) and
        # check it once. Its coefficients stop short of the 1e-8 / 1e-9
        # bounds on a few seeds in a thousand, so here the fit is held to
        # the program's own log-likelihood stopping rule instead.
        fit = fit_logistic(build_design(cohort, spec), y,
                           term_names=spec.names)
        ref.failures = tuple(check_fit_optimum(fit.pi_hat, fit.sigma_hat,
                                               ref))
        pi, sigma = fit.pi_hat, fit.sigma_hat

    designs = marginal_designs(terms, x)
    ref.plug = g_computation(designs, pi[None, :])[0]
    ref.delta_var = delta_variances(designs, pi, sigma)
    n = workload.draws
    rng = np.random.default_rng([seed, 1])
    idx = sorted({0, n - 1, *rng.choice(n, N_RECOMPUTED - 2,
                                        replace=False).tolist()})
    ref.recomputed = dict(zip(idx, g_computation(
        designs, draw_coefficients(pi, sigma, seed, idx))))
    std = StandardizationSet.from_cohort(cohort)
    pre = effect_distribution(fit, spec, std, n_draws=min(PREFIX_DRAWS, n),
                              seed=seed, chunk_size=PREFIX_CHUNK, workers=1)
    ref.prefix = np.column_stack([pre.te1, pre.te2, pre.int_])
    ref.program = {"fit": fit, "spec": spec, "std": std}
    return ref


# --- checks ----------------------------------------------------------------

def _close(name, got, want, tol=ABS_TOL):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{name}: off by {err:.3e} > {tol:g}"]


def read_draws(bundle: Path) -> np.ndarray:
    lines = (bundle / "draws.csv").read_text().split("\n", 2)
    if not lines[0].startswith("#") or lines[1] != "draw_index,te1,te2,int":
        raise ValueError("draws.csv header is not '# meta' + column names")
    return np.loadtxt(bundle / "draws.csv", delimiter=",", skiprows=2,
                      ndmin=2)


def _json(bundle, name):
    return json.loads((bundle / name).read_text())


def check_plugin(bundle, ref, draws):
    e = _json(bundle, "effects.json")
    return _close("plugin", [e["te1"], e["te2"], e["int"]], ref.plug)


def check_draws(bundle, ref, draws):
    n = ref.workload.draws
    if draws.shape != (n, 4):
        return [f"draws: shape {draws.shape} != {(n, 4)}"]
    fails = []
    if not np.array_equal(draws[:, 0], np.arange(n)):
        fails.append("draws: indices are not 0..n-1")
    vals = draws[:, 1:]
    if not np.all(np.isfinite(vals)):
        fails.append("draws: non-finite value")
    elif np.any(np.abs(vals) > np.array([1.0, 1.0, 2.0])):
        fails.append("draws: value outside [-1,1]x[-1,1]x[-2,2]")
    for i, want in ref.recomputed.items():
        fails += _close(f"draws[{i}]", vals[i], want)
    return fails


def check_draw_prefix(bundle, ref, draws):
    got = np.ascontiguousarray(draws[:len(ref.prefix), 1:])
    if got.shape != ref.prefix.shape or not np.array_equal(
            got.view(np.uint64), ref.prefix.view(np.uint64)):
        return ["draw_prefix: draws differ from an in-process run at "
                f"chunk_size={PREFIX_CHUNK}"]
    return []


def check_intervals(bundle, ref, draws):
    fails = []
    for j, which in enumerate(EFFECTS):
        m = _json(bundle, f"marginal_{which}.json")
        col = draws[:, 1 + j]
        fails += _close(f"intervals[{which}].point", m["point"], ref.plug[j])
        fails += _close(f"intervals[{which}].ci50", m["ci50"],
                        np.quantile(col, [0.25, 0.75]))
        fails += _close(f"intervals[{which}].ci95", m["ci95"],
                        np.quantile(col, [0.025, 0.975]))
    return fails


def check_terciles(bundle, ref, draws):
    fails = []
    ints = draws[:, 3]
    for j, which in enumerate(("te1", "te2")):
        t = _json(bundle, f"terciles_{which}.json")
        cond = draws[:, 1 + j]
        q1, q2 = np.quantile(cond, [1.0 / 3.0, 2.0 / 3.0])
        fails += _close(f"terciles[{which}].boundaries", t["boundaries"],
                        [q1, q2])
        masks = (cond <= q1, (cond > q1) & (cond <= q2), cond > q2)
        if len(t["strata"]) != 3:
            fails.append(f"terciles[{which}]: {len(t['strata'])} strata")
            continue
        for k, (mask, s) in enumerate(zip(masks, t["strata"])):
            stratum = ints[mask]
            fails += _close(f"terciles[{which}][{k}].point", s["point"],
                            stratum.mean())
            fails += _close(f"terciles[{which}][{k}].ci95", s["ci95"],
                            np.quantile(stratum, [0.025, 0.975]))
    return fails


def check_ellipses(bundle, ref, draws):
    fails = []
    for j, which in enumerate(("te1", "te2")):
        e = _json(bundle, f"ellipse_{which}_int.json")
        pairs = draws[:, [1 + j, 3]]
        fails += _close(f"ellipses[{which}].center", e["center"],
                        pairs.mean(axis=0))
        fails += _close(f"ellipses[{which}].shape", e["shape"],
                        np.cov(pairs, rowvar=False))
        fails += _close(f"ellipses[{which}].chi2_quantile",
                        e["chi2_quantile"], -2.0 * math.log(ALPHA))
        fails += _close(f"ellipses[{which}].level", e["level"], 1.0 - ALPHA)
    return fails


def check_delta(bundle, ref, draws):
    ratio = ref.delta_var / np.var(draws[:, 1:], axis=0, ddof=1)
    return [f"delta[{which}]: delta/MC variance ratio {r:.3f}"
            for which, r in zip(EFFECTS, ratio)
            if not abs(r - 1.0) <= DELTA_RTOL]


def _check_covariance(pi, sigma, ref):
    inv_info = np.linalg.inv(information(ref.design, pi))
    rel = np.max(np.abs(sigma - inv_info)) / np.max(np.abs(inv_info))
    return [] if rel <= FIT_TOL else [
        f"fit.covariance: relative error {rel:.3e}"]


def check_fit_values(pi, sigma, ref):
    """Coefficients, score and covariance against the independent fit."""
    pi, sigma = np.asarray(pi, float), np.asarray(sigma, float)
    fails = _close("fit.coefficients", pi, ref.pi, FIT_TOL)
    if fails:
        return fails
    D = ref.design
    score = np.max(np.abs(D.T @ (ref.y - expit(D @ pi)))) / D.shape[0]
    if not score < SCORE_TOL:
        fails.append(f"fit.score: max|score|/n = {score:.3e}")
    return fails + _check_covariance(pi, sigma, ref)


def loglik(D, y, pi):
    eta = D @ pi
    return float(y @ eta - np.sum(np.logaddexp(0.0, eta)))


def check_fit_optimum(pi, sigma, ref):
    """Log-likelihood within LOGLIK_RTOL of the optimum; covariance."""
    best = loglik(ref.design, ref.y, ref.pi)
    gap = (best - loglik(ref.design, ref.y, pi)) / abs(best)
    fails = [] if gap <= LOGLIK_RTOL else [
        f"fit.loglik: relative gap to the optimum {gap:.3e}"]
    return fails + _check_covariance(pi, sigma, ref)


def check_fit(bundle, ref):
    d = _json(bundle, "fit.json")
    k = len(d["coefficients"])
    fails = []
    if d["terms"] != ["1", *MODEL.split(",")]:
        fails.append(f"fit.terms: {d['terms']}")
    return fails + check_fit_values(
        d["coefficients"], np.reshape(d["covariance"], (k, k)), ref)


REPORT_CHECKS = {
    "plugin": check_plugin,
    "draws": check_draws,
    "draw_prefix": check_draw_prefix,
    "intervals": check_intervals,
    "terciles": check_terciles,
    "ellipses": check_ellipses,
    "delta": check_delta,
}


def check_output(bundle: Path, ref: Reference) -> list[str]:
    """Every failure of one operation's outputs; [] when all checks pass.

    A missing or malformed file is a failure of the check that reads it,
    never an error of the benchmark.
    """
    fails = list(ref.failures)
    if ref.workload.command == "fit":
        try:
            return fails + check_fit(bundle, ref)
        except Exception as e:  # noqa: BLE001 - malformed output fails
            return fails + [f"fit: {type(e).__name__}: {e}"]
    try:
        draws = read_draws(bundle)
    except Exception as e:  # noqa: BLE001
        return fails + [f"draws: {type(e).__name__}: {e}"]
    for name, check in REPORT_CHECKS.items():
        try:
            fails += check(bundle, ref, draws)
        except Exception as e:  # noqa: BLE001
            fails.append(f"{name}: {type(e).__name__}: {e}")
    return fails
