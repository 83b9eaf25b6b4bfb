"""Values of `riskdiff fit` then `report`, under generated models, end to end.

perfbench/checks.py is an independent implementation written with numpy and
scipy: its own term parser, design, Newton fit run to machine precision,
g-computation and per-draw Philox draws. The benchmark runs it on one model.
Here it checks the numbers of report bundles on small generated cohorts
under models drawn from the whole term grammar: z1 and z2, any subset of
z1*z2, x<c>, z1*x<c> and z2*x<c>, terms and factors in any order.

Two of its checks are left out. check_delta's 20% bound on the
delta-method/Monte Carlo variance ratio is meant for 1e4 draws or more, not
200. check_draw_prefix compares the draws with an in-process run at another
chunk size, which the chunk-invariance tests in test_montecarlo.py cover.
"""

import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from riskdiff.cli import main
from riskdiff.dataset import Cohort, ColumnSchema, save_cohort

ROOT = Path(__file__).resolve().parents[1]
DRAWS = 200
FIT_ERRORS = {"SeparationDetected", "RankDeficientDesign", "NotConverged",
              "NonFiniteFit"}
REPORT_ERRORS = {"DegenerateCloud", "EmptySamples"}


def _load_checks():
    """perfbench/checks.py, with perfbench/ on sys.path only while it loads."""
    saved = [*sys.path]
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("checks")
    finally:
        sys.path[:] = saved


checks = _load_checks()


@st.composite
def cases(draw):
    """(rows, covariate kinds, model, seed, inner draw index)."""
    kinds = tuple(draw(st.lists(st.sampled_from(["binary", "continuous"]),
                                min_size=1, max_size=3)))
    optional = ["z1*z2"] + [f"{z}x{c}" for c in range(1, len(kinds) + 1)
                            for z in ("", "z1*", "z2*")]
    terms = ["z1", "z2", *draw(st.lists(st.sampled_from(optional),
                                        unique=True))]
    terms = [t if draw(st.booleans()) else "*".join(t.split("*")[::-1])
             for t in draw(st.permutations(terms))]
    return (draw(st.integers(40, 400)), kinds, ",".join(terms),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, DRAWS - 2)))


def _cohort(rows, kinds, model, seed):
    """y, z1, z2 and x, y from a logistic model on the same terms.

    Continuous covariates are rounded to 0.1, so that rows repeat.
    """
    rng = np.random.default_rng(seed)
    z1, z2 = rng.integers(0, 2, (2, rows))
    x = np.column_stack([
        rng.integers(0, 2, rows).astype(float) if kind == "binary"
        else np.round(rng.uniform(0.0, 2.0, rows), 1) for kind in kinds])
    design = checks.design(checks.parse_terms(model), z1, z2, x)
    beta = rng.normal(0.0, 0.5, design.shape[1])
    y = (rng.random(rows) < expit(design @ beta)).astype(int)
    return y, z1, z2, x


def _run(argv):
    """The exit code and the error class names on stderr of one CLI run."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    errors = ({e["error"] for e in json.loads(stderr.getvalue())["errors"]}
              if code else set())
    return code, errors


@given(case=cases())
@example(case=(150, ("continuous", "binary", "continuous"),
               "z2,z2*x1,x3*z2,z1*z2,x1,z1,x2", 7, 101))
@example(case=(60, ("binary",), "x1,z2*z1,z1,z2", 3, 1))
@settings(max_examples=20, deadline=None)
def test_report_values_match_the_reference(case):
    rows, kinds, model, seed, inner = case
    y, z1, z2, x = _cohort(rows, kinds, model, seed)
    names = tuple(f"x{c}" for c in range(1, len(kinds) + 1))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_cohort(Cohort.from_columns(y, z1, z2, x, names),
                    tmp / "cohort.csv", ColumnSchema("y", "z1", "z2", names))
        common = ["--input", str(tmp / "cohort.csv"), "--covariate-cols",
                  ",".join(names), "--model", model]
        code, errors = _run(["fit", *common, "--out", str(tmp / "fit")])
        event(f"fit exit {code}")
        if code:
            assert code == 3 and errors <= FIT_ERRORS, errors
            return
        code, errors = _run(["report", *common, "--fit-json",
                             str(tmp / "fit" / "fit.json"), "--draws",
                             str(DRAWS), "--seed", str(seed), "--out",
                             str(tmp / "report")])
        event(f"report exit {code}")
        if code:
            assert code == 4 and errors <= REPORT_ERRORS, errors
            return
        fit = json.loads((tmp / "fit" / "fit.json").read_text())
        bundle = tmp / "report"
        draws = checks.read_draws(bundle)

        k = len(fit["coefficients"])
        pi = np.array(fit["coefficients"])
        sigma = np.reshape(fit["covariance"], (k, k))
        terms = checks.parse_terms(model)
        designs = checks.marginal_designs(terms, x)
        ref = checks.Reference(checks.Workload("generated", "report",
                                               rows=rows, draws=DRAWS),
                               rows=rows)
        ref.plug = checks.g_computation(designs, pi[None, :])[0]
        index = [0, inner, DRAWS - 1]
        ref.recomputed = dict(zip(index, checks.g_computation(
            designs, checks.draw_coefficients(pi, sigma, seed, index))))
        ref.design, ref.y = checks.design(terms, z1, z2, x), y
        ref.pi, _ = checks.newton_fit(ref.design, y)

        fails = []
        for check in (checks.check_plugin, checks.check_draws,
                      checks.check_intervals, checks.check_terciles,
                      checks.check_ellipses):
            fails += check(bundle, ref, draws)
        # Until the fit stops on the score, its coefficients can stop short
        # of checks.FIT_TOL, so the fit is held to the program's own
        # log-likelihood rule (and its covariance), as perfbench does for a
        # refit.
        fails += checks.check_fit_optimum(pi, sigma, ref)
        assert not fails, fails
