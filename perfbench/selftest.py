"""Self-test of the output checks: each must reject a perturbed bundle.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Builds small real outputs with the CLI (a fixture report, a cohort report
and a fit), confirms that every check passes on them, then perturbs a copy
of each and confirms that the check meant to catch the perturbation
reports it. A check that can never fail would otherwise go unnoticed.
Exits 0 when every perturbation is caught.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, child_env, cli_args, setup  # noqa: E402

SEED = 5


def real_output(w, work: Path):
    inputs = setup(w, SEED, work / "inputs")
    ref = checks.build_reference(w, inputs, SEED)
    out = work / "out"
    subprocess.run([sys.executable, "-m", "riskdiff.cli",
                    *cli_args(w, inputs, SEED, out)], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL)
    return ref, out


def edit_json(name, fn):
    def perturb(bundle: Path):
        d = json.loads((bundle / name).read_text())
        fn(d)
        (bundle / name).write_text(json.dumps(d))
    return perturb


def edit_draws(fn):
    def perturb(bundle: Path):
        meta = (bundle / "draws.csv").read_text().split("\n", 1)[0]
        draws = fn(checks.read_draws(bundle))
        rows = [f"{int(r[0])},{r[1]!r},{r[2]!r},{r[3]!r}"
                for r in draws.tolist()]
        (bundle / "draws.csv").write_text(
            "\n".join([meta, "draw_index,te1,te2,int", *rows]) + "\n")
    return perturb


def shifted(index, col, by):
    def fn(d):
        d[index, col] += by
        return d
    return fn


def next_float(index, col):
    def fn(d):
        d[index, col] = np.nextafter(d[index, col], 1.0)
        return d
    return fn


def widened(col, factor):
    def fn(d):
        d[:, col] = d[:, col].mean() + factor * (d[:, col] - d[:, col].mean())
        return d
    return fn


def removed(name):
    return lambda bundle: (bundle / name).unlink()


def report_cases(ref):
    beyond_prefix = max(ref.recomputed)
    return [
        ("effects.json te1 shifted", "plugin",
         edit_json("effects.json", lambda d: d.update(te1=d["te1"] + 1e-9))),
        ("one recomputed draw changed", f"draws[{beyond_prefix}]",
         edit_draws(shifted(beyond_prefix, 3, 1e-9))),
        ("one prefix draw moved by one ulp", "draw_prefix",
         edit_draws(next_float(5, 1))),
        ("one draw out of range", "draws: value outside",
         edit_draws(shifted(-1, 1, 2.0))),
        ("last draw dropped", "draws: shape", edit_draws(lambda d: d[:-1])),
        ("draw indices swapped", "draws: indices",
         edit_draws(lambda d: d[[1, 0, *range(2, len(d))]])),
        ("interval endpoint shifted", "intervals[int].ci95",
         edit_json("marginal_int.json",
                   lambda d: d["ci95"].__setitem__(1, d["ci95"][1] + 1e-9))),
        ("marginal file missing", "intervals", removed("marginal_te1.json")),
        ("tercile boundary moved", "terciles[te1].boundaries",
         edit_json("terciles_te1.json", lambda d: d["boundaries"].__setitem__(
             0, d["boundaries"][0] + 1e-9))),
        ("tercile stratum mean shifted", "terciles[te2][1].point",
         edit_json("terciles_te2.json", lambda d: d["strata"][1].update(
             point=d["strata"][1]["point"] + 1e-9))),
        ("ellipse centre moved", "ellipses[te2].center",
         edit_json("ellipse_te2_int.json", lambda d: d["center"].__setitem__(
             0, d["center"][0] + 1e-9))),
        ("ellipse quantile at another alpha", "ellipses[te1].chi2_quantile",
         edit_json("ellipse_te1_int.json",
                   lambda d: d.update(chi2_quantile=-2.0 * np.log(0.1)))),
        ("te2 draws 1.5x too spread", "delta[te2]",
         edit_draws(widened(2, 1.5))),
    ]


def fit_cases():
    def nudge(d):
        d["coefficients"][1] += 1e-7

    def nudge_within_bound(d):
        d["coefficients"][4] += 5e-9

    def stretch(d):
        d["covariance"][0] *= 1.0 + 1e-6

    return [
        ("coefficient nudged", "fit.coefficients",
         edit_json("fit.json", nudge)),
        ("age coefficient nudged by 5e-9", "fit.score",
         edit_json("fit.json", nudge_within_bound)),
        ("covariance entry scaled", "fit.covariance",
         edit_json("fit.json", stretch)),
        ("term names changed", "fit.terms",
         edit_json("fit.json", lambda d: d["terms"].reverse())),
    ]


def run_cases(label, ref, bundle, cases, work) -> int:
    missed = 0
    base = checks.check_output(bundle, ref)
    print(f"{label}: pristine output -> {base or 'all checks pass'}")
    missed += bool(base)
    for desc, expect, perturb in cases:
        copy = work / "copy"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bundle, copy)
        perturb(copy)
        fails = checks.check_output(copy, ref)
        caught = any(f.startswith(expect) for f in fails)
        missed += not caught
        print(f"  {'caught' if caught else 'MISSED'}: {desc} "
              f"(expected {expect!r}, got {len(fails)} failures)")
    return missed


def main() -> int:
    work = BENCH / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    missed = 0
    try:
        fixture = dataclasses.replace(WORKLOADS["fixture-draws"], draws=3000)
        ref, bundle = real_output(fixture, work / "fixture")
        missed += run_cases("fixture-draws (3000 draws)", ref, bundle,
                            report_cases(ref), work)

        cohort = dataclasses.replace(WORKLOADS["cohort-rows"], draws=2000)
        ref, bundle = real_output(cohort, work / "cohort")
        missed += run_cases("cohort-rows (2000 draws)", ref, bundle,
                            report_cases(ref), work)
        fit = ref.program["fit"]
        for desc, pi in (("intercept nudged by 1e-3",
                          fit.pi_hat + np.eye(len(fit.pi_hat))[0] * 1e-3),
                         ("age coefficient nudged by 1e-6",
                          fit.pi_hat + np.eye(len(fit.pi_hat))[4] * 1e-6)):
            fails = checks.check_fit_optimum(pi, fit.sigma_hat, ref)
            caught = any(f.startswith("fit.loglik") for f in fails)
            missed += not caught
            print(f"  {'caught' if caught else 'MISSED'}: in-process fit, "
                  f"{desc} (expected 'fit.loglik')")

        small_fit = dataclasses.replace(WORKLOADS["ingest-fit"], rows=5000)
        ref, bundle = real_output(small_fit, work / "fit")
        missed += run_cases("ingest-fit (5000 rows)", ref, bundle,
                            fit_cases(), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test " + ("passed" if not missed else f"FAILED: {missed}"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
