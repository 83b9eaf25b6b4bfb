"""Tests for the lazy package exports and the CLI's one BLAS thread and
malloc thresholds."""

import ctypes
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskdiff

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODEL = "z1,z2,z1*z2,x1,x2,x3,z1*x1"
#: The package's public names, in __all__ order, by defining submodule.
EXPORTS = {
    "dataset": ["Cohort", "ColumnSchema", "describe", "load_cohort"],
    "effects": ["EffectTriple", "StandardizationSet", "effect_triple",
                "marginal_risk", "risk"],
    "glm": ["FitResult", "ModelSpec", "Term", "build_design", "fit_logistic"],
    "inference": ["ConfidenceEllipse", "IntervalEstimate", "TercileReport",
                  "confidence_ellipse", "delta_method_check",
                  "marginal_report", "percentile_ci", "quantile",
                  "tercile_report"],
    "montecarlo": ["EffectDistribution", "cholesky", "effect_distribution",
                   "sample_parameters"],
}


def child_env(**overrides):
    """This environment with src on the path, OPENBLAS_NUM_THREADS unset
    and then the overrides applied; an override of None unsets a variable."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def python(code, **env):
    """stdout of `python -c code` in a fresh process."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(**env),
                          check=True, capture_output=True, text=True).stdout


class TestLazyExports:
    def test_import_loads_no_numpy(self):
        out = python("import sys, riskdiff; "
                     "print('numpy' in sys.modules, riskdiff.__version__)")
        assert out.split() == ["False", riskdiff.__version__]

    def test_exports_are_the_submodule_objects(self):
        assert riskdiff.__all__ == [n for names in EXPORTS.values()
                                    for n in names]
        for module, names in EXPORTS.items():
            sub = importlib.import_module(f"riskdiff.{module}")
            for name in names:
                assert getattr(riskdiff, name) is getattr(sub, name), name

    def test_star_import_dir_and_unknown_name(self):
        namespace = {}
        exec("from riskdiff import *", namespace)
        assert set(riskdiff.__all__) <= set(namespace)
        assert namespace["fit_logistic"] is riskdiff.glm.fit_logistic
        assert set(riskdiff.__all__) <= set(dir(riskdiff))
        with pytest.raises(AttributeError, match="no_such_name"):
            riskdiff.no_such_name

    def test_submodule_attribute_in_fresh_process(self):
        out = python("import riskdiff; "
                     "print(riskdiff.glm.__name__, riskdiff.cli.__name__)")
        assert out.split() == ["riskdiff.glm", "riskdiff.cli"]


class TestBlasThreads:
    """The CLI sets one BLAS thread before numpy loads, unless the user set
    a count; outputs do not depend on the count, except as noted below."""

    @pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")])
    def test_cli_import_sets_default(self, given, expected):
        env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
        out = python("import os, riskdiff.cli; "
                     "print(os.environ['OPENBLAS_NUM_THREADS'])", **env)
        assert out.strip() == expected

    def test_outputs_identical_under_one_and_two_threads(self, tmp_path):
        rng = np.random.default_rng(20000)
        n = 20000
        x = np.column_stack([np.round(rng.normal(60, 10, n), 2),
                             rng.random(n) < 0.6, rng.random(n) < 0.5])
        z1, z2 = rng.random(n) < 0.4, rng.random(n) < 0.55
        eta = -1.0 + 0.5 * z1 + 0.3 * z2 + 0.02 * (x[:, 0] - 60)
        y = rng.random(n) < 1 / (1 + np.exp(-eta))
        table = np.column_stack([y, z1, z2, x])
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("y,z1,z2,x1,x2,x3\n" + "".join(
            f"{r[0]:.0f},{r[1]:.0f},{r[2]:.0f},{r[3]!r},{r[4]:.0f},{r[5]:.0f}\n"
            for r in table.tolist()))
        cols = ["--covariate-cols", "x1,x2,x3"]
        fixture = tmp_path / "fixture"
        cli = [sys.executable, "-m", "riskdiff.cli"]
        subprocess.run([*cli, "fixture", "--out", str(fixture)],
                       env=child_env(), check=True, capture_output=True)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            subprocess.run([*cli, "fit", "--input", str(cohort), *cols,
                            "--model", MODEL, "--out", str(out / "fit")],
                           env=env, check=True, capture_output=True)
            subprocess.run([*cli, "report",
                            "--input", str(fixture / "cardia_cohort.csv"),
                            "--outcome-col", "survival",
                            "--exposure1-col", "large_hospital",
                            "--exposure2-col", "advanced_stage",
                            "--covariate-cols", "age,male,urban",
                            "--model", MODEL, "--seed", "7",
                            "--draws", "2000", "--out", str(out / "report")],
                           env=env, check=True, capture_output=True)
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 21
        fits = [json.loads(o.pop(Path("fit", "fit.json"))) for o in outputs]
        # The log-likelihood's y @ eta is a BLAS ddot, which OpenBLAS splits
        # across threads past 10000 rows, so the last bits of fit.json's
        # loglik follow the thread count; every other value does not.
        logliks = [fit.pop("loglik") for fit in fits]
        assert logliks[0] == pytest.approx(logliks[1], rel=1e-14, abs=0)
        assert fits[0] == fits[1]
        assert outputs[0] == outputs[1]


def _has_mallinfo2():
    try:
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (OSError, TypeError):
        return False


#: Prints glibc's mallinfo2().arena, the heap bytes the process holds, after
#: an 8 MiB array is allocated and freed.
FREED_ARENA = """
import ctypes
import numpy as np

class Info(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = Info
block = np.ones(1 << 20)
del block
print(mallinfo2().arena)
"""
EIGHT_MIB = 8 << 20


@pytest.mark.skipif(not _has_mallinfo2(), reason="libc has no mallinfo2")
class TestMallocThresholds:
    """The CLI has glibc keep freed memory in the heap, unless the user
    tuned malloc; importing a library module sets nothing."""

    @staticmethod
    def freed_arena(module, **env):
        untuned = {name: None for name in os.environ
                   if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES"}
        out = python(f"import {module}\n" + FREED_ARENA, **{**untuned, **env})
        return int(out)

    def test_cli_keeps_a_freed_block(self):
        assert self.freed_arena("riskdiff.cli") >= EIGHT_MIB

    @pytest.mark.parametrize("name,value", [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_ARENA_MAX", "2"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ])
    def test_user_setting_wins(self, name, value):
        assert self.freed_arena("riskdiff.cli", **{name: value}) < EIGHT_MIB

    def test_library_import_sets_nothing(self):
        assert self.freed_arena("riskdiff.montecarlo") < EIGHT_MIB
