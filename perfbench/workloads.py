"""Workload definitions and seeded input generation for the benchmark.

Each workload names one `riskdiff` CLI operation and the inputs it runs on.
Inputs are generated from the benchmark seed alone; the program receives
only the generated files and the CLI flags.

Run as a script to regenerate every workload's inputs for one seed:

    python3 perfbench/workloads.py --seed 1 --out perfbench/inputs
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

MODEL = "z1,z2,z1*z2,x1,x2,x3,z1*x1"
COVARIATES = ("age", "male", "urban")

#: Coefficients of the synthetic cohorts' true outcome model, in MODEL order
#: (intercept, z1, z2, z1*z2, age, male, urban, z1*age).
TRUE_COEFFICIENTS = np.array([3.0, -1.2, -1.5, 0.6, -0.04, 0.4, -0.3, 0.01])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # "report" or "fit"
    rows: int             # synthetic cohort size; 0 = the bundled fixture
    draws: int = 0
    workers: int = 1

    @property
    def fixture(self) -> bool:
        return self.rows == 0


WORKLOADS = {w.name: w for w in (
    # Draw-heavy, few rows: RNG, effect evaluation and draws.csv formatting.
    Workload("fixture-draws", "report", rows=0, draws=100_000, workers=1),
    # Row-heavy: nearly every covariate row distinct, refit, process pool.
    Workload("cohort-rows", "report", rows=2_000, draws=10_000, workers=2),
    # No Monte Carlo: CSV parsing, design build and Newton only.
    Workload("ingest-fit", "fit", rows=200_000),
)}


@dataclass(frozen=True)
class Inputs:
    """Files and column mapping handed to the program."""

    csv: Path
    outcome: str
    exposure1: str
    exposure2: str
    fit_json: Path | None = None

    def column_args(self) -> list[str]:
        return ["--outcome-col", self.outcome,
                "--exposure1-col", self.exposure1,
                "--exposure2-col", self.exposure2,
                "--covariate-cols", ",".join(COVARIATES)]


def child_env() -> dict:
    """Environment for CLI children: the package is imported from `src`."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def synthetic_cohort(rows: int, seed: int) -> dict:
    """Seeded cohort with a continuous age, confounded z1, and a true model."""
    rng = np.random.default_rng([seed, rows])
    age = np.round(rng.normal(62.0, 11.0, rows), 2)
    male = (rng.random(rows) < 0.6).astype(int)
    urban = (rng.random(rows) < 0.5).astype(int)
    z1 = (rng.random(rows)
          < expit(0.4 + 0.03 * (age - 62.0) + 0.8 * urban)).astype(int)
    z2 = (rng.random(rows) < 0.55).astype(int)
    design = np.column_stack([np.ones(rows), z1, z2, z1 * z2, age, male,
                              urban, z1 * age])
    y = (rng.random(rows) < expit(design @ TRUE_COEFFICIENTS)).astype(int)
    return {"y": y, "z1": z1, "z2": z2, "age": age, "male": male,
            "urban": urban}


def write_cohort_csv(path: Path, cols: dict) -> None:
    lines = ["y,z1,z2," + ",".join(COVARIATES)]
    lines += [f"{y},{a},{b},{age!r},{m},{u}" for y, a, b, age, m, u in zip(
        cols["y"].tolist(), cols["z1"].tolist(), cols["z2"].tolist(),
        cols["age"].tolist(), cols["male"].tolist(), cols["urban"].tolist())]
    path.write_text("\n".join(lines) + "\n")


def setup(workload: Workload, seed: int, inputs_dir: Path) -> Inputs:
    """Write the workload's input files; the set-up that `setup_s` times."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload.fixture:
        subprocess.run([sys.executable, "-m", "riskdiff.cli", "fixture",
                        "--out", str(inputs_dir)], env=child_env(),
                       check=True, stdout=subprocess.DEVNULL)
        return Inputs(inputs_dir / "cardia_cohort.csv", "survival",
                      "large_hospital", "advanced_stage",
                      fit_json=inputs_dir / "cardia_fit.json")
    csv = inputs_dir / "cohort.csv"
    write_cohort_csv(csv, synthetic_cohort(workload.rows, seed))
    return Inputs(csv, "y", "z1", "z2")


def cli_args(workload: Workload, inputs: Inputs, seed: int,
             out_dir: Path) -> list[str]:
    """Arguments after `python -m riskdiff.cli` for one operation."""
    argv = [workload.command, "--input", str(inputs.csv),
            *inputs.column_args(), "--model", MODEL, "--out", str(out_dir)]
    if workload.command == "report":
        argv += ["--draws", str(workload.draws), "--seed", str(seed),
                 "--workers", str(workload.workers)]
        if inputs.fit_json is not None:
            argv += ["--fit-json", str(inputs.fit_json)]
    return argv


def distinct_row_share(inputs: Inputs) -> tuple[int, int]:
    """(distinct covariate rows, rows) of an input CSV."""
    header = inputs.csv.read_text().split("\n", 1)[0].split(",")
    data = np.loadtxt(inputs.csv, delimiter=",", skiprows=1, ndmin=2)
    x = data[:, [header.index(c) for c in COVARIATES]]
    return len(np.unique(x, axis=0)), len(x)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for w in WORKLOADS.values():
        inputs = setup(w, args.seed, args.out / w.name)
        distinct, rows = distinct_row_share(inputs)
        print(json.dumps({"workload": w.name, "csv": str(inputs.csv),
                          "rows": rows, "distinct_covariate_rows": distinct}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
