"""Shared fixtures."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from riskdiff.dataset import Cohort
from riskdiff.glm import ModelSpec, build_design


@pytest.fixture(scope="session")
def cohort_rows_design():
    """seed -> (X, y) of perfbench's cohort-rows input: its 2000-row
    synthetic cohort under its MODEL, y as read from the cohort."""
    saved = [*sys.path]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved

    def design(seed):
        cols = workloads.synthetic_cohort(
            workloads.WORKLOADS["cohort-rows"].rows, seed)
        cohort = Cohort.from_columns(
            cols["y"], cols["z1"], cols["z2"],
            np.column_stack([cols[c] for c in workloads.COVARIATES]),
            workloads.COVARIATES)
        return build_design(cohort, ModelSpec.parse(workloads.MODEL)), cohort.y

    return design
