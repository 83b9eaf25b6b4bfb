"""Bundled example data: the cardia cancer cohort reconstruction.

The original study data (150 cardia cancer patients treated in central and
northern Sweden, 1988-1995; outcome = one-year survival, exposures =
hospital type and cancer stage, covariates = age, gender, geographic area)
is not publicly available. What is available are its published descriptive
statistics: events/totals per exposure cell, split by dichotomized age
(at 67), gender, and area, plus the published coefficient estimates of the
logistic model with terms z1, z2, z1*z2, x1, x2, x3, z1*x1.

This module rebuilds an approximate subject-level cohort from those
aggregates. The reconstruction is deterministic and documented, but it is
NOT the original data:

* Within each (exposure cell, outcome) stratum, the joint distribution of
  (age group, gender, area) is taken as independent with the published
  margins, rounded to integer counts by largest remainder and then
  repaired so all three margins are met exactly.
* Ages are only known dichotomized, so each (exposure cell, age group)
  combination is represented by a constant imputed value ("<= 67" and
  "> 67" constants per cell, AGE_VALUES below). Publishing the counts per
  cell is the finest granularity the descriptive table supports; the eight
  constants were calibrated so that the standardized effects and their
  Monte Carlo summaries at the published coefficients track the published
  results. With only dichotomized ages available, any choice is an
  approximation.

The published covariance matrix cannot be used directly: it is printed to
two decimals, which leaves it indefinite (several age-term entries round
to 0.00 while their cross terms do not). The fixture FitResult therefore
pairs the published coefficient vector with the observed-information
covariance obtained by refitting the model on the reconstructed cohort,
which preserves the full correlation structure that the printed rounding
destroys.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .dataset import Cohort, ColumnSchema
from .glm import CARDIA_MODEL, FitResult, build_design, fit_logistic

#: Canonical column names of the bundled cohort CSV.
CARDIA_SCHEMA = ColumnSchema(
    outcome="survival",
    exposure1="large_hospital",
    exposure2="advanced_stage",
    covariates=("age", "male", "urban"),
)

#: Published coefficient estimates for CARDIA_MODEL
#: (intercept, z1, z2, z1*z2, age, male, urban, z1*age).
PUBLISHED_COEFFICIENTS = np.array(
    [3.92, -3.82, -2.63, 0.87, -0.06, 0.95, -0.66, 0.07])

#: Published descriptive counts per (z1, z2) exposure cell: overall
#: events/total and events/total within age<=67, female, and rural levels.
CELL_COUNTS = {
    (1, 1): dict(events=23, total=75, age_le=(12, 41), female=(4, 22), rural=(11, 32)),
    (0, 1): dict(events=4, total=36, age_le=(2, 13), female=(1, 8), rural=(4, 26)),
    (1, 0): dict(events=23, total=31, age_le=(11, 13), female=(3, 5), rural=(13, 15)),
    (0, 0): dict(events=5, total=8, age_le=(2, 2), female=(0, 1), rural=(3, 6)),
}

#: Age threshold used by the published descriptive split.
AGE_SPLIT = 67.0

#: Imputed age per exposure cell and dichotomized age group
#: (young = "<= 67", old = "> 67"); see module docstring.
AGE_VALUES = {
    (1, 1): (45.0, 73.0),
    (0, 1): (51.0, 83.0),
    (1, 0): (44.0, 83.0),
    (0, 0): (67.0, 84.0),
}


def _stratum_margins(cell, y):
    """(m, n_age_le, n_female, n_rural) within one (z1, z2, y) stratum."""
    if y == 1:
        return (cell["events"], cell["age_le"][0], cell["female"][0],
                cell["rural"][0])
    return (cell["total"] - cell["events"],
            cell["age_le"][1] - cell["age_le"][0],
            cell["female"][1] - cell["female"][0],
            cell["rural"][1] - cell["rural"][0])


def _joint_counts(m, n_a, n_f, n_r):
    """Integer 2x2x2 joint counts with the given one-way margins.

    Expected counts under independence, rounded by largest remainder, then
    repaired by moving units along one axis at a time until every margin
    is exact.
    """
    keys = list(product((1, 0), repeat=3))
    if m == 0:
        return {k: 0 for k in keys}
    probs = ((n_a / m, 1 - n_a / m), (n_f / m, 1 - n_f / m),
             (n_r / m, 1 - n_r / m))
    expected = {
        k: m * probs[0][1 - k[0]] * probs[1][1 - k[1]] * probs[2][1 - k[2]]
        for k in keys
    }
    counts = {k: int(np.floor(expected[k])) for k in keys}
    order = sorted(keys, key=lambda k: expected[k] - counts[k], reverse=True)
    for k in order[: m - sum(counts.values())]:
        counts[k] += 1

    target = (n_a, n_f, n_r)

    def margins():
        return tuple(sum(v for k, v in counts.items() if k[axis])
                     for axis in range(3))

    for _ in range(8 * m + 8):
        current = margins()
        if current == target:
            break
        for axis in range(3):
            excess = current[axis] - target[axis]
            if excess == 0:
                continue
            moved = 0
            for k in sorted(keys, key=lambda k: -counts[k]):
                if moved == abs(excess):
                    break
                src = k if (k[axis] == 1) == (excess > 0) else tuple(
                    1 - v if i == axis else v for i, v in enumerate(k))
                dst = tuple(1 - v if i == axis else v
                            for i, v in enumerate(src))
                if counts[src] > 0:
                    take = min(counts[src], abs(excess) - moved)
                    counts[src] -= take
                    counts[dst] += take
                    moved += take
            current = margins()
    assert margins() == target, "margin repair failed"
    return counts


def cardia_cohort() -> Cohort:
    """Deterministic 150-subject reconstruction of the cardia cancer cohort."""
    rows = []
    for (z1, z2), cell in CELL_COUNTS.items():
        young, old = AGE_VALUES[(z1, z2)]
        for y in (1, 0):
            m, n_a, n_f, n_r = _stratum_margins(cell, y)
            counts = _joint_counts(m, n_a, n_f, n_r)
            for (age_le, female, rural), c in sorted(counts.items(),
                                                     reverse=True):
                age = young if age_le else old
                rows += [(y, z1, z2, age, 1 - female, 1 - rural)] * c
    a = np.array(rows, dtype=float)
    return Cohort.from_columns(*a[:, :3].T, a[:, 3:], CARDIA_SCHEMA.covariates)


def cardia_fit() -> FitResult:
    """Fixture FitResult: published coefficients, reconstructed covariance."""
    cohort = cardia_cohort()
    refit = fit_logistic(build_design(cohort, CARDIA_MODEL), cohort.y,
                         term_names=CARDIA_MODEL.names)
    return FitResult(pi_hat=PUBLISHED_COEFFICIENTS.copy(),
                     sigma_hat=refit.sigma_hat,
                     loglik=refit.loglik,
                     iterations=refit.iterations,
                     converged=refit.converged,
                     term_names=CARDIA_MODEL.names)
