"""Cohort ingestion and descriptive cross-tabulation.

A cohort holds its subjects as columns: a binary outcome, two binary
exposures and an n-by-m matrix of real covariates. Input is headered CSV
with a user-supplied column mapping, so arbitrary column names work. Any
malformed cell rejects the whole file; rows are never silently dropped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, EmptyFile, MissingColumn, MissingValue,
                     NonBinaryValue)


@dataclass(frozen=True)
class SubjectRecord:
    y: int
    z1: int
    z2: int
    x: tuple[float, ...]

    def __post_init__(self):
        for name in ("y", "z1", "z2"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v!r}")


class Cohort:
    """Subjects as read-only columns: 0/1 ints y, z1, z2, n-by-m floats x."""

    def __init__(self, records, covariate_names):
        columns = ([getattr(r, f) for r in records]
                   for f in ("y", "z1", "z2", "x"))
        vars(self).update(vars(Cohort.from_columns(*columns, covariate_names)))

    @classmethod
    def from_columns(cls, y, z1, z2, x, covariate_names) -> "Cohort":
        """A cohort of read-only copies of y, z1, z2 (each 0 or 1) and x."""
        x = np.array(x, dtype=float, order="C")
        if len(y) == 0 or x.shape != (len(y), len(covariate_names)):
            raise ValueError("x must be an (n, m) array with n >= 1")
        y, z1, z2 = (np.array(c, dtype=int) for c in (y, z1, z2))
        for col in (y, z1, z2, x):
            col.flags.writeable = False
        cohort = cls.__new__(cls)
        vars(cohort).update(y=y, z1=z1, z2=z2, x=x, n=len(y),
                            covariate_names=tuple(covariate_names))
        return cohort

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Cohort is read-only")

    @property
    def records(self) -> tuple[SubjectRecord, ...]:
        """One SubjectRecord per subject, in row order."""
        return tuple(map(SubjectRecord, self.y.tolist(), self.z1.tolist(),
                         self.z2.tolist(), map(tuple, self.x.tolist())))

    def __eq__(self, other):
        return isinstance(other, Cohort) and (
            (self.covariate_names, self.records)
            == (other.covariate_names, other.records))


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV column names onto the outcome/exposure/covariate roles."""

    outcome: str
    exposure1: str
    exposure2: str
    covariates: tuple[str, ...]

    def __post_init__(self):
        roles = [self.outcome, self.exposure1, self.exposure2,
                 *self.covariates]
        for col in roles:
            if roles.count(col) > 1:
                raise DataError(f"column {col!r} is given more than one "
                                f"role; outcome, exposure and covariate "
                                f"columns must be distinct")


def _check_cell(raw, row, column, binary):
    """Raise the DataError for a bad cell; raw is None past a row's end."""
    if raw is None or raw.strip() == "":
        raise MissingValue(row, column)
    if binary and raw.strip() not in ("0", "1"):
        raise NonBinaryValue(row, column, raw)
    try:
        if not binary and math.isnan(float(raw)):
            raise ValueError("NaN")
    except ValueError:
        raise MissingValue(row, column) from None


def load_cohort(path, schema: ColumnSchema) -> Cohort:
    """Read a headered CSV into a Cohort, validating every cell."""
    wanted = [schema.outcome, schema.exposure1, schema.exposure2,
              *schema.covariates]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyFile(f"{path} is empty")
            header = [h.strip() for h in header]
            for col in wanted:
                if col not in header:
                    raise MissingColumn(col)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}") from None
    if not rows:
        raise EmptyFile(f"{path} contains a header but no data rows")
    cols = [header.index(col) for col in wanted]
    try:
        y, z1, z2 = ([("0", "1").index(row[j].strip()) for row in rows]
                     for j in cols[:3])
        x = np.array([[float(row[j]) for row in rows] for j in cols[3:]])
        if np.isnan(x).any():
            raise ValueError("NaN covariate")
    except (IndexError, ValueError):
        # check again in file order, so the error names the first bad cell
        for i, row in enumerate(rows, start=1):
            for k, (col, j) in enumerate(zip(wanted, cols)):
                _check_cell(row[j] if j < len(row) else None, i, col, k < 3)
        raise
    return Cohort.from_columns(y, z1, z2, x.reshape(-1, len(rows)).T,
                               schema.covariates)


def save_cohort(cohort: Cohort, path, schema: ColumnSchema) -> None:
    """Write a cohort back to canonical CSV (round-trips with load_cohort)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([schema.outcome, schema.exposure1, schema.exposure2,
                         *schema.covariates])
        for r in cohort.records:
            writer.writerow([r.y, r.z1, r.z2,
                             *(repr(v) for v in r.x)])


def lower_median(values) -> float:
    """Element at rank ceil(n/2) of the sorted values."""
    s = sorted(values)
    return s[(len(s) + 1) // 2 - 1]


_CELL_ORDER = ((1, 1), (0, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class CellCounts:
    """events/total for each (z1, z2) exposure cell."""

    events: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DescriptiveTable:
    overall: CellCounts
    # covariate name -> {level label: CellCounts}
    by_covariate: dict
    split_values: dict  # covariate name -> threshold used (continuous only)

    def to_json(self) -> str:
        def cc(c):
            return {
                f"z1={z1},z2={z2}": [c.events[(z1, z2)], c.totals[(z1, z2)]]
                for z1, z2 in _CELL_ORDER
            }

        payload = {
            "overall": cc(self.overall),
            "by_covariate": {
                name: {label: cc(c) for label, c in levels.items()}
                for name, levels in self.by_covariate.items()
            },
            "split_values": self.split_values,
        }
        return json.dumps(payload, indent=2)

    def to_text(self) -> str:
        headers = ["", *(f"(z1={z1},z2={z2})" for z1, z2 in _CELL_ORDER)]
        rows = []

        def line(label, c):
            rows.append([label, *(f"{c.events[k]}/{c.totals[k]}"
                                  for k in _CELL_ORDER)])

        line("overall", self.overall)
        for name, levels in self.by_covariate.items():
            rows.append([name, "", "", "", ""])
            for label, c in levels.items():
                line("  " + label, c)
        widths = [max(len(r[i]) for r in [headers] + rows)
                  for i in range(len(headers))]
        out = []
        for r in [headers] + rows:
            out.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        return "\n".join(out)


def _tabulate(cohort: Cohort, mask=True) -> CellCounts:
    cells = {k: (cohort.z1 == k[0]) & (cohort.z2 == k[1]) & mask
             for k in _CELL_ORDER}
    return CellCounts(events={k: int(cohort.y[c].sum())
                              for k, c in cells.items()},
                      totals={k: int(c.sum()) for k, c in cells.items()})


def describe(cohort: Cohort, split_at: dict | None = None) -> DescriptiveTable:
    """Cross-tabulate events/totals by exposure cell, overall and per covariate.

    Binary covariates (values within {0, 1}) are split by level; continuous
    ones at the sample lower median, with ties in the "<= median" bucket.
    ``split_at`` overrides the threshold for named continuous covariates.
    """
    split_at = split_at or {}
    by_cov = {}
    split_values = {}
    for name, values in zip(cohort.covariate_names, cohort.x.T):
        if np.all((values == 0) | (values == 1)):
            levels = {f"{name}=0": values == 0, f"{name}=1": values == 1}
        else:
            med = split_at.get(name, lower_median(values.tolist()))
            split_values[name] = med
            levels = {f"{name}<={med:g}": values <= med,
                      f"{name}>{med:g}": values > med}
        by_cov[name] = {label: _tabulate(cohort, mask)
                        for label, mask in levels.items()}
    return DescriptiveTable(overall=_tabulate(cohort), by_covariate=by_cov,
                            split_values=split_values)
