"""Cohort ingestion and descriptive cross-tabulation.

A cohort is a list of subject records, each carrying a binary outcome,
two binary exposures and a fixed-length vector of real covariates.
Input is headered CSV with a user-supplied column mapping, so arbitrary
column names work. Any malformed cell rejects the whole file; rows are
never silently dropped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Cohort:
    records: tuple[SubjectRecord, ...]
    covariate_names: tuple[str, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError("cohort must contain at least one record")
        k = len(self.covariate_names)
        for r in self.records:
            if len(r.x) != k:
                raise ValueError(
                    f"record has {len(r.x)} covariates, expected {k}"
                )

    @property
    def n(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV column names onto the outcome/exposure/covariate roles."""

    outcome: str
    exposure1: str
    exposure2: str
    covariates: tuple[str, ...]


def _parse_binary(raw, row, column):
    if raw is None or raw.strip() == "":
        raise MissingValue(row, column)
    s = raw.strip()
    if s not in ("0", "1"):
        raise NonBinaryValue(row, column, raw)
    return int(s)


def _parse_real(raw, row, column):
    if raw is None or raw.strip() == "":
        raise MissingValue(row, column)
    try:
        v = float(raw)
    except ValueError:
        raise MissingValue(row, column) from None
    if math.isnan(v):
        raise MissingValue(row, column)
    return v


def load_cohort(path, schema: ColumnSchema) -> Cohort:
    """Read a headered CSV into a Cohort, validating every cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyFile(f"{path} is empty")
            header = [h.strip() for h in header]
            wanted = [schema.outcome, schema.exposure1, schema.exposure2,
                      *schema.covariates]
            for col in wanted:
                if col not in header:
                    raise MissingColumn(col)
            idx = {col: header.index(col) for col in wanted}

            records = []
            for rownum, row in enumerate(reader, start=1):
                def cell(col):
                    j = idx[col]
                    return row[j] if j < len(row) else None

                y = _parse_binary(cell(schema.outcome), rownum, schema.outcome)
                z1 = _parse_binary(cell(schema.exposure1), rownum, schema.exposure1)
                z2 = _parse_binary(cell(schema.exposure2), rownum, schema.exposure2)
                x = tuple(_parse_real(cell(c), rownum, c) for c in schema.covariates)
                records.append(SubjectRecord(y=y, z1=z1, z2=z2, x=x))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}") from None

    if not records:
        raise EmptyFile(f"{path} contains a header but no data rows")
    return Cohort(records=tuple(records), covariate_names=tuple(schema.covariates))


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


def _tabulate(records, predicate=None) -> CellCounts:
    events = {k: 0 for k in _CELL_ORDER}
    totals = {k: 0 for k in _CELL_ORDER}
    for r in records:
        if predicate is not None and not predicate(r):
            continue
        key = (r.z1, r.z2)
        totals[key] += 1
        events[key] += r.y
    return CellCounts(events=events, totals=totals)


def describe(cohort: Cohort, split_at: dict | None = None) -> DescriptiveTable:
    """Cross-tabulate events/totals by exposure cell, overall and per covariate.

    Binary covariates (values within {0, 1}) are split by level; continuous
    ones at the sample lower median, with ties in the "<= median" bucket.
    ``split_at`` overrides the threshold for named continuous covariates.
    """
    split_at = split_at or {}
    overall = _tabulate(cohort.records)
    by_cov = {}
    split_values = {}
    for j, name in enumerate(cohort.covariate_names):
        values = [r.x[j] for r in cohort.records]
        if set(values) <= {0.0, 1.0}:
            by_cov[name] = {
                f"{name}=0": _tabulate(cohort.records, lambda r: r.x[j] == 0),
                f"{name}=1": _tabulate(cohort.records, lambda r: r.x[j] == 1),
            }
        else:
            med = split_at.get(name, lower_median(values))
            split_values[name] = med
            by_cov[name] = {
                f"{name}<={med:g}": _tabulate(cohort.records,
                                              lambda r: r.x[j] <= med),
                f"{name}>{med:g}": _tabulate(cohort.records,
                                             lambda r: r.x[j] > med),
            }
    return DescriptiveTable(overall=overall, by_covariate=by_cov,
                            split_values=split_values)
