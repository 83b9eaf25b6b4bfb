"""Tests for cohort ingestion and the descriptive table."""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskdiff.dataset import (
    Cohort,
    ColumnSchema,
    SubjectRecord,
    describe,
    load_cohort,
    lower_median,
    save_cohort,
)
from riskdiff.errors import (
    DataError,
    EmptyFile,
    MissingColumn,
    MissingValue,
    NonBinaryValue,
    NonFiniteValue,
)
from riskdiff.fixtures import AGE_SPLIT, CARDIA_SCHEMA, cardia_cohort

SCHEMA = ColumnSchema("y", "z1", "z2", ("age", "male", "urban"))


def write_csv(tmp_path, text, name="cohort.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCohort:
    def test_minimal_file(self, tmp_path):
        p = write_csv(tmp_path, "y,z1,z2,age,male,urban\n1,0,0,50,1,0\n")
        cohort = load_cohort(p, SCHEMA)
        assert cohort.n == 1
        assert cohort.records[0] == SubjectRecord(1, 0, 0, (50.0, 1.0, 0.0))
        assert cohort.covariate_names == ("age", "male", "urban")

    def test_fixture_loads_with_150_rows(self, tmp_path):
        p = tmp_path / "cardia.csv"
        save_cohort(cardia_cohort(), p, CARDIA_SCHEMA)
        cohort = load_cohort(p, CARDIA_SCHEMA)
        assert cohort.n == 150
        assert len(cohort.covariate_names) == 3

    def test_nonbinary_outcome_rejects_file(self, tmp_path):
        p = write_csv(tmp_path,
                      "y,z1,z2,age,male,urban\n1,0,0,50,1,0\n2,0,0,60,0,1\n")
        with pytest.raises(NonBinaryValue) as exc:
            load_cohort(p, SCHEMA)
        assert exc.value.row == 2
        assert exc.value.column == "y"

    @pytest.mark.parametrize("cell", ["inf", " -Infinity ", "1e999"])
    def test_non_finite_covariate_rejects_file(self, tmp_path, cell):
        p = write_csv(tmp_path, "y,z1,z2,age,male,urban\n1,0,0,50,1,0\n"
                                f"0,1,1,nan,0,1\n0,0,1,60,{cell},0\n")
        with pytest.raises(MissingValue):  # NaN stays a missing value
            load_cohort(p, SCHEMA)
        p = write_csv(tmp_path, p.read_text().replace("nan", "61"))
        with pytest.raises(NonFiniteValue) as exc:
            load_cohort(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.value) == \
            (3, "male", cell)

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path, "y,z1,age,male,urban\n1,0,50,1,0\n")
        with pytest.raises(MissingColumn):
            load_cohort(p, SCHEMA)

    def test_missing_value(self, tmp_path):
        p = write_csv(tmp_path, "y,z1,z2,age,male,urban\n1,0,0,,1,0\n")
        with pytest.raises(MissingValue):
            load_cohort(p, SCHEMA)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_cohort(write_csv(tmp_path, ""), SCHEMA)
        with pytest.raises(EmptyFile):
            load_cohort(write_csv(tmp_path, "y,z1,z2,age,male,urban\n"),
                        SCHEMA)

    def test_arbitrary_column_names_and_order(self, tmp_path):
        schema = ColumnSchema("surv", "hosp", "stage", ("a1",))
        p = write_csv(tmp_path, "a1,surv,stage,hosp\n3.5,1,0,1\n")
        cohort = load_cohort(p, schema)
        assert cohort.records[0] == SubjectRecord(1, 1, 0, (3.5,))


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
    if math.isinf(v):
        raise NonFiniteValue(row, column, raw)
    return v


def per_row_load_cohort(path, schema: ColumnSchema) -> Cohort:
    """Reference: the loader that parsed and validated one row at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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


BINARY = ("y", "z1", "z2")
BINARY_OK = ["0", "1", " 0", "1 "]
BINARY_ANY = BINARY_OK + ["1.0", "2", "", " ", "yes"]
REAL_OK = ["0", "-0.0", "-2.5", "1e3", " 4.25 ", "1_000", "\uff11\uff12"]
REAL_ANY = REAL_OK + ["nan", " nan ", "inf", "-Infinity", "0x1p3", "", " ",
                      "abc"]


@st.composite
def cohort_csvs(draw):
    """(covariate count, CSV text): valid cells, then a few edits.

    The edits put bad cells anywhere and cut or extend whole rows, down to
    empty lines. The header holds one column that no role uses.
    """
    m = draw(st.integers(0, 2))
    header = draw(st.permutations(
        [*BINARY, *(f"x{j}" for j in range(1, m + 1)), "w"]))
    rows = [[draw(st.sampled_from(BINARY_OK if col in BINARY else REAL_OK))
             for col in header] for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(header) - 1))
        row[j] = draw(st.sampled_from(
            BINARY_ANY if header[j] in BINARY else REAL_ANY))
    for _ in range(draw(st.integers(0, 1)) if rows else 0):
        row = draw(st.sampled_from(rows))
        cut = draw(st.integers(0, len(header) + 1))
        row[:] = row[:cut] + ["1"] * (cut - len(header))
    return m, "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _load_outcome(loader, path, schema):
    """The loaded cohort, or the error's type, row, column and message."""
    try:
        return loader(path, schema)
    except DataError as e:
        return (type(e), getattr(e, "row", None), getattr(e, "column", None),
                str(e))


class TestLoadMatchesPerRowLoader:
    # the first bad cell is in an earlier row but a later column
    @example(case=(1, "y,z1,z2,x1\n1,0,0,abc\n2,0,0,1\n"))
    # within a row, cells are checked in role order, not file order
    @example(case=(1, "x1,y,z1,z2\nabc,0,0,\n1,0,0,0\n"))
    @given(case=cohort_csvs())
    @settings(max_examples=300, deadline=None)
    def test_same_cohort_or_same_error(self, case):
        m, text = case
        schema = ColumnSchema("y", "z1", "z2",
                              tuple(f"x{j}" for j in range(1, m + 1)))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.csv"
            path.write_text(text, encoding="utf-8")
            got = _load_outcome(load_cohort, path, schema)
            want = _load_outcome(per_row_load_cohort, path, schema)
        assert got == want
        if isinstance(want, Cohort):
            assert got.x.tobytes() == want.x.tobytes()


class TestColumns:
    def test_dtypes_and_shapes(self, tmp_path):
        p = write_csv(tmp_path,
                      "y,z1,z2,age,male,urban\n1,0,0,50,1,0\n0,1,1,61.5,0,1\n")
        cohort = load_cohort(p, SCHEMA)
        for col in (cohort.y, cohort.z1, cohort.z2):
            assert col.dtype.kind == "i" and col.shape == (2,)
        assert cohort.x.dtype == np.float64 and cohort.x.shape == (2, 3)
        assert cohort.x.tolist() == [[50.0, 1.0, 0.0], [61.5, 0.0, 1.0]]

    def test_zero_covariates(self, tmp_path):
        p = write_csv(tmp_path, "y,z1,z2\n1,0,0\n0,1,1\n1,1,0\n")
        cohort = load_cohort(p, ColumnSchema("y", "z1", "z2", ()))
        assert cohort.x.shape == (3, 0)
        assert cohort.y.tolist() == [1, 0, 1]

    def test_read_only(self):
        cohort = cardia_cohort()
        for col in (cohort.y, cohort.z1, cohort.z2, cohort.x):
            with pytest.raises(ValueError):
                col[0] = 1
        with pytest.raises(AttributeError):
            cohort.y = np.zeros(cohort.n, dtype=int)

    def test_records_rebuild_the_cohort(self, tmp_path):
        p = tmp_path / "cardia.csv"
        save_cohort(cardia_cohort(), p, CARDIA_SCHEMA)
        cohort = load_cohort(p, CARDIA_SCHEMA)
        assert Cohort(cohort.records, cohort.covariate_names) == cohort


class TestRoundTrip:
    @given(rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_save_load_identity(self, rows):
        import tempfile
        cohort = Cohort(
            records=tuple(SubjectRecord(y, z1, z2, (x,))
                          for y, z1, z2, x in rows),
            covariate_names=("x1",))
        schema = ColumnSchema("y", "z1", "z2", ("x1",))
        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/c.csv"
            save_cohort(cohort, p, schema)
            assert load_cohort(p, schema) == cohort


class TestLowerMedian:
    def test_odd_count(self):
        assert lower_median([3, 1, 2]) == 2

    def test_even_count_takes_lower(self):
        assert lower_median([4, 1, 3, 2]) == 2

    def test_single(self):
        assert lower_median([7]) == 7


class TestDescribe:
    def test_single_record(self):
        cohort = Cohort((SubjectRecord(1, 0, 0, (1.0,)),), ("x1",))
        table = describe(cohort)
        assert table.overall.events[(0, 0)] == 1
        assert table.overall.totals[(0, 0)] == 1
        for cell in ((1, 1), (0, 1), (1, 0)):
            assert table.overall.totals[cell] == 0

    def test_fixture_overall_cells(self):
        table = describe(cardia_cohort())
        assert (table.overall.events[(1, 1)],
                table.overall.totals[(1, 1)]) == (23, 75)
        assert (table.overall.events[(0, 1)],
                table.overall.totals[(0, 1)]) == (4, 36)
        assert (table.overall.events[(1, 0)],
                table.overall.totals[(1, 0)]) == (23, 31)
        assert (table.overall.events[(0, 0)],
                table.overall.totals[(0, 0)]) == (5, 8)

    def test_fixture_age_split(self):
        # the fixture documents its descriptive age threshold; under it the
        # young stratum of the doubly exposed cell holds 12 events / 41
        table = describe(cardia_cohort(), split_at={"age": AGE_SPLIT})
        low = table.by_covariate["age"][f"age<={AGE_SPLIT:g}"]
        assert (low.events[(1, 1)], low.totals[(1, 1)]) == (12, 41)

    def test_binary_covariates_split_by_level(self):
        table = describe(cardia_cohort())
        male = table.by_covariate["male"]
        assert set(male) == {"male=0", "male=1"}
        total = sum(male["male=0"].totals.values()) \
            + sum(male["male=1"].totals.values())
        assert total == 150

    def test_cell_totals_sum_to_n(self):
        cohort = cardia_cohort()
        table = describe(cohort)
        assert sum(table.overall.totals.values()) == cohort.n
        assert sum(table.overall.events.values()) == \
            sum(r.y for r in cohort.records)

    @given(st.permutations(range(20)))
    @settings(max_examples=25)
    def test_permutation_invariance(self, order):
        records = tuple(
            SubjectRecord(i % 2, (i // 2) % 2, (i // 4) % 2, (float(i),))
            for i in range(20))
        base = describe(Cohort(records, ("x1",)))
        shuffled = describe(Cohort(tuple(records[i] for i in order), ("x1",)))
        assert base.overall == shuffled.overall
        assert base.split_values == shuffled.split_values

    def test_json_round_trips_counts(self):
        payload = json.loads(describe(cardia_cohort()).to_json())
        assert payload["overall"]["z1=1,z2=1"] == [23, 75]

    def test_text_output_contains_cells(self):
        text = describe(cardia_cohort()).to_text()
        assert "23/75" in text and "5/8" in text


class TestInvariants:
    def test_record_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            SubjectRecord(2, 0, 0, (1.0,))

    def test_cohort_rejects_ragged_covariates(self):
        with pytest.raises(ValueError):
            Cohort((SubjectRecord(0, 0, 0, (1.0,)),
                    SubjectRecord(0, 0, 0, (1.0, 2.0))), ("x1",))

    def test_cohort_rejects_empty(self):
        with pytest.raises(ValueError):
            Cohort((), ("x1",))
