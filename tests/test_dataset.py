"""Tests for cohort ingestion and the descriptive table."""

import csv
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskdiff import dataset
from riskdiff.dataset import (
    Cohort,
    ColumnSchema,
    columns_csv,
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
        assert [cohort.y[0], cohort.z1[0], cohort.z2[0]] == [1, 0, 0]
        assert cohort.x[0].tolist() == [50.0, 1.0, 0.0]
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
        assert exc.value.value == "2"

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
        with pytest.raises(MissingColumn) as exc:
            load_cohort(p, SCHEMA)
        assert exc.value.column == "z2"

    def test_missing_value(self, tmp_path):
        p = write_csv(tmp_path, "y,z1,z2,age,male,urban\n1,0,0,,1,0\n")
        with pytest.raises(MissingValue) as exc:
            load_cohort(p, SCHEMA)
        assert (exc.value.row, exc.value.column) == (1, "age")

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
        assert [cohort.y[0], cohort.z1[0], cohort.z2[0]] == [1, 1, 0]
        assert cohort.x.tolist() == [[3.5]]


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

            ys, z1s, z2s, xs = [], [], [], []
            for rownum, row in enumerate(reader, start=1):
                def cell(col):
                    j = idx[col]
                    return row[j] if j < len(row) else None

                y = _parse_binary(cell(schema.outcome), rownum, schema.outcome)
                z1 = _parse_binary(cell(schema.exposure1), rownum, schema.exposure1)
                z2 = _parse_binary(cell(schema.exposure2), rownum, schema.exposure2)
                x = tuple(_parse_real(cell(c), rownum, c) for c in schema.covariates)
                ys.append(y)
                z1s.append(z1)
                z2s.append(z2)
                xs.append(x)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}") from None

    if not ys:
        raise EmptyFile(f"{path} contains a header but no data rows")
    return Cohort.from_columns(ys, z1s, z2s, xs, schema.covariates)


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


PLAIN_ALPHABET = "0123456789+-.eE "
# whitelisted strings that float() rejects, or reads in an unusual way
PLAIN_ODD = ["1e", ".e1", "+-1", "1 2", "e5", "1e+", "-", ".", "+.5",
             "-.5e-3", "5.", "00012", " 7 ", "1E5", "1e-400", "-0.0", "1e999",
             "", " "]
ROW = "1,0,0,5"


def _csv_case(header, *rows, end="\n"):
    return header + end + "".join(r + end for r in rows)


def _took_fast_path(path, schema, monkeypatch):
    """Whether load_cohort(path, schema) took numpy's reader."""
    fast_columns, results = dataset._fast_columns, []

    def spy(*args):
        results.append(fast_columns(*args))
        return results[-1]

    with monkeypatch.context() as m:
        m.setattr(dataset, "_fast_columns", spy)
        _load_outcome(load_cohort, path, schema)
    return any(r is not None for r in results)


class TestFastPathMatchesPerRowLoader:
    """numpy's reader runs only where it gives what csv and float() give.

    Each case states whether the fast path takes the file; a file it
    declines goes to the csv path, which must give the reference outcome.
    """

    @pytest.mark.parametrize("text, fast", [
        # a cell longer than csv.field_size_limit() is a csv.Error
        (_csv_case("y,z1,z2,x1", "1,0,0," + "1" * 131073), False),
        (_csv_case("y,z1,z2,x1", "1,0,0," + "0" * 131072 + "5"), False),
        (_csv_case("y,z1,z2,x1,w", "1,0,0,5," + "0" * 131073), False),
        # numpy strips \x1c as whitespace, float() rejects it
        (_csv_case("y,z1,z2,x1", "1,0,0,5\x1c"), False),
        (_csv_case("y,z1,z2,x1", ROW, "", "0,1,1,6"), False),
        (_csv_case("y,z1,z2,x1", ROW, ""), False),
        (_csv_case("y,z1,z2,x1", ROW, "   "), False),
        (_csv_case("y,z1,z2,x1", "   "), False),
        (_csv_case("y,z1,z2,x1", ""), False),
        ("y,z1,z2,x1\n" + ROW + "\n0,1,1,6", True),
        (_csv_case("y,z1,z2,x1", ROW, "0,1,1,6", end="\r\n"), True),
        (_csv_case("y,z1,z2,x1", '1,0,0,"5"'), False),
        (_csv_case("y,z1,z2,x1,w", '1,0,0,5,"2,3"'), False),
        # csv reads the header for both readers, quoted names included
        (_csv_case('"y",z1,z2,x1', ROW), True),
        (_csv_case('"a,b",y,z1,z2,x1', "9,1,0,0,1,7"), True),
        # csv and universal newlines both end the header at the CR
        ("y,z1,z2,x1,w\r1,0,0,5,7\n0,1,1,6,8\n", True),
        (_csv_case("y,z1,z2,x1", "1,0,0,5\x00"), False),
        (_csv_case("y,z1,z2,x1"), False),
        (_csv_case("y,z1,z2,x1", "1,0,0,5,7", "0,1,1,6"), True),
        (_csv_case("y,z1,z2,x1", "1,0,0"), False),
        *((_csv_case("y,z1,z2,x1", f"{cell},0,0,5"), False)
          for cell in ["1.0", "+1", "01", "-0", " 1", "10", "1 ", ""]),
        *((_csv_case("y,z1,z2,x1", f"1,0,0,{cell}"), fast)
          for cell, fast in [("nan", False), ("1e999", False),
                             ("-1e999", False), ("1e-400", True),
                             ("-0.0", True), (" 4.25 ", True),
                             ("1_000", False), ("\uff15", False)]),
    ])
    def test_guard(self, tmp_path, monkeypatch, text, fast):
        m = text.partition("\n")[0].count("x")
        schema = ColumnSchema("y", "z1", "z2",
                              tuple(f"x{j}" for j in range(1, m + 1)))
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _took_fast_path(path, schema, monkeypatch) == fast
        got = _load_outcome(load_cohort, path, schema)
        want = _load_outcome(per_row_load_cohort, path, schema)
        assert got == want
        if isinstance(want, Cohort):
            assert got.x.tobytes() == want.x.tobytes()

    def test_plain_files_take_fast_path(self, tmp_path, monkeypatch):
        p = tmp_path / "cardia.csv"
        save_cohort(cardia_cohort(), p, CARDIA_SCHEMA)
        lf = p.read_bytes()  # save_cohort ends lines LF
        head, _, body = lf.partition(b"\n")
        quoted = b",".join(b'"%s"' % h for h in head.split(b","))
        # R's write.csv(row.names = FALSE) quotes every header name
        for text in (lf.replace(b"\n", b"\r\n"), lf, quoted + b"\n" + body):
            p.write_bytes(text)
            assert _took_fast_path(p, CARDIA_SCHEMA, monkeypatch)
            got = load_cohort(p, CARDIA_SCHEMA)
            assert got == cardia_cohort()
            assert got.x.tobytes() == cardia_cohort().x.tobytes()
        p = write_csv(tmp_path, "y,z1,z2,age,male,urban\n1,0,0,50,1,0\n")
        assert _took_fast_path(p, ColumnSchema("y", "z1", "z2", ("age",)),
                               monkeypatch)

    @pytest.mark.parametrize("body, fast", [("1,0,0,50\n", True),
                                            ('1,0,0,"50"\n', False)])
    def test_header_names_are_stripped(self, tmp_path, monkeypatch, body,
                                       fast):
        p = write_csv(tmp_path, " y , z1,z2 ,age\n" + body)
        schema = ColumnSchema("y", "z1", "z2", ("age",))
        assert _took_fast_path(p, schema, monkeypatch) == fast
        got = load_cohort(p, schema)
        assert got == per_row_load_cohort(p, schema)
        assert got.x.tolist() == [[50.0]]

    @example(cells=["1e"], binary=["1", "0", "0"], bad_binary=None, end="\n")
    @example(cells=[".e1"], binary=["1", "0", "0"], bad_binary=None,
             end="\r\n")
    @example(cells=["+-1"], binary=["1", "0", "0"], bad_binary=None, end="\r")
    @example(cells=["1 2"], binary=["1", "0", "0"], bad_binary=None, end="\n")
    @example(cells=["-0.0", "1e-400"], binary=["0", "1", "1"],
             bad_binary=None, end="\r\n")
    @given(cells=st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
        st.sampled_from(PLAIN_ODD),
        st.text("0123456789.", min_size=17, max_size=40),
        st.text(PLAIN_ALPHABET, max_size=8)), min_size=1, max_size=6),
        binary=st.lists(st.sampled_from(["0", "1"]), min_size=3, max_size=3),
        bad_binary=st.one_of(st.none(), st.text(PLAIN_ALPHABET, max_size=3)),
        end=st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=300, deadline=None)
    def test_numeric_cells(self, cells, binary, bad_binary, end):
        """Files of whitelisted characters only, so numpy parses each cell.

        The cells go into one covariate column, one per row, and into an
        unused column; one binary cell may be replaced. Lines end in LF,
        CRLF or CR.
        """
        rows = [",".join([*binary, c, c]) for c in cells]
        if bad_binary is not None:
            rows[-1] = bad_binary + rows[-1][1:]
        schema = ColumnSchema("y", "z1", "z2", ("x1",))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.csv"
            path.write_bytes(
                _csv_case("y,z1,z2,x1,w", *rows, end=end).encode("utf-8"))
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

    def test_equality_compares_names_and_columns(self):
        cohort = cardia_cohort()
        columns = [cohort.y, cohort.z1, cohort.z2, cohort.x]
        assert Cohort.from_columns(*columns, cohort.covariate_names) == cohort
        renamed = Cohort.from_columns(*columns, ("a", "b", "c"))
        assert renamed != cohort
        for j in range(4):
            changed = [c.copy() for c in columns]
            changed[j][0] = 1 - changed[j][0]
            assert Cohort.from_columns(*changed,
                                       cohort.covariate_names) != cohort

    @pytest.mark.parametrize("column", ["y", "z1", "z2"])
    @pytest.mark.parametrize("bad", [2, -1, 0.5, 1.0000001, float("nan")])
    def test_from_columns_refuses_non_binary(self, column, bad):
        columns = {"y": [1, 0], "z1": [0, 1], "z2": [1, 1]}
        columns[column] = [0, bad]
        with pytest.raises(ValueError, match=f"^{column} must hold only 0"):
            Cohort.from_columns(*columns.values(), [[1.0], [2.0]], ("x1",))

    def test_from_columns_names_the_first_bad_column(self):
        with pytest.raises(ValueError, match="^z1 "):
            Cohort.from_columns([1, 0], [2, 0], [0, -1], [[1.0], [2.0]],
                                ("x1",))

    @pytest.mark.parametrize("column", ["z1", "z2"])
    @pytest.mark.parametrize("length", [0, 1, 4])
    def test_from_columns_refuses_a_column_of_another_length(self, column,
                                                             length):
        columns = {"y": [1, 0, 1], "z1": [0, 1, 1], "z2": [1, 1, 0]}
        columns[column] = [0] * length
        with pytest.raises(ValueError, match=f"^{column} must hold 3 "):
            Cohort.from_columns(*columns.values(), [[1.0], [2.0], [3.0]],
                                ("x1",))

    @pytest.mark.parametrize("n, x", [(2, [[1.0]]), (2, [[1.0, 2.0]] * 2),
                                      (2, [1.0, 2.0]), (0, np.zeros((0, 1)))])
    def test_from_columns_refuses_x_of_another_shape_or_no_rows(self, n, x):
        with pytest.raises(ValueError, match="^x must be an"):
            Cohort.from_columns([1] * n, [0] * n, [1] * n, x, ("x1",))

    def test_from_columns_takes_bools_and_float_zeros_and_ones(self):
        cohort = Cohort.from_columns(np.array([True, False]), [0.0, 1.0],
                                     np.array([1.0, 1.0]), [[1.0], [2.0]],
                                     ("x1",))
        for col, want in ((cohort.y, [1, 0]), (cohort.z1, [0, 1]),
                          (cohort.z2, [1, 1])):
            assert col.dtype.kind == "i" and col.tolist() == want

    @pytest.mark.parametrize("args", [(), ([1], [0], [0], [[1.0]], ("x1",))])
    def test_direct_construction_names_the_constructors(self, args):
        with pytest.raises(TypeError, match="from_columns or load_cohort"):
            Cohort(*args)
        # copies are built without __init__
        cohort = cardia_cohort()
        assert pickle.loads(pickle.dumps(cohort)) == cohort

    def test_records_rebuild_the_cohort(self, tmp_path):
        # Python lists, with one covariate row per subject, as the per-row
        # reference loader passes them
        p = tmp_path / "cardia.csv"
        save_cohort(cardia_cohort(), p, CARDIA_SCHEMA)
        cohort = load_cohort(p, CARDIA_SCHEMA)
        columns = (cohort.y, cohort.z1, cohort.z2, cohort.x)
        assert Cohort.from_columns(*(c.tolist() for c in columns),
                                   cohort.covariate_names) == cohort


def _repr_join(header, *columns):
    """The reference writer: one ','-joined line of reprs per row."""
    return "".join(f"{line}\n" for line in [header, *map(",".join, zip(
        *([repr(v) for v in c.tolist()] for c in columns)))])


#: Values at the edges of repr's forms and of the shortest-digit search,
#: with both neighbours of 2**-1 ... 2**-14, where the gap below is half the
#: gap above.
EDGE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 1e-4,
    9.999999999999999e-05, 0.9999999999999999, 1.0, 0.1, 0.3, 0.1 + 0.2,
    1 / 3, 1e16, 9999999999999998.0,
    *(math.nextafter(2.0 ** -i, t) for i in range(1, 15)
      for t in (0.0, 2.0 ** -i, 1.0))]


def _assert_written_as_repr(x):
    # the first mismatched lines, not a diff of the texts: pytest's diff of
    # two long texts that differ on many lines takes minutes
    got = columns_csv("v", [x]).split("\n")
    want = _repr_join("v", x).split("\n")
    mismatches = [(g, w) for g, w in zip(got, want) if g != w][:3]
    assert (len(got), mismatches) == (len(want), [])


def _bits_as_float(word):
    return float(np.array(word, dtype=np.uint64).view(np.float64))


_IN_RANGE = st.floats(1e-4, 1, exclude_max=True)


class TestColumnsCsv:
    """columns_csv writes each value's repr, byte for byte."""

    @given(st.lists(st.one_of(
        st.integers(0, 2 ** 64 - 1).map(_bits_as_float),
        _IN_RANGE, _IN_RANGE.map(lambda v: -v), st.sampled_from(EDGE_VALUES)),
        min_size=1, max_size=40))
    @example(EDGE_VALUES + [-v for v in EDGE_VALUES])
    @settings(max_examples=200, deadline=None)
    def test_floats_are_written_as_repr(self, values):
        _assert_written_as_repr(np.array(values))

    def test_in_range_bit_patterns_are_written_as_repr(self):
        # every binary exponent of 2**-14 <= |v| < 1, random significands
        rng = np.random.default_rng(28)
        words = rng.integers(0, 2 ** 64, 60000, dtype=np.uint64)
        exponents = rng.integers(1023 - 14, 1023, len(words), dtype=np.uint64)
        x = ((words & np.uint64(0x800F_FFFF_FFFF_FFFF))
             | exponents << np.uint64(52)).view(np.float64)
        _assert_written_as_repr(x)

    @pytest.mark.parametrize("m", range(15, 23))
    def test_ties_between_shortest_decimals_go_to_even(self, m):
        # o / 2**m for odd o has m decimals, the last a 5; where the shortest
        # that round to it have m - 1 decimals (m = 17 on [0.5, 1)), the two
        # candidates are equally near and repr takes the even one
        odd = np.arange(2 ** (m - 1) + 1, 2 ** m, 2)[-2000:]
        x = np.concatenate([odd, -odd]) / 2.0 ** m
        _assert_written_as_repr(x)

    @pytest.mark.parametrize("columns", [
        [np.arange(3), np.arange(2.0)], [np.arange(2), np.arange(5.0)]])
    def test_unequal_lengths_raise(self, columns):
        lengths = [len(c) for c in columns]
        with pytest.raises(ValueError, match=rf"lengths \[{lengths[0]}, "
                                             rf"{lengths[1]}\]"):
            columns_csv("a,b", columns)


class TestRoundTrip:
    @given(rows=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_save_load_identity(self, rows):
        import tempfile
        y, z1, z2, x = zip(*rows)
        cohort = Cohort.from_columns(y, z1, z2, np.array(x)[:, None],
                                     ("x1",))
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

    @given(st.one_of(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1),
                     st.lists(st.floats(-1e300, 1e300), min_size=1),
                     st.lists(st.sampled_from([-1.5, 0.0, 2.0]), min_size=1)))
    @settings(max_examples=200)
    def test_matches_sorted_list_rule(self, values):
        """The element at rank ceil(n/2) of sorted(values), as a float."""
        got = lower_median(values)
        assert isinstance(got, float)
        assert got == sorted(values)[(len(values) + 1) // 2 - 1]


class TestDescribe:
    def test_single_record(self):
        cohort = Cohort.from_columns([1], [0], [0], [[1.0]], ("x1",))
        table = describe(cohort)
        assert table.overall[(0, 0)] == (1, 1)
        for cell in ((1, 1), (0, 1), (1, 0)):
            assert table.overall[cell][1] == 0

    def test_fixture_overall_cells(self):
        table = describe(cardia_cohort())
        assert table.overall[(1, 1)] == (23, 75)
        assert table.overall[(0, 1)] == (4, 36)
        assert table.overall[(1, 0)] == (23, 31)
        assert table.overall[(0, 0)] == (5, 8)

    def test_fixture_age_split(self):
        # the fixture documents its descriptive age threshold; under it the
        # young stratum of the doubly exposed cell holds 12 events / 41
        table = describe(cardia_cohort(), split_at={"age": AGE_SPLIT})
        low = table.by_covariate["age"][f"age<={AGE_SPLIT:g}"]
        assert low[(1, 1)] == (12, 41)

    def test_binary_covariates_split_by_level(self):
        table = describe(cardia_cohort())
        male = table.by_covariate["male"]
        assert set(male) == {"male=0", "male=1"}
        total = sum(t for level in male.values() for _, t in level.values())
        assert total == 150

    def test_cell_totals_sum_to_n(self):
        cohort = cardia_cohort()
        table = describe(cohort)
        events, totals = zip(*table.overall.values())
        assert sum(totals) == cohort.n
        assert sum(events) == cohort.y.sum()

    @given(st.permutations(range(20)))
    @settings(max_examples=25)
    def test_permutation_invariance(self, order):
        i = np.arange(20)
        columns = (i % 2, (i // 2) % 2, (i // 4) % 2, i[:, None])
        base = describe(Cohort.from_columns(*columns, ("x1",)))
        shuffled = describe(Cohort.from_columns(
            *(c[list(order)] for c in columns), ("x1",)))
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
            Cohort.from_columns([2], [0], [0], [[1.0]], ("x1",))

    def test_cohort_rejects_ragged_covariates(self):
        with pytest.raises(ValueError):
            Cohort.from_columns([0, 0], [0, 0], [0, 0], [[1.0], [1.0, 2.0]],
                                ("x1",))

    def test_cohort_rejects_empty(self):
        with pytest.raises(ValueError):
            Cohort.from_columns([], [], [], [], ("x1",))
