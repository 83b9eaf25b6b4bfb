"""Cohort ingestion and descriptive cross-tabulation.

A cohort holds its subjects as columns: a binary outcome, two binary
exposures and an n-by-m matrix of real covariates. Input is headered CSV
with a user-supplied column mapping, so arbitrary column names work. Any
malformed cell rejects the whole file; rows are never silently dropped.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DataError, EmptyFile, MissingColumn, MissingValue,
                     NonBinaryValue, NonFiniteValue)

#: Rows per block of a written CSV: a block's lines are built as one byte
#: matrix, and a block bounds how many are held at once.
CSV_BLOCK = 16384


class Cohort:
    """Subjects as read-only columns: 0/1 ints y, z1, z2, n-by-m floats x."""

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Cohort with Cohort.from_columns or load_cohort")

    @classmethod
    def from_columns(cls, y, z1, z2, x, covariate_names) -> "Cohort":
        """A cohort of read-only copies of y, z1, z2 (each 0 or 1) and x."""
        x = np.array(x, dtype=float, order="C")
        if len(y) == 0 or x.shape != (len(y), len(covariate_names)):
            raise ValueError("x must be an (n, m) array with n >= 1")
        y, z1, z2 = (np.asarray(c) for c in (y, z1, z2))
        for name, col in zip(("y", "z1", "z2"), (y, z1, z2)):
            if col.shape != (len(y),):
                raise ValueError(f"{name} must hold {len(y)} entries")
            if not ((col == 0) | (col == 1)).all():
                raise ValueError(f"{name} must hold only 0 or 1")
        y, z1, z2 = (c.astype(int) for c in (y, z1, z2))
        for col in (y, z1, z2, x):
            col.flags.writeable = False
        cohort = cls.__new__(cls)
        vars(cohort).update(y=y, z1=z1, z2=z2, x=x, n=len(y),
                            covariate_names=tuple(covariate_names))
        return cohort

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Cohort is read-only")

    def __eq__(self, other):
        return isinstance(other, Cohort) and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("covariate_names", "y", "z1", "z2", "x"))


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
    if not binary and math.isinf(float(raw)):
        raise NonFiniteValue(row, column, raw)


_PLAIN = dict.fromkeys(map(ord, "0123456789+-.eE, \r\n"))


def _fast_columns(body, cols):
    """(y, z1, z2, x) read by numpy, or None where csv and float() may differ.

    body is the text below the header, cols the wanted columns' indices.
    Lines end at CR, LF or CRLF, as csv.reader splits them. Requires: no
    blank line, no line over ``csv.field_size_limit()``, only ``0-9+-.eE``,
    comma, space and line ends (so csv splits lines at commas, and numpy
    parses numbers with float()'s parser); numpy reads one row per line;
    binary cells are exactly "0" or "1" ("1.0" and " 1" stay 2 characters);
    covariates are finite.
    """
    lines = body.splitlines()
    if ("" in lines or body.translate(_PLAIN)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    dtype = [("b", "U2", (3,)), ("x", float, (len(cols) - 3,))]
    try:
        rec = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                         quotechar=None, ndmin=1, usecols=cols)
    except ValueError:
        return None
    ones, x = rec["b"] == "1", rec["x"]
    if (len(rec) != len(lines) or not np.isfinite(x).all()
            or not (ones | (rec["b"] == "0")).all()):
        return None
    return (*ones.T, x)


def load_cohort(path, schema: ColumnSchema) -> Cohort:
    """Read a headered CSV into a Cohort, validating every cell.

    csv.reader reads the header; numpy a plain numeric body (_fast_columns),
    csv.reader and float() any other; both give the same cohort, bit for bit.
    """
    wanted = [schema.outcome, schema.exposure1, schema.exposure2,
              *schema.covariates]
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise EmptyFile(f"{path} is empty")
            header = [h.strip() for h in header]
            for col in wanted:
                if col not in header:
                    raise MissingColumn(col)
            body = fh.read()
        if not body:
            raise EmptyFile(f"{path} contains a header but no data rows")
        cols = [header.index(col) for col in wanted]
        columns = _fast_columns(body, cols)
        if columns is not None:
            return Cohort.from_columns(*columns, schema.covariates)
        rows = list(csv.reader(io.StringIO(body, newline="")))
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}") from None
    try:
        y, z1, z2 = ([("0", "1").index(row[j].strip()) for row in rows]
                     for j in cols[:3])
        x = np.array([[float(row[j]) for row in rows] for j in cols[3:]])
        if not np.isfinite(x).all():
            raise ValueError("NaN or infinite covariate")
    except (IndexError, ValueError):
        # check again in file order, so the error names the first bad cell
        for i, row in enumerate(rows, start=1):
            for k, (col, j) in enumerate(zip(wanted, cols)):
                _check_cell(row[j] if j < len(row) else None, i, col, k < 3)
        raise
    return Cohort.from_columns(y, z1, z2, x.reshape(-1, len(rows)).T,
                               schema.covariates)


_U = np.uint64
_LO32, _U32 = _U(0xFFFFFFFF), _U(32)


def _mulhilo(a, m):
    """High and low 64-bit words of the 128-bit products a * m (the low is
    the wrapping uint64 product), in 32-bit halves: numpy has no uint128."""
    a_lo, a_hi = a & _LO32, a >> _U32
    m_lo, m_hi = m & _LO32, m >> _U32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _U32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * m_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return hi, a * m


def _schubfach_row(q):
    """(h, g, 10**(20 + k)) for the doubles c 2**q: k = floor(log10(2**q)),
    the integer g = 10**-k 2**(62 - f) in [2**62, 2**63) with f =
    floor(log2(10**-k)), and ((4c << h) g) 2**-64 = 4c 2**q 10**-k."""
    k = -len(str(2 ** -q))
    f = (10 ** -k).bit_length() - 1
    return q + f + 2, 10 ** -k << 62 >> f, 10 ** (20 + k)


#: _schubfach_row for 2**-14 <= c 2**q < 1, in column q + 66, which is the
#: biased exponent - 1009.
_SCHUBFACH = np.array([_schubfach_row(q) for q in range(-66, -52)],
                      dtype=np.uint64).T


@functools.cache
def _digits4():
    """"dddd" for 0..9999 as uint32, then the same with each trailing "0"
    NUL: the digit of 10**j is one where 10**(j + 1) divides i. Built on
    first use, so that runs which write no CSV do not hold it."""
    i = np.arange(10000)[:, None]
    digits = i // [1000, 100, 10, 1] % 10 + 48
    table = np.concatenate([digits, digits * (i % [10000, 1000, 100, 10] > 0)])
    table = table.astype(np.uint8).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


#: A fraction field's first word for x < 0 and x > 0; its NUL is cut off.
_NEG, _POS = np.frombuffer(b"\0-0.\0\x000.", np.uint32)


def _shortest_decimals(x):
    """(d, 10**(20 + k)) for float64 x with 1e-4 <= |x| < 1, where d 10**k
    is the shortest decimal that rounds to x, the nearest if several (ties
    to even d), as in repr: Schubfach (Giulietti, 2020, "The Schubfach way
    to render doubles"), figure 7, in uint64 arithmetic. Here 10**-k is an
    integer below 2**67, so 4 x 10**-k and the ends of the rounding interval
    scale to exact 128-bit products. Those ends, halfway between doubles,
    have over 50 decimals and 2**-n is a decimal of at most 10 digits, so
    Schubfach's open ends for odd significands and narrower interval below
    a power of two cannot change d and are left out."""
    bits = x.view(np.uint64)
    exponent = (bits >> _U(52) & _U(0x7FF)).astype(np.intp)
    h, g, p = _SCHUBFACH.take(exponent - 1009, axis=1)
    cb = (bits & _U((1 << 52) - 1) | _U(1 << 52)) << _U(2)
    # 4 x 10**-k and the ends, rounded to odd: the products' high words,
    # with the last bit set where the low word is not zero
    vb, lo, hi = (high | (low != 0) for high, low in (
        _mulhilo(v << h, g) for v in (cb, cb - _U(2), cb + _U(2))))
    s = vb >> _U(2)
    u = s // _U(10) * _U(10)
    upin, wpin = lo <= u << _U(2), (u + _U(10)) << _U(2) <= hi
    uin, win = lo <= s << _U(2), (s + _U(1)) << _U(2) <= hi
    mid = (s << _U(2)) + _U(2)
    up = np.where(uin != win, win, (vb > mid) | (vb == mid) & (s & _U(1) == 1))
    d = np.where(upin != wpin, np.where(wpin, u + _U(10), u), s + up)
    return d.view(np.int64), p.view(np.int64)


def _fraction_field(x):
    """(len(x), 23) bytes of repr for float64 1e-4 <= |x| < 1, NUL-padded:
    a sign, "0." and the 20 digits of d 10**(20 + k), trailing zeros cut."""
    d, p = _shortest_decimals(x)
    low = d % 10 ** 8 * p  # the fraction's 20 digits are hi, then low
    hi = d // 10 ** 8 * p + low // 10 ** 8
    groups = (low % 10 ** 4, low // 10 ** 4 % 10 ** 4, hi % 10 ** 4,
              hi // 10 ** 4 % 10 ** 4, hi // 10 ** 8)
    out = np.empty((len(x), 6), np.uint32)
    out[:, 0] = np.where(x < 0, _NEG, _POS)
    zeros_after = True
    for j, g in zip(range(5, 0, -1), groups):
        out[:, j] = _digits4().take(g + 10 ** 4 * zeros_after)
        zeros_after = zeros_after & (g == 0)
    return out.view(np.uint8)[:, 1:]


def _reprs(values):
    """(len(values), w) ASCII bytes of each Python value's repr, NUL-padded."""
    text = np.array([repr(v) for v in values.tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _field(column):
    """_reprs(column), but float64 values with 1e-4 <= |v| < 1 take
    _fraction_field; both give repr's bytes."""
    if column.dtype != np.float64:
        return _reprs(column)
    fast = (np.abs(column) >= 1e-4) & (np.abs(column) < 1)
    slow = _reprs(column[~fast])
    out = np.zeros((len(column), max(23, slow.shape[1])), np.uint8)
    out[fast, :23] = _fraction_field(column[fast])
    out[~fast, :slow.shape[1]] = slow
    return out


def columns_csv(header: str, columns) -> str:
    """The header line, then one line per row of the equal-length 1-d
    columns: the repr of each column's Python value, joined with ','. Each
    block of CSV_BLOCK rows is one byte matrix of NUL-padded fields
    (_field), commas and line ends; dropping its NULs gives the text."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns have unequal lengths {lengths}")
    text = [header + "\n"]
    for start in range(0, lengths[0], CSV_BLOCK):
        fields = [_field(c[start:start + CSV_BLOCK]) for c in columns]
        comma = np.full((len(fields[0]), 1), ord(","), np.uint8)
        block = np.concatenate([a for f in fields for a in (f, comma)], 1)
        block[:, -1] = ord("\n")
        text.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def cohort_csv(cohort: Cohort, schema: ColumnSchema) -> str:
    """The cohort as canonical CSV text; round-trips with load_cohort."""
    buf = io.StringIO()
    csv.writer(buf).writerow([schema.outcome, schema.exposure1,
                              schema.exposure2, *schema.covariates])
    return columns_csv(buf.getvalue().removesuffix("\r\n"),
                       [cohort.y, cohort.z1, cohort.z2, *cohort.x.T])


def save_cohort(cohort: Cohort, path, schema: ColumnSchema) -> None:
    """Write cohort_csv(cohort, schema) to path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(cohort_csv(cohort, schema))


def lower_median(values) -> float:
    """Element at rank ceil(n/2) of the sorted values (inverted_cdf)."""
    return float(np.quantile(values, 0.5, method="inverted_cdf"))


_CELL_ORDER = ((1, 1), (0, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class DescriptiveTable:
    overall: dict  # (z1, z2) exposure cell -> (events, total)
    # covariate name -> {level label: {(z1, z2): (events, total)}}
    by_covariate: dict
    split_values: dict  # covariate name -> threshold used (continuous only)

    def to_json(self) -> str:
        def cc(c):
            return {f"z1={z1},z2={z2}": list(c[(z1, z2)])
                    for z1, z2 in _CELL_ORDER}

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
            rows.append([label, *("%d/%d" % c[k] for k in _CELL_ORDER)])

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


def _tabulate(cohort: Cohort, mask=True) -> dict:
    """{(z1, z2): (events, total)} over the subjects in mask."""
    cells = ((k, (cohort.z1 == k[0]) & (cohort.z2 == k[1]) & mask)
             for k in _CELL_ORDER)
    return {k: (int(cohort.y[c].sum()), int(c.sum())) for k, c in cells}


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
            med = split_at.get(name, lower_median(values))
            split_values[name] = med
            levels = {f"{name}<={med:g}": values <= med,
                      f"{name}>{med:g}": values > med}
        by_cov[name] = {label: _tabulate(cohort, mask)
                        for label, mask in levels.items()}
    return DescriptiveTable(overall=_tabulate(cohort), by_covariate=by_cov,
                            split_values=split_values)
