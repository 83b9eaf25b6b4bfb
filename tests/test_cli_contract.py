"""Property test of the CLI exit-code contract under perturbed inputs.

Whatever the cohort, model, draw count, alpha or fit file, `riskdiff` exits
0, 2, 3 or 4. Exit 0 writes nothing to stderr; every other exit writes
exactly one JSON object naming that code. Data and fit errors, and the
up-front --draws/--alpha checks, write no output file. An output directory
or file that cannot be written exits 2 as a DataError naming its path, and a
write that fails leaves --out as it was.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from riskdiff import cli
from riskdiff.cli import main
from riskdiff.dataset import cohort_csv, save_cohort
from riskdiff.fixtures import CARDIA_SCHEMA, cardia_cohort, cardia_fit

COLUMNS = ["survival", "large_hospital", "advanced_stage", "age", "male",
           "urban"]
COLS = ["--outcome-col", "survival",
        "--exposure1-col", "large_hospital",
        "--exposure2-col", "advanced_stage",
        "--covariate-cols", "age,male,urban"]
MODEL = "z1,z2,z1*z2,x1,x2,x3,z1*x1"
TERMS = ["z1", "z2", "z1*z2", "x1", "x2", "x3", "z1*x1", "z2*x3",
         "x7", "x0", "q9", "z1*z1", ""]


def _fit_json_variants():
    good = json.loads(cardia_fit().to_json())
    zero = dict(good, covariance=[0.0] * len(good["covariance"]))
    k = len(good["terms"])
    sigma = [good["covariance"][i:i + k] for i in range(0, k * k, k)]
    # symmetric, non-negative diagonal, but a 2x2 minor is negative
    sigma[0][1] = sigma[1][0] = 2.0 * math.sqrt(sigma[0][0] * sigma[1][1])
    indefinite = dict(good, covariance=[v for row in sigma for v in row])
    reordered = dict(good, terms=good["terms"][::-1],
                     coefficients=good["coefficients"][::-1])
    return {
        "fixture": json.dumps(good),
        "zero-covariance": json.dumps(zero),
        "not-json": "not json",
        "missing-keys": json.dumps({"terms": good["terms"]}),
        "not-positive-definite": json.dumps(indefinite),
        "terms-reordered": json.dumps(reordered),
        # int(inf) raises OverflowError, json.loads a RecursionError
        "iterations-1e999": json.dumps(dict(good, iterations=0)).replace(
            '"iterations": 0', '"iterations": 1e999'),
        "nested-100000-deep": "[" * 100_000,
    }


FIT_JSON = _fit_json_variants()


@pytest.fixture(scope="module")
def cohort_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "cohort.csv"
    save_cohort(cardia_cohort(), path, CARDIA_SCHEMA)
    return path.read_text().splitlines()


def _perturb(lines, edit):
    """The cohort CSV with one cell blanked or replaced, or a column dropped."""
    rows = [line.split(",") for line in lines]
    kind, row, col = edit
    if kind == "drop":
        rows = [r[:col] + r[col + 1:] for r in rows]
    elif kind is not None:
        rows[1 + row % (len(rows) - 1)][col] = kind
    return "\n".join(",".join(r) for r in rows) + "\n"


# unedited cohorts are listed three times so that later stages get reached
edits = st.tuples(st.sampled_from([None, None, None, "", "2", "abc", "inf",
                                   "-Infinity", "drop"]),
                  st.integers(0, 149), st.integers(0, len(COLUMNS) - 1))
terms = st.lists(st.sampled_from(TERMS), max_size=4)
models = st.one_of(st.just(MODEL),
                   terms.map(lambda ts: ",".join(["z1", "z2", *ts])),
                   terms.map(",".join))


@given(command=st.sampled_from(["fit", "report"]), edit=edits, model=models,
       draws=st.one_of(st.just(40), st.sampled_from([-1, 0, 1, 5, 40])),
       alpha=st.one_of(st.just(0.05),
                       st.sampled_from([-0.5, 0.0, 0.05, 1.0, 1.5])),
       fit_json=st.sampled_from([None, *FIT_JSON]))
@settings(max_examples=30, deadline=None)
def test_exit_code_contract(cohort_lines, command, edit, model, draws, alpha,
                            fit_json):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cohort.csv").write_text(_perturb(cohort_lines, edit))
        out = tmp / "out"
        argv = [command, "--input", str(tmp / "cohort.csv"), *COLS,
                "--model", model, "--out", str(out)]
        if command == "report":
            argv += ["--seed", "1", "--draws", str(draws),
                     "--alpha", str(alpha)]
            if fit_json is not None:
                (tmp / "fit.json").write_text(FIT_JSON[fit_json])
                argv += ["--fit-json", str(tmp / "fit.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        out_empty = not out.exists() or not any(out.iterdir())

        event(f"exit {code}")
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1
            assert json.loads(err)["exit_code"] == code
        if code in (2, 3):
            assert out_empty
        if command == "report" and (draws < 1 or not 0.0 < alpha < 1.0):
            assert code == 4
            assert out_empty


@pytest.mark.parametrize("command", ["fit", "report", "fixture"])
def test_uncreatable_out_exit_2(cohort_lines, command, tmp_path):
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--out", str(blocker / "sub")]
    if command != "fixture":
        argv += ["--input", str(tmp_path / "cohort.csv"), *COLS,
                 "--model", MODEL]
    if command == "report":
        argv += ["--seed", "1", "--draws", "40"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 2
    err = json.loads(stderr.getvalue())
    assert err["exit_code"] == 2
    assert err["errors"][0]["error"] == "DataError"
    assert "NotADirectoryError" in err["errors"][0]["message"]
    assert blocker.read_text() == ""


def _run(argv):
    """(exit code, the one JSON error object or None) of one CLI run."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, json.loads(stderr.getvalue()) if stderr.getvalue() else None


def _command_argv(command, tmp_path, out):
    argv = [command, "--out", str(out)]
    if command != "fixture":
        argv += ["--input", str(tmp_path / "cohort.csv"), *COLS,
                 "--model", MODEL]
    if command == "report":
        argv += ["--seed", "1", "--draws", "40"]
    return argv


@pytest.mark.parametrize("command", ["fit", "report"])
def test_uncreatable_out_exits_before_fit_and_draws(cohort_lines, command,
                                                    tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("called before --out was checked")

    monkeypatch.setattr(cli, "fit_logistic", unreachable)
    monkeypatch.setattr(cli, "effect_distribution", unreachable)
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    (tmp_path / "file").write_text("")
    code, err = _run(_command_argv(command, tmp_path,
                                   tmp_path / "file" / "sub"))
    assert code == 2
    assert err["errors"][0]["error"] == "DataError"


@pytest.mark.parametrize("command", ["fit", "report", "fixture"])
def test_unwritable_output_file_exit_2(cohort_lines, command, tmp_path):
    """A directory in place of each file a command writes exits 2."""
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    good = tmp_path / "good"
    assert _run(_command_argv(command, tmp_path, good)) == (0, None)
    names = sorted(p.name for p in good.iterdir())
    assert len(names) == {"fit": 1, "report": 20, "fixture": 2}[command]
    for name in names:
        out = tmp_path / f"blocked-{name}"
        (out / name).mkdir(parents=True)
        code, err = _run(_command_argv(command, tmp_path, out))
        assert code == 2, name
        assert err["exit_code"] == 2
        assert err["errors"][0]["error"] == "DataError"
        assert str(out / name) in err["errors"][0]["message"]
        assert "IsADirectoryError" in err["errors"][0]["message"]


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("command, nth", [("fit", 1), ("report", 1),
                                          ("report", 10), ("report", 20)])
def test_failed_write_publishes_nothing(cohort_lines, command, nth, tmp_path,
                                        monkeypatch):
    """An OSError on the nth staged file leaves the earlier bundle intact."""
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    out = tmp_path / "out"
    assert _run(_command_argv(command, tmp_path, out)) == (0, None)
    before = _snapshot(out)
    assert len(before) == {"fit": 1, "report": 20}[command]

    staged = []
    write_text = Path.write_text

    def failing_write_text(path, *args, **kwargs):
        if path.parent.name.startswith(".riskdiff-"):
            staged.append(path.name)
            if len(staged) == nth:
                raise OSError(28, "No space left on device")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    rerun = {"fit": ["--model", "z1,z2,z1*z2,x1,x2,x3"],
             "report": ["--seed", "2"]}[command]
    code, err = _run(_command_argv(command, tmp_path, out) + rerun)
    assert code == 2
    assert len(staged) == nth
    assert [e["error"] for e in err["errors"]] == ["DataError"]
    assert f"write {out / staged[-1]}: OSError" in err["errors"][0]["message"]
    assert _snapshot(out) == before


@pytest.mark.parametrize("name", ["effects.json", "hist_te2.csv",
                                  "hist_int_te2_t3.csv"])
def test_directory_in_a_file_place_publishes_nothing(cohort_lines, name,
                                                     tmp_path):
    """A directory in place of any bundle file is refused before a move."""
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    code, err = _run(_command_argv("report", tmp_path, out))
    assert code == 2
    assert [e["error"] for e in err["errors"]] == ["DataError"]
    assert err["errors"][0]["message"].startswith(
        f"cannot write {out / name}: IsADirectoryError: ")
    assert sorted(p.name for p in out.iterdir()) == sorted([name, "notes.txt"])
    assert not any((out / name).iterdir())
    assert (out / "notes.txt").read_text() == "kept\n"


def test_fixture_is_whole_or_nothing(tmp_path):
    """fixture writes save_cohort's bytes, and a refused cardia_fit.json
    leaves no cardia_cohort.csv behind."""
    assert _run(["fixture", "--out", str(tmp_path / "good")]) == (0, None)
    save_cohort(cardia_cohort(), tmp_path / "saved.csv", CARDIA_SCHEMA)
    assert (tmp_path / "good" / "cardia_cohort.csv").read_bytes() == \
        (tmp_path / "saved.csv").read_bytes()
    out = tmp_path / "out"
    (out / "cardia_fit.json").mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    code, err = _run(["fixture", "--out", str(out)])
    assert code == 2
    assert [e["error"] for e in err["errors"]] == ["DataError"]
    assert err["errors"][0]["message"].startswith(
        f"cannot write {out / 'cardia_fit.json'}: IsADirectoryError: ")
    assert sorted(p.name for p in out.iterdir()) == ["cardia_fit.json",
                                                      "notes.txt"]
    assert not any((out / "cardia_fit.json").iterdir())
    assert (out / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("draws, errors", [
    # every ellipse and tercile stage fails
    (1, ["DegenerateCloud", "TooFewDraws", "DegenerateCloud", "TooFewDraws"]),
    # the ellipses succeed, the terciles fail: no ellipse file is published
    (5, ["TooFewDraws", "TooFewDraws"]),
])
def test_exit_4_publishes_exactly_the_marginal_stage(cohort_lines, draws,
                                                     errors, tmp_path):
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    out = tmp_path / "out"
    code, err = _run(_command_argv("report", tmp_path, out)
                     + ["--draws", str(draws)])
    assert code == 4
    assert err["exit_code"] == 4
    assert [e["error"] for e in err["errors"]] == errors
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "effects.json", "draws.csv",
        *(f"marginal_{w}.json" for w in ("te1", "te2", "int")),
        *(f"hist_{w}.csv" for w in ("te1", "te2", "int"))])


def _finite(value):
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _numbers_finite(path):
    """Whether every number in a published JSON file, or in a CSV's
    provenance comment and rows, is finite."""
    if path.suffix == ".json":
        return _finite(json.loads(path.read_text()))
    comment, _, *rows = path.read_text().splitlines()
    return _finite(json.loads(comment.removeprefix("# "))) and all(
        math.isfinite(float(v)) for row in rows for v in row.split(","))


FIT_TERMS = json.loads(FIT_JSON["fixture"])["terms"]
coefficient = st.tuples(st.sampled_from(FIT_TERMS), st.one_of(
    st.floats(-1e307, 1e307), st.sampled_from([-2.0, 2.0, -16.0, 1e307])))


@given(first=coefficient, second=st.one_of(st.none(), coefficient),
       cell=st.one_of(st.none(), st.tuples(
           st.one_of(st.floats(-1.7e308, 1.7e308), st.just(1.7e308)),
           st.integers(0, 149), st.sampled_from([3, 4, 5]))))
@settings(max_examples=60, deadline=None)
def test_extreme_values_exit_cleanly(cohort_lines, first, second, cell):
    """Coefficients up to 1e307 in --fit-json, or a covariate cell up to
    1.7e308, exit 0, 2, 3 or 4 with at most one JSON object on stderr and
    publish only finite numbers."""
    fit = json.loads(FIT_JSON["fixture"])
    for term, value in filter(None, (first, second)):
        fit["coefficients"][FIT_TERMS.index(term)] = value
    edit = (None, 0, 0) if cell is None else (repr(cell[0]), *cell[1:])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cohort.csv").write_text(_perturb(cohort_lines, edit))
        (tmp / "fit.json").write_text(json.dumps(fit))
        report = ["--seed", "1", "--draws", "200",
                  "--fit-json", str(tmp / "fit.json")]
        for command, extra in (("report", report), ("fit", [])):
            out = tmp / command
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main([command, "--input", str(tmp / "cohort.csv"),
                             *COLS, "--model", MODEL, "--out", str(out),
                             *extra])
            err = stderr.getvalue()
            event(f"{command} exit {code}")
            assert code in (0, 2, 3, 4)
            if code == 0:
                assert err == ""
            else:
                assert err.count("\n") == 1
                assert json.loads(err)["exit_code"] == code
            for path in out.iterdir():
                assert _numbers_finite(path), path.name


@pytest.mark.parametrize("name, message", [
    ("not-positive-definite", "NotPositiveDefinite"),
    ("terms-reordered", "do not match"),
    ("iterations-1e999", "OverflowError"),
    ("nested-100000-deep", "RecursionError"),
])
def test_unusable_fit_json_exit_3(cohort_lines, name, message, tmp_path):
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    (tmp_path / "fit.json").write_text(FIT_JSON[name])
    out = tmp_path / "out"
    code, err = _run(_command_argv("report", tmp_path, out)
                     + ["--fit-json", str(tmp_path / "fit.json")])
    assert code == 3
    assert message in json.dumps(err["errors"])
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["fit", "report"])
def test_covariate_beyond_covariate_cols_exit_3(cohort_lines, command,
                                                tmp_path):
    """A --model term naming x4 of three --covariate-cols exits 3 with one
    BadCovariateIndex object and writes nothing into --out."""
    (tmp_path / "cohort.csv").write_text("\n".join(cohort_lines) + "\n")
    out = tmp_path / "out"
    argv = _command_argv(command, tmp_path, out) + ["--model", "z1,z2,x4"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 3
    assert stderr.getvalue().count("\n") == 1
    err = json.loads(stderr.getvalue())
    assert err["exit_code"] == 3
    assert [e["error"] for e in err["errors"]] == ["BadCovariateIndex"]
    assert not out.exists() or not any(out.iterdir())


CSV_ROWS = [line.split(",") for line in
            cohort_csv(cardia_cohort(), CARDIA_SCHEMA).splitlines()]
CELL_TEXTS = st.sampled_from(["", " ", "abc", '"1"', '"1,2"', " 1", "1.0",
                              "2", "-0", "nan", "inf"])
MARGINAL = {"effects.json", "draws.csv",
            *(f"{kind}_{w}.{ext}" for w in ("te1", "te2", "int")
              for kind, ext in (("marginal", "json"), ("hist", "csv")))}


@st.composite
def cohort_texts(draw):
    """The fixture cohort as CSV text with a few cells replaced, a column
    dropped or repeated, an optional BOM, LF or CRLF line ends and an
    optional trailing blank line."""
    rows = [list(r) for r in CSV_ROWS]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows[draw(st.integers(0, len(rows) - 1))][
            draw(st.integers(0, len(COLUMNS) - 1))] = draw(CELL_TEXTS)
    col = draw(st.integers(0, len(COLUMNS) - 1))
    column = draw(st.sampled_from([None, None, None, "drop", "repeat"]))
    if column == "drop":
        rows = [r[:col] + r[col + 1:] for r in rows]
    elif column == "repeat":
        rows = [r + [r[col]] for r in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(map(",".join, rows)) + end
    return (draw(st.sampled_from(["", "\ufeff"])) + text
            + draw(st.sampled_from(["", "", end])))


@given(text=cohort_texts())
@settings(max_examples=40, deadline=None)
def test_cohort_text_contract(text):
    """describe, fit and report on generated cohort text exit 0, 2, 3 or 4
    with at most one JSON object on stderr, and --out keeps what it held
    plus either nothing (exit 2, 3), the marginal stage (exit 4) or the
    whole bundle (exit 0)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cohort.csv").write_text(text, encoding="utf-8", newline="")
        base = ["--input", str(tmp / "cohort.csv"), *COLS]
        out = tmp / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        for command, extra in (("describe", []),
                               ("fit", ["--model", MODEL, "--out", str(out)]),
                               ("report", ["--model", MODEL, "--out", str(out),
                                           "--seed", "1", "--draws", "200"])):
            before = _snapshot(out)
            code, err = _run([command, *base, *extra])
            event(f"{command} exit {code}")
            assert code in (0, 2, 3, 4)
            assert err is None if code == 0 else err["exit_code"] == code
            assert not any(p.name.startswith(".riskdiff-")
                           for p in out.iterdir())
            after = _snapshot(out)
            added = after.keys() - before.keys()
            if command == "describe" or code in (2, 3):
                assert after == before
            elif command == "fit":
                assert added == {"fit.json"}
            elif code == 4:
                assert added == MARGINAL
            else:
                assert len(added) == 20 and MARGINAL < added
            assert after["notes.txt"] == b"kept\n"


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """The cohort and fit that `riskdiff fixture` writes."""
    out = tmp_path_factory.mktemp("fixture")
    assert _run(["fixture", "--out", str(out)]) == (0, None)
    return out


FIXTURE_FIT = json.loads(FIT_JSON["fixture"])
K = len(FIXTURE_FIT["terms"])
JUNK = st.sampled_from(["abc", [1.0], {"a": 1}, None, True, False, math.inf,
                        -math.inf, math.nan])


def _list(d, key):
    """d[key] if it is a non-empty list, else None."""
    v = d.get(key)
    return v if isinstance(v, list) and v else None


@st.composite
def fit_edits(draw):
    """One edit of a parsed fit file, as (kind, function of the payload)."""
    kind = draw(st.sampled_from(["drop", "junk", "junk-entry", "shorten",
                                 "lengthen", "rename", "reorder",
                                 "asymmetric", "negative-diagonal", "array"]))
    key = draw(st.sampled_from(sorted(FIXTURE_FIT)))
    lst = draw(st.sampled_from(["coefficients", "covariance"]))
    i = draw(st.integers(0, K * K - 1))
    junk = draw(JUNK)
    name = draw(st.sampled_from(["x9", "z1*x2", "z2", "", "Z1"]))
    order = draw(st.permutations(range(K)))

    def edit(d):
        if kind == "array":
            return [d]
        if not isinstance(d, dict):
            return d
        if kind == "drop":
            d.pop(key, None)
        elif kind == "junk":
            d[key] = junk
        elif kind == "junk-entry" and _list(d, lst):
            d[lst][i % len(d[lst])] = junk
        elif kind == "shorten" and _list(d, lst):
            d[lst] = d[lst][:-1]
        elif kind == "lengthen" and _list(d, lst):
            d[lst] = d[lst] + d[lst][-1:]
        elif kind == "rename" and _list(d, "terms"):
            d["terms"][i % len(d["terms"])] = name
        elif kind == "reorder" and _list(d, "terms"):
            d["terms"] = [d["terms"][j] for j in order if j < len(d["terms"])]
        elif kind == "asymmetric" and _list(d, "covariance"):
            cov = d["covariance"]
            cov[1 % len(cov)] = 2.0 * FIXTURE_FIT["covariance"][1] + 1e-6
        elif kind == "negative-diagonal" and _list(d, "covariance"):
            cov, j = d["covariance"], (i % K) * (K + 1)
            cov[j % len(cov)] = -1e-9 - FIXTURE_FIT["covariance"][j]
        return d

    return kind, edit


@given(edits=st.lists(fit_edits(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_generated_fit_json_contract(fixture_files, edits):
    """report --fit-json on the fixture fit with 1-3 generated edits exits
    0, 3 or 4 with at most one JSON object on stderr, and leaves --out
    unchanged on exit 3."""
    fit = json.loads((fixture_files / "cardia_fit.json").read_text())
    for _, edit in edits:
        fit = edit(fit)
    event(" + ".join(kind for kind, _ in edits))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # json.dumps writes an infinity as Infinity; 1e999 reads back as one
        (tmp / "fit.json").write_text(
            json.dumps(fit).replace("Infinity", "1e999"))
        out = tmp / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        code, err = _run(["report", "--input",
                          str(fixture_files / "cardia_cohort.csv"), *COLS,
                          "--model", MODEL, "--out", str(out), "--seed", "1",
                          "--draws", "200", "--fit-json",
                          str(tmp / "fit.json")])
        event(f"exit {code}")
        assert code in (0, 3, 4)
        assert err is None if code == 0 else err["exit_code"] == code
        if code == 3:
            assert _snapshot(out) == {"notes.txt": b"kept\n"}
