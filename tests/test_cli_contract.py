"""Property test of the CLI exit-code contract under perturbed inputs.

Whatever the cohort, model, draw count, alpha or fit file, `riskdiff` exits
0, 2, 3 or 4. Exit 0 writes nothing to stderr; every other exit writes
exactly one JSON object naming that code. Data and fit errors, and the
up-front --draws/--alpha checks, write no output file. An output directory
or file that cannot be written exits 2 as a DataError naming its path.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from riskdiff import cli
from riskdiff.cli import main
from riskdiff.dataset import save_cohort
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
    return {
        "fixture": json.dumps(good),
        "zero-covariance": json.dumps(zero),
        "not-json": "not json",
        "missing-keys": json.dumps({"terms": good["terms"]}),
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
edits = st.tuples(st.sampled_from([None, None, None, "", "2", "abc", "drop"]),
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
