"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from riskdiff.cli import main
from riskdiff.dataset import save_cohort
from riskdiff.fixtures import CARDIA_SCHEMA, cardia_cohort, cardia_fit

COLS = ["--outcome-col", "survival",
        "--exposure1-col", "large_hospital",
        "--exposure2-col", "advanced_stage",
        "--covariate-cols", "age,male,urban"]
MODEL = "z1,z2,z1*z2,x1,x2,x3,z1*x1"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Cohort CSV and fixture fit JSON written once for the module."""
    d = tmp_path_factory.mktemp("fixture")
    assert main(["fixture", "--out", str(d)]) == 0
    return d


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDescribe:
    def test_text_table(self, fixture_dir, capsys):
        code, out, _ = run(["describe", "--input",
                            str(fixture_dir / "cardia_cohort.csv"), *COLS],
                           capsys)
        assert code == 0
        assert "23/75" in out

    def test_json_table(self, fixture_dir, capsys):
        code, out, _ = run(["describe", "--input",
                            str(fixture_dir / "cardia_cohort.csv"), *COLS,
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["overall"]["z1=1,z2=1"] == [23, 75]

    def test_missing_column_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("y,z1\n1,0\n")
        code, _, err = run(["describe", "--input", str(p),
                            "--covariate-cols", "x1"], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert payload["errors"][0]["error"] == "MissingColumn"

    def test_byte_order_mark_accepted(self, fixture_dir, tmp_path, capsys):
        plain = fixture_dir / "cardia_cohort.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run(["describe", "--input", str(plain), *COLS], capsys)
        assert expected[0] == 0
        assert run(["describe", "--input", str(bom), *COLS],
                   capsys) == expected

    def test_column_in_two_roles_exit_2(self, fixture_dir, capsys):
        code, out, err = run(["describe", "--input",
                              str(fixture_dir / "cardia_cohort.csv"), *COLS,
                              "--exposure1-col", "survival"], capsys)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert payload["errors"][0]["error"] == "DataError"
        assert "'survival'" in payload["errors"][0]["message"]


class TestFit:
    def test_writes_fit_json(self, fixture_dir, tmp_path, capsys):
        code, _, _ = run(["fit", "--input",
                          str(fixture_dir / "cardia_cohort.csv"), *COLS,
                          "--model", MODEL, "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "fit.json").read_text())
        assert payload["terms"] == ["1", "z1", "z2", "z1*z2",
                                    "x1", "x2", "x3", "z1*x1"]
        assert len(payload["coefficients"]) == 8
        assert len(payload["covariance"]) == 64
        assert payload["converged"] is True
        assert payload["provenance"]["model"] == MODEL

    def test_saturated_synthetic_closed_form(self, tmp_path, capsys):
        rows = ["y,z1,z2,x1"]
        # z1=0: 10/30 events; z1=1: 20/30 events; z2 constant 0 would be
        # collinear with the intercept, so alternate it independently
        for i in range(30):
            rows.append(f"{1 if i < 10 else 0},0,{i % 2},0")
        for i in range(30):
            rows.append(f"{1 if i < 20 else 0},1,{i % 2},0")
        p = tmp_path / "synth.csv"
        p.write_text("\n".join(rows) + "\n")
        code, _, _ = run(["fit", "--input", str(p),
                          "--covariate-cols", "",
                          "--model", "z1,z2", "--out", str(tmp_path)], capsys)
        assert code == 0
        coef = json.loads((tmp_path / "fit.json").read_text())["coefficients"]
        assert coef[1] == pytest.approx(np.log(4.0), abs=1e-5)

    def test_all_events_exit_3(self, tmp_path, capsys):
        p = tmp_path / "sep.csv"
        p.write_text("y,z1,z2\n" + "1,0,0\n1,1,0\n1,0,1\n1,1,1\n" * 5)
        code, _, err = run(["fit", "--input", str(p),
                            "--covariate-cols", "",
                            "--model", "z1,z2", "--out", str(tmp_path)],
                           capsys)
        assert code == 3
        assert json.loads(err)["errors"][0]["error"] == "SeparationDetected"


class TestReport:
    def _base_args(self, fixture_dir, out):
        return ["report",
                "--input", str(fixture_dir / "cardia_cohort.csv"), *COLS,
                "--model", MODEL,
                "--fit-json", str(fixture_dir / "cardia_fit.json"),
                "--out", str(out)]

    def test_bundle_contents(self, fixture_dir, tmp_path, capsys):
        code, _, _ = run(self._base_args(fixture_dir, tmp_path)
                         + ["--seed", "7", "--draws", "500"], capsys)
        assert code == 0
        expected = {"effects.json", "draws.csv",
                    "marginal_te1.json", "marginal_te2.json",
                    "marginal_int.json",
                    "hist_te1.csv", "hist_te2.csv", "hist_int.csv",
                    "ellipse_te1_int.json", "ellipse_te1_int.csv",
                    "ellipse_te2_int.json", "ellipse_te2_int.csv",
                    "terciles_te1.json", "terciles_te2.json"}
        names = {p.name for p in tmp_path.iterdir()}
        assert expected <= names
        assert {f"hist_int_te1_t{i}.csv" for i in (1, 2, 3)} <= names

        effects = json.loads((tmp_path / "effects.json").read_text())
        assert effects["provenance"]["seed"] == 7
        assert effects["provenance"]["n_draws"] == 500
        marg = json.loads((tmp_path / "marginal_int.json").read_text())
        assert marg["point"] == pytest.approx(effects["int"])
        assert marg["level_convention"] == "equal-tail"

        # every CSV self-describes its provenance on a comment line
        header = (tmp_path / "draws.csv").read_text().splitlines()[0]
        meta = json.loads(header.lstrip("# "))
        assert meta["seed"] == 7 and meta["n_draws"] == 500

    def test_seed_required(self, fixture_dir, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(self._base_args(fixture_dir, tmp_path) + ["--draws", "10"])
        capsys.readouterr()

    def test_identical_config_reproduces_draws(self, fixture_dir,
                                               tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--seed", "99", "--draws", "300"]
        assert run(self._base_args(fixture_dir, a) + args, capsys)[0] == 0
        assert run(self._base_args(fixture_dir, b) + args, capsys)[0] == 0
        assert (a / "draws.csv").read_bytes() == (b / "draws.csv").read_bytes()

    def test_single_draw_exit_4_with_marginals_written(self, fixture_dir,
                                                       tmp_path, capsys):
        code, _, err = run(self._base_args(fixture_dir, tmp_path)
                           + ["--seed", "1", "--draws", "1"], capsys)
        assert code == 4
        names = [e["error"] for e in json.loads(err)["errors"]]
        assert "TooFewDraws" in names
        # marginal-stage outputs exist even though the tercile stage failed
        assert (tmp_path / "marginal_int.json").exists()
        assert (tmp_path / "draws.csv").exists()

    def test_fit_json_term_mismatch_exit_3(self, fixture_dir, tmp_path,
                                           capsys):
        args = ["report",
                "--input", str(fixture_dir / "cardia_cohort.csv"), *COLS,
                "--model", "z1,z2",
                "--fit-json", str(fixture_dir / "cardia_fit.json"),
                "--seed", "1", "--out", str(tmp_path)]
        code, _, err = run(args, capsys)
        assert code == 3

    def test_refit_path_without_fixture(self, fixture_dir, tmp_path, capsys):
        args = ["report",
                "--input", str(fixture_dir / "cardia_cohort.csv"), *COLS,
                "--model", MODEL, "--seed", "3", "--draws", "200",
                "--out", str(tmp_path)]
        code, _, _ = run(args, capsys)
        assert code == 0
        assert (tmp_path / "effects.json").exists()


class TestFailurePaths:
    """Each failure exits with its code and JSON on stderr, writing nothing."""

    def _fails(self, argv, out, code, capsys):
        got, _, err = run(argv + ["--out", str(out)], capsys)
        assert got == code
        assert json.loads(err)["exit_code"] == code
        assert not out.exists() or not any(out.iterdir())

    def _report(self, fixture_dir, fit_json=None):
        return ["report",
                "--input", str(fixture_dir / "cardia_cohort.csv"), *COLS,
                "--model", MODEL, "--seed", "1",
                "--fit-json", str(fit_json or fixture_dir / "cardia_fit.json")]

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_unparsable_model_exit_2(self, command, fixture_dir, tmp_path,
                                     capsys):
        argv = [command, "--input", str(fixture_dir / "cardia_cohort.csv"),
                *COLS, "--model", "z1,q9"]
        if command == "report":
            argv += ["--seed", "1"]
        self._fails(argv, tmp_path / "out", 2, capsys)

    @pytest.mark.parametrize("text", [
        "not json",
        '{"terms": ["1", "z1", "z2"]}',
        json.dumps({"terms": ["1", "z1", "z2"], "coefficients": [0.0] * 3,
                    "covariance": [1.0] * 4}),
        json.dumps({"terms": ["1", "z1", "z2"], "coefficients": [0.0] * 3,
                    "covariance": [1.0, 0.5, 0.0, 0.0, 1.0, 0.0,
                                   0.0, 0.0, 1.0]}),
    ], ids=["not-json", "missing-keys", "wrong-shape", "asymmetric"])
    def test_bad_fit_json_exit_3(self, text, fixture_dir, tmp_path, capsys):
        bad = tmp_path / "fit.json"
        bad.write_text(text)
        self._fails(self._report(fixture_dir, bad), tmp_path / "out", 3,
                    capsys)

    def test_non_finite_fit_json_exit_3(self, fixture_dir, tmp_path, capsys):
        d = json.loads((fixture_dir / "cardia_fit.json").read_text())
        d["covariance"][9] = float("nan")
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(d))
        self._fails(self._report(fixture_dir, bad), tmp_path / "out", 3,
                    capsys)

    def test_zero_draws_exit_4(self, fixture_dir, tmp_path, capsys):
        self._fails(self._report(fixture_dir) + ["--draws", "0"],
                    tmp_path / "out", 4, capsys)

    def test_alpha_out_of_range_exit_4(self, fixture_dir, tmp_path, capsys):
        self._fails(self._report(fixture_dir) + ["--alpha", "1.5"],
                    tmp_path / "out", 4, capsys)


class TestFixtureCommand:
    def test_outputs_round_trip(self, fixture_dir):
        from riskdiff.dataset import load_cohort
        from riskdiff.glm import FitResult
        cohort = load_cohort(fixture_dir / "cardia_cohort.csv", CARDIA_SCHEMA)
        assert cohort == cardia_cohort()
        fit = FitResult.from_json(
            (fixture_dir / "cardia_fit.json").read_text())
        ref = cardia_fit()
        assert np.array_equal(fit.pi_hat, ref.pi_hat)
        assert np.array_equal(fit.sigma_hat, ref.sigma_hat)


class TestVersionProvenance:
    def test_outputs_carry_version(self, fixture_dir, tmp_path, capsys):
        code, _, _ = run(["report",
                          "--input", str(fixture_dir / "cardia_cohort.csv"),
                          *COLS, "--model", MODEL,
                          "--fit-json", str(fixture_dir / "cardia_fit.json"),
                          "--seed", "5", "--draws", "100",
                          "--out", str(tmp_path)], capsys)
        assert code == 0
        payload = json.loads((tmp_path / "effects.json").read_text())
        assert payload["provenance"]["version"].startswith("riskdiff ")


class TestUnreadableInput:
    """An --input that cannot be opened or decoded exits 2, writing nothing."""

    @pytest.fixture(params=["missing", "non-utf8"])
    def bad_input(self, request, tmp_path):
        p = tmp_path / "cohort.csv"
        if request.param == "non-utf8":
            p.write_bytes(b"survival,large_hospital\n\xff\xfe,1\n")
        return p

    @pytest.mark.parametrize("command", ["describe", "fit", "report"])
    def test_exit_2(self, command, bad_input, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, "--input", str(bad_input), *COLS]
        if command != "describe":
            argv += ["--model", MODEL, "--out", str(out)]
        if command == "report":
            argv += ["--seed", "1"]
        code, stdout, err = run(argv, capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert payload["errors"][0]["error"] == "DataError"
        assert str(bad_input) in payload["errors"][0]["message"]
        assert stdout == ""
        assert not out.exists() or not any(out.iterdir())


class TestNonFiniteCovariate:
    """An infinite covariate cell exits 2 naming its row, column and value."""

    @pytest.mark.parametrize("command", ["describe", "fit", "report"])
    def test_exit_2(self, command, fixture_dir, tmp_path, capsys):
        lines = (fixture_dir / "cardia_cohort.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[3] = "inf"  # age
        lines[4] = ",".join(cells)
        p = tmp_path / "cohort.csv"
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [command, "--input", str(p), *COLS]
        if command != "describe":
            argv += ["--model", MODEL, "--out", str(out)]
        if command == "report":
            argv += ["--seed", "1", "--fit-json",
                     str(fixture_dir / "cardia_fit.json")]
        code, stdout, err = run(argv, capsys)
        assert (code, stdout) == (2, "")
        error = json.loads(err)["errors"][0]
        assert error["error"] == "NonFiniteValue"
        assert error["message"] == \
            "column 'age' must be finite but row 4 has 'inf'"
        assert not out.exists()


class TestTiedTerciles:
    def test_zero_covariance_exit_4_with_one_json_object(self, fixture_dir,
                                                         tmp_path, capsys):
        d = json.loads((fixture_dir / "cardia_fit.json").read_text())
        d["covariance"] = [0.0] * len(d["covariance"])
        fit_json = tmp_path / "fit.json"
        fit_json.write_text(json.dumps(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["report",
                                "--input",
                                str(fixture_dir / "cardia_cohort.csv"),
                                *COLS, "--model", MODEL,
                                "--fit-json", str(fit_json),
                                "--seed", "1", "--draws", "40",
                                "--out", str(tmp_path / "out")], capsys)
        assert code == 4
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["exit_code"] == 4
        names = {e["error"] for e in payload["errors"]}
        assert names == {"DegenerateCloud", "EmptySamples"}


class TestLazyScipy:
    """The package imports no scipy: normal quantiles, the Cholesky factor
    and chi-square tails are numpy and libm, so no command pays for it."""

    def test_import_and_fixture_leave_scipy_unloaded(self, tmp_path):
        code = ("import sys, riskdiff.cli as cli; "
                "assert 'scipy' not in sys.modules, 'import'; "
                f"assert cli.main(['fixture', '--out', {str(tmp_path)!r}]) "
                "== 0; "
                "assert 'scipy' not in sys.modules, 'fixture'")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True)
        assert (tmp_path / "cardia_cohort.csv").exists()

    @pytest.mark.parametrize("command", [
        ["describe"],
        ["fit", "--model", MODEL],
        ["report", "--model", MODEL, "--seed", "3", "--draws", "5000",
         "--workers", "1"],
        # 5000 draws make two chunks, so two workers start a pool
        ["report", "--model", MODEL, "--seed", "3", "--draws", "5000",
         "--workers", "2"],
    ], ids=["describe", "fit", "report-workers-1", "report-workers-2"])
    def test_commands_leave_scipy_unloaded(self, tmp_path, command):
        argv = [command[0], "--input", str(tmp_path / "cardia_cohort.csv"),
                *COLS, *command[1:]]
        if command[0] != "describe":
            argv += ["--out", str(tmp_path / "out")]
        code = ("import sys, riskdiff.cli as cli; "
                f"assert cli.main(['fixture', '--out', {str(tmp_path)!r}]) "
                "== 0; "
                f"assert cli.main({argv!r}) == 0; "
                "assert 'scipy' not in sys.modules, sorted(sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True)
        if command[0] == "report":
            draws = (tmp_path / "out" / "draws.csv").read_text()
            assert draws.splitlines()[-1].startswith("4999,")


class TestTracedBenchmarkNames:
    """perfbench/traced_cli.py wraps these attributes; they must exist."""

    def test_cli_calls_are_callable(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        from riskdiff import cli
        from riskdiff.montecarlo import EffectDistribution
        missing = [name for name in spans.CLI_CALLS
                   if not callable(getattr(cli, name, None))]
        assert missing == []
        assert callable(EffectDistribution.to_csv)
