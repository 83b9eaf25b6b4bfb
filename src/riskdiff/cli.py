"""Command-line driver: describe, fit, and the full Monte Carlo report.

Exit codes: 0 success, 2 data error, 3 fit error, 4 inference error. Every
failure writes one machine-readable JSON object to stderr. The report
command requires an explicit --seed so published runs stay reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import ColumnSchema, describe, load_cohort, save_cohort
from .effects import StandardizationSet, effect_triple
from .errors import (DataError, FitError, InferenceError, RiskdiffError,
                     TooFewDraws)
from .fixtures import CARDIA_SCHEMA, cardia_cohort, cardia_fit
from .glm import FitResult, ModelSpec, build_design, fit_logistic
from .inference import (
    confidence_ellipse,
    ellipse_csv,
    histogram_csv,
    marginal_report,
    tercile_masks,
    tercile_report,
)
from .montecarlo import DEFAULT_N_DRAWS, effect_distribution

EXIT_CODES = ((DataError, 2), (FitError, 3), (InferenceError, 4))


class _Collected(InferenceError):
    """The report's inference-stage errors, reported together in args."""


def _error_json(code, errors):
    payload = {
        "exit_code": code,
        "errors": [
            {"error": type(e).__name__, "message": str(e)} for e in errors
        ],
    }
    print(json.dumps(payload), file=sys.stderr)
    return code


def _schema_from_args(args) -> ColumnSchema:
    return ColumnSchema(
        outcome=args.outcome_col,
        exposure1=args.exposure1_col,
        exposure2=args.exposure2_col,
        covariates=tuple(c.strip() for c in args.covariate_cols.split(",")
                         if c.strip()),
    )


def _add_input_args(p):
    p.add_argument("--input", required=True, help="cohort CSV path")
    p.add_argument("--outcome-col", default="y")
    p.add_argument("--exposure1-col", default="z1")
    p.add_argument("--exposure2-col", default="z2")
    p.add_argument("--covariate-cols", required=True,
                   help="comma list of covariate column names, in order")


def _provenance(args, extra=None):
    meta = {
        "version": f"riskdiff {__version__}",
        "model": args.model,
    }
    if extra:
        meta.update(extra)
    return meta


def _inputs(args):
    """The parsed --model, the loaded --input and then the --out directory."""
    try:
        spec = ModelSpec.parse(args.model)
    except ValueError as e:
        raise DataError(str(e)) from None
    return (spec, load_cohort(args.input, _schema_from_args(args)),
            _out_dir(args.out))


def _fit(spec, cohort, fit_json=None) -> FitResult:
    """The fit read from fit_json if one is given, else a fresh cohort fit."""
    if not fit_json:
        return fit_logistic(build_design(cohort, spec), cohort.y,
                            term_names=spec.names)
    try:
        fit = FitResult.from_json(Path(fit_json).read_text())
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise FitError(f"cannot use --fit-json {fit_json}: "
                       f"{type(e).__name__}: {e}") from None
    if tuple(fit.term_names) != spec.names:
        raise FitError(f"fit terms {fit.term_names} do not match --model "
                       f"{spec.names}")
    return fit


def _os_call(action, fn, *args, **kwargs):
    """fn(*args, **kwargs); an OSError becomes DataError "cannot <action>"."""
    try:
        return fn(*args, **kwargs)
    except OSError as e:
        raise DataError(f"cannot {action}: {type(e).__name__}: {e}") from None


def _out_dir(path) -> Path:
    """The --out directory, created with its parents if missing."""
    out = Path(path)
    _os_call(f"create --out {path}", out.mkdir, parents=True, exist_ok=True)
    return out


def _write_text(path, text):
    _os_call(f"write {path}", path.write_text, text)


def cmd_describe(args) -> int:
    table = describe(load_cohort(args.input, _schema_from_args(args)))
    if args.json:
        print(table.to_json())
    else:
        print(table.to_text())
    return 0


def cmd_fit(args) -> int:
    spec, cohort, out = _inputs(args)
    fit = _fit(spec, cohort)
    payload = json.loads(fit.to_json())
    payload["provenance"] = _provenance(args)
    _write_text(out / "fit.json", json.dumps(payload, indent=2))
    print(f"wrote {out / 'fit.json'}")
    return 0


def cmd_report(args) -> int:
    if args.draws < 1:
        raise TooFewDraws(f"--draws must be at least 1, got {args.draws}")
    if not 0.0 < args.alpha < 1.0:
        raise InferenceError(f"--alpha must lie in (0, 1), got {args.alpha}")
    spec, cohort, out = _inputs(args)
    fit = _fit(spec, cohort, args.fit_json)
    std = StandardizationSet.from_cohort(cohort)
    plug = effect_triple(fit.pi_hat, spec, std)
    dist = effect_distribution(fit, spec, std, n_draws=args.draws,
                               seed=args.seed,
                               allow_jitter=args.allow_jitter,
                               workers=args.workers)
    meta = _provenance(args, {
        "seed": args.seed, "n_draws": args.draws, "alpha": args.alpha,
        "jitter": dist.jitter, "source_hash": dist.source_hash,
    })

    def write_json(name, payload):
        _write_text(out / name, json.dumps({"provenance": meta, **payload},
                                           indent=2))

    def write_text(name, text):
        _write_text(out / name, "# " + json.dumps(meta) + "\n" + text)

    points = {"te1": plug.te1, "te2": plug.te2, "int": plug.int_}
    write_json("effects.json", points)
    write_text("draws.csv", dist.to_csv())

    errors = []
    for which, point in points.items():
        write_json(f"marginal_{which}.json",
                   marginal_report(dist, which, point).to_dict())
        write_text(f"hist_{which}.csv", histogram_csv(dist.component(which)))
    for which in ("te1", "te2"):
        try:
            ell = confidence_ellipse(
                np.column_stack([dist.component(which), dist.int_]),
                args.alpha)
            write_json(f"ellipse_{which}_int.json", ell.to_dict())
            write_text(f"ellipse_{which}_int.csv", ellipse_csv(ell))
        except InferenceError as e:
            errors.append(e)
        try:
            rep = tercile_report(dist, which)
            write_json(f"terciles_{which}.json", rep.to_dict())
            masks = tercile_masks(dist.component(which), rep.boundaries)
            for i, mask in enumerate(masks, start=1):
                write_text(f"hist_int_{which}_t{i}.csv",
                           histogram_csv(dist.int_[mask]))
        except InferenceError as e:
            errors.append(e)
    if errors:
        raise _Collected(*errors)
    print(f"wrote report bundle to {out}")
    return 0


def cmd_fixture(args) -> int:
    """Write the bundled cohort reconstruction and its fixture fit to disk."""
    out = _out_dir(args.out)
    _os_call(f"write {out / 'cardia_cohort.csv'}", save_cohort,
             cardia_cohort(), out / "cardia_cohort.csv", CARDIA_SCHEMA)
    _write_text(out / "cardia_fit.json", cardia_fit().to_json())
    print(f"wrote {out / 'cardia_cohort.csv'} and {out / 'cardia_fit.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskdiff",
        description="Standardized risk differences and additive interaction "
                    "from a logistic model, with Monte Carlo interval "
                    "estimates.")
    parser.add_argument("--version", action="version",
                        version=f"riskdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive events/totals table")
    _add_input_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of aligned text")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("fit", help="fit the logistic model, write fit.json")
    _add_input_args(p)
    p.add_argument("--model", required=True,
                   help='comma list of terms, e.g. "z1,z2,z1*z2,x1,x2,x3,z1*x1"')
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="full Monte Carlo report bundle")
    _add_input_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--fit-json", default=None,
                   help="use this FitResult instead of refitting the cohort")
    p.add_argument("--draws", type=int, default=DEFAULT_N_DRAWS)
    p.add_argument("--seed", type=int, required=True,
                   help="RNG seed (required: no silent entropy)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--allow-jitter", action="store_true",
                   help="permit the smallest diagonal jitter that makes a "
                        "non-positive-definite covariance factorable")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fixture",
                       help="write the bundled cohort reconstruction and fit")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fixture)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiskdiffError as e:
        code = next(code for cls, code in EXIT_CODES if isinstance(e, cls))
        return _error_json(code, e.args if isinstance(e, _Collected) else [e])


if __name__ == "__main__":
    sys.exit(main())
