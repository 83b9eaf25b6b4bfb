"""Write every riskdiff CLI output on the benchmark's inputs for one seed.

Usage:
    python3 tools/outputs.py --src SRC --seed N --out DIR
    python3 tools/outputs.py --src SRC --parent PARENT_SRC --seed N --out DIR

SRC is a `src` directory holding a `riskdiff` package. Every command runs
that package (`python -m riskdiff.cli` with SRC first on PYTHONPATH),
including the `fixture` run that makes the fixture-draws inputs. The
inputs and operations are those of perfbench/workloads.py for seed N:

- `fixture`, and the inputs of every workload;
- `describe` as text (fixture-draws input) and as `--json` (cohort-rows);
- `fit` on the ingest-fit and cohort-rows inputs;
- `report` on fixture-draws (its 1e5 draws), and on cohort-rows with
  `--workers 1` and `--workers 2`.

Two packages give byte-identical outputs when `diff -r` of their two DIRs
is empty, e.g. a parent commit's and a change's:

    python3 tools/outputs.py --src ../parent/src --seed 1 --out /tmp/a
    python3 tools/outputs.py --src src --seed 1 --out /tmp/b
    diff -r /tmp/a /tmp/b

With --parent, one run does both: it writes PARENT_SRC's outputs to
DIR/parent and SRC's to DIR/change, prints one line for every file that
differs or is on one side only, and exits 1 if there is any. For a CSV or
JSON file of the same layout on both sides, the line gives the largest
absolute difference over its numbers (every number in the CSV lines below
the `#` line, or in the JSON values, strings such as "(-inf, 0.25]"
included) and says whether any integer, such as a histogram count or a
draw index, changed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def cli(argv: list[str], stdout=None) -> None:
    """Run one CLI command on the package at workloads.SRC; it must exit 0."""
    subprocess.run([sys.executable, "-m", "riskdiff.cli", *argv],
                   env=workloads.child_env(), check=True,
                   stdout=stdout or subprocess.DEVNULL)


def write_outputs(src: Path, seed: int, out: Path) -> None:
    """Every CLI output of the package in src for one seed, under out."""
    # setup() runs the `fixture` command through child_env(), which puts
    # workloads.SRC first on PYTHONPATH
    workloads.SRC = src.resolve()
    out = out.resolve()
    cli(["fixture", "--out", str(out / "fixture")])
    inputs = {name: workloads.setup(w, seed, out / "inputs" / name)
              for name, w in workloads.WORKLOADS.items()}

    for name, flag, suffix in (("fixture-draws", [], "txt"),
                               ("cohort-rows", ["--json"], "json")):
        with open(out / f"describe-{name}.{suffix}", "wb") as fh:
            cli(["describe", "--input", str(inputs[name].csv),
                 *inputs[name].column_args(), *flag], stdout=fh)

    runs = [("fit-ingest-fit", "ingest-fit", {}),
            ("fit-cohort-rows", "cohort-rows", {"command": "fit"}),
            ("report-fixture-draws", "fixture-draws", {}),
            ("report-cohort-rows-w1", "cohort-rows", {"workers": 1}),
            ("report-cohort-rows-w2", "cohort-rows", {"workers": 2})]
    for run, name, change in runs:
        w = replace(workloads.WORKLOADS[name], **change)
        cli(workloads.cli_args(w, inputs[name], seed, out / run))
    print(f"wrote the outputs for seed {seed} to {out}")


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under a or b whose bytes differ."""
    files = {p.relative_to(root) for root in (a, b)
             for p in root.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and (a / f).read_bytes() == (b / f).read_bytes()))


#: A number literal that is not part of a word, such as 12, -0.5, 1e-05 or
#: -inf in "(-inf, 0.25]", but not the 1 of "z1".
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
                     r"|inf|nan))(?![\w.])")


def _tokens(text: str) -> list:
    """text split into its number literals, as int or float, and the text
    between them."""
    return [(int(t) if t.lstrip("+-").isdigit() else float(t)) if i % 2
            else t for i, t in enumerate(_NUMBER.split(text))]


def _scalars(v) -> list:
    """Every scalar of a parsed JSON value in document order, with each
    string split by _tokens."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        return [s for x in v for s in _scalars(x)]
    return _tokens(v) if isinstance(v, str) else [v]


def change(a: Path, b: Path) -> str:
    """How the file b differs from a, in one phrase. The numbers in the CSV
    lines below the `#` line, or in the JSON values, are compared in file
    order, and the text around them must match."""
    if not (a.is_file() and b.is_file()):
        return "on one side only"
    if a.suffix not in (".csv", ".json"):
        return "differs (not a CSV or JSON file)"
    values = [_scalars(json.loads(p.read_text())) if p.suffix == ".json"
              else [t for line in p.read_text().splitlines()
                    if not line.startswith("#") for t in _tokens(line)]
              for p in (a, b)]
    if len(values[0]) != len(values[1]):
        return "differs in layout"
    delta, ints = 0.0, False
    for x, y in zip(*values):
        if x == y or x != x and y != y:  # equal, or both NaN
            continue
        if not {type(x), type(y)} <= {int, float}:
            return "differs in layout or text"
        d = abs(x - y)
        delta = max(delta, d if d == d else math.inf)
        ints = ints or int in (type(x), type(y))
    return (f"largest absolute change {delta:.2g}, "
            + ("an integer changed" if ints else "no integer changed"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--parent", type=Path, metavar="PARENT_SRC")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.parent is None:
        write_outputs(args.src, args.seed, args.out)
        return 0
    sides = {"parent": args.parent, "change": args.src}
    for side, src in sides.items():
        write_outputs(src, args.seed, args.out / side)
    diff = differing(*(args.out / side for side in sides))
    for path in diff:
        print(f"{path}: {change(*(args.out / side / path for side in sides))}")
    print(f"seed {args.seed}: {len(diff)} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
