"""End-to-end and per-layer benchmark of the `riskdiff` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src`, so
nothing needs installing. One operation is one `python -m riskdiff.cli`
child process, started one at a time (a closed loop with one client) and
timed with `os.wait4`, so the CPU time and peak RSS of `--workers` children
count too. Operations repeat in rounds while the next round, as long as
the median round so far, still ends within `--seconds` (one round at
least); each one's outputs are then checked, outside the timed region,
against values the benchmark computes itself (see checks.py). An operation
fails if it exits non-zero or any check fails.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics: medians over the run's operations of wall time, CPU
time and peak RSS, and the median time to set up the inputs, which is done
once before the operations and again after each one.

With `--trace 1` each round is one plain operation and one traced one,
which runs `cli.main` in-process with spans around its library calls (see
traced_cli.py); `sample_parameters` and `effect_triples_batch`, which the
CLI reaches only inside `effect_distribution`, are then called directly on
the same inputs. The JSON carries the per-layer metrics, the traced
operation's wall time and its overhead against the plain operations. A
layer the workload's operation does not call reads 0.

Every run also writes its operations and metrics to perfbench/results/.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import MAIN, Recorder, count, total
from workloads import WORKLOADS, child_env, cli_args, setup

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# After each round of operations the set-up is repeated for at least this
# long (at least once). setup_s is the median of all of them, so its samples
# span the whole run, as the operations' do, and a millisecond set-up still
# gets many.
SETUP_SECONDS = 0.2


def run_child(argv: list[str], log: Path) -> dict:
    """Run one child to completion; its wall, CPU and peak-RSS figures."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode}


def operation(w, inputs, ref, seed: int, work: Path, k: int,
              traced: bool) -> dict:
    """One CLI operation, then its output checks (untimed)."""
    out = work / f"op{k}"
    spans_path = work / f"op{k}.spans.json"
    argv = ([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)]
            if traced else [sys.executable, "-m", "riskdiff.cli"])
    argv += cli_args(w, inputs, seed, out)
    log = work / f"op{k}.log"
    op = run_child(argv, log)
    op["traced"] = traced
    if op["exit"] != 0:
        op["failures"] = [f"exit {op['exit']}: "
                          + log.read_text(errors="replace")[-2000:]]
    else:
        op["failures"] = checks.check_output(out, ref)
        op["bundle_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        if traced:
            op["spans"] = json.loads(spans_path.read_text())
    shutil.rmtree(out, ignore_errors=True)
    return op


def chunk_size() -> int:
    from riskdiff import effect_distribution

    return inspect.signature(effect_distribution).parameters[
        "chunk_size"].default


def direct_calls(w, ref, seed: int) -> list[dict]:
    """Spans of the layers the CLI reaches only inside effect_distribution."""
    from riskdiff import sample_parameters
    from riskdiff.effects import effect_triples_batch

    rec = Recorder()
    if w.command != "report":
        return rec.spans
    fit, spec, std = (ref.program[k] for k in ("fit", "spec", "std"))
    chunk = chunk_size()
    with rec.span("montecarlo.sample_parameters"):
        pis, _ = sample_parameters(fit, w.draws, seed)
    with rec.span("effects.effect_triples_batch"):
        for start in range(0, w.draws, chunk):
            effect_triples_batch(pis[start:start + chunk], spec, std)
    return rec.spans


def layer_metrics(w, ref, ops, direct) -> dict:
    plain = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"] and "spans" in o]
    if not traced:
        return {}

    def med(f):
        return statistics.median(f(o["spans"]) for o in traced)

    def per(n, t):
        return n / t if t > 0 else 0.0

    load = med(lambda s: total(s, "dataset.load_cohort"))
    ed = med(lambda s: total(s, "montecarlo.effect_distribution"))
    batch = total(direct, "effects.effect_triples_batch")
    report = w.command == "report"
    draws = w.draws if report else 0
    risk_evals = 4 * draws * ref.rows
    main_s = med(lambda s: total(s, MAIN))
    trace_wall = statistics.median(o["wall_s"] for o in traced)
    return {
        "dataset.load_cohort_s": (load, "s"),
        "dataset.rows_per_s": (per(ref.rows, load), "rows/s"),
        "glm.build_design_s": (med(lambda s: total(s, "glm.build_design")),
                               "s"),
        "glm.fit_logistic_s": (med(lambda s: total(s, "glm.fit_logistic")),
                               "s"),
        "glm.newton_iterations": (med(lambda s: count(s, "glm.fit_logistic")),
                                  "count"),
        "montecarlo.sample_parameters_s": (
            total(direct, "montecarlo.sample_parameters"), "s"),
        "montecarlo.effect_distribution_s": (ed, "s"),
        "montecarlo.draws_per_s": (per(draws, ed), "draws/s"),
        "montecarlo.to_csv_s": (med(lambda s: total(s, "montecarlo.to_csv")),
                                "s"),
        "montecarlo.chunk_eta_bytes": (
            min(chunk_size(), draws) * ref.rows * 8 if report else 0,
            "bytes"),
        "effects.effect_triple_s": (
            med(lambda s: total(s, "effects.effect_triple")), "s"),
        "effects.effect_triples_batch_s": (batch, "s"),
        "effects.risk_evals": (risk_evals, "count"),
        "effects.risk_evals_per_s": (per(risk_evals, batch), "evals/s"),
        "inference.summaries_s": (med(lambda s: sum(
            x["end"] - x["start"] for x in s
            if x["name"].startswith("inference."))), "s"),
        "cli.main_s": (main_s, "s"),
        "cli.self_s": (med(lambda s: total(s, MAIN) - sum(
            x["end"] - x["start"] for x in s if x["parent"] == MAIN)), "s"),
        "cli.bundle_bytes": (statistics.median(
            o["bundle_bytes"] for o in traced), "bytes"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.overhead_pct": (100.0 * (trace_wall / statistics.median(
            o["wall_s"] for o in plain) - 1.0), "%"),
    }


def run(w, args, work: Path) -> dict:
    setups = []

    def timed_setup():
        t0 = time.perf_counter()
        inputs = setup(w, args.seed, work / "inputs")
        setups.append(time.perf_counter() - t0)
        return inputs

    inputs = timed_setup()
    ref = checks.build_reference(w, inputs, args.seed)

    ops = []
    rounds = []
    start = time.perf_counter()
    # A run lasts about --seconds whatever one operation takes.
    while not rounds or (time.perf_counter() - start
                         + statistics.median(rounds) <= args.seconds):
        round_start = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            ops.append(operation(w, inputs, ref, args.seed, work, len(ops),
                                 traced))
        if not args.trace:  # a traced run reports no setup_s
            gap = time.perf_counter()
            while time.perf_counter() - gap < SETUP_SECONDS:
                timed_setup()
        rounds.append(time.perf_counter() - round_start)

    if args.trace:
        direct = direct_calls(w, ref, args.seed)
        metrics = layer_metrics(w, ref, ops, direct)
    else:
        direct = []
        metrics = {
            name: (statistics.median(o[name] for o in ops), unit)
            for name, unit in (("wall_s", "s"), ("cpu_s", "s"),
                               ("peak_rss_mb", "MB"))}
        metrics["setup_s"] = (statistics.median(setups), "s")
    failed = sum(1 for o in ops if o["failures"])
    for o in ops:
        for f in o["failures"][:5]:
            print(f"operation failed: {f}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "setup_s": setups,
        "rounds_s": rounds,
        "operations": ops,
        "direct_spans": direct,
    }


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "riskdiff" / "cli.py").is_file():
        print(f"error: no riskdiff sources at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    work = BENCH / "work" / f"{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(w, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": w.name, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment(), **result}, indent=1))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
