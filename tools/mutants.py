"""Statement-deletion mutation scan of src/riskdiff (DeMillo, Lipton &
Sayward, 1978, "Hints on test data selection").

Usage:
    python3 tools/mutants.py [--workers N]

A site is a statement in a function body of src/riskdiff/*.py, other than
a raise, a return, a nested def or a docstring; each mutant replaces one
site with `pass`. The checkout is never edited: src/, tests/, tools/,
perfbench/ and pyproject.toml are copied into one temporary directory
per worker (N, 2 by default, at most the CPU count).

Pass 1 runs the mutated module's test files (TESTS) and
tests/test_outputs.py with `pytest -x`; pass 2 reruns its survivors on the
whole suite and prints `module:line source` for each one left. A run that
fails or exceeds TIMEOUT seconds kills its mutant.
"""

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
TIMEOUT = 400
TESTS = {
    "cli": ["test_cli", "test_cli_contract", "test_package"],
    "dataset": ["test_dataset", "test_fixtures", "test_cli"],
    "effects": ["test_effects", "test_accuracy", "test_invariance",
                "test_inference"],
    "glm": ["test_glm", "test_guards", "test_invariance"],
    "inference": ["test_inference", "test_cli"],
    "montecarlo": ["test_montecarlo", "test_effects"],
    "fixtures": ["test_fixtures"],
    "errors": ["test_dataset", "test_guards", "test_cli"],
}


def sites(source: str) -> list[ast.stmt]:
    """The statements a mutant may replace, in source order."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, defs[:2]):
            doc = fn.body[0] if ast.get_docstring(fn) is not None else None
            for node in ast.walk(fn):
                if (isinstance(node, ast.stmt) and node is not doc and not
                        isinstance(node, (ast.Raise, ast.Return, *defs))):
                    found[node.lineno, node.col_offset] = node
    return [found[key] for key in sorted(found)]


def mutate(lines: list[str], node: ast.stmt) -> str:
    """The source with node replaced by `pass`, line numbers kept."""
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset] + "pass"
    out = lines[:first] + [head + lines[last][node.end_col_offset:]]
    return "".join(out + ["\n"] * (last - first) + lines[last + 1:])


def scan(mutants, copies: queue.Queue, workers: int, full: bool) -> list:
    """The mutants (module, node, text) whose tests pass: the whole suite
    if full, else their module's test files (a timeout is a failure)."""
    def survives(mutant):
        module, _, text = mutant
        copy = copies.get()
        path = copy / "src" / "riskdiff" / f"{module}.py"
        original = path.read_text()
        targets = ["tests"] if full else [
            f"tests/{t}.py" for t in [*TESTS[module], "test_outputs"]]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        try:
            path.write_text(text)
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p",
                 "no:cacheprovider", *targets], cwd=copy, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT).returncode == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            path.write_text(original)
            copies.put(copy)

    with ThreadPoolExecutor(workers) as pool:
        return [m for m, s in zip(mutants, pool.map(survives, mutants)) if s]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=2)
    workers = max(1, min(parser.parse_args().workers, os.cpu_count() or 1))
    mutants = []
    for path in sorted((ROOT / "src" / "riskdiff").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines(keepends=True)
        if path.stem in TESTS:
            mutants += [(path.stem, n, mutate(lines, n)) for n in sites(source)]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies = queue.Queue()
        for w in range(workers):
            copy = Path(scratch) / f"worker{w}"
            for name in COPIED:
                (shutil.copytree if (ROOT / name).is_dir() else shutil.copy2)(
                    ROOT / name, copy / name)
            copies.put(copy)
        left = scan(mutants, copies, workers, full=False)
        print(f"{len(mutants)} sites, {len(left)} survive pass 1", flush=True)
        left = scan(left, copies, workers, full=True)
    print(f"{len(left)} survive pass 2")
    for module, node, _ in left:
        print(f"{module}:{node.lineno} {ast.unparse(node).splitlines()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
