"""In-memory spans around calls into the program's layers.

The spans live in the benchmark, around the program's public functions;
the program itself carries no instrumentation. Each span records its name,
start and end (perf_counter seconds), the name of the span that caused it,
and an optional count taken from the call's result.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

#: Names `riskdiff.cli` imports from the library, and the span each call gets.
CLI_CALLS = {
    "load_cohort": "dataset.load_cohort",
    "build_design": "glm.build_design",
    "fit_logistic": "glm.fit_logistic",
    "effect_triple": "effects.effect_triple",
    "effect_distribution": "montecarlo.effect_distribution",
    "marginal_report": "inference.marginal_report",
    "confidence_ellipse": "inference.confidence_ellipse",
    "tercile_report": "inference.tercile_report",
    "histogram_csv": "inference.histogram_csv",
    "ellipse_csv": "inference.ellipse_csv",
}
TO_CSV = "montecarlo.to_csv"
MAIN = "cli.main"


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  "count": None}
        self._open.append(name)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def wrap(self, name: str, fn, count=None):
        """fn with every call inside a span; count(result) fills its count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["count"] = count(result)
            return result
        return traced


def total(spans, name: str) -> float:
    return sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)


def count(spans, name: str) -> int:
    return sum(s["count"] or 0 for s in spans if s["name"] == name)
