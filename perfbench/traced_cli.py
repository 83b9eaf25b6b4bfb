"""Run `riskdiff.cli.main` in-process with a span around each library call.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Behaves as `python -m riskdiff.cli CLI_ARGS...` and writes the spans to
SPANS_JSON. The library calls are the names `riskdiff.cli` imports, wrapped
in place, plus `EffectDistribution.to_csv`; everything else `cli.main`
does is its self time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import CLI_CALLS, MAIN, TO_CSV, Recorder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from riskdiff import cli  # noqa: E402
from riskdiff.montecarlo import EffectDistribution  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    for attr, name in CLI_CALLS.items():
        count = (lambda fit: fit.iterations) if attr == "fit_logistic" else None
        setattr(cli, attr, rec.wrap(name, getattr(cli, attr), count))
    EffectDistribution.to_csv = rec.wrap(TO_CSV, EffectDistribution.to_csv)
    with rec.span(MAIN):
        code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(rec.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
