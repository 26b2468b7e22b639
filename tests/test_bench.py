"""Smoke tests of the benchmark harness: one traced scan20 and one traced
classify round.

The per-layer rows `factorizer.sieve_*.d20` are read from the sieve span
whose max_degree is 20, so they go missing if the scan stops sieving to its
full degree.  The `search.table_rows.*` rows are read from spans the tracer
opens on `search` and `cli` functions by name, so they go missing if one of
those names changes.  `catalog.build_calls` counts the catalog builds per
traced classify round: only `catalog verify` and `catalog export` build one,
every other subcommand reads the shared per-process catalog.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_round(workload: str) -> dict:
    """The metrics of one traced round of the workload, which must succeed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result["metrics"]


def test_traced_scan20_round():
    metrics = _traced_round("scan20")
    assert math.isfinite(metrics["factorizer.sieve_s.d20"]["value"])
    assert metrics["factorizer.sieve_primes.d20"]["value"] == 111013


def test_traced_classify_round():
    metrics = _traced_round("classify")
    rows = {table: metrics[f"search.table_rows.{table}"]["value"] for table in ("x2h", "mersenne", "s")}
    assert rows == {"x2h": 12, "mersenne": 6, "s": 2}
    assert metrics["catalog.build_calls"]["value"] == 2
