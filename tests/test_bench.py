"""Smoke tests of the benchmark harness: untraced scan20, factor-mix and
classify runs as the benchmark runs them, one traced scan20 and one traced
classify round.
The factor-mix run checks `is_irreducible` against the trial division in
`bench/workloads.py` on its degree-16 inputs.

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


def _metrics(workload: str, trace: int) -> dict:
    """The metrics of a shortest run of the workload, which must succeed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_untraced_scan20_run_reports_the_end_to_end_metrics():
    metrics = _metrics("scan20", 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(metrics) == {row["name"] for row in declared}
    for name, row in metrics.items():
        assert math.isfinite(row["value"]) and row["value"] > 0, name


def test_untraced_factor_mix_run():
    _metrics("factor-mix", 0)


def test_untraced_classify_run():
    _metrics("classify", 0)


def test_traced_scan20_round():
    metrics = _metrics("scan20", 1)
    assert math.isfinite(metrics["factorizer.sieve_s.d20"]["value"])
    assert metrics["factorizer.sieve_primes.d20"]["value"] == 111013


def test_traced_classify_round():
    metrics = _metrics("classify", 1)
    rows = {table: metrics[f"search.table_rows.{table}"]["value"] for table in ("x2h", "mersenne", "s")}
    assert rows == {"x2h": 12, "mersenne": 6, "s": 2}
    assert metrics["catalog.build_calls"]["value"] == 2
