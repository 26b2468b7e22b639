"""Smoke test of the benchmark harness: one traced scan20 round.

The per-layer rows `factorizer.sieve_*.d20` are read from the sieve span
whose max_degree is 20, so they go missing if the scan stops sieving to its
full degree.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_scan20_round():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan20", "--seed", "1", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert math.isfinite(metrics["factorizer.sieve_s.d20"]["value"])
    assert metrics["factorizer.sieve_primes.d20"]["value"] == 111013
