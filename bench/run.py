"""Run one gf2sigma benchmark workload and print its metrics.

    python3 bench/run.py --workload {scan20,factor-mix,classify} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports the library from
`src/` and refuses to run without it.  Human-readable lines go to stderr; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json, with `--trace 1` the per-layer ones.  A record of the run
(seed, machine, sample counts, percentiles, measured wall times, and the
per-workload metric names of bench/README.md) and, for a traced run, the
spans are written under `.bench_build/gf2sigma/`.  See bench/README.md for
what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from clock import REF_SECONDS, Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "gf2sigma"
WORKLOADS = ("scan20", "factor-mix", "classify")
MIN_ROUNDS = 3  # timed rounds per untraced run, however long they take
MIN_TRACED_ROUNDS = 2  # rounds, each run untraced and traced, in a traced run
SETUP_RUNS = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

# Runs in a fresh interpreter: what every CLI call pays before it works.  The
# reference loop runs last, so that its imports do not shorten the timed ones.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import gf2sigma.cli
t1 = time.perf_counter()
gf2sigma.cli.build_catalog()
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from clock import reference_seconds
print(min(reference_seconds() for _ in range(3)), t1 - t0, t2 - t1)
"""


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup() -> list[tuple[float, float, float]]:
    """(reference loop, import, first build_catalog) seconds per fresh child.

    One untimed child first writes the bytecode caches, which users do not
    pay on every call.
    """
    out = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH)],
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            ref, imp, build = map(float, proc.stdout.split())
            out.append((ref, imp, build))
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest ladder percentile with >= 10 samples beyond.

    Below 20 samples not even the median has ten beyond it; the tail then
    falls back to the median rather than to the noisy maximum of a few.
    """
    s = sorted(values)
    n = len(s)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return s[rank - 1], p
    return median(s), 50.0


def make_client(name: str, seed: int, clock, tracer=None):
    from workloads import Classify, FactorMix, Scan20

    if name == "scan20":
        return Scan20(clock)
    if name == "factor-mix":
        return FactorMix(seed, clock, tracer)
    return Classify(OUT, clock)


def run_round(client, i: int, clock):
    """One round, with each op's time at reference speed filled in."""
    ops = client.round(i)
    clock.sample()
    for op in ops:
        op.reported = op.seconds * clock.scale(op.start, op.start + op.seconds)
    return ops


def run_rounds(client, seconds: float, clock, tracer=None):
    """Closed loop: rounds until `seconds` have passed and enough were run.

    With a tracer, each round runs twice on the same inputs, untraced and
    traced, in alternating order because a repeat runs a little faster; the
    pairs give the tracing overhead.
    Returns (untraced rounds, traced rounds, warm-up ops).
    """
    def traced_round(i):
        with tracer.installed(), tracer.span("round", workload=client.name):
            traced.append(run_round(client, i, clock))

    warm = run_round(client, 0, clock) if client.warmup else []
    plain, traced = [], []
    i = 1
    start = perf_counter()
    while len(plain) < (MIN_TRACED_ROUNDS if tracer else MIN_ROUNDS) or perf_counter() - start < seconds:
        if tracer and i % 2:
            traced_round(i)
        plain.append(run_round(client, i, clock))
        if tracer and not i % 2:
            traced_round(i)
        i += 1
    return plain, traced, warm


def round_seconds(rounds, attr: str = "reported") -> list[float]:
    return [sum(getattr(op, attr) for op in r if op.gated) for r in rounds]


def end_to_end(rounds, setup, attr: str = "reported") -> tuple[dict, float]:
    """The end-to-end metrics, and the tail percentile they used.

    attr "reported" gives the reported times, "seconds" the measured ones.
    """
    lat = [getattr(op, attr) for r in rounds for op in r if op.gated]
    tail_s, pct = tail(lat)
    scaled = attr == "reported"
    metrics = {
        "setup_s": (median((imp + build) * (REF_SECONDS / ref if scaled else 1.0)
                           for ref, imp, build in setup), "s"),
        "round_s": (median(round_seconds(rounds, attr)), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "p50_ms": (median(lat) * 1e3, "ms"),
        "tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def workload_names(workload: str, rounds, metrics) -> dict:
    """The same numbers under the per-workload names the benchmark notes use."""
    def by_kind(kind, attr="reported"):
        return [getattr(op, attr) for r in rounds for op in r if op.kind == kind]

    v = {k: val for k, (val, _) in metrics.items()}
    if workload == "scan20":
        return {"scan_s": median(by_kind("serial")), "scan_w2_s": median(by_kind("workers2")),
                "scan_w2_measured_s": median(by_kind("workers2", "seconds"))}
    if workload == "factor-mix":
        out = {"factor_per_s": v["ops_per_s"], "factor_p50_ms": v["p50_ms"],
               "factor_tail_ms": v["tail_ms"]}
        for kind in ("random", "smooth"):
            out[f"factor_p50_ms.{kind}"] = median(by_kind(f"factor.{kind}")) * 1e3
        return out
    return {"classify_round_s": v["round_s"], "cli_p50_ms": v["p50_ms"], "cli_tail_ms": v["tail_ms"]}


def traced_run(workload: str, seed: int, seconds: float, setup, clock):
    """Per-layer metrics: the selected workload, plus one round of the others.

    The selected workload runs each round untraced and traced for
    `seconds`; one traced round of each other workload follows, so every
    layer metric is measured in every traced run.  Layer times are measured
    wall times; the trace.* rounds are at reference speed.
    """
    from tracing import Tracer, kernel_rows, layer_metrics

    tracer = Tracer()
    metrics = kernel_rows(seed)
    plain, traced, warm = run_rounds(make_client(workload, seed, clock, tracer), seconds, clock, tracer)
    ops = warm + [op for r in plain + traced for op in r]
    for other in WORKLOADS:
        if other != workload:
            client = make_client(other, seed, clock, tracer)
            with tracer.installed(), tracer.span("round", workload=other):
                ops += client.round(1)
    metrics.update(layer_metrics(tracer.spans))
    metrics["cli.import_s"] = (median(imp for _, imp, _ in setup), "s")
    untraced, with_trace = median(round_seconds(plain)), median(round_seconds(traced))
    metrics["trace.untraced_round_s"] = (untraced, "s")
    metrics["trace.traced_round_s"] = (with_trace, "s")
    metrics["trace.overhead_share"] = (with_trace / untraced - 1, "1")
    note = {"untraced_rounds": len(plain), "traced_rounds": len(traced), "spans": len(tracer.spans)}
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "attrs"],
                                      "spans": tracer.spans}))
    note["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, ops, note


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gf2sigma" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'gf2sigma'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gf2sigma

    if not Path(gf2sigma.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported gf2sigma from {gf2sigma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "commit": git_commit(),
        "loadavg_at_start": load_at_start,
    }
    setup = measure_setup()
    clock = Clock()
    if args.trace:
        metrics, ops, note = traced_run(args.workload, args.seed, args.seconds, setup, clock)
    else:
        plain, _, warm = run_rounds(make_client(args.workload, args.seed, clock), args.seconds, clock)
        metrics, pct = end_to_end(plain, setup)
        measured, _ = end_to_end(plain, setup, "seconds")
        note = {"rounds": len(plain), "ops": sum(map(len, plain)), "tail_percentile": pct,
                "setup_children": len(setup),
                "workload_metrics": workload_names(args.workload, plain, metrics),
                "measured_metrics": {k: v for k, (v, _) in measured.items()}}
        ops = warm + [op for r in plain for op in r]
    note["reference_loop_s"] = median(clock.ref_seconds)
    failed = sum(not op.ok for op in ops)
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: no measurement for {bad}", file=sys.stderr)
        return 1
    note["failed_ratio"] = failed / len(ops)
    record.update(note)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for key in ("workload", "seed", "nproc", "python", "commit", "loadavg_at_start"):
        print(f"{key}: {record[key]}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k}: {v:.6g} {u}", file=sys.stderr)
    for k, v in note.items():
        print(f"{k}: {v}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
