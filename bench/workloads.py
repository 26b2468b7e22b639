"""The three benchmark workloads: seeded inputs, one round each, output checks.

A workload is a closed loop with one client: `round(i)` runs the i-th round
and returns one `Op` per library call the client waited on.  Only the call
itself is timed, by the `clock.Clock` passed in; input generation and the
checks run outside the timer.

The checks lean on code that is independent of the library wherever that is
cheap: the carry-less arithmetic and the small irreducible table below are
written here, so a factorization is re-multiplied without `gf2sigma`.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import gf2sigma.cli as cli
import gf2sigma.factorizer as factorizer
import gf2sigma.search as search
from gf2sigma.factorizer import _is_irreducible_mask  # checks only; never wrapped
from gf2sigma.gf2poly import Poly

# the package re-exports the function sigma under the submodule's name
sigma_mod = importlib.import_module("gf2sigma.sigma")

# The 14 perfect polynomials of degree <= 20: the three trivial
# x^(2^n-1) (x+1)^(2^n-1) and T_1..T_11, sorted by (degree, mask).
EXPECTED_PERFECT_20 = (
    0x6, 0x24, 0x36, 0x78, 0x9A6, 0xA50, 0xC48, 0xEC4,
    0x7F80, 0xA140, 0xCD98, 0x10670, 0x10C1C0, 0x11AB10,
)
T_HEX = ("0x24", "0x36", "0xa50", "0xc48", "0x10670", "0xa140",
         "0xcd98", "0x11ab10", "0x10c1c0", "0xec4", "0x9a6")  # T_1..T_11
THEOREM_COUNTS = (10944, 2159, 10)
TABLE_ROWS = {"x2h": 12, "mersenne": 6, "s": 2}
SCAN_WORKERS = 2  # the pass whose extra processes the benchmark allows

FACTOR_DEGREES = (16, 32, 64, 128, 256, 512)
SMOOTH_MAX_DEGREE = 12


@dataclass
class Op:
    """One library call the client waited on."""

    kind: str  # what the call was, e.g. "serial", "factor.random", "cli.tables"
    start: float
    seconds: float  # measured wall time
    ok: bool
    reported: float = 0.0  # seconds as reported, filled in after the round
    gated: bool = True  # counted in the end-to-end metrics; checked either way


def report_failure(what: str, detail) -> None:
    if isinstance(detail, BaseException):
        detail = "".join(traceback.format_exception(detail))
    print(f"check failed: {what[:120]}: {str(detail)[-2000:]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# independent GF(2)[x] helpers for the checks
# ---------------------------------------------------------------------------


def clmul(a: int, b: int) -> int:
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def clpow(a: int, e: int) -> int:
    out = 1
    for _ in range(e):
        out = clmul(out, a)
    return out


def clmod(a: int, b: int) -> int:
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def small_irreducibles(max_degree: int) -> list[int]:
    """Irreducible masks of degree 1..max_degree by trial division."""
    primes: list[int] = []
    for m in range(2, 1 << (max_degree + 1)):
        d = m.bit_length() - 1
        if all(clmod(m, p) for p in primes if 2 * (p.bit_length() - 1) <= d):
            primes.append(m)
    return primes


# ---------------------------------------------------------------------------
# scan20
# ---------------------------------------------------------------------------


class Scan20:
    """exhaustive_scan(20) serially, then with two workers; no random inputs.

    Both passes are checked, timed and recorded, but only the serial pass
    counts in the end-to-end metrics: the 2-worker pass spreads too much
    from call to call to be held to a bound (see bench/README.md).
    """

    name = "scan20"
    warmup = False

    def __init__(self, clock):
        self.clock = clock

    def round(self, i: int) -> list[Op]:
        ops = []
        for kind, workers in (("serial", 1), ("workers2", SCAN_WORKERS)):
            t0, dt, found, err = self.clock.timed(
                lambda: search.exhaustive_scan(20, workers=workers), sampled=True)
            ok = err is None and [p.mask for p in found] == list(EXPECTED_PERFECT_20)
            if not ok:
                report_failure(f"scan20 {kind}", err or found)
            ops.append(Op(kind, t0, dt, ok, gated=workers == 1))
        return ops


# ---------------------------------------------------------------------------
# factor-mix
# ---------------------------------------------------------------------------


class FactorMix:
    """factor, is_irreducible and sigma on seeded random and smooth inputs.

    Every round has the same shape: for each degree in FACTOR_DEGREES, one
    uniformly random monic input and one product of random irreducibles of
    degree <= 12, each put through factor, is_irreducible and sigma.  Round
    i draws fresh polynomials from (seed, i), so a run covers many inputs.
    """

    name = "factor-mix"
    warmup = True

    def __init__(self, seed: int, clock, tracer=None):
        self.seed = seed
        self.clock = clock
        self.tracer = tracer
        self.small = small_irreducibles(SMOOTH_MAX_DEGREE)
        self.small_set = set(self.small)
        self.by_degree: dict[int, list[int]] = {}
        for p in self.small:
            self.by_degree.setdefault(p.bit_length() - 1, []).append(p)
        self._irreducible_cache: dict[int, bool] = {}

    def inputs(self, i: int):
        """Yield (kind, degree, mask, known factorization or None)."""
        rng = random.Random(f"factor-mix:{self.seed}:{i}")
        for d in FACTOR_DEGREES:
            yield "random", d, (1 << d) | rng.getrandbits(d), None
            counts: dict[int, int] = {}
            rem = d
            while rem:
                k = rng.randint(1, min(SMOOTH_MAX_DEGREE, rem))
                q = rng.choice(self.by_degree[k])
                counts[q] = counts.get(q, 0) + 1
                rem -= k
            m = 1
            for q, e in counts.items():
                m = clmul(m, clpow(q, e))
            yield "smooth", d, m, sorted(counts.items())

    def is_irreducible(self, q: int) -> bool:
        if q.bit_length() - 1 <= 2 * SMOOTH_MAX_DEGREE:
            # a composite of degree <= 24 has a factor of degree <= 12
            return q in self.small_set or all(
                clmod(q, p) for p in self.small if 2 * (p.bit_length() - 1) <= q.bit_length() - 1
            )
        if q not in self._irreducible_cache:
            self._irreducible_cache[q] = _is_irreducible_mask(q)
        return self._irreducible_cache[q]

    def check_factorization(self, m: int, pairs, known) -> bool:
        masks = [q for q, _ in pairs]
        if any(e < 1 for _, e in pairs) or masks != sorted(set(masks)):
            return False
        prod = 1
        for q, e in pairs:
            prod = clmul(prod, clpow(q, e))
        if prod != m:
            return False
        if known is not None:
            return pairs == known
        return all(self.is_irreducible(q) for q in masks)

    def _tag(self, kind: str):
        return self.tracer.tagged(kind) if self.tracer else contextlib.nullcontext()

    def round(self, i: int) -> list[Op]:
        ops = []
        for kind, d, m, known in self.inputs(i):
            p = Poly(m)
            with self._tag(kind):
                t0, dt, fac, err = self.clock.timed(lambda: factorizer.factor(p))
            pairs = None if err else [(q.mask, e) for q, e in fac]
            ok = pairs is not None and self.check_factorization(m, pairs, known)
            if not ok:
                report_failure(f"factor {kind} d{d} {m:#x}", err or pairs)
            ops.append(Op(f"factor.{kind}", t0, dt, ok))
            reference = pairs if ok else known

            with self._tag(kind):
                t0, dt, irr, err = self.clock.timed(lambda: factorizer.is_irreducible(p))
            expected = None if reference is None else reference == [(m, 1)]
            ok = err is None and expected is not None and irr is expected
            if not ok:
                report_failure(f"is_irreducible {kind} d{d} {m:#x}", err or irr)
            ops.append(Op(f"is_irreducible.{kind}", t0, dt, ok))

            with self._tag(kind):
                t0, dt, sv, err = self.clock.timed(lambda: sigma_mod.sigma(p))
            ok = err is None and reference is not None and self.check_sigma(sv, d, reference)
            if not ok:
                report_failure(f"sigma {kind} d{d} {m:#x}", err or sv)
            ops.append(Op(f"sigma.{kind}", t0, dt, ok))
        return ops

    @staticmethod
    def check_sigma(sv, degree: int, pairs) -> bool:
        """sigma(p) has deg p, equals prod of geometric sums, and round-trips."""
        value = sv.value.mask
        expected = 1
        for q, e in pairs:
            geom = 1
            for _ in range(e):
                geom = clmul(geom, q) ^ 1
            expected = clmul(expected, geom)
        masks = [q.mask for q, _ in sv.factored]
        prod = 1
        for q, e in sv.factored:
            prod = clmul(prod, clpow(q.mask, e))
        return (value == expected and sv.value.degree == degree
                and masks == sorted(set(masks)) and prod == value)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _schema_key(argv: list[str]) -> str:
    return f"catalog-{argv[1]}" if argv[0] == "catalog" else argv[0]


class Classify:
    """The paper reproduction through cli.main, in process; no random inputs."""

    name = "classify"
    warmup = True

    def __init__(self, out_dir: Path, clock):
        import jsonschema  # the published SCHEMAS are checked with it

        self.clock = clock
        self.report_path = out_dir / "theorem-report.json"
        self.report_bytes: bytes | None = None
        self.validators = {
            key: jsonschema.validators.validator_for(schema)(schema)
            for key, schema in cli.SCHEMAS.items()
        }
        perfects = [["perfect", h] for h in T_HEX] + [["sigma", h] for h in T_HEX]
        self.commands = [
            ["catalog", "verify"],
            ["catalog", "export"],
            ["tables", "x2h"],
            ["tables", "mersenne"],
            ["tables", "s"],
            ["admissible", "F"],
            ["admissible", "S_3"],
            ["theorem", "--report", str(self.report_path)],
            ["scan", "--max-degree", "12"],
            *perfects,
        ]

    def check(self, argv: list[str], data: dict) -> bool:
        sub = argv[0]
        if sub == "catalog":
            sizes = [data["mersennes"], data["stypes"], data["perfects"]]
            if argv[1] == "export":
                sizes = [len(s) for s in sizes]
            return sizes == [13, 15, 11] and data["degree_sum"] == 184
        if sub == "tables":
            return len(data["rows"]) == TABLE_ROWS[argv[1]]
        if sub == "admissible":
            return data["admissible"] is True
        if sub == "theorem":
            counts = data["counts"]
            report = self.report_path.read_bytes()
            if self.report_bytes is None:
                self.report_bytes = report
            return ((counts["step1"], counts["step2"], counts["step3"]) == THEOREM_COUNTS
                    and sorted(data["closure_names"]) == sorted(f"T_{k}" for k in range(1, 12))
                    and report == self.report_bytes)
        if sub == "scan":
            want = [f"{m:#x}" for m in EXPECTED_PERFECT_20 if m.bit_length() - 1 <= 12]
            return [r["hex"] for r in data["results"]] == want
        if sub == "perfect":
            return data["perfect"] is True and data["indecomposable"] is True
        return data["sigma"]["hex"] == argv[1]  # sigma(T) = T

    def round(self, i: int) -> list[Op]:
        ops = []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0, dt, rc, exc = self.clock.timed(lambda: cli.main(argv + ["--format", "json"]))
            ok = exc is None and rc == 0
            if ok:
                try:
                    data = json.loads(out.getvalue())
                except ValueError as bad:
                    ok, exc = False, bad
            if ok:
                errors = list(self.validators[_schema_key(argv)].iter_errors(data))
                ok = not errors and self.check(argv, data)
                exc = errors[0].message if errors else None
            if not ok:
                report_failure(" ".join(argv), exc or err.getvalue() or f"exit {rc}")
            ops.append(Op(f"cli.{argv[0]}", t0, dt, ok))
        return ops
