"""Spans around the library's public functions, and the per-layer metrics.

The tracer replaces a function at the module attribute where its caller
looks it up (`cli` and `sigma` bind imported names, so `gf2sigma.cli.factor`
and `gf2sigma.sigma.factor` are wrapped as well as `gf2sigma.factorizer.factor`)
and puts the original back afterwards; nothing under `src/` is edited.  The
mask primitives of `gf2poly` are never wrapped: the scan calls them millions
of times, so a wrapper would measure itself.  They get kernel rows instead:
fixed degrees, seeded operands, timed here, with a computed count of
shift-XOR steps and of bytes those steps touch.

A span is [name, start, end, parent index, attributes], kept in memory and
written out when the run ends.  A span's self time is its duration minus the
time its direct children cover; the calls are sequential, so that is the sum
of the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import random
from statistics import median
from time import perf_counter

import gf2sigma.gf2poly as gf2poly
import gf2sigma.search as search

SCAN_MAX_DEGREE = 20


def _poly_degree(args, kwargs, result):
    return {"degree": args[0].degree}


def _sieve(args, kwargs, result):
    return {"max_degree": args[0], "primes": len(result)}


def _scan(args, kwargs, result):
    return {"max_degree": args[0], "workers": kwargs.get("workers", 1), "found": len(result)}


def _admissible(args, kwargs, result):
    witnesses = result.member_witnesses.values()
    return {"members": len(witnesses), "witnessed": sum(w is not None for w in witnesses)}


def _table(bases):
    """Rows found, and sigma values tried: h = 1..h_max // deg(base) per base."""

    def describe(args, kwargs, result):
        cat = kwargs.get("catalog") or search._cat()
        h_max = kwargs.get("h_max", search.DEFAULT_H_MAX)
        degrees = [1, 1] if bases == "x2h" else [e.degree for e in getattr(cat, bases)]
        return {"rows": len(result), "tried": sum(h_max // d for d in degrees)}

    return describe


def _count(args, kwargs, result):
    return {"count": len(result)}


def _cli(args, kwargs, result):
    return {"sub": args[0][0]}


# (module, attribute, span name, describe(args, kwargs, result) -> attributes)
TARGETS = (
    ("gf2sigma.cli", "main", "cli.main", _cli),
    ("gf2sigma.cli", "parse_expr", "gf2poly.parse_expr", None),
    ("gf2sigma.factorizer", "factor", "factorizer.factor", _poly_degree),
    ("gf2sigma.sigma", "factor", "factorizer.factor", _poly_degree),
    ("gf2sigma.cli", "factor", "factorizer.factor", _poly_degree),
    ("gf2sigma.factorizer", "is_irreducible", "factorizer.is_irreducible", _poly_degree),
    # private, but it is the sieve the scan looks up, once per scan
    ("gf2sigma.search", "_irreducible_masks", "factorizer.sieve", _sieve),
    ("gf2sigma.sigma", "sigma", "sigma.sigma", _poly_degree),
    ("gf2sigma.cli", "sigma", "sigma.sigma", _poly_degree),
    ("gf2sigma.cli", "is_perfect", "sigma.is_perfect", None),
    ("gf2sigma.cli", "is_indecomposable_perfect", "sigma.is_indecomposable_perfect", None),
    ("gf2sigma.catalog", "build_catalog", "catalog.build_catalog", None),
    ("gf2sigma.cli", "build_catalog", "catalog.build_catalog", None),
    ("gf2sigma.search", "build_catalog", "catalog.build_catalog", None),
    ("gf2sigma.cli", "check_admissible", "catalog.check_admissible", _admissible),
    ("gf2sigma.cli", "sigma_x2h_table", "search.table.x2h", _table("x2h")),
    ("gf2sigma.cli", "sigma_mersenne_table", "search.table.mersenne", _table("mersennes")),
    ("gf2sigma.cli", "sigma_s_table", "search.table.s", _table("stypes")),
    ("gf2sigma.cli", "run_pipeline", "search.run_pipeline", None),
    ("gf2sigma.search", "pipeline_step1", "search.step1", _count),
    ("gf2sigma.search", "pipeline_step2", "search.step2", _count),
    ("gf2sigma.search", "pipeline_step3", "search.step3", _count),
    ("gf2sigma.search", "pipeline_finalize", "search.finalize", None),
    ("gf2sigma.search", "exhaustive_scan", "search.exhaustive_scan", _scan),
    ("gf2sigma.cli", "exhaustive_scan", "search.exhaustive_scan", _scan),
)


class Tracer:
    """In-memory spans for one process; the caller is single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.tag: str | None = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else None, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> list:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        if self.tag is not None:
            span[4]["tag"] = self.tag
        return span

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)[4].update(attrs)

    @contextlib.contextmanager
    def tagged(self, tag: str):
        self.tag = tag
        try:
            yield
        finally:
            self.tag = None

    def wrap(self, name: str, fn, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if describe is not None:
                span[4].update(describe(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, describe in TARGETS:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, describe))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# gf2poly kernel rows
# ---------------------------------------------------------------------------


def _nbytes(m: int) -> int:
    return (m.bit_length() + 7) // 8


def _mod_cost(a: int, b: int) -> tuple[int, int, int]:
    """Remainder of a mod b, shift-XOR steps and bytes of the long division.

    Each step a ^= b << s reads a and the shifted b and writes a.
    """
    steps = nbytes = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        nbytes += 3 * _nbytes(a)
        a ^= b << (a.bit_length() - db)
        steps += 1
    return a, steps, nbytes


def _mul_cost(a: int, b: int) -> tuple[int, int]:
    """Steps and bytes of shift-and-XOR over the sparser operand's set bits."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    steps = nbytes = 0
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        nbytes += 3 * _nbytes(r)  # read r and the shifted b, write r
        a ^= low
        steps += 1
    return steps, nbytes


def _sqr_mod_cost(a: int, m: int) -> tuple[int, int]:
    """Squaring spreads bits through two strings; then a long division."""
    d = a.bit_length()
    sqr = int("0".join(bin(a)[2:]), 2)
    _, steps, nbytes = _mod_cost(sqr, m)
    return steps, nbytes + d + (2 * d - 1) + _nbytes(sqr)


def _gcd_cost(a: int, b: int) -> tuple[int, int]:
    steps = nbytes = 0
    while b:
        r, s, n = _mod_cost(a, b)
        a, b = b, r
        steps += s
        nbytes += n
    return steps, nbytes


def _random_poly(rng: random.Random, degree: int) -> int:
    return (1 << degree) | rng.getrandbits(degree)


# (op, label, operand degrees, cost model); dN is the operand degree
KERNEL_ROWS = (
    ("mul", "d20", (20, 20), _mul_cost),
    ("mul", "d184", (184, 184), _mul_cost),
    ("divmod", "d184_by_d9", (184, 9), lambda a, b: _mod_cost(a, b)[1:]),
    ("mul", "d512", (512, 512), _mul_cost),
    ("sqr_mod", "d64", (63, 64), _sqr_mod_cost),
    ("sqr_mod", "d512", (511, 512), _sqr_mod_cost),
    ("mod", "d1024_by_d512", (1024, 512), lambda a, b: _mod_cost(a, b)[1:]),
    ("gcd", "d256", (256, 256), _gcd_cost),
)
KERNEL_PAIRS = 16
KERNEL_ROW_SECONDS = 0.15


def kernel_rows(seed: int) -> dict[str, tuple[float, str]]:
    """Time each kernel row on seeded operands; add its computed costs."""
    out = {}
    for op, label, (da, db), cost in KERNEL_ROWS:
        rng = random.Random(f"kernels:{seed}:{op}:{label}")
        pairs = [(_random_poly(rng, da), _random_poly(rng, db)) for _ in range(KERNEL_PAIRS)]
        fn = getattr(gf2poly, f"_{op}")

        def batch(reps: int) -> float:
            t0 = perf_counter()
            for _ in range(reps):
                for a, b in pairs:
                    fn(a, b)
            return perf_counter() - t0

        reps = max(1, int(0.005 / max(batch(1), 1e-7)))
        times = []
        start = perf_counter()
        while len(times) < 5 or perf_counter() - start < KERNEL_ROW_SECONDS:
            times.append(batch(reps))
        costs = [cost(a, b) for a, b in pairs]
        out[f"gf2poly.{op}_us.{label}"] = (median(times) / (reps * len(pairs)) * 1e6, "us")
        out[f"gf2poly.{op}_computed_xors.{label}"] = (sum(c[0] for c in costs) / len(pairs), "count")
        out[f"gf2poly.{op}_computed_bytes.{label}"] = (sum(c[1] for c in costs) / len(pairs), "B")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("catalog", "tables", "admissible", "theorem", "scan", "perfect", "sigma")
FACTOR_ROWS = tuple((kind, d) for kind in ("random", "smooth") for d in (64, 256, 512))


def _median_or_nan(values) -> float:
    return median(values) if values else float("nan")


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over every traced round of the run.

    Times are medians per call.  Call counts are per round of the workload
    that exercises the layer, so they do not grow with the run's length.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def pick(name, **attrs):
        return [i for i, s in enumerate(spans)
                if s[0] == name and all(s[4].get(k) == v for k, v in attrs.items())]

    def med_ms(idx, self_time=False):
        return _median_or_nan([(dur[i] - child[i] if self_time else dur[i]) * 1e3 for i in idx])

    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s[3] is not None:
            root[i] = root[s[3]]  # parents open before their children

    def per_round(idx, workload):
        """Spans of idx inside the workload's rounds, and that round count."""
        rounds = pick("round", workload=workload)
        return [i for i in idx if spans[root[i]][4].get("workload") == workload], rounds

    m: dict[str, tuple[float, str]] = {}

    sieve = pick("factorizer.sieve", max_degree=SCAN_MAX_DEGREE)
    primes = spans[sieve[0]][4]["primes"] if sieve else 0
    m["factorizer.sieve_s.d20"] = (_median_or_nan([dur[i] for i in sieve]), "s")
    m["factorizer.sieve_primes.d20"] = (primes, "count")
    m["factorizer.sieve_bytes.d20"] = (1 << (SCAN_MAX_DEGREE + 1), "B")  # the bytearray
    top_factor = [i for i in pick("factorizer.factor") if spans[i][3] is not None
                  and spans[spans[i][3]][0] == "round"]
    for kind, d in FACTOR_ROWS:
        idx = [i for i in top_factor if spans[i][4].get("tag") == kind and spans[i][4]["degree"] == d]
        m[f"factorizer.factor_ms.{kind}.d{d}"] = (med_ms(idx), "ms")
    factor, mix_rounds = per_round(pick("factorizer.factor"), "factor-mix")
    m["factorizer.factor_calls"] = (len(factor) / len(mix_rounds), "count")
    # the share of the round's library time, i.e. of the client's direct calls
    mix_set = set(mix_rounds)
    direct = [i for i, s in enumerate(spans) if s[3] in mix_set]
    m["factorizer.factor_busy_share"] = (
        sum(dur[i] for i in factor) / sum(dur[i] for i in direct), "1")
    m["factorizer.is_irreducible_ms"] = (med_ms(pick("factorizer.is_irreducible")), "ms")

    sig, mix_rounds = per_round(pick("sigma.sigma"), "factor-mix")
    m["sigma.sigma_self_ms"] = (med_ms(sig, self_time=True), "ms")
    m["sigma.sigma_calls"] = (len(sig) / len(mix_rounds), "count")
    m["sigma.is_indecomposable_perfect_ms"] = (med_ms(pick("sigma.is_indecomposable_perfect")), "ms")

    build, classify_rounds = per_round(pick("catalog.build_catalog"), "classify")
    m["catalog.build_ms"] = (med_ms(build), "ms")
    m["catalog.build_calls"] = (len(build) / len(classify_rounds), "count")
    adm = pick("catalog.check_admissible")
    m["catalog.admissible_ms"] = (med_ms(adm), "ms")
    m["catalog.admissible_witness_ratio"] = (
        sum(spans[i][4]["witnessed"] for i in adm) / max(1, sum(spans[i][4]["members"] for i in adm)), "1")

    rows = tried = 0
    for table in ("x2h", "mersenne", "s"):
        idx = pick(f"search.table.{table}")
        m[f"search.table_ms.{table}"] = (med_ms(idx), "ms")
        m[f"search.table_rows.{table}"] = (spans[idx[-1]][4]["rows"] if idx else 0, "count")
        rows += sum(spans[i][4]["rows"] for i in idx)
        tried += sum(spans[i][4]["tried"] for i in idx)
    m["search.table_accept_ratio"] = (rows / max(1, tried), "1")
    counts = {}
    for step in (1, 2, 3):
        idx = pick(f"search.step{step}")
        m[f"search.step_ms.{step}"] = (med_ms(idx), "ms")
        counts[step] = spans[idx[-1]][4]["count"] if idx else 0
    m["search.finalize_ms"] = (med_ms(pick("search.finalize")), "ms")
    for step in (1, 2, 3):
        m[f"search.step_count.{step}"] = (counts[step], "count")
    for step in (2, 3):
        m[f"search.step_pass_ratio.{step}"] = (counts[step] / max(1, counts[step - 1]), "1")

    serial = pick("search.exhaustive_scan", max_degree=SCAN_MAX_DEGREE, workers=1)
    par = pick("search.exhaustive_scan", max_degree=SCAN_MAX_DEGREE, workers=2)
    dfs = _median_or_nan([dur[i] - child[i] for i in serial])
    covered = (1 << (SCAN_MAX_DEGREE + 1)) - 2  # monic polynomials of degree 1..20
    found = spans[serial[-1]][4]["found"] if serial else 0
    m["search.scan_dfs_s"] = (dfs, "s")
    m["search.scan_polys_per_s"] = (covered / dfs, "1/s")
    m["search.scan_found_ratio"] = (found / covered, "1")
    # the 2-worker pass queues one task per (prime p, exponent e) with e*deg p <= 20
    m["search.scan_w2_tasks"] = (_scan_tasks(), "count")
    m["search.scan_w2_speedup"] = (
        _median_or_nan([dur[i] for i in serial]) / _median_or_nan([dur[i] for i in par]), "1")

    for sub in CLI_SUBCOMMANDS:
        idx = pick("cli.main", sub=sub)
        m[f"cli.main_ms.{sub}"] = (med_ms(idx), "ms")
        m[f"cli.self_ms.{sub}"] = (med_ms(idx, self_time=True), "ms")
    return m


def _scan_tasks() -> int:
    """Sum over the irreducibles p of degree <= 20 of floor(20 / deg p).

    N(d), the number of irreducibles of degree d, is Gauss's necklace count
    (1/d) * sum over e | d of mu(e) * 2^(d/e).
    """

    def mobius(n: int) -> int:
        out, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if n > 1 else out

    total = 0
    for d in range(1, SCAN_MAX_DEGREE + 1):
        count = sum(mobius(e) << (d // e) for e in range(1, d + 1) if d % e == 0) // d
        total += count * (SCAN_MAX_DEGREE // d)
    return total
