"""Bounded search routines behind the classification of perfect polynomials.

Everything here revolves around the shape
A = x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j with exponents written
2-adically: a = 2^n u - 1, b = 2^m v - 1, c_i = 2^{n_i} u_i - 1,
d_j = 2^{m_j} v_j - 1 (u, v, u_i, v_j odd).  sigma splits geometrically over
that 2-adic form, so `_sigma_system` generates the vector v_Q(sigma(P^e))
for each shape prime P and exponent e from 1+P and the valuation profile
`catalog._even_sigma_valuations`; no order or exponent is listed by hand.
`compute_sigma_exponents` sums those vectors, and the pipeline solves
sigma(A) = A as a fixed point of that system in three steps, then closes
the perfect survivors under the x -> x+1 conjugation.

The sigma tables list every sigma(base^{2h}) that factors entirely over the
28-member catalog family; `catalog._even_sigma_splits` derives the h bound
past which none can, so the tables are complete.

`exhaustive_scan` enumerates the monic polynomials of degree 1..max_degree
by unique factorization (a DFS over ordered prime multisets) while updating
sigma multiplicatively, and reports all perfect polynomials found.  Two rules,
sound for every A with sigma(A) = A (odd ones included), cut subtrees that
hold no perfect polynomial:

* half-degree: if P^e exactly divides A then sigma(P^e), coprime to P,
  divides A / P^e, so 2*e*deg P <= deg A;
* divisibility: below a node a, r = sigma(a) / gcd(sigma(a), a) must divide
  the rest of A, so it fits the remaining degree and has no factor among
  the primes already decided.

The soundness argument is in `exhaustive_scan`'s docstring.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import lshift
from typing import Callable, Iterable

from .gf2poly import Poly, _bar, _divide_out, _divmod, _gcd, _mod, _mul, _popcount, _pow
from .factorizer import Factorization, _irreducible_masks
from .sigma import _geom_sum, _split_2adic
from .catalog import (_SHAPE_MERSENNES, _SHAPE_STYPES, EXPECTED_DEGREE_SUM, Catalog, _even_sigma_splits,
                      _even_sigma_valuations, _shape_mask, _shape_members, build_catalog)

__all__ = [
    "ExponentTuple",
    "SearchError",
    "SearchReport",
    "SigmaExponents",
    "SigmaTableRow",
    "compute_sigma_exponents",
    "exhaustive_scan",
    "pipeline_finalize",
    "pipeline_step1",
    "pipeline_step2",
    "pipeline_step3",
    "run_pipeline",
    "sigma_mersenne_table",
    "sigma_s_table",
    "sigma_x2h_table",
]

SCAN_CEILING_ENV = "GF2SIGMA_SCAN_CEILING"
DEFAULT_SCAN_CEILING = 24
# The scan sieves every irreducible up to its degree in a bytearray of
# 2^(D+1) bytes, 128 MB at D = 26; no ceiling may go above this.
MAX_SCAN_CEILING = 26
# bench/tracing.py reads this name on every traced table call; no code here
# does.  It equals the derived h bound of the x2h table.
DEFAULT_H_MAX = EXPECTED_DEGREE_SUM // 2


def _box_pairs(top: int, odds: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Map each exponent 2^t s - 1 with 0 <= t <= top and s in odds to (t, s), t outermost."""
    return {(1 << t) * s - 1: (t, s) for t in range(top + 1) for s in odds}


# The parameter box of the search, one entry per prime of the shape: x and
# x+1 share _X_PAIRS, _M_PAIRS lists M_1..M_5 and S_2..S_8 share _S_TAIL_PAIRS.
_X_PAIRS = _box_pairs(4, (1, 3, 5, 7, 9, 13, 15))
_M_PAIRS = [_box_pairs(4, (1, 3, 5, 7, 15)), _box_pairs(3, (1, 3)), _box_pairs(3, (1, 3)),
            _box_pairs(5, (1,)), _box_pairs(5, (1,))]
_S1_PAIRS = _box_pairs(3, (1, 3))
_S_TAIL_PAIRS = _box_pairs(1, (1,))
_BOXES = (_X_PAIRS, _X_PAIRS, *_M_PAIRS, _S1_PAIRS, *(_S_TAIL_PAIRS,) * (_SHAPE_STYPES - 1))


class SearchError(RuntimeError):
    """The enumeration finished in a state violating a hard contract."""


@lru_cache(maxsize=1)
def _cat() -> Catalog:
    return build_catalog()


# ---------------------------------------------------------------------------
# exponent tuples and the sigma exponent formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentTuple:
    """2-adic exponent parameters of a candidate A.

    a = 2^n u - 1 is the exponent of x, b = 2^m v - 1 of x+1,
    c_i = 2^{n_i} u_i - 1 of M_i (i = 1..5), d_j = 2^{m_j} v_j - 1 of S_j
    (j = 1..8); all of u, v, u_i, v_j are odd.
    """

    n: int
    u: int
    m: int
    v: int
    n_i: tuple[int, ...] = (0,) * _SHAPE_MERSENNES
    u_i: tuple[int, ...] = (1,) * _SHAPE_MERSENNES
    m_j: tuple[int, ...] = (0,) * _SHAPE_STYPES
    v_j: tuple[int, ...] = (1,) * _SHAPE_STYPES

    @property
    def a(self) -> int:
        return (1 << self.n) * self.u - 1

    @property
    def b(self) -> int:
        return (1 << self.m) * self.v - 1

    @property
    def c(self) -> tuple[int, ...]:
        return tuple((1 << n) * u - 1 for n, u in zip(self.n_i, self.u_i))

    @property
    def d(self) -> tuple[int, ...]:
        return tuple((1 << m) * v - 1 for m, v in zip(self.m_j, self.v_j))

    @classmethod
    def from_exponents(cls, a: int, b: int, c: tuple[int, ...] = (), d: tuple[int, ...] = ()) -> "ExponentTuple":
        """Build the tuple from plain exponents of x, x+1, M_1..M_5, S_1..S_8."""
        c = tuple(c) + (0,) * (_SHAPE_MERSENNES - len(c))
        d = tuple(d) + (0,) * (_SHAPE_STYPES - len(d))
        for name, k in [("a", a), ("b", b), *((f"c_{i}", k) for i, k in enumerate(c, 1)),
                        *((f"d_{j}", k) for j, k in enumerate(d, 1))]:
            if k < 0:
                raise ValueError(f"exponent {name} must be >= 0, got {k}")
        n, u = _split_2adic(a)
        m, v = _split_2adic(b)
        ni, ui = zip(*(_split_2adic(k) for k in c))
        mj, vj = zip(*(_split_2adic(k) for k in d))
        return cls(n, u, m, v, ni, ui, mj, vj)

    def validate(self) -> None:
        """Check membership in the bounded parameter ranges of the search."""
        t = self
        pairs = [(t.n, t.u), (t.m, t.v), *zip(t.n_i, t.u_i), *zip(t.m_j, t.v_j)]
        ok = (
            (len(t.n_i), len(t.u_i), len(t.m_j), len(t.v_j))
            == (_SHAPE_MERSENNES, _SHAPE_MERSENNES, _SHAPE_STYPES, _SHAPE_STYPES)
            and all(pair in box.values() for pair, box in zip(pairs, _BOXES))
        )
        if not ok:
            raise ValueError(f"exponent tuple outside the supported ranges: {t}")

    def to_json(self) -> dict:
        return {
            "n": self.n, "u": self.u, "m": self.m, "v": self.v,
            "n_i": list(self.n_i), "u_i": list(self.u_i),
            "m_j": list(self.m_j), "v_j": list(self.v_j),
            "a": self.a, "b": self.b, "c": list(self.c), "d": list(self.d),
        }


@dataclass(frozen=True)
class SigmaExponents:
    """Exponents of x, x+1, M_1..M_5, S_1..S_8 in sigma(A)."""

    alpha: int
    beta: int
    gamma: tuple[int, int, int, int, int]
    delta: tuple[int, ...]


# An exponent vector over the shape primes packs into one int, _W bits per
# prime in shape order, so adding vectors adds ints and the equations of a
# run of consecutive primes are one slice.  No field overflows: every entry
# of a sum is at most v_Q(sigma(A)) <= deg A, below 2^_W over the box (tested).
_W = 16


def _pack(exps: Iterable[int]) -> int:
    return sum(e << (_W * q) for q, e in enumerate(exps))


def _unpack(packed: int) -> tuple[int, ...]:
    return tuple(packed >> (_W * q) & ((1 << _W) - 1) for q in range(len(_BOXES)))


def _shape_bases(catalog: Catalog) -> list[int]:
    """The masks of x, x+1, M_1..M_5, S_1..S_8, in exponent order."""
    shape_m, shape_s = _shape_members(catalog.mersennes, catalog.stypes)
    return [2, 3] + [e.poly.mask for e in shape_m + shape_s]


@lru_cache(maxsize=1)
def _sigma_system() -> tuple[dict[int, int], ...]:
    """For each shape prime P, map each exponent e of its box to the packed
    vector of v_Q(sigma(P^e)) over the shape primes Q.

    With e = 2^k s - 1, sigma(P^e) = (1+P)^(2^k-1) * sigma(P^(s-1))^(2^k)
    (`sigma.check_geometric_split`), so
    v_Q(sigma(P^e)) = (2^k - 1) v_Q(1+P) + 2^k v_Q(sigma(P^(s-1))),
    the last term from the order profile `_even_sigma_valuations`.  Built on
    first use, so importing the module and building the catalog never pay.
    """
    bases = _shape_bases(_cat())
    shift = {q: _W * i for i, q in enumerate(bases)}
    system = []
    for p, box in zip(bases, _BOXES):
        one_plus = sum(_divide_out(p ^ 1, q)[1] << shift[q] for q in bases)
        even = [0] + [sum(c << shift[q] for q, c in split) for _, split
                      in _even_sigma_valuations(p, bases, max(s for _, s in box.values()) // 2)]
        system.append({e: ((1 << k) - 1) * one_plus + (even[s // 2] << k) for e, (k, s) in box.items()})
    return tuple(system)


def compute_sigma_exponents(t: ExponentTuple) -> SigmaExponents:
    """Exponents of the shape primes in sigma(A), summing the generated
    vector of each prime power of A."""
    t.validate()
    v = _unpack(sum(map(dict.__getitem__, _sigma_system(), (t.a, t.b, *t.c, *t.d))))
    return SigmaExponents(v[0], v[1], v[2:7], v[7:])


# ---------------------------------------------------------------------------
# sigma factor tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaTableRow:
    """One table row: sigma(base^exponent) factored over the family."""

    base_name: str
    base: Poly
    exponent: int  # the even exponent 2h
    factorization: Factorization

    def to_json(self) -> dict:
        return {
            "base": self.base_name,
            "base_hex": self.base.to_hex(),
            "exponent": self.exponent,
            "factors": self.factorization.to_json(),
        }


def _sigma_power_rows(bases: list[tuple[str, int]], catalog: Catalog) -> list[SigmaTableRow]:
    family = [e.poly.mask for e in catalog.mersennes + catalog.stypes]
    return [SigmaTableRow(name, Poly(bm), 2 * h, Factorization(tuple((Poly(q), e) for q, e in fac)))
            for name, bm in bases
            for h, fac in _even_sigma_splits(bm, family)]


def sigma_x2h_table(catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (base in {x, x+1}, 2h) where sigma(base^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([("x", 2), ("x+1", 3)], cat)


def sigma_mersenne_table(catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (M, 2h) where sigma(M^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([(e.name, e.poly.mask) for e in cat.mersennes], cat)


def sigma_s_table(catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (S, 2h) where sigma(S^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([(e.name, e.poly.mask) for e in cat.stypes], cat)


# ---------------------------------------------------------------------------
# the three-step pipeline
# ---------------------------------------------------------------------------


# The pipeline fixes the shape primes in runs (first index, count): step 1
# enumerates x, x+1, M_1 and solves M_2, M_3; step 2 solves S_1..S_8; step 3
# solves M_4, M_5.  Each solved run's equations read only the primes of the
# runs before it (tested), so its exponents are a slice of their packed sum.
# A row holds the exponents of the primes fixed so far, in _ORDER.
_RUNS = ((0, 3), (3, 2), (7, 8), (5, 2))
_ORDER = [p for first, count in _RUNS for p in range(first, first + count)]


def _run_solutions(k: int) -> tuple[int, int, dict[int, tuple[int, ...]]]:
    """(shift, mask, forced): forced maps each slice sum >> shift & mask that
    lies in the boxes of _RUNS[k] to its exponents."""
    first, count = _RUNS[k]
    forced = {_pack(exps): exps for exps in product(*_BOXES[first:first + count])}
    return _W * first, (1 << (_W * count)) - 1, forced


def _solve_run(rows: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """Extend each row by the exponents of _RUNS[k] that its equations force;
    drop it where they leave the box."""
    system = _sigma_system()
    fixed = [system[p] for p in _ORDER[:_ORDER.index(_RUNS[k][0])]]
    shift, mask, forced = _run_solutions(k)
    out = []
    for row in rows:
        exps = forced.get(sum(map(dict.__getitem__, fixed, row)) >> shift & mask)
        if exps is not None:
            out.append(row + exps)
    return out


def pipeline_step1() -> list[tuple[int, ...]]:
    """Exponents (a, b, c_1, c_2, c_3) with 1 <= a <= b and c_2, c_3 solved."""
    vx, vx1, vm1 = _sigma_system()[:3]  # _RUNS[0]
    shift, mask, forced = _run_solutions(1)
    out = []
    for a, va in vx.items():
        for b, vb in vx1.items():
            if 1 <= a <= b:
                for c1, vc in vm1.items():
                    exps = forced.get((va + vb + vc) >> shift & mask)
                    if exps is not None:
                        out.append((a, b, c1, *exps))
    return out


def pipeline_step2(step1: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extend each step-1 row by d_1..d_8 solved."""
    return _solve_run(step1, 2)


def _tuple_mask(t: ExponentTuple, power: Callable[[int, int], int], catalog: Catalog) -> int:
    """A for power = _pow, sigma(A) for power = _geom_sum."""
    return _shape_mask(power, (t.a, t.b, *t.c, *t.d), _shape_bases(catalog))


def pipeline_step3(step2: list[tuple[int, ...]]) -> list[tuple[ExponentTuple, Poly]]:
    """Extend each step-2 row by c_4, c_5 solved and keep the fixed points.

    A row is kept when sigma(A) and A have the same exponent at every shape
    prime; that checks the equations of M_1, x and x+1, which no step solves.
    """
    cat = _cat()
    system = _sigma_system()
    vectors = [system[p] for p in _ORDER]
    shifts = [_W * p for p in _ORDER]
    out = []
    for row in _solve_run(step2, 3):
        if sum(map(dict.__getitem__, vectors, row)) == sum(map(lshift, row, shifts)):
            exps = [e for _, e in sorted(zip(_ORDER, row))]
            t = ExponentTuple.from_exponents(exps[0], exps[1], exps[2:7], exps[7:])
            out.append((t, Poly(_tuple_mask(t, _pow, cat))))
    return out


@dataclass(frozen=True)
class SearchReport:
    """Counts, candidates and the bar-closed survivor set of the pipeline."""

    step1_count: int
    step2_count: int
    step3_count: int
    candidates: tuple[tuple[ExponentTuple, Poly], ...]
    perfect_survivors: tuple[Poly, ...]
    closure: tuple[Poly, ...]
    closure_names: tuple[str, ...]

    def to_json(self) -> dict:
        cat = _cat()
        names = {p: n for p, n in cat.names_by_poly.items()}
        return {
            "counts": {
                "step1": self.step1_count,
                "step2": self.step2_count,
                "step3": self.step3_count,
                "perfect_survivors": len(self.perfect_survivors),
                "closure": len(self.closure),
            },
            "candidates": [
                {
                    "exponents": t.to_json(),
                    "hex": p.to_hex(),
                    "degree": p.degree,
                    "factorization": _render_tuple_factorization(t),
                }
                for t, p in self.candidates
            ],
            "perfect_survivors": [p.to_hex() for p in self.perfect_survivors],
            "closure": [
                {"name": names.get(p, ""), "hex": p.to_hex(), "poly": str(p)}
                for p in self.closure
            ],
            "closure_names": list(self.closure_names),
        }


def _render_tuple_factorization(t: ExponentTuple) -> str:
    cat = _cat()
    shape_m, shape_s = _shape_members(cat.mersennes, cat.stypes)
    names = ["x", "(x+1)"] + [e.name for e in shape_m + shape_s]
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, (t.a, t.b, *t.c, *t.d)) if e]
    return " * ".join(parts) if parts else "1"


def pipeline_finalize(candidates: list[tuple[ExponentTuple, Poly]], counts: tuple[int, int, int] | None = None) -> SearchReport:
    """Filter candidates by perfectness, close under bar, check the known set.

    Survivors must carry at least one odd prime factor (candidates that are
    pure x^a (x+1)^b powers are the trivial perfect family and belong to a
    different classification).  Raises SearchError if the bar-closure differs
    from the eleven cataloged perfect polynomials.
    """
    cat = _cat()
    survivors = []
    for t, p in candidates:
        if not any(t.c) and not any(t.d):
            continue
        if _tuple_mask(t, _geom_sum, cat) == p.mask:
            survivors.append(p)
    survivors.sort()
    closure = sorted({p for p in survivors} | {Poly(_bar(p.mask)) for p in survivors})
    expected = sorted(e.poly for e in cat.perfects)
    if closure != expected:
        missing = [str(p) for p in expected if p not in closure]
        extra = [str(p) for p in closure if p not in expected]
        raise SearchError(
            f"closure mismatch: missing={missing!r} extra={extra!r}"
        )
    names = tuple(cat.names_by_poly[p] for p in closure)
    c1, c2, c3 = counts if counts else (0, 0, 0)
    return SearchReport(
        step1_count=c1,
        step2_count=c2,
        step3_count=c3,
        candidates=tuple(candidates),
        perfect_survivors=tuple(survivors),
        closure=tuple(closure),
        closure_names=names,
    )


def run_pipeline() -> SearchReport:
    """Run the full three-step enumeration and finalization."""
    s1 = pipeline_step1()
    s2 = pipeline_step2(s1)
    s3 = pipeline_step3(s2)
    return pipeline_finalize(s3, counts=(len(s1), len(s2), len(s3)))


# ---------------------------------------------------------------------------
# exhaustive scan
# ---------------------------------------------------------------------------

_SCAN_PRIMES: list[int] = []  # per-process state for worker tasks


def _rest_factor(idx: int, a: int, s: int, budget: int) -> int:
    """The divisibility rule at a scan node; 0 when no perfect A lies below it.

    a is a product of exact powers of primes[0..idx] and s = sigma(a).  Any
    A below the node is a * rest with rest over primes[idx+1:], so a perfect
    one needs r = s / gcd(s, a) to divide rest: deg r <= budget, and r has no
    factor x (r & 1), x+1 (popcount parity) or x^2+x+1 (0b111), which are
    primes[0..2].  Returns r, which is 1 exactly when s == a.
    """
    r = _divmod(s, _gcd(s, a))[0]
    if (r.bit_length() - 1 > budget or not r & 1 or (idx and not _popcount(r) & 1)
            or (idx >= 2 and not _mod(r, 0b111))):
        return 0
    return r


def _scan_node(primes: list[int], idx: int, a: int, s: int, budget: int, half: int, out: list[int]) -> None:
    """Record a if perfect, then visit its children unless the rules rule them out."""
    r = _rest_factor(idx, a, s, budget)
    if r == 1:
        out.append(a)
    if r and budget:
        _scan_children(primes, idx + 1, a, s, r, budget, half, out)


def _scan_children(primes: list[int], i0: int, a: int, s: int, r: int, budget: int, half: int,
                   out: list[int]) -> None:
    """Visit a * p^e for each primes[i0:] p and e that the rules allow.

    p is the smallest prime of the rest, so it has degree at most deg r when
    r != 1, and no prime after the first one dividing r can be it.
    """
    cap = min(budget, half)  # e * deg p <= cap: the budget and the half-degree rule
    top = cap if r == 1 else min(cap, r.bit_length() - 1)
    for idx in range(i0, len(primes)):
        p = primes[idx]
        dp = p.bit_length() - 1
        if dp > top:
            break
        pe = p
        se = p ^ 1
        for e in range(1, cap // dp + 1):
            _scan_node(primes, idx, _mul(a, pe), _mul(s, se), budget - e * dp, half, out)
            pe = _mul(pe, p)
            se = _mul(se, p) ^ 1  # sigma(p^(e+1)) = sigma(p^e)*p + 1
        if r != 1 and not _mod(r, p):
            break


def _scan_task_init(primes: list[int]) -> None:
    global _SCAN_PRIMES
    _SCAN_PRIMES = primes


def _scan_task(args: tuple[int, int, int]) -> list[int]:
    idx, e, max_degree = args
    p = _SCAN_PRIMES[idx]
    out: list[int] = []
    _scan_node(_SCAN_PRIMES, idx, _pow(p, e), _geom_sum(p, e), max_degree - (p.bit_length() - 1) * e,
               max_degree // 2, out)
    return out


def _scan_ceiling(ceiling: int | None) -> int:
    """The degree cap: ceiling=, else GF2SIGMA_SCAN_CEILING, else the default."""
    name = "ceiling"
    if ceiling is None:
        name = SCAN_CEILING_ENV
        raw = os.environ.get(SCAN_CEILING_ENV, str(DEFAULT_SCAN_CEILING))
        try:
            ceiling = int(raw)
        except ValueError:
            raise ValueError(f"{SCAN_CEILING_ENV} must be an integer, got {raw!r}") from None
    if ceiling > MAX_SCAN_CEILING:
        raise ValueError(f"{name} must be at most {MAX_SCAN_CEILING} (the scan sieve takes "
                         f"2^(ceiling+1) bytes), got {ceiling}")
    return ceiling


def exhaustive_scan(max_degree: int, *, workers: int = 1, ceiling: int | None = None) -> list[Poly]:
    """All perfect polynomials of degree 1..max_degree, sorted by (degree, mask).

    A DFS over factorizations: a node is a = prod p_i^e_i over a prefix
    primes[0..idx] of the irreducibles in (degree, mask) order, with
    s = sigma(a); its children multiply in p^e for a later prime p.  Every
    monic polynomial is one node, so the scan is complete if each rule below
    only cuts subtrees holding no perfect A, odd ones included.  Let
    deg A <= D = max_degree and sigma(A) = A.

    Half-degree rule.  If P^e exactly divides A, sigma(P^e) has degree
    e*deg P, is coprime to P (it is 1 mod P) and divides sigma(A) = A, hence
    A / P^e.  So 2*e*deg P <= D: primes of degree above D/2 and exponents
    with 2*e*deg P > D are never tried.

    Divisibility rule.  Below a node, A = a * rest with rest built from
    primes after primes[idx].  sigma(A) = s * sigma(rest) = A and
    gcd(a, rest) = 1 give s | a * rest, so r = s / gcd(s, a) divides rest.
    Hence deg r <= D - deg a, and r has no factor among primes[0..idx]
    (`_rest_factor` tests x, x+1 and x^2+x+1).  Also, the next prime of A is
    the smallest prime of rest, so when r != 1 it has degree <= deg r, and
    it cannot come after the first prime dividing r.

    The ceiling defaults to 24 and may be overridden with the
    GF2SIGMA_SCAN_CEILING environment variable or ceiling=, up to
    MAX_SCAN_CEILING.  workers is capped at os.cpu_count(); above 1, each
    top-level (prime, exponent) pair is one pool task.
    """
    ceiling = _scan_ceiling(ceiling)
    if not 1 <= max_degree <= ceiling:
        raise ValueError(f"max_degree must be in 1..{ceiling}, got {max_degree}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    half = max_degree // 2
    primes = _irreducible_masks(max_degree)
    primes = primes[:bisect_left(primes, 1 << (half + 1))]  # the half-degree rule
    found: list[int] = []
    if workers <= 1:
        _scan_children(primes, 0, 1, 1, 1, max_degree, half, found)
    else:
        import multiprocessing  # only the pool path pays for this import
        tasks = [(idx, e, max_degree) for idx, p in enumerate(primes)
                 for e in range(1, half // (p.bit_length() - 1) + 1)]
        with multiprocessing.Pool(workers, initializer=_scan_task_init, initargs=(primes,)) as pool:
            for chunk in pool.imap_unordered(_scan_task, tasks):
                found.extend(chunk)
    return [Poly(m) for m in sorted(found)]
