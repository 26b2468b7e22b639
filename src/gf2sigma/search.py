"""Bounded search routines behind the classification of perfect polynomials.

Everything here revolves around the shape
A = x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j, one vector of 15 exponents
over the catalog's shape primes (`ExponentTuple`).  sigma splits
geometrically over the 2-adic form e = 2^k s - 1 (s odd) of each exponent,
so `_sigma_system` generates the vector v_Q(sigma(P^e)) for each shape prime
P and exponent e from 1+P and the splits `catalog._even_sigma_splits`.  Only
one top per prime (`_TOPS`) and the solve order (`_RUNS`) are declared: each
prime's odd parts s come from the splits of sigma(P^(s-1)) that the solve
order can read, so no odd part or valuation is written by hand.
`compute_sigma_exponents` sums those vectors into the exponent vector of
sigma(A), and the pipeline solves sigma(A) = A as a fixed point of that
system in three steps, then closes the perfect survivors under the
x -> x+1 conjugation.  A pipeline row packs two vectors, the exponents A
fixed so far and S, those of sigma of them; `_solve_run` solves every run
off S, and the fixed points are the complete rows with A = S.

The sigma tables list every sigma(base^{2h}) that factors entirely over the
28-member catalog family; `catalog._even_sigma_splits` derives the h bound
past which none can, so the tables are complete.

`exhaustive_scan` enumerates the monic polynomials of degree 1..max_degree
by unique factorization (a DFS over ordered prime multisets) while tracking
the part of sigma not yet matched, and reports all perfect polynomials found.
Three rules, sound for every A with sigma(A) = A (odd ones included), cut
subtrees that hold no perfect polynomial:

* half-degree: if P^e exactly divides A then sigma(P^e), coprime to P,
  divides A / P^e, so 2*e*deg P <= deg A;
* divisibility: below a node a, r = sigma(a) / gcd(sigma(a), a) must divide
  the rest of A, so it fits the remaining degree and has no factor among
  the primes already decided;
* odd exponent: an odd prime with an odd exponent puts x(x+1) into sigma(A),
  and x+1 with an odd exponent puts x there, so if A lacks x or x+1 every
  odd prime has an even exponent, and if A lacks x so does x+1.

The soundness argument is in `exhaustive_scan`'s docstring.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable, Iterator

from .gf2poly import Poly, _bar, _divide_out, _divmod, _mod, _mul, _popcount, _pow
from .factorizer import MAX_SIEVE_DEGREE, Factorization, _irreducible_masks
from .sigma import _geom_sum, _split_2adic
# bench/tracing.py wraps search.build_catalog by name; the code here reads
# the shared catalog `_catalog` and never builds one itself.
from .catalog import (_SHAPE_MERSENNES, _SHAPE_STYPES, EXPECTED_DEGREE_SUM, _catalog,  # noqa: F401
                      _even_sigma_splits, _shape_mask, build_catalog)

__all__ = [
    "ExponentTuple",
    "SearchError",
    "SearchReport",
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
# The scan sieves every irreducible up to its degree, so its ceiling is the sieve's cap.
MAX_SCAN_CEILING = MAX_SIEVE_DEGREE
# bench/tracing.py reads this name on every traced table call; no code here
# does.  It equals the derived h bound of the x2h table.
DEFAULT_H_MAX = EXPECTED_DEGREE_SUM // 2


# One top per shape prime, in exponent order: its box is 2^t s - 1 for t = 0..top,
# and `_sigma_system` derives the odd parts s from the splits and _RUNS.
_TOPS = (4, 4, 4, 3, 3, 5, 5, 3, *(1,) * (_SHAPE_STYPES - 1))

# The pipeline fixes the shape primes in runs (first index, count): step 1
# enumerates x, x+1, M_1 and solves M_2, M_3; step 2 solves S_1..S_8; step 3
# solves M_4, M_5.  Each solved run's equations read only the primes of the
# runs before it (tested), so its exponents are a slice of S in a row, one
# int A << _SPAN | S that sums one `_increments` entry per fixed prime.
_RUNS = ((0, 3), (3, 2), (7, 8), (5, 2))


class SearchError(RuntimeError):
    """The enumeration finished in a state violating a hard contract."""


# bench/tracing.py's table spans read search._cat(): the shared catalog.
_cat = _catalog


# ---------------------------------------------------------------------------
# exponent tuples and the sigma exponent formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentTuple:
    """The exponents of A = x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j in shape
    order: a, b, c_1..c_5, d_1..d_8."""

    exponents: tuple[int, ...]

    @property
    def a(self) -> int:
        return self.exponents[0]

    @property
    def b(self) -> int:
        return self.exponents[1]

    @property
    def c(self) -> tuple[int, ...]:
        return self.exponents[2:2 + _SHAPE_MERSENNES]

    @property
    def d(self) -> tuple[int, ...]:
        return self.exponents[2 + _SHAPE_MERSENNES:]

    @classmethod
    def from_exponents(cls, a: int, b: int, c: tuple[int, ...] = (), d: tuple[int, ...] = ()) -> "ExponentTuple":
        """Build the tuple from plain exponents of x, x+1, M_1..M_5, S_1..S_8."""
        c = tuple(c) + (0,) * (_SHAPE_MERSENNES - len(c))
        d = tuple(d) + (0,) * (_SHAPE_STYPES - len(d))
        for name, given, room in (("c", c, _SHAPE_MERSENNES), ("d", d, _SHAPE_STYPES)):
            if len(given) > room:
                raise ValueError(f"{name} has {len(given)} exponents, the shape has {room}")
        for name, k in [("a", a), ("b", b), *((f"c_{i}", k) for i, k in enumerate(c, 1)),
                        *((f"d_{j}", k) for j, k in enumerate(d, 1))]:
            if k < 0:
                raise ValueError(f"exponent {name} must be >= 0, got {k}")
        return cls((a, b, *c, *d))

    def validate(self) -> None:
        """Check membership in the bounded parameter ranges of the search."""
        system = _sigma_system()
        if len(self.exponents) != len(system) or not all(map(dict.__contains__, system, self.exponents)):
            raise ValueError(f"exponent tuple outside the supported ranges: {self}")

    def to_json(self) -> dict:
        """The exponents, each also as (t, s) with e = 2^t s - 1: n, u for a,
        m, v for b, n_i, u_i for the c_i and m_j, v_j for the d_j."""
        (n, u), (m, v), *rest = map(_split_2adic, self.exponents)
        n_i, u_i = zip(*rest[:_SHAPE_MERSENNES])
        m_j, v_j = zip(*rest[_SHAPE_MERSENNES:])
        return {
            "n": n, "u": u, "m": m, "v": v,
            "n_i": list(n_i), "u_i": list(u_i), "m_j": list(m_j), "v_j": list(v_j),
            "a": self.a, "b": self.b, "c": list(self.c), "d": list(self.d),
        }


# An exponent vector over the shape primes packs into one int, _W bits per
# prime in shape order, so adding vectors adds ints and the equations of a
# run of consecutive primes are one slice.  No field overflows: every entry
# of a sum is at most v_Q(sigma(A)) <= deg A, below 2^_W over the box (tested).
_W = 16
_SPAN = _W * len(_TOPS)  # a pipeline row's A starts at this bit


def _unpack(packed: int) -> tuple[int, ...]:
    return tuple(packed >> (_W * q) & ((1 << _W) - 1) for q in range(len(_TOPS)))


@cache
def _sigma_system() -> tuple[dict[int, int], ...]:
    """For each shape prime P, map each exponent e of its box to the packed
    vector of v_Q(sigma(P^e)) over the shape primes Q.

    With e = 2^k s - 1, sigma(P^e) = (1+P)^(2^k-1) * sigma(P^(s-1))^(2^k)
    (`sigma.check_geometric_split`), so
    v_Q(sigma(P^e)) = (2^k - 1) v_Q(1+P) + 2^k v_Q(sigma(P^(s-1))).
    P's box is every such e with k <= P's top (k outermost) and s = 1 or
    s = 2h + 1 where sigma(P^2h) splits over the shape primes
    (`_even_sigma_splits` misses no h) into primes each enumerated (run 0)
    or solved in a later run than P, so a solved run's equations read only
    primes fixed before it.  Built on first use, so importing the module
    and building the catalog never pay.
    """
    bases = [q for _, q in _catalog().shape]
    shift = {q: _W * i for i, q in enumerate(bases)}
    run = {bases[p]: k for k, (first, count) in enumerate(_RUNS) for p in range(first, first + count)}
    system = []
    for p, top in zip(bases, _TOPS):
        one_plus = sum(_divide_out(p ^ 1, q)[1] << shift[q] for q in bases)
        even = {1: 0}  # odd part s -> packed v_Q(sigma(P^(s-1)))
        for h, split in _even_sigma_splits(p, bases):
            if all(run[q] == 0 or run[q] > run[p] for q, _ in split):
                even[2 * h + 1] = sum(c << shift[q] for q, c in split)
        system.append({(1 << k) * s - 1: ((1 << k) - 1) * one_plus + (v << k)
                       for k in range(top + 1) for s, v in even.items()})
    return tuple(system)


def compute_sigma_exponents(t: ExponentTuple) -> ExponentTuple:
    """The exponents of the shape primes in sigma(A), summing the generated
    vector of each prime power of A.  The pipeline's fixed points are the t
    it returns unchanged."""
    t.validate()
    return ExponentTuple(_unpack(sum(map(dict.__getitem__, _sigma_system(), t.exponents))))


# ---------------------------------------------------------------------------
# sigma factor tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaTableRow:
    """One table row: sigma(base^exponent) factored over the family, its primes in roster order."""

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


def _sigma_power_rows(bases: list[tuple[str, int]]) -> list[SigmaTableRow]:
    cat = _catalog()
    family = [e.poly.mask for e in cat.mersennes + cat.stypes]
    return [SigmaTableRow(name, Poly(bm), 2 * h, Factorization(tuple((Poly(q), e) for q, e in fac)))
            for name, bm in bases
            for h, fac in _even_sigma_splits(bm, family)]


def sigma_x2h_table() -> list[SigmaTableRow]:
    """Rows (base in {x, x+1}, 2h) where sigma(base^2h) factors over the family."""
    return _sigma_power_rows([("x", 2), ("x+1", 3)])


def sigma_mersenne_table() -> list[SigmaTableRow]:
    """Rows (M, 2h) where sigma(M^2h) factors over the family."""
    return _sigma_power_rows([(e.name, e.poly.mask) for e in _catalog().mersennes])


def sigma_s_table() -> list[SigmaTableRow]:
    """Rows (S, 2h) where sigma(S^2h) factors over the family."""
    return _sigma_power_rows([(e.name, e.poly.mask) for e in _catalog().stypes])


# ---------------------------------------------------------------------------
# the three-step pipeline
# ---------------------------------------------------------------------------


def _increments(q: int) -> dict[int, int]:
    """Map each e of shape prime q's box to the row increment fixing it: e in q's field of A, its vector in S."""
    return {e: (e << (_W * q + _SPAN)) + v for e, v in _sigma_system()[q].items()}


@cache
def _run_sums(k: int) -> dict[int, int]:
    """The sumset of _RUNS[k]'s increments, keyed by their A part: each point of the
    run's boxes as S packs it.  Built once per k; the callers only read it."""
    first, count = _RUNS[k]
    rows = [0]
    for q in range(first, first + count):
        rows = [row + inc for row in rows for inc in _increments(q).values()]
    return {row >> _SPAN: row for row in rows}


def _solve_run(rows: Iterable[int], k: int) -> list[int]:
    """Extend each row by the exponents of _RUNS[k] that its equations force,
    S's fields there; drop it where they leave the box."""
    first, count = _RUNS[k]
    mask = ((1 << (_W * count)) - 1) << (_W * first)
    sums = _run_sums(k)
    out = []
    for row in rows:
        v = sums.get(row & mask)
        if v is not None:
            out.append(row + v)
    return out


def pipeline_step1() -> list[int]:
    """Rows with a, b, c_1 enumerated, 1 <= a <= b, and c_2, c_3 solved: each is
    an (a, b) pair of increments, summed once, plus an M_1 increment."""
    ix, ix1, im1 = map(_increments, range(3))  # _RUNS[0]
    pairs = [ra + rb for a, ra in ix.items() for b, rb in ix1.items() if 1 <= a <= b]
    return _solve_run((pair + rc for pair in pairs for rc in im1.values()), 1)


def pipeline_step2(step1: list[int]) -> list[int]:
    """Extend each step-1 row by d_1..d_8 solved."""
    return _solve_run(step1, 2)


def pipeline_step3(step2: list[int]) -> list[tuple[ExponentTuple, Poly]]:
    """Extend each step-2 row by c_4, c_5 solved and keep the fixed points A = S.

    Every prime is fixed by then, so A = S checks the equations of M_1, x
    and x+1 too, which no step solves.
    """
    cat = _catalog()
    out = []
    for row in _solve_run(step2, 3):
        a, s = divmod(row, 1 << _SPAN)
        if a == s:
            t = ExponentTuple(_unpack(a))
            out.append((t, Poly(_shape_mask(_pow, t.exponents, cat.shape))))
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
                {"name": name, "hex": p.to_hex(), "poly": str(p)}
                for p, name in zip(self.closure, self.closure_names)
            ],
            "closure_names": list(self.closure_names),
        }


def _render_tuple_factorization(t: ExponentTuple) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for (name, _), e in zip(_catalog().shape, t.exponents) if e]
    return " * ".join(parts) if parts else "1"


def pipeline_finalize(candidates: list[tuple[ExponentTuple, Poly]], counts: tuple[int, int, int]) -> SearchReport:
    """Filter candidates by perfectness, close under bar, check the known set.

    Survivors must carry at least one odd prime factor (candidates that are
    pure x^a (x+1)^b powers are the trivial perfect family and belong to a
    different classification).  counts are the sizes of steps 1-3, copied
    into the report.  Raises SearchError if the bar-closure differs from the
    eleven cataloged perfect polynomials.
    """
    cat = _catalog()
    survivors = []
    for t, p in candidates:
        if not any(t.c + t.d):
            continue
        if _shape_mask(_geom_sum, t.exponents, cat.shape) == p.mask:
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
    return SearchReport(
        *counts,
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

def _rest_ok(idx: int, r: int) -> bool:
    """The divisibility rule's prime tests at a node of primes[0..idx].

    r, the part of sigma(a) not in a, must divide the rest of A, so it has
    no factor x (r & 1), x+1 (popcount parity) or x^2+x+1 (0b111) once that
    prime is decided; those are primes[0..2].
    """
    return bool(r & 1) and (not idx or _popcount(r) & 1) and (idx < 2 or _mod(r, 0b111) != 0)


def _exponent_step(a: int, idx: int) -> int:
    """2 when the odd-exponent rule allows primes[idx] only even exponents below a, else 1.

    Choosing primes[idx] decides every earlier prime, so A lacks x exactly
    when a does (idx >= 1), and lacks x+1 exactly when a does (idx >= 2).
    """
    if idx and (a & 1 or (idx > 1 and _popcount(a) & 1)):
        return 2
    return 1


def _cancel(se: int, w: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]], int]:
    """(se / g, w / g, deg g) for g = gcd(se, w), w a list of (prime, exponent)."""
    left: list[tuple[int, int]] = []
    dg = 0
    for q, f in w:
        k = 0
        while k < f:
            quo, rem = _divmod(se, q)
            if rem:
                break
            se = quo
            k += 1
        dg += k * (q.bit_length() - 1)
        if k < f:
            left.append((q, f - k))
    return se, left, dg


def _scan_node(primes: list[int], node: tuple, out: list[int]) -> None:
    """Record a if perfect, then visit its children unless the divisibility rule rules them out."""
    idx, a, r, w, budget = node
    if not _rest_ok(idx, r):
        return
    if r == 1:
        out.append(a)
    if budget:
        for child in _scan_children(primes, idx + 1, a, r, w, budget):
            _scan_node(primes, child, out)


def _scan_children(primes: list[int], i0: int, a: int, r: int, w: list[tuple[int, int]], budget: int) -> Iterator:
    """Yield the node state (idx, a * p^e, r', w', budget') of each child a * p^e,
    p = primes[idx] with idx >= i0, that the rules allow.

    (r, w) is a's deficit pair, deg r = deg w.  p is the smallest prime of
    the rest, so it has degree at most deg r when r != 1, and no prime after
    the first one dividing r can be it.  The child's deg r' is tested before
    its pair is formed.  D = deg a + budget at every node.
    """
    dr = r.bit_length() - 1
    cap = min(budget, (a.bit_length() - 1 + budget) // 2)  # e * deg p <= cap: the budget and the half-degree rule on D
    top = cap if r == 1 else min(cap, dr)
    steps = (1, _exponent_step(a, 1), _exponent_step(a, 2))
    for idx in range(i0, len(primes)):
        p = primes[idx]
        dp = p.bit_length() - 1
        step = steps[min(idx, 2)]
        if dp > top or step * dp > cap:
            break
        rest, v = r, 0
        if r != 1 and not _mod(r, p):
            rest, v = _divide_out(r, p)
        # p must not divide r', so e >= v; deg r' = dr - v*dp + e*dp - deg gcd(sigma(p^e), w)
        e0 = max(v + v % step, step)
        base = dr - v * dp - budget
        for e in range(e0, cap // dp + 1, step):
            need = base + 2 * e * dp  # deg gcd(sigma(p^e), w) must reach this
            if need > dr or need > e * dp:  # deg gcd <= min(deg w, deg sigma(p^e)), and need grows faster
                break
            # sigma(p^e) is formed for each e on its own: most loops end at their first e
            s1, left, dg = _cancel(_geom_sum(p, e), w)
            if dg < need:
                continue
            if e > v:
                left.append((p, e - v))
            yield idx, _mul(a, _pow(p, e)), _mul(rest, s1), left, budget - e * dp
        if v:
            break


def _scan_task(primes: list[int], task: tuple) -> list[int]:
    out: list[int] = []  # one list per task: a pool worker runs many
    _scan_node(primes, task, out)
    return out


def _scan_ceiling() -> int:
    """The degree cap: GF2SIGMA_SCAN_CEILING, else the default."""
    raw = os.environ.get(SCAN_CEILING_ENV, str(DEFAULT_SCAN_CEILING))
    try:
        ceiling = int(raw)
    except ValueError:
        raise ValueError(f"{SCAN_CEILING_ENV} must be an integer, got {raw!r}") from None
    if not 1 <= ceiling <= MAX_SCAN_CEILING:
        raise ValueError(f"{SCAN_CEILING_ENV} must be at most {MAX_SCAN_CEILING} (search.MAX_SCAN_CEILING) "
                         f"and at least 1, got {ceiling}")
    return ceiling


def exhaustive_scan(max_degree: int, *, workers: int = 1) -> list[Poly]:
    """All perfect polynomials of degree 1..max_degree, sorted by (degree, mask).

    A DFS over factorizations: a node is a = prod p_i^e_i over a prefix
    primes[0..idx] of the irreducibles in (degree, mask) order; its children
    multiply in p^e for a later prime p.  Every monic polynomial is one
    node, so the scan is complete if each rule below only cuts subtrees
    holding no perfect A, odd ones included.  Let deg A <= D = max_degree
    and sigma(A) = A.

    Half-degree rule.  If P^e exactly divides A, sigma(P^e) has degree
    e*deg P, is coprime to P (it is 1 mod P) and divides sigma(A) = A, hence
    A / P^e.  So 2*e*deg P <= D: primes of degree above D/2 and exponents
    with 2*e*deg P > D are never tried.

    Divisibility rule.  Below a node, A = a * rest with rest built from
    primes after primes[idx].  sigma(A) = sigma(a) * sigma(rest) = A and
    gcd(a, rest) = 1 give sigma(a) | a * rest, so r = sigma(a) / g with
    g = gcd(sigma(a), a) divides rest.  Hence deg r <= D - deg a, and r has
    no factor among primes[0..idx] (`_rest_ok` tests x, x+1 and x^2+x+1,
    and a child's exponent of p is at least v_p(r)).  Also, the next prime
    of A is the smallest prime of rest, so when r != 1 it has degree
    <= deg r, and it cannot come after the first prime dividing r.

    Deficit state.  A node carries r and w = a / g, not a and sigma(a):
    gcd(r, w) = 1, and deg w = deg r because deg sigma(a) = deg a.  For the
    child a * p^e with sigma_e = sigma(p^e), p divides neither w (an earlier
    prime's power) nor sigma_e (which is 1 mod p), and gcd(r, w) = 1, so

        gcd(sigma(a) * sigma_e, a * p^e) = g * gcd(r, p^e) * gcd(sigma_e, w),

    r' = (r / gcd(r, p^e)) * (sigma_e / gcd(sigma_e, w)) and
    w' = (w / gcd(sigma_e, w)) * (p^e / gcd(r, p^e)), again coprime.  With
    e >= v_p(r) = v, deg r' = deg r - v*deg p + e*deg p - deg gcd(sigma_e, w),
    and gcd(sigma_e, w) comes from dividing sigma_e by w's few primes.  So
    the degree test deg r' <= D - deg a - e*deg p runs before r', w' or the
    child are formed.  deg gcd(sigma_e, w) <= min(deg w, e*deg p), and the
    degree it must reach grows by 2*deg p per step of e against at most
    deg p for that bound, so once the bound fails every larger e fails too.

    Odd-exponent rule.  Let P be an odd prime (neither x nor x+1) and e odd.
    Then e + 1 = 2^t*s with t >= 1, and sigma(P^e) =
    (1+P)^(2^t-1) * sigma(P^(s-1))^(2^t) (`check_geometric_split`), so 1+P
    divides it.  P(0) = P(1) = 1, so 1+P vanishes at 0 and at 1: x(x+1)
    divides 1+P, hence sigma(P^e) and sigma(A) = A.  Likewise for P = x+1
    with e odd, 1+P = x divides sigma(A) = A.  So if A lacks x or x+1, every
    odd prime has an even exponent, and if A lacks x, x+1 has an even
    exponent too.  Choosing primes[idx] decides every earlier prime, so below a the
    rule is known from a alone (`_exponent_step`): A lacks x when idx >= 1
    and a & 1, and lacks x+1 when idx >= 2 and a has odd weight.

    max_degree is capped at 24; the GF2SIGMA_SCAN_CEILING environment
    variable sets another cap from 1 up to MAX_SCAN_CEILING.  The sieve runs
    in this process, and the root's children are the tasks: 12, 28, 43 and
    44 of them at D = 12, 20, 24 and 26.  One worker runs them in order; more
    share them out over a pool, workers capped at os.cpu_count().  Both
    paths run the same tasks, each a DFS of its own subtree.
    """
    ceiling = _scan_ceiling()
    if not 1 <= max_degree <= ceiling:
        raise ValueError(f"max_degree must be in 1..{ceiling}, got {max_degree}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    primes = _irreducible_masks(max_degree)
    primes = primes[:bisect_left(primes, 1 << (max_degree // 2 + 1))].tolist()  # the half-degree rule
    tasks = list(_scan_children(primes, 0, 1, 1, [], max_degree))
    if workers <= 1:
        chunks = list(map(partial(_scan_task, primes), tasks))
    else:
        import multiprocessing  # only the pool path pays for this import
        with multiprocessing.Pool(workers) as pool:
            chunks = list(pool.imap_unordered(partial(_scan_task, primes), tasks))
    return [Poly(m) for m in sorted(m for chunk in chunks for m in chunk)]
