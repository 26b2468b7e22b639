"""Bounded search routines behind the classification of perfect polynomials.

Everything here revolves around the shape
A = x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j with exponents written
2-adically: a = 2^n u - 1, b = 2^m v - 1, c_i = 2^{n_i} u_i - 1,
d_j = 2^{m_j} v_j - 1 (u, v, u_i, v_j odd).  sigma splits geometrically over
that 2-adic form, so the exponent of every tracked prime in sigma(A) is an
explicit integer formula in the tuple; `compute_sigma_exponents` evaluates
those formulas and the pipeline solves sigma(A) = A as a fixed point of the
exponent system in three steps, then closes the perfect survivors under the
x -> x+1 conjugation.

The sigma tables enumerate which sigma(base^{2h}) factor entirely over the
28-member catalog family, under the degree bound 2h*deg(base) <= 2*h_max
(default h_max = 92, i.e. sigma arguments of degree at most 184).

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
from typing import Callable

from .gf2poly import Poly, _bar, _divmod, _gcd, _mod, _mul, _popcount, _pow
from .factorizer import Factorization, _irreducible_masks
from .sigma import _geom_sum, _split_2adic
from .catalog import (_SHAPE_MERSENNES, _SHAPE_STYPES, DEFAULT_H_MAX, Catalog, _check_h_max,
                      _even_sigma_splits, _shape_mask, _shape_members, build_catalog)

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
        n, u = _split_2adic(a)
        m, v = _split_2adic(b)
        ni, ui = zip(*(_split_2adic(k) for k in c))
        mj, vj = zip(*(_split_2adic(k) for k in d))
        return cls(n, u, m, v, ni, ui, mj, vj)

    def validate(self) -> None:
        """Check membership in the bounded parameter ranges of the search."""
        t = self
        pairs = [(t.n, t.u), (t.m, t.v), *zip(t.n_i, t.u_i), *zip(t.m_j, t.v_j)]
        boxes = [_X_PAIRS, _X_PAIRS, *_M_PAIRS, _S1_PAIRS, *[_S_TAIL_PAIRS] * (_SHAPE_STYPES - 1)]
        ok = (
            (len(t.n_i), len(t.u_i), len(t.m_j), len(t.v_j))
            == (_SHAPE_MERSENNES, _SHAPE_MERSENNES, _SHAPE_STYPES, _SHAPE_STYPES)
            and all(pair in box.values() for pair, box in zip(pairs, boxes))
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


def _chi(val: int, *targets: int) -> int:
    return 1 if val in targets else 0


# The exponent formulas below each read only the parameters they need, so
# the pipeline steps evaluate them as soon as those parameters are fixed.


def _one_plus_p_part(ks: tuple[int, ...], weights: tuple[int, ...]) -> int:
    """Sum of (2^k - 1) * w over the pairs (k, w).

    Each p^(2^k s - 1) in A puts (1+p)^(2^k - 1) into sigma(A); w is the
    exponent of the counted prime in 1+p.
    """
    return sum(((1 << k) - 1) * w for k, w in zip(ks, weights))


def _gamma1(n: int, u: int, m: int, v: int, n2: int, u2: int, n3: int, u3: int,
            m_j: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Exponent of M_1 in sigma(A); nu_j is the M_1 exponent in S_j + 1."""
    return (
        _one_plus_p_part(m_j, nu)
        + (_chi(u, 3, 9, 15) << n) + (_chi(v, 3, 9, 15) << m)
        + (_chi(u2, 3) << n2) + (_chi(u3, 3) << n3)
    )


def _gamma2(n: int, u: int, m: int, v: int, n1: int, u1: int) -> int:
    """Exponent of M_2 in sigma(A), and of M_3 too."""
    return (_chi(u, 7) << n) + (_chi(v, 7) << m) + (_chi(u1, 7) << n1)


def _gamma4(n: int, u: int, m: int, v: int, n1: int, u1: int, n3: int, u3: int,
            m1: int, v1: int) -> int:
    """Exponent of M_4 in sigma(A).

    The exponent of M_5 is its bar image: swap (n, u) with (m, v) and pass
    (n2, u2) for (n3, u3), since bar exchanges x with x+1, M_2 with M_3 and
    M_4 with M_5.
    """
    return (
        (_chi(u, 5, 15) << n) + (_chi(v, 15) << m) + (_chi(u1, 15) << n1)
        + (_chi(u3, 3) << n3) + (_chi(v1, 3) << m1)
    )


def _deltas(n: int, u: int, m: int, v: int, n1: int, u1: int) -> tuple[int, ...]:
    """Exponents of S_1..S_8 in sigma(A)."""
    return (
        (_chi(u, 15) << n) + (_chi(v, 15) << m) + (_chi(u1, 3, 15) << n1),
        _chi(u1, 7) << n1,
        _chi(u, 13) << n,
        _chi(u, 9) << n,
        _chi(v, 9) << m,
        _chi(v, 13) << m,
        _chi(u1, 15) << n1,
        _chi(u1, 5, 15) << n1,
    )


def compute_sigma_exponents(t: ExponentTuple) -> SigmaExponents:
    """Evaluate the closed-form exponents of the tracked primes in sigma(A)."""
    t.validate()
    cat = _cat()
    shape_m, shape_s = _shape_members(cat.mersennes, cat.stypes)
    a_i, b_i = zip(*(e.params for e in shape_m))
    alpha_j, beta_j, nu_j = zip(*(e.params for e in shape_s))

    n, u, m, v = t.n, t.u, t.m, t.v
    n1, n2, n3 = t.n_i[:3]
    u1, u2, u3 = t.u_i[:3]
    m1, v1 = t.m_j[0], t.v_j[0]

    # 1 + (x+1) = x and 1 + x = x+1
    alpha = _one_plus_p_part((m, *t.n_i, *t.m_j), (1, *a_i, *alpha_j))
    beta = _one_plus_p_part((n, *t.n_i, *t.m_j), (1, *b_i, *beta_j))
    g1 = _gamma1(n, u, m, v, n2, u2, n3, u3, t.m_j, nu_j)
    g2 = _gamma2(n, u, m, v, n1, u1)
    g4 = _gamma4(n, u, m, v, n1, u1, n3, u3, m1, v1)
    g5 = _gamma4(m, v, n, u, n1, u1, n2, u2, m1, v1)
    return SigmaExponents(alpha, beta, (g1, g2, g2, g4, g5), _deltas(n, u, m, v, n1, u1))


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


def _sigma_power_rows(bases: list[tuple[str, int]], h_max: int, catalog: Catalog) -> list[SigmaTableRow]:
    _check_h_max(h_max)
    family = [e.poly.mask for e in catalog.mersennes + catalog.stypes]
    # the degree bound 2h*deg <= 2*h_max
    return [SigmaTableRow(name, Poly(bm), 2 * h, Factorization(tuple((Poly(q), e) for q, e in fac)))
            for name, bm in bases
            for h, fac in _even_sigma_splits(bm, family, h_max // (bm.bit_length() - 1))]


def sigma_x2h_table(h_max: int = DEFAULT_H_MAX, catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (base in {x, x+1}, 2h) where sigma(base^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([("x", 2), ("x+1", 3)], h_max, cat)


def sigma_mersenne_table(h_max: int = DEFAULT_H_MAX, catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (M, 2h), 2h*deg(M) <= 2*h_max, where sigma(M^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([(e.name, e.poly.mask) for e in cat.mersennes], h_max, cat)


def sigma_s_table(h_max: int = DEFAULT_H_MAX, catalog: Catalog | None = None) -> list[SigmaTableRow]:
    """Rows (S, 2h), 2h*deg(S) <= 2*h_max, where sigma(S^2h) factors over the family."""
    cat = catalog or _cat()
    return _sigma_power_rows([(e.name, e.poly.mask) for e in cat.stypes], h_max, cat)


# ---------------------------------------------------------------------------
# the three-step pipeline
# ---------------------------------------------------------------------------


def pipeline_step1() -> list[tuple[int, ...]]:
    """Enumerate 8-tuples (n,u,m,v,n1,u1,n2,u2) with a >= 1, a <= b, c_2 = gamma_2."""
    out = []
    for a, (n, u) in _X_PAIRS.items():
        if a < 1:
            continue
        for b, (m, v) in _X_PAIRS.items():
            if a > b:
                continue
            for n1, u1 in _M_PAIRS[0].values():
                c2 = _M_PAIRS[1].get(_gamma2(n, u, m, v, n1, u1))
                if c2:
                    out.append((n, u, m, v, n1, u1, *c2))
    return out


def pipeline_step2(step1: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extend to 18-tuples (.., d1..d8, m1, v1) with every d_j = delta_j."""
    out = []
    for fields in step1:
        n, u, m, v, n1, u1, _, _ = fields
        ds = _deltas(n, u, m, v, n1, u1)
        if not _S_TAIL_PAIRS.keys() >= set(ds[1:]):
            continue
        d1 = _S1_PAIRS.get(ds[0])
        if d1:
            out.append((*fields, *ds, *d1))
    return out


def _tuple_mask(t: ExponentTuple, power: Callable[[int, int], int], catalog: Catalog) -> int:
    """A for power = _pow, sigma(A) for power = _geom_sum."""
    shape_m, shape_s = _shape_members(catalog.mersennes, catalog.stypes)
    bases = [2, 3] + [e.poly.mask for e in shape_m + shape_s]
    return _shape_mask(power, (t.a, t.b, *t.c, *t.d), bases)


def pipeline_step3(step2: list[tuple[int, ...]]) -> list[tuple[ExponentTuple, Poly]]:
    """Complete each 18-tuple to a full tuple and keep those with a = alpha, b = beta.

    Completion mirrors (n3, u3) from (n2, u2) because gamma_3 = gamma_2 = c_2,
    then enforces the remaining fixed-point equations: c_1 = gamma_1 and
    c_4 = gamma_4, c_5 = gamma_5 with c_4, c_5 inside their boxes.
    """
    cat = _cat()
    nu = tuple(e.params[2] for e in _shape_members(cat.mersennes, cat.stypes)[1])
    out = []
    for fields in step2:
        n, u, m, v, n1, u1, n2, u2, d1, d2, d3, d4, d5, d6, d7, d8, m1, v1 = fields
        n3, u3 = n2, u2  # gamma_3 = gamma_2 forces c_3 = c_2
        # m_j = d_j for j >= 2: their boxes allow only d_j = 2^{m_j} - 1 <= 1
        m_j = (m1, d2, d3, d4, d5, d6, d7, d8)
        if (1 << n1) * u1 - 1 != _gamma1(n, u, m, v, n2, u2, n3, u3, m_j, nu):
            continue
        c4 = _M_PAIRS[3].get(_gamma4(n, u, m, v, n1, u1, n3, u3, m1, v1))
        c5 = _M_PAIRS[4].get(_gamma4(m, v, n, u, n1, u1, n2, u2, m1, v1))
        if not (c4 and c5):
            continue
        t = ExponentTuple(n, u, m, v, (n1, n2, n3, c4[0], c5[0]), (u1, u2, u3, c4[1], c5[1]),
                          m_j, (v1,) + (1,) * 7)
        se = compute_sigma_exponents(t)
        if t.a == se.alpha and t.b == se.beta:
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
