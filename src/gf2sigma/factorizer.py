"""Deterministic irreducibility testing and factorization over GF(2).

Irreducibility is Rabin's criterion: p of degree d is irreducible iff
x^(2^d) == x (mod p) and gcd(x^(2^(d/r)) - x, p) = 1 for every prime r | d.

Factorization runs squarefree decomposition (characteristic-2 aware: a
vanishing derivative means the polynomial is a perfect square), then
distinct-degree splitting, then equal-degree splitting with the trace map
T(v) = v + v^2 + v^4 + ... + v^(2^(d-1)) swept over the basis monomials
v = x, x^2, x^3, ...  No randomness anywhere: factor order is reproducible
and results are always sorted by (degree, mask).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .gf2poly import Poly, _divide_out, _divmod, _gcd, _mod, _mul, _derivative, _pow, _sqr_mod, _sqrt

__all__ = ["Factorization", "factor", "irreducibles", "is_irreducible", "is_squarefree", "omega", "rad"]


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible_mask(p: int) -> bool:
    d = p.bit_length() - 1
    if d < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    x0 = _mod(2, p)
    checkpoints = {d // r for r in _prime_divisors(d)}
    h = x0
    for i in range(1, d + 1):
        h = _sqr_mod(h, p)
        if i in checkpoints and _gcd(h ^ x0, p) != 1:
            return False
    return h == x0


def is_irreducible(p: Poly) -> bool:
    """Rabin's irreducibility test; raises for constants and zero."""
    return _is_irreducible_mask(p.mask)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def _edf(g: int, d: int) -> list[int]:
    """Split a product of distinct degree-d irreducibles into its factors."""
    if g.bit_length() - 1 == d:
        return [g]
    deg_g = g.bit_length() - 1
    for i in range(1, deg_g):
        v = _mod(1 << i, g)
        # trace map: v + v^2 + ... + v^(2^(d-1)), values in GF(2) per factor
        acc = v
        w = v
        for _ in range(d - 1):
            w = _sqr_mod(w, g)
            acc ^= w
        u = _gcd(acc, g)
        if 0 < u.bit_length() - 1 < deg_g:
            return _edf(u, d) + _edf(_divmod(g, u)[0], d)
    raise AssertionError("trace splitting exhausted the basis")  # unreachable


def _factor_squarefree(s: int) -> list[int]:
    """Factor a squarefree mask of degree >= 1 by distinct-degree splitting."""
    out = []
    f = s
    h = _mod(2, f)
    d = 0
    while 2 * (d + 1) <= f.bit_length() - 1:
        d += 1
        h = _sqr_mod(h, f)
        g = _gcd(h ^ 2, f)
        if g != 1:
            out.extend(_edf(g, d))
            f = _divmod(f, g)[0]
            if f == 1:
                break
            h = _mod(h, f)
    if f.bit_length() - 1 >= 1:
        out.append(f)
    return out


def _factor_into(f: int, mult: int, counts: dict[int, int]) -> None:
    if f == 1:
        return
    fp = _derivative(f)
    if fp == 0:
        # only even-position bits set: f is the square of its de-interleave
        _factor_into(_sqrt(f), 2 * mult, counts)
        return
    s = _divmod(f, _gcd(f, fp))[0]  # product of the odd-multiplicity primes
    for q in _factor_squarefree(s):
        f, e = _divide_out(f, q)
        counts[q] = counts.get(q, 0) + e * mult
    _factor_into(f, mult, counts)  # leftover: the even-multiplicity part


def _factor_mask(m: int) -> list[tuple[int, int]]:
    if m == 0:
        raise ValueError("cannot factor the zero polynomial")
    counts: dict[int, int] = {}
    _factor_into(m, 1, counts)
    return sorted(counts.items())  # mask order == (degree, mask) order


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as an ordered tuple of (prime, exponent) pairs."""

    factors: tuple[tuple[Poly, int], ...]

    def __iter__(self) -> Iterator[tuple[Poly, int]]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def value(self) -> Poly:
        """Recombine the factorization into the original polynomial."""
        m = 1
        for p, e in self.factors:
            m = _mul(m, _pow(p.mask, e))
        return Poly(m)

    def render(self, names: Mapping[Poly, str] | None = None) -> str:
        """Human-readable product, using catalog names where available."""
        if not self.factors:
            return "1"
        parts = []
        for p, e in self.factors:
            name = names.get(p) if names else None
            base = name if name is not None else f"({p})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return " * ".join(parts)

    def to_json(self) -> list[list]:
        """JSON form: [[hexmask, exponent], ...] in canonical order."""
        return [[p.to_hex(), e] for p, e in self.factors]


def factor(p: Poly) -> Factorization:
    """Full factorization of a nonzero polynomial, sorted by (degree, mask)."""
    return Factorization(tuple((Poly(q), e) for q, e in _factor_mask(p.mask)))


def omega(p: Poly) -> int:
    """Number of distinct prime factors."""
    return len(_factor_mask(p.mask))


def rad(p: Poly) -> Poly:
    """Product of the distinct prime factors (the radical)."""
    m = 1
    for q, _ in _factor_mask(p.mask):
        m = _mul(m, q)
    return Poly(m)


def is_squarefree(p: Poly) -> bool:
    """True iff no prime divides p twice.

    In characteristic 2 a vanishing derivative means p is a perfect square,
    so any p of degree >= 1 with derivative 0 is not squarefree; otherwise
    squarefreeness is gcd(p, p') = 1.
    """
    m = p.mask
    if m == 0:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if m == 1:
        return True
    fp = _derivative(m)
    if fp == 0:
        return False
    return _gcd(m, fp) == 1


# ---------------------------------------------------------------------------
# irreducible enumeration (sieve)
# ---------------------------------------------------------------------------


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _irreducible_masks(max_degree: int) -> list[int]:
    """All irreducible masks of degree 1..max_degree in (degree, mask) order.

    A sieve over cand[m], m < 2^(D+1) with D = max_degree.  Soundness:

    - Wheel.  cand starts set exactly at the masks of degree >= 1 that
      neither x nor x+1 divides: the odd masks (constant term 1) of odd
      weight (value 1 at x = 1).
    - Every such composite c (deg c <= D) has a prime factor p with
      2 <= deg p <= D/2, and its cofactor s = c/p has deg s >= deg p.  Take p
      of least degree: every prime factor of s has degree >= deg p, so
      deg p <= deg c / 2, and deg p >= 2 since x and x+1 do not divide c.
    - s has constant term 1, and odd weight: weight parity is the value at
      x = 1, which is multiplicative, and c(1) = 1.  So marking p*s for
      every odd prime p of degree 2..D/2 (the sieve to D//2) and every odd s
      of odd weight with deg p <= deg s <= D - deg p clears every composite.
      The products p*s are grown level by level in two lists split by the
      weight parity of s; adding x^t to s flips it, so level t = deg s marks
      (p << t) ^ w for w in the even-parity list.
    - No prime is marked: each mark p*s has two factors of degree >= 2.
    - The survivors are the primes of degree >= 2; x and x+1 are prepended.
    """
    if max_degree < 1:
        return []
    # k has even weight iff 2k+1 has odd weight; this is the Thue-Morse
    # sequence flipped, doubled to length 2^D
    even_weight = bytearray(b"\x01")
    for _ in range(max_degree):
        even_weight += even_weight.translate(_FLIP)
    cand = bytearray(1 << (max_degree + 1))
    cand[1::2] = even_weight
    del even_weight
    cand[1] = 0  # the constant 1
    for p in _irreducible_masks(max_degree // 2)[2:]:
        dp = p.bit_length() - 1
        last = max_degree - dp
        even, odd = [], [p]  # p*s for odd s < 2^t, by the weight parity of s
        for t in range(1, last - 1):
            top = p << t
            level = list(map(top.__xor__, even))  # deg s = t, s of odd weight
            if t >= dp:
                for m in level:
                    cand[m] = 0
            even += map(top.__xor__, odd)
            odd += level
        # the last two levels come straight from the lists for s < 2^(last-1):
        # s + x^(last-1) and s + x^last for s of even weight, and
        # s + x^(last-1) + x^last for s of odd weight
        below, top = p << (last - 1), p << last
        if last - 1 >= dp:
            for w in even:
                cand[below ^ w] = 0
        for w in even:
            cand[top ^ w] = 0
        top ^= below
        for w in odd:
            cand[top ^ w] = 0
    out = [2, 3]
    out += map(re.Match.start, re.finditer(b"\x01", cand))
    return out


def irreducibles(max_degree: int) -> list[Poly]:
    """All irreducible polynomials of degree 1..max_degree, canonically ordered."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return [Poly(m) for m in _irreducible_masks(max_degree)]
