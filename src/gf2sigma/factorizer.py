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
import sys
from array import array
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


# The public sieve and the scan's ceiling go no higher.  At D = 26 the sieve
# lists 5,387,991 primes in 5.6-6.6 s (2-core machine, CPython 3.11) and raises
# the peak RSS by about 137 MB.
# Past 31 the sieve's products would overflow their 32-bit lanes.
MAX_SIEVE_DEGREE = 26

_WHEEL = 0b10100110  # W = x(x+1)(x^2+x+1)(x^3+x+1), degree 7
_WHEEL_PRIMES = (0b10, 0b11, 0b111, 0b1011)
# residue r of i mod W -> 1 when x*r + 1 is coprime to W, else 0
_ODD_UNIT = bytes(_gcd(r << 1 | 1, _WHEEL) == 1 for r in range(128)).ljust(256, b"\x00")
_CHUNK = 1 << 16  # bytes of the result turned from indices into masks at a time


def _irreducible_masks(max_degree: int) -> array:
    """All irreducible masks of degree 1..max_degree in (degree, mask) order.

    A sieve over cand[i], i < 2^D with D = max_degree, where index i stands
    for the odd mask 2i+1 = x*i + 1: x is the only even prime, and it is a
    wheel prime.  Soundness:

    - Wheel.  cand starts set exactly at the i with gcd(x*i + 1, W) = 1 for
      W = x(x+1)(x^2+x+1)(x^3+x+1), the product of the primes x, x+1, 7 and
      11 (as masks).  x*i + 1 = x*(i mod W) + 1 (mod W), and i mod W is
      built for every i by doubling: the i below 2^(k+1) are those below
      2^k, then the same with x^k added, whose residues are r xor
      (x^k mod W).  Each level is one 256-byte `translate` table, and one
      final `translate` maps each residue r to the coprimality of x*r + 1.
    - The constant 1 (i = 0) is cleared; the wheel primes, which divide W,
      are prepended to the survivors.
    - Every composite c (deg c <= D) coprime to W has a prime factor p of
      least degree with 3 <= deg p <= D/2: deg p <= deg c / 2 because every
      prime factor of the cofactor s = c/p has degree >= deg p, and deg p >= 3
      because no prime of degree <= 2 divides c.  p is not x^3+x+1, so
      p >= x^3+x^2+1 in mask order.
    - s has constant term 1, and odd weight: weight parity is the value at
      x = 1, which is multiplicative, and c(1) = 1.  So marking p*s for
      every prime p from x^3+x^2+1 to degree D/2 (the sieve to D//2) and
      every odd s of odd weight with deg p <= deg s <= D - deg p clears every
      composite left by the wheel.  The products p*s for the odd s < 2^t
      are grown level by level, split by the weight parity of s; adding x^t
      to s flips it, so level t = deg s marks (p << t) ^ w for w in the
      even-parity products.
    - No prime is marked: each mark p*s has two factors of degree >= 3.

    Each parity class is one int with a 32-bit lane per product, so a level
    is one XOR with (p << t) * ones, where ones has a 1 in every lane.  A
    product has degree at most D, so it fits its lane without carries into
    the next one as long as D < 32; irreducibles and exhaustive_scan, the
    ways in, refuse D above MAX_SIEVE_DEGREE = 26.  Every product p*s is
    odd, so level ^ ones clears bit 0 of each lane, and the shift right by
    one moves only that cleared bit out of a lane: each lane of
    (level ^ ones) >> 1 holds the index (p*s - 1) / 2, read back as a
    native "I" array.

    The result is an array("I") of masks.  The survivors' indices i < 2^31
    are collected into it, then turned into 2i+1 a chunk at a time as one
    int per chunk, shifted left by one and ORed with a 1 in every lane; as
    above, the shift carries no bit into the next lane.
    """
    if max_degree < 1:
        return array("I")
    out = array("I", [q for q in _WHEEL_PRIMES if q < 2 << max_degree])
    res = bytearray(1)  # res[i] = i mod W for the i < 2^k
    xk = 1  # x^k mod W
    for _ in range(max_degree):
        res += res.translate(bytes(r ^ xk for r in range(256)))
        xk <<= 1
        if xk >> 7:
            xk ^= _WHEEL
    cand = res.translate(_ODD_UNIT)
    del res
    cand[0] = 0  # the constant 1
    for p in _irreducible_masks(max_degree // 2)[len(_WHEEL_PRIMES):]:
        dp = p.bit_length() - 1
        last = max_degree - dp
        # p*s for the odd s < 2^t by weight parity, one 32-bit lane per product
        even, odd, ones, n = p ^ p << 1, p, 1, 1  # s = x+1 and s = 1: t = 2
        for t in range(2, last + 1):
            top = (p << t) * ones
            level = even ^ top  # deg s = t, s of odd weight
            if t >= dp:
                for i in memoryview(((level ^ ones) >> 1).to_bytes(4 * n, sys.byteorder)).cast("I"):
                    cand[i] = 0
            if t < last:
                shift = 32 * n
                even |= (odd ^ top) << shift
                odd |= level << shift
                ones |= ones << shift
                n *= 2
    wheel = 4 * len(out)  # bytes of the wheel primes, which are masks already
    out.extend(map(re.Match.start, re.finditer(b"\x01", cand)))
    del cand
    lanes = memoryview(out).cast("B")
    for k in range(wheel, len(lanes), _CHUNK):
        part = lanes[k:k + _CHUNK]
        ones = int.from_bytes(b"\x01\x00\x00\x00" * (len(part) // 4), "little")
        part[:] = (int.from_bytes(part, sys.byteorder) << 1 | ones).to_bytes(len(part), sys.byteorder)
    return out


def irreducibles(max_degree: int) -> list[Poly]:
    """All irreducible polynomials of degree 1..max_degree, canonically ordered."""
    if not 1 <= max_degree <= MAX_SIEVE_DEGREE:
        raise ValueError(f"max_degree must be at least 1 and at most {MAX_SIEVE_DEGREE} "
                         f"(factorizer.MAX_SIEVE_DEGREE), got {max_degree}")
    return [Poly(m) for m in _irreducible_masks(max_degree)]
