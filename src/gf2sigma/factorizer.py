"""Deterministic irreducibility testing and factorization over GF(2).

One loop, `_ddf`, does distinct-degree splitting: for i = 1, 2, ... it
squares h = x^(2^i) mod f and takes gcd(h - x, f), which is the product of
f's distinct primes whose degree divides i; with the primes of degree < i
already divided out, it is the product of f's primes of degree i.  i runs
up to half the degree of what is left, which is then one prime.

Irreducibility is Ben-Or's criterion (M. Ben-Or, 1981) on that loop: p of
degree d is irreducible iff its first part is all of p at degree d.  A
reducible p has a prime of degree k <= d / 2, so its first part comes at
k < d, even when that part is all of p (q * r with deg q = deg r) or only
its root (q^2).  An irreducible p pays d // 2 squarings and gcds; a
reducible one stops at the degree of its least prime.

Factorization loops over squarefree parts: while f != 1, f' = 0 means f is
a square (characteristic 2), so f becomes its root and the multiplicity
doubles; otherwise s = f / gcd(f, f'), the primes of odd multiplicity, is
split by distinct-degree, then equal-degree splitting with the trace map
T(v) = v + v^2 + ... + v^(2^(d-1)) over v = x, x^2, ..., and each prime is
divided out of f in full, leaving a square.  `factor` sorts by (degree, mask).
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


def _is_irreducible_mask(p: int) -> bool:
    d = p.bit_length() - 1
    if d < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    return next(_ddf(p)) == (d, p)


def is_irreducible(p: Poly) -> bool:
    """True iff p is irreducible, by Ben-Or's criterion (see the module
    docstring); raises for constants and zero."""
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


def _ddf(f: int) -> Iterator[tuple[int, int]]:
    """(d, g) for each degree d at which the mask f of degree >= 1 has primes,
    g their product, smallest d first, then (deg f, f) for the prime left; f
    is squarefree, or only the first part is read (see the module docstring)."""
    h = _mod(2, f)
    d = 0
    while 2 * (d + 1) <= f.bit_length() - 1:
        d += 1
        h = _sqr_mod(h, f)
        g = _gcd(h ^ 2, f)
        if g != 1:
            yield d, g
            f = _divmod(f, g)[0]
            if f == 1:
                return
            h = _mod(h, f)
    yield f.bit_length() - 1, f


def _factor_mask(m: int) -> list[tuple[int, int]]:
    if m == 0:
        raise ValueError("cannot factor the zero polynomial")
    out = []
    f, mult = m, 1  # m = f^mult * prod q^e over out, and no q of out divides f
    while f != 1:
        fp = _derivative(f)
        if fp:  # divide out the odd-multiplicity primes in full; a square is left
            for d, g in _ddf(_divmod(f, _gcd(f, fp))[0]):
                for q in _edf(g, d):
                    f, e = _divide_out(f, q)
                    out.append((q, e * mult))
        else:  # only even-position bits set: f is the square of its de-interleave
            f, mult = _sqrt(f), 2 * mult
    return sorted(out)  # mask order == (degree, mask) order


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as a tuple of (prime, exponent) pairs in its producer's order:
    (degree, mask) from `factor` and `sigma`, roster order in `search.SigmaTableRow`."""

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
        """JSON form: [[hexmask, exponent], ...] in the order of `factors`."""
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
    """True iff no prime divides p twice: gcd(p, p') = 1.

    In characteristic 2 a square has derivative 0, and gcd(p, 0) = p, which
    is 1 only for p = 1.
    """
    m = p.mask
    if m == 0:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    return _gcd(m, _derivative(m)) == 1


# ---------------------------------------------------------------------------
# irreducible enumeration (sieve)
# ---------------------------------------------------------------------------


# The public sieve and the scan's ceiling go no higher.  At D = 26 the sieve
# lists 5,387,991 primes in 3.0-3.1 s (2-core machine, CPython 3.11) and raises
# the peak RSS by about 128 MB, to about 148 MB.
# Past 31 the sieve's masks would overflow their 32-bit lanes.
MAX_SIEVE_DEGREE = 26

_WHEEL = 0b10100110  # W = x(x+1)(x^2+x+1)(x^3+x+1), degree 7
_WHEEL_PRIMES = (0b10, 0b11, 0b111, 0b1011)
# residue r of i mod W -> 1 when x*r + 1 is coprime to W, else 0
_ODD_UNIT = bytes(_gcd(r << 1 | 1, _WHEEL) == 1 for r in range(128)).ljust(256, b"\x00")
_FLAG = re.compile(b"\x01")
_LANES = 1 << 14  # 32-bit lanes held in one int at a time
# Primes of degree below this take every odd-weight cofactor, those from it on
# the flagged ones, read one `re` match each.  At D = 20, cutting over at 3, 4,
# 5, 6 leaves 249k, 271k, 313k, 365k marks, and the sieve took 41.6, 37.6,
# 37.0, 39.4 ms (medians of 40 interleaved runs, 2-core machine, CPython 3.11):
# the 43k flags read at degree 3 cost more than the marks they save.
_ROUGH_FROM = 5


def _multiples_of_x_plus_1(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(lanes, n) batches of the (x+1)v for lo <= v < hi, powers of 2: n of
    them in one int, one per 32-bit lane, n <= _LANES."""
    v, ones, n = 0, 1, 1  # lanes of v = 0 .. n-1, doubled up to _LANES
    start = 1
    while start < hi:
        top = v + start * ones  # v = start .. start+n-1
        if start >= lo:
            yield top ^ top << 1, n
        start += n
        if n < _LANES:  # start was n
            v |= top << 32 * n
            ones |= ones << 32 * n
            n *= 2


def _irreducible_masks(max_degree: int) -> array:
    """All irreducible masks of degree 1..max_degree in (degree, mask) order.

    A sieve over cand[i], i < 2^D with D = max_degree, where index i stands
    for the odd mask 2i+1 = x*i + 1 (x, the only even prime, is a wheel
    prime).  Soundness:

    - Wheel.  cand starts set exactly at the i with gcd(x*i + 1, W) = 1 for
      W = x(x+1)(x^2+x+1)(x^3+x+1).  x*i + 1 = x*(i mod W) + 1 (mod W), and
      i mod W is built for every i by doubling: the i below 2^(k+1) are those
      below 2^k, then the same with x^k added, whose residues are r xor
      (x^k mod W); one 256-byte `translate` table per level, and a final
      `translate` maps each residue r to the coprimality of x*r + 1.  The
      constant 1 is cleared; the wheel primes are prepended to the survivors.
    - Degree by degree, rough cofactors.  A composite c (deg c <= D) coprime
      to W is p*s with p a prime factor of least degree d, so every prime
      factor of s has degree >= d, d <= deg s = deg c - d, and d >= 3 (no
      prime of degree <= 2 divides c).  The loop takes d = 3 .. D//2 in
      turn.  At d, every composite of degree d is already cleared (its least
      prime factor has degree <= d/2), so the flags of degree d are its
      primes.  s is coprime to W, and every mark made so far has a prime
      factor of degree below d, which s lacks: s is still flagged.  So
      marking p*s for every flagged p of degree d and every s flagged at
      degree d..D-d, both read before d marks anything, clears every
      composite whose least prime factor has degree d.  No prime is marked:
      p*s has two factors of degree >= 3.
    - Below degree _ROUGH_FROM, s runs instead over every odd s of odd
      weight (a superset: weight parity is the value at x = 1, which is
      multiplicative, and c(1) = 1), whose indices are the multiples of x+1.

    A batch of cofactor indices is one int with a 32-bit lane each.
    p*(x*i + 1) = x*(p*i) + p, so a product's index is p*i + (p-1)/x: the
    XOR of lanes << k over the bits k of p, and of p >> 1 in every lane.  It
    has degree <= D - 1, so no lane carries into the next while D <= 32;
    irreducibles and exhaustive_scan, the ways in, refuse D above
    MAX_SIEVE_DEGREE = 26.

    The result is an array("I"): the survivors' indices i < 2^31, collected
    by `re`, then turned into 2i+1 one int of _LANES lanes at a time, shifted
    left by one and ORed with a 1 in every lane; the shift carries no bit
    into the next lane.
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
    for d in range(3, max_degree // 2 + 1):
        last = max_degree - d  # the cofactors' degrees are d..last
        primes = [2 * m.start() + 1 for m in _FLAG.finditer(cand, 1 << d - 1, 1 << d)]
        if d < _ROUGH_FROM:
            batches = _multiples_of_x_plus_1(1 << d - 2, 1 << last - 1)
        else:
            found = array("I", map(re.Match.start, _FLAG.finditer(cand, 1 << d - 1, 1 << last)))
            batches = [(int.from_bytes(found, sys.byteorder), len(found))]
        for lanes, n in batches:
            ones = int.from_bytes(b"\x01\x00\x00\x00" * n, "little")
            for p in primes:
                prod = (p >> 1) * ones
                for k in range(d + 1):
                    if p >> k & 1:
                        prod ^= lanes << k
                for i in memoryview(prod.to_bytes(4 * n, sys.byteorder)).cast("I"):
                    cand[i] = 0
    wheel = 4 * len(out)  # bytes of the wheel primes, which are masks already
    out.extend(map(re.Match.start, _FLAG.finditer(cand)))
    del cand
    lanes = memoryview(out).cast("B")
    for k in range(wheel, len(lanes), 4 * _LANES):
        part = lanes[k:k + 4 * _LANES]
        ones = int.from_bytes(b"\x01\x00\x00\x00" * (len(part) // 4), "little")
        part[:] = (int.from_bytes(part, sys.byteorder) << 1 | ones).to_bytes(len(part), sys.byteorder)
    return out


def irreducibles(max_degree: int) -> list[Poly]:
    """All irreducible polynomials of degree 1..max_degree, canonically ordered."""
    if not 1 <= max_degree <= MAX_SIEVE_DEGREE:
        raise ValueError(f"max_degree must be at least 1 and at most {MAX_SIEVE_DEGREE} "
                         f"(factorizer.MAX_SIEVE_DEGREE), got {max_degree}")
    return [Poly(m) for m in _irreducible_masks(max_degree)]
