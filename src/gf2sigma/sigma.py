"""The sum-of-divisors function sigma on GF(2)[x] and perfectness tests.

sigma is multiplicative; on a prime power it is the geometric sum
sigma(p^k) = 1 + p + ... + p^k, evaluated by Horner as k folds of
acc <- acc*p + 1.  A polynomial is perfect when sigma(A) = A, and an
indecomposable perfect does not factor into two coprime nonconstant
perfect polynomials.

`check_geometric_split` verifies the 2-adic splitting of a geometric sum:
writing the exponent as 2^t * s - 1 with s odd,
sigma(p^(2^t*s-1)) = (1+p)^(2^t-1) * sigma(p^(s-1))^(2^t),
which is the identity driving every exponent computation in `search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .gf2poly import Poly, _mul, _pow
from .factorizer import Factorization, _factor_mask, _is_irreducible_mask, factor

__all__ = [
    "SigmaValue",
    "check_geometric_split",
    "is_indecomposable_perfect",
    "is_perfect",
    "sigma",
    "sigma_prime_power",
]


def _geom_sum(pm: int, k: int) -> int:
    """1 + pm + ... + pm^k by Horner; k = 0 gives 1."""
    acc = 1
    for _ in range(k):
        acc = _mul(acc, pm) ^ 1
    return acc


def _split_2adic(k: int) -> tuple[int, int]:
    """Write k + 1 = 2^t * s with s odd and return (t, s)."""
    n = k + 1
    t = (n & -n).bit_length() - 1
    return t, n >> t


@dataclass(frozen=True)
class SigmaValue:
    """sigma of some polynomial, together with its own factorization."""

    value: Poly
    factored: Factorization


def sigma_prime_power(p: Poly, k: int) -> Poly:
    """sigma(p^k) = 1 + p + ... + p^k for irreducible p and k >= 1."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    if not _is_irreducible_mask(p.mask):
        raise ValueError(f"{p} is not irreducible")
    return Poly(_geom_sum(p.mask, k))


def sigma(a: Poly) -> SigmaValue:
    """Sum of all divisors of a nonzero polynomial, with its factorization."""
    if not a.mask:
        raise ValueError("sigma of the zero polynomial is undefined")
    # Factoring each sigma(q^e) apart and merging the exponents gives the
    # factorization of the product by unique factorization, at less cost.
    val = 1
    exponents: dict[Poly, int] = {}
    for q, e in _factor_mask(a.mask):
        part = _geom_sum(q, e)
        val = _mul(val, part)
        for r, k in factor(Poly(part)):
            exponents[r] = exponents.get(r, 0) + k
    return SigmaValue(value=Poly(val), factored=Factorization(tuple(sorted(exponents.items()))))


def is_perfect(a: Poly) -> bool:
    """True iff sigma(a) = a."""
    return _perfect_verdict(a)[1] is not None


def _perfect_verdict(a: Poly) -> tuple[int, bool | None]:
    """(sigma(a), indecomposable or None when a is not perfect), factoring a once.

    sigma is multiplicative, so if a proper nonempty subset of the
    prime-power factors multiplies to a perfect polynomial, the
    complementary subset does too; checking subsets is exactly the
    decomposability test.
    """
    if not a.mask:
        raise ValueError("perfectness of the zero polynomial is undefined")
    parts = _factor_mask(a.mask)
    sums = [_geom_sum(q, e) for q, e in parts]
    value = reduce(_mul, sums, 1)
    if value != a.mask:
        return value, None
    w = len(parts)
    powers = [_pow(q, e) for q, e in parts]
    for sub in range(1, (1 << w) - 1):
        prod = 1
        sig = 1
        for i in range(w):
            if (sub >> i) & 1:
                prod = _mul(prod, powers[i])
                sig = _mul(sig, sums[i])
        if prod == sig:
            return value, False
    return value, True


def is_indecomposable_perfect(a: Poly) -> bool:
    """True iff perfect and no proper coprime split into perfects exists."""
    indecomposable = _perfect_verdict(a)[1]
    if indecomposable is None:
        raise ValueError(f"{a} is not perfect")
    return indecomposable


def check_geometric_split(p: Poly, exponent: int) -> bool:
    """Verify sigma(p^e) = (1+p)^(2^t-1) * sigma(p^(s-1))^(2^t), e = 2^t*s-1."""
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    if not _is_irreducible_mask(p.mask):
        raise ValueError(f"{p} is not irreducible")
    t, s = _split_2adic(exponent)
    lhs = _geom_sum(p.mask, exponent)
    rhs = _mul(_pow(p.mask ^ 1, (1 << t) - 1), _pow(_geom_sum(p.mask, s - 1), 1 << t))
    return lhs == rhs
