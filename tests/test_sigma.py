"""Sum-of-divisors: multiplicativity, conjugation identities, perfectness."""

from __future__ import annotations

import random

import pytest

import oracles
from gf2sigma.factorizer import factor
from gf2sigma.gf2poly import ONE, X, ZERO, Poly, gcd, parse_expr
from gf2sigma.sigma import (
    check_geometric_split,
    is_indecomposable_perfect,
    is_perfect,
    sigma,
    sigma_prime_power,
)

M1 = Poly(0b111)


def trivial_perfect(n: int) -> Poly:
    """x^(2^n - 1) * (x+1)^(2^n - 1)."""
    return (X * (X + ONE)) ** ((1 << n) - 1)


def test_value_and_factorization_consistent():
    rng = random.Random(20)
    for _ in range(300):
        a = Poly(rng.getrandbits(31) or 1)
        sv = sigma(a)
        assert sv.factored.value() == sv.value


def test_factored_parts_merge_to_factor_of_value():
    """sigma factors each sigma(q^e) apart and merges the exponents; the
    result must be the factorization of the whole value, also where parts
    share primes (sigma(x^2) = sigma((x+1)^2) = x^2+x+1)."""
    assert sigma(X ** 2 * (X + ONE) ** 2).factored == factor(M1 * M1)
    rng = random.Random(22)
    odd = [Poly(m) for m in oracles.sieve_irreducibles(6) if m > 3]
    for _ in range(200):
        a = X ** rng.randint(0, 8) * (X + ONE) ** rng.randint(0, 8)
        for q in rng.sample(odd, rng.randint(0, 3)):
            a = a * q ** rng.randint(1, 4)
        sv = sigma(a)
        assert sv.factored == factor(sv.value), a


def test_multiplicativity_1000_coprime_pairs():
    rng = random.Random(21)
    checked = 0
    while checked < 1000:
        p = Poly(rng.getrandbits(33) or 1)
        q = Poly(rng.getrandbits(33) or 1)
        if gcd(p, q) != ONE:
            continue
        assert sigma(p * q).value == sigma(p).value * sigma(q).value
        checked += 1


def test_degree_preserved(catalog):
    rng = random.Random(22)
    for _ in range(1000):
        a = Poly(rng.getrandbits(61) or 1)
        assert sigma(a).value.degree == a.degree
    for e in catalog.entries:
        assert sigma(e.poly).value.degree == e.poly.degree


def test_matches_divisor_scan_exhaustively_to_degree_8():
    for m in range(2, 1 << 9):
        assert sigma(Poly(m)).value.mask == oracles.divisor_sigma_scan(m)


def test_sigma_of_one_and_zero():
    assert sigma(ONE).value == ONE
    with pytest.raises(ValueError):
        sigma(ZERO)


@pytest.mark.parametrize("test", [is_perfect, is_indecomposable_perfect])
def test_perfectness_of_zero_is_refused(test):
    with pytest.raises(ValueError, match="^perfectness of the zero polynomial is undefined$"):
        test(ZERO)


def test_prime_power_equals_geometric_sum():
    for p in [X, X + ONE, M1, parse_expr("x^3+x+1")]:
        expect = ONE
        for k in range(1, 12):
            expect = expect * p + ONE  # 1 + p + ... + p^k, built up independently
            assert sigma_prime_power(p, k) == expect
            assert sigma(p ** k).value == expect


def test_prime_power_validation():
    with pytest.raises(ValueError):
        sigma_prime_power(X, 0)
    with pytest.raises(ValueError):
        sigma_prime_power(parse_expr("x^2+1"), 2)


def test_palindrome_of_sigma_x_even_powers_h_92():
    for h in range(1, 93):
        v = sigma_prime_power(X, 2 * h)
        assert v.star() == v


def test_bar_conjugation_of_sigma_x_plus_1_even_powers_h_92():
    for h in range(1, 93):
        assert sigma_prime_power(X + ONE, 2 * h) == sigma_prime_power(X, 2 * h).bar()


def test_m1_never_divides_sigma_of_stype_even_powers(catalog):
    m1 = catalog["M_1"].poly
    for e in catalog.stypes:
        for h in range(1, 24):
            assert sigma_prime_power(e.poly, 2 * h) % m1 != ZERO


def test_odd_prime_divisors_of_larger_perfects(t_polys):
    """For B in T_6..T_11 and every odd prime Q | B: (1+Q) | B, or some
    sigma(Q^(2h)) | B."""
    for name in ["T_6", "T_7", "T_8", "T_9", "T_10", "T_11"]:
        b = t_polys[name]
        for q, _ in factor(b):
            if q.degree == 1:
                continue
            witnessed = b % (q + ONE) == ZERO
            h_cap = b.degree // (2 * q.degree)
            witnessed = witnessed or any(
                b % sigma_prime_power(q, 2 * h) == ZERO for h in range(1, h_cap + 1)
            )
            assert witnessed, f"{name}: no divisor witness for {q}"


def test_geometric_split_identity():
    for p in [X, X + ONE, M1, parse_expr("x^4+x+1")]:
        for e in range(1, 25):
            assert check_geometric_split(p, e)
    with pytest.raises(ValueError):
        check_geometric_split(X, 0)
    with pytest.raises(ValueError):
        check_geometric_split(parse_expr("x^2+1"), 3)


def test_trivial_perfect_family():
    for n in range(1, 6):
        t = trivial_perfect(n)
        assert is_perfect(t)
        assert is_indecomposable_perfect(t)


def test_known_perfects(t_polys):
    for name, p in t_polys.items():
        assert is_perfect(p), name
        assert is_indecomposable_perfect(p), name


def test_not_perfect_examples():
    for p in [X, M1, X ** 3, parse_expr("x^2*(x+1)")]:
        assert not is_perfect(p)
    assert is_perfect(ONE)  # sigma(1) = 1: the unit is trivially perfect


def test_indecomposable_requires_perfect_input():
    with pytest.raises(ValueError):
        is_indecomposable_perfect(X)

