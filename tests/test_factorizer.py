"""Factorization engine: round trips, oracle agreement, sieve counts."""

from __future__ import annotations

import hashlib
import math
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_left
from collections import Counter

import pytest

import oracles
from gf2sigma import factorizer, search
from gf2sigma.factorizer import (
    Factorization,
    _irreducible_masks,
    factor,
    irreducibles,
    is_irreducible,
    is_squarefree,
    omega,
    rad,
)
from gf2sigma.gf2poly import ONE, X, ZERO, Poly, parse_expr
from gf2sigma.sigma import sigma_prime_power


def test_roundtrip_10k_random_degree_64():
    rng = random.Random(64)
    for _ in range(10_000):
        p = Poly(rng.getrandbits(65) or 1)
        f = factor(p)
        assert f.value() == p
        keys = [(q.degree, q.mask) for q, _ in f]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(e >= 1 for _, e in f)


def test_factors_are_irreducible():
    rng = random.Random(65)
    for _ in range(300):
        p = Poly(rng.getrandbits(49) or 1)
        for q, _ in factor(p):
            assert is_irreducible(q)


def test_exhaustive_oracle_agreement_degree_16(factor_oracle_report):
    assert factor_oracle_report["cases"] == (1 << 17) - 2
    assert factor_oracle_report["mismatches"] == []


def test_irreducible_counts_match_necklace_formula():
    by_degree: dict[int, int] = {}
    for p in irreducibles(12):
        by_degree[p.degree] = by_degree.get(p.degree, 0) + 1
    assert by_degree == {d: oracles.necklace_count(d) for d in range(1, 13)}


@pytest.mark.parametrize("max_degree", range(15))
def test_sieve_matches_trial_division(max_degree):
    # D < 6 marks nothing, D < 10 marks only with the odd-weight cofactors and
    # D >= 10 with the flagged ones too; D < 3 puts the wheel prime x^3+x+1
    # past the array
    assert _irreducible_masks(max_degree).tolist() == oracles.sieve_irreducibles(max_degree)


def test_sieve_marks_only_past_the_wheel(monkeypatch):
    """The wheel clears every multiple of x, x+1, x^2+x+1 and x^3+x+1, so each
    degree d = 3..D//2 reads its marking primes from the flags of degree d,
    and they start at x^3+x^2+1."""
    pattern, read = factorizer._FLAG, []

    class Flags:
        def finditer(self, flags, lo=0, hi=sys.maxsize):
            found = list(pattern.finditer(flags, lo, hi))
            if hi == 2 * lo:  # one degree: the primes (at odd D no cofactor range is one degree)
                read.append([2 * m.start() + 1 for m in found])
            return iter(found)

    monkeypatch.setattr(factorizer, "_FLAG", Flags())
    assert _irreducible_masks(13).tolist() == oracles.sieve_irreducibles(13)
    marking = [p for primes in read for p in primes]
    assert marking == oracles.sieve_irreducibles(6)[4:]  # degrees 3..6, both cofactor sources
    assert marking[0] == 0b1101
    assert not set(marking) & {0b10, 0b11, 0b111, 0b1011}


@pytest.fixture(scope="module")
def sieve22():
    return _irreducible_masks(22)


def test_sieve_to_degree_22_counts(sieve22):
    by_degree = Counter(m.bit_length() - 1 for m in sieve22)
    assert by_degree == {d: oracles.necklace_count(d) for d in range(1, 23)}


@pytest.mark.parametrize("max_degree", range(1, 23))
def test_sieve_is_a_prefix_of_the_degree_22_sieve(sieve22, max_degree):
    """D sets the degrees 3..D//2 that mark and their cofactor degrees d..D-d."""
    assert _irreducible_masks(max_degree) == sieve22[:bisect_left(sieve22, 2 << max_degree)]


# SHA-256 of the masks as little-endian uint32, and their number
SIEVE_DIGESTS = {
    22: ("db56a6dc5d87d9a992c0ebae91654d63f8087b917b729579d74b23fff744d2e9", 401_428),
    24: ("d38f0a7a46d59582b4e8abae7f14dae1e0db6ffb20ee8142dad39349824b0437", 1_465_020),
}


@pytest.mark.parametrize("max_degree", sorted(SIEVE_DIGESTS))
def test_sieve_output_is_pinned(max_degree):
    masks = _irreducible_masks(max_degree)
    if sys.byteorder == "big":
        masks.byteswap()
    assert (hashlib.sha256(masks).hexdigest(), len(masks)) == SIEVE_DIGESTS[max_degree]


def test_sieve_to_degree_20():
    primes = _irreducible_masks(20)
    by_degree = Counter(m.bit_length() - 1 for m in primes)
    assert by_degree == {d: oracles.necklace_count(d) for d in range(1, 21)}
    assert len(primes) == 111_013
    assert all(a < b for a, b in zip(primes, primes[1:]))
    rng = random.Random(20)
    high = primes[bisect_left(primes, 1 << 13):]
    sample = rng.sample(high, 200) + [rng.randrange(1 << 13, 1 << 21) for _ in range(400)]
    prime_set = set(high)
    verdicts = [is_irreducible(Poly(m)) for m in sample]
    assert verdicts == [m in prime_set for m in sample]
    assert verdicts.count(False) > 300


def test_sieve_is_compact():
    """The flags cover only the odd masks and the result is an array("I"), so
    the degree-20 sieve's traced peak stays below 4 MiB; a list of its
    111,013 masks as int objects alone takes about 4 MiB."""
    _irreducible_masks(10)  # warm the module-level tables and the re cache
    tracemalloc.start()
    try:
        primes = _irreducible_masks(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(primes, array) and primes.typecode == "I"
    assert peak < 4 << 20


def test_sieve_refuses_degrees_above_its_cap(monkeypatch):
    """Refused before the 2^D-byte sieve starts; the scan's ceiling reads the same cap."""
    assert factorizer.MAX_SIEVE_DEGREE == search.MAX_SCAN_CEILING == 26

    def no_sieve(max_degree):
        raise AssertionError("sieve started")

    monkeypatch.setattr(factorizer, "_irreducible_masks", no_sieve)
    with pytest.raises(ValueError, match="at most 26"):
        irreducibles(27)


def test_sieve_output_sorted_and_irreducible():
    irr = irreducibles(9)
    keys = [(p.degree, p.mask) for p in irr]
    assert keys == sorted(keys)
    assert irr[0] == X
    assert irr[1] == X + ONE
    assert irr[2] == Poly(0b111)
    assert all(is_irreducible(p) for p in irr)
    assert [p.mask for p in irreducibles(8)] == oracles.sieve_irreducibles(8)


def test_is_irreducible_basics():
    assert is_irreducible(X)
    assert is_irreducible(X + ONE)
    assert is_irreducible(Poly(0b111))
    assert not is_irreducible(parse_expr("x^2+1"))  # (x+1)^2
    assert not is_irreducible(Poly(0b111) ** 2)
    for degenerate in (ZERO, ONE):
        with pytest.raises(ValueError):
            is_irreducible(degenerate)


def test_is_irreducible_matches_trial_division_to_degree_14():
    """Covers d = 1, where the distinct-degree loop takes no step, and the
    products of two primes of degree d / 2 (6 + 6 at d = 12, 7 + 7 at
    d = 14), whose first part is p itself at the loop's last step."""
    primes = oracles.sieve_irreducibles(14)
    assert [m for m in range(2, 1 << 15) if is_irreducible(Poly(m))] == primes


def test_is_irreducible_verdicts_are_pinned():
    """is_irreducible over a seeded corpus of degree 6..525:

    - random inputs, and smooth products of primes of degree <= 12;
    - q * c with q prime of degree k = bit_length(deg) + 1 .. + 3 and every
      prime of c of degree >= k: a large known irreducible c, or distinct
      primes of degree 13;
    - q * r with deg q = deg r = deg / 2 (r = q.bar() for the large q), and
      q^2, q^3;
    - known irreducibles f of degree 64, 127, 256 and 512, f.bar() and f.star().

    Every constructed input's verdict is known; the "mask verdict" lines of
    the whole corpus, random inputs included, are hashed."""
    rng = random.Random("verdicts")
    small = irreducibles(13)
    big = [parse_expr(t) for t in ("x^64+x^4+x^3+x+1", "x^127+x+1", "x^127+x^63+1",
                                   "x^256+x^10+x^5+x^2+1", "x^512+x^8+x^5+x^2+1")]
    known = {}  # input -> expected verdict
    for f in big:
        known |= {f: True, f.bar(): True, f.star(): True}
    for f in big[:4]:
        known |= {f * f.bar(): False, f ** 2: False}
    known |= {big[0] ** 3: False, big[1] ** 3: False}
    for d in range(3, 14):
        q, r = rng.sample([p for p in small if p.degree == d], 2)
        known |= {q * r: False, q ** 2: False, q ** 3: False}
    deg13 = [p for p in small if p.degree == 13]
    cofactors = [*big, *(math.prod(rng.sample(deg13, rng.randint(4, 38)), start=ONE) for _ in range(4))]
    for c in cofactors:
        for off in (1, 2, 3):
            k = (c.degree + 10).bit_length() + off
            assert (c.degree + k).bit_length() + off == k <= 13
            known[rng.choice([p for p in small if p.degree == k]) * c] = False
    corpus = list(known)
    for _ in range(100):
        p = ONE
        target = rng.randint(17, 512)
        while p.degree < target:
            p = p * rng.choice(small[:-len(deg13)])
        corpus.append(p)
        known[p] = False
    for _ in range(300):
        d = rng.randint(17, 512)
        corpus.append(Poly(rng.getrandbits(d) | 1 << d))
    verdicts = [is_irreducible(p) for p in corpus]
    assert [v for p, v in zip(corpus, verdicts) if p in known] == [known[p] for p in corpus if p in known]
    lines = "\n".join(f"{p.mask:x} {int(v)}" for p, v in zip(corpus, verdicts))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert (len(corpus), sum(verdicts), digest) == (
        485, 17, "c986d07bd21585cfbfc84eb29cc4172876d85046309eb328bd54348327bc6598")


@pytest.fixture
def calls(monkeypatch):
    """Counts the gcds and the squarings the irreducibility test takes."""
    counts = Counter()
    for name in ("_gcd", "_sqr_mod"):
        def counted(a, b, f=getattr(factorizer, name), name=name):
            counts[name] += 1
            return f(a, b)

        monkeypatch.setattr(factorizer, name, counted)
    return counts


@pytest.mark.parametrize("d", [64, 256, 512])
def test_planted_factor_is_found(d, calls):
    """p = q * c with q irreducible of degree k = 1 .. bit_length(d) + 2 stops
    by the k-th squaring.  Past bit_length(d), c is drawn irreducible, so q
    is p's least prime."""
    bound = d.bit_length()
    rng = random.Random(f"planted:{d}")
    small = oracles.sieve_irreducibles(bound + 2)
    for k in range(1, bound + 3):
        q = rng.choice([m for m in small if m.bit_length() - 1 == k])
        c = (1 << (d - k)) | rng.getrandbits(d - k) | 1
        if k > bound:
            while not is_irreducible(Poly(c)):
                c = (1 << (d - k)) | rng.getrandbits(d - k) | 1
        p = Poly(q) * Poly(c)
        calls.clear()
        assert not is_irreducible(p), k
        assert calls["_sqr_mod"] <= k


@pytest.mark.parametrize("text", ["x^127+x+1", "x^521+x^32+1", "x^607+x^105+1"])
def test_irreducible_trinomials_cost_half_their_degree(text, calls):
    p = parse_expr(text)
    assert is_irreducible(p)
    assert calls == {"_sqr_mod": p.degree // 2, "_gcd": p.degree // 2}


def test_is_squarefree_matches_exponents():
    rng = random.Random(66)
    for _ in range(2000):
        p = Poly(rng.getrandbits(33) or 1)
        assert is_squarefree(p) == all(e == 1 for _, e in factor(p))
    assert is_squarefree(ONE)


def test_omega_and_rad():
    rng = random.Random(67)
    for _ in range(500):
        p = Poly(rng.getrandbits(33) or 1)
        f = factor(p)
        assert omega(p) == len(f)
        prod = ONE
        for q, _ in f:
            prod = prod * q
        assert rad(p) == prod
        assert rad(p * p) == rad(p)
    assert omega(ONE) == 0
    assert rad(ONE) == ONE


def test_factor_of_one_is_empty():
    f = factor(ONE)
    assert len(f) == 0
    assert f.value() == ONE
    assert f.render() == "1"
    assert f.to_json() == []


def test_factor_of_zero_rejected():
    with pytest.raises(ValueError):
        factor(ZERO)


def test_repeated_factor_outputs_are_pinned():
    """q^k * r for k in {2, 3, 8, 16} and sigma(q^e) = (1+q)^e for e in
    {3, 7, 15}, over seeded primes q of degree 32..256: the squarefree
    decomposition's square roots and doubled multiplicities.  Each
    factorization re-multiplies to its input and has irreducible factors; the
    ordered "prime^exponent" lines are hashed."""
    rng = random.Random(28)

    def prime(d):
        while True:
            q = rng.getrandbits(d) | 1 << d | 1
            if is_irreducible(Poly(q)):
                return q

    inputs = []
    for d in (32, 64, 128, 256):
        q = prime(d)
        r = rng.getrandbits(24) | 1 << 24
        inputs += [(Poly(q) ** k * Poly(r)).mask for k in (2, 3, 8, 16)]
        inputs += [sigma_prime_power(Poly(q), e).mask for e in (3, 7, 15)]
    lines = []
    for m in inputs:
        f = factorizer._factor_mask(m)
        assert Factorization(tuple((Poly(q), e) for q, e in f)).value().mask == m
        assert all(is_irreducible(Poly(q)) for q, _ in f)
        lines.append(" ".join(f"{q:x}^{e}" for q, e in f))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (28, "ec80b6c5d301aeddab7ad6fe66c59ed84478236fdd37244d3f2ed901dca348ea")


def test_render_uses_catalog_names(names):
    t1 = parse_expr("x^2*(x+1)*(x^2+x+1)")
    assert factor(t1).render(names) == "(x)^2 * (x+1) * M_1"
    assert factor(t1).render() == "(x)^2 * (x+1) * (x^2+x+1)"


def test_sigma_of_even_prime_powers_squarefree_and_odd(family):
    """sigma(S^(2h)) is squarefree and odd for S in {x, x+1} and the roster,
    h <= 10."""
    for s in [X, X + ONE, *family]:
        for h in range(1, 11):
            v = sigma_prime_power(s, 2 * h)
            assert is_squarefree(v)
            assert v.is_odd()
