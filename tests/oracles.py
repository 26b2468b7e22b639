"""Independent reference implementations used to cross-check the library.

Nothing in this module imports from the package under test: polynomials over
GF(2) are plain ints (bit i = coefficient of x^i) and every algorithm is the
naive textbook version, so agreement with the fast implementations is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations


def degree(m: int) -> int:
    """Degree of the polynomial with bit mask m (-1 for the zero polynomial)."""
    return m.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product: one shift-XOR per set bit of a."""
    out = 0
    i = 0
    while a:
        if a & 1:
            out ^= b << i
        a >>= 1
        i += 1
    return out


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Long division: (quotient, remainder) with deg(remainder) < deg(b)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(b)
    q = 0
    while degree(a) >= db:
        shift = degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gcd(a: int, b: int) -> int:
    """Euclid's algorithm on masks."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return a


def valuation(a: int, q: int) -> int:
    """Largest e such that q^e divides the nonzero a, by long division."""
    e = 0
    while True:
        quo, rem = divmod_(a, q)
        if rem:
            return e
        a, e = quo, e + 1


def pow_(a: int, k: int) -> int:
    """k-fold product by repeated multiplication (no squaring shortcut)."""
    out = 1
    for _ in range(k):
        out = mul(out, a)
    return out


def bar(m: int) -> int:
    """Substitute x -> x+1 by expanding (x+1)^i for every set bit i."""
    out = 0
    i = 0
    while m:
        if m & 1:
            out ^= pow_(0b11, i)
        m >>= 1
        i += 1
    return out


def star(m: int) -> int:
    """Reverse the coefficient string of a nonzero polynomial."""
    if m == 0:
        raise ValueError("star of the zero polynomial")
    return int(bin(m)[2:][::-1], 2)


def sieve_irreducibles(max_degree: int) -> list[int]:
    """All irreducible masks of degree 1..max_degree, by trial division.

    A composite of degree d always has an irreducible factor of degree
    <= d//2, and masks are visited in ascending order (hence ascending
    degree), so testing against the primes found so far is complete.
    """
    primes: list[int] = []
    for m in range(2, 1 << (max_degree + 1)):
        d = degree(m)
        if not any(divmod_(m, p)[1] == 0 for p in primes if 2 * degree(p) <= d):
            primes.append(m)
    return primes


def smallest_factor_table(max_degree: int) -> list[int]:
    """spf[m] = smallest irreducible factor of m, or 0 when m has no factor
    of degree <= max_degree//2.

    Built by marking products of sieve primes, so the later factorization
    walk never invokes any library code.  Complete for every composite of
    degree <= max_degree because such a composite has an irreducible factor
    of degree <= max_degree//2.
    """
    size = 1 << (max_degree + 1)
    spf = [0] * size
    for p in sieve_irreducibles(max_degree // 2):
        dp = degree(p)
        for q in range(1, 1 << (max_degree - dp + 1)):
            m = mul(p, q)
            if m < size and spf[m] == 0:
                spf[m] = p
    return spf


def factor_with_table(m: int, spf: list[int]) -> list[tuple[int, int]]:
    """Complete factorization of m (degree >= 0) using a smallest-factor table.

    A cofactor with no table entry is irreducible, because the table covers
    every possible smallest factor at the sizes it was built for.
    """
    counts: dict[int, int] = {}
    while degree(m) >= 1:
        p = spf[m] or m
        e = 0
        while True:
            q, r = divmod_(m, p)
            if r:
                break
            m = q
            e += 1
        counts[p] = counts.get(p, 0) + e
    return sorted(counts.items(), key=lambda t: (degree(t[0]), t[0]))


def divisor_sigma_scan(m: int) -> int:
    """XOR of all divisors of m, found by scanning every candidate mask.

    Entirely independent of any factorization routine; only usable for
    small degrees (the scan is exponential in deg m).
    """
    out = 0
    for d in range(1, 1 << (degree(m) + 1)):
        if divmod_(m, d)[1] == 0:
            out ^= d
    return out


def mobius(n: int) -> int:
    """Moebius function by naive prime-by-prime division."""
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_count(d: int) -> int:
    """Number of degree-d irreducibles over GF(2): (1/d) * sum mu(e) 2^(d/e)."""
    return sum(mobius(e) * (1 << (d // e)) for e in range(1, d + 1) if d % e == 0) // d


def unpruned_perfect_scan(max_degree: int, primes: list[int]) -> list[int]:
    """Masks of all perfect polynomials of degree 1..max_degree, ascending.

    Visits every monic polynomial exactly once, as a product of powers of
    distinct primes taken in ascending order, carrying sigma alongside by
    sigma(p^(e+1)) = sigma(p^e) * p + 1.  Nothing is pruned.  `primes` must
    hold every irreducible of degree 1..max_degree, ascending; it is the one
    input taken from outside, because sieving degree 20 naively takes
    minutes.
    """
    found: list[int] = []

    def walk(i0: int, a: int, s: int, budget: int) -> None:
        for idx in range(i0, len(primes)):
            p = primes[idx]
            dp = degree(p)
            if dp > budget:
                break
            pe, se, rem = p, p ^ 1, budget - dp
            while True:
                a2, s2 = mul(a, pe), mul(s, se)
                if a2 == s2:
                    found.append(a2)
                if rem:
                    walk(idx + 1, a2, s2, rem)
                if rem < dp:
                    break
                pe, se, rem = mul(p, pe), mul(p, se) ^ 1, rem - dp

    walk(0, 1, 1, max_degree)
    return sorted(found)


def reference_perfect_scan(max_degree: int) -> list[int]:
    """Masks of all perfect polynomials of degree 1..max_degree, ascending.

    The pruned DFS with the gcd-state node.  A node a is a product of exact
    powers of a prefix primes[0..idx] with s = sigma(a); a perfect A below it
    needs r = s / gcd(s, a) to divide the rest, so deg r fits the remaining
    degree and r has no factor x, x+1 (once idx >= 1) or x^2+x+1 (once
    idx >= 2).  The next prime has degree <= deg r when r != 1 and comes no
    later than the first prime dividing r.  If P^e exactly divides a perfect
    A then sigma(P^e) divides A / P^e, so 2*e*deg P <= max_degree and only
    the primes of degree <= max_degree // 2 are sieved.
    """
    half = max_degree // 2
    primes = sieve_irreducibles(half)
    found: list[int] = []

    def node(idx: int, a: int, s: int, budget: int) -> None:
        r = divmod_(s, gcd(s, a))[0]
        if (degree(r) > budget or not r & 1 or (idx and not bin(r).count("1") & 1)
                or (idx >= 2 and not divmod_(r, 0b111)[1])):
            return
        if r == 1:
            found.append(a)
        if budget:
            children(idx + 1, a, s, r, budget)

    def children(i0: int, a: int, s: int, r: int, budget: int) -> None:
        cap = min(budget, half)
        top = cap if r == 1 else min(cap, degree(r))
        for idx in range(i0, len(primes)):
            p = primes[idx]
            dp = degree(p)
            if dp > top:
                break
            pe, se = p, p ^ 1
            for e in range(1, cap // dp + 1):
                node(idx, mul(a, pe), mul(s, se), budget - e * dp)
                pe, se = mul(pe, p), mul(se, p) ^ 1
            if r != 1 and not divmod_(r, p)[1]:
                break

    children(0, 1, 1, 1, max_degree)
    return sorted(found)
