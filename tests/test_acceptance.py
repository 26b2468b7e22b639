"""Acceptance suite: one test per shipped acceptance criterion.

Each test re-verifies one end-to-end deliverable and reports a single line

    ACCEPTANCE <n> (<name>): PASS in <time>s (bound <bound>s)

through the pytest terminal reporter, so the lines are visible even in a
captured run.  A criterion that fails its substance or its time bound shows
up as an ordinary pytest failure (and its PASS line is not printed).
"""

from __future__ import annotations

import random
import time

import pytest

import expected
import oracles
from gf2sigma.catalog import build_catalog, one_plus_product
from gf2sigma.factorizer import irreducibles, is_irreducible, is_squarefree
from gf2sigma.gf2poly import ONE, X, ZERO, Poly, gcd
from gf2sigma.search import (
    ExponentTuple,
    compute_sigma_exponents,
    run_pipeline,
    sigma_mersenne_table,
    sigma_s_table,
    sigma_x2h_table,
)
from gf2sigma.sigma import is_indecomposable_perfect, is_perfect, sigma, sigma_prime_power

H_MAX = 92


class _Announcer:
    def __init__(self, reporter):
        self._reporter = reporter

    def line(self, text: str) -> None:
        if self._reporter is not None:
            self._reporter.write_line(text)
        else:  # pragma: no cover - reporter exists in every pytest run
            print(text)

    def ok(self, num: int, name: str, elapsed: float, bound: float) -> None:
        assert elapsed < bound, (
            f"criterion {num} ({name}) exceeded its time bound: "
            f"{elapsed:.2f}s >= {bound:g}s"
        )
        self.line(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (bound {bound:g}s)")


@pytest.fixture()
def announce(request):
    return _Announcer(request.config.pluginmanager.get_plugin("terminalreporter"))


def _table_as_name_maps(rows, names):
    return {
        (r.base_name, r.exponent): {names[q]: e for q, e in r.factorization}
        for r in rows
    }


def test_criterion_1_catalog_verification(announce):
    """Fresh catalog build plus independent re-checks of every entry."""
    started = time.perf_counter()
    cat = build_catalog()  # itself raises CatalogError if any invariant fails
    assert (len(cat.mersennes), len(cat.stypes), len(cat.perfects)) == (13, 15, 11)

    for e in cat.mersennes:
        a, b = expected.MERSENNE_PARAMS[e.name]
        assert e.poly == one_plus_product(ONE, a, b, 1), e.name
        assert is_irreducible(e.poly), e.name
    m1 = cat["M_1"].poly
    for e in cat.stypes:
        a, b, c = expected.STYPE_PARAMS[e.name]
        assert e.poly == one_plus_product(m1, a, b, c), e.name
        assert is_irreducible(e.poly), e.name

    for e in cat.entries:
        assert cat.names_by_poly[e.poly.bar()] == e.bar_partner, e.name

    assert sum(e.degree for e in cat.mersennes + cat.stypes) == 184
    announce.ok(1, "catalog verification", time.perf_counter() - started, 1.0)


def test_criterion_2_x_power_table(announce, catalog, names):
    """sigma(x^2h) / sigma((x+1)^2h) rows over the family, for every h."""
    started = time.perf_counter()
    rows = sigma_x2h_table(catalog=catalog)
    got = _table_as_name_maps(rows, names)
    assert got == expected.X2H_TABLE
    for base in ("x", "x+1"):
        assert {e for (b, e) in got if b == base} == {2, 4, 6, 8, 12, 14}
    assert len({tuple(sorted(v.items())) for v in got.values()}) == 9
    announce.ok(2, "x-power sigma table", time.perf_counter() - started, 10.0)


def test_criterion_3_mersenne_power_table(announce, catalog, names):
    """sigma(M^2h) rows that stay inside the family, for every h."""
    started = time.perf_counter()
    rows = sigma_mersenne_table(catalog=catalog)
    got = _table_as_name_maps(rows, names)
    assert got == expected.MERSENNE_TABLE
    assert len(got) == 6
    announce.ok(3, "Mersenne-power sigma table", time.perf_counter() - started, 60.0)


def test_criterion_4_s_power_table(announce, catalog, names):
    """sigma(S^2h) rows that stay inside the family, for every h."""
    started = time.perf_counter()
    rows = sigma_s_table(catalog=catalog)
    got = _table_as_name_maps(rows, names)
    assert got == expected.S_TABLE
    assert len(got) == 2
    announce.ok(4, "S-power sigma table", time.perf_counter() - started, 10.0)


def test_criterion_5_enumeration_pipeline(announce, names):
    """Fresh three-step enumeration; closure must equal the cataloged
    perfect polynomials (hard requirement).  Stage counts are compared
    against the calibration targets and deviations are reported."""
    started = time.perf_counter()
    report = run_pipeline()
    elapsed = time.perf_counter() - started

    measured = (report.step1_count, report.step2_count, report.step3_count)
    assert measured == expected.MEASURED_COUNTS
    assert measured[0] == expected.CALIBRATION_TARGETS[0]
    for i, (got, want) in enumerate(zip(measured, expected.CALIBRATION_TARGETS), start=1):
        if got == want:
            announce.line(f"  step {i}: {got} (calibration target {want}: match)")
        else:
            announce.line(
                f"  step {i}: {got} (calibration target {want}: DEVIATION, "
                f'see README section "Enumeration calibration")'
            )

    assert {names[p] for p in report.perfect_survivors} == expected.SURVIVOR_NAMES
    assert set(report.closure_names) == expected.ALL_PERFECT_NAMES
    assert len(report.closure_names) == 11
    announce.line("  closure under conjugation: all 11 cataloged perfect polynomials")
    announce.ok(5, "three-step enumeration and closure", elapsed, 60.0)


def test_criterion_6_perfectness_suite(announce, t_polys):
    """Every cataloged perfect polynomial and the first five trivial ones
    satisfy sigma(A) = A, are indecomposable, and pair up under bar."""
    started = time.perf_counter()
    for n in range(1, 6):
        p = (X * (X + ONE)) ** (2**n - 1)
        assert is_perfect(p), n
        assert is_indecomposable_perfect(p), n
    for name, p in t_polys.items():
        assert is_perfect(p), name
        assert is_indecomposable_perfect(p), name
        partner = expected.BAR_PARTNERS[name]
        assert p.bar() == t_polys[partner], (name, partner)
    announce.ok(6, "perfect polynomial checks", time.perf_counter() - started, 1.0)


def test_criterion_7_exhaustive_scan(announce, scan_degree20, t_polys):
    """Exhaustive scan to degree 20 finds exactly 14 perfect polynomials
    (3 trivial + the 11 cataloged ones); serial and parallel runs agree."""
    single = scan_degree20["single"]
    parallel = scan_degree20["parallel"]
    assert single == parallel
    assert len(single) == 14
    trivials = {(X * (X + ONE)) ** (2**n - 1) for n in range(1, 4)}
    assert set(single) == trivials | set(t_polys.values())
    assert single == sorted(single, key=lambda p: (p.degree, p.mask))

    s_t = scan_degree20["single_seconds"]
    p_t = scan_degree20["parallel_seconds"]
    assert s_t < 600.0
    assert p_t < 120.0
    announce.line(
        f"  degree <= 20: 14 perfect polynomials "
        f"(single worker {s_t:.2f}s, 8 workers {p_t:.2f}s)"
    )
    announce.ok(7, "exhaustive scan to degree 20", s_t + p_t, 720.0)


def test_criterion_8_property_suites(announce, catalog, factor_oracle_report):
    """The module-level property suites, re-run in one place: oracle
    agreement, multiplicativity, palindromes, conjugation, squarefreeness,
    non-divisibility, exponent formulas, irreducible counts."""
    started = time.perf_counter()

    # factorization agrees with an independent oracle on every polynomial
    # of degree <= 16 (the fixture sweeps all of them once per session)
    assert factor_oracle_report["cases"] == (1 << 17) - 2
    assert factor_oracle_report["mismatches"] == []
    announce.line(
        f"  factor-oracle agreement: {factor_oracle_report['cases']} cases, 0 mismatches"
    )

    # sigma is multiplicative on coprime arguments
    rng = random.Random(0xACCE)
    checked = 0
    while checked < 1000:
        a = Poly(rng.getrandbits(24) | (1 << 23))
        b = Poly(rng.getrandbits(24) | (1 << 23))
        if gcd(a, b) != ONE:
            continue
        assert sigma(a * b).value == sigma(a).value * sigma(b).value
        checked += 1
    announce.line("  multiplicativity: 1000 coprime pairs")

    # sigma(x^2h) is a palindrome and sigma((x+1)^2h) is its conjugate
    for h in range(1, H_MAX + 1):
        sx = sigma_prime_power(X, 2 * h)
        assert sx.star() == sx
        assert sigma_prime_power(X + ONE, 2 * h) == sx.bar()
    announce.line(f"  palindrome + conjugation of sigma(x^2h): h <= {H_MAX}")

    # sigma(S^2h) is squarefree and odd for every family base
    bases = [X, X + ONE] + [e.poly for e in catalog.mersennes + catalog.stypes]
    for q in bases:
        for h in range(1, 11):
            v = sigma_prime_power(q, 2 * h)
            assert is_squarefree(v)
            assert not v.is_even()
    announce.line(f"  sigma(S^2h) squarefree and odd: {len(bases)} bases, h <= 10")

    # M_1 never divides sigma(S^2h) for an S-type base
    m1 = catalog["M_1"].poly
    for e in catalog.stypes:
        for h in range(1, 24):
            assert sigma_prime_power(e.poly, 2 * h) % m1 != ZERO
    announce.line("  M_1 does not divide sigma(S^2h): 15 bases, h <= 23")

    # the sigma exponent formulas match direct computation on the
    # parameter tuples of the 11 cataloged perfect polynomials
    targets = (
        [X, X + ONE]
        + [catalog[f"M_{i}"].poly for i in range(1, 6)]
        + [catalog[f"S_{j}"].poly for j in range(1, 9)]
    )
    for name, (a, b, cs, ds) in expected.PERFECT_PARAMS.items():
        t = ExponentTuple.from_exponents(a, b, cs, ds)
        se = compute_sigma_exponents(t)
        direct = ONE
        for base, e in zip(targets, (t.a, t.b, *t.c, *t.d)):
            if e:
                direct = direct * sigma_prime_power(base, e)
        formula = ONE
        for base, e in zip(targets, (se.alpha, se.beta, *se.gamma, *se.delta)):
            formula = formula * base**e
        assert formula == direct, name
    announce.line("  sigma exponent formulas vs direct computation: 11 parameter sets")

    # irreducible counts per degree match the necklace-counting formula
    by_degree: dict[int, int] = {}
    for q in irreducibles(12):
        by_degree[q.degree] = by_degree.get(q.degree, 0) + 1
    for d in range(1, 13):
        assert by_degree[d] == oracles.necklace_count(d), d
    announce.line("  irreducible counts match the necklace formula: degrees 1..12")

    announce.ok(8, "property suites", time.perf_counter() - started, 60.0)
