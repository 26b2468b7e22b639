"""Sigma factor tables, exponent formulas, enumeration pipeline, exhaustive scan."""

from __future__ import annotations

import json
import multiprocessing
import random
from pathlib import Path

import pytest

import expected
import oracles
from gf2sigma import search
from gf2sigma.factorizer import _irreducible_masks, factor
from gf2sigma.gf2poly import ONE, X, ZERO, Poly
from gf2sigma.search import (
    DEFAULT_SCAN_CEILING,
    MAX_SCAN_CEILING,
    ExponentTuple,
    SearchError,
    compute_sigma_exponents,
    exhaustive_scan,
    pipeline_finalize,
    pipeline_step1,
    pipeline_step2,
    pipeline_step3,
    run_pipeline,
    sigma_mersenne_table,
    sigma_s_table,
    sigma_x2h_table,
)
from gf2sigma.sigma import _geom_sum, is_perfect, sigma_prime_power

THEOREM_GOLDEN = Path(__file__).parent / "data" / "theorem_golden.json"


def rows_as_name_maps(rows, names):
    """[(base_name, exponent, {prime_name: multiplicity})] for a table."""
    out = []
    for r in rows:
        fac = {names[q]: e for q, e in r.factorization}
        out.append((r.base_name, r.exponent, fac))
    return out


class TestTables:
    def test_x2h_table_exact(self, names):
        rows = rows_as_name_maps(sigma_x2h_table(), names)
        assert {(b, e): f for b, e, f in rows} == expected.X2H_TABLE
        assert len(rows) == 12
        # exponent sets per side, and nine distinct factorizations overall
        for side in ("x", "x+1"):
            assert {e for b, e, _ in rows if b == side} == {2, 4, 6, 8, 12, 14}
        distinct = {tuple(sorted(f.items())) for _, _, f in rows}
        assert len(distinct) == 9

    def test_mersenne_table_exact(self, names):
        rows = rows_as_name_maps(sigma_mersenne_table(), names)
        assert {(b, e): f for b, e, f in rows} == expected.MERSENNE_TABLE
        assert len(rows) == 6

    def test_s_table_exact(self, names):
        rows = rows_as_name_maps(sigma_s_table(), names)
        assert {(b, e): f for b, e, f in rows} == expected.S_TABLE
        assert len(rows) == 2

    def all_rows(self, catalog):
        return sigma_x2h_table() + sigma_mersenne_table() + sigma_s_table()

    def test_rows_recombine_to_sigma(self, catalog):
        base_of = {"x": X, "x+1": X + ONE}
        for e in catalog.mersennes + catalog.stypes:
            base_of[e.name] = e.poly
        for r in self.all_rows(catalog):
            assert r.factorization.value() == sigma_prime_power(base_of[r.base_name], r.exponent)
            assert all(m == 1 for _, m in r.factorization)  # squarefree values

    def test_rows_respect_degree_bound(self, catalog):
        base_deg = {"x": 1, "x+1": 1}
        for e in catalog.mersennes + catalog.stypes:
            base_deg[e.name] = e.degree
        for r in self.all_rows(catalog):
            assert r.exponent * base_deg[r.base_name] <= 184

    def test_only_first_five_mersennes_and_first_eight_stypes_appear(self, catalog, names):
        allowed = {f"M_{i}" for i in range(1, 6)} | {f"S_{j}" for j in range(1, 9)}
        for r in self.all_rows(catalog):
            assert {names[q] for q, _ in r.factorization} <= allowed

    def test_s2_to_s6_each_appear_in_exactly_one_row(self, catalog, names):
        counts = {f"S_{j}": 0 for j in range(2, 7)}
        for r in self.all_rows(catalog):
            for q, _ in r.factorization:
                if names[q] in counts:
                    counts[names[q]] += 1
        assert counts == {f"S_{j}": 1 for j in range(2, 7)}

    def test_row_json_shape(self, catalog):
        row = sigma_s_table()[0]
        data = row.to_json()
        assert data["base"] == "S_1"
        assert data["exponent"] == 2
        assert all(isinstance(h, str) and e == 1 for h, e in data["factors"])


# Targets for reading exponents of sigma values by repeated division.
def _sigma_exponent_targets(catalog):
    return [X, X + ONE] + [catalog[f"M_{i}"].poly for i in range(1, 6)] + [
        catalog[f"S_{j}"].poly for j in range(1, 9)
    ]


def _exponents_by_division(v, targets):
    out = []
    for q in targets:
        e = 0
        while True:
            quo, rem = divmod(v, q)
            if rem != ZERO:
                break
            v = quo
            e += 1
        out.append(e)
    assert v == ONE, "sigma value has a prime outside the expected support"
    return out


def _sigma_from_exponents(t: ExponentTuple, targets):
    v = ONE
    for base, e in zip(targets, (t.a, t.b, *t.c, *t.d)):
        if e:
            v = v * sigma_prime_power(base, e)
    return v


class TestExponentFormulas:
    def test_tuple_roundtrip(self):
        for a, b, cs, ds in expected.PERFECT_PARAMS.values():
            t = ExponentTuple.from_exponents(a, b, cs, ds)
            t.validate()
            assert (t.a, t.b, t.c, t.d) == (a, b, cs, ds)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExponentTuple(n=5, u=1, m=0, v=1).validate()
        with pytest.raises(ValueError):
            ExponentTuple(n=0, u=11, m=0, v=1).validate()

    def test_soundness_on_the_eleven_perfects(self, catalog):
        """sigma fixes each cataloged perfect, so the computed exponents of
        sigma(T) must equal T's own exponents."""
        for name, (a, b, cs, ds) in expected.PERFECT_PARAMS.items():
            t = ExponentTuple.from_exponents(a, b, cs, ds)
            se = compute_sigma_exponents(t)
            assert (se.alpha, se.beta, se.gamma, se.delta) == (a, b, cs, ds), name

    def test_pinned_first_mersenne_ninth_power(self, catalog):
        """sigma(M_1^9) = x * (x+1) * S_8^2: the S_8 exponent comes from the
        u_1 = 5 branch, and S_7 stays out."""
        t = ExponentTuple(n=0, u=1, m=0, v=1, n_i=(1, 0, 0, 0, 0), u_i=(5, 1, 1, 1, 1))
        se = compute_sigma_exponents(t)
        assert se.delta[6] == 0  # S_7
        assert se.delta[7] == 2  # S_8
        targets = _sigma_exponent_targets(catalog)
        s8 = catalog["S_8"].poly
        assert sigma_prime_power(catalog["M_1"].poly, 9) == X * (X + ONE) * s8 * s8
        assert _exponents_by_division(sigma_prime_power(catalog["M_1"].poly, 9), targets) \
            == [se.alpha, se.beta, *se.gamma, *se.delta]

    def test_dual_route_on_random_tuples(self, catalog):
        """Formula route vs. direct route (multiply sigma of the prime powers,
        then read exponents off by division) on random in-range tuples."""
        rng = random.Random(77)
        targets = _sigma_exponent_targets(catalog)
        u_pool = (1, 3, 5, 7, 9, 13, 15)
        u1_pool = (1, 3, 5, 7, 15)
        for _ in range(60):
            t = ExponentTuple(
                n=rng.randrange(4), u=rng.choice(u_pool),
                m=rng.randrange(4), v=rng.choice(u_pool),
                n_i=(rng.randrange(3), rng.randrange(3), rng.randrange(3),
                     rng.randrange(3), rng.randrange(3)),
                u_i=(rng.choice(u1_pool), rng.choice((1, 3)), rng.choice((1, 3)), 1, 1),
                m_j=(rng.randrange(3),) + tuple(rng.randrange(2) for _ in range(7)),
                v_j=(rng.choice((1, 3)),) + (1,) * 7,
            )
            t.validate()
            se = compute_sigma_exponents(t)
            got = _exponents_by_division(_sigma_from_exponents(t, targets), targets)
            assert got == [se.alpha, se.beta, *se.gamma, *se.delta], t

    def test_negative_exponent_rejected_by_name(self):
        for args, name in (((-1, 0), "a"), ((0, -3), "b"), ((1, 1, (0, -1)), "c_2"),
                           ((1, 1, (), (0, 0, -2)), "d_3")):
            with pytest.raises(ValueError, match=f"exponent {name} must be >= 0"):
                ExponentTuple.from_exponents(*args)

    def test_generated_system_matches_oracle(self, catalog):
        """Every entry v_Q(sigma(P^e)) of the system, for each shape prime P,
        each exponent e of its box and each shape prime Q, by long division."""
        bases = [t.mask for t in _sigma_exponent_targets(catalog)]
        system = search._sigma_system()
        assert len(system) == len(bases) == len(search._BOXES)
        pairs = 0
        for p, vectors, box in zip(bases, system, search._BOXES):
            assert set(vectors) == set(box)
            for e, packed in vectors.items():
                sigma_pe = _geom_sum(p, e)
                assert list(search._unpack(packed)) == [oracles.valuation(sigma_pe, q) for q in bases], (p, e)
                pairs += 1
        assert pairs == 145

    def test_steps_read_only_fixed_primes(self, catalog):
        """The runs cover the shape once, and a run's equations have no term
        from a prime fixed after it, for any exponent in that prime's box."""
        runs, order = search._RUNS, search._ORDER
        assert order == [p for first, count in runs for p in range(first, first + count)]
        assert sorted(order) == list(range(len(search._BOXES)))
        assert runs[0] == (0, 3)  # step 1 enumerates x, x+1, M_1 itself
        system = search._sigma_system()
        for k, (first, count) in enumerate(runs[1:], 1):
            later = order[order.index(first):]
            for p in later:
                for e, packed in system[p].items():
                    assert search._unpack(packed)[first:first + count] == (0,) * count, (k, p, e)

    def test_packed_fields_cannot_overflow(self, catalog):
        """v_Q(sigma(A)) <= deg A, and deg A stays below 2^_W over the box."""
        degrees = [t.degree for t in _sigma_exponent_targets(catalog)]
        assert sum(max(box) * d for box, d in zip(search._BOXES, degrees)) < 1 << search._W

    def test_compute_rejects_invalid_tuple(self):
        with pytest.raises(ValueError):
            compute_sigma_exponents(ExponentTuple(n=0, u=21, m=0, v=1))


class TestPipeline:
    def test_stage_counts(self, pipeline_report):
        measured = (
            pipeline_report.step1_count,
            pipeline_report.step2_count,
            pipeline_report.step3_count,
        )
        assert measured == expected.MEASURED_COUNTS
        assert measured[0] == expected.CALIBRATION_TARGETS[0]

    def test_survivors_and_closure(self, pipeline_report, catalog):
        names = {catalog.name_of(p) for p in pipeline_report.perfect_survivors}
        assert names == expected.SURVIVOR_NAMES
        assert set(pipeline_report.closure_names) == expected.ALL_PERFECT_NAMES
        assert len(pipeline_report.closure) == 11
        closure_set = set(pipeline_report.closure)
        for p in pipeline_report.perfect_survivors:
            assert p in closure_set
            assert p.bar() in closure_set

    def test_survivors_are_perfect(self, pipeline_report):
        for p in pipeline_report.perfect_survivors:
            assert is_perfect(p)

    def test_candidate_bounds_and_mirror(self, pipeline_report):
        assert len(pipeline_report.candidates) == pipeline_report.step3_count
        for t, p in pipeline_report.candidates:
            t.validate()
            assert t.n_i[1] <= 3 and t.n_i[2] <= 3 and t.m_j[0] <= 3
            assert t.n_i[3] <= 5 and t.n_i[4] <= 5
            assert (t.n_i[1], t.u_i[1]) == (t.n_i[2], t.u_i[2])
            assert 1 <= t.a <= t.b
            se = compute_sigma_exponents(t)
            assert se.gamma[1] == se.gamma[2]

    def test_nonsurvivors_are_the_linear_only_candidates(self, pipeline_report):
        survivors = set(pipeline_report.perfect_survivors)
        dropped = [t for t, p in pipeline_report.candidates if p not in survivors]
        assert len(dropped) == 4
        for t in dropped:
            assert not any(t.c) and not any(t.d)
            assert t.a == t.b and t.a in (1, 3, 7, 15)

    def test_step_counts_recomputed_from_stages(self):
        s1 = pipeline_step1()
        assert len(s1) == expected.MEASURED_COUNTS[0]
        s2 = pipeline_step2(s1)
        assert len(s2) == expected.MEASURED_COUNTS[1]
        s3 = pipeline_step3(s2)
        assert len(s3) == expected.MEASURED_COUNTS[2]

    def test_deterministic_reports(self):
        a = json.dumps(run_pipeline().to_json(), sort_keys=True)
        b = json.dumps(run_pipeline().to_json(), sort_keys=True)
        assert a == b

    def test_report_matches_golden(self, pipeline_report):
        """The theorem report, byte for byte as `theorem --report` writes it."""
        text = json.dumps(pipeline_report.to_json(), indent=2, sort_keys=True) + "\n"
        assert text == THEOREM_GOLDEN.read_text(encoding="utf-8")

    def test_finalize_rejects_incomplete_candidate_sets(self):
        with pytest.raises(SearchError):
            pipeline_finalize([])

    def test_report_json_counts(self, pipeline_report):
        data = pipeline_report.to_json()
        assert data["counts"]["step1"] == expected.MEASURED_COUNTS[0]
        assert data["counts"]["closure"] == 11
        assert len(data["candidates"]) == data["counts"]["step3"]
        assert sorted(data["closure_names"]) == sorted(expected.ALL_PERFECT_NAMES)


def brute_force_perfects(max_degree: int) -> list[Poly]:
    found = []
    for m in range(2, 1 << (max_degree + 1)):
        p = Poly(m)
        if is_perfect(p):
            found.append(p)
    return found


class TestExhaustiveScan:
    def test_matches_brute_force_to_degree_12(self):
        brute = brute_force_perfects(12)
        got = exhaustive_scan(12)
        assert got == brute
        assert len(got) == 8

    def test_expected_degree_12_set(self, catalog):
        trivials = [(X * (X + ONE)) ** ((1 << n) - 1) for n in (1, 2)]
        known = [catalog[n].poly for n in ("T_1", "T_2", "T_3", "T_4", "T_10", "T_11")]
        assert set(exhaustive_scan(12)) == set(trivials + known)

    def test_results_sorted_and_perfect(self):
        got = exhaustive_scan(11)
        keys = [(p.degree, p.mask) for p in got]
        assert keys == sorted(keys)
        assert all(is_perfect(p) for p in got)
        assert all(p.degree <= 11 for p in got)

    def test_worker_parity(self):
        assert exhaustive_scan(12, workers=2) == exhaustive_scan(12)

    def test_ceiling_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            exhaustive_scan(0)
        with pytest.raises(ValueError):
            exhaustive_scan(DEFAULT_SCAN_CEILING + 1)
        with pytest.raises(ValueError):
            exhaustive_scan(4, ceiling=3)
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "10")
        with pytest.raises(ValueError):
            exhaustive_scan(12)
        assert len(exhaustive_scan(12, ceiling=12)) == 8  # explicit beats env

    def test_non_integer_env_ceiling_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "abc")
        with pytest.raises(ValueError, match="GF2SIGMA_SCAN_CEILING"):
            exhaustive_scan(4)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            exhaustive_scan(6, workers=0)

    def test_ceiling_maximum(self, monkeypatch):
        with pytest.raises(ValueError, match="ceiling must be at most"):
            exhaustive_scan(4, ceiling=MAX_SCAN_CEILING + 1)
        assert len(exhaustive_scan(4, ceiling=MAX_SCAN_CEILING)) == 1
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", str(MAX_SCAN_CEILING + 1))
        with pytest.raises(ValueError, match="GF2SIGMA_SCAN_CEILING"):
            exhaustive_scan(4)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        """The pool gets at most os.cpu_count() processes; the fake pool
        records the count and runs the tasks in this process."""
        started = []

        class FakePool:
            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(search, "_SCAN_PRIMES", [])
        assert exhaustive_scan(12, workers=64) == exhaustive_scan(12)
        assert exhaustive_scan(12, workers=2) == exhaustive_scan(12)
        assert started == [3, 2]
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert exhaustive_scan(12, workers=8) == exhaustive_scan(12)
        assert started == [3, 2]  # one usable cpu: serial, no pool


class TestScanPruning:
    """The pruned scan against the unpruned oracle, and its rules against
    the known perfect polynomials."""

    def test_pruned_equals_unpruned_to_degree_16(self):
        primes = _irreducible_masks(16)
        for d in range(1, 17):
            within = [p for p in primes if p.bit_length() - 1 <= d]
            assert [p.mask for p in exhaustive_scan(d)] == oracles.unpruned_perfect_scan(d, within), d

    def test_pruned_equals_unpruned_at_degree_20(self, scan_degree20):
        unpruned = oracles.unpruned_perfect_scan(20, _irreducible_masks(20))
        assert [p.mask for p in scan_degree20["single"]] == unpruned

    def test_rules_accept_every_prefix_of_the_known_perfects(self, t_polys):
        """Walk each perfect A of degree <= 20 in the scan's prime order; every
        prefix node must pass the rules that would otherwise cut it."""
        trivials = [(X * (X + ONE)) ** (2**n - 1) for n in range(1, 4)]
        primes = _irreducible_masks(20)
        perfects = trivials + list(t_polys.values())
        assert len(perfects) == 14
        for A in perfects:
            powers = sorted((q.mask, e) for q, e in factor(A))
            a = s = 1
            for k, (p, e) in enumerate(powers):
                assert 2 * e * oracles.degree(p) <= A.degree  # half-degree
                a = oracles.mul(a, oracles.pow_(p, e))
                s = oracles.mul(s, oracles.divisor_sigma_scan(oracles.pow_(p, e)))
                r = search._rest_factor(primes.index(p), a, s, 20 - oracles.degree(a))
                assert r, (A, k)
                assert oracles.mul(r, oracles.divmod_(s, r)[0]) == s
                if k + 1 < len(powers):
                    nxt = powers[k + 1][0]
                    if r != 1:  # the next prime is no later than r's first prime
                        assert oracles.degree(nxt) <= oracles.degree(r)
                        assert not any(oracles.divmod_(r, q)[1] == 0 for q in primes if p < q < nxt)
                else:
                    assert r == 1 and a == s == A.mask
