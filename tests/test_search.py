"""Sigma factor tables, exponent formulas, enumeration pipeline, exhaustive scan."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
from functools import reduce
from itertools import product
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
from gf2sigma.sigma import _geom_sum, _split_2adic, is_perfect, sigma_prime_power

THEOREM_GOLDEN = Path(__file__).parent / "data" / "theorem_golden.json"

# (nodes, SHA-256) of the scan's node sequence and results for D = 1..22
SCAN_NODE_DIGESTS = {
    1: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    2: (2, "a07547d78f18ee7575c8d036a9d6d757011eec553503f14d7fbe303d7481fc95"),
    3: (2, "a07547d78f18ee7575c8d036a9d6d757011eec553503f14d7fbe303d7481fc95"),
    4: (4, "029b0c33765daa567dbfd84403d9fcf19fdfe235a6ac81106f3223d9f78765e2"),
    5: (8, "3a18279331f71845e9fdccfb6dc80fb1867466bd27cc8c099b93304512ad977d"),
    6: (12, "1b05d7bbc3510e8c97007119786fa8d24949de5e12995fe84ae07653c7bad5cb"),
    7: (12, "1b05d7bbc3510e8c97007119786fa8d24949de5e12995fe84ae07653c7bad5cb"),
    8: (19, "4d2cf781e9ab00fb6a516fe998e060a8e250b1f5a49b20921bd55cc4b9d836ec"),
    9: (21, "80826206daae20cfa2086edb7b36b3de3944eb79ce53b25e665e915aa3a018a8"),
    10: (31, "cb5609dfef3950981ce17d38100570abc7478dcf7f3b3a60d41a6866d73ecdcf"),
    11: (47, "b056ef42703bc0bdc0f77ec948d2f93e178bb1ba485f8120b1d38af7f3f9fd2f"),
    12: (70, "ee0614b4cc643e4983d11661119bdb933aa06c605bf579556063bb019d47c1d6"),
    13: (88, "31e57938af1da627beb57ef4909fd565ce51327f6e50a2318e8fcf255874bb01"),
    14: (118, "7abc0c553819da63ad72a9e8a28dd653351677ad80db65c865f789b0a4fc1691"),
    15: (161, "b59d06c9c5daa9913ddd405581eed37b703bf6c2e33760666e0c946f6f6dfcf5"),
    16: (217, "3b4db05ee96554a091054c4b6517bec23c2c2fa0f6bc0ac55564009d2e979f21"),
    17: (271, "42aff276b1d47ff2755c17a4a2975d5bc22a092d088a868be73e1a0f2d9ee750"),
    18: (349, "f2f3272d865f4300c9ba873cd28b1a1ff8e6c77f38d678e203e11f0edce6bc72"),
    19: (419, "9847ead1006491dc84989c5246d521b70504974da69798b11096594f32484ee0"),
    20: (550, "05a0f0ebeccc05d6f9275954441999a791e61edf290e15699965c75f82731070"),
    21: (704, "5bbf296ceb7feee9032568582b9329c2aa925772557f0a778cdbfaa943b61713"),
    22: (911, "291c08efbd439ad610d31f792cb93ac2114855600ea63f3c25e189a2552d8f00"),
}


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

    def test_rows_list_primes_in_roster_order(self, catalog, family):
        """A row's factors come in roster order, not the (degree, mask) order
        of `factor`; four rows differ between the two."""
        out_of_mask_order = []
        for r in self.all_rows(catalog):
            primes = [q for q, _ in r.factorization]
            assert primes == sorted(primes, key=family.index)
            assert [q for q, _ in factor(r.factorization.value())] == sorted(primes)
            if primes != sorted(primes):
                out_of_mask_order.append((r.base_name, r.exponent))
        assert out_of_mask_order == [("x", 14), ("x+1", 14), ("M_1", 14), ("S_1", 2)]
        x14 = next(r for r in sigma_x2h_table() if (r.base_name, r.exponent) == ("x", 14))
        assert [h for h, _ in x14.to_json()["factors"]] == ["0x7", "0x1f", "0x19", "0x13"]

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
    for base, e in zip(targets, t.exponents):
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
            ExponentTuple.from_exponents(31, 0).validate()  # 2^5 - 1: x's box stops at 2^4
        with pytest.raises(ValueError):
            ExponentTuple.from_exponents(10, 0).validate()  # 11 is no odd part of x's box

    def test_validate_rejects_wrong_length(self):
        ExponentTuple((0,) * 15).validate()
        for length in (0, 2, 14, 16):
            with pytest.raises(ValueError, match="outside the supported ranges"):
                ExponentTuple((0,) * length).validate()

    def test_soundness_on_the_eleven_perfects(self, catalog):
        """sigma fixes each cataloged perfect, so the computed exponents of
        sigma(T) must equal T's own exponents."""
        for name, (a, b, cs, ds) in expected.PERFECT_PARAMS.items():
            t = ExponentTuple.from_exponents(a, b, cs, ds)
            assert compute_sigma_exponents(t) == t, name
            assert t.exponents == (a, b, *cs, *ds), name

    def test_pinned_first_mersenne_ninth_power(self, catalog):
        """sigma(M_1^9) = x * (x+1) * S_8^2: the S_8 exponent comes from the
        2^1 * 5 - 1 split of c_1 = 9, and S_7 stays out."""
        t = ExponentTuple.from_exponents(0, 0, (9,))
        se = compute_sigma_exponents(t)
        assert se.d[6] == 0  # S_7
        assert se.d[7] == 2  # S_8
        targets = _sigma_exponent_targets(catalog)
        s8 = catalog["S_8"].poly
        assert sigma_prime_power(catalog["M_1"].poly, 9) == X * (X + ONE) * s8 * s8
        assert _exponents_by_division(sigma_prime_power(catalog["M_1"].poly, 9), targets) \
            == list(se.exponents)

    def test_dual_route_on_random_tuples(self, catalog):
        """Formula route vs. direct route (multiply sigma of the prime powers,
        then read exponents off by division) on random in-range tuples, each
        exponent drawn 2-adically as 2^t s - 1."""
        rng = random.Random(77)
        targets = _sigma_exponent_targets(catalog)
        u_pool = (1, 3, 5, 7, 9, 13, 15)
        u1_pool = (1, 3, 5, 7, 15)

        def exponent(t, s):
            return (1 << t) * s - 1

        for _ in range(60):
            n, u, m, v = rng.randrange(4), rng.choice(u_pool), rng.randrange(4), rng.choice(u_pool)
            n_i = (rng.randrange(3), rng.randrange(3), rng.randrange(3), rng.randrange(3), rng.randrange(3))
            u_i = (rng.choice(u1_pool), rng.choice((1, 3)), rng.choice((1, 3)), 1, 1)
            m_j = (rng.randrange(3),) + tuple(rng.randrange(2) for _ in range(7))
            v_j = (rng.choice((1, 3)),) + (1,) * 7
            t = ExponentTuple((exponent(n, u), exponent(m, v), *map(exponent, n_i, u_i), *map(exponent, m_j, v_j)))
            t.validate()
            se = compute_sigma_exponents(t)
            got = _exponents_by_division(_sigma_from_exponents(t, targets), targets)
            assert got == list(se.exponents), t

    def test_too_many_exponents_rejected_by_name(self):
        for args, name in (((1, 1, (0,) * 6), "c"), ((1, 1, (), (0,) * 9), "d")):
            with pytest.raises(ValueError, match=f"^{name} has"):
                ExponentTuple.from_exponents(*args)
        assert len(ExponentTuple.from_exponents(1, 1, (0,) * 5, (0,) * 8).exponents) == 15

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
        assert len(system) == len(bases)
        pairs = 0
        for p, vectors in zip(bases, system):
            for e, packed in vectors.items():
                sigma_pe = _geom_sum(p, e)
                assert list(search._unpack(packed)) == [oracles.valuation(sigma_pe, q) for q in bases], (p, e)
                pairs += 1
        assert pairs == 145

    def test_steps_read_only_fixed_primes(self, catalog):
        """The runs cover the shape once, and a run's equations have no term
        from a prime fixed after it, for any exponent in that prime's box."""
        runs = search._RUNS
        order = [p for first, count in runs for p in range(first, first + count)]
        system = search._sigma_system()
        assert sorted(order) == list(range(len(system)))
        assert runs[0] == (0, 3)  # step 1 enumerates x, x+1, M_1 itself
        for k, (first, count) in enumerate(runs[1:], 1):
            later = order[order.index(first):]
            for p in later:
                for e, packed in system[p].items():
                    assert search._unpack(packed)[first:first + count] == (0,) * count, (k, p, e)

    def test_packed_fields_cannot_overflow(self, catalog):
        """v_Q(sigma(A)) <= deg A, and deg A stays below 2^_W over the box."""
        degrees = [t.degree for t in _sigma_exponent_targets(catalog)]
        assert sum(max(vectors) * d for vectors, d in zip(search._sigma_system(), degrees)) < 1 << search._W

    def test_generated_system_is_pinned(self):
        """Every box's exponents and packed vectors, in order, hashed as JSON."""
        text = json.dumps([list(vectors.items()) for vectors in search._sigma_system()])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "09be9587507eca2d11333139d5c2891c54a658cd4f851c1af544cf03661cc496")

    def test_boxes_equal_the_frozen_boxes(self):
        """The boxes derived from the splits and the runs, in order."""
        boxes = [[(1 << t) * s - 1 for t in range(top + 1) for s in odds] for top, odds in expected.SEARCH_BOXES]
        assert [list(vectors) for vectors in search._sigma_system()] == boxes

    def test_s2_box_leaves_out_the_split_step_2_solves(self, catalog):
        """sigma(S_2^2) = S_1 * S_7, and step 2 solves S_1, S_2 and S_7 in one
        run, so S_2's box has no odd part 3: neither 2 = 3 - 1 nor 5 = 2*3 - 1."""
        s1, s2, s7 = (catalog[name].poly.mask for name in ("S_1", "S_2", "S_7"))
        sigma_s2_squared = 1 ^ s2 ^ oracles.mul(s2, s2)
        assert oracles.factor_with_table(sigma_s2_squared, oracles.smallest_factor_table(12)) == [(s1, 1), (s7, 1)]
        box = search._sigma_system()[[name for name, _ in catalog.shape].index("S_2")]
        assert 2 not in box and 5 not in box

    def test_compute_rejects_invalid_tuple(self):
        with pytest.raises(ValueError):
            compute_sigma_exponents(ExponentTuple.from_exponents(20, 0))


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
            n_i = [_split_2adic(c)[0] for c in t.c]
            assert n_i[1] <= 3 and n_i[2] <= 3 and _split_2adic(t.d[0])[0] <= 3
            assert n_i[3] <= 5 and n_i[4] <= 5
            assert t.c[1] == t.c[2]
            assert 1 <= t.a <= t.b
            se = compute_sigma_exponents(t)
            assert se.c[1] == se.c[2]

    def test_candidates_are_fixed_points(self, pipeline_report):
        """Step 3 keeps exactly the tuples whose sigma has the same exponents."""
        assert len(pipeline_report.candidates) == 10
        for t, p in pipeline_report.candidates:
            assert compute_sigma_exponents(t) == t

    def test_nonsurvivors_are_the_linear_only_candidates(self, pipeline_report):
        survivors = set(pipeline_report.perfect_survivors)
        dropped = [t for t, p in pipeline_report.candidates if p not in survivors]
        assert len(dropped) == 4
        for t in dropped:
            assert not any(t.c) and not any(t.d)
            assert t.a == t.b and t.a in (1, 3, 7, 15)

    def test_rows_pack_exponents_and_their_sigma(self):
        """Each row A << _SPAN | S of steps 1 and 2 packs the fixed exponents A
        and the exponents S of sigma of them; S agrees with A on every solved run."""
        s1 = pipeline_step1()
        s2 = pipeline_step2(s1)
        for step, rows in ((1, s1), (2, s2)):
            solved = [p for first, count in search._RUNS[1:step + 1] for p in range(first, first + count)]
            for row in rows:
                exps, sigma_exps = (search._unpack(half) for half in divmod(row, 1 << search._SPAN))
                assert compute_sigma_exponents(ExponentTuple(exps)) == ExponentTuple(sigma_exps)
                assert [exps[p] for p in solved] == [sigma_exps[p] for p in solved]
                assert 1 <= exps[0] <= exps[1]

    def test_step_rows_are_pinned(self):
        """The ordered rows of steps 1 and 2, hashed as one hex line per row."""
        s1 = pipeline_step1()
        for rows, digest in ((s1, "61fd30b53be9ad649ff4b7459536fc74ee24d44d56ac5d2141a63cb31038641d"),
                             (pipeline_step2(s1), "bef3edd96a7284202683ca789a027cd4e474d8269c1fdfa91becf1919fac5f56")):
            assert hashlib.sha256("\n".join(format(row, "x") for row in rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", range(len(search._RUNS)))
    def test_run_sums_match_the_product_of_the_boxes(self, k):
        """Each run's table equals the one built point by point over the
        product of its boxes: the point packed in place in S, mapped to the
        point in A plus the sum of its vectors."""
        first, count = search._RUNS[k]
        system = search._sigma_system()[first:first + count]
        reference = {}
        for exps in product(*system):
            key = sum(e << (search._W * q) for q, e in enumerate(exps, first))
            reference[key] = (key << search._SPAN) + sum(map(dict.__getitem__, system, exps))
        assert search._run_sums(k) == reference

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
            pipeline_finalize([], (0, 0, 0))

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
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "3")
        with pytest.raises(ValueError):
            exhaustive_scan(4)
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "10")
        with pytest.raises(ValueError):
            exhaustive_scan(12)

    def test_ceiling_below_one_names_the_ceiling(self, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "0")
        with pytest.raises(ValueError, match="^GF2SIGMA_SCAN_CEILING must be .* at least 1, got 0") as exc:
            exhaustive_scan(5)
        assert "max_degree" not in str(exc.value)
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "-2")
        with pytest.raises(ValueError, match="^GF2SIGMA_SCAN_CEILING must be .* at least 1, got -2"):
            exhaustive_scan(3)

    def test_non_integer_env_ceiling_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "abc")
        with pytest.raises(ValueError, match="GF2SIGMA_SCAN_CEILING"):
            exhaustive_scan(4)

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            exhaustive_scan(6, workers=0)

    def test_ceiling_maximum(self, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", str(MAX_SCAN_CEILING + 1))
        with pytest.raises(ValueError, match="^GF2SIGMA_SCAN_CEILING must be at most"):
            exhaustive_scan(4)
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", str(MAX_SCAN_CEILING))
        assert len(exhaustive_scan(4)) == 1

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        """The pool gets at most os.cpu_count() processes; the fake pool
        records the count and runs the tasks in this process."""
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
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

    @pytest.mark.parametrize("max_degree", [*range(1, 23), 24])
    def test_equals_reference_scan(self, max_degree):
        """The deficit-state scan against the gcd-state reference DFS."""
        got = [p.mask for p in exhaustive_scan(max_degree)]
        assert got == oracles.reference_perfect_scan(max_degree)

    @pytest.mark.parametrize("max_degree", sorted(SCAN_NODE_DIGESTS))
    def test_node_sequence_is_pinned(self, max_degree, monkeypatch):
        """The DFS tests each child it forms with `_rest_ok` once, in DFS
        order; the ordered (idx, r) list and the results are hashed as one
        line per node, then the results' hex masks."""
        nodes = []
        rest_ok = search._rest_ok

        def record(idx, r):
            nodes.append(f"{idx} {r:x}")
            return rest_ok(idx, r)

        monkeypatch.setattr(search, "_rest_ok", record)
        results = " ".join(p.to_hex() for p in exhaustive_scan(max_degree))
        digest = hashlib.sha256("\n".join([*nodes, results]).encode()).hexdigest()
        assert (len(nodes), digest) == SCAN_NODE_DIGESTS[max_degree]

    def test_workers_equal_reference_scan(self):
        """The pool's tasks are the root's children (none at D = 1)."""
        for max_degree in (1, 2, 7, 16):
            got = [p.mask for p in exhaustive_scan(max_degree, workers=2)]
            assert got == oracles.reference_perfect_scan(max_degree), max_degree

    def test_rules_accept_every_prefix_of_the_known_perfects(self, t_polys):
        """Walk each perfect A of degree <= 20 in the scan's prime order.  Every
        prefix node must pass the odd-exponent rule, the degree test and the
        divisibility checks, and its deficit pair (r, w) must be the one that
        gcd(sigma(a), a) gives."""
        trivials = [(X * (X + ONE)) ** (2**n - 1) for n in range(1, 4)]
        primes = _irreducible_masks(20)
        perfects = trivials + list(t_polys.values())
        assert len(perfects) == 14
        for A in perfects:
            powers = sorted((q.mask, e) for q, e in factor(A))
            a = s = r = w_mask = 1
            w: list[tuple[int, int]] = []
            for k, (p, e) in enumerate(powers):
                idx, dp = primes.index(p), oracles.degree(p)
                assert 2 * e * dp <= A.degree  # half-degree
                assert e % search._exponent_step(a, idx) == 0  # odd exponent
                v = oracles.valuation(r, p)
                assert v <= e  # p does not divide the child's r
                se = oracles.divisor_sigma_scan(oracles.pow_(p, e))
                s1, left, dg = search._cancel(se, w)
                g_se = oracles.gcd(se, w_mask)
                assert (oracles.mul(s1, g_se), dg) == (se, oracles.degree(g_se))
                budget = 20 - oracles.degree(a) - e * dp
                assert oracles.degree(r) - v * dp + e * dp - dg <= budget, (A, k)  # degree test
                a = oracles.mul(a, oracles.pow_(p, e))
                s = oracles.mul(s, se)
                g = oracles.gcd(s, a)
                r = oracles.mul(oracles.divmod_(r, oracles.pow_(p, v))[0], s1)
                w = left + [(p, e - v)] if e > v else left
                assert r == oracles.divmod_(s, g)[0], (A, k)
                w_mask = reduce(oracles.mul, (oracles.pow_(q, f) for q, f in w), 1)
                assert w_mask == oracles.divmod_(a, g)[0], (A, k)
                assert search._rest_ok(idx, r), (A, k)  # divisibility
                if k + 1 < len(powers):
                    nxt = powers[k + 1][0]
                    if r != 1:  # the next prime is no later than r's first prime
                        assert oracles.degree(nxt) <= oracles.degree(r)
                        assert not any(oracles.divmod_(r, q)[1] == 0 for q in primes if p < q < nxt)
                else:
                    assert r == 1 and w == [] and a == s == A.mask
