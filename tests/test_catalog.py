"""Roster integrity, conjugation partners, admissibility checks."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import expected
from gf2sigma.catalog import (
    EXPECTED_DEGREE_SUM,
    check_admissible,
    is_mersenne_prime,
    one_plus_product,
)
from gf2sigma.factorizer import factor, is_irreducible, rad
from gf2sigma.gf2poly import ONE, X, Poly, parse
from gf2sigma.sigma import is_perfect

GOLDEN = Path(__file__).parent / "data" / "catalog_golden.json"


class TestRoster:
    def test_counts_and_names(self, catalog):
        assert [e.name for e in catalog.mersennes] == [f"M_{k}" for k in range(1, 14)]
        assert [e.name for e in catalog.stypes] == [f"S_{k}" for k in range(1, 16)]
        assert [e.name for e in catalog.perfects] == [f"T_{k}" for k in range(1, 12)]
        assert len(catalog.family) == 28
        assert len(catalog.entries) == 39

    def test_lookup_tables_consistent(self, catalog):
        for e in catalog.entries:
            assert catalog[e.name] is e
            assert catalog.name_of(e.poly) == e.name
        assert catalog.name_of(X) is None

    def test_explicit_small_members(self, catalog):
        for name, text in expected.EXPLICIT_TEXT.items():
            assert catalog[name].poly == parse(text)
            assert str(catalog[name].poly) == text

    def test_structural_forms(self, catalog):
        m1 = catalog["M_1"].poly
        for name, (a, b) in expected.MERSENNE_PARAMS.items():
            e = catalog[name]
            assert e.kind == "mersenne"
            assert e.params == (a, b)
            assert e.poly == one_plus_product(ONE, a, b, 1)
        for name, (a, b, c) in expected.STYPE_PARAMS.items():
            e = catalog[name]
            assert e.kind == "stype"
            assert e.params == (a, b, c)
            assert e.poly == one_plus_product(m1, a, b, c)
        for name, (a, b, cs, ds) in expected.PERFECT_PARAMS.items():
            e = catalog[name]
            assert e.kind == "perfect"
            assert e.params == (a, b, *cs, *ds)
            value = (X ** a) * ((X + ONE) ** b)
            for i, c in enumerate(cs, start=1):
                value = value * catalog[f"M_{i}"].poly ** c
            for j, d in enumerate(ds, start=1):
                value = value * catalog[f"S_{j}"].poly ** d
            assert e.poly == value

    def test_irreducibility_and_mersenne_shape(self, catalog):
        for e in catalog.mersennes:
            assert is_irreducible(e.poly)
            assert is_mersenne_prime(e.poly)
        for e in catalog.stypes:
            assert is_irreducible(e.poly)
            # 1 + S factors through M_1, so S + 1 is never a product of
            # linear powers alone and S is not of Mersenne shape.
            assert not is_mersenne_prime(e.poly)

    def test_degree_sum_is_184(self, catalog):
        assert EXPECTED_DEGREE_SUM == 184
        assert sum(e.degree for e in catalog.mersennes + catalog.stypes) == 184

    def test_perfect_entries_are_perfect(self, catalog):
        allowed = {X, X + ONE} | set(catalog.family)
        for e in catalog.perfects:
            assert is_perfect(e.poly)
            assert all(q in allowed for q, _ in factor(rad(e.poly)))


class TestConjugationPartners:
    def test_bar_partners_exact(self, catalog):
        for e in catalog.entries:
            assert e.bar_partner == expected.BAR_PARTNERS[e.name]
            assert e.poly.bar() == catalog[e.bar_partner].poly

    def test_star_partners_exact(self, catalog):
        for e in catalog.mersennes + catalog.stypes:
            if e.name in expected.NO_STAR_PARTNER:
                assert e.star_partner is None
                assert catalog.name_of(e.poly.star()) is None
            else:
                assert e.star_partner == expected.STAR_PARTNERS[e.name]
                assert e.poly.star() == catalog[e.star_partner].poly

    def test_self_reciprocal_mersennes(self, catalog):
        """Within the Mersenne roster: M = M* exactly for {M_1, M_4}, and the
        star-paired (distinct) couples are exactly {M_2, M_3} and
        {M_12, M_13}."""
        selfs = {e.name for e in catalog.mersennes if e.poly.star() == e.poly}
        assert selfs == {"M_1", "M_4"}
        mers_by_poly = {e.poly: e.name for e in catalog.mersennes}
        pairs = set()
        for e in catalog.mersennes:
            partner = mers_by_poly.get(e.poly.star())
            if partner is not None and partner != e.name:
                pairs.add(frozenset((e.name, partner)))
        assert pairs == {frozenset(("M_2", "M_3")), frozenset(("M_12", "M_13"))}


class TestOnePlusProduct:
    def test_matches_direct_construction(self):
        q = parse("x^3+x+1")
        assert one_plus_product(q, 2, 3, 2) == ONE + (X ** 2) * ((X + ONE) ** 3) * q ** 2

    def test_bar_swaps_the_linear_exponents(self):
        rng = random.Random(30)
        for _ in range(200):
            q = Poly(rng.getrandbits(17) | 1)
            if q.is_even():  # flip the x-term so neither x nor x+1 divides q
                q = q + X
            assert q.is_odd()
            a, b, c = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 4)
            assert one_plus_product(q, a, b, c).bar() == one_plus_product(q.bar(), b, a, c)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            one_plus_product(ONE, 0, 1, 1)
        with pytest.raises(ValueError):
            one_plus_product(X, 1, 1, 1)  # base must be odd


class TestAdmissibility:
    def polys(self, catalog, names):
        return [catalog[n].poly for n in names]

    def test_single_m1_all_three_conditions(self, catalog):
        r = check_admissible(self.polys(catalog, ["M_1"]))
        assert r.closed_under_star_or_bar  # bar(M_1) = M_1
        assert r.sigma_x_witness is not None
        assert r.all_members_witnessed
        assert r.admissible

    def test_single_m2_only_condition_three(self, catalog):
        r = check_admissible(self.polys(catalog, ["M_2"]))
        assert not r.closed_under_star_or_bar
        assert r.sigma_x_witness is None
        assert r.all_members_witnessed
        assert r.admissible
        (witness,) = r.member_witnesses.values()
        assert witness == {"kind": "one_plus_factors"}

    def test_single_m4_closed_under_star(self, catalog):
        r = check_admissible(self.polys(catalog, ["M_4"]))
        assert r.closed_under_star_or_bar  # M_4 is self-reciprocal
        assert r.admissible

    def test_single_m5_not_closed_but_witnessed(self, catalog):
        r = check_admissible(self.polys(catalog, ["M_5"]))
        assert not r.closed_under_star_or_bar
        assert r.sigma_x_witness == (2, "x+1")  # sigma((x+1)^4) = M_5
        assert r.all_members_witnessed
        assert r.admissible

    def test_family_examples_admissible_and_carry_their_perfects(self, catalog):
        for fam_names, perfect_names in expected.FAMILY_EXAMPLES:
            fam = self.polys(catalog, fam_names)
            assert check_admissible(fam).admissible, fam_names
            allowed = {X, X + ONE, *fam}
            for t_name in perfect_names:
                t = catalog[t_name].poly
                assert is_perfect(t)
                assert all(q in allowed for q, _ in factor(rad(t))), (fam_names, t_name)

    def test_full_mersenne_roster_closed_under_bar(self, catalog):
        r = check_admissible([e.poly for e in catalog.mersennes])
        assert r.closed_under_star_or_bar
        assert r.admissible

    def test_full_roster_closed_under_bar(self, catalog, family):
        r = check_admissible(family)
        assert r.closed_under_star_or_bar
        assert r.admissible

    def test_member_witness_kinds(self, catalog, family):
        r = check_admissible(family)
        kinds = {w["kind"] for w in r.member_witnesses.values() if w is not None}
        assert kinds <= {"one_plus_factors", "sigma_even_power"}

    def test_rejects_even_or_reducible_members(self, catalog):
        with pytest.raises(ValueError):
            check_admissible([X])
        with pytest.raises(ValueError):
            check_admissible([parse("x^2+1")])
        m1 = catalog["M_1"].poly
        with pytest.raises(ValueError):
            check_admissible([m1 * m1])

    def test_report_json_shape(self, catalog):
        r = check_admissible(self.polys(catalog, ["M_1", "S_1"]))
        data = r.to_json()
        assert data["admissible"] is True
        assert list(data) == ["family", "closed_under_star_or_bar", "sigma_x_witness",
                              "member_witnesses", "admissible"]
        assert len(data["family"]) == 2
        assert set(data["member_witnesses"]) == {
            str(catalog["M_1"].poly),
            str(catalog["S_1"].poly),
        }


def test_golden_catalog_export(catalog):
    golden = json.loads(GOLDEN.read_text())
    assert catalog.to_json() == golden
