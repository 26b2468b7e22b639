"""The order-profile routine behind the sigma tables and admissibility.

`_even_sigma_valuations` is cross-checked exhaustively against oracle long
division, `tables` and `admissible` are pinned byte for byte to
`tests/data/splits_golden.json` (written by the trial-division code the
routine replaced), and raising h_max past 92 is shown to change nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import oracles
from gf2sigma.catalog import (DEFAULT_H_MAX, EXPECTED_DEGREE_SUM, MAX_H_MAX, _even_sigma_splits,
                              _even_sigma_valuations, check_admissible)
from gf2sigma.cli import main
from gf2sigma.search import sigma_mersenne_table, sigma_s_table, sigma_x2h_table

SPLITS_GOLDEN = Path(__file__).parent / "data" / "splits_golden.json"


def test_valuations_match_oracle(family):
    """Every roster prime q != T, every h with 2h*deg T <= 184, and T in
    {x, x+1} or the roster: the reported exponent is v_q(sigma(T^2h)), and
    sigma(T^2h) is reported split exactly when those q^v multiply to it."""
    primes = [p.mask for p in family]
    nonzero = set()
    for t in [2, 3] + primes:
        qs = [q for q in primes if q != t]
        h_count = EXPECTED_DEGREE_SUM // (2 * oracles.degree(t))
        got = list(_even_sigma_valuations(t, qs, h_count))
        splits = dict(_even_sigma_splits(t, qs, h_count))
        assert [h for h, _ in got] == list(range(1, h_count + 1))
        t2, acc = oracles.mul(t, t), 1
        for h, reported in got:
            acc = oracles.mul(acc, t2) ^ t ^ 1  # sigma(T^2h)
            want = [(q, v) for q in qs if (v := oracles.valuation(acc, q))]
            assert reported == want, (t, h)
            rest = acc
            for q, v in want:
                rest = oracles.divmod_(rest, oracles.pow_(q, v))[0]
            assert (h in splits) == (rest == 1), (t, h)
            if h in splits:
                assert splits[h] == want, (t, h)
            nonzero.update(v for _, v in want)
    # every exponent is 1, so a split needs 2h*deg T <= 184: nothing beyond h = 92/deg T
    assert nonzero == {1}


def test_tables_and_admissible_match_golden():
    golden = json.loads(SPLITS_GOLDEN.read_text())
    for command, want in golden.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(command.split() + ["--format", "json"])
        assert (code, buf.getvalue()) == (want["exit"], want["stdout"]), command


def test_h_max_beyond_92_adds_nothing(catalog):
    for table in (sigma_x2h_table, sigma_mersenne_table, sigma_s_table):
        rows = [r.to_json() for r in table(h_max=DEFAULT_H_MAX, catalog=catalog)]
        assert [r.to_json() for r in table(h_max=MAX_H_MAX, catalog=catalog)] == rows
    for entry in catalog.mersennes + catalog.stypes:
        at_92 = check_admissible([entry.poly], h_max=DEFAULT_H_MAX).to_json()
        at_max = check_admissible([entry.poly], h_max=MAX_H_MAX).to_json()
        for key in ("admissible", "closed_under_star_or_bar", "sigma_x_witness", "member_witnesses"):
            assert at_max[key] == at_92[key], (entry.name, key)
