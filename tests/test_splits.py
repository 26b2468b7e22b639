"""The order-profile routine behind the sigma tables and admissibility.

`_even_sigma_valuations` is cross-checked against oracle long division, on
the roster exhaustively and on seeded non-roster bases where squares divide
sigma(T^2h).  `tables` and `admissible` are pinned byte for byte to
`tests/data/splits_golden.json`, and stepping h past the derived bound of
`_even_sigma_splits` is shown to change nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import oracles
from gf2sigma import catalog as catalog_module
from gf2sigma.catalog import EXPECTED_DEGREE_SUM, _even_sigma_splits, _even_sigma_valuations, check_admissible
from gf2sigma.cli import main
from gf2sigma.gf2poly import _derivative
from gf2sigma.search import sigma_mersenne_table, sigma_s_table, sigma_x2h_table

SPLITS_GOLDEN = Path(__file__).parent / "data" / "splits_golden.json"


def _oracle_sigmas(t: int, h_count: int) -> list[int]:
    """sigma(T^2h) for h = 1..h_count, by oracle multiplication."""
    t2, acc, out = oracles.mul(t, t), 1, []
    for _ in range(h_count):
        acc = oracles.mul(acc, t2) ^ t ^ 1
        out.append(acc)
    return out


def _cofactor(value: int, split: list[tuple[int, int]]) -> int:
    for q, v in split:
        value = oracles.divmod_(value, oracles.pow_(q, v))[0]
    return value


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
        splits = dict(_even_sigma_splits(t, qs))
        assert [h for h, _ in got] == list(range(1, h_count + 1))
        for (h, reported), acc in zip(got, _oracle_sigmas(t, h_count)):
            want = [(q, v) for q in qs if (v := oracles.valuation(acc, q))]
            assert reported == want, (t, h)
            assert (h in splits) == (_cofactor(acc, want) == 1), (t, h)
            if h in splits:
                assert splits[h] == want, (t, h)
            nonzero.update(v for _, v in want)
    # every exponent is 1, so a split needs 2h*deg T <= 184: nothing beyond h = 92/deg T
    assert nonzero == {1}


def test_repeated_factors_match_oracle(family):
    """Seeded non-roster irreducibles T of degree 2..10 and h <= 12, over the
    irreducibles of degree <= 10: the exponents, including those >= 2, match
    oracle valuations and obey e_q <= 1 + v_q(T').  Where sigma(T^2h) splits
    over them, `_even_sigma_splits` over exactly its primes finds that split,
    which needs the deg T' term of the h bound whenever some e_q >= 2."""
    small = oracles.sieve_irreducibles(10)
    roster = {p.mask for p in family}
    bases = random.Random(8).sample([t for t in small if t > 3 and t not in roster], 30)
    h_count = 12
    repeated = repeated_splits = 0
    for t in bases:
        dt = _derivative(t)
        for (h, reported), acc in zip(_even_sigma_valuations(t, small, h_count), _oracle_sigmas(t, h_count)):
            want = [(q, v) for q in small if (v := oracles.valuation(acc, q))]
            assert reported == want, (t, h)
            for q, v in want:
                assert v <= 1 + oracles.valuation(dt, q), (t, h, q)
            repeated += any(v > 1 for _, v in want)
            if _cofactor(acc, want) == 1:
                splits = dict(_even_sigma_splits(t, [q for q, _ in want]))
                assert splits.get(h) == want, (t, h)
                repeated_splits += any(v > 1 for _, v in want)
    assert repeated >= 20 and repeated_splits >= 2, (repeated, repeated_splits)


def test_tables_and_admissible_match_golden():
    golden = json.loads(SPLITS_GOLDEN.read_text())
    for command, want in golden.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(command.split() + ["--format", "json"])
        assert (code, buf.getvalue()) == (want["exit"], want["stdout"]), command


def test_tripled_bound_adds_nothing(catalog, monkeypatch):
    """The roster tables and the singleton verdicts at 3x the derived h bound
    equal those at the bound."""
    tables = (sigma_x2h_table, sigma_mersenne_table, sigma_s_table)
    singletons = [[e.poly] for e in catalog.mersennes + catalog.stypes]

    def outputs():
        return ([[r.to_json() for r in table(catalog=catalog)] for table in tables],
                [check_admissible(f).to_json() for f in singletons])

    at_bound = outputs()
    counts = []

    def tripled(bm, masks, h_count):
        counts.append(h_count)
        return _even_sigma_valuations(bm, masks, 3 * h_count)

    monkeypatch.setattr(catalog_module, "_even_sigma_valuations", tripled)
    assert outputs() == at_bound
    assert max(counts) == EXPECTED_DEGREE_SUM // 2  # sigma(x^2h) over the roster
