"""Seeded fuzz of the parsers and of the CLI exit-code contract.

Random and adversarial text must parse to a Poly or raise ParseError, and
`cli.main` on random argv must return 0, 1 or 2 without letting an exception
escape or printing a traceback.  The seed is fixed, so a failure replays.
"""

from __future__ import annotations

import random

import pytest

from gf2sigma.cli import main
from gf2sigma.gf2poly import ParseError, Poly, parse, parse_expr

SEED = 20240229
MAX_DEGREE = 64  # of the polynomials handed to the CLI
GRAMMAR_CHARS = "x01+*^() 23456789abcdefXy-.\t"


def _valid_text(rng: random.Random) -> str:
    """A well-formed polynomial of degree at most 60, in one of the three forms."""
    form = rng.randrange(3)
    if form == 0:
        return hex(rng.getrandbits(61))
    if form == 1:
        return str(Poly(rng.getrandbits(61)))
    factors = [(rng.randrange(2, 32), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    return "*".join(f"({Poly(m)})^{e}" for m, e in factors)


def _mutated(rng: random.Random, text: str) -> str:
    """Insert, delete or replace a few characters of text."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(chars))
        op = rng.randrange(3)
        if op == 0:
            chars.insert(i, rng.choice(GRAMMAR_CHARS))
        elif chars and i < len(chars):
            if op == 1:
                del chars[i]
            else:
                chars[i] = rng.choice(GRAMMAR_CHARS)
    return "".join(chars)


def _adversarial_text(rng: random.Random) -> str:
    """Deep parentheses, long hex masks, long exponents or random characters."""
    kind = rng.randrange(4)
    if kind == 0:
        depth = rng.choice([99, 100, 101, 250, 5000])
        return "(" * depth + rng.choice(["x", "x+1", ""]) + ")" * rng.choice([depth, depth - 1, 0])
    if kind == 1:
        digits = rng.choice([1, 16, 16384, 16385, 20000])
        return rng.choice(["0x", " 0X", "x*0x"]) + "".join(rng.choices("0123456789abcdef", k=digits))
    if kind == 2:
        digits = rng.choice([5, 6, 4301, 5000])
        return rng.choice(["x^", "(x+1)^", "x^2*x^"]) + "".join(rng.choices("0123456789", k=digits))
    return "".join(rng.choices(GRAMMAR_CHARS, k=rng.randint(0, 30)))


def _random_text(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return _valid_text(rng)
    if kind == 1:
        return _mutated(rng, _valid_text(rng))
    return _adversarial_text(rng)


@pytest.mark.parametrize("fn", [parse, parse_expr])
def test_parser_returns_poly_or_parse_error(fn):
    rng = random.Random(SEED)
    parsed = 0
    for _ in range(600):
        text = _random_text(rng)
        try:
            p = fn(text)
        except ParseError as exc:
            assert 0 <= exc.pos <= len(text)
            continue
        assert isinstance(p, Poly)
        parsed += 1
        if p.degree <= MAX_DEGREE:
            assert parse(str(p)) == p  # the printer writes the strict grammar
    assert 0 < parsed < 600


def _small_poly_text(rng: random.Random) -> str:
    """Random or adversarial text that is unparseable or of degree <= MAX_DEGREE."""
    while True:
        text = _random_text(rng)
        try:
            if parse_expr(text).degree > MAX_DEGREE:
                continue
        except ParseError:
            pass
        return text


def _random_argv(rng: random.Random) -> list[str]:
    command = rng.choice(["factor", "sigma", "perfect", "catalog", "admissible", "tables",
                          "scan", "theorem", "frobnicate"])
    if command in ("factor", "sigma", "perfect"):
        argv = [command, _small_poly_text(rng)]
    elif command == "catalog":
        argv = [command, rng.choice(["verify", "export", "import"])]
    elif command == "admissible":
        names = ["M_1", "m2", "S_3", "s_13", "T_1", "Q_9", "F", "M_99", ""]
        argv = [command, *rng.sample(names, rng.randint(0, 2))]
    elif command == "tables":
        argv = [command, rng.choice(["x2h", "mersenne", "s", "t"])]
    elif command == "scan":
        argv = [command, "--max-degree", rng.choice(["-1", "0", "1", "7", "12", "99", "x"]),
                "--workers", rng.choice(["0", "1"])][:rng.choice([1, 3, 5])]
    else:
        argv = [command]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["text", "json", "yaml"])]
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--bogus", "-h", "--version", "--"]))
    return argv


def test_cli_exit_codes(capsys):
    rng = random.Random(SEED)
    codes = set()
    for _ in range(150):
        argv = _random_argv(rng)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        codes.add(code)
    assert codes == {0, 1, 2}
