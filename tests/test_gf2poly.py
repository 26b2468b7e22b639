"""Core polynomial arithmetic: representation, parsing, ring ops, transforms."""

from __future__ import annotations

import hashlib
import random

import pytest

import oracles
from gf2sigma import gf2poly
from gf2sigma.gf2poly import ONE, X, ZERO, ParseError, Poly, gcd, parse_expr

M1 = Poly(0b111)  # x^2+x+1


def rand_poly(rng: random.Random, max_degree: int, *, nonzero: bool = False) -> Poly:
    m = rng.getrandbits(max_degree + 1)
    if nonzero and m == 0:
        m = 1
    return Poly(m)


class TestRepresentation:
    def test_degree(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert X.degree == 1
        assert Poly(0b1011).degree == 3

    def test_constants(self):
        assert ZERO == Poly(0)
        assert ONE == Poly(1)
        assert X == Poly(2)

    def test_equality_and_hash(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rand_poly(rng, 64)
            assert p == Poly(p.mask)
            assert hash(p) == hash(Poly(p.mask))
        assert len({X, Poly(2), ONE}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.mask = 5

    def test_ordering_by_mask(self):
        assert [p.mask for p in sorted(Poly(m) for m in (5, 2, 9, 1))] == [1, 2, 5, 9]
        assert X < X + ONE
        assert ONE <= ONE

    def test_bool(self):
        assert not ZERO
        assert ONE
        assert X


class TestParsePrint:
    def test_roundtrip_10k_random_degree_256(self):
        rng = random.Random(20260816)
        for _ in range(10_000):
            p = Poly(rng.getrandbits(257))
            assert Poly.parse(str(p)) == p
            assert Poly.parse(p.to_hex()) == p

    def test_zero_and_one_roundtrip(self):
        assert str(ZERO) == "0"
        assert Poly.parse(str(ZERO)) == ZERO
        assert str(ONE) == "1"
        assert Poly.parse(str(ONE)) == ONE

    def test_term_order_and_duplicates(self):
        assert parse_expr("1+x+x^3") == parse_expr("x^3+x+1")
        assert parse_expr("x^3+x+x") == parse_expr("x^3")
        assert parse_expr("x+x") == ZERO
        assert parse_expr("x+0") == X
        assert parse_expr(" x ^ 2 + 1 ") == Poly(0b101)

    def test_hex_form(self):
        assert parse_expr("0x7") == M1
        assert parse_expr("0X13") == Poly(0x13)
        assert parse_expr("0x0") == ZERO

    def test_product_grammar(self):
        assert parse_expr("x^2*(x+1)*(x^2+x+1)") == Poly(0b100100)
        assert parse_expr("(x+1)^3") == (X + ONE) ** 3
        assert parse_expr("x^2+x+1") == M1
        assert parse_expr("0x7*x") == M1 * X
        assert parse_expr("(x^2+x+1)^2*(x+1)") == M1 * M1 * (X + ONE)

    def test_parse_errors(self):
        for bad in ["", "x^", "y+1", "x**2", "2x", "x^-1", "x^2.5", "00"]:
            with pytest.raises(ParseError):
                parse_expr(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as ei:
            parse_expr("x^2+zzz")
        assert isinstance(ei.value, ValueError)
        assert ei.value.pos >= 0
        assert ei.value.text == "x^2+zzz"
        assert str(ei.value) == "unexpected character at position 4 in 'x^2+zzz'"

    @pytest.mark.parametrize("text, message, pos", [
        pytest.param("", "empty polynomial", 0, id="empty"),
        pytest.param("  ", "empty polynomial", 0, id="blank"),
        pytest.param("x^", "unexpected end of input", 2, id="end-after-caret"),
        pytest.param("(x+1", "unexpected end of input", 4, id="end-inside-parens"),
        pytest.param("x)", "unexpected token ')'", 1, id="token-after-expr"),
        pytest.param("00", "unexpected token '00'", 0, id="token-as-atom"),
        pytest.param("x+" + "2" * 30, "unexpected token '22222222222222222222'...", 2, id="token-cut"),
        pytest.param("(x+1 x", "expected ')', got 'x'", 5, id="unclosed-paren"),
        pytest.param("x^x", "exponent must be a nonnegative integer, got 'x'", 2, id="exponent-not-digits"),
        pytest.param("x^-1", "exponent must be a nonnegative integer, got '-'", 2, id="exponent-negative"),
        pytest.param("x^123456", "exponent has more than 5 digits", 2, id="exponent-digits"),
        pytest.param("x^65537", "degree 65537 exceeds 65536", 2, id="power-degree"),
        pytest.param("x^40000*x^40000", "degree 80000 exceeds 65536", 7, id="product-degree"),
        pytest.param("(" * 101 + "x" + ")" * 101, "parentheses nested deeper than 100", 100, id="nesting"),
        pytest.param("x+y", "unexpected character", 2, id="character"),
        pytest.param("x^\u00b2", "unexpected character", 2, id="superscript-exponent"),
        pytest.param("x^1\u00b2", "unexpected character", 3, id="superscript-in-exponent"),
        pytest.param("x)\u00b2", "unexpected character", 2, id="character-beats-token"),
        pytest.param("(x+1 \u00b2", "unexpected character", 5, id="character-beats-paren"),
        pytest.param("\u0663", "unexpected token '\u0663'", 0, id="decimal-digit-atom"),
    ])
    def test_parse_error_messages(self, text, message, pos):
        """Every ParseError message, word for word, with its position."""
        with pytest.raises(ParseError) as ei:
            parse_expr(text)
        assert (ei.value.text, ei.value.pos) == (text, pos)
        assert str(ei.value).startswith(f"{message} at position {pos} in ")

    def test_unicode_decimal_exponents(self):
        """An exponent is a run of Unicode decimal digits, the set regex \\d
        matches: Arabic-Indic and fullwidth 3 read as 3.  '\u00b2' is a digit
        to str.isdigit but not decimal, so it is an unexpected character."""
        assert parse_expr("x^\u0663") == parse_expr("x^\uff13") == X ** 3

    def test_whitespace_does_not_join_digits(self):
        """Whitespace separates tokens, so a split exponent is an error at the
        second digit run rather than x^37 or x^28."""
        for text in ["x^3 7", "x^2\t8"]:
            with pytest.raises(ParseError) as ei:
                parse_expr(text)
            assert ei.value.pos == 4

    def test_parse_error_clips_long_text(self):
        """Text over 80 characters is quoted as an excerpt around pos."""
        text = "x+" * 50 + "y" + "+x" * 50
        with pytest.raises(ParseError) as ei:
            parse_expr(text)
        assert (ei.value.text, ei.value.pos) == (text, 100)
        assert str(ei.value) == f"unexpected character at position 100 in ...{text[70:130]!r}..."

    def test_parse_error_clips_long_token(self):
        """A message that quotes a 100,000-character token stays short."""
        digits = "2" * 100_000
        for text in ["x+" + digits, "x^0x" + "f" * 100_000, "(x " + digits, digits]:
            with pytest.raises(ParseError) as ei:
                parse_expr(text)
            assert len(str(ei.value)) < 200, text[:10]

    def test_degree_limit(self):
        """Powers, products and x^k terms above degree 2^16 are rejected."""
        for bad in ["x^65537", "(x+1)^70000", "x^40000*x^40000"]:
            with pytest.raises(ParseError):
                parse_expr(bad)
        with pytest.raises(ParseError):
            parse_expr("x^70000")
        assert parse_expr("x^65536") == Poly.parse("x^65536") == X ** 65536
        assert parse_expr("x^30000*x^30000").degree == 60000

    def test_overlong_exponent_is_parse_error(self):
        """An exponent longer than any allowed degree is refused before int(),
        which past 4300 digits raises a plain ValueError."""
        for fn, text, pos in [(Poly.parse, "x^" + "1" * 5000, 2),
                              (parse_expr, "x^" + "1" * 5000, 2),
                              (parse_expr, "(x+1)^" + "1" * 5000, 6),
                              (Poly.parse, "1+x^123456", 4)]:
            with pytest.raises(ParseError) as ei:
                fn(text)
            assert ei.value.pos == pos
        assert parse_expr("x^" + "0" * 5000 + "3") == X ** 3  # leading zeros do not count
        assert parse_expr("(x+1)^" + "0" * 5000 + "2") == (X + ONE) ** 2

    def test_hex_mask_degree_limit(self):
        """A hex mask obeys the same degree limit as the other forms."""
        for fn, text, pos in [(Poly.parse, " 0x" + "f" * 20000, 1),
                              (parse_expr, " 0x" + "f" * 20000, 1),
                              (parse_expr, "x*0x2" + "0" * 16384, 2),
                              (Poly.parse, "0x2" + "0" * 16384, 0)]:
            with pytest.raises(ParseError) as ei:
                fn(text)
            assert ei.value.pos == pos
        top = "0x1" + "0" * 16384  # x^65536
        assert Poly.parse(top) == parse_expr(top) == X ** 65536

    def test_nesting_limit(self):
        """Parentheses nested past the limit raise ParseError at the first
        '(' too deep, not RecursionError."""
        limit = gf2poly._MAX_PARSE_NESTING
        ok = "(" * limit + "x+1" + ")" * limit
        assert parse_expr(ok + "*" + ok) == (X + ONE) ** 2
        for depth in (limit + 1, 250, 5000):
            with pytest.raises(ParseError) as ei:
                parse_expr("x*" + "(" * depth + "x" + ")" * depth)
            assert ei.value.pos == 2 + limit


# Tokens for test_parse_outcomes_are_pinned: operands, operators and
# exponents in grammatical order most of the time, and odd tokens (blanks,
# bad characters, non-ASCII digits, a bare hex prefix) anywhere.
_PIN_OPERANDS = ["x", "x", "0", "1", "(", "0x1f"]
_PIN_OPERATORS = ["+", "+", "*", "^", ")"]
_PIN_EXPONENTS = ["2", "3", "17", "00007", "65536", "70000", "99999999", "\u0663", "\uff13"]
_PIN_ODD = [" ", "\t", "0X", "y", "-", "\u00b2"]
PARSE_OUTCOMES_DIGEST = "4c935b39d8637803436da01d5530b10113a1f762671fb00b3cc26ae1799465a3"


def _pin_text(rng: random.Random) -> str:
    """0-14 tokens, one in twenty texts wrapped in 95-105 parentheses."""
    tokens = [""]
    for _ in range(rng.randint(0, 14)):
        last = tokens[-1]
        pool = (_PIN_OPERANDS + _PIN_OPERATORS + _PIN_EXPONENTS + _PIN_ODD if rng.random() < 0.15
                else _PIN_EXPONENTS if last == "^"
                else _PIN_OPERANDS if last in ("", "+", "*", "(")
                else _PIN_OPERATORS)
        tokens.append(rng.choice(pool))
    text = "".join(tokens)
    if rng.random() < 0.05:
        depth = rng.randint(95, 105)
        text = "(" * depth + text + ")" * depth
    return text


def _parse_outcome(text: str) -> str:
    try:
        return hex(parse_expr(text).mask)
    except ParseError as exc:
        return f"{exc.pos} {exc}"
    except Exception as exc:  # any other exception is a parser bug; pin its type
        return type(exc).__name__


def test_parse_outcomes_are_pinned():
    """20,000 seeded texts give the same value, or the same ParseError message
    and position, as when the digest was taken; any change to what the parser
    accepts or reports shows here."""
    rng = random.Random(20261020)
    outcomes = "\n".join(_parse_outcome(_pin_text(rng)) for _ in range(20_000))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == PARSE_OUTCOMES_DIGEST


class TestRingOps:
    def test_add_is_xor(self):
        rng = random.Random(2)
        for _ in range(500):
            p, q = rand_poly(rng, 64), rand_poly(rng, 64)
            assert (p + q).mask == p.mask ^ q.mask
        assert X + X == ZERO
        assert X + ZERO == X

    def test_mul_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(1000):
            p, q = rand_poly(rng, 64), rand_poly(rng, 64)
            assert (p * q).mask == oracles.mul(p.mask, q.mask)

    def test_mul_degree_additive(self):
        rng = random.Random(4)
        for _ in range(1000):
            p = rand_poly(rng, 64, nonzero=True)
            q = rand_poly(rng, 64, nonzero=True)
            assert (p * q).degree == p.degree + q.degree
        assert X * ZERO == ZERO

    def test_ring_laws(self):
        rng = random.Random(5)
        for _ in range(300):
            p, q, r = (rand_poly(rng, 40) for _ in range(3))
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * ONE == p

    def test_divmod_matches_oracle_and_recombines(self):
        rng = random.Random(6)
        for _ in range(1000):
            a = rand_poly(rng, 96)
            b = rand_poly(rng, 48, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
            assert (q.mask, r.mask) == oracles.divmod_(a.mask, b.mask)
            assert a // b == q
            assert a % b == r
        assert divmod(ZERO, ONE) == (ZERO, ZERO)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(X, ZERO)
        with pytest.raises(ZeroDivisionError):
            X % ZERO

    def test_pow(self):
        assert M1 ** 0 == ONE
        assert M1 ** 1 == M1
        p = parse_expr("x^3+x+1")
        assert p ** 4 == p * p * p * p
        with pytest.raises(ValueError):
            p ** -1

    def test_pow_mod_matches_reduced_pow(self):
        """Seeded a of degree <= 40, k = 0..40 and m of degree 1..24, m = x and
        m = x+1 included: the power mod m equals the full power reduced."""
        rng = random.Random(13)
        moduli = [2, 3] + [rng.getrandbits(25) | 2 for _ in range(40)]
        for m in moduli:
            for _ in range(5):
                a, k = rand_poly(rng, 40).mask, rng.randrange(41)
                for e in (0, k):
                    assert gf2poly._pow_mod(a, e, m) == gf2poly._mod(gf2poly._pow(a, e), m), (a, e, m)
        with pytest.raises(ValueError):
            gf2poly._pow_mod(7, -1, 3)

    def test_squaring_interleaves_bits(self):
        rng = random.Random(7)
        for _ in range(500):
            p, q = rand_poly(rng, 40), rand_poly(rng, 40)
            sq = (p * p).mask
            assert all(i % 2 == 0 for i in range(sq.bit_length()) if sq >> i & 1)
            # Frobenius: squaring is additive in characteristic 2
            assert (p + q) * (p + q) == p * p + q * q


class TestTransforms:
    def test_derivative(self):
        rng = random.Random(8)
        for _ in range(300):
            p, q = rand_poly(rng, 40), rand_poly(rng, 40)
            assert (p * q).derivative() == p.derivative() * q + p * q.derivative()
            assert (p * p).derivative() == ZERO
        assert X.derivative() == ONE
        assert ONE.derivative() == ZERO

    def test_bar_involution_and_homomorphism(self):
        rng = random.Random(9)
        for _ in range(1000):
            p, q = rand_poly(rng, 50), rand_poly(rng, 50)
            assert p.bar().bar() == p
            assert (p * q).bar() == p.bar() * q.bar()
            assert (p + q).bar() == p.bar() + q.bar()
            assert p.bar().mask == oracles.bar(p.mask)
        assert X.bar() == X + ONE
        assert (X + ONE).bar() == X
        assert ONE.bar() == ONE
        assert ZERO.bar() == ZERO

    def test_star_involution_and_homomorphism_on_unit_constant(self):
        rng = random.Random(10)
        for _ in range(1000):
            p = Poly(rng.getrandbits(51) | 1)
            q = Poly(rng.getrandbits(51) | 1)
            assert p.star().star() == p
            assert p.star().degree == p.degree
            assert (p * q).star() == p.star() * q.star()
            assert p.star().mask == oracles.star(p.mask)
        assert ONE.star() == ONE
        assert M1.star() == M1  # palindromic coefficients

    def test_star_of_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.star()


class TestGcd:
    def test_common_factor_is_divided_out(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rand_poly(rng, 24, nonzero=True)
            q = rand_poly(rng, 24, nonzero=True)
            r = rand_poly(rng, 24, nonzero=True)
            g = gcd(p * r, q * r)
            assert g % r == ZERO
            assert (p * r) % g == ZERO
            assert (q * r) % g == ZERO
            assert gcd(p, q) == gcd(q, p)

    def test_gcd_with_zero(self):
        assert gcd(X, ZERO) == X
        assert gcd(ZERO, X) == X
        assert gcd(ZERO, ZERO) == ZERO

    def test_coprime(self):
        assert gcd(X, X + ONE) == ONE


class TestParity:
    def test_even_iff_divisible_by_a_linear_factor(self):
        for m in range(1, 1 << 11):
            p = Poly(m)
            has_root_0 = m & 1 == 0
            has_root_1 = bin(m).count("1") % 2 == 0
            assert p.is_even() == (has_root_0 or has_root_1)
            assert p.is_odd() == (not p.is_even())

    def test_parity_of_zero_rejected(self):
        with pytest.raises(ValueError):
            ZERO.is_even()
