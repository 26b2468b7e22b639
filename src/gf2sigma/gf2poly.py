"""Univariate polynomial arithmetic over GF(2).

A polynomial is stored as a nonnegative Python int whose bit i is the
coefficient of x^i, so 0b111 is x^2 + x + 1.  Addition is XOR, multiplication
is shift-and-XOR over the set bits of the sparser operand, and squaring just
spreads the bits apart.  The zero polynomial is the int 0 and its degree is
the sentinel -1.

Polynomial text has one grammar, read in one pass by :meth:`Poly.parse` and
by the module function :func:`parse_expr`, which calls it: sums, products
and powers, as in "(x+1)^2*x+1", of the atoms 0, 1, x, hex masks such as
0x13 and parenthesized expressions.  An exponent is a run of decimal digits,
Unicode ones included.  Whitespace may separate tokens but not split one, so
"x^3 7" is an error.  A degree above MAX_PARSE_DEGREE (65536), an exponent
of more than 5 digits or parentheses nested deeper than 100 are refused;
every refusal is a :class:`ParseError` carrying the offending position, and
a character that starts no token is reported before any other error.  Both
printed forms, str(p) and p.to_hex(), parse back to p.

The public surface is the immutable :class:`Poly` wrapper, its constants
ZERO, ONE and X, ParseError, gcd and parse_expr; the
underscore-prefixed int-level helpers are shared with the sibling modules,
which run their hot loops on raw masks.
"""

from __future__ import annotations

import re

__all__ = ["Poly", "ParseError", "gcd", "parse_expr", "X", "ONE", "ZERO"]

# Largest degree a '^' power, a '*' product, an 'x^k' term or a hex mask may
# reach in parsed text.  Text such as "x^1000000000" is short but its
# polynomial is not, so the parser checks degrees before computing.
MAX_PARSE_DEGREE = 1 << 16

# Deepest parenthesis nesting that parse accepts, a limit on outside text: the
# parser stacks one (sum, product, '*' index) entry per open '('.
_MAX_PARSE_NESTING = 100

_popcount = int.bit_count  # Python 3.10+


class ParseError(ValueError):
    """Malformed polynomial text; carries the 0-based offending position."""

    def __init__(self, message: str, text: str, pos: int):
        quoted = repr(text)
        if len(text) > 80:  # quote the 60 characters around pos, '...' marking cuts
            start = max(0, min(pos - 30, len(text) - 60))
            quoted = f"{'...' * (start > 0)}{text[start:start + 60]!r}{'...' * (start + 60 < len(text))}"
        super().__init__(f"{message} at position {pos} in {quoted}")
        self.text = text
        self.pos = pos


# ---------------------------------------------------------------------------
# int-level primitives
# ---------------------------------------------------------------------------


def _mul(a: int, b: int) -> int:
    """Carry-less product of two bit masks."""
    if not a or not b:
        return 0
    if _popcount(a) > _popcount(b):
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def _sqr(a: int) -> int:
    """Square of a mask: interleave a zero bit after every coefficient."""
    if a < 2:
        return a
    return int("0".join(bin(a)[2:]), 2)


def _sqrt(a: int) -> int:
    """Inverse of _sqr; the caller guarantees all odd-position bits are 0."""
    if a < 2:
        return a
    return int(bin(a)[2:][::2], 2)


def _divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of mask division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    da = a.bit_length()
    while da >= db:
        shift = da - db
        q |= 1 << shift
        a ^= b << shift
        da = a.bit_length()
    return q, a


def _divide_out(a: int, q: int) -> tuple[int, int]:
    """(a / q^e, e) for the largest e such that q^e divides the nonzero a."""
    e = 0
    while True:
        quo, rem = _divmod(a, q)
        if rem:
            return a, e
        a = quo
        e += 1


def _mod(a: int, b: int) -> int:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        a ^= b << (da - db)
        da = a.bit_length()
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _pow(a: int, k: int) -> int:
    """a**k by repeated squaring."""
    if k < 0:
        raise ValueError("negative exponent")
    r = 1
    while k:
        if k & 1:
            r = _mul(r, a)
        k >>= 1
        if k:
            a = _sqr(a)
    return r


def _sqr_mod(a: int, m: int) -> int:
    return _mod(_sqr(a), m)


def _pow_mod(a: int, k: int, m: int) -> int:
    """a**k mod m by repeated squaring, reducing every product mod m."""
    if k < 0:
        raise ValueError("negative exponent")
    r, a = _mod(1, m), _mod(a, m)
    while k:
        if k & 1:
            r = _mod(_mul(r, a), m)
        k >>= 1
        if k:
            a = _sqr_mod(a, m)
    return r


def _derivative(a: int) -> int:
    """Formal derivative: keep odd-position coefficients, shifted down."""
    n = a.bit_length()
    even_mask = ((1 << (2 * ((n + 1) // 2))) - 1) // 3  # bits 0, 2, 4, ...
    return (a >> 1) & even_mask


def _bar(a: int) -> int:
    """Substitute x -> x + 1 (a ring involution), by Horner evaluation."""
    r = 0
    for i in range(a.bit_length() - 1, -1, -1):
        r = (r << 1) ^ r ^ ((a >> i) & 1)
    return r


def _star(a: int) -> int:
    """Reverse the coefficients of a nonzero mask across positions 0..deg."""
    if not a:
        raise ValueError("star transform of the zero polynomial")
    return int(bin(a)[2:][::-1], 2)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

_MAX_EXPONENT_DIGITS = len(str(MAX_PARSE_DEGREE))


def _quote_token(tok: str) -> str:
    """repr(tok) cut to 20 characters, so a message quoting a long digit run
    stays short; ParseError already quotes the text around the token."""
    return repr(tok) if len(tok) <= 20 else f"{tok[:20]!r}..."


# A token, or a lone character that starts none; the matches cover every
# non-space character of the text.
_EXPR_TOKEN_RE = re.compile(r"\s*(0[xX][0-9a-fA-F]+|\d+|x|[-+*^()]|\S)")


def _parse_mask(text: str) -> int:
    """The mask of polynomial text, read in one pass over its tokens.

    Each open parenthesis stacks the enclosing (sum, product, index of the
    pending '*'); an index of -1 means no '*' is pending.  Token positions are
    looked up only to report an error.
    """
    tokens = _EXPR_TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty polynomial", text, 0)
    tokens.append("")  # the end of input

    def fail(i: int, message: str) -> ParseError:
        starts = [m.start(1) for m in _EXPR_TOKEN_RE.finditer(text)] + [len(text)]
        # Text that parses holds no character that starts no token, so the
        # first one is the error wherever the parse stopped.
        for tok, pos in zip(tokens, starts):
            if len(tok) == 1 and tok not in "x-+*^()" and not tok.isdecimal():
                return ParseError("unexpected character", text, pos)
        return ParseError(message if tokens[i] else "unexpected end of input", text, starts[i])

    stack = []
    total, prod, star = 0, 0, -1
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok == "(":
            if len(stack) == _MAX_PARSE_NESTING:
                raise fail(i - 1, f"parentheses nested deeper than {_MAX_PARSE_NESTING}")
            stack.append((total, prod, star))
            total, star = 0, -1
            continue
        if tok == "x":
            mask = 2
        elif tok in ("0", "1"):
            mask = int(tok)
        elif tok[:2] in ("0x", "0X"):
            mask = int(tok, 16)
            degree = mask.bit_length() - 1
            if degree > MAX_PARSE_DEGREE:
                raise fail(i - 1, f"degree {degree} exceeds {MAX_PARSE_DEGREE}")
        else:
            raise fail(i - 1, f"unexpected token {_quote_token(tok)}")
        while True:  # mask is the atom or parenthesized sum that ends at tokens[i - 1]
            if tokens[i] == "^":
                digits = tokens[i + 1]
                # isdecimal() is the digit set of \d; isdigit() would also
                # pass superscripts, which start no token
                if not digits.isdecimal():
                    raise fail(i + 1, f"exponent must be a nonnegative integer, got {_quote_token(digits)}")
                digits = digits.lstrip("0") or "0"  # int() counts leading zeros toward its limit
                if len(digits) > _MAX_EXPONENT_DIGITS:  # past 4300 digits int() raises ValueError
                    raise fail(i + 1, f"exponent has more than {_MAX_EXPONENT_DIGITS} digits")
                k = int(digits)
                degree = (mask.bit_length() - 1) * k
                if degree > MAX_PARSE_DEGREE:
                    raise fail(i + 1, f"degree {degree} exceeds {MAX_PARSE_DEGREE}")
                mask = 1 << k if mask == 2 else _pow(mask, k)
                i += 2
            if star >= 0:
                degree = prod.bit_length() + mask.bit_length() - 2
                if degree > MAX_PARSE_DEGREE:
                    raise fail(star, f"degree {degree} exceeds {MAX_PARSE_DEGREE}")
                mask = _mul(prod, mask)
            tok = tokens[i]
            i += 1
            if tok == "*":
                prod, star = mask, i - 1
                break
            total ^= mask
            star = -1
            if tok == "+":
                break
            if tok == ")" and stack:
                mask = total
                total, prod, star = stack.pop()
            elif stack:
                raise fail(i - 1, f"expected ')', got {_quote_token(tok)}")
            elif tok:
                raise fail(i - 1, f"unexpected token {_quote_token(tok)}")
            else:
                return total


def _format_mask(mask: int) -> str:
    if not mask:
        return "0"
    parts = []
    for i in range(mask.bit_length() - 1, -1, -1):
        if (mask >> i) & 1:
            parts.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# the Poly wrapper
# ---------------------------------------------------------------------------


class Poly:
    """Immutable polynomial over GF(2), hashable and totally ordered by mask.

    The mask order coincides with (degree, then mask) order, which is the
    canonical ordering used everywhere factors are listed.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        if not isinstance(mask, int) or mask < 0:
            raise ValueError(f"mask must be a nonnegative int, got {mask!r}")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.mask.bit_length() - 1

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse polynomial text: sums, products and powers of 0, 1, x, hex
        masks and parenthesized expressions (grammar in the module docstring)."""
        return cls(_parse_mask(text))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.mask ^ other.mask)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(_mul(self.mask, other.mask))

    def __pow__(self, k: int) -> "Poly":
        return Poly(_pow(self.mask, k))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _divmod(self.mask, other.mask)
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return Poly(_divmod(self.mask, other.mask)[0])

    def __mod__(self, other: "Poly") -> "Poly":
        return Poly(_mod(self.mask, other.mask))

    # -- transforms --------------------------------------------------------

    def derivative(self) -> "Poly":
        """Formal derivative."""
        return Poly(_derivative(self.mask))

    def bar(self) -> "Poly":
        """The conjugate under x -> x + 1; an involution."""
        return Poly(_bar(self.mask))

    def star(self) -> "Poly":
        """Coefficient reversal x^deg * p(1/x); requires p != 0."""
        return Poly(_star(self.mask))

    def is_even(self) -> bool:
        """True iff divisible by x or by x + 1 (i.e. has a root in GF(2))."""
        if not self.mask:
            raise ValueError("evenness of the zero polynomial is undefined")
        return (self.mask & 1) == 0 or _popcount(self.mask) % 2 == 0

    def is_odd(self) -> bool:
        return not self.is_even()

    # -- comparisons and niceties ------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "Poly") -> bool:
        return self.mask < other.mask

    def __le__(self, other: "Poly") -> bool:
        return self.mask <= other.mask

    def __bool__(self) -> bool:
        return self.mask != 0

    def __str__(self) -> str:
        return _format_mask(self.mask)

    def __repr__(self) -> str:
        return f"Poly({_format_mask(self.mask)})"

    def to_hex(self) -> str:
        return format(self.mask, "#x")


def gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor; gcd(0, 0) = 0, gcd(p, 0) = p."""
    return Poly(_gcd(p.mask, q.mask))


def parse_expr(text: str) -> Poly:
    """Module-level form of :meth:`Poly.parse`; the CLI parses through this name."""
    return Poly.parse(text)


ZERO = Poly(0)
ONE = Poly(1)
X = Poly(2)
