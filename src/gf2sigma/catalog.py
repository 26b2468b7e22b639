"""The verified catalog of special polynomials over GF(2).

Three rosters are built from their defining parameters and cross-checked on
construction:

* thirteen Mersenne irreducibles 1 + x^a (x+1)^b (names M_1..M_13),
* fifteen irreducibles of the shape 1 + x^a (x+1)^b M_1^c (names S_1..S_15),
* eleven known perfect polynomials (names T_1..T_11), each stored with its
  full prime-power shape x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j.

Construction fails loudly if any entry is reducible, has the wrong shape, or
breaks one of the structural facts (bar-conjugate pairing, the degree sum 184
over the union of the two irreducible rosters, distinctness).

`check_admissible` decides whether a family of odd irreducibles satisfies any
of the three closure conditions that make the classification theorem apply.
Its sigma witness searches stop at an h bound derived from the family (see
`_even_sigma_splits`), past which no sigma(T^2h) can split; so a failed
search proves that no witness exists, for any family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd as _int_gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .gf2poly import Poly, _bar, _derivative, _divide_out, _mod, _mul, _pow, _sqr, _star
from .factorizer import _is_irreducible_mask

__all__ = [
    "AdmissibilityReport",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "build_catalog",
    "check_admissible",
    "is_mersenne_prime",
    "one_plus_product",
]

class CatalogError(ValueError):
    """A catalog entry failed one of its construction invariants."""


def one_plus_product(q: Poly, a: int, b: int, c: int) -> Poly:
    """Return 1 + x^a (x+1)^b q^c for an odd q and a, b, c >= 1."""
    if a < 1 or b < 1 or c < 1:
        raise ValueError("a, b, c must all be >= 1")
    if not q.mask or q.is_even():
        raise ValueError(f"base polynomial must be odd, got {q}")
    m = _mul(1 << a, _pow(3, b))
    return Poly(_mul(m, _pow(q.mask, c)) ^ 1)


def is_mersenne_prime(p: Poly) -> bool:
    """True iff p is irreducible and p + 1 = x^a (x+1)^b with a, b >= 1."""
    m = p.mask
    if m.bit_length() - 1 < 1:
        raise ValueError("Mersenne test is defined for degree >= 1")
    v = m ^ 1
    a = (v & -v).bit_length() - 1  # multiplicity of x
    if a < 1:
        return False
    w = v >> a
    b = w.bit_length() - 1  # remaining degree; w must be (x+1)^b
    if b < 1 or w != _pow(3, b):
        return False
    return _is_irreducible_mask(m)


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

# Mersenne entries: name -> (a, b) in 1 + x^a (x+1)^b
_MERSENNE_PARAMS: tuple[tuple[str, int, int], ...] = (
    ("M_1", 1, 1),
    ("M_2", 1, 2),
    ("M_3", 2, 1),
    ("M_4", 1, 3),
    ("M_5", 3, 1),
    ("M_6", 3, 2),
    ("M_7", 3, 4),
    ("M_8", 6, 1),
    ("M_9", 2, 3),
    ("M_10", 4, 3),
    ("M_11", 1, 6),
    ("M_12", 1, 8),
    ("M_13", 8, 1),
)

# S-type entries: name -> (a, b, c) in 1 + x^a (x+1)^b M_1^c
_STYPE_PARAMS: tuple[tuple[str, int, int, int], ...] = (
    ("S_1", 1, 1, 1),
    ("S_2", 2, 2, 1),
    ("S_3", 1, 3, 4),
    ("S_4", 3, 1, 1),
    ("S_5", 1, 3, 1),
    ("S_6", 3, 1, 4),
    ("S_7", 1, 1, 3),
    ("S_8", 3, 3, 1),
    ("S_9", 1, 1, 5),
    ("S_10", 4, 1, 1),
    ("S_11", 1, 2, 1),
    ("S_12", 2, 1, 2),
    ("S_13", 1, 4, 1),
    ("S_14", 2, 1, 1),
    ("S_15", 1, 2, 2),
)

# Known perfect polynomials: name -> (a, b, (c_1..c_5), (d_1..d_8)) in
# x^a (x+1)^b * prod M_i^c_i * prod S_j^d_j
_PERFECT_PARAMS: tuple[tuple[str, int, int, tuple[int, ...], tuple[int, ...]], ...] = (
    ("T_1", 2, 1, (1, 0, 0, 0, 0), (0,) * 8),
    ("T_2", 1, 2, (1, 0, 0, 0, 0), (0,) * 8),
    ("T_3", 4, 3, (0, 0, 0, 1, 0), (0,) * 8),
    ("T_4", 3, 4, (0, 0, 0, 0, 1), (0,) * 8),
    ("T_5", 4, 4, (0, 0, 0, 1, 1), (0,) * 8),
    ("T_6", 6, 3, (0, 1, 1, 0, 0), (0,) * 8),
    ("T_7", 3, 6, (0, 1, 1, 0, 0), (0,) * 8),
    ("T_8", 4, 6, (0, 1, 1, 1, 0), (0,) * 8),
    ("T_9", 6, 4, (0, 1, 1, 0, 1), (0,) * 8),
    ("T_10", 2, 1, (2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)),
    ("T_11", 1, 2, (2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)),
)

# bar-conjugate pairing expected among the entries (an involution)
_BAR_PAIRS: Mapping[str, str] = {
    "M_1": "M_1", "M_2": "M_3", "M_4": "M_5", "M_6": "M_9", "M_7": "M_10",
    "M_8": "M_11", "M_12": "M_13",
    "S_1": "S_1", "S_2": "S_2", "S_3": "S_6", "S_4": "S_5", "S_7": "S_7",
    "S_8": "S_8", "S_9": "S_9", "S_10": "S_13", "S_11": "S_14", "S_12": "S_15",
    "T_1": "T_2", "T_3": "T_4", "T_5": "T_5", "T_6": "T_7", "T_8": "T_9",
    "T_10": "T_11",
}

EXPECTED_DEGREE_SUM = 184  # over the 28 irreducible roster members

# The odd primes of the classification shape, in exponent order: the first
# _SHAPE_MERSENNES Mersenne entries, then the first _SHAPE_STYPES S-types.
_SHAPE_MERSENNES = 5
_SHAPE_STYPES = 8


def _shape_members(mersennes: Sequence, stypes: Sequence) -> tuple[Sequence, Sequence]:
    """The shape's primes M_i and S_j, taken from the two rosters."""
    return mersennes[:_SHAPE_MERSENNES], stypes[:_SHAPE_STYPES]


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog member with its shape parameters and conjugate partners."""

    name: str
    poly: Poly
    kind: str  # "mersenne" | "stype" | "perfect"
    params: tuple[int, ...]
    bar_partner: str
    star_partner: str | None

    @property
    def degree(self) -> int:
        return self.poly.degree

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "hex": self.poly.to_hex(),
            "poly": str(self.poly),
            "degree": self.degree,
            "params": list(self.params),
            "bar_partner": self.bar_partner,
            "star_partner": self.star_partner,
        }


@dataclass(frozen=True)
class Catalog:
    """The full verified roster, with name and polynomial lookups."""

    mersennes: tuple[CatalogEntry, ...]
    stypes: tuple[CatalogEntry, ...]
    perfects: tuple[CatalogEntry, ...]
    by_name: dict[str, CatalogEntry] = field(repr=False)
    names_by_poly: dict[Poly, str] = field(repr=False)

    @property
    def entries(self) -> tuple[CatalogEntry, ...]:
        return self.mersennes + self.stypes + self.perfects

    @property
    def family(self) -> tuple[Poly, ...]:
        """The 28 irreducibles (Mersenne and S-type rosters together)."""
        return tuple(e.poly for e in self.mersennes + self.stypes)

    def __getitem__(self, name: str) -> CatalogEntry:
        return self.by_name[name]

    def name_of(self, p: Poly) -> str | None:
        return self.names_by_poly.get(p)

    def to_json(self) -> dict:
        return {
            "mersennes": [e.to_json() for e in self.mersennes],
            "stypes": [e.to_json() for e in self.stypes],
            "perfects": [e.to_json() for e in self.perfects],
            "degree_sum": sum(e.degree for e in self.mersennes + self.stypes),
        }


def _resolve_partners(entries: list[tuple[str, Poly, str, tuple[int, ...]]]) -> list[CatalogEntry]:
    by_poly = {poly: name for name, poly, _, _ in entries}
    out = []
    for name, poly, kind, params in entries:
        bar_name = by_poly.get(Poly(_bar(poly.mask)))
        if bar_name is None:
            raise CatalogError(f"{name}: bar conjugate not present in the catalog")
        if _BAR_PAIRS.get(name, _BAR_PAIRS_REVERSED.get(name)) != bar_name:
            raise CatalogError(f"{name}: bar partner is {bar_name}, expected pairing broken")
        star_name = by_poly.get(Poly(_star(poly.mask))) if poly.mask & 1 else None
        out.append(CatalogEntry(name, poly, kind, params, bar_name, star_name))
    return out


_BAR_PAIRS_REVERSED = {v: k for k, v in _BAR_PAIRS.items()}


def _shape_mask(power: Callable[[int, int], int], exponents: Sequence[int], bases: Sequence[int]) -> int:
    """Multiply power(q, e) over the bases q and exponents e of a shape.

    The shape x^a (x+1)^b prod M_i^c_i prod S_j^d_j has the bases
    (x, x+1, M_1, .., S_1, ..) and the exponents (a, b, c_1, .., d_1, ..).
    power = _pow gives the polynomial, power = _geom_sum gives its sigma.
    """
    acc = 1
    for q, e in zip(bases, exponents):
        if e:
            acc = _mul(acc, power(q, e))
    return acc


def build_catalog() -> Catalog:
    """Construct and verify the full catalog; raises CatalogError on any violation."""
    mersenne_raw: list[tuple[str, Poly, str, tuple[int, ...]]] = []
    for name, a, b in _MERSENNE_PARAMS:
        poly = Poly(_mul(1 << a, _pow(3, b)) ^ 1)
        if not _is_irreducible_mask(poly.mask):
            raise CatalogError(f"{name}: 1 + x^{a}(x+1)^{b} is reducible")
        if not is_mersenne_prime(poly):
            raise CatalogError(f"{name}: not of Mersenne shape")
        mersenne_raw.append((name, poly, "mersenne", (a, b)))

    m1 = mersenne_raw[0][1]
    stype_raw: list[tuple[str, Poly, str, tuple[int, ...]]] = []
    for name, a, b, c in _STYPE_PARAMS:
        if _int_gcd(a, b, c) != 1:
            raise CatalogError(f"{name}: parameters ({a},{b},{c}) are not coprime")
        poly = one_plus_product(m1, a, b, c)
        if not _is_irreducible_mask(poly.mask):
            raise CatalogError(f"{name}: 1 + x^{a}(x+1)^{b}M_1^{c} is reducible")
        stype_raw.append((name, poly, "stype", (a, b, c)))

    raw = mersenne_raw + stype_raw
    degree_sum = sum(poly.degree for _, poly, _, _ in raw)
    if degree_sum != EXPECTED_DEGREE_SUM:
        raise CatalogError(f"irreducible roster degree sum {degree_sum} != {EXPECTED_DEGREE_SUM}")

    shape_m, shape_s = _shape_members(mersenne_raw, stype_raw)
    bases = [2, 3] + [poly.mask for _, poly, _, _ in shape_m + shape_s]
    for name, a, b, c_i, d_j in _PERFECT_PARAMS:
        if (len(c_i), len(d_j)) != (len(shape_m), len(shape_s)):
            raise CatalogError(f"{name}: exponents do not fit the shape")
        params = (a, b) + c_i + d_j
        raw.append((name, Poly(_shape_mask(_pow, params, bases)), "perfect", params))

    if len({poly for _, poly, _, _ in raw}) != len(raw):
        raise CatalogError("catalog entries are not pairwise distinct")

    entries = _resolve_partners(raw)
    mersennes = tuple(e for e in entries if e.kind == "mersenne")
    stypes = tuple(e for e in entries if e.kind == "stype")
    perfects = tuple(e for e in entries if e.kind == "perfect")
    if (len(mersennes), len(stypes), len(perfects)) != (13, 15, 11):
        raise CatalogError("roster sizes are wrong")
    by_name = {e.name: e for e in entries}
    names_by_poly = {e.poly: e.name for e in entries}
    return Catalog(mersennes, stypes, perfects, by_name, names_by_poly)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def _even_sigma_valuations(bm: int, masks: Iterable[int], h_count: int) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield (h, [(q, v_q(sigma(bm^2h))), ...]) for h = 1..h_count over the
    distinct prime masks q that divide sigma(bm^2h), in the order of masks.

    sigma(bm^2h) = (bm^n + 1)/(bm + 1) with n = 2h + 1.  Step r <- r*bm^2
    mod q over odd n.  If q divides bm, r stays 0 and q divides no
    sigma(bm^2h), which is 1 mod q.  Otherwise the order ord of bm mod q
    divides 2^deg q - 1, which is odd, so it is the first odd n with r = 1.
    Let c_q = v_q(bm^ord + 1) - v_q(bm + 1).  If ord divides n, then with
    B = bm^ord, (bm^n + 1)/(B + 1) = 1 + B + ... + B^(n/ord - 1) = n/ord = 1
    mod q in characteristic 2, so q divides sigma(bm^2h) exactly c_q times.
    Otherwise q divides neither bm^n + 1 nor bm + 1 (else ord = 1), nor
    sigma(bm^2h).  Each (bm, q) costs at most h_count mulmods mod q and one
    _divide_out of bm^ord + 1; sigma(bm^2h) itself is never formed.
    """
    n_max = 2 * h_count + 1
    profile = []
    for q in masks:
        step = _mod(_sqr(bm), q)
        r, n = _mod(bm, q), 1
        while r != 1 and n < n_max:
            r, n = _mod(_mul(r, step), q), n + 2
        if r == 1:
            c = _divide_out(_pow(bm, n) ^ 1, q)[1] - _divide_out(bm ^ 1, q)[1]
            if c:
                profile.append((q, n, c))
    for h in range(1, h_count + 1):
        yield h, [(q, c) for q, order, c in profile if (2 * h + 1) % order == 0]


def _even_sigma_splits(bm: int, masks: Sequence[int]) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Every (h, [(q, e), ...]) of `_even_sigma_valuations` whose q^e make up
    all of sigma(bm^2h), of degree 2h*deg bm, for an irreducible bm (x and
    x+1 included).

    No h is left out: the h bound is derived, not chosen.  Let T = bm,
    S = sigma(T^2h) and n = 2h + 1, so (T + 1)*S = T^n + 1.  Differentiating,
    T'*S + (T + 1)*S' = n*T^(n-1)*T' = T^(n-1)*T', as n is odd.  If q^e
    divides S, then q^(e-1) divides S' and S, hence T^(n-1)*T'; and q != T,
    since S = 1 mod T, so q^(e-1) divides T'.  A split over the distinct primes
    q != T among masks therefore needs
    2h*deg T = sum e_q*deg q <= sum deg q + sum v_q(T')*deg q <= sum deg q + deg T',
    where T' != 0 because an irreducible T is not a square.
    """
    degree = bm.bit_length() - 1
    room = sum(q.bit_length() - 1 for q in set(masks) - {bm}) + _derivative(bm).bit_length() - 1
    return ((h, split) for h, split in _even_sigma_valuations(bm, masks, room // (2 * degree))
            if sum(e * (q.bit_length() - 1) for q, e in split) == 2 * h * degree)


def _splits_over(value: int, masks: Iterable[int]) -> bool:
    """True iff the nonzero value is a product of the prime masks, by trial division."""
    for q in masks:
        value = _divide_out(value, q)[0]
    return value == 1


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the three admissibility conditions for one family.

    `admissible` means established by at least one condition.  A False value
    is a proof that none holds: each witness search covers every h at which
    a sigma(T^2h) could split (see `_even_sigma_splits`).
    """

    family: tuple[Poly, ...]
    closed_under_star_or_bar: bool  # condition (i)
    sigma_x_witness: tuple[int, str] | None  # condition (ii): (h, side)
    member_witnesses: dict[str, dict | None]  # condition (iii), keyed by member

    @property
    def all_members_witnessed(self) -> bool:
        return all(w is not None for w in self.member_witnesses.values())

    @property
    def admissible(self) -> bool:
        return (
            self.closed_under_star_or_bar
            or self.sigma_x_witness is not None
            or self.all_members_witnessed
        )

    def to_json(self) -> dict:
        return {
            "family": [p.to_hex() for p in self.family],
            "closed_under_star_or_bar": self.closed_under_star_or_bar,
            "sigma_x_witness": list(self.sigma_x_witness) if self.sigma_x_witness else None,
            "member_witnesses": self.member_witnesses,
            "admissible": self.admissible,
        }


def check_admissible(family: Iterable[Poly]) -> AdmissibilityReport:
    """Check the three admissibility conditions for a family of odd irreducibles."""
    members = sorted(set(family))
    for p in members:
        if not p.mask or p.is_even():
            raise ValueError(f"family member {p} is even")
        if not _is_irreducible_mask(p.mask):
            raise ValueError(f"family member {p} is reducible")
    masks = [p.mask for p in members]
    mask_set = set(masks)
    with_linear = masks + [2, 3]

    # (i) closure under star or bar, member by member
    cond_i = all(_star(m) in mask_set or _bar(m) in mask_set for m in masks)

    # (ii) some sigma(x^2h) or sigma((x+1)^2h) splits over the family: least h, x first
    cond_ii = min(((h, side) for side, bm in (("x", 2), ("x+1", 3))
                   for h, _ in _even_sigma_splits(bm, masks)), default=None)

    # (iii) every member has 1+T factoring, or some sigma(T^2h) factoring,
    # over the family together with x and x+1
    witnesses: dict[str, dict | None] = {}
    for p, m in zip(members, masks):
        if _splits_over(m ^ 1, with_linear):
            witnesses[str(p)] = {"kind": "one_plus_factors"}
        else:
            h = next((h for h, _ in _even_sigma_splits(m, with_linear)), None)
            witnesses[str(p)] = {"kind": "sigma_even_power", "h": h} if h else None

    return AdmissibilityReport(
        family=tuple(members),
        closed_under_star_or_bar=cond_i,
        sigma_x_witness=cond_ii,
        member_witnesses=witnesses,
    )
