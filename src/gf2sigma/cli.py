"""Command line interface.

Subcommands
-----------
factor POLY          factor a polynomial over GF(2)
sigma POLY           sum of divisors, with its factorization
perfect POLY         test sigma(A) = A (exit 1 when not perfect)
catalog verify       rebuild the roster and report its invariants
catalog export       dump the full catalog as JSON
admissible NAME...   admissibility conditions for a set of roster members
tables {x2h,mersenne,s}   the sigma factor tables
theorem              run the three-step enumeration and closure check
scan                 exhaustive perfect-polynomial scan up to a degree

Every subcommand takes --format {text,json}; JSON outputs conform to the
schemas published in `SCHEMAS`.  Exit codes: 0 success (and positive checks),
1 negative or failed verification or a domain error such as unparsable input
or a factor/sigma/perfect input above MAX_FACTOR_DEGREE, 2 bad usage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import tempfile
from typing import Mapping

from . import __version__
from .gf2poly import Poly, parse_expr
from .factorizer import Factorization, factor
# bench/tracing.py wraps cli.is_perfect and cli.is_indecomposable_perfect by name
from .sigma import _perfect_verdict, is_indecomposable_perfect, is_perfect, sigma  # noqa: F401
from .catalog import CatalogError, _catalog, build_catalog, check_admissible
from .search import (
    DEFAULT_SCAN_CEILING,
    SCAN_CEILING_ENV,
    SearchError,
    exhaustive_scan,
    run_pipeline,
    sigma_mersenne_table,
    sigma_s_table,
    sigma_x2h_table,
)

__all__ = ["MAX_FACTOR_DEGREE", "SCHEMAS", "main"]

# Largest degree that factor, sigma and perfect accept.  Factoring time grows
# 5-10x per doubling of the degree: a random degree-4096 input takes about
# 1.4 s on a 2-core machine, one of degree 16384 about 161 s.
MAX_FACTOR_DEGREE = 4096

# ---------------------------------------------------------------------------
# published JSON schemas, one per subcommand output
# ---------------------------------------------------------------------------


def _object(**properties: dict) -> dict:
    """An object schema that requires each of its properties, in the order given."""
    return {"type": "object", "required": list(properties), "properties": properties}


_STRING = {"type": "string"}
_INTEGER = {"type": "integer"}
_BOOLEAN = {"type": "boolean"}
_STRINGS = {"type": "array", "items": _STRING}
_STRING_OR_NULL = {"type": ["string", "null"]}

_FACTOR_ITEMS = {"type": "array", "items": _object(
    poly=_STRING, hex=_STRING, degree=_INTEGER, multiplicity={"type": "integer", "minimum": 1},
    name=_STRING_OR_NULL,
)}

_CATALOG_ENTRIES = {"type": "array", "items": _object(
    name=_STRING, kind={"enum": ["mersenne", "stype", "perfect"]}, hex=_STRING, poly=_STRING,
    degree=_INTEGER, params={"type": "array", "items": _INTEGER}, bar_partner=_STRING,
    star_partner=_STRING_OR_NULL,
)}

SCHEMAS: dict[str, dict] = {
    "factor": _object(
        input=_STRING, poly=_STRING, hex=_STRING, degree=_INTEGER, irreducible=_BOOLEAN,
        factors=_FACTOR_ITEMS, rendered=_STRING,
    ),
    "sigma": _object(
        input=_STRING, poly=_STRING, hex=_STRING,
        sigma=_object(poly=_STRING, hex=_STRING, degree=_INTEGER),
        factors=_FACTOR_ITEMS, rendered=_STRING,
    ),
    "perfect": _object(
        input=_STRING, poly=_STRING, hex=_STRING, degree=_INTEGER, perfect=_BOOLEAN,
        indecomposable={"type": ["boolean", "null"]},
    ),
    "catalog-verify": _object(
        ok=_BOOLEAN, mersennes=_INTEGER, stypes=_INTEGER, perfects=_INTEGER, degree_sum=_INTEGER,
    ),
    "catalog-export": _object(
        mersennes=_CATALOG_ENTRIES, stypes=_CATALOG_ENTRIES, perfects=_CATALOG_ENTRIES,
        degree_sum=_INTEGER,
    ),
    "admissible": _object(
        names=_STRINGS, family=_STRINGS, closed_under_star_or_bar=_BOOLEAN,
        sigma_x_witness={"type": ["array", "null"]}, member_witnesses={"type": "object"},
        admissible=_BOOLEAN,
    ),
    "tables": _object(
        table={"enum": ["x2h", "mersenne", "s"]},
        rows={"type": "array", "items": _object(
            base=_STRING, base_hex=_STRING, exponent=_INTEGER, factors={"type": "array"},
            rendered=_STRING,
        )},
    ),
    "theorem": _object(
        counts=_object(
            step1=_INTEGER, step2=_INTEGER, step3=_INTEGER, perfect_survivors=_INTEGER,
            closure=_INTEGER,
        ),
        candidates={"type": "array"}, perfect_survivors=_STRINGS, closure={"type": "array"},
        closure_names=_STRINGS, report_path=_STRING_OR_NULL,
    ),
    "scan": _object(
        max_degree=_INTEGER, workers=_INTEGER, count=_INTEGER,
        results={"type": "array", "items": _object(
            poly=_STRING, hex=_STRING, degree=_INTEGER, rendered=_STRING, indecomposable=_BOOLEAN,
        )},
    ),
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _factor_items(f: Factorization, names: Mapping[Poly, str]) -> list[dict]:
    return [
        {
            "poly": str(p),
            "hex": p.to_hex(),
            "degree": p.degree,
            "multiplicity": e,
            "name": names.get(p),
        }
        for p, e in f
    ]


def _write_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file and os.replace (atomic on POSIX).

    The file keeps the mode of the one it replaces; a new file gets 0o666
    less the umask, as open() would give it, not mkstemp's 0o600.
    """
    target = os.path.abspath(path)
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".gf2sigma-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(data: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:
        print("\n".join(text_lines))


def _normalize_name(raw: str) -> str:
    s = raw.strip().upper().replace("_", "")
    if len(s) >= 2 and s[0] in "MST" and s[1:].isdigit():
        return f"{s[0]}_{int(s[1:])}"
    return raw.strip()


# ---------------------------------------------------------------------------
# subcommand implementations (each returns an exit code)
# ---------------------------------------------------------------------------


def _factor_input(text: str) -> Poly:
    """parse_expr(text), refusing a degree above MAX_FACTOR_DEGREE (exit 1)."""
    p = parse_expr(text)
    if p.degree > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {p.degree} exceeds {MAX_FACTOR_DEGREE}, the limit "
                         f"(MAX_FACTOR_DEGREE) for factor, sigma and perfect")
    return p


def _cmd_factor(args: argparse.Namespace) -> int:
    p = _factor_input(args.poly)
    names = _catalog().names_by_poly
    f = factor(p)
    data = {
        "input": args.poly,
        "poly": str(p),
        "hex": p.to_hex(),
        "degree": p.degree,
        "irreducible": len(f) == 1 and f.factors[0][1] == 1 and p.degree >= 1,
        "factors": _factor_items(f, names),
        "rendered": f.render(names),
    }
    _emit(data, args.format, [f"{p} = {data['rendered']}"])
    return 0


def _cmd_sigma(args: argparse.Namespace) -> int:
    p = _factor_input(args.poly)
    names = _catalog().names_by_poly
    sv = sigma(p)
    data = {
        "input": args.poly,
        "poly": str(p),
        "hex": p.to_hex(),
        "sigma": {"poly": str(sv.value), "hex": sv.value.to_hex(), "degree": sv.value.degree},
        "factors": _factor_items(sv.factored, names),
        "rendered": sv.factored.render(names),
    }
    _emit(data, args.format, [f"sigma({p}) = {sv.value}", f"           = {data['rendered']}"])
    return 0


def _cmd_perfect(args: argparse.Namespace) -> int:
    p = _factor_input(args.poly)
    value, indec = _perfect_verdict(p)
    perfect = indec is not None
    data = {
        "input": args.poly,
        "poly": str(p),
        "hex": p.to_hex(),
        "degree": p.degree,
        "perfect": perfect,
        "indecomposable": indec,
    }
    if perfect:
        kind = "indecomposable" if indec else "decomposable"
        lines = [f"{p}: perfect ({kind})"]
    else:
        lines = [f"{p}: not perfect (sigma = {Poly(value)})"]
    _emit(data, args.format, lines)
    return 0 if perfect else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "verify" and args.output:
        print("gf2sigma catalog: error: --output applies only to catalog export", file=sys.stderr)
        return 2
    cat = build_catalog()  # raises CatalogError when any invariant fails
    if args.action == "verify":
        data = {
            "ok": True,
            "mersennes": len(cat.mersennes),
            "stypes": len(cat.stypes),
            "perfects": len(cat.perfects),
            "degree_sum": sum(e.degree for e in cat.mersennes + cat.stypes),
        }
        lines = [
            f"catalog ok: {data['mersennes']} Mersenne irreducibles, "
            f"{data['stypes']} S-type irreducibles, {data['perfects']} perfect polynomials",
            f"family degree sum: {data['degree_sum']}",
        ]
        _emit(data, args.format, lines)
        return 0
    data = cat.to_json()
    if args.output:
        _write_atomic(args.output, json.dumps(data, indent=2) + "\n")
        print(f"catalog written to {args.output}")
        return 0
    _emit(data, args.format, [f"{e.name:5s} deg {e.degree:2d}  bar={e.bar_partner:5s} "
                              f"star={e.star_partner or '-':5s}  {e.poly}" for e in cat.entries])
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    cat = _catalog()
    members: dict[str, Poly] = {}  # each resolved member once, in first-seen order
    for raw in args.names:
        if raw.strip().upper() in ("F", "FAMILY", "ALL"):
            for e in cat.mersennes + cat.stypes:
                members.setdefault(e.name, e.poly)
            continue
        key = _normalize_name(raw)
        entry = cat.by_name.get(key)
        if entry is None or entry.kind == "perfect":
            raise CatalogError(
                f"unknown family member {raw!r} (expected M_1..M_13, S_1..S_15, or F)"
            )
        members.setdefault(entry.name, entry.poly)
    report = check_admissible(members.values())
    data = {"names": list(members), **report.to_json()}
    lines = [
        f"family: {' '.join(members)} ({len(report.family)} members)",
        f"closed under star or bar: {'yes' if report.closed_under_star_or_bar else 'no'}",
    ]
    if report.sigma_x_witness:
        h, side = report.sigma_x_witness
        lines.append(f"sigma({side}^{2 * h}) factors over the family (h={h})")
    else:
        lines.append("no sigma(x^2h)/sigma((x+1)^2h) witness")
    for member, w in report.member_witnesses.items():
        if w is None:
            desc = "no witness"
        elif w["kind"] == "one_plus_factors":
            desc = "1+T splits over the family"
        else:
            desc = f"sigma(T^{2 * w['h']}) splits over the family"
        lines.append(f"  {member}: {desc}")
    verdict = "admissible" if report.admissible else "not admissible"
    lines.append(f"verdict: {verdict}")
    _emit(data, args.format, lines)
    return 0 if report.admissible else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    names = _catalog().names_by_poly
    rows = {"x2h": sigma_x2h_table, "mersenne": sigma_mersenne_table, "s": sigma_s_table}[args.table]()
    data = {
        "table": args.table,
        "rows": [dict(r.to_json(), rendered=r.factorization.render(names)) for r in rows],
    }
    lines = [
        f"sigma({'(' + r.base_name + ')' if '+' in r.base_name else r.base_name}^{r.exponent})"
        f" = {r.factorization.render(names)}"
        for r in rows
    ]
    lines.append(f"{len(rows)} rows")
    _emit(data, args.format, lines)
    return 0


def _cmd_theorem(args: argparse.Namespace) -> int:
    report = run_pipeline()  # raises SearchError on closure mismatch
    report_json = report.to_json()
    data = dict(report_json, report_path=args.report)
    if args.report:
        # the file holds only the report itself, so repeated runs are
        # byte-identical regardless of where they are written
        _write_atomic(args.report, json.dumps(report_json, indent=2, sort_keys=True) + "\n")
    lines = [
        f"step 1: {report.step1_count} tuples",
        f"step 2: {report.step2_count} tuples",
        f"step 3: {report.step3_count} candidates",
        f"perfect survivors: {len(report.perfect_survivors)}",
        f"closure under conjugation: {' '.join(report.closure_names)}",
        "closure matches the cataloged perfect polynomials",
    ]
    if args.report:
        lines.append(f"report written to {args.report}")
    _emit(data, args.format, lines)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    names = _catalog().names_by_poly
    results = exhaustive_scan(args.max_degree, workers=args.workers)
    items = [
        {
            "poly": str(p),
            "hex": p.to_hex(),
            "degree": p.degree,
            "rendered": factor(p).render(names),
            "indecomposable": is_indecomposable_perfect(p),
        }
        for p in results
    ]
    data = {
        "max_degree": args.max_degree,
        "workers": args.workers,
        "count": len(results),
        "results": items,
    }
    lines = [
        f"deg {it['degree']:2d}  {it['rendered']}  [{'indecomposable' if it['indecomposable'] else 'decomposable'}]"
        for it in items
    ]
    lines.append(f"{len(results)} perfect polynomials of degree 1..{args.max_degree}")
    _emit(data, args.format, lines)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="gf2sigma",
        description="sum-of-divisors computations for polynomials over GF(2)",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", parents=[fmt], help="factor a polynomial")
    p.add_argument("poly", help="polynomial, e.g. 'x^4+x+1', '0x13', or '(x+1)^2*(x^2+x+1)'")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("sigma", parents=[fmt], help="sum of divisors")
    p.add_argument("poly")
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("perfect", parents=[fmt], help="test sigma(A) = A")
    p.add_argument("poly")
    p.set_defaults(fn=_cmd_perfect)

    p = sub.add_parser("catalog", parents=[fmt], help="verify or export the roster")
    p.add_argument("action", choices=("verify", "export"))
    p.add_argument("--output", help="write the export to a file (atomic; export only)")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("admissible", parents=[fmt], help="check admissibility conditions")
    p.add_argument("names", nargs="+", metavar="NAME",
                   help="roster members (M_1..M_13, S_1..S_15) or F for the whole family")
    p.set_defaults(fn=_cmd_admissible)

    p = sub.add_parser("tables", parents=[fmt], help="sigma factor tables")
    p.add_argument("table", choices=("x2h", "mersenne", "s"))
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("theorem", parents=[fmt],
                       help="three-step enumeration and conjugation closure")
    p.add_argument("--report", help="write the full JSON report to a file (atomic)")
    p.set_defaults(fn=_cmd_theorem)

    p = sub.add_parser("scan", parents=[fmt], help="exhaustive perfect-polynomial scan")
    p.add_argument("--max-degree", type=int, required=True,
                   help=f"scan degrees 1..N (ceiling {DEFAULT_SCAN_CEILING}, "
                        f"override with {SCAN_CEILING_ENV})")
    p.add_argument("--workers", type=int, default=1,
                   help="split the search over at most N processes (capped at the cpu count); "
                        "the sieve, nearly all of a scan, stays in one, so N > 1 is no faster")
    p.set_defaults(fn=_cmd_scan)

    return parser


# Built on the first main() call, not at import, and reused: parse_args
# reads the parser and returns a fresh namespace each time.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, SearchError) as exc:
        # Domain errors: unparseable polynomial, unknown catalog name,
        # ceiling violations, closure failures.  Usage errors (bad flags,
        # missing arguments) exit 2 via argparse above.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        # e.g. an unwritable --report/--output destination
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
