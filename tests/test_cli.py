"""Command-line surface: exit codes, schemas, determinism, atomic writes."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import jsonschema
import pytest

import expected
from gf2sigma import factorizer
from gf2sigma.catalog import build_catalog
from gf2sigma.cli import SCHEMAS, main
from gf2sigma.gf2poly import ParseError, parse_expr
from gf2sigma.search import MAX_SCAN_CEILING

sigma_module = importlib.import_module("gf2sigma.sigma")  # the package's sigma is the function

T1_EXPR = "x^2*(x+1)*(x^2+x+1)"
SCHEMAS_GOLDEN = Path(__file__).parent / "data" / "schemas_golden.json"


@pytest.fixture()
def run(capsys):
    def _run(*argv: str):
        code = main(list(argv))
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return _run


@pytest.fixture()
def run_json(run):
    """Run with --format json and validate the output against the published
    schema for the subcommand."""

    def _run(*argv: str):
        key = argv[0] if argv[0] != "catalog" else f"catalog-{argv[1]}"
        code, out, err = run(*argv, "--format", "json")
        data = json.loads(out)
        jsonschema.validate(data, SCHEMAS[key])
        return code, data, err

    return _run


class TestFactor:
    def test_known_perfect_product_form(self, run_json):
        code, data, _ = run_json("factor", T1_EXPR)
        assert code == 0
        assert data["poly"] == "x^5+x^2"
        assert data["degree"] == 5
        assert [f["multiplicity"] for f in data["factors"]] == [2, 1, 1]
        assert data["factors"][2]["name"] == "M_1"
        assert data["irreducible"] is False

    def test_unit_has_empty_factorization(self, run_json):
        code, data, _ = run_json("factor", "0x1")
        assert code == 0
        assert data["factors"] == []
        assert data["irreducible"] is False

    def test_irreducible_flag(self, run_json):
        code, data, _ = run_json("factor", "x^2+x+1")
        assert code == 0
        assert data["irreducible"] is True

    def test_unparseable_is_domain_error(self, run):
        code, out, err = run("factor", "x^")
        assert code == 1
        assert "error" in err

    def test_degree_limit_is_domain_error(self, run):
        code, _, err = run("factor", "x^100000")
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["x^" + "1" * 5000, "(x+1)^" + "1" * 5000])
    def test_overlong_exponent_is_domain_error(self, run, text):
        code, _, err = run("factor", text)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["0x" + "f" * 20000, "(" * 250 + "x" + ")" * 250])
    def test_oversized_input_is_domain_error(self, run, text):
        code, _, err = run("factor", text)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        with pytest.raises(ParseError) as ei:
            parse_expr(text)
        assert f"at position {ei.value.pos} in " in err
        assert len(err.encode()) < 200

    def test_text_and_json_carry_same_facts(self, run, run_json):
        code, out, _ = run("factor", T1_EXPR)
        _, data, _ = run_json("factor", T1_EXPR)
        assert code == 0
        assert data["poly"] in out
        assert "M_1" in out


class TestSigma:
    def test_sigma_of_m1(self, run_json):
        code, data, _ = run_json("sigma", "0x7")
        assert code == 0
        assert data["sigma"]["poly"] == "x^2+x"
        assert [f["poly"] for f in data["factors"]] == ["x", "x+1"]

    def test_text_mentions_value(self, run):
        code, out, _ = run("sigma", "0x7")
        assert code == 0
        assert "x^2+x" in out


class TestPerfect:
    def test_perfect_verdict_exit_0(self, run_json):
        code, data, _ = run_json("perfect", T1_EXPR)
        assert code == 0
        assert data["perfect"] is True
        assert data["indecomposable"] is True

    def test_not_perfect_verdict_exit_1(self, run):
        code, out, err = run("perfect", "x^3")
        assert code == 1
        assert "not perfect" in out

    def test_trivial_perfect_text(self, run):
        code, out, _ = run("perfect", "x^2+x")
        assert code == 0
        assert "perfect" in out

    def test_input_factored_once(self, run, monkeypatch):
        """perfect factors A once and never factors sigma(A), perfect or not."""
        calls = []

        def counting(m):
            calls.append(m)
            return original(m)

        original = factorizer._factor_mask
        monkeypatch.setattr(factorizer, "_factor_mask", counting)
        monkeypatch.setattr(sigma_module, "_factor_mask", counting)
        for poly in (T1_EXPR, "x^3", "x^4+x+1"):
            for fmt in ("text", "json"):
                calls.clear()
                run("perfect", poly, "--format", fmt)
                assert calls == [parse_expr(poly).mask], (poly, fmt)


class TestCatalog:
    def test_verify(self, run_json):
        code, data, _ = run_json("catalog", "verify")
        assert code == 0
        assert data == {
            "ok": True,
            "mersennes": 13,
            "stypes": 15,
            "perfects": 11,
            "degree_sum": 184,
        }

    def test_export_matches_library(self, run_json):
        code, data, _ = run_json("catalog", "export")
        assert code == 0
        assert data == build_catalog().to_json()

    def test_export_to_file(self, run, tmp_path):
        out_file = tmp_path / "catalog.json"
        code, out, _ = run("catalog", "export", "--output", str(out_file))
        assert code == 0
        assert str(out_file) in out
        assert json.loads(out_file.read_text()) == build_catalog().to_json()

    def test_export_to_unwritable_path(self, run, tmp_path):
        code, _, err = run("catalog", "export", "--output", str(tmp_path / "no" / "x.json"))
        assert code == 1
        assert "error" in err

    def test_export_text_lists_members(self, run):
        code, out, _ = run("catalog", "export")
        assert code == 0
        for name in ("M_1", "S_15", "T_11"):
            assert name in out


class TestAdmissible:
    def test_single_member(self, run_json):
        code, data, _ = run_json("admissible", "M_1")
        assert code == 0
        assert data["names"] == ["M_1"]
        assert data["admissible"] is True

    def test_whole_family_shortcut(self, run_json):
        code, data, _ = run_json("admissible", "F")
        assert code == 0
        assert len(data["names"]) == 28
        assert data["closed_under_star_or_bar"] is True

    def test_negative_verdict_text(self, run):
        code, out, _ = run("admissible", "S_5")
        assert code == 1
        assert out.splitlines()[2:] == [
            "no sigma(x^2h)/sigma((x+1)^2h) witness",
            "  x^6+x^4+x^3+x+1: no witness",
            "verdict: not admissible",
        ]

    def test_name_normalization(self, run_json):
        code, data, _ = run_json("admissible", "m1")
        assert code == 0
        assert data["names"] == ["M_1"]

    def test_unknown_name_is_domain_error(self, run):
        code, _, err = run("admissible", "Q_9")
        assert code == 1
        assert "unknown family member" in err

    def test_perfect_name_rejected(self, run):
        code, _, err = run("admissible", "T_1")
        assert code == 1
        assert "unknown family member" in err


class TestTables:
    @pytest.mark.parametrize(
        "which,rows", [("x2h", 12), ("mersenne", 6), ("s", 2)]
    )
    def test_row_counts(self, run_json, which, rows):
        code, data, _ = run_json("tables", which)
        assert code == 0
        assert len(data["rows"]) == rows

    def test_x2h_text_lines(self, run):
        code, out, _ = run("tables", "x2h")
        assert code == 0
        assert "sigma(x^2) = M_1" in out
        assert "sigma((x+1)^4) = M_5" in out
        assert "sigma(x^8) = M_1 * S_4" in out

    def test_mersenne_text_lines(self, run):
        code, out, _ = run("tables", "mersenne")
        assert code == 0
        assert "sigma(M_1^2) = S_1" in out
        assert "sigma(M_1^14) = M_4 * M_5 * S_1 * S_7 * S_8" in out

    def test_s_text_lines(self, run):
        code, out, _ = run("tables", "s")
        assert code == 0
        assert "sigma(S_1^2) = M_4 * M_5" in out
        assert "sigma(S_2^2) = S_1 * S_7" in out

    def test_json_rows_carry_rendered_products(self, run_json):
        code, data, _ = run_json("tables", "s")
        rendered = {r["rendered"] for r in data["rows"]}
        assert rendered == {"M_4 * M_5", "S_1 * S_7"}


class TestTheorem:
    def test_counts_and_closure(self, run_json):
        code, data, _ = run_json("theorem")
        assert code == 0
        assert data["counts"]["step1"] == expected.MEASURED_COUNTS[0]
        assert data["counts"]["step2"] == expected.MEASURED_COUNTS[1]
        assert data["counts"]["step3"] == expected.MEASURED_COUNTS[2]
        assert data["counts"]["closure"] == 11
        assert set(data["closure_names"]) == expected.ALL_PERFECT_NAMES

    def test_report_files_byte_identical(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("theorem", "--report", str(a))[0] == 0
        assert run("theorem", "--report", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_path_echoed_in_json(self, run, tmp_path):
        out_file = tmp_path / "r.json"
        code, out, _ = run("theorem", "--report", str(out_file), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["report_path"] == str(out_file)
        jsonschema.validate(data, SCHEMAS["theorem"])

    def test_text_mentions_closure(self, run):
        code, out, _ = run("theorem")
        assert code == 0
        assert "closure matches the cataloged perfect polynomials" in out


class TestScan:
    def test_degree_8(self, run_json):
        code, data, _ = run_json("scan", "--max-degree", "8")
        assert code == 0
        assert data["count"] == 4
        assert [r["degree"] for r in data["results"]] == [2, 5, 5, 6]
        assert all(r["indecomposable"] for r in data["results"])

    def test_workers_flag_parity(self, run_json):
        _, serial, _ = run_json("scan", "--max-degree", "10")
        _, parallel, _ = run_json("scan", "--max-degree", "10", "--workers", "2")
        assert [r["hex"] for r in serial["results"]] == [r["hex"] for r in parallel["results"]]

    def test_ceiling_violation_is_domain_error(self, run):
        code, _, err = run("scan", "--max-degree", "99")
        assert code == 1
        assert "max_degree" in err

    def test_env_ceiling_override(self, run, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", "6")
        code, _, err = run("scan", "--max-degree", "7")
        assert code == 1
        assert "1..6" in err

    def test_env_ceiling_above_maximum_is_domain_error(self, run, monkeypatch):
        monkeypatch.setenv("GF2SIGMA_SCAN_CEILING", str(MAX_SCAN_CEILING + 1))
        code, _, err = run("scan", "--max-degree", "4")
        assert code == 1
        assert "GF2SIGMA_SCAN_CEILING" in err
        assert "Traceback" not in err

    def test_bad_worker_count(self, run):
        code, _, err = run("scan", "--max-degree", "6", "--workers", "0")
        assert code == 1


class TestUsageErrors:
    def test_no_arguments(self, run):
        assert run()[0] == 2

    def test_unknown_subcommand(self, run):
        assert run("frobnicate")[0] == 2

    def test_bad_format_choice(self, run):
        assert run("factor", "x", "--format", "yaml")[0] == 2

    def test_missing_required_argument(self, run):
        assert run("scan")[0] == 2

    def test_h_max_flag_is_gone(self, run):
        for argv in (("tables", "x2h"), ("admissible", "M_1")):
            code, out, err = run(*argv, "--h-max", "92")
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --h-max 92" in err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "gf2sigma" in capsys.readouterr().out


def test_every_schema_is_itself_valid():
    for key, schema in SCHEMAS.items():
        jsonschema.Draft7Validator.check_schema(schema)


def test_schemas_match_golden():
    """The published schemas are pinned byte for byte."""
    assert json.dumps(SCHEMAS, indent=2) == SCHEMAS_GOLDEN.read_text()
