"""Command line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import json

import pytest

from wildforms.cli import main

SHEARED = ("x^3 + 2*x^2*u + x*y^2 + x*y*v + x*u^2 + y^2*z + y^2*u "
           "+ 2*y*z*v + y*u*v + z*v^2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestHilbert:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--family", "ikeda")
        assert code == 0
        assert "hilbert: 1 4 10 10 4 1" in out
        assert "symmetric: True" in out
        assert "unimodal: True" in out
        assert "conciseness: 2" in out

    def test_json(self, capsys):
        payload = run_json(capsys, "hilbert", "--family", "ikeda")
        assert payload["schema"] == "wildforms-cli/1"
        assert payload["command"] == "hilbert"
        assert payload["hilbert"] == [1, 4, 10, 10, 4, 1]
        assert payload["symmetric"] is True

    def test_poly_input(self, capsys):
        payload = run_json(capsys, "hilbert", "--poly", "x^2*y^3",
                           "--vars", "x,y")
        assert payload["hilbert"] == [1, 2, 3, 3, 2, 1]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "form.txt"
        path.write_text("x^3 + y^3 + z^3\n", encoding="utf-8")
        payload = run_json(capsys, "hilbert", "--file", str(path),
                           "--vars", "x,y,z")
        assert payload["hilbert"] == [1, 3, 3, 1]


class TestAnalyzeAndBounds:
    def test_analyze_wild_quintic(self, capsys):
        code, out, _ = run(capsys, "analyze", "--family", "ikeda")
        assert code == 0
        assert "border: <= 10 (additive)" in out
        assert "cactus: > 10" in out
        assert "verdict: wild" in out

    def test_bounds_spread_not_established(self, capsys):
        payload = run_json(capsys, "bounds", "--family",
                           "monomial-spread(2, 4)", "--deterministic")
        cert = payload["certificate"]
        assert cert["verdict"] == "not-established"
        assert cert["border"]["value"] == 80
        assert cert["cactus"]["value"] == 70
        assert any("doubled threshold of 140" in n for n in cert["notes"])

    def test_partition_flag(self, capsys):
        payload = run_json(capsys, "bounds", "--poly",
                           "x*u^2 + y*u*v + z*v^2", "--vars", "x,y,z,u,v",
                           "--partition", "X=x,y,z;U=u,v", "--deterministic")
        cert = payload["certificate"]
        assert cert["verdict"] == "wild"
        assert cert["border"]["value"] == 5
        assert cert["cactus"]["evidence"]["criterion"] == "slice-rank"

    def test_deterministic_suppresses_clock(self, capsys):
        with_clock = run_json(capsys, "analyze", "--family", "perazzo")
        assert "elapsed_seconds" in with_clock
        a = run_json(capsys, "analyze", "--family", "perazzo",
                     "--deterministic")
        assert "elapsed_seconds" not in a
        b = run_json(capsys, "analyze", "--family", "perazzo",
                     "--deterministic")
        assert a == b

    def test_seed_changes_generic_draw(self, capsys):
        a = run_json(capsys, "bounds", "--family", "exceptional(3, 5)",
                     "--seed", "1", "--deterministic")
        b = run_json(capsys, "bounds", "--family", "exceptional(3, 5)",
                     "--seed", "2", "--deterministic")
        assert a["certificate"]["form"] != b["certificate"]["form"]
        assert a["certificate"]["verdict"] == b["certificate"]["verdict"] == "wild"


class TestHessian:
    def test_rank_and_determinant(self, capsys):
        payload = run_json(capsys, "hessian", "--family", "perazzo", "--k", "1")
        assert payload["rank"]["value"] == 4
        assert payload["rank"]["certainty"] == "certified-symbolic"
        assert payload["determinant_vanishes"] is True

    def test_rectangular_slice(self, capsys):
        code, out, _ = run(capsys, "hessian", "--family", "ikeda",
                           "--k", "1", "--l", "2")
        assert code == 0
        assert "Hess^(1,2): 4 x 10" in out
        assert "determinant" not in out

    def test_determinant_skipped_above_cap(self, capsys):
        payload = run_json(capsys, "hessian", "--family", "ikeda",
                           "--k", "2", "--max-symbolic-dim", "4")
        assert "determinant_vanishes" not in payload
        assert payload["rank"]["value"] == 9

    def test_strict_budget_exit(self, capsys):
        code, _, err = run(capsys, "hessian", "--poly", SHEARED,
                           "--vars", "x,y,z,u,v", "--k", "1",
                           "--max-symbolic-dim", "2", "--strict")
        assert code == 3
        assert "budget refusal" in err


class TestLefschetz:
    def test_wlp_obstruction(self, capsys):
        code, out, _ = run(capsys, "lefschetz", "--family", "ikeda", "--wlp")
        assert code == 0
        assert "verdict: fails" in out
        assert "map A_2 -> A_3: rank 9 of 10" in out
        assert "for every linear element" in out

    def test_slp_with_element(self, capsys):
        payload = run_json(capsys, "lefschetz", "--poly", "x^3 + y^3 + z^3",
                           "--vars", "x,y,z", "--slp", "--element", "1,1,1")
        assert payload["report"]["verdict"] == "holds"
        assert payload["report"]["element"] == ["1", "1", "1"]

    def test_element_zero_denominator(self, capsys):
        code, out, err = run(capsys, "lefschetz", "--family", "perazzo", "--wlp",
                             "--element", "1/0,1,1,1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_element_length_checked(self, capsys):
        code, _, err = run(capsys, "lefschetz", "--poly", "x^3 + y^3 + z^3",
                           "--vars", "x,y,z", "--slp", "--element", "1,1")
        assert code == 2
        assert "3 coefficients" in err

    def test_property_flags_exclusive(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["lefschetz", "--family", "ikeda", "--wlp", "--slp"])
        assert info.value.code == 2
        capsys.readouterr()


class TestBinaryRank:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "binary-rank", "--poly", "x^2*y^3",
                           "--vars", "x,y")
        assert code == 0
        assert out.strip() == "rank: 4"

    def test_json(self, capsys):
        payload = run_json(capsys, "binary-rank", "--poly", "x*y^4",
                           "--vars", "x,y")
        assert payload["rank"] == 5

    def test_needs_two_variables(self, capsys):
        code, _, err = run(capsys, "binary-rank", "--poly", "x*y*z",
                           "--vars", "x,y,z")
        assert code == 2


class TestFamilyCommand:
    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "family", "--list")
        assert code == 0
        assert "perazzo:" in out
        assert "formula-only" in out

    def test_list_json(self, capsys):
        payload = run_json(capsys, "family", "--list")
        names = {row["name"] for row in payload["families"]}
        assert {"perazzo", "ikeda", "power-family-large"} <= names

    def test_formula(self, capsys):
        payload = run_json(capsys, "family", "--formula",
                           "power-family-large(17)")
        assert payload["bounds"]["cactus_threshold"] == 4845
        assert payload["bounds"]["border_bound"] == 4640
        assert payload["bounds"]["wild"] is True

    def test_formula_two_arguments(self, capsys):
        payload = run_json(capsys, "family", "--formula",
                           "gn-quartic-formula(28, 30)")
        assert payload["bounds"]["wild"] is False

    def test_formula_errors(self, capsys):
        assert run(capsys, "family", "--formula", "no-such(3)")[0] == 2
        assert run(capsys, "family", "--formula",
                   "power-family-large(1, 2, 3)")[0] == 2
        assert run(capsys, "family")[0] == 2
        assert run(capsys, "family", "--list", "--formula",
                   "power-family-large(17)")[0] == 2
        code, _, err = run(capsys, "family", "--formula", "power-family-large(17")
        assert code == 2 and "unreadable formula spec" in err


class TestBadInput:
    def test_no_source(self, capsys):
        code, _, err = run(capsys, "hilbert")
        assert code == 2
        assert "exactly one" in err

    def test_two_sources(self, capsys):
        code, _, _ = run(capsys, "hilbert", "--poly", "x^2", "--vars", "x",
                         "--family", "ikeda")
        assert code == 2

    def test_poly_needs_vars(self, capsys):
        code, _, err = run(capsys, "hilbert", "--poly", "x^2")
        assert code == 2
        assert "--vars" in err

    def test_zero_polynomial(self, capsys):
        code, _, err = run(capsys, "hilbert", "--poly", "x - x", "--vars", "x,y")
        assert code == 2
        assert "zero" in err

    def test_inhomogeneous(self, capsys):
        code, _, err = run(capsys, "hilbert", "--poly", "x + y^2",
                           "--vars", "x,y")
        assert code == 2
        assert "inhomogeneous" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "hilbert", "--file", "/no/such/file.txt",
                         "--vars", "x,y")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "hilbert", "--family", "heptagon")
        assert code == 2
        assert "unknown family" in err

    def test_exceptional_one_x_variable(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "exceptional(1,3)")
        assert code == 2
        assert err.startswith("error:") and "n >= 2" in err

    def test_bad_partition(self, capsys):
        base = ["bounds", "--poly", "x*u^2 + y*u*v + z*v^2",
                "--vars", "x,y,z,u,v"]
        assert run(capsys, *base, "--partition", "X=x,y,z")[0] == 2
        assert run(capsys, *base, "--partition", "X=x,q;U=u,v")[0] == 2
        assert run(capsys, *base, "--partition", "X=;U=u")[0] == 2
        missing = run(capsys, *base, "--partition", "X=x,y;U=u,v")
        assert missing[0] == 2 and "do not partition" in missing[2]
        overlap = run(capsys, *base, "--partition", "X=x,y,z,u;U=u,v")
        assert overlap[0] == 2 and "do not partition" in overlap[2]

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["hilbert", "--family", "ikeda", "--frobnicate"])
        assert info.value.code == 2
        capsys.readouterr()
