"""Command line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import gc
import json
from fractions import Fraction

import pytest

from wildforms import cli, hessian
from wildforms.apolar import CatalecticantSlice
from wildforms.cli import main
from wildforms.families import build
from wildforms.hessian import RankPolicy, hessian_determinant
from wildforms.poly import Form, parse

SHEARED = ("x^3 + 2*x^2*u + x*y^2 + x*y*v + x*u^2 + y^2*z + y^2*u "
           "+ 2*y*z*v + y*u*v + z*v^2")


# every refusal of a family or formula spec, as the CLI prints it
REFUSALS = [
    (["analyze", "--family", "nope"],
     "error: unknown family 'nope'; known: bb-cubic, exceptional, ikeda, "
     "monomial-spread, perazzo, power-family\n"),
    (["analyze", "--family", "power-family-large(3)"],
     "error: power-family-large is formula-only and cannot be built; "
     "power_family_bounds(d) for members above d = 4\n"),
    (["analyze", "--family", "ikeda(1)"],
     "error: ikeda takes 0 integer parameter(s), got 1\n"),
    (["analyze", "--family", "exceptional(2)"],
     "error: exceptional takes 2 integer parameter(s), got 1\n"),
    (["family", "--formula", "nope"],
     "error: unknown formula 'nope'; known: gn-quartic-formula, "
     "power-family-large\n"),
    (["family", "--formula", "ikeda"],
     "error: unknown formula 'ikeda'; known: gn-quartic-formula, "
     "power-family-large\n"),
    (["family", "--formula", "gn-quartic-formula(1,2,3)"],
     "error: gn-quartic-formula takes between 1 and 2 integers\n"),
    (["family", "--formula", "power-family-large()"],
     "error: power-family-large takes between 1 and 1 integers\n"),
]


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

    def test_analyze_reads_hilbert_facts_off_the_certificate(self, capsys, monkeypatch):
        """analyze prints the certificate's Hilbert vector and conciseness
        without computing either again."""
        expected = run(capsys, "analyze", "--family", "ikeda", "--deterministic")
        expected_json = run_json(capsys, "analyze", "--family", "ikeda", "--deterministic")

        def fail(f):
            raise AssertionError("recomputed")

        monkeypatch.setattr(cli, "hilbert", fail)
        monkeypatch.setattr(cli, "conciseness", fail)
        assert run(capsys, "analyze", "--family", "ikeda", "--deterministic") == expected
        payload = run_json(capsys, "analyze", "--family", "ikeda", "--deterministic")
        assert json.dumps(payload) == json.dumps(expected_json)
        assert list(payload)[-4:] == ["hilbert", "symmetric", "unimodal", "conciseness"]
        assert expected[1].splitlines()[3] == "symmetric: True, unimodal: True"

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

    @pytest.mark.parametrize("spec,k,vanishes", [
        ("perazzo", 1, True),
        ("ikeda", 2, True),
        ("exceptional(3,5)", 2, True),
        ("ikeda", 1, False),
    ])
    def test_certified_rank_decides_determinant(self, capsys, monkeypatch,
                                                spec, k, vanishes):
        calls = []
        monkeypatch.setattr(cli, "hessian_determinant",
                            lambda *a: calls.append(a))
        payload = run_json(capsys, "hessian", "--family", spec, "--k", str(k),
                           "--max-symbolic-dim", "16")
        assert payload["rank"]["certainty"] != "probabilistic"
        assert not calls
        det = hessian_determinant(build(spec).form, k,
                                  RankPolicy(max_symbolic_dim=16))
        assert payload["determinant_vanishes"] is (det is None)
        assert (det is None) is vanishes

    def test_probabilistic_rank_computes_determinant(self, capsys, monkeypatch):
        monkeypatch.setattr(hessian, "MAX_ENTRY_DEGREE", 0)
        calls = []

        def counted(*a):
            calls.append(a)
            return hessian_determinant(*a)
        monkeypatch.setattr(cli, "hessian_determinant", counted)
        payload = run_json(capsys, "hessian", "--poly", SHEARED,
                           "--vars", "x,y,z,u,v", "--k", "1")
        assert payload["rank"]["certainty"] == "probabilistic"
        assert len(calls) == 1
        det = hessian_determinant(parse(SHEARED, "xyzuv"), 1)
        assert payload["determinant_vanishes"] is (det is None)
        assert det is None

    def test_rank_policy_that_certifies_nothing(self, capsys):
        base = ["hessian", "--family", "ikeda", "--k", "2"]
        for extra in (["--rank-trials", "0", "--max-symbolic-dim", "0"],
                      ["--rank-trials", "-1"], ["--max-symbolic-dim", "-1"]):
            code, out, err = run(capsys, *base, *extra)
            assert code == 2 and not out
            assert err.startswith("error:")

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

    @pytest.mark.parametrize("error", [
        RuntimeError("no squarefree annihilator found through the degree"),
        ArithmeticError("inexact polynomial division"),
        ZeroDivisionError("polynomial division by zero"),
    ])
    def test_internal_error_exits_one(self, capsys, monkeypatch, error):
        def fail(f):
            raise error

        monkeypatch.setattr(cli, "binary_waring_rank", fail)
        code, out, err = run(capsys, "binary-rank", "--poly", "x^2*y^3",
                             "--vars", "x,y")
        assert (code, out) == (1, "")
        assert err == f"internal error: {error}\n"


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
        code, _, err = run(capsys, "family", "--formula",
                           "gn-quartic-formula(3,-)")
        assert code == 2
        assert err == ("error: formula spec 'gn-quartic-formula(3,-)' has a "
                       "non-integer argument '-'\n")

    def test_formula_negative_e_refused(self, capsys):
        code, out, err = run(capsys, "family", "--formula", "gn-quartic-formula(1,-3)")
        assert (code, out, err) == (2, "", "error: need e >= 0\n")
        assert run_json(capsys, "family", "--formula",
                        "gn-quartic-formula(1,0)")["bounds"]["e"] == 0


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

    def test_family_argument_not_an_integer(self, capsys):
        code, _, err = run(capsys, "hilbert", "--family", "exceptional(3,-)")
        assert code == 2
        assert err == ("error: family spec 'exceptional(3,-)' has a "
                       "non-integer argument '-'\n")

    @pytest.mark.parametrize("argv,err", REFUSALS,
                             ids=[" ".join(argv) for argv, _ in REFUSALS])
    def test_family_refusal_texts(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", err)

    def test_exceptional_one_x_variable(self, capsys):
        code, _, err = run(capsys, "analyze", "--family", "exceptional(1,3)")
        assert code == 2
        assert err.startswith("error:") and "n >= 2" in err

    @pytest.mark.parametrize("element,err", [
        ("1,,1", "error: --element '1,,1': coefficient '' is not a number\n"),
        ("1,a,1", "error: --element '1,a,1': coefficient 'a' is not a number\n"),
        ("1, 2/x ,1", "error: --element '1, 2/x ,1': coefficient '2/x' is not a number\n"),
        ("1/0,1,1", "error: --element '1/0,1,1': coefficient '1/0' is not a number\n"),
        ("1,1", "error: --element '1,1' needs 3 coefficients, found 2\n"),
        ("1,1,1,1", "error: --element '1,1,1,1' needs 3 coefficients, found 4\n"),
    ])
    def test_bad_element_names_the_option(self, capsys, element, err):
        assert run(capsys, "lefschetz", "--poly", "x^3 + y^3 + z^3", "--vars", "x,y,z",
                   "--slp", "--element", element) == (2, "", err)

    def test_empty_element(self, capsys):
        # an empty element is a bad element, not a request to sample one
        code, out, err = run(capsys, "lefschetz", "--family", "ikeda", "--wlp",
                             "--element", "")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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


class TestOneProcess:
    """Many jobs in one process, as a benchmark or a server runs them."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_rank_flags_default_to_the_policy(self):
        args = cli._build_parser().parse_args(["analyze", "--family", "ikeda"])
        policy = RankPolicy()
        assert (args.seed, args.rank_trials, args.max_symbolic_dim) == \
            (policy.seed, policy.trials, policy.max_symbolic_dim)

    def test_no_flag_leaks_into_the_next_call(self, capsys, monkeypatch):
        seen = []
        resolve = cli._resolve_input

        def spy(args):
            seen.append(dict(vars(args)))
            return resolve(args)
        monkeypatch.setattr(cli, "_resolve_input", spy)
        analyze = ["analyze", "--family", "ikeda", "--json", "--deterministic"]
        first = run(capsys, *analyze)
        strict = run(capsys, "hessian", "--poly", SHEARED, "--vars", "x,y,z,u,v",
                     "--k", "1", "--max-symbolic-dim", "2", "--strict",
                     "--seed", "5", "--rank-trials", "3")
        third = run(capsys, *analyze)
        assert first[0] == 0 and strict[0] == 3
        assert third == first
        assert seen[0] == seen[2]
        assert seen[2]["strict"] is False
        assert (seen[2]["seed"], seen[2]["rank_trials"]) == (0, 8)
        assert (seen[2]["max_symbolic_dim"], seen[2]["poly"]) == (12, None)
        assert "k" not in seen[2]


def test_analyze_leaves_no_slices_to_the_cycle_collector(capsys):
    """Forms, slices and their Fractions are freed by reference counting:
    with the collector off during the job, none of them is found in a
    cycle afterwards."""
    gc.collect()
    gc.disable()
    try:
        code = main(["analyze", "--family", "monomial-spread(2,3)", "--json",
                     "--deterministic"])
        capsys.readouterr()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(obj).__name__ for obj in gc.garbage
                  if isinstance(obj, (CatalecticantSlice, Form, Fraction))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert code == 0
    assert leaked == []
