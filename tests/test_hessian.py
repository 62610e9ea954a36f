"""Mixed Hessians, certified generic ranks, and Lefschetz checks."""

from __future__ import annotations

import random

import pytest
import sympy

from wildforms.families import build
from wildforms.hessian import (
    BudgetExceeded,
    RankPolicy,
    evaluated_rank,
    generic_rank,
    hessian_determinant,
    lefschetz_check,
    lefschetz_property,
    mixed_hessian,
    multiplication_map_rank,
)
from wildforms.poly import LinearForm, parse

from helpers import random_form, random_linear, sheared_perazzo, to_sympy

FERMAT = parse("x^3 + y^3 + z^3", "xyz")


class TestMixedHessian:
    def test_shape_follows_apolar_bases(self):
        h = mixed_hessian(FERMAT, 1, 1)
        assert (h.nrows, h.ncols) == (3, 3)
        assert h.entry_degree == 1

    def test_entries_are_iterated_partials(self):
        h = mixed_hessian(FERMAT, 1, 1)
        assert h.entries[0][0] == parse("6*x", "xyz")
        assert h.entries[0][1] is None

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="k\\+l"):
            mixed_hessian(FERMAT, 2, 2)
        with pytest.raises(ValueError):
            mixed_hessian(FERMAT, -1, 1)

    def test_transpose_symmetry(self):
        rng = random.Random(401)
        for _ in range(10):
            f = random_form(rng, nvars=3, degree=4)
            a = mixed_hessian(f, 1, 2)
            b = mixed_hessian(f, 2, 1)
            assert a.nrows == b.ncols and a.ncols == b.nrows
            for i in range(a.nrows):
                for j in range(a.ncols):
                    assert a.entries[i][j] == b.entries[j][i]


class TestGenericRankLadder:
    def test_full_rank_by_evaluation(self):
        rep = generic_rank(mixed_hessian(FERMAT, 1, 1))
        assert rep.value == 3
        assert rep.certainty == "certified-structural"
        assert rep.method == "evaluation witness at full rank"
        assert not rep.degenerate
        assert rep.witness_point is not None

    def test_symbolic_with_verified_kernel_witness(self):
        f = build("perazzo").form
        rep = generic_rank(mixed_hessian(f, 1, 1))
        assert rep.value == 4
        assert rep.certainty == "certified-symbolic"
        assert rep.degenerate
        witness = rep.kernel_witness
        assert witness == [parse("u*v^3", "xyzuv"),
                           parse("-2*u^2*v^2", "xyzuv"),
                           parse("u^3*v", "xyzuv"), None, None]
        # independent verification: the witness combines the columns
        # of the classical Hessian matrix of partials to zero
        expr, syms = to_sympy(f)
        rows = [[sympy.diff(expr, a, b) for b in syms] for a in syms]
        for row in rows:
            acc = sympy.Integer(0)
            for entry, w in zip(row, witness):
                if w is not None:
                    wexpr, _ = to_sympy(w)
                    acc += entry * wexpr
            assert sympy.expand(acc) == 0

    def test_support_matching_rung(self):
        f = build("perazzo").form
        rep = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(max_symbolic_dim=2))
        assert rep.value == 4
        assert rep.certainty == "certified-structural"
        assert rep.method == "evaluation witness meets support matching bound"
        assert rep.support_bound == 4

    def test_probabilistic_rung(self):
        f = sheared_perazzo()
        rep = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(max_symbolic_dim=2))
        assert rep.value == 4
        assert rep.certainty == "probabilistic"
        assert not rep.certified
        assert rep.support_bound == 5
        assert rep.degenerate
        assert "missed-rank odds" in rep.error_bound
        assert any("lower bound" in note for note in rep.notes)

    @pytest.mark.parametrize("bad", [
        {"trials": 0},
        {"trials": -3},
        {"max_symbolic_dim": -1},
        {"max_entry_degree": -1},
    ])
    def test_policy_that_certifies_nothing_rejected(self, bad):
        with pytest.raises(ValueError):
            RankPolicy(**bad)

    def test_policy_edge_values_accepted(self):
        policy = RankPolicy(trials=1, max_symbolic_dim=0, max_entry_degree=0)
        rep = generic_rank(mixed_hessian(build("perazzo").form, 1, 1), policy)
        assert (rep.value, rep.certainty) == (4, "certified-structural")

    def test_strict_budget(self):
        f = sheared_perazzo()
        with pytest.raises(BudgetExceeded, match="capped at dimension 2"):
            generic_rank(mixed_hessian(f, 1, 1),
                         RankPolicy(max_symbolic_dim=2, strict=True))

    def test_shear_does_not_change_certified_rank(self):
        rep = generic_rank(mixed_hessian(sheared_perazzo(), 1, 1))
        assert (rep.value, rep.certainty) == (4, "certified-symbolic")

    def test_report_to_dict(self):
        rep = generic_rank(mixed_hessian(build("perazzo").form, 1, 1))
        d = rep.to_dict()
        assert d["value"] == 4
        assert d["certainty"] == "certified-symbolic"
        assert d["shape"] == [5, 5]
        assert d["kernel_witness"][3] == "0"
        assert isinstance(d["witness_point"], list) or d["witness_point"] is None

    def test_determinism_for_fixed_seed(self):
        f = sheared_perazzo()
        a = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(seed=5))
        b = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(seed=5))
        assert a.to_dict() == b.to_dict()


class TestHessianDeterminant:
    def test_classical_value(self):
        assert hessian_determinant(FERMAT, 1) == parse("216*x*y*z", "xyz")

    def test_vanishing_cases(self):
        assert hessian_determinant(build("perazzo").form, 1) is None
        assert hessian_determinant(build("bb-cubic").form, 1) is None
        assert hessian_determinant(build("ikeda").form, 2) is None

    def test_second_hessian_of_quintic_nonzero(self):
        f = build("ikeda").form
        det = hessian_determinant(f, 1)
        assert det is not None
        assert det.degree == 12
        assert det.coefficient((6, 0, 0, 6)) == 0
        assert det.coefficient((0, 0, 6, 6)) == 64

    def test_degree_zero_is_scalar(self):
        det = hessian_determinant(FERMAT, 0)
        assert det == parse("x^3 + y^3 + z^3", "xyz")

    def test_guards(self):
        with pytest.raises(ValueError, match="2k"):
            hessian_determinant(FERMAT, 2)
        with pytest.raises(BudgetExceeded, match="capped at dimension"):
            hessian_determinant(build("ikeda").form, 2,
                                RankPolicy(max_symbolic_dim=4))


class TestRankConsistency:
    def test_multiplication_matches_evaluated_hessian(self):
        """Multiplication by L^(b-a) from degree a to degree b has the
        same rank as the transposed-degree Hessian evaluated at L."""
        rng = random.Random(402)
        checked = 0
        for _ in range(12):
            f = random_form(rng, nvars=3, degree=rng.randint(2, 4))
            L = random_linear(rng, f.variables)
            d = f.degree
            for a in range(d + 1):
                for b in range(a + 1, d + 1):
                    left = multiplication_map_rank(f, L, a, b)
                    right = evaluated_rank(mixed_hessian(f, d - b, a), L.point())
                    assert left == right, (f, L, a, b)
                    checked += 1
        assert checked >= 50

    def test_multiplication_guards(self):
        L = LinearForm("xyz", (1, 1, 1))
        with pytest.raises(ValueError):
            multiplication_map_rank(FERMAT, L, 2, 1)
        with pytest.raises(ValueError, match="different variable"):
            multiplication_map_rank(FERMAT, LinearForm("xy", (1, 1)), 0, 1)


class TestLefschetz:
    def test_slp_holds_for_power_sum(self):
        rep = lefschetz_property(FERMAT, "slp")
        assert rep.verdict == "holds"
        assert rep.element is not None
        assert all(c["achieved"] == c["required"] for c in rep.checks)

    def test_binary_monomial_has_slp(self):
        rep = lefschetz_property(parse("x^2*y^3", "xy"), "slp")
        assert rep.verdict == "holds"

    def test_wlp_fails_for_every_element(self):
        f = build("ikeda").form
        rep = lefschetz_property(f, "wlp")
        assert rep.verdict == "fails"
        assert rep.element is None
        [check] = rep.checks
        assert check["hessian"] == [2, 2]
        assert check["source"] == 2 and check["target"] == 3
        assert check["required"] == 10 and check["achieved"] == 9
        assert check["certainty"] == "certified-symbolic"
        assert any("for every linear element" in n for n in rep.notes)

    def test_undetermined_when_budget_blocks_certification(self):
        f = sheared_perazzo()
        rep = lefschetz_property(f, "wlp", RankPolicy(max_symbolic_dim=2))
        assert rep.verdict == "undetermined"
        assert any("no certified obstruction" in n for n in rep.notes)

    def test_degenerate_cubic_fails_wlp(self):
        rep = lefschetz_property(build("perazzo").form, "wlp")
        assert rep.verdict == "fails"

    def test_explicit_element_check(self):
        good = lefschetz_check(FERMAT, LinearForm("xyz", (1, 1, 1)), "wlp")
        assert good.verdict == "holds"
        bad = lefschetz_check(FERMAT, LinearForm("xyz", (1, 0, 0)), "wlp")
        assert bad.verdict == "fails"
        [check] = bad.checks
        assert check["achieved"] < check["required"]

    def test_element_variable_mismatch(self):
        with pytest.raises(ValueError, match="different variable"):
            lefschetz_check(FERMAT, LinearForm("xy", (1, 1)), "wlp")

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError, match="wlp.*slp|slp.*wlp"):
            lefschetz_property(FERMAT, "strong")

    def test_report_to_dict(self):
        rep = lefschetz_check(FERMAT, LinearForm("xyz", (1, 1, 1)), "slp")
        d = rep.to_dict()
        assert d["property"] == "slp"
        assert d["verdict"] == "holds"
        assert d["element"] == ["1", "1", "1"]
        assert isinstance(d["checks"], list) and d["checks"]
