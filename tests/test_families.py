"""Named family builders and the formula-only bound pairs."""

from __future__ import annotations

import pytest

from wildforms.apolar import maximal_hilbert_through
from wildforms.families import (
    FORMULA_ONLY,
    build,
    family_info,
    family_names,
    generic_linear_forms,
    gn_quartic_bounds,
    power_family_bounds,
)
from wildforms.poly import parse


class TestBuilders:
    def test_perazzo(self):
        r = build("perazzo")
        assert r.form == parse("x*u^2 + y*u*v + z*v^2", "xyzuv")
        assert r.x_vars == ("x", "y", "z") and r.u_vars == ("u", "v")
        assert r.strategy.k == 1

    def test_bb_cubic(self):
        r = build("bb-cubic")
        assert r.form == parse("x*u^2 + y*u^2 + 2*y*u*v + y*v^2 + z*v^2",
                               "xyzuv")

    def test_ikeda(self):
        r = build("ikeda")
        assert r.form == parse("x^2*y^3 + x*u^3*v + y*u*v^3", "xyuv")
        assert r.strategy.hessian_pair == (2, 2)

    def test_power_family_two_is_perazzo(self):
        assert build("power-family(2)").form == build("perazzo").form

    def test_power_family_shapes(self):
        r3 = build("power-family(3)")
        assert r3.form.degree == 8
        assert r3.strategy.k == 2
        r4 = build("power-family(4)")
        assert r4.form.degree == 15
        assert r4.strategy.k == 3
        assert maximal_hilbert_through(r4.form, 3)

    def test_exceptional_shape_and_conciseness(self):
        r = build("exceptional(3, 5)")
        assert r.form.degree == 7
        assert r.form.nvars == 5
        assert maximal_hilbert_through(r.form, 2)
        assert r.seed is not None

    def test_exceptional_powers_avoid_u_variables(self):
        r = build("exceptional(3, 5)")
        chunk, *powers = r.strategy.parts
        assert len(powers) == 6
        for p in powers:
            for exponent in p.terms:
                assert exponent[3] == 0 and exponent[4] == 0

    def test_monomial_spread_shape(self):
        r = build("monomial-spread(2, 4)")
        assert r.form.degree == 18
        assert len(r.form.terms) == 15
        # each monomial rides a distinct (u, v) exponent pair
        slots = {e[3:] for e in r.form.terms}
        assert len(slots) == 15
        assert all(a + b == 14 for a, b in slots)
        assert any("doubled threshold of 140" in n for n in r.notes)

    def test_determinism(self):
        a = build("exceptional(3, 5)", seed=1)
        b = build("exceptional(3, 5)", seed=1)
        assert a.form == b.form
        assert a.seed == b.seed
        c = build("exceptional(3, 5)", seed=2)
        assert c.form != a.form


class TestBuildErrors:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build("nonagon")

    def test_unreadable_spec(self):
        with pytest.raises(ValueError, match="unreadable"):
            build("Perazzo!")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="0 integer"):
            build("perazzo(3)")
        with pytest.raises(ValueError, match="2 integer"):
            build("exceptional(3)")

    def test_formula_only_rejected(self):
        with pytest.raises(ValueError, match="formula-only"):
            build("power-family-large")
        with pytest.raises(ValueError, match="formula-only"):
            build("gn-quartic-formula")

    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="d >= 2"):
            build("power-family(1)")
        with pytest.raises(ValueError, match="formula-only"):
            build("power-family(5)")
        with pytest.raises(ValueError, match="d >="):
            build("exceptional(3, 4)")
        with pytest.raises(ValueError):
            build("monomial-spread(0, 4)")

    def test_exceptional_needs_two_x_variables(self):
        for d in range(1, 5):
            with pytest.raises(ValueError, match="n >= 2"):
                build(f"exceptional(1, {d})")


class TestCatalog:
    def test_names_sorted(self):
        names = family_names()
        assert names == sorted(names)
        assert "perazzo" in names and "monomial-spread" in names

    def test_info_rows(self):
        rows = family_info()
        by_name = {r["name"]: r for r in rows}
        assert by_name["ikeda"]["buildable"]
        assert by_name["exceptional"]["parameters"] == 2
        for name in FORMULA_ONLY:
            assert not by_name[name]["buildable"]


class TestGenericLinearForms:
    def test_count_and_nonproportional(self):
        forms = generic_linear_forms(("x", "y", "z"), 6, seed=3)
        assert len(forms) == 6
        for i in range(6):
            for j in range(i + 1, 6):
                assert not forms[i].proportional(forms[j])

    def test_seed_determinism(self):
        a = generic_linear_forms(("x", "y"), 4, seed=9)
        b = generic_linear_forms(("x", "y"), 4, seed=9)
        assert a == b


class TestFormulaBounds:
    def test_power_family_values(self):
        big = power_family_bounds(17)
        assert big["cactus_threshold"] == 4845
        assert big["border_bound"] == 4640
        assert big["degree"] == 288
        assert big["wild"]
        small = power_family_bounds(2)
        assert (small["cactus_threshold"], small["border_bound"]) == (5, 5)
        assert small["wild"]
        middle = power_family_bounds(3)
        assert (middle["cactus_threshold"], middle["border_bound"]) == (15, 20)
        assert not middle["wild"]

    def test_power_family_crossover(self):
        """Wild at the d = 2 base case, then again for every d >= 16."""
        wild = [d for d in range(2, 30) if power_family_bounds(d)["wild"]]
        assert wild == [2] + list(range(16, 30))
        assert all(power_family_bounds(d)["wild"] for d in range(16, 60))

    def test_gn_quartic_values(self):
        got = gn_quartic_bounds(28)
        assert got["e"] == 28
        assert got["cactus_threshold"] == 496
        assert got["border_bound"] == 488
        assert got["wild"]
        wide = gn_quartic_bounds(28, 30)
        assert wide["border_bound"] == 520
        assert not wide["wild"]

    def test_guards(self):
        with pytest.raises(ValueError):
            power_family_bounds(1)
        with pytest.raises(ValueError):
            gn_quartic_bounds(0)
