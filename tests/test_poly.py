"""Polynomial core: parsing, arithmetic, and contraction."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildforms.poly import (
    Form,
    LinearForm,
    apply,
    bigrade,
    constant,
    form_sum,
    make_form,
    monomial,
    monomials,
    multiply,
    parse,
    power,
    render,
    scale,
)

from wildforms import poly

from helpers import (random_form, random_linear, reference_collect, reference_form_sum,
                     reference_power, reference_render)


def _rational_form(rng: random.Random, variables, degree: int, density: float = 0.6) -> Form:
    """Seeded nonzero form with Fraction coefficients of mixed denominators."""
    while True:
        terms = {e: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6, 9]))
                 for e in monomials(len(variables), degree) if rng.random() < density}
        f = make_form(variables, terms)
        if f is not None:
            return f


def _comes_back(pairs) -> bool:
    """Whether some exponent's running sum cancels and is nonzero again."""
    running: dict = {}
    gone = set()
    for e, c in pairs:
        running[e] = running.get(e, 0) + c
        if running[e] == 0:
            gone.add(e)
        elif e in gone:
            return True
    return False


def _same_terms(got, expected) -> None:
    assert got == expected
    if expected is not None:
        assert list(got.terms.items()) == list(expected.terms.items())
        assert all(type(c) is Fraction and c for c in got.terms.values())


class TestParseRender:
    def test_round_trip_fixed(self):
        for text, variables in [
            ("x^2*y + 1/2*x*y^2 - 3*y^3", "xy"),
            ("x*y*z", "xyz"),
            ("u^5", "xu"),
            ("x^3 - x^2*y + x*y^2 - y^3", "xy"),
        ]:
            f = parse(text, variables)
            assert render(f) == text
            assert parse(render(f), variables) == f

    def test_round_trip_random(self):
        rng = random.Random(2024)
        for _ in range(40):
            f = random_form(rng)
            assert parse(render(f), f.variables) == f

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.data())
    def test_property_round_trip(self, data):
        names = data.draw(st.lists(st.sampled_from(
            ["x", "y", "z", "w", "u1", "v_2", "t10"]), min_size=1, max_size=4,
            unique=True))
        degree = data.draw(st.integers(0, 5))
        terms = data.draw(st.dictionaries(
            st.sampled_from(monomials(len(names), degree)),
            st.one_of(st.integers(-30, 30), st.fractions(
                min_value=-30, max_value=30, max_denominator=40)).filter(bool),
            min_size=1, max_size=6))
        f = make_form(names, terms)
        text = render(f)
        assert parse(text, names) == f
        assert render(parse(text, names)) == text

    def test_render_matches_the_old_text(self):
        """Negative, unit, integer and non-integer coefficients, on
        constants and on monomials, print as the old Fraction route did."""
        rng = random.Random(31)
        coefficients = [1, -1, 2, -7, 12, Fraction(1, 2), Fraction(-3, 4),
                        Fraction(5, 3), Fraction(-1, 9), Fraction(-11, 2)]
        checked = 0
        for _ in range(300):
            variables = "xyz"[:rng.randint(1, 3)]
            terms = {e: rng.choice(coefficients)
                     for e in monomials(len(variables), rng.randint(0, 3))
                     if rng.random() < 0.6}
            if terms:
                f = make_form(variables, terms)
                assert render(f) == reference_render(f)
                checked += 1
        assert checked >= 200
        for value, text in ((1, "1"), (-1, "-1"), (Fraction(-3, 2), "-3/2"), (12, "12")):
            assert render(constant("xy", value)) == text
        assert render(parse("-x^2 + 1/2*x*y - y^2 - 3/4*x*z", "xyz")) == \
            "-x^2 + 1/2*x*y - 3/4*x*z - y^2"

    def test_zero_parses_to_none(self):
        assert parse("0", "xy") is None
        assert parse("x - x", "xy") is None
        assert parse("2*x*y - x*y - x*y", "xy") is None

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError, match="degree 1 and 2"):
            parse("x + y^2", "xy")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable 'q'"):
            parse("x + q", "xy")

    def test_syntax_error_position(self):
        with pytest.raises(ValueError, match="position"):
            parse("x^2 + (y)", "xy")

    def test_rational_coefficients(self):
        f = parse("2/3*x^2 - 5/7*y^2", "xy")
        assert f.coefficient((2, 0)) == Fraction(2, 3)
        assert f.coefficient((0, 2)) == Fraction(-5, 7)


class TestFormConstruction:
    def test_make_form_cancellation_returns_none(self):
        assert make_form("xy", {(1, 1): 0}) is None
        assert make_form("xy", {(2, 0): Fraction(1, 2), (0, 2): 0}) is not None

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            Form("xy", 2, {})

    def test_inhomogeneous_terms_rejected(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            Form("xy", 2, {(2, 0): 1, (1, 2): 1})

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Form(("x", "x"), 1, {(1, 0): 1})

    def test_monomials_shape(self):
        for n in range(1, 5):
            for d in range(0, 5):
                ms = monomials(n, d)
                assert len(ms) == math.comb(n - 1 + d, d)
                assert len(set(ms)) == len(ms)
                assert all(len(e) == n and sum(e) == d for e in ms)
                assert ms == sorted(ms, reverse=True)

    def test_evaluate(self):
        f = parse("x^2*y - 2*y^3", "xy")
        assert f.evaluate([3, 2]) == 9 * 2 - 2 * 8
        assert f.evaluate([Fraction(1, 2), 1]) == Fraction(1, 4) - 2

    def test_arithmetic_operators(self):
        f = parse("x^2 + y^2", "xy")
        g = parse("x^2 - y^2", "xy")
        assert f + g == parse("2*x^2", "xy")
        assert f - f is None
        assert 2 * f == parse("2*x^2 + 2*y^2", "xy")
        assert scale(f, 0) is None
        assert -f == parse("-x^2 - y^2", "xy")

    def test_multiply(self):
        f = parse("x + y", "xy")
        assert multiply(f, f) == parse("x^2 + 2*x*y + y^2", "xy")


def _sum_corpus(seed: int) -> list[list]:
    """Seeded part lists of one variable tuple and degree each: random
    forms, None parts, single parts, and planted cancellations (a part
    that cancels some terms of the parts before it, or all of them)."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(40):
        nvars, degree = rng.randint(1, 3), rng.randint(0, 4)
        parts = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            total = reference_form_sum(parts)
            if roll < 0.15:
                parts.append(None)
            elif roll < 0.35 and total is not None:
                # cancel a random subset of the terms summed so far
                kept = {e: -c for e, c in total.terms.items() if rng.random() < 0.5}
                parts.append(make_form(total.variables, kept) if kept else -total)
            else:
                parts.append(random_form(rng, nvars, degree, (-3, 3), 0.5))
        corpus.append(parts)
    return corpus


class TestFormSum:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_pairwise_fold(self, seed):
        """Same value and same term order as the fold it replaced; the
        order reaches the degree read of ``polymat.to_form``."""
        cancelled = 0
        for parts in _sum_corpus(seed):
            expected = reference_form_sum(parts)
            for got in (form_sum(parts), form_sum(p for p in parts)):
                assert got == expected
                if expected is None:
                    continue
                assert list(got.terms.items()) == list(expected.terms.items())
                # an unchecked result would pass a full validation
                assert Form(got.variables, got.degree, got.terms) == got
                assert all(type(c) is Fraction and c for c in got.terms.values())
            cancelled += expected is None and any(p is not None for p in parts)
        assert cancelled >= 3

    def test_operators_match_the_fold(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_form(rng, 3, 3, (-2, 2), 0.4)
            g = f if rng.random() < 0.2 else random_form(rng, 3, 3, (-2, 2), 0.4)
            for got, expected in ((f + g, reference_form_sum([f, g])),
                                  (f - g, reference_form_sum([f, scale(g, -1)]))):
                assert got == expected
                if expected is not None:
                    assert list(got.terms.items()) == list(expected.terms.items())

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_mixed_denominators_match_the_fold(self, seed):
        """Fraction parts over mixed denominators, with total and partial
        cancellations and exponents that cancel and come back."""
        rng = random.Random(seed)
        came_back = cancelled = 0
        for _ in range(40):
            variables = "xyz"[:rng.randint(1, 3)]
            degree = rng.randint(0, 4)
            parts = []
            for _ in range(rng.randint(1, 6)):
                total = reference_form_sum(parts)
                roll = rng.random()
                if roll < 0.3 and total is not None:
                    kept = {e: -c for e, c in total.terms.items() if rng.random() < 0.5}
                    parts.append(make_form(variables, kept) if kept else -total)
                elif roll < 0.45 and parts and parts[-1] is not None:
                    # minus a multiple of the last part: cancels its terms
                    # outright for the multiple 1, partly otherwise
                    parts.append(scale(parts[-1], Fraction(-rng.randint(1, 3), 2)))
                else:
                    parts.append(_rational_form(rng, variables, degree))
            expected = reference_form_sum(parts)
            _same_terms(form_sum(parts), expected)
            pairs = [item for part in parts if part is not None
                     for item in part.terms.items()]
            assert list(poly._collect(pairs).items()) == \
                list(reference_collect(pairs).items())
            cancelled += expected is None
            came_back += _comes_back(pairs)
        assert cancelled >= 2 and came_back >= 5

    def test_cancel_and_come_back_goes_to_the_end(self):
        V = "xy"
        parts = [parse("x^2 + 1/2*x*y", V), parse("-1/2*x*y + 1/3*y^2", V),
                 parse("3/4*x*y - x^2", V), parse("2/3*x^2", V)]
        got = form_sum(parts)
        _same_terms(got, reference_form_sum(parts))
        assert list(got.terms) == [(0, 2), (1, 1), (2, 0)]
        assert got.terms == {(0, 2): Fraction(1, 3), (1, 1): Fraction(3, 4),
                             (2, 0): Fraction(2, 3)}

    def test_edge_inputs(self):
        f = parse("x^2 - y^2", "xy")
        assert form_sum([]) is None
        assert form_sum([None, None]) is None
        assert form_sum([None, f, None]) == f
        assert form_sum(iter([f, f, -f])) == f
        assert form_sum([f, -f]) is None

    @pytest.mark.parametrize("combine", [
        lambda f, g: f + g, lambda f, g: f - g, lambda f, g: form_sum([f, g]),
        lambda f, g: form_sum([f, None, f, g])])
    def test_mismatched_variables_rejected(self, combine):
        f, g = parse("x^2", "xy"), parse("x^2", "xz")
        with pytest.raises(ValueError) as info:
            combine(f, g)
        assert str(info.value) == "forms live over different variable tuples"

    @pytest.mark.parametrize("combine", [
        lambda f, g: f + g, lambda f, g: f - g, lambda f, g: form_sum([f, g]),
        lambda f, g: form_sum([None, f, g]),
        # checked against the first part even after everything cancels
        lambda f, g: form_sum([f, -f, g])])
    def test_mismatched_degrees_rejected(self, combine):
        f, g = parse("x^2", "xy"), parse("x^3", "xy")
        with pytest.raises(ValueError) as info:
            combine(f, g)
        assert str(info.value) == "cannot add degrees 2 and 3"

    @pytest.mark.parametrize("other, name", [(3, "int"), (None, "NoneType"),
                                             ("x^2", "str"), (Fraction(1, 2), "Fraction")])
    def test_non_form_operand_rejected(self, other, name):
        f = parse("x^2", "xy")
        message = f"cannot combine Form with {name}"
        for combine in (lambda: f + other, lambda: f - other):
            with pytest.raises(TypeError) as info:
                combine()
            assert str(info.value) == message
        if other is not None:
            for parts in ([f, other], [other, f], [other]):
                with pytest.raises(TypeError) as info:
                    form_sum(parts)
                assert str(info.value) == message


class TestProductsAgainstTheFold:
    """``multiply`` and ``apply`` add all their term products in one
    pass; the fold of the same products, as monomials, gives the same
    terms in the same order."""

    def test_multiply(self):
        rng = random.Random(21)
        for _ in range(60):
            variables = "xyz"[:rng.randint(1, 3)]
            f = _rational_form(rng, variables, rng.randint(0, 3))
            g = _rational_form(rng, variables, rng.randint(0, 3))
            parts = [monomial(variables, tuple(a + b for a, b in zip(ef, eg)), cf * cg)
                     for ef, cf in f.terms.items() for eg, cg in g.terms.items()]
            _same_terms(multiply(f, g), reference_form_sum(parts))

    def test_multiply_cancels_and_comes_back(self):
        # x^3*y cancels for good; x^2*y^2 gets 1/4, then -1/4, then 1
        f = parse("x^2 + 1/2*x*y + y^2", "xy")
        g = parse("x^2 - 1/2*x*y + 1/4*y^2", "xy")
        pairs = [(tuple(a + b for a, b in zip(ef, eg)), cf * cg)
                 for ef, cf in f.terms.items() for eg, cg in g.terms.items()]
        assert _comes_back(pairs)
        got = multiply(f, g)
        _same_terms(got, reference_form_sum(monomial("xy", e, c) for e, c in pairs))
        # x^2*y^2 comes back after x*y^3, the first term entered after it cancelled
        assert list(got.terms) == [(4, 0), (1, 3), (2, 2), (0, 4)]

    def test_apply(self):
        rng = random.Random(22)
        for _ in range(60):
            variables = "xyz"[:rng.randint(1, 3)]
            d = rng.randint(1, 4)
            f = _rational_form(rng, variables, d)
            op = _rational_form(rng, variables, rng.randint(0, d))
            parts = [monomial(variables, tuple(m - k for m, k in zip(fe, oe)),
                              oc * fc * math.prod(map(math.perm, fe, oe)))
                     for oe, oc in op.terms.items() for fe, fc in f.terms.items()
                     if all(k <= m for m, k in zip(fe, oe))]
            _same_terms(apply(op, f), reference_form_sum(parts))

    def test_apply_cancels_and_comes_back(self):
        V = "xyzw"
        op = parse("x - y + 1/2*z", V)
        f = parse("x*w + y*w + 2*z*w + 1/3*x*y", V)
        got = apply(op, f)
        assert got == parse("w + 1/3*y - 1/3*x", V)
        assert list(got.terms)[-1] == (0, 0, 0, 1)
        assert apply(parse("x - y", V), parse("x*w + y*w", V)) is None


class TestApply:
    def test_known_contraction(self):
        f = parse("x^3*y", "xy")
        op = monomial("xy", (2, 0))
        assert apply(op, f) == parse("6*x*y", "xy")
        assert apply(monomial("xy", (0, 2)), f) is None

    def test_mismatched_variables_rejected(self):
        f = parse("x^2", "xy")
        op = monomial("xz", (1, 0))
        with pytest.raises(ValueError, match="different variable"):
            apply(op, f)

    def test_bilinearity(self):
        rng = random.Random(7)
        for _ in range(20):
            d = rng.randint(2, 4)
            k = rng.randint(1, d)
            f = random_form(rng, nvars=3, degree=d)
            g = random_form(rng, nvars=3, degree=d)
            op = random_form(rng, nvars=3, degree=k)
            left = apply(op, f + g) if f + g is not None else None
            fa, ga = apply(op, f), apply(op, g)
            right = fa + ga if fa is not None and ga is not None else (fa or ga)
            assert left == right

    def test_composition(self):
        rng = random.Random(8)
        for _ in range(20):
            f = random_form(rng, nvars=2, degree=5)
            a = random_form(rng, nvars=2, degree=2)
            b = random_form(rng, nvars=2, degree=1)
            step = apply(b, f)
            nested = apply(a, step) if step is not None else None
            assert nested == apply(multiply(a, b), f)

    def test_factorial_scalar_on_powers(self):
        """Contracting l^d by a monomial gives d!/(d-k)! times the
        coefficient product times l^(d-k)."""
        rng = random.Random(9)
        for _ in range(25):
            variables = "xyz"
            lin = random_linear(rng, variables)
            d = rng.randint(2, 5)
            k = rng.randint(0, d)
            for e in monomials(3, k):
                got = apply(monomial(variables, e), power(lin, d))
                coeff = Fraction(math.factorial(d), math.factorial(d - k))
                for c, a in zip(lin.coefficients, e):
                    coeff *= c ** a
                want = scale(power(lin, d - k), coeff)
                assert got == want


class TestLinearForm:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            LinearForm("xy", (0, 0))

    def test_proportional(self):
        a = LinearForm("xyz", (2, -4, 6))
        b = LinearForm("xyz", (-1, 2, -3))
        c = LinearForm("xyz", (2, -4, 5))
        assert a.proportional(b)
        assert not a.proportional(c)

    def test_power_zero_is_one(self):
        lin = LinearForm("xy", (3, -1))
        assert power(lin, 0) == constant("xy", 1)

    def test_power_matches_repeated_multiply(self):
        lin = LinearForm("xy", (1, 2))
        assert power(lin, 3) == parse("x^3 + 6*x^2*y + 12*x*y^2 + 8*y^3", "xy")

    def test_power_matches_reference(self):
        """Multinomial expansion against repeated multiplication: same
        terms in the same order, on seeded linear forms in 1-6 variables
        with zero, negative and rational coefficients, d = 0..10."""
        rng = random.Random(211)
        pool = [0, 0, 1, -1, 2, -3, 7, Fraction(2, 3), Fraction(-5, 4),
                Fraction(1, 6), Fraction(-9, 2)]
        for nvars in range(1, 7):
            variables = "abcdef"[:nvars]
            for _ in range(3):
                coeffs = [rng.choice(pool) for _ in variables]
                if not any(coeffs):
                    coeffs[rng.randrange(nvars)] = rng.choice(pool[2:])
                lin = LinearForm(variables, coeffs)
                for d in range(11):
                    got, want = power(lin, d), reference_power(lin, d)
                    assert got == want, (coeffs, d)
                    assert list(got.terms) == list(want.terms), (coeffs, d)
                    assert all(type(c) is Fraction for c in got.terms.values())


class TestBigrade:
    def test_bihomogeneous(self):
        f = parse("x^2*u + x*y*u", "xyu")
        assert bigrade(f, ["x", "y"], ["u"]) == (2, 1)

    def test_witness_error_names_both_terms(self):
        f = parse("x^2*u + x*u^2", "xu")
        with pytest.raises(ValueError) as info:
            bigrade(f, ["x"], ["u"])
        message = str(info.value)
        assert "x^2*u" in message and "x*u^2" in message

    def test_partition_check(self):
        f = parse("x*y", "xy")
        with pytest.raises(ValueError, match="partition"):
            bigrade(f, ["x"], ["z"])
        with pytest.raises(ValueError, match="partition"):
            bigrade(f, ["x", "y"], ["y"])
