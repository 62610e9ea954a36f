"""Border bounds, cactus bounds, and wildness certificates."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from wildforms import bounds, hessian, polymat
from wildforms.apolar import conciseness
from wildforms.bounds import (
    SCHEMA,
    CertificateStrategy,
    border_bound_bihomogeneous,
    border_bound_monomial,
    border_upper,
    cactus_lower_degenerate,
    cactus_lower_vanishing,
    generic_waring_rank,
    slice_rank_vanishing,
    wild_certificate,
)
from wildforms.families import build
from wildforms.hessian import BudgetExceeded, RankPolicy
from wildforms.poly import LinearForm, form_sum, make_form, monomials, parse, power, render
from wildforms.powersum import PowerSumDecomposition

from helpers import (random_form, reference_certify_rank_deficient,
                     reference_is_linear_power, reference_slice_rank_vanishing,
                     sheared_perazzo, to_sympy)

FERMAT = parse("x^3 + y^3 + z^3", "xyz")
# the perazzo cubic sheared so that every second partial is nonzero
SHEARED = sheared_perazzo()


class TestMonomialBound:
    def test_values(self):
        assert border_bound_monomial(parse("x^2*y^3", "xy")) == 3
        assert border_bound_monomial(parse("x*y*z", "xyz")) == 4
        assert border_bound_monomial(parse("x*y", "xy")) == 2
        assert border_bound_monomial(parse("x^5", "xy")) == 1
        assert border_bound_monomial(parse("x*y^2*z^3", "xyz")) == 6

    def test_coefficient_ignored(self):
        assert border_bound_monomial(parse("-7/3*x^2*y^2", "xy")) == 3

    def test_multi_term_rejected(self):
        with pytest.raises(ValueError, match="single-term"):
            border_bound_monomial(parse("x^2 + y^2", "xy"))


class TestBihomogeneousBound:
    def test_degenerate_cubics(self):
        for name in ("perazzo", "bb-cubic"):
            r = build(name)
            assert border_bound_bihomogeneous(r.form, r.strategy.x_vars, r.strategy.u_vars) == 5

    def test_quintic_chunk(self):
        f = parse("x*u^3*v + y*u*v^3", "xyuv")
        assert border_bound_bihomogeneous(f, ("x", "y"), ("u", "v")) == 7

    def test_septic_chunk(self):
        f = parse("x*u^5*v + y*u^3*v^3 + z*u*v^5", "xyzuv")
        assert border_bound_bihomogeneous(f, ("x", "y", "z"), ("u", "v")) == 9

    def test_spread_form(self):
        r = build("monomial-spread(2, 4)")
        assert border_bound_bihomogeneous(r.form, r.strategy.x_vars, r.strategy.u_vars) == 80

    def test_guards(self):
        f = parse("x*u^3*v + y*u*v^3", "xyuv")
        with pytest.raises(ValueError, match="two u-variables"):
            border_bound_bihomogeneous(f, ("x", "y", "u"), ("v",))
        with pytest.raises(ValueError, match="1 <= k <= e"):
            border_bound_bihomogeneous(parse("u^2*v", "xuv"), ("x",), ("u", "v"))
        with pytest.raises(ValueError, match="1 <= k <= e"):
            border_bound_bihomogeneous(parse("x^3*u*v", "xuv"), ("x",), ("u", "v"))
        with pytest.raises(ValueError, match="not bi-homogeneous"):
            border_bound_bihomogeneous(parse("x*u^2*v + x^2*u*v", "xuv"),
                                       ("x",), ("u", "v"))


class TestBorderUpper:
    def test_additive_auto_split(self):
        r = build("ikeda")
        bound = border_upper(r.form, r.strategy.x_vars, r.strategy.u_vars)
        assert bound is not None
        assert bound.value == 10
        assert bound.method == "additive"
        assert sorted(p["value"] for p in bound.parts) == [3, 7]
        methods = {p["method"] for p in bound.parts}
        assert methods == {"monomial", "bihomogeneous"}

    def test_explicit_decomposition_wins(self):
        forms = [LinearForm("xyz", (1, 0, 0)), LinearForm("xyz", (0, 1, 0)),
                 LinearForm("xyz", (0, 0, 1))]
        dec = PowerSumDecomposition(forms, 3)
        bound = border_upper(dec.target, decomposition=dec)
        assert (bound.value, bound.method) == (3, "explicit-decomposition")

    def test_decomposition_target_checked(self):
        forms = [LinearForm("xy", (1, 0))]
        dec = PowerSumDecomposition(forms, 2)
        with pytest.raises(ValueError, match="different form"):
            border_upper(parse("y^2", "xy"), decomposition=dec)

    def test_linear_power_part(self):
        f = power(LinearForm("xyz", (1, 2, -1)), 4)
        bound = border_upper(f)
        assert (bound.value, bound.method) == (1, "power")

    def test_explicit_parts(self):
        p = power(LinearForm("xy", (1, 1)), 4)
        m = parse("x^2*y^2", "xy")
        f = p + m
        bound = border_upper(f, parts=[p, m])
        assert bound.value == 1 + 3
        assert bound.method == "additive"

    def test_parts_must_sum(self):
        f = parse("x^4 + y^4", "xy")
        with pytest.raises(ValueError, match="do not sum"):
            border_upper(f, parts=[parse("x^4", "xy")])

    def test_unresolvable_returns_none(self):
        assert border_upper(parse("x^3 + y^3 + z^3", "xyz")) is None

    def test_monomial_whole_form(self):
        bound = border_upper(parse("x^2*y^3", "xy"))
        assert (bound.value, bound.method) == (3, "monomial")


POWER_VARIABLES = ("x", "y", "z", "u", "v")


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 4, 7]))


def _line(rng: random.Random, variables, absent: int = 0) -> LinearForm:
    """A linear form with Fraction entries, zero on ``absent`` variables."""
    while True:
        coeffs = [_fraction(rng) if rng.random() < 0.9 else 0 for _ in variables]
        for i in rng.sample(range(len(variables)), absent):
            coeffs[i] = 0
        if any(coeffs):
            return LinearForm(variables, coeffs)


def _linear_power_corpus(seed: int) -> list:
    """Seeded forms over 1-5 variables, degree 1-6: powers of linear
    forms, sums of two powers, powers with one coefficient perturbed,
    single monomials, and powers in which some variables are absent."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(120):
        variables = POWER_VARIABLES[:rng.choice([1, 2, 3, 3, 4, 4, 5, 5])]
        n, d = len(variables), rng.randint(1, 6)
        corpus.append(power(_line(rng, variables), d))
        corpus.append(form_sum([power(_line(rng, variables), d),
                                power(_line(rng, variables), d)]))
        p = power(_line(rng, variables), d)
        e = rng.choice(list(p.terms))
        terms = dict(p.terms)
        terms[e] += rng.choice([1, -1, Fraction(1, 2), Fraction(-2, 3)])
        corpus.append(make_form(variables, terms))
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        corpus.append(make_form(variables, {tuple(e): _fraction(rng)}))
        corpus.append(power(_line(rng, variables, absent=rng.randint(0, max(0, n - 2))), d))
    return [f for f in corpus if f is not None]


class TestLinearPowerCheck:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_matches_the_slice_rank(self, seed):
        """The partials test agrees with eliminating slice 1."""
        corpus = _linear_power_corpus(seed)
        verdicts = [bounds._is_linear_power(f) for f in corpus]
        assert verdicts == [reference_is_linear_power(f) for f in corpus]
        assert len(corpus) >= 590
        assert sum(v and len(f.terms) > 1 for f, v in zip(corpus, verdicts)) >= 150
        assert sum(not v for v in verdicts) >= 200

    def test_builds_no_slice(self):
        f = power(LinearForm(POWER_VARIABLES, (1, Fraction(2, 3), 0, -5, Fraction(1, 7))), 6)
        assert bounds._is_linear_power(f)
        assert f._slices is None
        g = f + parse("x^6", POWER_VARIABLES)
        assert not bounds._is_linear_power(g)
        assert g._slices is None

    def test_fixed_cases(self):
        V = "xyz"
        assert bounds._is_linear_power(parse("x^3", V))
        assert bounds._is_linear_power(parse("2*x + 3*y - z", V))
        assert bounds._is_linear_power(parse("x^2 + 2*x*y + y^2", V))
        assert not bounds._is_linear_power(parse("x^2 + 2*x*y + 2*y^2", V))
        assert not bounds._is_linear_power(parse("x^2*y", V))
        # same monomials as (x+y)^2 in its partials' supports, not proportional
        assert not bounds._is_linear_power(parse("x^2 + 3*x*y + y^2", V))


class TestGenericWaringRank:
    def test_quadrics(self):
        for nvars in (2, 3, 7):
            assert generic_waring_rank(nvars, 2) == nvars

    def test_dimension_count(self):
        assert generic_waring_rank(3, 3) == 4
        assert generic_waring_rank(4, 3) == 5
        assert generic_waring_rank(3, 5) == 7
        assert generic_waring_rank(2, 5) == 3

    def test_exceptional_cases(self):
        assert generic_waring_rank(3, 4) == 6
        assert generic_waring_rank(4, 4) == 10
        assert generic_waring_rank(5, 4) == 15
        assert generic_waring_rank(5, 3) == 8

    def test_guards(self):
        with pytest.raises(ValueError):
            generic_waring_rank(0, 3)
        with pytest.raises(ValueError):
            generic_waring_rank(3, 0)


class TestSliceRankVanishing:
    def test_degenerate_cubics(self):
        for name in ("perazzo", "bb-cubic"):
            r = build(name)
            cert = slice_rank_vanishing(r.form, r.strategy.x_vars, r.strategy.u_vars)
            assert cert is not None
            assert cert["criterion"] == "slice-rank"
            assert cert["k"] == 1
            assert cert["slice_rank"] == 3
            assert cert["threshold"] == 2
            assert cert["certainty"] == "certified-structural"

    def test_spread_form(self):
        r = build("monomial-spread(2, 4)")
        cert = slice_rank_vanishing(r.form, r.strategy.x_vars, r.strategy.u_vars)
        assert cert is not None
        assert cert["bidegree"] == [4, 14]
        assert cert["slice_rank"] == 15
        assert cert["threshold"] == 5
        assert "hess^4 vanishes" in cert["conclusion"]

    def test_none_when_not_bihomogeneous(self):
        r = build("ikeda")
        assert slice_rank_vanishing(r.form, r.strategy.x_vars, r.strategy.u_vars) is None

    def test_none_for_nonvanishing_hessians(self):
        """Forms whose Hessian determinant is provably nonzero must
        never receive a vanishing certificate."""
        from wildforms.hessian import hessian_determinant
        cases = [
            (parse("x*u^2", "xu"), ("x",), ("u",)),
            (parse("x*u^2 + y*v^2", "xyuv"), ("x", "y"), ("u", "v")),
            (parse("x*u^3 + y*v^3", "xyuv"), ("x", "y"), ("u", "v")),
        ]
        for f, xs, us in cases:
            assert hessian_determinant(f, 1) is not None, f
            assert slice_rank_vanishing(f, xs, us) is None, f

    def test_certificates_agree_with_symbolic_determinant(self):
        """Whenever the slice criterion certifies in symbolic range,
        the k-th Hessian determinant really is zero."""
        from wildforms.hessian import hessian_determinant, mixed_hessian
        rng = random.Random(601)
        certified = 0
        for _ in range(120):
            nx = rng.randint(1, 3)
            nu = rng.randint(1, 2)
            k = rng.randint(1, 2)
            e = k + rng.randint(1, 2)
            xs = tuple("xyz"[:nx])
            us = tuple("uv"[:nu])
            gx = random_form(rng, nvars=nx, degree=k, density=0.9)
            terms = {}
            for ex, cx in gx.terms.items():
                gu = random_form(rng, nvars=nu, degree=e, density=0.8)
                for eu, cu in gu.terms.items():
                    key = ex + eu
                    terms[key] = terms.get(key, 0) + cx * cu
            f = None
            from wildforms.poly import make_form
            f = make_form(xs + us, terms)
            if f is None:
                continue
            cert = slice_rank_vanishing(f, xs, us)
            if cert is None:
                continue
            if 2 * k > f.degree:
                continue
            if mixed_hessian(f, k, k).nrows > 12:
                continue
            assert hessian_determinant(f, k) is None, f
            certified += 1
        assert certified >= 3


def _bigraded_form(rng: random.Random, rational: bool):
    """A seeded form of bidegree (k, e), or None when it has no term.

    k in 1..3 and e in 1..4, so some have k >= e, in up to 4 x- and 3
    u-variables.  Half are sparse random coefficient matrices, of any
    rank; half are sums of one or two products x-part * u-part, of
    rank at most two.  ``rational`` coefficients have denominators up
    to 9.
    """
    nx, nu = rng.randint(1, 4), rng.randint(1, 3)
    k, e = rng.randint(1, 3), rng.randint(1, 4)
    xs, us = tuple("xyzw"[:nx]), tuple("uvt"[:nu])

    def coefficient() -> Fraction:
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
        return c / rng.randint(1, 9) if rational else c

    terms: dict[tuple, Fraction] = {}
    if rng.random() < 0.5:
        density = rng.choice([0.2, 0.5, 0.8])
        for ex in monomials(nx, k):
            for eu in monomials(nu, e):
                if rng.random() < density:
                    terms[ex + eu] = coefficient()
    else:
        for _ in range(rng.randint(1, 2)):
            gx = random_form(rng, nvars=nx, degree=k, density=0.6)
            gu = random_form(rng, nvars=nu, degree=e, density=0.6)
            c = coefficient()
            for ex, cx in gx.terms.items():
                for eu, cu in gu.terms.items():
                    terms[ex + eu] = terms.get(ex + eu, 0) + c * cx * cu
    return make_form(xs + us, terms), xs, us


class TestSliceRankAgainstCoefficientMatrix:
    """The pure-x rows of slice k against the coefficient matrix the
    criterion built before it read the slice."""

    def test_seeded_bigraded_forms(self):
        rng = random.Random(631)
        outcomes = {"certified": 0, "declined": 0, "rational": 0}
        for t in range(400):
            f, xs, us = _bigraded_form(rng, rational=t % 2 == 1)
            if f is None:
                continue
            cert = slice_rank_vanishing(f, xs, us)
            assert cert == reference_slice_rank_vanishing(f, xs, us), render(f)
            outcomes["certified" if cert else "declined"] += 1
            if cert and any(c.denominator > 1 for c in f.terms.values()):
                outcomes["rational"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_family_members_and_other_partitions(self):
        for spec in ("perazzo", "bb-cubic", "monomial-spread(2, 4)", "ikeda"):
            r = build(spec)
            assert slice_rank_vanishing(r.form, r.strategy.x_vars, r.strategy.u_vars) == \
                reference_slice_rank_vanishing(r.form, r.strategy.x_vars, r.strategy.u_vars)
        # the partition read the other way round, and one not bi-homogeneous
        f = parse("1/2*x*u^2 + 2/3*y*u*v + 3/5*z*v^2", "xyzuv")
        for xs, us in ((("x", "y", "z"), ("u", "v")), (("u", "v"), ("x", "y", "z")),
                       (("x", "u"), ("y", "z", "v"))):
            assert slice_rank_vanishing(f, xs, us) == \
                reference_slice_rank_vanishing(f, xs, us)


class TestCactusLowerBounds:
    def test_vanishing_route_via_slice_rank(self):
        r = build("perazzo")
        got = cactus_lower_vanishing(r.form, 1, r.strategy.x_vars, r.strategy.u_vars)
        assert got is not None
        assert (got.value, got.k, got.route) == (5, 1, "vanishing-hessian")
        assert got.evidence["criterion"] == "slice-rank"

    def test_vanishing_route_via_support_matching(self):
        got = cactus_lower_vanishing(build("perazzo").form, 1)
        assert got is not None
        assert got.value == 5
        assert got.evidence["method"] == "support-matching"
        assert got.evidence["certainty"] == "certified-structural"

    def test_vanishing_route_quintic(self):
        got = cactus_lower_vanishing(build("ikeda").form, 2)
        assert got is not None
        assert got.value == 10

    def test_vanishing_route_spread(self):
        r = build("monomial-spread(2, 4)")
        got = cactus_lower_vanishing(r.form, 4, r.strategy.x_vars, r.strategy.u_vars)
        assert got is not None
        assert got.value == 70
        assert got.evidence["criterion"] == "slice-rank"

    def test_vanishing_route_rejects_nondegenerate(self):
        assert cactus_lower_vanishing(parse("x^3 + y^3 + z^3", "xyz"), 1) is None

    def test_vanishing_route_rejects_nonconcise(self):
        assert cactus_lower_vanishing(parse("x^5 + x^3*y^2", "xyz"), 1) is None

    def test_degenerate_route_quintic(self):
        got = cactus_lower_degenerate(build("ikeda").form, 2)
        assert got is not None
        assert (got.value, got.route) == (10, "unimodal-degenerate-hessian")
        assert got.evidence["hessian_pair"] == [2, 2]
        assert got.evidence["method"] == "support-matching"

    def test_degenerate_route_above_symbolic_cap(self):
        f = build("exceptional(3, 5)").form
        got = cactus_lower_degenerate(f, 2)
        assert got is not None
        assert got.value == 15
        assert got.evidence["method"] == "support-matching"
        assert got.evidence["certainty"] == "certified-structural"

    def test_degenerate_route_rejects_full_rank(self):
        assert cactus_lower_degenerate(parse("x^3 + y^3 + z^3", "xyz"), 1) is None

    def test_guards(self):
        f = build("perazzo").form
        with pytest.raises(ValueError, match="2k"):
            cactus_lower_vanishing(f, 2)
        with pytest.raises(ValueError):
            cactus_lower_vanishing(f, 0)
        with pytest.raises(ValueError, match="l\\+s"):
            cactus_lower_degenerate(f, 1, 2, 2)


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.<name>; the returned list gets one entry per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def dense_quartic():
    return random_form(random.Random(607), nvars=3, degree=4, density=1.0)


ROUTES = (cactus_lower_vanishing, cactus_lower_degenerate)


class TestDeterminantWitness:
    """No cactus route runs a determinant: witnesses settle every claim.

    Both routes take nu first, then the rank ladder, so each claim rests
    on a support matching below the bound, a full-rank evaluation, or a
    kernel vector checked over Z[x].
    """

    @pytest.mark.parametrize("form", [FERMAT, dense_quartic()],
                             ids=["fermat", "quartic"])
    def test_nondegenerate_skips_the_determinant(self, monkeypatch, form):
        witnesses = count_calls(monkeypatch, hessian, "evaluated_rank")
        eliminations = count_calls(monkeypatch, polymat, "bareiss_jordan")
        determinants = count_calls(monkeypatch, polymat, "bareiss_det")
        for route in ROUTES:
            assert route(form, 1) is None
        assert len(witnesses) == len(ROUTES)
        assert eliminations == determinants == []

    @pytest.mark.parametrize("spec,k", [("perazzo", 1), ("ikeda", 2)])
    def test_support_deficient_needs_no_evaluation(self, monkeypatch, spec, k):
        witnesses = count_calls(monkeypatch, hessian, "evaluated_rank")
        eliminations = count_calls(monkeypatch, polymat, "bareiss_jordan")
        f = build(spec).form
        for route in ROUTES:
            got = route(f, k)
            assert got.evidence["method"] == "support-matching"
            assert got.evidence["certainty"] == "certified-structural"
        assert witnesses == eliminations == []

    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
    def test_full_support_deficiency_has_a_kernel_witness(self, route):
        got = route(SHEARED, 1)
        assert got.value == 5
        assert got.evidence["certainty"] == "certified-symbolic"
        report = got.evidence["report"]
        assert (report["value"], report["support_bound"]) == (4, 5)
        vector = [0 if w == "0" else to_sympy(parse(w, SHEARED.variables))[0]
                  for w in report["kernel_witness"]]
        assert any(vector)
        # H[i][j] = alpha_i beta_j (f), differentiated by sympy
        expr, syms = to_sympy(SHEARED)
        hess = hessian.mixed_hessian(SHEARED, 1, 1)

        def derivative(exponent):
            return sympy.diff(expr, *[(s, e) for s, e in zip(syms, exponent) if e])
        for alpha in hess.row_basis.monomials:
            row = [derivative(tuple(a + b for a, b in zip(alpha, beta)))
                   for beta in hess.col_basis.monomials]
            assert sympy.expand(sum(h * v for h, v in zip(row, vector))) == 0

    @pytest.mark.parametrize("form", [
        build("perazzo").form, build("ikeda").form, build("bb-cubic").form,
        FERMAT, dense_quartic(), SHEARED],
        ids=["perazzo", "ikeda", "bb-cubic", "fermat", "quartic", "sheared"])
    def test_missed_witness_leaves_the_certificate_unchanged(self, monkeypatch,
                                                            form):
        expected = wild_certificate(form)
        monkeypatch.setattr(hessian, "evaluated_rank",
                            lambda hess, point: min(hess.nrows, hess.ncols) - 1)
        assert wild_certificate(form) == expected

    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.__name__)
    def test_entry_degree_budget_is_strict(self, monkeypatch, route):
        monkeypatch.setattr(hessian, "MAX_ENTRY_DEGREE", 0)
        with pytest.raises(BudgetExceeded, match="entry degree"):
            route(SHEARED, 1, policy=RankPolicy(strict=True))


SUBSUMPTION_MEMBERS = ["perazzo", "bb-cubic", "ikeda", "power-family(3)",
                       "exceptional(2,3)", "exceptional(3,5)",
                       "monomial-spread(1,2)", "monomial-spread(1,3)",
                       "monomial-spread(1,4)", "monomial-spread(2,2)",
                       "monomial-spread(3,2)"]


def concise_random_forms(seed: int, count: int, **shape) -> list:
    """Seeded forms of conciseness at least 1, for the cactus routes."""
    rng = random.Random(seed)
    forms = []
    for _ in range(50 * count):
        f = random_form(rng, **shape)
        if f.degree >= 3 and conciseness(f) >= 1:
            forms.append(f)
            if len(forms) == count:
                break
    assert len(forms) == count
    return forms


def cactus_corpus() -> list:
    """Named members, two nondegenerate forms, SHEARED and seeded forms."""
    return ([build(spec).form for spec in SUBSUMPTION_MEMBERS]
            + [FERMAT, dense_quartic(), SHEARED]
            + concise_random_forms(811, 6, nvars=3, degree=3, density=1.0)
            + concise_random_forms(812, 4, nvars=4, degree=3, density=0.5)
            + concise_random_forms(813, 4, nvars=3, degree=5, density=0.4))


class TestDegenerateRouteSubsumed:
    """At k = conciseness(f), the (k,k) degenerate route adds nothing."""

    def test_vanishing_none_implies_degenerate_none(self):
        policy = RankPolicy()
        missed = above_cap = 0
        for f in cactus_corpus():
            k = conciseness(f)
            vanishing = cactus_lower_vanishing(f, k, policy=policy)
            degenerate = cactus_lower_degenerate(f, k, policy=policy)
            if vanishing is None:
                missed += 1
                assert degenerate is None, render(f)
                above_cap += comb(f.nvars - 1 + k, k) > policy.max_symbolic_dim
            elif degenerate is not None:
                evidence = dict(degenerate.evidence)
                assert evidence.pop("hessian_pair") == [k, k]
                assert evidence == vanishing.evidence
                assert degenerate.value == vanishing.value
        assert missed >= 5
        assert above_cap >= 1


class TestOneRouteAgainstDeterminantRoute:
    """The rank route certifies exactly where the determinant route did."""

    def test_same_bounds_at_conciseness(self, monkeypatch):
        policy = RankPolicy()
        certified = 0
        for f in cactus_corpus():
            k = conciseness(f)
            got = [route(f, k, policy=policy) for route in ROUTES]
            with monkeypatch.context() as patched:
                patched.setattr(bounds, "_certify_rank_deficient",
                                reference_certify_rank_deficient)
                want = [route(f, k, policy=policy) for route in ROUTES]
            for new, old in zip(got, want):
                assert (new is None) == (old is None), render(f)
                if new is not None:
                    assert (new.value, new.k, new.route) == (old.value, old.k,
                                                             old.route)
                    certified += 1
        assert certified >= 10


class TestWildCertificate:
    def test_quintic_certificate(self):
        r = build("ikeda")
        cert = wild_certificate(r.form, r.strategy)
        assert cert["schema"] == SCHEMA
        assert cert["verdict"] == "wild"
        assert cert["hilbert"] == [1, 4, 10, 10, 4, 1]
        assert cert["conciseness"] == 2
        assert cert["border"]["value"] == 10
        assert cert["cactus"]["value"] == 10
        assert cert["reasons"] == []

    def test_degenerate_cubics_wild(self):
        for name in ("perazzo", "bb-cubic"):
            r = build(name)
            cert = wild_certificate(r.form, r.strategy)
            assert cert["verdict"] == "wild", name
            assert cert["border"]["value"] == 5
            assert cert["cactus"]["value"] == 5
            assert cert["cactus"]["evidence"]["criterion"] == "slice-rank"

    def test_septic_wild(self):
        r = build("exceptional(3, 5)")
        cert = wild_certificate(r.form, r.strategy)
        assert cert["verdict"] == "wild"
        assert cert["border"]["value"] == 15
        assert cert["cactus"]["value"] == 15

    def test_spread_not_established(self):
        r = build("monomial-spread(2, 4)")
        cert = wild_certificate(r.form, r.strategy)
        assert cert["verdict"] == "not-established"
        assert cert["border"]["value"] == 80
        assert cert["cactus"]["value"] == 70
        assert any("80 exceeds the cactus threshold 70" in why
                   for why in cert["reasons"])
        assert any("doubled threshold of 140 is not certified" in note
                   for note in cert["notes"])

    def test_conciseness_is_the_forms_not_the_strategys(self):
        r = build("monomial-spread(1, 3)")
        assert r.strategy.k == 3
        cert = wild_certificate(r.form, r.strategy)
        assert cert["conciseness"] == conciseness(r.form) == 2
        assert any("at order 3" in why for why in cert["reasons"])
        spread = build("monomial-spread(2, 3)")
        cert = wild_certificate(spread.form, spread.strategy)
        assert cert["conciseness"] == cert["cactus"]["k"] == 3

    def test_border_missing_without_hints(self):
        cert = wild_certificate(build("perazzo").form)
        assert cert["verdict"] == "not-established"
        assert cert["border"] is None
        assert cert["cactus"]["value"] == 5
        assert any("border" in why for why in cert["reasons"])

    def test_no_cactus_route_for_binary_monomial(self):
        cert = wild_certificate(parse("x^2*y^3", "xy"))
        assert cert["verdict"] == "not-established"
        assert cert["cactus"] is None
        assert any("neither Hessian route" in why for why in cert["reasons"])

    def test_power_sum_not_wild(self):
        cert = wild_certificate(parse("x^3 + y^3 + z^3", "xyz"))
        assert cert["verdict"] == "not-established"
        assert cert["cactus"] is None

    def test_strict_policy_propagates(self):
        from wildforms.hessian import BudgetExceeded
        from helpers import sheared_perazzo
        f = sheared_perazzo()
        strategy = CertificateStrategy(
            k=1, policy=RankPolicy(max_symbolic_dim=2, strict=True))
        with pytest.raises(BudgetExceeded):
            wild_certificate(f, strategy)
        relaxed = wild_certificate(
            f, CertificateStrategy(k=1, policy=RankPolicy(max_symbolic_dim=2)))
        assert relaxed["cactus"] is None
        assert any("neither Hessian route" in why for why in relaxed["reasons"])
