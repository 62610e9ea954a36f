"""Power sum decompositions, the Hessian factorization, binary ranks."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildforms import polymat, powersum
from wildforms.apolar import catalecticant
from wildforms.hessian import hessian_determinant
from wildforms.poly import Form, LinearForm, form_sum, multiply, parse, power, scale
from wildforms.polymat import Poly
from wildforms.powersum import (
    PowerSumDecomposition,
    VeroneseMatrix,
    binary_waring_rank,
    factorization_check,
    hessian_nonvanishing,
    is_squarefree_binary,
    verify_decomposition,
)

from helpers import (oracle_binary_rank, random_decomposition, random_form,
                     random_linear, reference_is_squarefree_binary,
                     reference_space_has_squarefree, reference_sylvester_resultant)


def fermat_cubic_decomposition():
    forms = [LinearForm("xyz", (1, 0, 0)), LinearForm("xyz", (0, 1, 0)),
             LinearForm("xyz", (0, 0, 1))]
    return PowerSumDecomposition(forms, 3)


class TestDecomposition:
    def test_target_and_flags(self):
        dec = fermat_cubic_decomposition()
        assert dec.target == parse("x^3 + y^3 + z^3", "xyz")
        assert dec.length == 3
        assert dec.is_pure
        assert verify_decomposition(dec)

    def test_signed_scalars(self):
        forms = [LinearForm("xy", (1, 1)), LinearForm("xy", (1, -1))]
        dec = PowerSumDecomposition(forms, 3, [Fraction(1, 8), Fraction(-1, 8)])
        assert dec.target == parse("3/4*x^2*y + 1/4*y^3", "xy")
        assert not dec.is_pure
        assert verify_decomposition(dec)

    def test_explicit_target_checked(self):
        forms = [LinearForm("xy", (1, 0))]
        with pytest.raises(ValueError, match="do not sum"):
            PowerSumDecomposition(forms, 2, target=parse("y^2", "xy"))
        dec = PowerSumDecomposition(forms, 2, target=parse("x^2", "xy"))
        assert dec.target == parse("x^2", "xy")

    def test_validation(self):
        a = LinearForm("xy", (1, 2))
        b = LinearForm("xy", (-2, -4))
        with pytest.raises(ValueError, match="proportional"):
            PowerSumDecomposition([a, b], 2)
        with pytest.raises(ValueError, match="zero scalars"):
            PowerSumDecomposition([a], 2, [0])
        with pytest.raises(ValueError, match="at least one"):
            PowerSumDecomposition([], 2)
        with pytest.raises(ValueError, match="length"):
            PowerSumDecomposition([a], 2, [1, 1])
        with pytest.raises(ValueError, match="cancel"):
            PowerSumDecomposition(
                [LinearForm("xy", (1, 1)), LinearForm("xy", (1, 0)),
                 LinearForm("xy", (0, 1))], 1, [1, -1, -1])


class TestVeroneseMatrix:
    def test_entries_are_point_evaluations(self):
        dec = fermat_cubic_decomposition()
        w = VeroneseMatrix(dec, 1)
        assert w.entries == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert w.rank() == 3

    def test_rows_follow_apolar_basis(self):
        forms = [LinearForm("xy", (1, 1)), LinearForm("xy", (2, -1))]
        dec = PowerSumDecomposition(forms, 3)
        w = VeroneseMatrix(dec, 1)
        assert w.basis.monomials == ((1, 0), (0, 1))
        assert w.entries == [[1, 2], [1, -1]]

    def test_range_guard(self):
        dec = fermat_cubic_decomposition()
        with pytest.raises(ValueError):
            VeroneseMatrix(dec, 4)


class TestFactorization:
    def test_identity_on_seeded_decompositions(self):
        rng = random.Random(501)
        tried = 0
        while tried < 30:
            dec = random_decomposition(rng, nvars=rng.randint(2, 3),
                                       degree=rng.randint(2, 4))
            if dec is None:
                continue
            tried += 1
            d = dec.degree
            for k in range(d + 1):
                for l in range(k, d + 1):
                    if k + l <= d:
                        assert factorization_check(dec, k, l), (dec.target, k, l)

    def test_signed_inputs_explicitly(self):
        forms = [LinearForm("xyz", (1, 0, 0)), LinearForm("xyz", (0, 1, 0)),
                 LinearForm("xyz", (1, 1, 1))]
        dec = PowerSumDecomposition(forms, 4, [2, -3, Fraction(1, 2)])
        for k, l in [(0, 0), (0, 4), (1, 1), (1, 2), (1, 3), (2, 2)]:
            assert factorization_check(dec, k, l)

    def test_guards(self):
        dec = fermat_cubic_decomposition()
        with pytest.raises(ValueError, match="k <= l"):
            factorization_check(dec, 2, 1)
        with pytest.raises(ValueError):
            factorization_check(dec, 2, 2)

    def test_nonvanishing_certificate(self):
        dec = fermat_cubic_decomposition()
        assert hessian_nonvanishing(dec, 1)
        assert hessian_determinant(dec.target, 1) is not None

    def test_nonvanishing_needs_matching_length(self):
        forms = [LinearForm("xyz", (1, 0, 0)), LinearForm("xyz", (0, 1, 0)),
                 LinearForm("xyz", (0, 0, 1)), LinearForm("xyz", (1, 1, 1))]
        dec = PowerSumDecomposition(forms, 3)
        with pytest.raises(ValueError, match="not a_1"):
            hessian_nonvanishing(dec, 1)
        with pytest.raises(ValueError, match="2k"):
            hessian_nonvanishing(fermat_cubic_decomposition(), 2)

    def test_nonvanishing_agrees_with_determinant(self):
        rng = random.Random(502)
        matched = 0
        while matched < 12:
            dec = random_decomposition(rng, nvars=2, degree=3,
                                       count=rng.randint(1, 2))
            if dec is None:
                continue
            for k in (0, 1):
                w = VeroneseMatrix(dec, k)
                if dec.length != w.nrows:
                    continue
                claim = hessian_nonvanishing(dec, k)
                det = hessian_determinant(dec.target, k)
                if claim:
                    assert det is not None
                matched += 1


class TestSquarefreeBinary:
    def test_known_values(self):
        assert is_squarefree_binary(parse("x*y", "xy"))
        assert is_squarefree_binary(parse("x^2 - y^2", "xy"))
        assert is_squarefree_binary(parse("x^2 + y^2", "xy"))
        assert not is_squarefree_binary(parse("x^2", "xy"))
        assert not is_squarefree_binary(parse("x^2*y", "xy"))
        assert not is_squarefree_binary(parse("x^2 + 2*x*y + y^2", "xy"))

    def test_root_at_infinity(self):
        # x divides with multiplicity two once dehomogenized in x
        assert not is_squarefree_binary(parse("x^3*y - x^2*y^2", "xy"))
        assert is_squarefree_binary(parse("x*y^2 - x^2*y", "xy"))

    def test_linear_forms_squarefree(self):
        assert is_squarefree_binary(parse("x", "xy"))
        assert is_squarefree_binary(parse("3*y", "xy"))

    def test_irreducible_over_rationals_but_squared_roots(self):
        # (x^2 + y^2)^2 has no rational factors yet repeated complex roots
        assert not is_squarefree_binary(parse("x^4 + 2*x^2*y^2 + y^4", "xy"))


class TestBinaryRank:
    def test_spot_values(self):
        assert binary_waring_rank(parse("x^4", "xy")) == 1
        assert binary_waring_rank(parse("x*y", "xy")) == 2
        assert binary_waring_rank(parse("x*y^2", "xy")) == 3
        assert binary_waring_rank(parse("x*y^4", "xy")) == 5
        assert binary_waring_rank(parse("x^2*y^4", "xy")) == 5
        assert binary_waring_rank(parse("x^2*y^3", "xy")) == 4
        assert binary_waring_rank(parse("x^2 + y^2", "xy")) == 2

    def test_monomial_law(self):
        """Rank of x^a*y^b with a <= b is b + 1."""
        for a in range(1, 4):
            for b in range(a, 5):
                f = Form("xy", a + b, {(a, b): 1})
                assert binary_waring_rank(f) == b + 1

    def test_rank_of_power_sum_is_small(self):
        forms = [LinearForm("xy", (1, 1)), LinearForm("xy", (1, -2))]
        dec = PowerSumDecomposition(forms, 5)
        assert binary_waring_rank(dec.target) == 2

    def test_only_binary_forms(self):
        with pytest.raises(ValueError):
            binary_waring_rank(parse("x^2 + y*z", "xyz"))

    def test_matches_oracle(self):
        rng = random.Random(503)
        for _ in range(25):
            f = random_form(rng, nvars=2, degree=rng.randint(1, 6),
                            coeff_range=(-3, 3))
            assert binary_waring_rank(f) == oracle_binary_rank(f), f

    def test_high_rank_needs_degenerate_kernel(self):
        # the degree-5 form with a length-1 kernel slice held by a cube
        f = parse("x^3*y^2", "xy")
        assert binary_waring_rank(f) == 4


def _random_poly(rng: random.Random, nparams: int, degree: int = 1) -> Poly:
    """Seeded polynomial in nparams parameters, of degree at most degree."""
    out: Poly = {}
    for _ in range(rng.randint(0, 4)):
        exponent = [0] * nparams
        for _ in range(rng.randint(0, degree)):
            exponent[rng.randrange(nparams)] += 1
        key = polymat.pack(exponent)
        out[key] = out.get(key, 0) + rng.randint(-5, 5)
    return {k: v for k, v in out.items() if v}


def _times_linear(u: list[Poly], root: int) -> list[Poly]:
    """Descending coefficients of (x - root*y) times the form u."""
    shifted = [{}] + u
    padded = u + [{}]
    return [polymat.psub(p, {k: root * v for k, v in s.items()})
            for p, s in zip(padded, shifted)]


class TestResultantAgainstSylvester:
    """The Bezout resultant equals the Sylvester determinant exactly."""

    def test_seeded_pairs(self):
        rng = random.Random(907)
        zero_leads = nonzero = 0
        for n in range(1, 8):
            for nparams in range(1, 5):
                if n * nparams > 16:
                    continue
                guard = polymat.guard_mask(nparams)
                degree = 2 if n <= 3 else 1
                for _ in range(4):
                    a = [_random_poly(rng, nparams, degree) for _ in range(n + 1)]
                    b = [_random_poly(rng, nparams, degree) for _ in range(n + 1)]
                    if rng.random() < 0.25:
                        a[0] = {}
                    if rng.random() < 0.25:
                        b[0] = {}
                    zero_leads += not a[0] or not b[0]
                    res = powersum._resultant(a, b, guard)
                    assert res == reference_sylvester_resultant(a, b, guard)
                    nonzero += bool(res)
        assert zero_leads >= 10 and nonzero >= 40

    def test_identically_zero(self):
        rng = random.Random(911)
        for n in range(1, 8):
            nparams = rng.randint(1, 3)
            guard = polymat.guard_mask(nparams)
            root = rng.randint(-3, 3)
            a = _times_linear([_random_poly(rng, nparams) for _ in range(n)], root)
            b = _times_linear([_random_poly(rng, nparams) for _ in range(n)], root)
            assert powersum._resultant(a, b, guard) == {}
            assert reference_sylvester_resultant(a, b, guard) == {}
            assert powersum._resultant(a, a, guard) == {}

    def test_sign_on_constants(self):
        # Res(x^n, y^n) = 1 and Res(y^n, x^n) = (-1)^n for formal degree n
        for n in range(1, 8):
            xn = [{0: 1}] + [{} for _ in range(n)]
            yn = [{} for _ in range(n)] + [{0: 1}]
            assert powersum._resultant(xn, yn, 0) == {0: 1}
            assert powersum._resultant(yn, xn, 0) == {0: (-1) ** n}
            assert reference_sylvester_resultant(yn, xn, 0) == {0: (-1) ** n}

    def test_frozen_binary_pairs(self, monkeypatch):
        from test_frozen_outputs import BINARY_OCTIC, BINARY_SEXTIC
        pairs = []
        original = powersum._resultant

        def record(a, b, guard):
            pairs.append((a, b, guard))
            return original(a, b, guard)

        monkeypatch.setattr(powersum, "_resultant", record)
        assert binary_waring_rank(parse(BINARY_SEXTIC, "xy")) == 6
        assert binary_waring_rank(parse(BINARY_OCTIC, "xy")) == 7
        monkeypatch.undo()
        assert [len(a) - 1 for a, _, _ in pairs] == [2, 3, 4, 3, 4, 5]
        for a, b, guard in pairs:
            assert (powersum._resultant(a, b, guard)
                    == reference_sylvester_resultant(a, b, guard))


def _repeated_factor_form(rng: random.Random) -> Form:
    """Seeded product of linear powers times a rational scalar."""
    f = None
    for _ in range(rng.randint(1, 4)):
        factor = power(random_linear(rng, "xy", (-3, 3)), rng.choice([1, 1, 2, 3]))
        f = factor if f is None else multiply(f, factor)
    return scale(f, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))


def _rational_form(coefficients: list[Fraction]) -> Form | None:
    """The binary form with x-descending coefficients, None when zero."""
    d = len(coefficients) - 1
    terms = {(d - i, i): c for i, c in enumerate(coefficients) if c}
    return Form("xy", d, terms) if terms else None


class TestSquarefreeAgainstReference:
    def test_seeded_corpus(self):
        rng = random.Random(919)
        repeated = 0
        for _ in range(400):
            if rng.random() < 0.6:
                f = _repeated_factor_form(rng)
            else:
                f = _rational_form([Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                                    for _ in range(rng.randint(2, 8))])
                if f is None:
                    continue
            expected = reference_is_squarefree_binary(f)
            repeated += not expected
            assert is_squarefree_binary(f) == expected, f
        assert repeated >= 100

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(factors=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                      st.integers(1, 3))
                            .filter(lambda t: t[0] or t[1]), min_size=1, max_size=4),
           scalar=st.fractions(min_value=-5, max_value=5, max_denominator=9)
           .filter(bool))
    def test_products_with_repeated_factors(self, factors, scalar):
        f = None
        for a, b, e in factors:
            factor = power(LinearForm("xy", (a, b)), e)
            f = factor if f is None else multiply(f, factor)
        f = scale(f, scalar)
        assert is_squarefree_binary(f) == reference_is_squarefree_binary(f)

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                    min_size=2, max_size=9))
    def test_rational_coefficients(self, coefficients):
        f = _rational_form(coefficients)
        assume(f is not None)
        assert is_squarefree_binary(f) == reference_is_squarefree_binary(f)


def _reference_tried(basis: list[Form]) -> list[list[Fraction]]:
    """The coefficient lists the sampled shortcuts test, in order.

    Members first, each as itself; then, in every dimension from 2 up,
    the candidates of 32 seeded draws, combined as Forms, up to the
    first squarefree one.
    """
    def coefficients(f):
        out = [Fraction(0)] * (f.degree + 1)
        for (a, _), c in f.terms.items():
            out[a] = c
        return out

    tried = []
    for g in basis:
        tried.append(coefficients(g))
        if reference_is_squarefree_binary(g):
            return tried
    dim = len(basis)
    if dim == 1:
        return tried
    rng = random.Random(0)
    combos = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(32)]
    for combo in combos:
        candidate = form_sum(scale(g, c) for g, c in zip(basis, combo))
        if candidate is None:
            continue
        tried.append(coefficients(candidate))
        if reference_is_squarefree_binary(candidate):
            break
    return tried


def _lcm_of_denominators(forms: list[Form]) -> int:
    return math.lcm(*(c.denominator for f in forms for c in f.terms.values()))


def test_nonzero_linear_forms_are_squarefree():
    """So ``_space_has_squarefree`` settles a space of linear forms at its
    first member, before any sampled combination."""
    rng = random.Random(937)
    forms = [parse("x", "xy"), parse("-2/3*y", "xy")]
    forms += [scale(random_linear(rng, "xy").to_form(), Fraction(rng.randint(1, 9), 7))
              for _ in range(20)]
    for g in forms:
        assert powersum.is_squarefree_binary(g)
        assert powersum._space_has_squarefree([g, parse("x + y", "xy")])


def _kernel_bases() -> list[list[Form]]:
    """Kernels of l1^a * l2^b of dimension 2 or more, and spaces whose
    members share a squared linear factor."""
    rng = random.Random(929)
    bases = []
    for _ in range(30):
        l1, l2 = (random_linear(rng, "xy", (-3, 3)) for _ in range(2))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        f = scale(multiply(power(l1, a), power(l2, b)),
                  Fraction(rng.randint(1, 5), rng.randint(1, 7)))
        for r in range(1, f.degree + 1):
            kernel = catalecticant(f, r).kernel_basis
            if len(kernel) >= 2:
                bases.append(kernel)
    for _ in range(30):
        dim, degree = rng.randint(2, 5), rng.randint(2, 6)
        bases.append([scale(multiply(power(random_linear(rng, "xy", (-3, 3)), 2),
                                     random_form(rng, nvars=2, degree=degree - 2)
                                     if degree > 2 else parse("1", "xy")),
                            Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                      for _ in range(dim)])
    return bases


class TestSampledCandidates:
    """The shortcuts try the reference's candidates, in the same order."""

    def test_same_candidates_as_reference(self, monkeypatch):
        tried = []
        original = powersum._squarefree_coefficients

        def record(p, degree):
            tried.append(list(p))
            return original(p, degree)

        monkeypatch.setattr(powersum, "_squarefree_coefficients", record)
        monkeypatch.setattr(powersum, "_resultant", lambda a, b, guard: {})
        long_runs = 0
        for basis in _kernel_bases():
            tried.clear()
            powersum._space_has_squarefree(basis)
            expected = _reference_tried(basis)
            common = _lcm_of_denominators(basis)
            scales = [_lcm_of_denominators([g]) for g in basis]
            scales += [common] * (len(expected) - len(basis))
            assert tried == [[s * v for v in p] for s, p in zip(scales, expected)]
            long_runs += len(expected) > len(basis) + 1
        assert long_runs >= 5


class _ZeroDraws:
    """Stands in for ``random.Random``: every draw is 0, so no sampled
    candidate is tried and the resultant decides."""

    def __init__(self, seed):
        pass

    def randint(self, a, b):
        return 0


def _common_factor_bases() -> list[list[Form]]:
    """Bases h * l_i^2 of 2-3 members: h linear, a product of two distinct
    linear forms, or a square, so h alone decides."""
    rng = random.Random(947)
    bases = []
    for _ in range(40):
        l1 = random_linear(rng, "xy", (-3, 3))
        l2 = random_linear(rng, "xy", (-3, 3))
        while l2.proportional(l1):
            l2 = random_linear(rng, "xy", (-3, 3))
        h = rng.choice([power(l1, 1), multiply(power(l1, 1), power(l2, 1)),
                        power(l1, 2)])
        bases.append([scale(multiply(h, power(random_linear(rng, "xy", (-3, 3)), 2)),
                            Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                      for _ in range(rng.randint(2, 3))])
    return bases


class TestSpaceAgainstGcdOracle:
    """``_space_has_squarefree`` against the gcd criterion of the reference,
    with and without the sampled candidates."""

    @pytest.mark.parametrize("sampled", [True, False])
    def test_agrees_with_reference(self, monkeypatch, sampled):
        bases = _common_factor_bases() + _kernel_bases()
        resultants = []
        original = powersum._resultant

        def record(a, b, guard):
            out = original(a, b, guard)
            resultants.append(out)
            return out

        monkeypatch.setattr(powersum, "_resultant", record)
        if not sampled:
            monkeypatch.setattr(powersum, "random", SimpleNamespace(Random=_ZeroDraws))
            # a symbolic resultant in six or more unknowns takes seconds each
            bases = [basis for basis in bases if len(basis) <= 5]
        for basis in bases:
            assert (powersum._space_has_squarefree(basis)
                    == reference_space_has_squarefree(basis)), basis
        if not sampled:
            assert sum(map(bool, resultants)) >= 15
