"""Catalecticants, Hilbert functions, and conciseness."""

from __future__ import annotations

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildforms import apolar
from wildforms.apolar import (
    CatalecticantSlice,
    apolar_basis,
    catalecticant,
    conciseness,
    hilbert,
    is_k_concise,
    is_unimodal,
    maximal_hilbert_through,
)
from wildforms import linalg
from wildforms.families import build
from wildforms.hessian import mixed_hessian
from wildforms.powersum import binary_waring_rank
from wildforms.poly import (Form, LinearForm, apply, constant, form_sum, monomial,
                            monomials, multiply, parse, power)

from helpers import (binary_round0_forms, oracle_hilbert, random_form,
                     random_linear, reference_catalecticant, reference_conciseness,
                     reference_dense_nullspace, reference_divisors,
                     reference_greedy_independent, reference_growth,
                     reference_kernel_basis,
                     reference_nullspace, reference_slice_images,
                     reference_window_divisors)


class TestHilbertFrozenValues:
    """Reference values recomputed once through the sympy oracle."""

    def test_quintic_in_four_variables(self):
        f = build("ikeda").form
        h = hilbert(f)
        assert tuple(h) == (1, 4, 10, 10, 4, 1)
        assert oracle_hilbert(f) == tuple(h)

    def test_bidegree_cubics(self):
        for name in ("perazzo", "bb-cubic"):
            f = build(name).form
            h = hilbert(f)
            assert tuple(h) == (1, 5, 5, 1), name
            assert oracle_hilbert(f) == tuple(h), name

    def test_flat_septic(self):
        f = build("exceptional(3, 5)").form
        assert tuple(hilbert(f)) == (1, 5, 15, 15, 15, 15, 5, 1)

    def test_binary_monomial(self):
        f = parse("x^2*y^3", "xy")
        h = hilbert(f)
        assert tuple(h) == (1, 2, 3, 3, 2, 1)
        assert oracle_hilbert(f) == tuple(h)

    def test_pure_power(self):
        f = power(LinearForm("xyz", (1, -2, 1)), 4)
        assert tuple(hilbert(f)) == (1, 1, 1, 1, 1)


class TestHilbertProperties:
    def test_matches_oracle_random(self):
        rng = random.Random(301)
        for _ in range(15):
            f = random_form(rng)
            assert tuple(hilbert(f)) == oracle_hilbert(f)

    @staticmethod
    def _assert_upper_slices_mirror(f: Form) -> None:
        """hilbert reads only slices 0..d/2; each upper slice, built and
        eliminated alone, must have the rank the mirror gave it."""
        h = hilbert(f)
        d = f.degree
        assert len(h) == d + 1 and h.is_symmetric
        assert all(2 * k <= d for k in f._slices)
        for j in range(d // 2 + 1, d + 1):
            assert catalecticant(f, j).rank == h[d - j]
        assert h[0] == 1 and h[d] == 1

    def test_symmetry_random(self):
        rng = random.Random(302)
        for _ in range(60):
            self._assert_upper_slices_mirror(random_form(rng, nvars=rng.randint(2, 4)))

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.integers(1, 4).flatmap(lambda n: st.integers(1, 7).flatmap(
        lambda d: st.dictionaries(
            st.sampled_from(monomials(n, d)),
            st.one_of(st.integers(-30, 30), st.fractions(
                min_value=-5, max_value=5, max_denominator=12)).filter(bool),
            min_size=1, max_size=8).map(lambda terms: Form("xyzw"[:n], d, terms)))))
    def test_property_symmetry(self, f):
        self._assert_upper_slices_mirror(f)

    def test_unimodal_predicate(self):
        assert is_unimodal([1, 3, 5, 5, 3, 1])
        assert is_unimodal([1, 1, 1])
        assert not is_unimodal([1, 4, 2, 3, 1])
        with pytest.raises(ValueError):
            is_unimodal([])

    def test_rank_bounded_by_space_dims(self):
        rng = random.Random(303)
        for _ in range(20):
            f = random_form(rng, nvars=3)
            n, d = f.nvars, f.degree
            for k, a in enumerate(hilbert(f)):
                assert a <= min(math.comb(n - 1 + k, k),
                                math.comb(n - 1 + d - k, d - k))


class TestCatalecticant:
    def test_shape_and_bounds(self):
        f = parse("x^3 + y^3 + z^3", "xyz")
        s = catalecticant(f, 1)
        assert (s.nrows, s.ncols) == (3, 6)
        assert s.rank == 3
        assert catalecticant(f, 0).rank == 1

    def test_out_of_range_rejected(self):
        f = parse("x^2", "xy")
        with pytest.raises(ValueError):
            catalecticant(f, 3)
        with pytest.raises(ValueError):
            catalecticant(f, -1)

    def test_kernel_annihilates(self):
        rng = random.Random(304)
        checked = 0
        for _ in range(20):
            f = random_form(rng, nvars=3, degree=rng.randint(2, 4))
            for k in range(1, f.degree + 1):
                s = catalecticant(f, k)
                assert len(s.kernel_basis) == s.nrows - s.rank
                for op in s.kernel_basis:
                    assert apply(op, f) is None
                    checked += 1
        assert checked > 30

    def test_kernel_known_values(self):
        f = parse("x^3 + y^3", "xy")
        ops = catalecticant(f, 2).kernel_basis
        assert len(ops) == 1
        assert ops[0] == parse("x*y", "xy")


class TestConciseness:
    def test_values(self):
        assert conciseness(build("ikeda").form) == 2
        assert conciseness(build("perazzo").form) == 1
        assert conciseness(build("exceptional(3, 5)").form) == 2
        assert conciseness(parse("x^5", "xy")) == 0

    def test_guard(self):
        f = build("ikeda").form
        assert is_k_concise(f, 1)
        assert is_k_concise(f, 2)
        with pytest.raises(ValueError, match="degree"):
            is_k_concise(f, 3)
        with pytest.raises(ValueError):
            is_k_concise(f, -1)

    def test_unguarded_growth_check(self):
        f = build("ikeda").form
        assert maximal_hilbert_through(f, 2)
        assert not maximal_hilbert_through(f, 3)

    def test_growth_past_the_degree_fails(self):
        # a_{d+1} = 0 falls short of dim Q_{d+1}, in any number of variables
        f = parse("x^3*y + y^4", "xy")
        assert not maximal_hilbert_through(f, 4)
        assert not maximal_hilbert_through(f, 5)
        g = parse("x^4", "x")
        assert all(maximal_hilbert_through(g, k) for k in range(5))
        assert not maximal_hilbert_through(g, 5)
        assert not maximal_hilbert_through(g, 9)


class TestApolarBasis:
    def test_size_matches_rank(self):
        rng = random.Random(305)
        for _ in range(15):
            f = random_form(rng, nvars=3)
            for k in range(f.degree + 1):
                basis = apolar_basis(f, k)
                assert len(basis) == catalecticant(f, k).rank

    def test_graded_lex_first_choice(self):
        f = parse("x^3 + y^3 + z^3", "xyz")
        basis = apolar_basis(f, 1)
        assert basis.monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_images_independent(self):
        from wildforms.poly import monomial
        from wildforms.linalg import rank
        from wildforms.poly import monomials as list_monomials
        rng = random.Random(306)
        for _ in range(10):
            f = random_form(rng, nvars=3, degree=3)
            for k in range(f.degree + 1):
                basis = apolar_basis(f, k)
                cols = list_monomials(f.nvars, f.degree - k)
                where = {e: j for j, e in enumerate(cols)}
                rows = []
                for e in basis.monomials:
                    image = apply(monomial(f.variables, e), f)
                    row = [0] * len(cols)
                    if image is not None:
                        for m, c in image.terms.items():
                            row[where[m]] = c
                    rows.append(row)
                if rows:
                    assert rank(rows) == len(rows)


def _random_exponent(rng: random.Random, nvars: int, degree: int) -> tuple:
    """Stars and bars: nvars - 1 cuts among degree + nvars - 1 places."""
    cuts = sorted(rng.sample(range(degree + nvars - 1), nvars - 1))
    ends = [-1] + cuts + [degree + nvars - 1]
    return tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def _random_coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _slice_corpus() -> list[Form]:
    """Seeded dense and sparse forms in 1-6 variables of degree 1-8,
    plus named family members."""
    rng = random.Random(307)
    forms = []
    for _ in range(12):
        nvars, degree = rng.randint(1, 6), rng.randint(1, 8)
        while math.comb(nvars - 1 + degree, degree) > 84:
            degree -= 1
        terms = {e: _random_coefficient(rng)
                 for e in monomials(nvars, degree) if rng.random() < 0.7}
        terms = terms or {(degree,) + (0,) * (nvars - 1): 1}
        forms.append(Form("abcdef"[:nvars], degree, terms))
    for _ in range(24):
        nvars, degree = rng.randint(1, 6), rng.randint(1, 8)
        terms = {_random_exponent(rng, nvars, degree): _random_coefficient(rng)
                 for _ in range(rng.randint(1, 6))}
        forms.append(Form("abcdef"[:nvars], degree, terms))
    for spec in ("ikeda", "perazzo", "exceptional(3, 5)", "monomial-spread(2, 3)"):
        forms.append(build(spec).form)
    return forms


def _reference_kernel_basis(f: Form, k: int) -> list[Form]:
    """The degree-k annihilator slice read off reference_rref of the
    transposed definition, one form per free row monomial."""
    row_monos, col_monos, ref_rows = reference_catalecticant(f, k)
    transpose = [[row.get(j, Fraction(0)) for row in ref_rows]
                 for j in range(len(col_monos))]
    return [Form(f.variables, k, {row_monos[i]: c for i, c in enumerate(v) if c})
            for v in reference_nullspace(transpose)]


class TestSliceAgainstDefinition:
    """Term-driven slices and slice-read Hessians against the definition."""

    def test_corpora(self):
        for f in _slice_corpus():
            for k in range(f.degree + 1):
                self._check_slice(f, k)
            self._check_hessians(f)

    @staticmethod
    def _check_slice(f: Form, k: int) -> None:
        row_monos, col_monos, ref_rows = reference_catalecticant(f, k)
        s = catalecticant(f, k)
        assert (s.nrows, s.ncols) == (len(row_monos), len(col_monos))
        assert s.row_monomials == [e for e, row in zip(row_monos, ref_rows) if row]
        for e, row in zip(row_monos, ref_rows):
            image = s.image(e)
            assert ({} if image is None else image.terms) == \
                {col_monos[j]: c for j, c in row.items()}
        kept = reference_greedy_independent(ref_rows)
        assert s.rank == len(kept)
        assert apolar_basis(f, k).monomials == tuple(row_monos[i] for i in kept)
        # the reduced-echelon kernel: it annihilates every column of the
        # definition, is the identity on the rows greedy elimination leaves
        # free, and has one vector per free row
        taken = set(kept)
        free = [i for i in range(len(row_monos)) if i not in taken]
        kernel = s.kernel_basis
        assert len(kernel) == len(row_monos) - len(kept)
        for t, op in enumerate(kernel):
            coords = [op.terms.get(e, 0) for e in row_monos]
            image: dict[int, Fraction] = {}
            for c, row in zip(coords, ref_rows):
                for j, v in row.items():
                    image[j] = image.get(j, 0) + c * v
            assert not any(image.values())
            assert [coords[i] for i in free] == [int(u == t) for u in range(len(free))]

    @staticmethod
    def _check_hessians(f: Form) -> None:
        for k in range(f.degree + 1):
            for l in range(f.degree + 1 - k):
                h = mixed_hessian(f, k, l)
                for a, line in zip(h.row_basis.monomials, h.entries):
                    for b, entry in zip(h.col_basis.monomials, line):
                        op = monomial(f.variables, tuple(x + y for x, y in zip(a, b)))
                        assert entry == apply(op, f)


class TestKernelBasisAgainstReference:
    def test_binary_forms_and_products(self):
        """Every slice of seeded rational binary forms and of l1^a*l2^b."""
        rng = random.Random(577)
        forms = []
        for _ in range(25):
            degree = rng.randint(1, 9)
            terms = {(degree - i, i): _random_coefficient(rng)
                     for i in range(degree + 1) if rng.random() < 0.7}
            forms.append(Form("xy", degree, terms or {(degree, 0): 1}))
        for _ in range(25):
            l1, l2 = (random_linear(rng, "xy", (-3, 3)) for _ in range(2))
            product = multiply(power(l1, rng.randint(1, 5)), power(l2, rng.randint(1, 5)))
            forms.append(multiply(constant("xy", _random_coefficient(rng)), product))
        for f in forms:
            for k in range(f.degree + 1):
                assert catalecticant(f, k).kernel_basis == _reference_kernel_basis(f, k)

    def test_binary_round0_slices_against_the_dense_route(self):
        """Every slice r = 1..d of the binary benchmark's round-0 forms,
        seeds 1-3: the same operators, term for term and in the same
        order, as the dense kernel over every degree-r monomial, and the
        stored rows' dependencies equal the dense kernel of their
        transpose."""
        slices = 0
        for f in binary_round0_forms():
            for r in range(1, f.degree + 1):
                s = catalecticant(f, r)
                got = s.kernel_basis
                want = reference_kernel_basis(s)
                assert [list(op.terms.items()) for op in got] == \
                    [list(op.terms.items()) for op in want]
                transpose = [[row.get(j, 0) for row in s.rows] for j in range(len(s.columns))]
                assert [[dep.get(i, 0) for i in range(len(s.rows))]
                        for dep in linalg.nullspace(s.rows).values()] == \
                    reference_dense_nullspace(transpose)
                slices += 1
        assert slices > 3000

    def test_zero_rows_never_reach_the_eliminator(self, monkeypatch):
        """Monomials with no stored row are unit operators: no elimination
        is wider than the stored rows, although dim Q_k is larger."""
        widths = []
        forward = linalg._bareiss_forward

        def recording(rows):
            widths.append(len(rows[0]) if rows else 0)
            return forward(rows)

        monkeypatch.setattr(linalg, "_bareiss_forward", recording)
        forms = [parse("x^7 + y^7", "xy"), parse("x^5 + 2*y^5 - 3*z^5 + x*y*z^3", "xyz"),
                 parse("1/2*x^4*y - 2/3*y^3*z^2 + x*z^4", "xyz")]
        checked = 0
        for f in forms:
            for k in range(1, f.degree + 1):
                s = catalecticant(f, k)
                if len(s.rows) == s.nrows:
                    continue
                checked += 1
                del widths[:]
                kernel = s.kernel_basis
                assert widths and max(widths) <= len(s.rows)
                assert len(kernel) == s.nrows - s.rank
                units = [op for op in kernel if len(op.terms) == 1
                         and next(iter(op.terms)) not in s.row_monomials]
                assert len(units) == s.nrows - len(s.rows)
                assert all(op.terms == {next(iter(op.terms)): 1} for op in units)
        assert checked >= 12


def _fresh(f: Form) -> Form:
    """An equal form with no slices built yet."""
    return Form(f.variables, f.degree, f.terms)


def _assert_slice_is_definition(f: Form, k: int) -> None:
    """The built slice k of f: its nonzero rows and columns, their order,
    cells (ints over the form's one denominator) and greedy-first basis
    rows, against the definition."""
    s = catalecticant(f, k)
    assert s.denominator == math.lcm(*(c.denominator for c in f.terms.values()))
    assert all(type(c) is int for row in s.rows for c in row.values())
    row_monos, col_monos, ref_rows = reference_catalecticant(f, k)
    want = {alpha: {col_monos[j]: c for j, c in row.items()}
            for alpha, row in zip(row_monos, ref_rows) if row}
    got = {alpha: {s.columns[j]: Fraction(c, s.denominator) for j, c in row.items()}
           for alpha, row in zip(s.row_monomials, s.rows)}
    assert got == want
    assert s.row_monomials == sorted(want, reverse=True)
    assert s.columns == sorted({beta for row in want.values() for beta in row},
                               reverse=True)
    assert s.basis_rows == reference_greedy_independent(s.rows)
    assert s.rank == len(reference_greedy_independent(ref_rows))


def _window_corpus() -> list[Form]:
    """The slice corpus plus seeded integer and rational forms in 1-5
    variables, dense and with a few terms."""
    rng = random.Random(313)
    forms = _slice_corpus()
    for _ in range(10):
        forms.append(random_form(rng, nvars=rng.randint(1, 4), degree=rng.randint(1, 6)))
    for _ in range(10):
        nvars, degree = rng.randint(1, 5), rng.randint(1, 10)
        forms.append(Form("abcde"[:nvars], degree,
                          {_random_exponent(rng, nvars, degree): _random_coefficient(rng)
                           for _ in range(rng.randint(1, 4))}))
    return forms


class TestStepsAndMirrors:
    """Slices built by steps, mirrors and growth scans, in any order,
    against the definition and the divisor enumerator they replaced."""

    def test_build_orders_agree_with_definition(self):
        for f in _window_corpus():
            d = f.degree
            whole = _fresh(f)
            hilbert(whole)
            split = _fresh(f)
            maximal_hilbert_through(split, d // 2)
            catalecticant(split, d)
            hilbert(split)
            single = _fresh(f)
            for k in range(d + 1):
                catalecticant(single, k)
            downward = _fresh(f)
            for k in range(d, -1, -1):
                catalecticant(downward, k)
            for g in (whole, split, single, downward):
                for k in range(d + 1):
                    _assert_slice_is_definition(g, k)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(any).flatmap(
        lambda e: st.tuples(st.just(tuple(e)),
                            st.integers(0, sum(e) + 1), st.integers(0, sum(e) + 1))),
           st.sampled_from([1, -3, Fraction(2, 5)]))
    def test_divisors_of_a_window(self, case, scale):
        e, lo, hi = case
        got = reference_window_divisors(e, lo, hi, scale)
        want = []
        for alpha in itertools.product(*(range(ei + 1) for ei in e)):
            if lo <= sum(alpha) <= hi:
                want.append((alpha, tuple(x - a for x, a in zip(e, alpha)), sum(alpha),
                             scale * math.prod(math.perm(x, a) for x, a in zip(e, alpha))))
        assert sorted(got) == sorted(want)
        for k in range(lo, hi + 1):
            assert sorted((alpha, cell) for alpha, _, size, cell in got if size == k) \
                == sorted((alpha, scale * factor) for alpha, factor in reference_divisors(e, k))

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.integers(1, 5).flatmap(lambda n: st.integers(1, 8).flatmap(
        lambda d: st.dictionaries(
            st.sampled_from(monomials(n, d)),
            st.one_of(st.integers(-30, 30), st.fractions(
                min_value=-5, max_value=5, max_denominator=12)).filter(bool),
            min_size=1, max_size=25).map(lambda terms: Form("abcde"[:n], d, terms)))))
    def test_every_slice_matches_the_divisor_images(self, f):
        """Every slice 0..d, lower ones stepped up and upper ones
        mirrored, against the images of the divisor enumerator: the same
        rows and columns in the same order, and the same cells.  A
        stepped row also keeps the term order the enumerator gave it."""
        d = f.degree
        denominator = math.lcm(*(c.denominator for c in f.terms.values()))
        images = reference_slice_images(f, list(range(d + 1)), denominator)
        for k in range(d + 1):
            s = catalecticant(f, k)
            want = images[k]
            assert s.denominator == denominator
            assert s.row_monomials == sorted(want, reverse=True)
            assert s.columns == sorted({beta for row in want.values() for beta in row},
                                       reverse=True)
            for alpha, row in zip(s.row_monomials, s.rows):
                got = [(s.columns[j], c) for j, c in row.items()]
                assert dict(got) == want[alpha]
                if 2 * k <= d:
                    assert got == list(want[alpha].items())

    def test_degree_outside_the_form_is_refused(self):
        """A degree outside 0..d is refused before the cache is read or
        created, even when the cache holds an entry under that key."""
        f = parse("x^3*y + y^4", "xy")
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..4"):
                catalecticant(f, k)
        assert f._slices is None
        cached = catalecticant(f, 3)
        f._slices[-1] = f._slices[5] = cached
        for k in (-1, 5):
            with pytest.raises(ValueError, match="outside 0..4"):
                catalecticant(f, k)


class TestSliceBuilds:
    """Which catalecticant call builds which slices."""

    TEXT = "x^3*y + 2*y^2*z^2 - z^4 + x*y*z^2"

    @pytest.fixture
    def builds(self, monkeypatch):
        """(catalecticant calls so far, k) of each slice built."""
        calls, built = [], []
        real = apolar.catalecticant

        class Counted(CatalecticantSlice):
            def __init__(self, form, k, *parts):
                built.append((len(calls), k))
                super().__init__(form, k, *parts)

        def counted(f, k):
            calls.append(k)
            return real(f, k)

        monkeypatch.setattr(apolar, "CatalecticantSlice", Counted)
        monkeypatch.setattr(apolar, "catalecticant", counted)
        return built, calls

    def test_hilbert_builds_each_slice_once_in_one_call(self, builds):
        built, calls = builds
        f = parse(self.TEXT, "xyz")
        hilbert(f)
        half = f.degree // 2
        assert built == [(k + 1, k) for k in range(half + 1)]
        assert calls == list(range(half + 1))
        hilbert(f)
        assert len(built) == half + 1

    def test_lower_slice_request_builds_its_chain(self, builds):
        built, _ = builds
        f = parse(self.TEXT, "xyz")
        apolar.catalecticant(f, 1)
        assert built == [(1, 0), (1, 1)]
        hilbert(f)
        assert sorted(k for _, k in built) == list(range(f.degree // 2 + 1))
        assert built[2:] == [(4, 2)]

    def test_chain_resumes_from_the_highest_cached_slice(self, builds):
        built, _ = builds
        f = parse("x^7 + 3*x^2*y^5 - y^7 + x*y^3*z^3", "xyz")
        apolar.catalecticant(f, 1)
        apolar.catalecticant(f, 3)
        assert built == [(1, 0), (1, 1), (2, 2), (2, 3)]

    def test_upper_slice_mirrors_its_partner_chain(self, builds):
        built, calls = builds
        for j in (3, 4):
            del built[:], calls[:]
            f = parse(self.TEXT, "xyz")
            apolar.catalecticant(f, j)
            assert built == [(1, k) for k in range(f.degree - j + 1)] + [(1, j)]

    def test_upper_slice_built_alone_when_asked(self, builds):
        built, calls = builds
        f = parse(self.TEXT, "xyz")
        hilbert(f)
        assert all(2 * k <= f.degree for _, k in built)
        for j in range(f.degree // 2 + 1, f.degree + 1):
            apolar.catalecticant(f, j)
            assert built[-1] == (len(calls), j)
        assert len(built) == f.degree + 1

    def test_growth_check_builds_the_slices_up_to_its_degree(self, builds):
        built, calls = builds
        f = parse(self.TEXT, "xyz")
        assert maximal_hilbert_through(f, 2)
        assert calls == [1, 2]
        assert built == [(1, 0), (1, 1), (2, 2)]

    def test_conciseness_looks_each_degree_up_once(self, builds):
        _, calls = builds
        f = parse("x^41", "x")
        hilbert(f)
        del calls[:]
        assert conciseness(f) == 20
        assert calls == list(range(1, 21))

    def test_conciseness_stops_at_the_first_shortfall(self, builds):
        built, calls = builds
        f = parse("x^5 + y^5", "xyz")
        assert conciseness(f) == 0
        assert calls == [1]
        assert built == [(1, 0), (1, 1)]

    def test_conciseness_matches_the_repeated_scan(self):
        for f in _window_corpus():
            assert conciseness(_fresh(f)) == reference_conciseness(_fresh(f))

    def test_growth_matches_the_dense_reference(self):
        for f in _window_corpus():
            want = True
            for k in range(f.degree + 2):
                # growth through k needs growth through k - 1
                want = want and reference_growth(f, k)
                assert maximal_hilbert_through(_fresh(f), k) == want, (f, k)


class TestSliceEliminations:
    """Which slices ``greedy_independent`` eliminates, and how often."""

    @pytest.fixture
    def eliminated(self, monkeypatch):
        """The rows of each slice greedy_independent was called on."""
        seen = []
        real = linalg.greedy_independent

        def counted(rows):
            seen.append(rows)
            return real(rows)

        monkeypatch.setattr(linalg, "greedy_independent", counted)
        return seen

    def test_mixed_hessian_eliminates_only_its_bases(self, eliminated):
        f = parse(TestSliceBuilds.TEXT, "xyz")
        mixed_hessian(f, 1, 2)
        assert sorted(f._slices) == [0, 1, 2, 3]
        assert len(eliminated) == 2
        assert eliminated[0] is f._slices[1].rows and eliminated[1] is f._slices[2].rows

    def test_binary_rank_eliminates_no_slice(self, eliminated):
        f = parse("x^5 + 3*x^2*y^3 - 2*x*y^4 + y^5", "xy")
        assert binary_waring_rank(f) == 3
        assert f._slices
        assert eliminated == []

    def test_each_slice_eliminated_at_most_once(self, eliminated):
        f = parse(TestSliceBuilds.TEXT, "xyz")
        hilbert(f)
        conciseness(f)
        for k in range(f.degree + 1):
            apolar_basis(f, k)
            catalecticant(f, k).rank
            for l in range(f.degree + 1 - k):
                mixed_hessian(f, k, l)
        hilbert(f)
        assert len(eliminated) == len(f._slices) == f.degree + 1
        assert sorted(_eliminated_slices(f, eliminated)) == sorted(f._slices)

    def test_pruned_slices_eliminate_only_their_candidates(self, eliminated):
        """exceptional(4,7) has Hilbert function 1, 6, 21, 21, ...: slice 2
        has full row rank, so slice 3 passes all of its 34 rows, while
        slice 3's 13 dependent rows leave 21 of slice 4's 52 rows."""
        f = build("exceptional(4,7)", seed=1000).form
        del eliminated[:]
        assert tuple(hilbert(f)) == (1, 6, 21, 21, 21, 21, 21, 21, 6, 1)
        passed = _eliminated_slices(f, eliminated)
        assert [len(f._slices[k].rows) for k in (3, 4)] == [34, 52]
        assert passed[3] == list(range(34))
        assert len(passed[4]) == 21
        for k in (3, 4):
            s = f._slices[k]
            assert s.basis_rows == reference_greedy_independent(s.rows)
            assert set(s.basis_rows) <= set(passed[k])


def _eliminated_slices(f: Form, eliminated: list) -> dict[int, list[int]]:
    """For each call seen, the slice of f whose row dicts it received and
    their positions there, checked to be one strictly increasing run."""
    where = {id(row): (k, t) for k, s in f._slices.items() for t, row in enumerate(s.rows)}
    passed = {}
    for rows in eliminated:
        (k,), positions = {where[id(r)][0] for r in rows}, [where[id(r)][1] for r in rows]
        assert positions == sorted(set(positions)) and k not in passed
        passed[k] = positions
    return passed


def _sum_of_powers(nvars: int, degree: int, linears: list[list[Fraction]]) -> Form | None:
    return form_sum(power(LinearForm("abcde"[:nvars], c), degree) for c in linears if any(c))


class TestOrderIdealBases:
    """A slice whose lower neighbour already has its basis eliminates
    only the rows that are not x_i times a dependent row there; its basis
    is still the greedy-first basis of all its rows, in any request order."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=120)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, 9 - n),
        st.lists(st.lists(st.one_of(st.integers(-3, 3), st.fractions(
            min_value=-2, max_value=2, max_denominator=5)), min_size=n, max_size=n),
            min_size=2, max_size=6),
        st.dictionaries(st.integers(0, 50), st.integers(-4, 4).filter(bool),
                        max_size=3))),
        st.randoms(use_true_random=False))
    def test_basis_is_the_reference_in_every_request_order(self, case, rng):
        n, d, linears, extra = case
        space = monomials(n, d)
        terms = {space[i % len(space)]: c for i, c in extra.items()}
        f = form_sum([_sum_of_powers(n, d, linears), Form("abcde"[:n], d, terms) if terms else None])
        if f is None:
            return
        shuffled = list(range(d + 1))
        rng.shuffle(shuffled)
        for order in (range(d + 1), range(d, -1, -1), shuffled):
            g = _fresh(f)
            for k in order:
                s = catalecticant(g, k)
                assert s.basis_rows == reference_greedy_independent(s.rows), (f, k)

    def test_pruning_reaches_deficient_slices(self, monkeypatch):
        """Seeded sums of 2-6 powers: ascending reads prune rows from some
        slices, and every basis equals the reference."""
        sizes = []
        real = linalg.greedy_independent
        monkeypatch.setattr(linalg, "greedy_independent",
                            lambda rows: sizes.append(len(rows)) or real(rows))
        rng = random.Random(331)
        pruned = 0
        for _ in range(30):
            n, d = rng.randint(2, 4), rng.randint(4, 7)
            linears = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
                       for _ in range(rng.randint(2, 6))]
            f = _sum_of_powers(n, d, linears)
            if f is None:
                continue
            for k in range(d + 1):
                s = catalecticant(f, k)
                del sizes[:]
                assert s.basis_rows == reference_greedy_independent(s.rows)
                pruned += sizes[0] < len(s.rows)
        assert pruned >= 100, pruned

    def test_a_dead_form_eliminates_every_row(self, monkeypatch):
        f = _sum_of_powers(3, 6, [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        hilbert(f)
        s = catalecticant(f, 4)
        del f
        gc.collect()
        sizes = []
        real = linalg.greedy_independent
        monkeypatch.setattr(linalg, "greedy_independent",
                            lambda rows: sizes.append(len(rows)) or real(rows))
        assert s.form is None
        assert s.basis_rows == reference_greedy_independent(s.rows)
        assert sizes == [len(s.rows)]


class TestSliceMemo:
    TEXT = "x^3*y + 2*y^2*z^2 - z^4"

    def test_one_slice_per_form_and_degree(self):
        f = parse(self.TEXT, "xyz")
        assert catalecticant(f, 2) is catalecticant(f, 2)
        assert catalecticant(f, 1) is not catalecticant(f, 2)

    def test_equal_forms_do_not_share(self):
        f, g = parse(self.TEXT, "xyz"), parse(self.TEXT, "xyz")
        assert f == g
        assert catalecticant(f, 2) is not catalecticant(g, 2)

    def test_slice_dies_with_its_form(self):
        f = parse(self.TEXT, "xyz")
        ref = weakref.ref(catalecticant(f, 2))
        gc.collect()
        assert ref() is not None
        del f
        gc.collect()
        assert ref() is None


class TestSliceLifetime:
    """Slices link to their form weakly, so reference counting frees both."""

    TEXT = TestSliceMemo.TEXT

    def test_form_freed_without_the_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            f = parse(self.TEXT, "xyz")
            hilbert(f)
            assert catalecticant(f, 2).form is f
            ref = weakref.ref(f)
            del f
            assert ref() is None
        finally:
            gc.enable()

    def test_slice_answers_without_its_form(self):
        f, g = parse(self.TEXT, "xyz"), parse(self.TEXT, "xyz")
        held, fresh = catalecticant(f, 2), catalecticant(g, 2)
        del f
        assert held.form is None
        assert (held.nrows, held.ncols) == (fresh.nrows, fresh.ncols)
        for alpha in monomials(3, 2):
            assert held.image(alpha) == fresh.image(alpha)
        assert held.kernel_basis == fresh.kernel_basis
        assert len(held.kernel_basis) == held.nrows - held.rank

    def test_integer_forms_give_int_cells(self):
        for f in (parse(self.TEXT, "xyz"), build("exceptional(3, 5)").form):
            for k in range(f.degree + 1):
                s = catalecticant(f, k)
                assert s.denominator == 1
                assert all(type(c) is int for row in s.rows for c in row.values())
                row_monos, col_monos, ref_rows = reference_catalecticant(f, k)
                got = {alpha: {s.columns[j]: c for j, c in row.items()}
                       for alpha, row in zip(s.row_monomials, s.rows)}
                want = {alpha: {col_monos[j]: c for j, c in row.items()}
                        for alpha, row in zip(row_monos, ref_rows) if row}
                assert got == want

    def test_rational_forms_share_one_denominator(self):
        """Int cells over the lcm of the form's denominators; each stored
        row, read back as a Form, is its monomial applied to the form."""
        forms = [parse("1/2*x^3*y + 2/3*y^2*z^2 - 5/7*z^4", "xyz"),
                 parse("1/2*x*u^2 + 2/3*y*u*v + 3/5*z*v^2", "xyzuv")]
        forms += [f for f in _slice_corpus()
                  if any(c.denominator > 1 for c in f.terms.values())]
        assert len(forms) > 10
        for f in forms:
            denominator = math.lcm(*(c.denominator for c in f.terms.values()))
            assert denominator > 1
            for k in range(f.degree + 1):
                s = catalecticant(f, k)
                assert s.denominator == denominator
                assert all(type(c) is int for row in s.rows for c in row.values())
                for i, alpha in enumerate(s.row_monomials):
                    assert s.row_image(i) == apply(monomial(f.variables, alpha), f)
