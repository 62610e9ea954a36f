"""Catalecticants, Hilbert functions, and conciseness."""

from __future__ import annotations

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from wildforms.apolar import (
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
from wildforms.poly import Form, LinearForm, apply, monomial, monomials, parse, power

from helpers import (oracle_hilbert, random_form, reference_catalecticant,
                     reference_greedy_independent)


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

    def test_symmetry_random(self):
        rng = random.Random(302)
        for _ in range(60):
            f = random_form(rng, nvars=rng.randint(2, 4))
            h = hilbert(f)
            assert h.is_symmetric
            assert h[0] == 1 and h[f.degree] == 1

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
        transpose = [[row.get(j, Fraction(0)) for row in ref_rows]
                     for j in range(len(col_monos))]
        kernel = [Form(f.variables, k, {row_monos[i]: c for i, c in enumerate(v) if c})
                  for v in linalg.nullspace(transpose)]
        assert s.rank == len(row_monos) - len(kernel)
        assert s.kernel_basis == kernel
        kept = reference_greedy_independent(ref_rows)
        assert apolar_basis(f, k).monomials == tuple(row_monos[i] for i in kept)

    @staticmethod
    def _check_hessians(f: Form) -> None:
        for k in range(f.degree + 1):
            for l in range(f.degree + 1 - k):
                h = mixed_hessian(f, k, l)
                for a, line in zip(h.row_basis.monomials, h.entries):
                    for b, entry in zip(h.col_basis.monomials, line):
                        op = monomial(f.variables, tuple(x + y for x, y in zip(a, b)))
                        assert entry == apply(op, f)


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
