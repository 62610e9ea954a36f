"""Shared generators and independent oracles for the test suite.

The oracles recompute reference values through sympy with dense
matrices and textbook case analysis.  They share no code with the
package: differentiation, matrix ranks, and factorizations all run on
sympy objects, so agreement is meaningful evidence.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy

from wildforms.poly import (Form, LinearForm, apply, form_sum, make_form,
                            monomial, monomials, multiply, parse, power)
from wildforms.powersum import PowerSumDecomposition

VAR_LETTERS = ("x", "y", "z", "w")


def sheared_perazzo() -> Form:
    """The degenerate-Hessian cubic after an invertible change of
    coordinates that makes every second partial generically nonzero."""
    V = "xyzuv"
    x, y, z = (parse(v, V) for v in "xyz")
    U = power(LinearForm(V, (1, 0, 0, 1, 0)), 1)
    W = power(LinearForm(V, (0, 1, 0, 0, 1)), 1)
    return form_sum([multiply(x, multiply(U, U)),
                     multiply(y, multiply(U, W)),
                     multiply(z, multiply(W, W))])


def random_form(rng: random.Random, nvars: int | None = None,
                degree: int | None = None, coeff_range=(-4, 4),
                density: float = 0.7) -> Form:
    """Seeded nonzero homogeneous form with small integer coefficients."""
    nvars = nvars if nvars is not None else rng.randint(2, 3)
    degree = degree if degree is not None else rng.randint(1, 4)
    variables = VAR_LETTERS[:nvars]
    while True:
        terms = {}
        for exponent in monomials(nvars, degree):
            if rng.random() < density:
                c = rng.randint(*coeff_range)
                if c:
                    terms[exponent] = c
        if terms:
            return make_form(variables, terms)


def random_linear(rng: random.Random, variables,
                  coeff_range=(-5, 5)) -> LinearForm:
    while True:
        coeffs = [rng.randint(*coeff_range) for _ in variables]
        if any(coeffs):
            return LinearForm(variables, coeffs)


def random_decomposition(rng: random.Random, nvars: int = 3,
                         degree: int = 3, count: int | None = None,
                         signed: bool = True) -> PowerSumDecomposition | None:
    """Seeded decomposition, or None when the powers cancel to zero."""
    variables = VAR_LETTERS[:nvars]
    count = count if count is not None else rng.randint(1, 5)
    forms: list[LinearForm] = []
    while len(forms) < count:
        cand = random_linear(rng, variables, (-3, 3))
        if any(cand.proportional(seen) for seen in forms):
            continue
        forms.append(cand)
    scalars = [rng.choice([-3, -2, -1, 1, 2, 3]) if signed else 1
               for _ in forms]
    try:
        return PowerSumDecomposition(forms, degree, scalars)
    except ValueError:
        return None


def reference_catalecticant(f: Form, k: int):
    """The degree-k catalecticant by its definition, zero rows included.

    Every degree-k monomial is applied to f; returns the row monomials,
    the column monomials (both graded-lex descending) and the rows as
    sparse column-index maps.
    """
    row_monos = monomials(f.nvars, k)
    col_monos = monomials(f.nvars, f.degree - k)
    where = {e: j for j, e in enumerate(col_monos)}
    rows = []
    for e in row_monos:
        image = apply(monomial(f.variables, e), f)
        rows.append({} if image is None
                    else {where[m]: c for m, c in image.terms.items()})
    return row_monos, col_monos, rows


def reference_greedy_independent(rows) -> list[int]:
    """Indices of the greedy-first maximal independent subset of rows.

    Sparse Fraction elimination one row at a time: a row is kept when
    it stays nonzero after reduction by the rows kept before it.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    kept: list[int] = []
    for idx, row in enumerate(rows):
        work = dict(row)
        while work:
            lead = min(work)
            known = echelon.get(lead)
            if known is None:
                break
            f = work[lead]
            for c, v in known.items():
                acc = work.get(c, Fraction(0)) - f * v
                if acc == 0:
                    work.pop(c, None)
                else:
                    work[c] = acc
        if work:
            lead = min(work)
            piv = work[lead]
            echelon[lead] = {c: v / piv for c, v in work.items()}
            kept.append(idx)
    return kept


def to_sympy(f: Form):
    """The form as a sympy expression plus its symbols."""
    syms = sympy.symbols(f.variables)
    if f.nvars == 1:
        syms = (syms,)
    expr = sympy.Integer(0)
    for exponent, c in f.terms.items():
        term = sympy.Rational(c)
        for s, a in zip(syms, exponent):
            term *= s ** a
        expr += term
    return expr, syms


def _coefficient_matrix(expr, syms, row_monos, col_monos):
    rows = []
    for e in row_monos:
        g = expr
        for s, a in zip(syms, e):
            if a:
                g = sympy.diff(g, s, a)
        g = sympy.expand(g)
        poly = None if g == 0 else sympy.Poly(g, *syms)
        row = []
        for m in col_monos:
            if poly is None:
                row.append(sympy.Integer(0))
            else:
                mono = sympy.Mul(*(s ** a for s, a in zip(syms, m)))
                row.append(poly.coeff_monomial(mono))
        rows.append(row)
    return sympy.Matrix(rows)


def oracle_hilbert(f: Form) -> tuple[int, ...]:
    """Catalecticant ranks recomputed densely through sympy."""
    expr, syms = to_sympy(f)
    d = f.degree
    values = []
    for k in range(d + 1):
        matrix = _coefficient_matrix(expr, syms,
                                     list(monomials(f.nvars, k)),
                                     list(monomials(f.nvars, d - k)))
        values.append(matrix.rank())
    return tuple(values)


def oracle_binary_rank(f: Form) -> int:
    """Waring rank of a binary form by the two-generator case analysis.

    The annihilator of a binary form is generated in degrees d1 <= d2
    with d1 + d2 = d + 2; the rank is d1 when the degree-d1 generator
    is squarefree (automatic if d1 = d2), else d2.
    """
    expr, syms = to_sympy(f)
    x, y = syms
    d = f.degree
    for r in range(1, d + 1):
        matrix = _coefficient_matrix(expr, syms,
                                     list(monomials(2, r)),
                                     list(monomials(2, d - r)))
        null = matrix.T.nullspace()
        if not null:
            continue
        d1 = r
        if 2 * d1 == d + 2:
            return d1
        assert len(null) == 1, "first kernel slice should be a line"
        vec = null[0]
        row_monos = list(monomials(2, r))
        g1 = sum(sympy.Rational(vec[i]) * x ** e[0] * y ** e[1]
                 for i, e in enumerate(row_monos))
        _, factors = sympy.factor_list(sympy.expand(g1), x, y)
        if all(mult == 1 for _, mult in factors):
            return d1
        return d + 2 - d1
    raise AssertionError("no annihilator found through degree d")
