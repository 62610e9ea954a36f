"""Catalecticant slices, Hilbert functions and conciseness checks.

The degree-k catalecticant of a degree-d form f maps degree-k
differential operators to their derivatives of degree d-k.  Its rank is
the k-th value of the Hilbert function of the apolar algebra, and its
left kernel is the degree-k slice of the annihilator.  Slices are built
from the form's terms, never by enumerating the monomial spaces, and
each is computed once per form: ``catalecticant`` keeps it on the Form
object, so it lives exactly as long as the form.  One exact elimination
per slice gives both its rank and its greedy-first basis rows, which
``apolar_basis`` reads off the slice; see linalg for the details.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, perm

from . import linalg
from .poly import DiffOp, Exponent, Form, monomial, monomials


def require_analysis_form(f: object) -> Form:
    """Reject the zero marker and degree-0 constants up front."""
    if f is None:
        raise ValueError("the zero polynomial is rejected (no degree)")
    if not isinstance(f, Form):
        raise TypeError(f"expected a Form, got {type(f).__name__}")
    if f.degree < 1:
        raise ValueError("analyses need a form of degree at least 1")
    return f


def _divisors(e: Exponent, k: int) -> list[tuple[Exponent, int]]:
    """Every alpha <= e with |alpha| = k, with prod perm(e_i, alpha_i)."""
    partial: list[tuple[Exponent, int, int]] = [((), k, 1)]
    rest = sum(e)
    for ei in e:
        rest -= ei
        partial = [(alpha + (a,), left - a, factor * perm(ei, a))
                   for alpha, left, factor in partial
                   for a in range(max(0, left - rest), min(ei, left) + 1)]
    return [(alpha, factor) for alpha, _, factor in partial]


class CatalecticantSlice:
    """The degree-k differentiation map out of a fixed form.

    Built from the terms: c*x^e puts c * prod perm(e_i, alpha_i) at row
    alpha, column e - alpha, for each alpha <= e of degree k, and
    distinct terms never share a cell.  Only the nonzero rows are kept,
    graded-lex descending in ``row_monomials``; ``rows`` index their
    columns into ``columns``, the nonzero columns, graded-lex descending.
    ``basis_rows`` are the greedy-first independent rows in that order,
    and the rank is their count.
    """

    def __init__(self, form: Form, k: int):
        require_analysis_form(form)
        if not 0 <= k <= form.degree:
            raise ValueError(f"slice degree {k} outside 0..{form.degree}")
        self.form = form
        self.k = k
        images: dict[Exponent, dict[Exponent, Fraction]] = {}
        for e, c in form.terms.items():
            for alpha, factor in _divisors(e, k):
                beta = tuple(a - b for a, b in zip(e, alpha))
                images.setdefault(alpha, {})[beta] = c * factor
        self.columns: list[Exponent] = sorted(
            {beta for image in images.values() for beta in image}, reverse=True)
        col_index = {beta: j for j, beta in enumerate(self.columns)}
        self.row_monomials: list[Exponent] = sorted(images, reverse=True)
        self._row_index = {alpha: i for i, alpha in enumerate(self.row_monomials)}
        self.rows: list[dict[int, Fraction]] = [
            {col_index[beta]: c for beta, c in images[alpha].items()}
            for alpha in self.row_monomials]
        self.basis_rows = linalg.greedy_independent(self.rows)
        self.rank = len(self.basis_rows)

    @property
    def nrows(self) -> int:
        return comb(self.form.nvars - 1 + self.k, self.k)

    @property
    def ncols(self) -> int:
        d = self.form.degree - self.k
        return comb(self.form.nvars - 1 + d, d)

    def image(self, alpha: Exponent) -> Form | None:
        """alpha applied to the form, read off row alpha; None when zero."""
        i = self._row_index.get(alpha)
        if i is None:
            return None
        return Form(self.form.variables, self.form.degree - self.k,
                    {self.columns[j]: c for j, c in self.rows[i].items()})

    @cached_property
    def kernel_basis(self) -> list[DiffOp]:
        """Degree-k annihilator slice, reduced echelon over the row order.

        Zero rows are kernel elements too, so this is the one place that
        enumerates every degree-k monomial.
        """
        everything = monomials(self.form.nvars, self.k)
        where = {alpha: i for i, alpha in enumerate(everything)}
        transpose = [[Fraction(0)] * len(everything) for _ in self.columns]
        for alpha, row in zip(self.row_monomials, self.rows):
            for j, c in row.items():
                transpose[j][where[alpha]] = c
        basis = []
        for vector in linalg.nullspace(transpose):
            terms = {everything[i]: c for i, c in enumerate(vector) if c != 0}
            basis.append(Form(self.form.variables, self.k, terms))
        return basis


def catalecticant(f: Form, k: int) -> CatalecticantSlice:
    """The degree-k slice of f, built on first use and kept on the form."""
    require_analysis_form(f)
    if f._slices is None:
        f._slices = {}
    slice_ = f._slices.get(k)
    if slice_ is None:
        slice_ = f._slices[k] = CatalecticantSlice(f, k)
    return slice_


class HilbertFunction(tuple):
    """Rank vector (a_0, ..., a_d) of the apolar algebra."""

    @property
    def is_symmetric(self) -> bool:
        return tuple(self) == tuple(reversed(self))

    @property
    def is_unimodal(self) -> bool:
        return is_unimodal(self)


def hilbert(f: Form) -> HilbertFunction:
    """Exact Hilbert function, every slice rank computed independently."""
    require_analysis_form(f)
    return HilbertFunction(catalecticant(f, k).rank for k in range(f.degree + 1))


def is_unimodal(values) -> bool:
    """No strict valley: rises first, falls after, never dips and recovers."""
    seq = list(values)
    if not seq:
        raise ValueError("empty Hilbert vector")
    descending = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            descending = True
        elif b > a and descending:
            return False
    return True


def maximal_hilbert_through(f: Form, k: int) -> bool:
    """Whether a_j equals dim Q_j for every j <= k."""
    require_analysis_form(f)
    if k < 0:
        raise ValueError("negative degree")
    n = f.nvars
    return all(catalecticant(f, j).rank == comb(n - 1 + j, j)
               for j in range(k, -1, -1))


def is_k_concise(f: Form, k: int) -> bool:
    """Maximal Hilbert growth through degree k; defined when d >= 2k+1."""
    require_analysis_form(f)
    if k < 0:
        raise ValueError("negative degree")
    if 2 * k + 1 > f.degree:
        raise ValueError(
            f"{k}-conciseness needs degree >= {2 * k + 1}, form has degree {f.degree}")
    return maximal_hilbert_through(f, k)


def conciseness(f: Form) -> int:
    """Largest admissible k with maximal growth through degree k."""
    require_analysis_form(f)
    best = 0
    for k in range(1, (f.degree - 1) // 2 + 1):
        if not maximal_hilbert_through(f, k):
            break
        best = k
    return best


class ApolarBasis:
    """Monomial basis of a graded piece of the apolar algebra.

    The monomials are the greedy-first independent rows of the
    catalecticant under the graded-lex row order, so the choice is
    canonical for a fixed form; they are read from the slice's
    ``basis_rows``, found by the same elimination as its rank.
    ``row_indices`` point into the slice's stored (nonzero) rows.
    """

    def __init__(self, form: Form, k: int, indices: list[int],
                 monomial_list: list[Exponent]):
        self.form = form
        self.k = k
        self.row_indices = tuple(indices)
        self.monomials = tuple(monomial_list)

    def __len__(self) -> int:
        return len(self.monomials)

    def __repr__(self) -> str:
        names = [repr(monomial(self.form.variables, e)) for e in self.monomials]
        return f"ApolarBasis(k={self.k}, [{', '.join(names)}])"


def apolar_basis(f: Form, k: int) -> ApolarBasis:
    slice_ = catalecticant(f, k)
    kept = slice_.basis_rows
    return ApolarBasis(f, k, kept, [slice_.row_monomials[i] for i in kept])
