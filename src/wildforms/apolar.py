"""Catalecticant slices, Hilbert functions and conciseness checks.

The degree-k catalecticant of a degree-d form f maps degree-k
differential operators to their derivatives of degree d-k.  Its rank is
the k-th value of the Hilbert function of the apolar algebra, and its
left kernel is the degree-k slice of the annihilator.  Slices are built
from the form's terms, never by enumerating the monomial spaces, and
each is computed once per form: ``catalecticant``, the only builder,
keeps it on the Form object, so it lives exactly as long as the form.
A request for a window of degrees 0..through (``hilbert`` asks for
0..d/2 and mirrors the rest) builds every missing slice of the window
from one pass over each term's divisors, with the exponent tuples of
that pass interned, so a slice's columns share their tuples with
another slice's rows; a single-degree request enumerates only that
degree.  A slice links back to its form only weakly, so the form and
its slices make no reference cycle and are freed by reference counting
as soon as the form is dropped.  Every cell is an ``int``: a slice
stores its entries times one ``denominator``, the lcm of the form's
coefficient denominators, so ranks, basis rows, kernels and Hessian
rows read the cells as they are.  A slice is eliminated only when its
rank or basis rows are first read, and then once: that one exact
elimination gives both, and ``apolar_basis`` reads the rows off the
slice (see linalg for the details).  Slices read only for their
images, such as a mixed Hessian's slice k+l, are never eliminated.  A
kernel is read off the stored rows alone: a degree-k monomial with no
stored row is a unit operator, and only the stored rows go through
``linalg.nullspace``.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, perm

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


_ZERO = (0,)


def _divisors(e: Exponent, lo: int, hi: int, scale: int
              ) -> list[tuple[Exponent, Exponent, int, int]]:
    """Every alpha <= e with lo <= |alpha| <= hi, as (alpha, e - alpha,
    |alpha|, scale * prod perm(e_i, alpha_i)), for e of degree >= 1.

    Each variable's choices are cut to those the remaining exponents can
    still complete into the window, so no partial divisor is a dead end;
    a zero exponent has the one choice 0.
    """
    partial: list[tuple[Exponent, Exponent, int, int]] = [((), (), 0, scale)]
    rest = sum(e)
    for ei in e:
        if not ei:
            partial = [(alpha + _ZERO, beta + _ZERO, size, factor)
                       for alpha, beta, size, factor in partial]
            continue
        rest -= ei
        partial = [(alpha + (a,), beta + (ei - a,), size + a, factor * perm(ei, a))
                   for alpha, beta, size, factor in partial
                   for a in range(max(0, lo - size - rest), min(ei, hi - size) + 1)]
    return partial


def _slice_images(form: Form, degrees: list[int], denominator: int
                  ) -> dict[int, dict[Exponent, dict[Exponent, int]]]:
    """Row alpha -> {column e - alpha: cell} of every slice in ``degrees``,
    from one pass over each term's divisors of degree in their span; a
    cell is its entry times ``denominator``.

    Equal exponent tuples are interned across the pass, so rows of one
    slice and columns of another share their tuples.
    """
    images: dict[int, dict[Exponent, dict[Exponent, int]]] = {k: {} for k in degrees}
    shared: dict[Exponent, Exponent] = {}
    intern = shared.setdefault
    lo, hi = min(degrees), max(degrees)
    for e, c in form.terms.items():
        lifted = c.numerator * (denominator // c.denominator)
        for alpha, beta, k, cell in _divisors(e, lo, hi, lifted):
            image = images.get(k)
            if image is None:
                continue
            row = image.get(alpha)
            if row is None:
                row = image[intern(alpha, alpha)] = {}
            row[intern(beta, beta)] = cell
    return images


class CatalecticantSlice:
    """The degree-k differentiation map out of a fixed form.

    Built from the terms: c*x^e puts c * prod perm(e_i, alpha_i) at row
    alpha, column e - alpha, for each alpha <= e of degree k, and
    distinct terms never share a cell.  Only the nonzero rows are kept,
    graded-lex descending in ``row_monomials``; ``rows`` index their
    columns into ``columns``, the nonzero columns, graded-lex descending.
    Each cell is an ``int``, the entry times ``denominator``, one
    positive scalar for the slice.  ``basis_rows`` are the greedy-first
    independent rows in that order, and the rank is their count; both
    come from one elimination, run when either is first read.

    The slice keeps the form's ``variables`` and ``degree`` and holds
    the form itself only through a weak reference (``form`` is None once
    the form is gone), so the form's slice cache makes no reference
    cycle, and a slice still answers every question without its form.
    """

    def __init__(self, form: Form, k: int,
                 images: dict[Exponent, dict[Exponent, int]], denominator: int):
        self._form = weakref.ref(form)
        self.variables = form.variables
        self.degree = form.degree
        self.k = k
        self.denominator = denominator
        self.columns: list[Exponent] = sorted(
            {beta for image in images.values() for beta in image}, reverse=True)
        col_index = {beta: j for j, beta in enumerate(self.columns)}
        self.row_monomials: list[Exponent] = sorted(images, reverse=True)
        self.row_index = {alpha: i for i, alpha in enumerate(self.row_monomials)}
        self.rows: list[dict[int, int]] = [
            {col_index[beta]: c for beta, c in images[alpha].items()}
            for alpha in self.row_monomials]

    @cached_property
    def basis_rows(self) -> list[int]:
        """Indices of the greedy-first independent rows, eliminated on first read."""
        return linalg.greedy_independent(self.rows)

    @cached_property
    def rank(self) -> int:
        return len(self.basis_rows)

    @property
    def form(self) -> Form | None:
        return self._form()

    @property
    def nrows(self) -> int:
        return comb(len(self.variables) - 1 + self.k, self.k)

    @property
    def ncols(self) -> int:
        d = self.degree - self.k
        return comb(len(self.variables) - 1 + d, d)

    def image(self, alpha: Exponent) -> Form | None:
        """alpha applied to the form, read off row alpha; None when zero."""
        i = self.row_index.get(alpha)
        return None if i is None else self.row_image(i)

    def row_image(self, i: int) -> Form:
        """Stored row i as a Form: row_monomials[i] applied to the form."""
        columns, denominator = self.columns, self.denominator
        return Form._trusted(self.variables, self.degree - self.k,
                             {columns[j]: Fraction(c, denominator)
                              for j, c in self.rows[i].items()})

    @cached_property
    def kernel_basis(self) -> list[DiffOp]:
        """Degree-k annihilator slice, reduced echelon over the row order.

        A degree-k monomial with no stored row is a unit operator; each
        stored row that depends on the rows before it gives its
        dependency among the stored rows.  This is the one place that
        enumerates every degree-k monomial.
        """
        dependencies = linalg.nullspace(self.rows)
        stored = self.row_monomials
        basis = []
        for alpha in monomials(len(self.variables), self.k):
            i = self.row_index.get(alpha)
            if i is None:
                terms = {alpha: Fraction(1)}
            elif i in dependencies:
                terms = {stored[j]: c for j, c in dependencies[i].items()}
            else:
                continue
            basis.append(Form._trusted(self.variables, self.k, terms))
        return basis


def catalecticant(f: Form, k: int, through: int | None = None) -> CatalecticantSlice:
    """The degree-k slice of f, built on first use and kept on the form.

    The only place slices are built.  With ``through``, a miss builds
    every missing slice of degrees 0..through (k among them) in one pass
    over the terms' divisors; without it, only slice k.
    """
    require_analysis_form(f)
    slices = f._slices
    if slices is None:
        slices = f._slices = {}
    slice_ = slices.get(k)
    if slice_ is None:
        if not 0 <= k <= f.degree:
            raise ValueError(f"slice degree {k} outside 0..{f.degree}")
        if through is None:
            degrees = [k]
        elif k <= through <= f.degree:
            degrees = [j for j in range(through + 1) if j not in slices]
        else:
            raise ValueError(f"window 0..{through} must hold {k} and lie in 0..{f.degree}")
        denominator = (next(iter(slices.values())).denominator if slices
                       else lcm(*(c.denominator for c in f.terms.values())))
        images = _slice_images(f, degrees, denominator)
        for j in degrees:
            slices[j] = CatalecticantSlice(f, j, images.pop(j), denominator)
        slice_ = slices[k]
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
    """Exact Hilbert function from the slices of degree at most d/2.

    A term c*x^e puts c*e!/beta! at (alpha, beta) of slice k and
    c*e!/alpha! at (beta, alpha) of slice d-k, so slice d-k is slice k
    transposed, with each row beta scaled by beta! and each column alpha
    by 1/alpha!: invertible diagonals, which keep the rank.  Hence
    h_{d-k} = h_k, the Gorenstein symmetry of the apolar algebra, and
    the upper half is the lower half mirrored.
    """
    require_analysis_form(f)
    d = f.degree
    half = [catalecticant(f, k, through=d // 2).rank for k in range(d // 2 + 1)]
    return HilbertFunction(half + half[:(d + 1) // 2][::-1])


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
    return all(catalecticant(f, j, through=k).rank == comb(n - 1 + j, j)
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
    """Largest admissible k with maximal growth through degree k.

    One upward scan: degree 0, then each admissible k once, stopping at
    the first k whose slice rank falls short of dim Q_k.
    """
    require_analysis_form(f)
    n, last = f.nvars, (f.degree - 1) // 2
    if last < 1 or catalecticant(f, 0, through=last).rank != 1:
        return 0
    best = 0
    for k in range(1, last + 1):
        if catalecticant(f, k, through=last).rank != comb(n - 1 + k, k):
            break
        best = k
    return best


class ApolarBasis:
    """Monomial basis of a graded piece of the apolar algebra.

    The monomials are the greedy-first independent rows of the
    catalecticant under the graded-lex row order, so the choice is
    canonical for a fixed form; they are read from the slice's
    ``basis_rows``, found by the same elimination as its rank.
    """

    def __init__(self, form: Form, k: int, monomial_list: list[Exponent]):
        self.form = form
        self.k = k
        self.monomials = tuple(monomial_list)

    def __len__(self) -> int:
        return len(self.monomials)

    def __repr__(self) -> str:
        names = [repr(monomial(self.form.variables, e)) for e in self.monomials]
        return f"ApolarBasis(k={self.k}, [{', '.join(names)}])"


def apolar_basis(f: Form, k: int) -> ApolarBasis:
    slice_ = catalecticant(f, k)
    return ApolarBasis(f, k, [slice_.row_monomials[i] for i in slice_.basis_rows])
