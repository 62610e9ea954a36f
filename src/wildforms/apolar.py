"""Catalecticant slices, Hilbert functions and conciseness checks.

The degree-k catalecticant of a degree-d form f maps degree-k
differential operators to their derivatives of degree d-k.  Its rank is
the k-th value of the Hilbert function of the apolar algebra, and its
left kernel is the degree-k slice of the annihilator.  Slices are never
built by enumerating the monomial spaces, and each is computed once per
form and kept on the Form object, so it lives exactly as long as the
form.  Slice 0 is the form's terms, slice k+1 is slice k differentiated
once, and a slice above d/2 asked for alone is slice d-k transposed and
rescaled, so it never walks through the widest middle slices.  A
request builds every missing slice from the highest cached one below
it.  Hilbert growth (``maximal_hilbert_through``, ``conciseness``) is
read by one scan up from degree 1 that stops at the first shortfall.
A slice links back to its form only weakly, so the form and its slices
make no reference cycle and are freed by reference counting as soon as
the form is dropped.  Every cell is an ``int``: a slice stores its
entries times one ``denominator``, the lcm of the form's coefficient
denominators, so ranks, basis rows, kernels and Hessian rows read the
cells as they are.
A slice is eliminated only when its rank or basis rows are first read,
and then once: that one exact elimination gives both, and
``apolar_basis`` reads the rows off the slice (see linalg for the
details).  The basis rows form an order ideal: row gamma is d/dx_i of
row gamma-u_i, so if gamma-u_i depends on earlier rows, so does gamma
(graded lex is a monomial order), and once slice k-1 has its basis,
slice k eliminates only its other rows.  Slices read only for their
images, such as a mixed Hessian's slice k+l, are never eliminated.  A kernel is read off the
stored rows alone: a degree-k monomial with no stored row is a unit
operator, and only the stored rows go through ``linalg.nullspace``.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm, prod

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


class CatalecticantSlice:
    """The degree-k differentiation map out of a fixed form.

    Row alpha is alpha applied to the form: a term c*x^e puts c*e!/beta!
    at row alpha, column beta = e - alpha, for each alpha <= e of degree
    k, and distinct terms never share a cell.  Only the nonzero rows are
    kept, graded-lex descending in ``row_monomials``; ``rows`` index
    their columns into ``columns``, the nonzero columns, graded-lex
    descending.  Each cell is an ``int``, the entry times
    ``denominator``, one positive scalar for the slice; the builders hand
    both lists over in that order.  ``basis_rows`` are the greedy-first
    independent rows in that order, and the rank is their count; both
    come from one elimination, run when either is first read, of the
    rows not x_i times a dependent row of slice k-1, once that basis is known.

    The slice keeps the form's ``variables`` and ``degree`` and holds
    the form itself only through a weak reference (``form`` is None once
    the form is gone), so the form's slice cache makes no reference
    cycle, and a slice still answers every question without its form.
    """

    def __init__(self, form: Form, k: int, row_monomials: list[Exponent],
                 columns: list[Exponent], rows: list[dict[int, int]], denominator: int):
        self._form = weakref.ref(form)
        self.variables = form.variables
        self.degree = form.degree
        self.k = k
        self.denominator = denominator
        self.row_monomials = row_monomials
        self.row_index = {alpha: i for i, alpha in enumerate(row_monomials)}
        self.columns = columns
        self.rows = rows

    @cached_property
    def basis_rows(self) -> list[int]:
        """Indices of the greedy-first independent rows, eliminated on first
        read, without the rows x_i times a dependent row of the form's
        slice k-1 when that slice has its basis (module docstring)."""
        below = (getattr(self.form, "_slices", None) or {}).get(self.k - 1)
        if below is None or "basis_rows" not in vars(below) \
                or len(below.basis_rows) == len(below.rows):
            return linalg.greedy_independent(self.rows)
        kept = set(below.basis_rows)
        out = {delta[:i] + (delta[i] + 1,) + delta[i + 1:]
               for t, delta in enumerate(below.row_monomials) if t not in kept
               for i in range(len(delta))}
        candidates = [t for t, gamma in enumerate(self.row_monomials) if gamma not in out]
        found = linalg.greedy_independent([self.rows[t] for t in candidates])
        return [candidates[t] for t in found]

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


def _terms_slice(f: Form) -> CatalecticantSlice:
    """Slice 0: one row, the terms, each lifted by the one denominator."""
    denominator = lcm(*(c.denominator for c in f.terms.values()))
    columns = sorted(f.terms, reverse=True)
    where = {e: j for j, e in enumerate(columns)}
    row = {where[e]: c.numerator * (denominator // c.denominator) for e, c in f.terms.items()}
    return CatalecticantSlice(f, 0, [(0,) * f.nvars], columns, [row], denominator)


def _step_up(f: Form, lower: CatalecticantSlice) -> CatalecticantSlice:
    """Slice k+1 from slice k: row alpha+u_i is d/dx_i of row alpha, for
    i up to alpha's first nonzero index, which gives each row one parent
    and, with i outermost, graded-lex descending order.  Cell (alpha+u_i,
    beta-u_i) is beta_i times cell (alpha, beta), so cells stay ints and
    rows keep their parent's term order.  Each column's moves are found
    once, and the columns they reach are the columns of slice k+1."""
    parents = lower.row_monomials
    moves: list[list] = [[None] * len(lower.columns) for _ in lower.variables]
    for j, beta in enumerate(lower.columns):
        for i, b in enumerate(beta):
            if b:
                moves[i][j] = (beta[:i] + (b - 1,) + beta[i + 1:], b)
    columns = sorted({m[0] for line in moves for m in line if m}, reverse=True)
    where = {gamma: j for j, gamma in enumerate(columns)}
    lead = [next((i for i, a in enumerate(alpha) if a), len(alpha)) for alpha in parents]
    row_monomials, rows = [], []
    for i, line in enumerate(moves):
        step = [m and (where[m[0]], m[1]) for m in line]
        start = bisect_left(lead, i)
        for alpha, row in zip(parents[start:], lower.rows[start:]):
            image = {m[0]: m[1] * c for j, c in row.items() if (m := step[j])}
            if image:
                row_monomials.append(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:])
                rows.append(image)
    return CatalecticantSlice(f, lower.k + 1, row_monomials, columns, rows, lower.denominator)


def _mirror(f: Form, lower: CatalecticantSlice) -> CatalecticantSlice:
    """Slice d-k from slice k: its rows are slice k's columns and its
    columns slice k's rows.  Cell (beta, alpha) is c*e!/alpha!, so it is
    cell (alpha, beta) times beta!/alpha!, an exact division."""
    scale = [prod(map(factorial, beta)) for beta in lower.columns]
    rows: list[dict[int, int]] = [{} for _ in lower.columns]
    for t, (alpha, row) in enumerate(zip(lower.row_monomials, lower.rows)):
        down = prod(map(factorial, alpha))
        for j, c in row.items():
            rows[j][t] = c * scale[j] // down
    return CatalecticantSlice(f, f.degree - lower.k, lower.columns, lower.row_monomials,
                              rows, lower.denominator)


def _slice(f: Form, slices: dict[int, CatalecticantSlice], k: int) -> CatalecticantSlice:
    """Slice k from the cache, else built and cached with what it needs:
    an upper slice is slice d-k mirrored, and any other steps up from the
    highest cached slice below it, caching each slice on the way."""
    slice_ = slices.get(k)
    if slice_ is None:
        if 2 * k > f.degree:
            slice_ = slices[k] = _mirror(f, _slice(f, slices, f.degree - k))
        else:
            if 0 not in slices:
                slices[0] = _terms_slice(f)
            slice_ = slices[max(j for j in slices if j <= k)]
            while slice_.k < k:
                slice_ = _step_up(f, slice_)
                slices[slice_.k] = slice_
    return slice_


def catalecticant(f: Form, k: int) -> CatalecticantSlice:
    """The degree-k slice of f, built by ``_slice`` on first use and kept
    on the form.  The degree is checked before the cache is read or
    created, so a bad request fails whatever is cached.
    """
    require_analysis_form(f)
    if not 0 <= k <= f.degree:
        raise ValueError(f"slice degree {k} outside 0..{f.degree}")
    if f._slices is None:
        f._slices = {}
    return _slice(f, f._slices, k)


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
    the upper half is the lower half mirrored; the same transpose is how
    an upper slice asked for alone is built.
    """
    require_analysis_form(f)
    d = f.degree
    half = [catalecticant(f, k).rank for k in range(d // 2 + 1)]
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


def _growth(f: Form, last: int) -> int:
    """Largest k <= last with a_j = dim Q_j for every j <= k.

    One scan up from degree 1, stopping at the first shortfall.  Slice 0
    of a nonzero form is one nonzero row, so a_0 = 1 and it is never read.
    """
    n = f.nvars
    for k in range(1, last + 1):
        if catalecticant(f, k).rank != comb(n - 1 + k, k):
            return k - 1
    return last


def maximal_hilbert_through(f: Form, k: int) -> bool:
    """Whether a_j equals dim Q_j for every j <= k; False past d, where
    a_j = 0."""
    require_analysis_form(f)
    if k < 0:
        raise ValueError("negative degree")
    return _growth(f, min(k, f.degree)) == k


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
    """Largest admissible k (2k+1 <= d) with maximal growth through degree k."""
    require_analysis_form(f)
    return _growth(f, (f.degree - 1) // 2)


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
