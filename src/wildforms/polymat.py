"""Fraction-free elimination for matrices with polynomial entries.

A polynomial is a dict from packed exponent keys to nonzero int
coefficients; the empty dict is zero.  An exponent tuple packs into a
single int, 16 bits per variable with the first variable in the top
field, so multiplying monomials is one integer addition and comparing
packed keys is lex comparison.  Bareiss elimination (Math. Comp. 22,
1968) divides each update exactly by the previous pivot, so every
entry stays in Z[x].  One forward elimination loop gives the
determinant (its last pivot, signed), the rank (its pivot count) and,
for a rank-deficient matrix, a polynomial kernel vector by one
fraction-free back substitution through its echelon rows, with no
rational functions in sight.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import Form

SHIFT = 16

Poly = dict[int, int]


def guard_mask(nvars: int) -> int:
    high = 1 << (SHIFT - 1)
    out = 0
    for _ in range(nvars):
        out = (out << SHIFT) | high
    return out


def pack(exponent: Sequence[int]) -> int:
    key = 0
    for e in exponent:
        if not 0 <= e < (1 << (SHIFT - 1)):
            raise ValueError(f"exponent {e} out of packing range")
        key = (key << SHIFT) | e
    return key


def unpack(key: int, nvars: int) -> tuple[int, ...]:
    out = []
    for _ in range(nvars):
        out.append(key & ((1 << SHIFT) - 1))
        key >>= SHIFT
    return tuple(reversed(out))


def pneg(a: Poly) -> Poly:
    return {k: -v for k, v in a.items()}


def padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        acc = out.get(k, 0) + v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def psub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        acc = out.get(k, 0) - v
        if acc:
            out[k] = acc
        else:
            out.pop(k, None)
    return out


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            acc = get(k, 0) + ca * cb
            if acc:
                out[k] = acc
            else:
                del out[k]
    return out


def pdivexact(num: Poly, den: Poly, guard: int) -> Poly:
    """Quotient num/den when the division is exact over Z[x]."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return {}
    rem = dict(num)
    quot: Poly = {}
    kd = max(den)
    cd = den[kd]
    while rem:
        kn = max(rem)
        cn = rem[kn]
        kq = kn - kd
        if kq < 0 or (kq & guard) or cn % cd:
            raise ArithmeticError("inexact polynomial division")
        cq = cn // cd
        quot[kq] = cq
        for k2, c2 in den.items():
            k = kq + k2
            acc = rem.get(k, 0) - cq * c2
            if acc:
                rem[k] = acc
            else:
                rem.pop(k, None)
    return quot


def to_form(p: Poly, variables: Sequence[str], divide: int = 1) -> "Form | None":
    if not p:
        return None
    n = len(variables)
    terms = {unpack(k, n): Fraction(c, divide) for k, c in p.items()}
    return Form(variables, sum(next(iter(terms))), terms)


def _forward(rows: list[list[Poly]], guard: int
             ) -> tuple[list[int], list[list[Poly]], int]:
    """Fraction-free forward elimination: pivot columns, echelon rows, swap sign.

    Each pivot (fewest terms, first row on ties) updates only the rows
    below it and the columns to its right, dividing exactly by the
    previous pivot; a column with no pivot is skipped.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [list(row) for row in rows]
    prev: Poly = {0: 1}
    pivot_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(n):
        pivot_row = None
        best = None
        for i in range(r, m):
            if work[i][c]:
                size = len(work[i][c])
                if best is None or size < best:
                    best = size
                    pivot_row = i
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            sign = -sign
        piv = work[r][c]
        base = work[r]
        for i in range(r + 1, m):
            row = work[i]
            f = row[c]
            for j in range(c + 1, n):
                if f:
                    t = psub(pmul(piv, row[j]), pmul(f, base[j]))
                elif row[j]:
                    t = pmul(piv, row[j])
                else:
                    continue
                row[j] = pdivexact(t, prev, guard)
            row[c] = {}
        prev = piv
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    return pivot_cols, work[:r], sign


def bareiss_det(rows: list[list[Poly]], guard: int) -> Poly:
    """Exact determinant of a square polynomial matrix: the last pivot, signed."""
    n = len(rows)
    if n == 0:
        return {0: 1}
    pivot_cols, echelon, sign = _forward(rows, guard)
    if len(pivot_cols) < n:
        return {}
    d = echelon[-1][-1]
    return d if sign == 1 else pneg(d)


class JordanResult:
    """Outcome of fraction-free forward elimination: rank, pivots, echelon rows."""

    __slots__ = ("rank", "pivot_cols", "rows", "ncols")

    def __init__(self, rank: int, pivot_cols: list[int],
                 rows: list[list[Poly]], ncols: int):
        self.rank = rank
        self.pivot_cols = pivot_cols
        self.rows = rows
        self.ncols = ncols


def bareiss_jordan(rows: list[list[Poly]], guard: int) -> JordanResult:
    """Fraction-free forward elimination; the rows come back in echelon form.

    The pivots of the forward pass it shares with bareiss_det are those
    of fraction-free Gauss-Jordan clearing, and kernel_vector returns
    the kernel vector that clearing gives.  Rank, pivots and witness
    are thus those of Gauss-Jordan elimination, which is why the
    function keeps its name and symbolic rank reports keep the method
    label "fraction-free Gauss-Jordan elimination": tools that read the
    reports and the traces match on both.
    """
    pivot_cols, echelon, _ = _forward(rows, guard)
    return JordanResult(len(pivot_cols), pivot_cols, echelon,
                        len(rows[0]) if rows else 0)


def kernel_vector(result: JordanResult, guard: int) -> list[Poly] | None:
    """One right-kernel vector with polynomial entries, or None if full rank.

    Uses the first free column c and back-substitutes through the
    echelon rows with v[c] = p, p the last pivot (p = 1 at rank zero).
    p is the determinant of the pivot block up to sign, so by Cramer's
    rule every entry is a polynomial and each division below is exact
    (pdivexact raises if one is not).
    """
    pivots = result.pivot_cols
    free = [c for c in range(result.ncols) if c not in pivots]
    if not free:
        return None
    c = free[0]
    vector: list[Poly] = [{} for _ in range(result.ncols)]
    p = result.rows[-1][pivots[-1]] if pivots else {0: 1}
    vector[c] = p
    for i in range(result.rank - 1, -1, -1):
        row = result.rows[i]
        acc = pmul(row[c], p)
        for pc in pivots[i + 1:]:
            if row[pc] and vector[pc]:
                acc = padd(acc, pmul(row[pc], vector[pc]))
        vector[pivots[i]] = pneg(pdivexact(acc, row[pivots[i]], guard))
    return vector
