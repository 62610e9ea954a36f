"""Exact linear algebra over the rationals.

One integer eliminator, Bareiss fraction-free forward elimination,
serves dense rank, sparse rank and the greedy-first basis: rows are
scaled to integers first, so no rounding exists anywhere.  Sparse
matrices are split into connected components of the row/column
incidence graph and each component is reduced transposed, one line per
column, so the pivot columns are the greedy-first independent rows;
catalecticant slices of bi-graded forms are block diagonal under that
split, which keeps the large cases small.  Kernels and solves use plain
Fraction Gauss-Jordan (``rref``), which is only ever applied to desk
sized blocks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = Sequence[Sequence[Fraction | int]]


def _int_row(row: Iterable[Fraction | int]) -> list[int]:
    values = [Fraction(x) for x in row]
    scale = math.lcm(*(v.denominator for v in values)) if values else 1
    return [int(v * scale) for v in values]


def _bareiss_forward(rows: list[list[int]]) -> list[int]:
    """In-place fraction-free elimination, returns the pivot columns."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        base = rows[r]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (piv * row[j] - f * base[j]) // prev
            row[c] = 0
        prev = piv
        pivots.append(c)
    return pivots


def rank(matrix: Matrix) -> int:
    return len(_bareiss_forward([_int_row(row) for row in matrix]))


def rref(matrix: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        base = rows[r]
        for i in range(m):
            if i == r or not rows[i][c]:
                continue
            f = rows[i][c]
            rows[i] = [v - f * b for v, b in zip(rows[i], base)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def nullspace(matrix: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, reduced echelon shaped, by free column."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return []
    reduced, pivots = rref(matrix)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(v)
    return basis


def solve_columns(columns: Sequence[Sequence[Fraction | int]],
                  target: Sequence[Fraction | int]) -> list[Fraction] | None:
    """Coefficients c with sum c_j * column_j = target, or None.

    Free coordinates, if any, are set to zero.
    """
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("column length mismatch")
    aug = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
           for i in range(m)]
    reduced, pivots = rref(aug)
    k = len(columns)
    if k in pivots:
        return None
    out = [Fraction(0)] * k
    for i, pc in enumerate(pivots):
        out[pc] = reduced[i][k]
    return out


def sparse_rank(rows: Sequence[dict[int, Fraction]]) -> int:
    """Rank of a sparse matrix."""
    return len(greedy_independent(rows))


def greedy_independent(rows: Sequence[dict[int, Fraction]]) -> list[int]:
    """Indices of the greedy-first maximal independent subset of rows.

    Rows in different incidence components are independent of each
    other, so each component is eliminated on its own, transposed: the
    pivot columns of the echelon form of M^T are the greedy-first
    independent rows of M.  Each row is scaled to integers by the lcm
    of its own denominators, which keeps the same rows independent.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        cols = list(row)
        for c in cols:
            parent.setdefault(c, c)
        for c in cols[1:]:
            ra, rb = find(cols[0]), find(c)
            if ra != rb:
                parent[rb] = ra

    groups: dict[int, list[int]] = {}
    for idx, row in enumerate(rows):
        if row:
            groups.setdefault(find(next(iter(row))), []).append(idx)

    kept: list[int] = []
    for indices in groups.values():
        cols = sorted({c for i in indices for c in rows[i]})
        where = {c: j for j, c in enumerate(cols)}
        lines = [[0] * len(indices) for _ in cols]
        for t, i in enumerate(indices):
            row = rows[i]
            scale = math.lcm(*(v.denominator for v in row.values()))
            for c, v in row.items():
                lines[where[c]][t] = v.numerator * (scale // v.denominator)
        kept.extend(indices[t] for t in _bareiss_forward(lines))
    return sorted(kept)


def max_matching(row_support: Sequence[Iterable[int]]) -> int:
    """Maximum bipartite matching between rows and their support columns.

    Any r x r nonzero minor selects a matching of size r, so this is a
    certified upper bound for the rank of a matrix with this support.
    """
    supports = [sorted(set(s)) for s in row_support]
    match_col: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for c in supports[i]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match_col or augment(match_col[c], seen):
                match_col[c] = i
                return True
        return False

    count = 0
    for i in range(len(supports)):
        if augment(i, set()):
            count += 1
    return count
