"""Exact linear algebra over the rationals.

One exact eliminator, Bareiss fraction-free forward elimination,
serves rank, the greedy-first basis and kernels: lines are scaled to
integers first, so no rounding exists anywhere.  Rank has
one route: a dense matrix is read as the sparse rows of its nonzero
cells.  Sparse rows are split into connected components of the
row/column incidence graph; catalecticant slices of bi-graded forms
and the evaluated Hessians of sparse forms are block diagonal under
that split, which keeps the large cases small.  A component of one
row keeps that row, and one of one column keeps its first row, since
its rows are nonzero multiples of each other; neither is eliminated.

A sparse component, at most a quarter of whose cells are nonzero, is
first eliminated mod the prime p = 2^61 - 1.  At every prefix of its
integer rows, rank mod p <= rank over Q <= nu, the size of a maximum
matching of the rows to their support columns.  ``matching`` adds the
rows in order and never unmatches one (Kuhn's augmenting paths), so
its matched rows are the rows where nu of the prefix grows.  When the
rows kept mod p are all the rows, or exactly the matched rows, the
three counts agree at every prefix, and those rows are the
greedy-first rows over Q.  Otherwise the component goes to Bareiss, so
a bad prime costs time, never correctness, and the fixed prime keeps
every result deterministic.  Denser components go to Bareiss directly:
on near-full components the mod-p pass measured slower than Bareiss
itself, and it would still send some of them on to Bareiss.

Bareiss reduces a component transposed, one line per column, so the
pivot columns are the greedy-first independent rows.  Each component
is divided by the gcd of every row and of every column first, which
keeps Bareiss' coefficient growth down; rows of plain ints skip the
denominator scaling.  Kernels have one route
too: ``nullspace`` takes sparse vectors and returns the dependencies
among them, so a caller hands it only the vectors it stores (a
slice's nonzero rows, a form's terms), never a dense matrix.  It
back-substitutes through the echelon lines from the last pivot, as
``polymat.kernel_vector`` does over Z[x]; only the final division by
that pivot makes Fractions, one per nonzero entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Hashable, Iterable, Sequence

Matrix = Sequence[Sequence[Fraction | int]]

PRIME = (1 << 61) - 1


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


def _int_row(row: dict[Hashable, Fraction | int]) -> dict[Hashable, int]:
    """The row times the lcm of its denominators; a row of ints as it is."""
    if all(type(v) is int for v in row.values()):
        return row
    scale = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in row.items()}


def _independent_mod_p(rows: list[dict[int, int]]) -> list[int]:
    """Indices of the greedy-first integer rows independent mod PRIME.

    Each row in turn is reduced by the kept rows and kept when a cell
    survives; its last surviving column becomes its pivot, scaled to 1,
    so every kept row holds only columns below its pivot.  Reduction
    takes the pivot columns it hits from the last down, which is why a
    subtraction never brings back a column already cleared.  Pivoting
    on the last column rather than the first makes far less fill-in on
    catalecticant slices, whose columns run from the largest monomial.
    """
    echelon: dict[int, dict[int, int]] = {}
    kept = []
    for t, row in enumerate(rows):
        work = {c: x for c, v in row.items() if (x := v % PRIME)}
        hits = [-c for c in work if c in echelon]
        heapify(hits)
        while hits:
            c = -heappop(hits)
            f = work.pop(c, 0)
            if not f:
                continue
            for d, v in echelon[c].items():
                x = work.get(d)
                if x is None:
                    work[d] = -f * v % PRIME
                    if d in echelon:
                        heappush(hits, -d)
                elif x := (x - f * v) % PRIME:
                    work[d] = x
                else:
                    del work[d]
        if work:
            lead = max(work)
            inv = pow(work.pop(lead), -1, PRIME)
            echelon[lead] = {d: v * inv % PRIME for d, v in work.items()}
            kept.append(t)
    return kept


def rank(matrix: Matrix) -> int:
    """Rank of a dense matrix, eliminated by incidence components."""
    return sparse_rank([{j: v for j, v in enumerate(row) if v} for row in matrix])


def nullspace(vectors: Sequence[dict[Hashable, Fraction | int]]
              ) -> dict[int, dict[int, Fraction]]:
    """The reduced-echelon dependencies among sparse vectors, by free index.

    This is the right kernel of the matrix whose columns are the
    vectors.  They are transposed into one line per key, and each line
    is scaled to integers by the lcm of its denominators, which keeps
    the kernel.  ``_bareiss_forward`` then leaves echelon lines whose
    last pivot p is, up to sign, the determinant of the pivot block
    (p = 1 at rank zero).  The dependency of free vector c has p at c
    and 0 at the other free vectors; back substitution through the
    echelon lines fills its pivot entries, and by Cramer's rule each
    division is exact.  Divided by p, its nonzero entries are returned
    in increasing index order, with 1 at c.
    """
    n = len(vectors)
    lines: dict[Hashable, list[Fraction | int]] = {}
    for j, vector in enumerate(vectors):
        for key, c in vector.items():
            line = lines.get(key)
            if line is None:
                line = lines[key] = [0] * n
            line[j] = c
    rows = []
    for line in lines.values():
        if any(type(x) is not int for x in line):
            scale = math.lcm(*(x.denominator for x in line))
            line = [x.numerator * (scale // x.denominator) for x in line]
        rows.append(line)
    pivots = _bareiss_forward(rows)
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    taken = set(pivots)
    dependencies = {}
    for c in range(n):
        if c in taken:
            continue
        v = [0] * n
        v[c] = p
        for i in range(len(pivots) - 1, -1, -1):
            row = rows[i]
            acc = row[c] * p
            for pc in pivots[i + 1:]:
                acc += row[pc] * v[pc]
            v[pivots[i]] = -acc // row[pivots[i]]
        dependencies[c] = {j: Fraction(x, p) for j, x in enumerate(v) if x}
    return dependencies


def sparse_rank(rows: Sequence[dict[int, Fraction | int]]) -> int:
    """Rank of a sparse matrix."""
    return len(greedy_independent(rows))


def greedy_independent(rows: Sequence[dict[int, Fraction | int]]) -> list[int]:
    """Indices of the greedy-first maximal independent subset of rows.

    Rows in different incidence components are independent of each
    other, so each component is settled on its own.  A one-row
    component is its row, kept when nonzero.  In a one-column component
    every nonzero row is a nonzero multiple of every other, so the first
    nonzero one is kept and the rest depend on it.  Every other
    component has each row scaled to integers by the lcm of its
    denominators (rows of ints need no scaling), a nonzero scaling that
    keeps every dependency among the rows.

    A component with nnz <= rows x cols / 4 is eliminated mod PRIME
    first.  Its rows kept mod p are the answer when they are all its
    rows, or when they equal the rows ``matching`` matches on its row
    supports; the module docstring gives the argument.  Otherwise, and
    for every denser component, it is eliminated transposed by Bareiss:
    the pivot columns of the echelon form of M^T are the greedy-first
    independent rows of M.  Each integer row of M is divided by its
    gcd, then each row of M^T by the gcd of its entries.  Both are
    nonzero scalings, of the columns and of the rows of M^T: the first
    keeps every dependency among the rows of M, the second keeps the
    row space of M^T, so the rank and the pivot columns cannot change,
    while the entries Bareiss starts from get smaller.
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
        if len(indices) == 1:
            if any(rows[indices[0]].values()):
                kept.append(indices[0])
            continue
        cols = sorted({c for i in indices for c in rows[i]})
        if len(cols) == 1:
            kept.extend(islice((i for i in indices if rows[i][cols[0]]), 1))
            continue
        where = {c: j for j, c in enumerate(cols)}
        if 4 * sum(len(rows[i]) for i in indices) <= len(indices) * len(cols):
            scaled = [{where[c]: v for c, v in _int_row(rows[i]).items()} for i in indices]
            local = _independent_mod_p(scaled)
            if len(local) == len(indices) or local == sorted(matching(scaled).values()):
                kept.extend(indices[t] for t in local)
                continue
        lines = [[0] * len(indices) for _ in cols]
        for t, i in enumerate(indices):
            scaled = _int_row(rows[i])
            g = math.gcd(*scaled.values()) or 1
            for c, v in scaled.items():
                lines[where[c]][t] = v // g
        for j, line in enumerate(lines):
            g = math.gcd(*line)
            if g > 1:
                lines[j] = [v // g for v in line]
        kept.extend(indices[t] for t in _bareiss_forward(lines))
    return sorted(kept)


def matching(row_support: Sequence[Iterable[int]]) -> dict[int, int]:
    """A maximum bipartite matching of rows to support columns, {column: row}.

    Each row in turn searches depth first for an augmenting path,
    trying its columns in increasing order.  The search keeps its own
    trail instead of recursing, so a path may be as long as the matrix
    is wide.
    """
    supports = [sorted(set(s)) for s in row_support]
    match_col: dict[int, int] = {}
    for i in range(len(supports)):
        seen: set[int] = set()
        trail = []   # (row, its column iterator, the column it is trying)
        row, columns = i, iter(supports[i])
        while True:
            for c in columns:
                if c not in seen:
                    break
            else:
                if not trail:
                    break
                row, columns, _ = trail.pop()
                continue
            seen.add(c)
            owner = match_col.get(c)
            if owner is not None:
                trail.append((row, columns, c))
                row, columns = owner, iter(supports[owner])
                continue
            match_col[c] = row
            for owner, _, taken in trail:
                match_col[taken] = owner
            break
    return match_col


def max_matching(row_support: Sequence[Iterable[int]]) -> int:
    """Size of a maximum bipartite matching between rows and support columns.

    Any r x r nonzero minor selects a matching of size r, so this is a
    certified upper bound for the rank of a matrix with this support.
    """
    return len(matching(row_support))
