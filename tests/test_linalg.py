"""Exact linear algebra and the polynomial-entry matrix layer."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wildforms import linalg, polymat
from wildforms.apolar import catalecticant
from wildforms.families import build
from wildforms.hessian import evaluated_rank, mixed_hessian
from wildforms.linalg import (
    greedy_independent,
    matching,
    max_matching,
    nullspace,
    rank,
    sparse_rank,
)
from wildforms.poly import apply, monomial, monomials

from helpers import (common_scale, from_form, reference_bareiss_det,
                     reference_bareiss_jordan, reference_dense_nullspace,
                     reference_greedy_independent,
                     reference_kernel_vector, reference_matching,
                     reference_nullspace, reference_rank, reference_solve_columns)


def sparse_columns(columns):
    """Dense columns as sparse vectors {row: nonzero cell}."""
    return [{i: v for i, v in enumerate(col) if v} for col in columns]


def columns_of(a):
    return [[row[j] for row in a] for j in range(len(a[0]) if a else 0)]


def dense_nullspace(a):
    """``nullspace`` of a dense matrix's columns, each dependency read
    back as a dense vector."""
    n = len(a[0]) if a else 0
    return [[dep.get(j, 0) for j in range(n)]
            for dep in nullspace(sparse_columns(columns_of(a))).values()]


def solve(columns, target):
    """Coordinates of target on the columns, free ones zero, or None when
    target is independent of them: minus the target's dependency."""
    k = len(columns)
    dep = nullspace(sparse_columns([*columns, target])).get(k)
    return None if dep is None else [-dep.get(j, 0) for j in range(k)]


def random_matrix(rng, m, n, lo=-6, hi=6, density=0.8):
    return [[Fraction(rng.randint(lo, hi)) if rng.random() < density else Fraction(0)
             for _ in range(n)] for _ in range(m)]


class TestDenseAgainstSympy:
    def test_rank_matches(self):
        rng = random.Random(101)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, m, n)
            assert rank(a) == sympy.Matrix(a).rank()

    def test_integer_rows_match_and_stay_unchanged(self):
        rng = random.Random(107)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            a = [[int(v) for v in row] for row in random_matrix(rng, m, n)]
            before = [list(row) for row in a]
            assert rank(a) == sympy.Matrix(a).rank()
            assert a == before

    def test_nullspace_matches(self):
        rng = random.Random(103)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, m, n, density=0.6)
            basis = dense_nullspace(a)
            mat = sympy.Matrix(a)
            assert len(basis) == n - mat.rank()
            for v in basis:
                assert mat * sympy.Matrix(n, 1, v) == sympy.zeros(m, 1)

    def test_nullspace_pivots(self):
        a = [[Fraction(v) for v in row]
             for row in [[1, 2, 3], [2, 4, 6], [0, 0, 5]]]
        # pivots 0 and 2, so one kernel vector, at free column 1
        assert dense_nullspace(a) == [[-2, 1, 0]]
        first, second, third = columns_of(a)
        assert solve([first, third], second) == [2, 0]
        assert solve([first, second], third) is None


class TestSolveColumns:
    """Solves read off the target's dependency in one ``nullspace`` call."""

    def test_exact_combination(self):
        cols = [[1, 0, 2], [0, 1, 1]]
        target = [3, -2, 4]
        out = solve(cols, target)
        assert out == [Fraction(3), Fraction(-2)]

    def test_unsolvable_returns_none(self):
        assert solve([[1, 0, 0]], [0, 1, 0]) is None
        assert solve([[1, 2], [2, 4]], [1, 3]) is None

    def test_random_consistency(self):
        rng = random.Random(104)
        for _ in range(25):
            m, k = rng.randint(1, 5), rng.randint(1, 4)
            cols = [[Fraction(rng.randint(-4, 4)) for _ in range(m)]
                    for _ in range(k)]
            weights = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            target = [sum(w * col[i] for w, col in zip(weights, cols))
                      for i in range(m)]
            out = solve(cols, target)
            assert out is not None
            rebuilt = [sum(c * col[i] for c, col in zip(out, cols))
                       for i in range(m)]
            assert rebuilt == target


class TestSparse:
    def test_sparse_rank_equals_dense(self):
        rng = random.Random(105)
        for _ in range(30):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            dense = random_matrix(rng, m, n, density=0.35)
            rows = [{j: v for j, v in enumerate(row) if v != 0}
                    for row in dense]
            assert sparse_rank(rows) == rank(dense)

    def test_greedy_independent_spans(self):
        rng = random.Random(106)
        for _ in range(25):
            m, n = rng.randint(1, 7), rng.randint(1, 6)
            dense = random_matrix(rng, m, n, density=0.5)
            rows = [{j: v for j, v in enumerate(row) if v != 0}
                    for row in dense]
            kept = greedy_independent(rows)
            assert len(kept) == rank(dense)
            sub = [dense[i] for i in kept]
            assert not sub or rank(sub) == len(kept)

    def test_greedy_independent_matches_reference(self):
        rng = random.Random(114)
        for _ in range(40):
            rows = []
            for block in range(rng.randint(1, 4)):
                offset = 10 * block
                for _ in range(rng.randint(1, 5)):
                    rows.append({offset + j: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                 for j in range(rng.randint(1, 6)) if rng.random() < 0.5})
            for _ in range(rng.randint(0, 3)):
                source = rng.choice(rows)
                factor = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                rows.append({c: factor * v for c, v in source.items()})
            rows += [{} for _ in range(rng.randint(0, 2))]
            rng.shuffle(rows)
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            assert greedy_independent(rows) == reference_greedy_independent(rows)
            assert sparse_rank(rows) == len(reference_greedy_independent(rows))
        # large common factors per row and per column, and int cells
        # mixed with Fraction cells, which the gcd scaling divides out
        for _ in range(40):
            ncols = rng.randint(1, 6)
            col_factor = [rng.choice([1, 6, 35, 2 ** 40, 3 ** 25 * 7]) for _ in range(ncols)]
            rows = []
            for _ in range(rng.randint(1, 7)):
                row_factor = rng.choice([1, 10 ** 12, Fraction(2 ** 30, 3 ** 9), Fraction(1, 4)])
                row = {}
                for c in range(ncols):
                    if rng.random() < 0.6:
                        row[c] = rng.randint(-3, 3) * row_factor * col_factor[c]
                rows.append(row)
            for _ in range(rng.randint(0, 2)):
                source = rng.choice(rows)
                factor = rng.choice([2 ** 35, -6, Fraction(5, 12)])
                rows.append({c: factor * v for c, v in source.items()})
            rng.shuffle(rows)
            rows = [{c: Fraction(v) for c, v in row.items() if v} for row in rows]
            want = reference_greedy_independent(rows)
            mixed = [{c: (v.numerator if v.denominator == 1 and rng.random() < 0.5 else v)
                      for c, v in row.items()} for row in rows]
            assert greedy_independent(mixed) == want
            assert sparse_rank(mixed) == len(want)

    def test_matching_bounds_rank(self):
        rng = random.Random(107)
        for _ in range(30):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            dense = random_matrix(rng, m, n, density=0.4)
            support = [[j for j, v in enumerate(row) if v != 0]
                       for row in dense]
            assert max_matching(support) >= rank(dense)

    def test_matching_exact_on_diagonal(self):
        assert max_matching([[0], [1], [2]]) == 3
        assert max_matching([[0, 1], [0, 1], [0, 1]]) == 2
        assert max_matching([[], [0]]) == 1

    def test_matching_matches_reference(self):
        rng = random.Random(116)
        for _ in range(300):
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            density = rng.random()
            support = [[j for j in range(n) if rng.random() < density]
                       for _ in range(m)]
            want = reference_matching(support)
            assert matching(support) == want
            assert max_matching(support) == len(want)

    def test_matching_follows_a_long_augmenting_path(self):
        # the last row reroutes all 1500 rows before it, one column over
        assert max_matching([[i, i + 1] for i in range(1500)] + [[0]]) == 1501


def _block_diagonal(rng: random.Random) -> tuple[list[list], int]:
    """Seeded blocks on the diagonal, some of them rank deficient, with
    rows and columns permuted; returns the matrix and its rank."""
    blocks, want = [], 0
    for _ in range(rng.randint(1, 6)):
        m, n, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = [[_cell(rng) if rng.random() < 0.7 else 0 for _ in range(inner)]
             for _ in range(m)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)]
        block = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        blocks.append(block)
        want += reference_rank(block)
    ncols = sum(len(block[0]) for block in blocks)
    matrix, offset = [], 0
    for block in blocks:
        for row in block:
            line = [0] * ncols
            line[offset:offset + len(row)] = row
            matrix.append(line)
        offset += len(block[0])
    rng.shuffle(matrix)
    order = list(range(ncols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in matrix], want


class TestRankAgainstReference:
    """``rank`` by incidence components against one dense Bareiss pass."""

    def test_permuted_block_diagonal(self):
        rng = random.Random(151)
        for _ in range(60):
            matrix, want = _block_diagonal(rng)
            assert reference_rank(matrix) == want
            assert rank(matrix) == want
            as_fractions = [[Fraction(v) for v in row] for row in matrix]
            assert rank(as_fractions) == want

    def test_int_fraction_zero_and_empty(self):
        rng = random.Random(152)
        for _ in range(40):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            ints = [[rng.randint(-4, 4) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(m)]
            fractions = random_matrix(rng, m, n, density=0.4)
            for a in (ints, fractions, [[Fraction(v, 3) for v in row] for row in ints]):
                assert rank(a) == reference_rank(a)
        for a in ([], [[]], [[], []], [[0, 0], [0, 0]], [[Fraction(0)] * 3],
                  [[0], [0], [0]], [[7]], [[Fraction(-2, 9)]]):
            assert rank(a) == reference_rank(a)

    def test_evaluated_spread_hessian(self):
        """Hess^(8,8) of monomial-spread(1,8): 165 x 165, 425 nonzeros."""
        hess = mixed_hessian(build("monomial-spread(1,8)").form, 8, 8)
        matrix = [[0 if e is None else e.evaluate((2, 3, 5, 7)) for e in row]
                  for row in hess.entries]
        assert (len(matrix), len(matrix[0])) == (165, 165)
        assert sum(map(bool, (v for row in matrix for v in row))) == 425
        want = reference_rank(matrix)
        assert rank(matrix) == want
        assert evaluated_rank(hess, (2, 3, 5, 7)) == want


def _assert_greedy_matches_reference(rows) -> None:
    """greedy_independent and sparse_rank on rows whose cells may be int,
    Fraction or explicit zeros, against the reference on the nonzero
    cells."""
    want = reference_greedy_independent([{c: v for c, v in row.items() if v}
                                         for row in rows])
    assert greedy_independent(rows) == want
    assert sparse_rank(rows) == len(want)


def _cell(rng: random.Random):
    """A nonzero int, large int or Fraction cell."""
    return rng.choice([rng.choice([-3, -1, 2, 7]), rng.choice([-1, 1]) * 6 ** 30,
                       Fraction(rng.choice([-5, 1, 4]), rng.choice([2, 3, 9]))])


class TestComponentShortcuts:
    """Components of one row or one column skip the elimination; rows of
    int cells skip the denominator scaling."""

    def test_one_row_components(self):
        rng = random.Random(131)
        for _ in range(30):
            rows = []
            for block in range(rng.randint(1, 6)):
                cols = rng.sample(range(10 * block, 10 * block + 10), rng.randint(1, 4))
                rows.append({c: _cell(rng) for c in cols})
            rows += [{} for _ in range(rng.randint(0, 2))]
            rng.shuffle(rows)
            _assert_greedy_matches_reference(rows)
            assert greedy_independent(rows) == [i for i, row in enumerate(rows) if row]

    def test_one_column_components(self):
        rng = random.Random(132)
        for _ in range(30):
            rows = [{block: _cell(rng)}
                    for block in range(rng.randint(1, 5))
                    for _ in range(rng.randint(1, 5))]
            rng.shuffle(rows)
            _assert_greedy_matches_reference(rows)
            first = {}
            for i, row in enumerate(rows):
                first.setdefault(next(iter(row)), i)
            assert greedy_independent(rows) == sorted(first.values())

    def test_explicit_zero_cells(self):
        rows = [{0: 0}, {1: 0, 2: Fraction(0)}, {3: 0}, {3: 5}, {3: -2},
                {4: 1, 5: 0}, {6: 0, 7: 0}, {6: 0, 7: 3}]
        _assert_greedy_matches_reference(rows)
        assert greedy_independent(rows) == [3, 5, 7]

    def test_mixed_int_and_fraction_rows(self):
        rng = random.Random(133)
        for _ in range(40):
            ncols = rng.randint(2, 6)
            rows = []
            for _ in range(rng.randint(2, 7)):
                kind = rng.choice(["int", "fraction", "mixed"])
                row = {}
                for c in range(ncols):
                    if rng.random() < 0.6:
                        v = rng.choice([-4, -2, 3, 6, 2 ** 40 * 3])
                        if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                            v = Fraction(v, rng.choice([1, 2, 9]))
                        row[c] = v
                rows.append(row)
            for _ in range(rng.randint(0, 2)):
                source = rng.choice(rows)
                factor = rng.choice([6, -1, Fraction(2, 3)])
                rows.append({c: factor * v for c, v in source.items()})
            rng.shuffle(rows)
            _assert_greedy_matches_reference(rows)

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(st.lists(st.dictionaries(
        st.integers(0, 40),
        st.one_of(st.integers(-5, 5).filter(bool),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)),
        min_size=0, max_size=2), min_size=1, max_size=30))
    def test_property_many_tiny_components(self, rows):
        _assert_greedy_matches_reference(rows)


def _count_routes(monkeypatch) -> Counter:
    """Counts how ``greedy_independent`` settles each component of at
    least two rows and two columns: ``full`` (every row kept mod p),
    ``matching`` (the rows kept mod p are the matched rows),
    ``fallback`` (Bareiss after the mod-p pass) and ``dense`` (Bareiss
    only).  A fallback's Bareiss lines have the nonzero pattern of the
    rows the mod-p pass just saw, transposed; a dense component's cannot,
    as it has more nonzeros for its shape."""
    counts: Counter = Counter()
    seen: list = []
    mod_p, match, bareiss = linalg._independent_mod_p, linalg.matching, linalg._bareiss_forward

    def counted_mod_p(rows):
        kept = mod_p(rows)
        counts["full" if len(kept) == len(rows) else "deficient"] += 1
        seen[:] = [[sorted(c for c, v in row.items() if v) for row in rows]]
        return kept

    def counted_matching(supports):
        counts["matching calls"] += 1
        return match(supports)

    def counted_bareiss(lines):
        pattern = [[j for j, line in enumerate(lines) if line[t]]
                   for t in range(len(lines[0]))]
        counts["fallback" if seen and seen[0] == pattern else "dense"] += 1
        seen.clear()
        return bareiss(lines)

    monkeypatch.setattr(linalg, "_independent_mod_p", counted_mod_p)
    monkeypatch.setattr(linalg, "matching", counted_matching)
    monkeypatch.setattr(linalg, "_bareiss_forward", counted_bareiss)
    return counts


def _routes(counts: Counter) -> dict:
    assert counts["matching calls"] == counts["deficient"]
    return {"full": counts["full"], "matching": counts["deficient"] - counts["fallback"],
            "fallback": counts["fallback"], "dense": counts["dense"]}


def _sparse_block(rng: random.Random, offset: int) -> list[dict]:
    """Rows over columns offset.. with two or three cells each: as many
    rows as columns or fewer, more rows than columns, or some rows sums
    of two earlier ones, which the mod-p pass drops but the matching may
    still match."""
    ncols = rng.randint(8, 14)
    kind = rng.choice(["wide", "tall", "sums"])
    nrows = {"wide": rng.randint(2, ncols), "tall": ncols + rng.randint(1, 4),
             "sums": rng.randint(4, ncols - 2)}[kind]
    rows = [{offset + c: _cell(rng) for c in rng.sample(range(ncols), rng.randint(2, 3))}
            for _ in range(nrows)]
    if kind == "sums":
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(rows, 2)
            total = {c: a.get(c, 0) + b.get(c, 0) for c in {*a, *b}}
            rows.insert(rng.randint(0, len(rows)), {c: v for c, v in total.items() if v})
    return rows


def _dense_rows(rng: random.Random, m: int, n: int) -> list[dict]:
    """Sparse rows of an m x n matrix over ints and Fractions with more
    than a quarter of its cells nonzero."""
    while True:
        rows = [{j: _cell(rng) for j in range(n) if rng.random() < 0.7} for _ in range(m)]
        if 4 * sum(map(len, rows)) > m * n and all(rows):
            return rows


PINNED_SPREAD_ROUTES = {"full": 27, "matching": 5, "fallback": 0, "dense": 135}


class TestModularRoute:
    """Sparse components ranked mod p and settled by the matching, against
    the Fraction reference; dense and disputed components go to Bareiss."""

    def test_seeded_sparse_corpora_reach_every_outcome(self, monkeypatch):
        rng = random.Random(171)
        counts = _count_routes(monkeypatch)
        for _ in range(150):
            rows = [row for block in range(rng.randint(1, 4))
                    for row in _sparse_block(rng, 20 * block)]
            rng.shuffle(rows)
            _assert_greedy_matches_reference(rows)
        routes = _routes(counts)
        assert min(routes["full"], routes["matching"], routes["fallback"]) >= 20, routes

    def test_rank_that_drops_only_mod_p_falls_back(self, monkeypatch):
        # rows 0..7 span the 9-column vectors whose alternating sum is 0;
        # row 8 is e0 + p*e7 - e8, in that span mod p but not over Q
        rows = [{i: 1, i + 1: 1} for i in range(8)] + [{0: 1, 7: linalg.PRIME, 8: -1}]
        assert 4 * sum(map(len, rows)) <= 9 * 9
        counts = _count_routes(monkeypatch)
        assert reference_greedy_independent(rows) == list(range(9))
        assert greedy_independent(rows) == list(range(9))
        assert _routes(counts) == {"full": 0, "matching": 0, "fallback": 1, "dense": 0}
        as_fractions = [{c: Fraction(v, 3) for c, v in row.items()} for row in rows]
        assert greedy_independent(as_fractions) == list(range(9))
        assert _routes(counts)["fallback"] == 2
        # with e0 after it, the rank mod p reaches nu = 9 too, but on rows
        # 0..7 and 9, so the kept rows, not their count, decide
        rows.append({0: 1})
        assert 4 * sum(map(len, rows)) <= 10 * 9
        assert reference_greedy_independent(rows) == list(range(9))
        assert greedy_independent(rows) == list(range(9))
        assert _routes(counts)["fallback"] == 3

    def test_dense_components_never_reach_the_mod_p_pass(self, monkeypatch):
        counts = _count_routes(monkeypatch)
        rng = random.Random(172)
        for _ in range(40):
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            _assert_greedy_matches_reference(_dense_rows(rng, m, n))
        # an 8-cycle of rows and columns has nnz = rows x cols / 4 exactly;
        # one more cell makes it dense
        cycle = [{i: 1, (i + 1) % 8: 2} for i in range(8)]
        _assert_greedy_matches_reference([*cycle[:-1], {**cycle[-1], 3: 5}])
        assert counts["full"] + counts["deficient"] == 0
        assert counts["dense"] > 40
        assert greedy_independent(cycle) == reference_greedy_independent(cycle)
        assert counts["full"] + counts["deficient"] == 1

    def test_matched_rows_are_where_the_prefix_matching_grows(self):
        rng = random.Random(173)
        for _ in range(200):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            density = rng.random()
            supports = [[j for j in range(n) if rng.random() < density] for _ in range(m)]
            sizes = [max_matching(supports[:i]) for i in range(m + 1)]
            grows = [i for i in range(m) if sizes[i + 1] > sizes[i]]
            assert sorted(matching(supports).values()) == grows

    def test_route_of_each_slice_component_is_pinned(self, monkeypatch):
        """Slices 0..12 of monomial-spread(2,5), the half of its degree-25
        window that ``hilbert`` eliminates; each component's route counted,
        ranks against the Fraction reference."""
        form = build("monomial-spread(2,5)").form
        counts = _count_routes(monkeypatch)
        for k in range(13):
            slice_ = catalecticant(form, k)
            assert slice_.basis_rows == reference_greedy_independent(slice_.rows)
        assert _routes(counts) == PINNED_SPREAD_ROUTES


def sympy_from_poly(p, syms):
    expr = sympy.Integer(0)
    for key, c in p.items():
        term = sympy.Integer(c)
        for s, a in zip(syms, polymat.unpack(key, len(syms))):
            term *= s ** a
        expr += term
    return sympy.expand(expr)


def random_poly(rng, nvars, max_deg=2, terms=3):
    p = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(-5, 5)
        if c:
            p[polymat.pack(e)] = p.get(polymat.pack(e), 0) + c
    return {k: v for k, v in p.items() if v}


class TestPolymat:
    def test_pack_unpack_round_trip(self):
        rng = random.Random(108)
        for _ in range(50):
            n = rng.randint(1, 5)
            e = tuple(rng.randint(0, 40) for _ in range(n))
            assert polymat.unpack(polymat.pack(e), n) == e

    def test_arithmetic_matches_sympy(self):
        rng = random.Random(109)
        syms = sympy.symbols("t0 t1 t2")
        for _ in range(20):
            a = random_poly(rng, 3)
            b = random_poly(rng, 3)
            assert sympy_from_poly(polymat.padd(a, b), syms) == \
                sympy_from_poly(a, syms) + sympy_from_poly(b, syms)
            assert sympy_from_poly(polymat.pmul(a, b), syms) == sympy.expand(
                sympy_from_poly(a, syms) * sympy_from_poly(b, syms))

    def test_exact_division_round_trip(self):
        rng = random.Random(110)
        guard = polymat.guard_mask(3)
        for _ in range(25):
            a = random_poly(rng, 3)
            b = random_poly(rng, 3)
            if not a or not b:
                continue
            prod = polymat.pmul(a, b)
            assert polymat.pdivexact(prod, b, guard) == a

    def test_bareiss_det_matches_sympy(self):
        rng = random.Random(112)
        syms = sympy.symbols("t0 t1")
        guard = polymat.guard_mask(2)
        for _ in range(12):
            n = rng.randint(1, 3)
            rows = [[random_poly(rng, 2, max_deg=1, terms=2)
                     for _ in range(n)] for _ in range(n)]
            got = sympy_from_poly(polymat.bareiss_det(rows, guard), syms)
            mat = sympy.Matrix(
                [[sympy_from_poly(rows[i][j], syms) for j in range(n)]
                 for i in range(n)])
            assert sympy.expand(got - mat.det()) == 0

    def test_jordan_kernel_vector_annihilates(self):
        rng = random.Random(113)
        syms = sympy.symbols("t0 t1")
        guard = polymat.guard_mask(2)
        found = 0
        for _ in range(60):
            m, n = rng.randint(1, 3), rng.randint(2, 4)
            rows = [[random_poly(rng, 2, max_deg=1, terms=2)
                     for _ in range(n)] for _ in range(m)]
            result = polymat.bareiss_jordan(
                [list(r) for r in rows], guard)
            vec = polymat.kernel_vector(result, guard)
            if vec is None:
                assert result.rank == n
                continue
            found += 1
            assert any(vec)
            for i in range(m):
                acc = sympy.Integer(0)
                for j in range(n):
                    acc += sympy_from_poly(rows[i][j], syms) * \
                        sympy_from_poly(vec[j], syms)
                assert sympy.expand(acc) == 0
        assert found >= 5

    def test_jordan_kernel_vector_rank_zero(self):
        guard = polymat.guard_mask(2)
        result = polymat.bareiss_jordan([[{}, {}], [{}, {}]], guard)
        assert (result.rank, result.pivot_cols, result.rows) == (0, [], [])
        assert polymat.kernel_vector(result, guard) == [{0: 1}, {}]

    def test_form_round_trip(self):
        from wildforms.poly import parse
        f = parse("x^2*y - 1/3*y^3", "xy")
        packed = from_form(f, 3)
        back = polymat.to_form(packed, "xy", divide=3)
        assert back == f
        assert polymat.to_form({}, "xy") is None

    def test_common_scale(self):
        from wildforms.poly import parse
        rows = [[parse("1/2*x^2", "xy"), None],
                [parse("x*y - 1/3*y^2", "xy"), parse("5*x^2", "xy")]]
        assert common_scale(rows) == 6


def product_matrix(rng, m, n, inner):
    """m x n polynomial matrix of rank <= inner, as a product A*B."""
    a = [[random_poly(rng, 2, max_deg=1, terms=2) for _ in range(inner)]
         for _ in range(m)]
    b = [[random_poly(rng, 2, max_deg=1, terms=2) for _ in range(n)]
         for _ in range(inner)]
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            acc = {}
            for t in range(inner):
                acc = polymat.padd(acc, polymat.pmul(a[i][t], b[t][j]))
            row.append(acc)
        rows.append(row)
    return rows


def hessian_rows(f, k, l):
    from wildforms.hessian import mixed_hessian
    hess = mixed_hessian(f, k, l)
    scale = common_scale(hess.entries)
    return [[from_form(e, scale) for e in row] for row in hess.entries]


@st.composite
def poly_rows(draw, shape):
    """A matrix of two-variable polynomials, sometimes with a last row
    that is a polynomial combination of two others."""
    m, n = draw(shape)
    entry = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).map(polymat.pack),
        st.integers(-4, 4).filter(bool), max_size=3)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m >= 3 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = [polymat.padd(polymat.pmul(a, u), polymat.pmul(b, v))
                    for u, v in zip(rows[0], rows[1])]
    return rows


def assert_matches_reference(rows, guard):
    got = polymat.bareiss_jordan(rows, guard)
    want = reference_bareiss_jordan(rows, guard)
    assert got.rank == want.rank
    assert got.pivot_cols == want.pivot_cols
    assert got.ncols == want.ncols
    assert polymat.kernel_vector(got, guard) == \
        reference_kernel_vector(want, guard)
    return got


class TestJordanAgainstReference:
    """Forward elimination plus back substitution against the earlier
    full Gauss-Jordan clearing: same rank, pivots and kernel witness."""

    def test_seeded_matrices(self):
        rng = random.Random(114)
        guard = polymat.guard_mask(2)
        deficient = zero_cols = 0
        for trial in range(120):
            shape = trial % 3  # tall, wide, square
            small, large = rng.randint(1, 3), rng.randint(3, 5)
            m, n = [(large, small), (small, large), (large, large)][shape]
            inner = rng.randint(0, min(m, n))
            if trial % 4 == 0:
                rows = [[random_poly(rng, 2, max_deg=1, terms=2)
                         for _ in range(n)] for _ in range(m)]
            else:
                rows = product_matrix(rng, m, n, inner)
            if trial % 5 == 0:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = {}
                zero_cols += 1
            result = assert_matches_reference(rows, guard)
            deficient += result.rank < min(m, n)
        assert deficient >= 40 and zero_cols >= 20

    def test_rank_zero(self):
        guard = polymat.guard_mask(2)
        for m, n in ((1, 1), (3, 2), (2, 4)):
            result = assert_matches_reference(
                [[{} for _ in range(n)] for _ in range(m)], guard)
            assert result.rank == 0

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(poly_rows(st.tuples(st.integers(1, 4), st.integers(1, 4))))
    def test_property_small_matrices(self, rows):
        assert_matches_reference(rows, polymat.guard_mask(2))

    @pytest.mark.parametrize("spec,seed,k,l", [
        ("perazzo", 0, 1, 1),
        ("ikeda", 0, 2, 2),
        ("exceptional(3,5)", 1, 2, 2),
        ("exceptional(3,5)", 1, 2, 3),
    ])
    def test_degenerate_hessians(self, spec, seed, k, l):
        from wildforms.families import build
        f = build(spec, seed=seed).form
        rows = hessian_rows(f, k, l)
        result = assert_matches_reference(rows, polymat.guard_mask(f.nvars))
        assert result.rank < min(len(rows), len(rows[0]))


def assert_det_matches_reference(rows, guard):
    got = polymat.bareiss_det(rows, guard)
    assert got == reference_bareiss_det(rows, guard)
    return got


class TestDetAgainstReference:
    """The determinant read off the shared forward pass against the
    earlier determinant-only Bareiss loop."""

    def test_nonsingular_with_row_swaps(self):
        rng = random.Random(115)
        guard = polymat.guard_mask(2)
        nonzero = swapped = 0
        for _ in range(30):
            n = rng.randint(2, 5)
            rows = product_matrix(rng, n, n, n)
            # a one-term entry under a longer one makes column 0 swap rows
            rows[1][0] = {polymat.pack((1, 0)): rng.choice([-3, -1, 2])}
            det = assert_det_matches_reference(rows, guard)
            if not det:
                continue
            nonzero += 1
            swapped += len(rows[0][0]) > 1
            exchanged = [rows[1], rows[0]] + rows[2:]
            assert assert_det_matches_reference(exchanged, guard) == \
                polymat.pneg(det)
        assert nonzero >= 20 and swapped >= 10

    def test_singular(self):
        rng = random.Random(116)
        guard = polymat.guard_mask(2)
        for trial in range(45):
            n = rng.randint(2, 5)
            rows = [[random_poly(rng, 2, max_deg=1, terms=2) for _ in range(n)]
                    for _ in range(n)]
            if trial % 3 == 0:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = {}
            elif trial % 3 == 1:
                i, i2 = rng.sample(range(n), 2)
                factor = random_poly(rng, 2, max_deg=1, terms=2) or {0: 2}
                rows[i2] = [polymat.pmul(factor, e) for e in rows[i]]
            else:
                rows = product_matrix(rng, n, n, rng.randint(0, n - 1))
            assert assert_det_matches_reference(rows, guard) == {}

    def test_sizes_zero_and_one(self):
        guard = polymat.guard_mask(2)
        assert assert_det_matches_reference([], guard) == {0: 1}
        for entry in ({}, {0: 7}, {polymat.pack((1, 2)): -3, 0: 1}):
            assert assert_det_matches_reference([[entry]], guard) == entry

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(poly_rows(st.integers(0, 4).map(lambda n: (n, n))))
    def test_property_small_matrices(self, rows):
        assert_det_matches_reference(rows, polymat.guard_mask(2))

    @pytest.mark.parametrize("spec,k,vanishes", [
        ("fermat", 1, False),
        ("perazzo", 1, True),
        ("ikeda", 1, False),
        ("ikeda", 2, True),
    ])
    def test_hessians(self, spec, k, vanishes):
        from wildforms.families import build
        from wildforms.poly import parse
        f = (parse("x^3 + y^3 + z^3", "xyz") if spec == "fermat"
             else build(spec).form)
        det = assert_det_matches_reference(hessian_rows(f, k, k),
                                           polymat.guard_mask(f.nvars))
        assert (det == {}) == vanishes

    def test_sylvester_matrices(self, monkeypatch):
        from wildforms.poly import parse
        from wildforms.powersum import binary_waring_rank
        from test_frozen_outputs import BINARY_OCTIC, BINARY_SEXTIC
        recorded = []
        original = polymat.bareiss_det

        def record(rows, guard):
            recorded.append((rows, guard))
            return original(rows, guard)

        monkeypatch.setattr(polymat, "bareiss_det", record)
        assert binary_waring_rank(parse(BINARY_SEXTIC, "xy")) == 6
        assert binary_waring_rank(parse(BINARY_OCTIC, "xy")) == 7
        monkeypatch.undo()
        # half-size Bezout matrices of the two partials, n = 2..5
        assert [len(rows) for rows, _ in recorded] == [2, 3, 4, 3, 4, 5]
        for rows, guard in recorded:
            assert_det_matches_reference(rows, guard)


def _rational_matrix(rng, m, n, density=0.7):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             if rng.random() < density else Fraction(0)
             for _ in range(n)] for _ in range(m)]


def _assert_kernel_matches_reference(a):
    """nullspace of the columns equals what reference_rref gives, and so
    does each column's dependency on the columns before it and on all
    the others: minus the solution reference_solve_columns finds, 1 at
    the column itself, or nothing when the column is independent."""
    before = [list(row) for row in a]
    columns = columns_of(a)
    dependencies = nullspace(sparse_columns(columns))
    assert [[dep.get(j, 0) for j in range(len(columns))]
            for dep in dependencies.values()] == reference_nullspace(a)
    assert all(type(v) is Fraction for dep in dependencies.values() for v in dep.values())
    assert all(list(dep) == sorted(dep) for dep in dependencies.values())
    for j, target in enumerate(columns):
        for others in (columns[:j], columns[:j] + columns[j + 1:]):
            k = len(others)
            got = nullspace(sparse_columns([*others, target])).get(k)
            want = reference_solve_columns(others, target)
            if want is None:
                assert got is None
            else:
                assert got == {**{i: -x for i, x in enumerate(want) if x}, k: 1}
                assert all(type(v) is Fraction for v in got.values())
    assert a == before


class TestKernelAgainstReference:
    def test_seeded_shapes(self):
        rng = random.Random(937)
        for _ in range(150):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            a = _rational_matrix(rng, m, n, density=rng.choice([0.3, 0.7, 1.0]))
            if rng.random() < 0.3:  # rank deficient: a row combination
                i, j = rng.randrange(m), rng.randrange(m)
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                a.append([u + c * v for u, v in zip(a[i], a[j])])
            if rng.random() < 0.2:
                a.insert(rng.randrange(len(a) + 1), [Fraction(0)] * n)
            if rng.random() < 0.3:  # integer and mixed cells
                a = [[int(v) if v.denominator == 1 else v for v in row] for row in a]
            _assert_kernel_matches_reference(a)

    def test_tall_wide_and_degenerate(self):
        rng = random.Random(941)
        tall = _rational_matrix(rng, 9, 3)
        wide = _rational_matrix(rng, 3, 9)
        low_rank = [[Fraction(u * v, 7) for v in range(1, 6)] for u in range(-2, 4)]
        for a in (tall, wide, low_rank, [[0, 0, 0], [0, 0, 0]], [[5]],
                  [[Fraction(-2, 3)]], [[]], []):
            _assert_kernel_matches_reference(a)
        assert dense_nullspace([]) == []
        assert dense_nullspace([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
        assert len(dense_nullspace(low_rank)) == 4
        assert solve([[], []], []) == [0, 0]

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=10),
                 min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_property_small_rational(self, a):
        _assert_kernel_matches_reference(a)


def _random_vectors(rng: random.Random, keys: list) -> list[dict]:
    """Sparse vectors over ``keys`` with int and Fraction cells, some
    explicit zero cells, zero vectors and planted dependencies."""
    vectors = []
    for _ in range(rng.randint(1, 9)):
        roll = rng.random()
        if roll < 0.15 or not vectors:
            vector = {}
        elif roll < 0.4:  # a combination of earlier vectors
            vector = {}
            for other in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                for key, v in other.items():
                    vector[key] = vector.get(key, 0) + c * v
        else:
            vector = {key: _cell(rng) for key in rng.sample(keys, rng.randint(1, len(keys)))}
        if rng.random() < 0.2:
            vector[rng.choice(keys)] = 0
        vectors.append(vector)
    return vectors


def _assert_nullspace_matches_dense(vectors) -> None:
    """The sparse dependencies against the dense kernel ``nullspace``
    computed before it took sparse vectors, on the matrix whose columns
    are the vectors (rows in first-seen key order)."""
    keys = list(dict.fromkeys(key for vector in vectors for key in vector))
    matrix = [[vector.get(key, 0) for vector in vectors] for key in keys]
    if not matrix:  # only zero vectors: the dense route needs a row
        matrix = [[0] * len(vectors)]
    before = [dict(vector) for vector in vectors]
    got = nullspace(vectors)
    want = reference_dense_nullspace(matrix)
    assert len(got) == len(want)
    for (free, dep), vector in zip(got.items(), want):
        assert dep == {j: v for j, v in enumerate(vector) if v}
        assert list(dep) == sorted(dep) and dep[free] == 1
        assert all(type(v) is Fraction for v in dep.values())
    assert vectors == before


class TestNullspaceAgainstDense:
    """The sparse ``nullspace`` against the dense one it replaced."""

    def test_seeded_integer_keys(self):
        rng = random.Random(1301)
        for _ in range(300):
            _assert_nullspace_matches_dense(_random_vectors(rng, list(range(rng.randint(1, 8)))))

    def test_seeded_exponent_keys(self):
        rng = random.Random(1303)
        for _ in range(150):
            nvars, degree = rng.randint(1, 4), rng.randint(0, 4)
            keys = monomials(nvars, degree)
            _assert_nullspace_matches_dense(_random_vectors(rng, keys))

    def test_form_terms(self):
        """Term dicts of the degree-3 derivatives, keyed by exponent
        tuples; a zero derivative is the zero vector."""
        f = build("exceptional(3,5)", seed=1).form
        images = (apply(monomial(f.variables, e), f) for e in monomials(f.nvars, 3))
        vectors = [{} if g is None else g.terms for g in images]
        assert {} in vectors
        _assert_nullspace_matches_dense(vectors)

    def test_empty_and_zero_vectors(self):
        assert nullspace([]) == {}
        assert nullspace([{}, {}]) == {0: {0: 1}, 1: {1: 1}}
        assert nullspace([{"a": 0}, {"a": Fraction(1, 2)}]) == {0: {0: 1}}
        assert nullspace([{"a": 2}, {"a": Fraction(3, 2)}]) == {1: {0: Fraction(-3, 4), 1: 1}}
