"""Exact linear algebra and the polynomial-entry matrix layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from wildforms import polymat
from wildforms.linalg import (
    greedy_independent,
    max_matching,
    nullspace,
    rank,
    rref,
    solve_columns,
    sparse_rank,
)

from helpers import reference_greedy_independent


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

    def test_nullspace_matches(self):
        rng = random.Random(103)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = random_matrix(rng, m, n, density=0.6)
            basis = nullspace(a)
            mat = sympy.Matrix(a)
            assert len(basis) == n - mat.rank()
            for v in basis:
                assert mat * sympy.Matrix(n, 1, v) == sympy.zeros(m, 1)

    def test_rref_pivots(self):
        a = [[Fraction(v) for v in row]
             for row in [[1, 2, 3], [2, 4, 6], [0, 0, 5]]]
        reduced, pivots = rref(a)
        assert pivots == [0, 2]
        assert reduced[0] == [1, 2, 0]
        assert reduced[1] == [0, 0, 1]


class TestSolveColumns:
    def test_exact_combination(self):
        cols = [[1, 0, 2], [0, 1, 1]]
        target = [3, -2, 4]
        out = solve_columns(cols, target)
        assert out == [Fraction(3), Fraction(-2)]

    def test_unsolvable_returns_none(self):
        assert solve_columns([[1, 0, 0]], [0, 1, 0]) is None
        assert solve_columns([[1, 2], [2, 4]], [1, 3]) is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            solve_columns([[1, 2, 3]], [1, 2])

    def test_random_consistency(self):
        rng = random.Random(104)
        for _ in range(25):
            m, k = rng.randint(1, 5), rng.randint(1, 4)
            cols = [[Fraction(rng.randint(-4, 4)) for _ in range(m)]
                    for _ in range(k)]
            weights = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            target = [sum(w * col[i] for w, col in zip(weights, cols))
                      for i in range(m)]
            out = solve_columns(cols, target)
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

    def test_eval_matches_sympy(self):
        rng = random.Random(111)
        syms = sympy.symbols("t0 t1")
        for _ in range(20):
            p = random_poly(rng, 2)
            point = [rng.randint(-4, 4), rng.randint(-4, 4)]
            want = sympy_from_poly(p, syms).subs(
                {syms[0]: point[0], syms[1]: point[1]})
            assert polymat.peval(p, point, 2) == want

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

    def test_form_round_trip(self):
        from wildforms.poly import parse
        f = parse("x^2*y - 1/3*y^3", "xy")
        packed = polymat.from_form(f, 3)
        back = polymat.to_form(packed, "xy", divide=3)
        assert back == f
        assert polymat.to_form({}, "xy") is None

    def test_common_scale(self):
        from wildforms.poly import parse
        rows = [[parse("1/2*x^2", "xy"), None],
                [parse("x*y - 1/3*y^2", "xy"), parse("5*x^2", "xy")]]
        assert polymat.common_scale(rows) == 6
