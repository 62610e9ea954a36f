"""Mixed Hessians, certified generic ranks, and Lefschetz checks."""

from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wildforms import hessian, linalg, polymat
from wildforms.apolar import CatalecticantSlice, apolar_basis
from wildforms.bounds import wild_certificate
from wildforms.families import build
from wildforms.hessian import (
    BudgetExceeded,
    RankPolicy,
    evaluated_rank,
    generic_rank,
    hessian_determinant,
    lefschetz_check,
    lefschetz_property,
    mixed_hessian,
    multiplication_map_rank,
    seeded_points,
    _closure_kernel,
    _symbolic_rows,
)
from wildforms.linalg import matching, max_matching
from wildforms.poly import LinearForm, form_sum, make_form, monomials, parse, power

from helpers import (VAR_LETTERS, from_form, hessian_with_entries, random_form,
                     random_linear, reference_closure_kernels, reference_evaluated_rank,
                     reference_integer_evaluated_rank, reference_lefschetz_property,
                     reference_mixed_hessian_entries,
                     reference_multiplication_map_rank, reference_symbolic_rows,
                     sheared_perazzo, to_sympy)

FERMAT = parse("x^3 + y^3 + z^3", "xyz")


class TestMixedHessian:
    def test_shape_follows_apolar_bases(self):
        h = mixed_hessian(FERMAT, 1, 1)
        assert (h.nrows, h.ncols) == (3, 3)
        assert h.entry_degree == 1

    def test_entries_are_iterated_partials(self):
        h = mixed_hessian(FERMAT, 1, 1)
        assert h.entries[0][0] == parse("6*x", "xyz")
        assert h.entries[0][1] is None

    def test_degree_guard(self):
        with pytest.raises(ValueError, match="k\\+l"):
            mixed_hessian(FERMAT, 2, 2)
        with pytest.raises(ValueError):
            mixed_hessian(FERMAT, -1, 1)

    def test_transpose_symmetry(self):
        rng = random.Random(401)
        for _ in range(10):
            f = random_form(rng, nvars=3, degree=4)
            a = mixed_hessian(f, 1, 2)
            b = mixed_hessian(f, 2, 1)
            assert a.nrows == b.ncols and a.ncols == b.nrows
            for i in range(a.nrows):
                for j in range(a.ncols):
                    assert a.entries[i][j] == b.entries[j][i]


# at least one member of every buildable family
BUILDABLE_MEMBERS = [("perazzo", 0), ("bb-cubic", 0), ("ikeda", 0),
                     ("exceptional(2,3)", 1), ("exceptional(3,5)", 2),
                     ("monomial-spread(1,3)", 0), ("monomial-spread(2,2)", 0),
                     ("power-family(2)", 0), ("power-family(3)", 0),
                     ("power-family(4)", 0), ("exceptional(3,7)", 1)]


class TestLazyEntries:
    @pytest.mark.parametrize("spec,seed", BUILDABLE_MEMBERS)
    def test_shape_and_support_build_no_entry(self, spec, seed):
        f = build(spec, seed=seed).form
        for k in range(f.degree + 1):
            for l in range(f.degree - k + 1):
                hess = mixed_hessian(f, k, l)
                hess.support_bound, hess.nrows, hess.ncols, hess.support
                assert "entries" not in vars(hess)
                assert (hess.nrows, hess.ncols) == (len(hess.row_basis),
                                                    len(hess.col_basis))

    @pytest.mark.parametrize("spec,seed", BUILDABLE_MEMBERS)
    def test_entries_match_the_eager_build(self, spec, seed):
        f = build(spec, seed=seed).form
        for k in range(f.degree + 1):
            for l in range(f.degree - k + 1):
                hess = mixed_hessian(f, k, l)
                expected = reference_mixed_hessian_entries(f, k, l)
                assert hess.entries == expected
                assert hess.entries is hess.entries
                assert hess.support == [{j for j, e in enumerate(row) if e is not None}
                                        for row in expected]
                for got_row, want_row in zip(hess.entries, expected):
                    for got, want in zip(got_row, want_row):
                        if want is not None:
                            assert list(got.terms.items()) == list(want.terms.items())

    def test_support_settled_certificate_builds_no_entry(self, monkeypatch):
        """exceptional(3,7)'s cactus claim is settled by support matching,
        so its certificate reads no Hessian entry at all."""

        def refuse(self, i):
            raise AssertionError("a Hessian entry was built")

        member = build("exceptional(3,7)", seed=1)
        monkeypatch.setattr(CatalecticantSlice, "row_image", refuse)
        cert = wild_certificate(member.form, member.strategy)
        assert cert["cactus"]["evidence"]["method"] == "support-matching"


class TestGenericRankLadder:
    def test_full_rank_by_evaluation(self):
        rep = generic_rank(mixed_hessian(FERMAT, 1, 1))
        assert rep.value == 3
        assert rep.certainty == "certified-structural"
        assert rep.method == "evaluation witness at full rank"
        assert not rep.degenerate
        assert rep.witness_point is not None

    def test_symbolic_with_verified_kernel_witness(self):
        f = build("perazzo").form
        rep = generic_rank(mixed_hessian(f, 1, 1))
        assert rep.value == 4
        assert rep.certainty == "certified-symbolic"
        assert rep.degenerate
        witness = rep.kernel_witness
        assert witness == [parse("v^2", "xyzuv"),
                           parse("-2*u*v", "xyzuv"),
                           parse("u^2", "xyzuv"), None, None]
        # independent verification: the witness combines the columns
        # of the classical Hessian matrix of partials to zero
        expr, syms = to_sympy(f)
        rows = [[sympy.diff(expr, a, b) for b in syms] for a in syms]
        for row in rows:
            acc = sympy.Integer(0)
            for entry, w in zip(row, witness):
                if w is not None:
                    wexpr, _ = to_sympy(w)
                    acc += entry * wexpr
            assert sympy.expand(acc) == 0

    def test_support_matching_rung(self):
        f = build("perazzo").form
        rep = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(max_symbolic_dim=2))
        assert rep.value == 4
        assert rep.certainty == "certified-structural"
        assert rep.method == "evaluation witness meets support matching bound"
        assert rep.support_bound == 4

    def test_probabilistic_rung(self):
        f = sheared_perazzo()
        rep = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(max_symbolic_dim=2))
        assert rep.value == 4
        assert rep.certainty == "probabilistic"
        assert not rep.certified
        assert rep.support_bound == 5
        assert rep.degenerate
        assert "missed-rank odds" in rep.error_bound
        assert any("lower bound" in note for note in rep.notes)

    @pytest.mark.parametrize("bad", [
        {"trials": 0},
        {"trials": -3},
        {"max_symbolic_dim": -1},
    ])
    def test_policy_that_certifies_nothing_rejected(self, bad):
        with pytest.raises(ValueError):
            RankPolicy(**bad)

    def test_policy_edge_values_accepted(self, monkeypatch):
        monkeypatch.setattr(hessian, "MAX_ENTRY_DEGREE", 0)
        policy = RankPolicy(trials=1, max_symbolic_dim=0)
        rep = generic_rank(mixed_hessian(build("perazzo").form, 1, 1), policy)
        assert (rep.value, rep.certainty) == (4, "certified-structural")

    def test_strict_budget(self):
        f = sheared_perazzo()
        with pytest.raises(BudgetExceeded, match="capped at dimension 2"):
            generic_rank(mixed_hessian(f, 1, 1),
                         RankPolicy(max_symbolic_dim=2, strict=True))

    def test_shear_does_not_change_certified_rank(self):
        rep = generic_rank(mixed_hessian(sheared_perazzo(), 1, 1))
        assert (rep.value, rep.certainty) == (4, "certified-symbolic")

    def test_report_to_dict(self):
        rep = generic_rank(mixed_hessian(build("perazzo").form, 1, 1))
        d = rep.to_dict()
        assert d["value"] == 4
        assert d["certainty"] == "certified-symbolic"
        assert d["shape"] == [5, 5]
        assert d["kernel_witness"][3] == "0"
        assert isinstance(d["witness_point"], list) or d["witness_point"] is None

    def test_determinism_for_fixed_seed(self):
        f = sheared_perazzo()
        a = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(seed=5))
        b = generic_rank(mixed_hessian(f, 1, 1), RankPolicy(seed=5))
        assert a.to_dict() == b.to_dict()


def _annihilates(rows, vector) -> bool:
    for row in rows:
        acc = {}
        for entry, w in zip(row, vector):
            acc = polymat.padd(acc, polymat.pmul(entry, w))
        if acc:
            return False
    return True


def _with_trimmed_copy(rows):
    """Append row 0 without its last nonzero entry: [x, y, z] gets [x, y, 0]."""
    row = list(rows[0])
    nonzero = [j for j, e in enumerate(row) if e]
    if nonzero:
        row[nonzero[-1]] = {}
    return rows + [row]


def _sparse_poly_matrices():
    """Small integer-polynomial matrices in two variables, mostly zeros;
    the trimmed copies give closures singular on their matched columns."""
    entry = st.one_of(
        st.just({}), st.just({}),
        st.dictionaries(st.sampled_from([polymat.pack(e) for e in
                                         ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))]),
                        st.integers(-3, 3).filter(bool), min_size=1, max_size=2))
    matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    return st.one_of(matrices, matrices.map(_with_trimmed_copy))


class TestClosureRung:
    """The kernel vector read off the support matching, against full
    elimination and against the earlier one-vector-per-column rung."""

    @staticmethod
    def _rows(hess):
        rows, guard = _symbolic_rows(hess)
        return rows, [{j for j, e in enumerate(row) if e} for row in rows], guard

    @pytest.mark.parametrize("spec,seed,k,l", [
        ("perazzo", 0, 1, 1), ("bb-cubic", 0, 1, 1), ("ikeda", 0, 2, 2),
        ("exceptional(2,3)", 0, 2, 2), ("exceptional(2,3)", 1, 2, 2),
        ("exceptional(2,3)", 2, 2, 2), ("exceptional(3,5)", 1, 2, 4),
        ("exceptional(3,5)", 1, 3, 3)])
    def test_value_matches_full_elimination(self, spec, seed, k, l):
        hess = mixed_hessian(build(spec, seed=seed).form, k, l)
        rep = generic_rank(hess, RankPolicy(max_symbolic_dim=16))
        rows, support, guard = self._rows(hess)
        vector = _closure_kernel(rows, support, guard)
        assert vector is not None
        assert vector == reference_closure_kernels(rows, support, guard)[0]
        assert (rep.certainty, rep.degenerate) == ("certified-symbolic", True)
        assert rep.value == rep.support_bound
        assert rep.value == polymat.bareiss_jordan(rows, guard).rank

    def test_singular_closure_falls_back_to_full_elimination(self):
        x, y, z, w = ({polymat.pack(e): 1} for e in
                      ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        guard = polymat.guard_mask(4)
        # column 2's closure is rows 0-1 on columns 0-2, singular on 0-1
        assert _closure_kernel([[x, y, z], [x, y, {}]],
                               [{0, 1, 2}, {0, 1}], guard) is None
        rows = [[x, y, z, {}], [x, y, {}, w], [{}, {}, {}, w], [{}, {}, {}, w]]
        entries = [[polymat.to_form(e, tuple("xyzw")) for e in row] for row in rows]
        hess = hessian_with_entries(parse("x^3", "xyzw"), 1, 1, entries)
        shapes = []
        jordan = polymat.bareiss_jordan

        def spy(block, g):
            shapes.append((len(block), len(block[0])))
            return jordan(block, g)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polymat, "bareiss_jordan", spy)
            rep = generic_rank(hess)
        assert (rep.value, rep.support_bound) == (3, 3)
        assert rep.certainty == "certified-symbolic"
        assert shapes == [(2, 3), (4, 4)]
        assert _annihilates(rows, [from_form(e, 1) for e in rep.kernel_witness])

    def test_one_closure_block_per_report(self, monkeypatch):
        """Hess^(2,2) of exceptional(3,5) leaves three columns free; one
        closure block is eliminated (one per free column was three), and
        the witness is the first of the earlier rung's vectors."""
        hess = mixed_hessian(build("exceptional(3,5)", seed=1).form, 2, 2)
        vectors = reference_closure_kernels(*self._rows(hess))
        blocks = []
        jordan = polymat.bareiss_jordan

        def spy(block, g):
            blocks.append(len(block))
            return jordan(block, g)

        monkeypatch.setattr(polymat, "bareiss_jordan", spy)
        rep = generic_rank(hess, RankPolicy(max_symbolic_dim=16))
        assert len(blocks) == 1
        assert len(vectors) == hess.ncols - rep.support_bound == 3
        content = math.gcd(*(c for w in vectors[0] for c in w.values()))
        assert [from_form(w, content) for w in rep.kernel_witness] == vectors[0]

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(_sparse_poly_matrices())
    def test_vector_is_the_first_of_the_reference(self, rows):
        guard = polymat.guard_mask(2)
        support = [{j for j, e in enumerate(row) if e} for row in rows]
        nu = max_matching(support)
        assert polymat.bareiss_jordan(rows, guard).rank <= nu
        if nu == len(rows[0]):
            return  # no unmatched column to read a vector at
        vector = _closure_kernel(rows, support, guard)
        vectors = reference_closure_kernels(rows, support, guard)
        if vectors is not None:
            assert vector == vectors[0]
        if vector is None:
            assert vectors is None
            return
        free = [t for t in range(len(rows[0])) if t not in matching(support)]
        assert _annihilates(rows, vector)
        assert vector[free[0]]
        assert not any(vector[u] for u in free[1:])


def rational_form(rng: random.Random, nvars: int, degree: int):
    """Seeded dense form whose coefficients have mixed signs and denominators."""
    while True:
        terms = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                 for e in monomials(nvars, degree) if rng.random() < 0.7}
        if any(terms.values()):
            return make_form(VAR_LETTERS[:nvars], terms)


def evaluation_points(rng: random.Random, nvars: int):
    """Integer, rational, mixed, zero-coordinate and all-zero points."""
    window = 1 << 16
    integral = [rng.randint(-window, window) for _ in range(nvars)]
    yield tuple(integral)
    yield tuple(rng.randint(1, window) for _ in range(nvars))
    yield tuple(Fraction(rng.randint(-window, window), rng.randint(1, 97))
                for _ in range(nvars))
    yield tuple(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 6, 35]))
                if i % 2 else rng.randint(-9, 9) for i in range(nvars))
    integral[rng.randrange(nvars)] = 0
    yield tuple(integral)
    yield (0,) * nvars


class TestEvaluatedRankAgainstReference:
    """The integer evaluation agrees with the Fraction one it replaced."""

    def _check(self, hess, rng):
        for point in evaluation_points(rng, hess.form.nvars):
            assert evaluated_rank(hess, point) == reference_evaluated_rank(hess, point)

    def test_seeded_rational_forms(self):
        rng = random.Random(503)
        checked = set()
        for _ in range(24):
            nvars, degree = rng.randint(2, 4), rng.randint(1, 5)
            f = rational_form(rng, nvars, degree)
            for k in range(degree + 1):
                for l in range(degree - k + 1):
                    hess = mixed_hessian(f, k, l)
                    checked.add(hess.entry_degree)
                    self._check(hess, rng)
        assert 0 in checked and max(checked) >= 4

    def test_power_sums_where_one_power_vanishes(self):
        """H(p) of sum s_i*l_i^d over n independent l_i has rank n minus
        the number of l_i vanishing at p; such points need exact values."""
        rng = random.Random(521)
        checked = 0
        while checked < 20:
            nvars, degree = rng.randint(2, 4), rng.randint(3, 5)
            variables = VAR_LETTERS[:nvars]
            linears = [[Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                        for _ in variables] for _ in variables]
            if sympy.Matrix(linears).rank() < nvars:
                continue
            powers = []
            for ell in linears:
                s = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                terms = power(LinearForm(variables, ell), degree).terms
                powers.append(make_form(variables, {e: s * c for e, c in terms.items()}))
            f = form_sum(powers)
            # a rational point where the first linear form vanishes
            ell = linears[0]
            j = max(i for i, c in enumerate(ell) if c)
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in variables]
            point[j] = 0
            point[j] = -sum(c * x for c, x in zip(ell, point)) / ell[j]
            if any(sum(c * x for c, x in zip(other, point)) == 0
                   for other in linears[1:]):
                continue
            hess = mixed_hessian(f, 1, 1)
            assert hess.nrows == nvars
            assert evaluated_rank(hess, point) == nvars - 1
            assert reference_evaluated_rank(hess, point) == nvars - 1
            checked += 1

    def test_known_ranks(self):
        hess = mixed_hessian(build("perazzo").form, 1, 1)
        assert evaluated_rank(hess, (3, -1, Fraction(2, 7), 5, 1)) == 4
        assert evaluated_rank(hess, (0, 0, 0, 0, 0)) == 0
        assert evaluated_rank(mixed_hessian(FERMAT, 1, 1), (1, 0, 2)) == 2

    @pytest.mark.parametrize("spec,seed", [
        ("perazzo", 0), ("ikeda", 0), ("exceptional(3,5)", 1)])
    def test_family_hessians(self, spec, seed):
        f = build(spec, seed=seed).form
        rng = random.Random(509)
        for k in range(f.degree // 2 + 1):
            for l in (k, k + 1):
                if k + l <= f.degree:
                    self._check(mixed_hessian(f, k, l), rng)

    def test_empty_basis(self):
        for entries in ([], [[], []]):
            hess = hessian_with_entries(FERMAT, 1, 1, entries)
            assert evaluated_rank(hess, (1, 2, 3)) == 0
            assert reference_evaluated_rank(hess, (1, 2, 3)) == 0

    def test_point_checks(self):
        hess = mixed_hessian(FERMAT, 1, 1)
        with pytest.raises(ValueError, match="point length"):
            evaluated_rank(hess, (1, 2))
        with pytest.raises(TypeError):
            evaluated_rank(hess, (1.0, 2, 3))


@contextlib.contextmanager
def entry_routes():
    """Run the rank ladder through the routes that read entry Forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hessian, "evaluated_rank", reference_integer_evaluated_rank)
        mp.setattr(hessian, "_symbolic_rows", reference_symbolic_rows)
        yield


@contextlib.contextmanager
def no_entry_forms():
    """Fail on any entry Form built from a slice row."""

    def refuse(self, i):
        raise AssertionError("a Hessian entry was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CatalecticantSlice, "row_image", refuse)
        yield


def reference_rank_report(f, k, l, policy=None) -> dict:
    with entry_routes():
        return generic_rank(mixed_hessian(f, k, l), policy).to_dict()


def reference_lefschetz(f, prop, policy=None) -> dict:
    with entry_routes():
        return reference_lefschetz_property(f, prop, policy).to_dict()


class TestSliceRowsAgainstEntryRoutes:
    """Evaluation and symbolic rows read the slice's integer rows, and
    sampling the support bound rules out is skipped; the routes through
    the entry Forms give the same ranks, rows and reports."""

    @staticmethod
    def _check_hessian(hess, points):
        for point in points:
            assert evaluated_rank(hess, point) == \
                reference_integer_evaluated_rank(hess, point), point
        got, want = _symbolic_rows(hess), reference_symbolic_rows(hess)
        assert got == want
        # term order too, which the elimination's products follow
        assert [[list(e.items()) for e in row] for row in got[0]] == \
            [[list(e.items()) for e in row] for row in want[0]]
        return hess.images.denominator

    # power-family(4) has degree 15; its 136 Hessians take 23 s to rank
    # twice, and power-family(2) and (3) stand for its family
    @pytest.mark.parametrize("spec,seed", [m for m in BUILDABLE_MEMBERS
                                           if m[0] != "power-family(4)"])
    def test_family_members(self, spec, seed):
        f = build(spec, seed=seed).form
        rng = random.Random(601)
        points = list(seeded_points(RankPolicy(seed=seed, trials=2), f.nvars))
        points += list(evaluation_points(rng, f.nvars))[2:4]
        policy = RankPolicy(max_symbolic_dim=16)
        for k in range(f.degree + 1):
            for l in range(f.degree - k + 1):
                self._check_hessian(mixed_hessian(f, k, l), points)
                assert generic_rank(mixed_hessian(f, k, l), policy).to_dict() == \
                    reference_rank_report(f, k, l, policy)
        for prop in ("wlp", "slp"):
            assert lefschetz_property(f, prop).to_dict() == reference_lefschetz(f, prop)

    def test_rational_forms_and_points(self):
        rng = random.Random(607)
        denominators = set()
        lifted = 0
        for _ in range(16):
            nvars, degree = rng.randint(2, 4), rng.randint(2, 5)
            f = rational_form(rng, nvars, degree)
            points = list(evaluation_points(rng, nvars))
            lifted += sum(any(Fraction(v).denominator > 1 for v in p) for p in points)
            for k in range(degree + 1):
                for l in range(degree - k + 1):
                    denominators.add(self._check_hessian(mixed_hessian(f, k, l), points))
                    assert generic_rank(mixed_hessian(f, k, l)).to_dict() == \
                        reference_rank_report(f, k, l)
            for prop in ("wlp", "slp"):
                assert lefschetz_property(f, prop).to_dict() == \
                    reference_lefschetz(f, prop)
        assert max(denominators) > 1 and lifted > 0

    def test_slice_rows_build_no_entry(self):
        hess = mixed_hessian(rational_form(random.Random(613), 3, 4), 1, 2)
        assert hess.images.denominator > 1
        hess.read_rows
        evaluated_rank(hess, (1, Fraction(2, 3), 5))
        _symbolic_rows(hess)
        assert "entries" not in vars(hess)


SYMBOLIC_RUNGS = [("perazzo", 0, 1, 1), ("bb-cubic", 0, 1, 1), ("ikeda", 0, 2, 2),
                  ("exceptional(2,3)", 1, 2, 2), ("exceptional(3,5)", 1, 2, 2)]


class TestNoEntryForm:
    """The rank paths build no entry Form, and give the entry routes' results."""

    def test_evaluated_rank(self):
        rng = random.Random(617)
        cases = [(build(spec, seed=seed).form, k, l) for spec, seed, k, l in SYMBOLIC_RUNGS]
        cases += [(rational_form(rng, 3, 4), k, l) for k, l in ((1, 1), (1, 2), (2, 2))]
        for f, k, l in cases:
            points = list(evaluation_points(rng, f.nvars))
            want = [reference_integer_evaluated_rank(mixed_hessian(f, k, l), p)
                    for p in points]
            with no_entry_forms():
                hess = mixed_hessian(f, k, l)
                assert [evaluated_rank(hess, p) for p in points] == want

    @pytest.mark.parametrize("spec,seed,k,l", SYMBOLIC_RUNGS)
    def test_generic_rank_symbolic_rung(self, spec, seed, k, l):
        f = build(spec, seed=seed).form
        policy = RankPolicy(max_symbolic_dim=16)
        want = reference_rank_report(f, k, l, policy)
        with no_entry_forms():
            got = generic_rank(mixed_hessian(f, k, l), policy).to_dict()
        assert got["certainty"] == "certified-symbolic" and got["degenerate"]
        assert got["kernel_witness"] and got == want

    def test_sheared_and_rational_symbolic_rung(self):
        rng = random.Random(619)
        for f in (sheared_perazzo(), rational_form(rng, 3, 3), rational_form(rng, 4, 3)):
            want = reference_rank_report(f, 1, 1)
            with no_entry_forms():
                assert generic_rank(mixed_hessian(f, 1, 1)).to_dict() == want

    @pytest.mark.parametrize("f,k", [
        (FERMAT, 1), (parse("1/2*x^3 - 3/7*x*y^2 + 5/3*y^2*z + z^3", "xyz"), 1),
        (build("perazzo").form, 1), (build("ikeda").form, 1)])
    def test_hessian_determinant(self, f, k):
        with entry_routes():
            want = hessian_determinant(f, k)
        with no_entry_forms():
            assert hessian_determinant(f, k) == want

    def test_rational_determinants_against_sympy(self):
        """The packed rows carry the slice's denominator D, so their
        determinant is divided by D^m; sympy's determinant of the entry
        Forms shares no step with that route."""
        rng = random.Random(623)
        cases = [(parse("1/2*x^3 - 3/7*x*y^2 + 5/3*y^2*z + z^3", "xyz"), 1)]
        cases += [(rational_form(rng, 3, 4), k) for k in (1, 2)]
        cases += [(rational_form(rng, 2, 5), k) for k in (1, 2)]
        for f, k in cases:
            hess = mixed_hessian(f, k, k)
            assert hess.images.denominator > 1
            matrix = sympy.Matrix([[0 if e is None else to_sympy(e)[0] for e in row]
                                   for row in hess.entries])
            det = hessian_determinant(f, k)
            assert det is not None
            assert sympy.expand(to_sympy(det)[0] - matrix.det()) == 0

    @pytest.mark.parametrize("spec,seed", [
        ("ikeda", 0), ("perazzo", 0), ("exceptional(2,3)", 1), ("power-family(3)", 0),
        ("monomial-spread(2,2)", 0)])
    def test_lefschetz_property(self, spec, seed):
        f = build(spec, seed=seed).form
        for prop in ("wlp", "slp"):
            want = reference_lefschetz(f, prop)
            with no_entry_forms():
                assert lefschetz_property(f, prop).to_dict() == want

    def test_lefschetz_samples_only_a_reachable_rank(self, monkeypatch):
        """Every exceptional(2,3) has a Hessian whose nu is below its size,
        so no element is sampled; all evaluations are generic_rank's."""
        outside = []
        depth = [0]
        ranked, evaluated = hessian.generic_rank, hessian.evaluated_rank

        def ladder(*args):
            depth[0] += 1
            try:
                return ranked(*args)
            finally:
                depth[0] -= 1

        def evaluation(*args):
            if not depth[0]:
                outside.append(args)
            return evaluated(*args)

        monkeypatch.setattr(hessian, "generic_rank", ladder)
        monkeypatch.setattr(hessian, "evaluated_rank", evaluation)
        for seed in range(4):
            f = build("exceptional(2,3)", seed=seed).form
            for prop in ("wlp", "slp"):
                rep = lefschetz_property(f, prop)
                assert rep.verdict == "fails" and rep.element is None
        assert outside == []
        # a reachable rank is still sampled
        assert lefschetz_property(FERMAT, "slp").verdict == "holds"
        assert outside


class TestSeededPoints:
    def test_sequence_is_the_policy_rng(self):
        policy = RankPolicy(seed=7, trials=3)
        rng = random.Random(7)
        expected = [tuple(rng.randint(1, 1 << 16) for _ in range(4)) for _ in range(3)]
        assert list(seeded_points(policy, 4)) == expected
        assert next(seeded_points(policy, 4)) == expected[0]


class TestHessianDeterminant:
    def test_classical_value(self):
        assert hessian_determinant(FERMAT, 1) == parse("216*x*y*z", "xyz")

    def test_vanishing_cases(self):
        assert hessian_determinant(build("perazzo").form, 1) is None
        assert hessian_determinant(build("bb-cubic").form, 1) is None
        assert hessian_determinant(build("ikeda").form, 2) is None

    def test_second_hessian_of_quintic_nonzero(self):
        f = build("ikeda").form
        det = hessian_determinant(f, 1)
        assert det is not None
        assert det.degree == 12
        assert det.coefficient((6, 0, 0, 6)) == 0
        assert det.coefficient((0, 0, 6, 6)) == 64

    def test_degree_zero_is_scalar(self):
        det = hessian_determinant(FERMAT, 0)
        assert det == parse("x^3 + y^3 + z^3", "xyz")

    def test_guards(self):
        with pytest.raises(ValueError, match="2k"):
            hessian_determinant(FERMAT, 2)
        with pytest.raises(BudgetExceeded, match="capped at dimension"):
            hessian_determinant(build("ikeda").form, 2,
                                RankPolicy(max_symbolic_dim=4))


class TestRankConsistency:
    def test_multiplication_matches_evaluated_hessian(self):
        """Multiplication by L^(b-a) from degree a to degree b has the
        same rank as the transposed-degree Hessian evaluated at L."""
        rng = random.Random(402)
        checked = 0
        for _ in range(12):
            f = random_form(rng, nvars=3, degree=rng.randint(2, 4))
            L = random_linear(rng, f.variables)
            d = f.degree
            for a in range(d + 1):
                for b in range(a + 1, d + 1):
                    left = multiplication_map_rank(f, L, a, b)
                    right = evaluated_rank(mixed_hessian(f, d - b, a), L.point())
                    assert left == right, (f, L, a, b)
                    checked += 1
        assert checked >= 50

    def test_multiplication_matches_the_dense_solves(self):
        """The rank of the products' images is the rank the per-monomial
        dense solves gave, on seeded forms and an exceptional member."""
        rng = random.Random(404)
        forms = [random_form(rng, nvars=rng.randint(2, 4), degree=rng.randint(2, 5))
                 for _ in range(10)]
        forms.append(build("exceptional(3,5)", seed=1).form)
        for f in forms:
            L = random_linear(rng, f.variables)
            for a in range(f.degree + 1):
                for b in range(a + 1, f.degree + 1):
                    assert multiplication_map_rank(f, L, a, b) == \
                        reference_multiplication_map_rank(f, L, a, b), (f, L, a, b)

    def test_multiplication_eliminates_once(self, monkeypatch):
        """With the apolar bases at hand, the map of exceptional(3,5) from
        degree 2 to 3 takes at most three elimination passes; a solve per
        basis monomial took 17 passes."""
        f = build("exceptional(3,5)", seed=1).form
        L = LinearForm(f.variables, tuple(range(1, f.nvars + 1)))
        for degree in (2, 3):  # the bases' own eliminations are not the map's
            apolar_basis(f, degree)
        passes = []
        forward = linalg._bareiss_forward

        def counting(rows):
            passes.append(len(rows))
            return forward(rows)

        monkeypatch.setattr(linalg, "_bareiss_forward", counting)
        assert multiplication_map_rank(f, L, 2, 3) == 14
        assert len(passes) <= 3

    def test_multiplication_reads_degree_k_only(self, monkeypatch):
        """The rank is that of the products' images, so the map reads the
        degree-k basis only and solves no ``nullspace``."""
        f = build("exceptional(3,5)", seed=1).form
        L = LinearForm(f.variables, tuple(range(1, f.nvars + 1)))
        degrees = []
        real = apolar_basis

        def spy(form, degree):
            degrees.append(degree)
            return real(form, degree)

        def refuse(vectors):
            raise AssertionError("nullspace called")

        monkeypatch.setattr(hessian, "apolar_basis", spy)
        monkeypatch.setattr(linalg, "nullspace", refuse)
        assert multiplication_map_rank(f, L, 2, 3) == 14
        assert degrees == [2]

    def test_multiplication_guards(self):
        L = LinearForm("xyz", (1, 1, 1))
        with pytest.raises(ValueError):
            multiplication_map_rank(FERMAT, L, 2, 1)
        with pytest.raises(ValueError, match="different variable"):
            multiplication_map_rank(FERMAT, LinearForm("xy", (1, 1)), 0, 1)


class TestLefschetz:
    def test_slp_holds_for_power_sum(self):
        rep = lefschetz_property(FERMAT, "slp")
        assert rep.verdict == "holds"
        assert rep.element is not None
        assert all(c["achieved"] == c["required"] for c in rep.checks)

    def test_binary_monomial_has_slp(self):
        rep = lefschetz_property(parse("x^2*y^3", "xy"), "slp")
        assert rep.verdict == "holds"

    def test_wlp_fails_for_every_element(self):
        f = build("ikeda").form
        rep = lefschetz_property(f, "wlp")
        assert rep.verdict == "fails"
        assert rep.element is None
        [check] = rep.checks
        assert check["hessian"] == [2, 2]
        assert check["source"] == 2 and check["target"] == 3
        assert check["required"] == 10 and check["achieved"] == 9
        assert check["certainty"] == "certified-symbolic"
        assert any("for every linear element" in n for n in rep.notes)

    def test_undetermined_when_budget_blocks_certification(self):
        f = sheared_perazzo()
        rep = lefschetz_property(f, "wlp", RankPolicy(max_symbolic_dim=2))
        assert rep.verdict == "undetermined"
        assert any("no certified obstruction" in n for n in rep.notes)

    def test_degenerate_cubic_fails_wlp(self):
        rep = lefschetz_property(build("perazzo").form, "wlp")
        assert rep.verdict == "fails"

    def test_explicit_element_check(self):
        good = lefschetz_check(FERMAT, LinearForm("xyz", (1, 1, 1)), "wlp")
        assert good.verdict == "holds"
        bad = lefschetz_check(FERMAT, LinearForm("xyz", (1, 0, 0)), "wlp")
        assert bad.verdict == "fails"
        [check] = bad.checks
        assert check["achieved"] < check["required"]

    def test_element_variable_mismatch(self):
        with pytest.raises(ValueError, match="different variable"):
            lefschetz_check(FERMAT, LinearForm("xy", (1, 1)), "wlp")

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError, match="wlp.*slp|slp.*wlp"):
            lefschetz_property(FERMAT, "strong")

    def test_report_to_dict(self):
        rep = lefschetz_check(FERMAT, LinearForm("xyz", (1, 1, 1)), "slp")
        d = rep.to_dict()
        assert d["property"] == "slp"
        assert d["verdict"] == "holds"
        assert d["element"] == ["1", "1", "1"]
        assert isinstance(d["checks"], list) and d["checks"]
