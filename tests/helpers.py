"""Shared generators and independent oracles for the test suite.

The oracles recompute reference values through sympy with dense
matrices and textbook case analysis.  They share no code with the
package: differentiation, matrix ranks, and factorizations all run on
sympy objects, so agreement is meaningful evidence.  The reference_*
routines are the earlier versions of library eliminators, kept so that
their replacements can be differential-tested against them.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy

from wildforms import linalg, polymat
from wildforms.apolar import (CatalecticantSlice, apolar_basis, catalecticant,
                             require_analysis_form)
from wildforms.hessian import (LefschetzReport, MixedHessian, RankPolicy,
                               _criterion_maps, evaluated_rank, generic_rank,
                               hessian_determinant, mixed_hessian, seeded_points)
from wildforms.poly import (Form, LinearForm, _as_fraction, apply, bigrade, constant,
                            form_sum, make_form, monomial, monomials, multiply,
                            parse, power)
from wildforms.polymat import JordanResult, Poly, pdivexact, pmul, pneg, psub
from wildforms.powersum import PowerSumDecomposition

VAR_LETTERS = ("x", "y", "z", "w")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """A module of the benchmark harness in bench/ (its generators or
    tracer), imported the way bench/run.py imports it."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


def binary_round0_forms(seeds=(1, 2, 3)) -> list[Form]:
    """The forms of round 0 of the ``binary`` benchmark workload."""
    workloads = bench_module("workloads")
    return [parse(next(a.partition("=")[2] for a in job.argv if a.startswith("--poly=")),
                  ("x", "y"))
            for seed in seeds for job in workloads.WORKLOADS["binary"](seed, 0, set())]


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


def reference_divisors(e, k: int) -> list[tuple[tuple, int]]:
    """Every alpha <= e with |alpha| = k, with prod perm(e_i, alpha_i).

    The per-degree enumerator slices were built from, one call per term
    and degree, before one pass served a whole window of degrees.
    """
    partial = [((), k, 1)]
    rest = sum(e)
    for ei in e:
        rest -= ei
        partial = [(alpha + (a,), left - a, factor * math.perm(ei, a))
                   for alpha, left, factor in partial
                   for a in range(max(0, left - rest), min(ei, left) + 1)]
    return [(alpha, factor) for alpha, _, factor in partial]


_ZERO = (0,)


def reference_window_divisors(e, lo: int, hi: int, scale: int) -> list[tuple]:
    """Every alpha <= e with lo <= |alpha| <= hi, as (alpha, e - alpha,
    |alpha|, scale * prod perm(e_i, alpha_i)), for e of degree >= 1.

    Each variable's choices are cut to those the remaining exponents can
    still complete into the window, so no partial divisor is a dead end;
    a zero exponent has the one choice 0.  The enumerator a whole window
    of slices was built from, before each slice was built from its
    neighbour.
    """
    partial: list[tuple] = [((), (), 0, scale)]
    rest = sum(e)
    for ei in e:
        if not ei:
            partial = [(alpha + _ZERO, beta + _ZERO, size, factor)
                       for alpha, beta, size, factor in partial]
            continue
        rest -= ei
        partial = [(alpha + (a,), beta + (ei - a,), size + a, factor * math.perm(ei, a))
                   for alpha, beta, size, factor in partial
                   for a in range(max(0, lo - size - rest), min(ei, hi - size) + 1)]
    return partial


def reference_slice_images(form: Form, degrees: list[int], denominator: int) -> dict:
    """Row alpha -> {column e - alpha: cell} of every slice in ``degrees``,
    from one pass over each term's divisors of degree in their span; a
    cell is its entry times ``denominator``.

    Equal exponent tuples are interned across the pass, so rows of one
    slice and columns of another share their tuples.
    """
    images: dict[int, dict] = {k: {} for k in degrees}
    shared: dict = {}
    intern = shared.setdefault
    lo, hi = min(degrees), max(degrees)
    for e, c in form.terms.items():
        lifted = c.numerator * (denominator // c.denominator)
        for alpha, beta, k, cell in reference_window_divisors(e, lo, hi, lifted):
            image = images.get(k)
            if image is None:
                continue
            row = image.get(alpha)
            if row is None:
                row = image[intern(alpha, alpha)] = {}
            row[intern(beta, beta)] = cell
    return images


def reference_growth(f: Form, k: int) -> bool:
    """Whether a_j = dim Q_j for every j <= k, each a_j the rank of the
    defining catalecticant (zero rows included) by one dense Bareiss
    pass; a_j = 0 past the degree."""
    for j in range(k + 1):
        if j > f.degree:
            return False
        _, col_monos, rows = reference_catalecticant(f, j)
        dense = [[row.get(c, 0) for c in range(len(col_monos))] for row in rows]
        if reference_rank(dense) != len(rows):
            return False
    return True


def reference_conciseness(f: Form) -> int:
    """Largest admissible k with maximal growth through degree k, by
    re-checking every degree j <= k for each k."""
    best = 0
    for k in range(1, (f.degree - 1) // 2 + 1):
        if not reference_growth(f, k):
            break
        best = k
    return best


def reference_power(linear: LinearForm, d: int) -> Form:
    """The d-th power of a linear form, expanded exactly."""
    if d < 0:
        raise ValueError("negative power")
    if d == 0:
        return constant(linear.variables, 1)
    out = linear.to_form()
    for _ in range(d - 1):
        out = multiply(out, linear.to_form())
    return out


def _reference_combine(f: Form, g: Form, sign: int) -> Form | None:
    if not isinstance(g, Form):
        raise TypeError(f"cannot combine Form with {type(g).__name__}")
    if f.variables != g.variables:
        raise ValueError("forms live over different variable tuples")
    if f.degree != g.degree:
        raise ValueError(f"cannot add degrees {f.degree} and {g.degree}")
    out = dict(f.terms)
    for e, c in g.terms.items():
        acc = out.get(e, Fraction(0)) + sign * c
        if acc == 0:
            out.pop(e, None)
        else:
            out[e] = acc
    if not out:
        return None
    return Form(f.variables, f.degree, out)


def reference_form_sum(parts) -> Form | None:
    """The pairwise fold that ``form_sum`` replaced: each step copies the
    running total, adds one part and validates the result again."""
    total: Form | None = None
    for part in parts:
        if part is None:
            continue
        total = part if total is None else _reference_combine(total, part, 1)
    return total


def reference_collect(pairs) -> dict:
    """The term accumulator ``poly._collect`` replaced: Fraction sums by
    exponent, an exponent that cancels and comes back going to the end."""
    out: dict = {}
    for e, c in pairs:
        acc = out.get(e, 0) + c
        if acc:
            out[e] = acc
        else:
            out.pop(e, None)
    return out


def reference_render(f: Form) -> str:
    """The text ``poly.render`` wrote through Fraction comparisons,
    ``abs`` and ``str`` before it read numerator and denominator."""
    pieces: list[tuple[str, str]] = []
    for exponent, coefficient in f.sorted_terms():
        factors = []
        for name, e in zip(f.variables, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        sign = "-" if coefficient < 0 else "+"
        c = abs(coefficient)
        if not body:
            text = str(c)
        elif c == 1:
            text = body
        else:
            text = f"{c}*{body}"
        pieces.append((sign, text))
    head_sign, head = pieces[0]
    out = ("-" + head) if head_sign == "-" else head
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def reference_is_linear_power(g: Form) -> bool:
    """The linear-power test ``bounds`` ran before it compared first
    partials: slice 1 of g, eliminated, has rank 1."""
    return catalecticant(g, 1).rank == 1


def reference_mixed_hessian_entries(f: Form, k: int, l: int) -> list[list[Form | None]]:
    """Every entry alpha*beta(f) of the (k,l) mixed Hessian, looked up
    eagerly in slice k+l, the way ``mixed_hessian`` built them before
    entries were built on first read."""
    images = catalecticant(f, k + l)
    return [[images.image(tuple(a + b for a, b in zip(er, ec)))
             for ec in apolar_basis(f, l).monomials]
            for er in apolar_basis(f, k).monomials]


def hessian_with_entries(form: Form, k: int, l: int, entries) -> MixedHessian:
    """A hand-built MixedHessian over given entries (None for zero).

    Each nonzero entry is its own row of a stand-in slice k+l keyed by
    the entry's position, lifted to integers by the lcm of all the
    entries' denominators, the stand-in's ``denominator``, so the
    Hessian's ranks, rows and entries read exactly the given entries.
    """
    denominator = math.lcm(*(c.denominator for row in entries for entry in row
                             if entry is not None for c in entry.terms.values()))
    keys = sorted(((i, j) for i, row in enumerate(entries) for j, entry in enumerate(row)
                   if entry is not None), reverse=True)
    columns = sorted({e for i, j in keys for e in entries[i][j].terms}, reverse=True)
    where = {e: t for t, e in enumerate(columns)}
    images = CatalecticantSlice(form, k + l, keys, columns, [
        {where[e]: c.numerator * (denominator // c.denominator)
         for e, c in entries[i][j].terms.items()} for i, j in keys], denominator)
    cells = [[None if entry is None else images.row_index[i, j]
              for j, entry in enumerate(row)] for i, row in enumerate(entries)]
    return MixedHessian(form, k, l, None, None, cells, images)


def reference_greedy_independent(rows) -> list[int]:
    """Indices of the greedy-first maximal independent subset of rows.

    Sparse Fraction elimination one row at a time: a row is kept when
    it stays nonzero after reduction by the rows kept before it.  Cells
    are nonzero ints or Fractions.
    """
    echelon: dict[int, dict[int, Fraction]] = {}
    kept: list[int] = []
    for idx, row in enumerate(rows):
        work = {c: Fraction(v) for c, v in row.items()}
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


def reference_matching(row_support) -> dict[int, int]:
    """Maximum matching {column: row} by recursive augmenting paths.

    Each row in turn searches depth first, trying its columns in
    increasing order; Python's recursion limit caps the path length.
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

    for i in range(len(supports)):
        augment(i, set())
    return match_col


def reference_bareiss_det(rows: list[list[Poly]], guard: int) -> Poly:
    """Exact determinant of a square polynomial matrix."""
    n = len(rows)
    if n == 0:
        return {0: 1}
    work = [list(row) for row in rows]
    sign = 1
    prev: Poly = {0: 1}
    for c in range(n - 1):
        pivot_row = None
        best = None
        for i in range(c, n):
            if work[i][c]:
                size = len(work[i][c])
                if best is None or size < best:
                    best = size
                    pivot_row = i
        if pivot_row is None:
            return {}
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        piv = work[c][c]
        base = work[c]
        for i in range(c + 1, n):
            row = work[i]
            f = row[c]
            for j in range(c + 1, n):
                if f:
                    t = psub(pmul(piv, row[j]), pmul(f, base[j]))
                else:
                    t = pmul(piv, row[j])
                row[j] = pdivexact(t, prev, guard)
            row[c] = {}
        prev = piv
    d = work[n - 1][n - 1]
    return d if sign == 1 else pneg(d)


def reference_bareiss_jordan(rows: list[list[Poly]], guard: int) -> JordanResult:
    """Fraction-free Gauss-Jordan; divisions stay exact above pivots too."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    work = [list(row) for row in rows]
    prev: Poly = {0: 1}
    pivot_cols: list[int] = []
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
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        base = work[r]
        for i in range(m):
            if i == r:
                continue
            row = work[i]
            f = row[c]
            for j in range(n):
                if j == c:
                    continue
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
    return JordanResult(r, pivot_cols, work[:r], n)


def reference_kernel_vector(result: JordanResult, guard: int) -> list[Poly] | None:
    """One right-kernel vector with polynomial entries, or None if full rank.

    Uses the first free column.  The pivot block of a fraction-free
    Gauss-Jordan result is diagonal with entries +-p, p the final
    pivot, which the construction below checks row by row.
    """
    free = [c for c in range(result.ncols) if c not in result.pivot_cols]
    if not free:
        return None
    c = free[0]
    vector: list[Poly] = [{} for _ in range(result.ncols)]
    if result.rank == 0:
        vector[c] = {0: 1}
        return vector
    p = result.rows[0][result.pivot_cols[0]]
    vector[c] = p
    for i, pc in enumerate(result.pivot_cols):
        diag = result.rows[i][pc]
        entry = result.rows[i][c]
        if diag == p:
            vector[pc] = pneg(entry)
        elif diag == pneg(p):
            vector[pc] = entry
        else:
            # fall back to an exact per-row rescale
            vector[pc] = pneg(pdivexact(pmul(entry, p), diag, guard))
    return vector


def reference_evaluated_rank(hess, point) -> int:
    """Exact rank of the Hessian evaluated at one rational point."""
    if not hess.entries or not hess.entries[0]:
        return 0
    matrix = [[Fraction(0) if e is None else e.evaluate(point) for e in row]
              for row in hess.entries]
    return linalg.rank(matrix)


def from_form(f: "Form | None", scale: int) -> Poly:
    """Pack scale*f into int coefficients; scale must clear denominators.
    ``polymat.from_form`` before Hessian rows were packed from slice rows."""
    if f is None:
        return {}
    out: Poly = {}
    for e, c in f.terms.items():
        value = c * scale
        if value.denominator != 1:
            raise ValueError("scale does not clear the denominators")
        out[polymat.pack(e)] = int(value)
    return out


def common_scale(entries) -> int:
    """lcm of all coefficient denominators across a matrix of Forms;
    ``polymat.common_scale`` before the scale was read off slice cells."""
    scale = 1
    for row in entries:
        for f in row:
            if f is None:
                continue
            for c in f.terms.values():
                scale = math.lcm(scale, c.denominator)
    return scale


def reference_integer_evaluated_rank(hess, point) -> int:
    """The integer evaluation ``evaluated_rank`` ran over the entry Forms
    before it read the slice's rows: every entry scaled by the lcm of the
    entries' denominators, the point by the lcm of its own."""
    if not hess.entries or not hess.entries[0]:
        return 0
    if len(point) != hess.form.nvars:
        raise ValueError("point length does not match variable count")
    values = [_as_fraction(v) for v in point]
    lift = math.lcm(*(v.denominator for v in values))
    powers = [[int(v * lift) ** e for e in range(hess.entry_degree + 1)]
              for v in values]
    scale = common_scale(hess.entries)
    matrix = []
    for entries in hess.entries:
        row = []
        for entry in entries:
            total = 0
            if entry is not None:
                for exponent, c in entry.terms.items():
                    term = c.numerator * (scale // c.denominator)
                    for p, e in zip(powers, exponent):
                        if e:
                            term *= p[e]
                    total += term
            row.append(total)
        matrix.append(row)
    return linalg.rank(matrix)


def reference_symbolic_rows(hess) -> tuple[list[list[Poly]], int]:
    """The packed rows ``_symbolic_rows`` built from the entry Forms,
    every entry scaled by the lcm of the form's coefficient denominators
    (read off the form's terms, not the slice), and the guard mask."""
    scale = math.lcm(*(c.denominator for c in hess.form.terms.values()))
    guard = polymat.guard_mask(hess.form.nvars)
    rows = [[from_form(e, scale) for e in row] for row in hess.entries]
    return rows, guard


def reference_closure_kernels(rows: list[list[polymat.Poly]], support: list[set[int]],
                              guard: int) -> list[list[polymat.Poly]] | None:
    """The closure rung before ``_closure_kernel`` kept one vector:
    kernel vectors read off a maximum matching, one per unmatched column.

    The closure of an unmatched column t is the smallest set of columns
    holding t and the matched column of every row with an entry in one
    of them.  Every such row is matched (else an augmenting path would
    exist), so the closure's s rows are the only rows touching its s+1
    columns, and a kernel vector of that small block, padded with
    zeros, is one of the whole matrix.  No closure holds a second
    unmatched column, so vectors nonzero at their own column are
    independent.  None when some vector vanishes at its own column.
    """
    n = len(rows[0])
    matched = linalg.matching(support)
    row_column = {i: c for c, i in matched.items()}
    column_rows: list[list[int]] = [[] for _ in range(n)]
    for i, columns in enumerate(support):
        for c in columns:
            column_rows[c].append(i)
    vectors = []
    for t in range(n):
        if t in matched:
            continue
        columns, block_rows, frontier = {t}, set(), [t]
        while frontier:
            for i in column_rows[frontier.pop()]:
                if i not in block_rows:
                    block_rows.add(i)
                    columns.add(row_column[i])
                    frontier.append(row_column[i])
        vector: list[polymat.Poly] = [{} for _ in range(n)]
        vector[t] = {0: 1}
        if block_rows:
            columns = sorted(columns)
            block = [[rows[i][c] for c in columns] for i in sorted(block_rows)]
            piece = polymat.kernel_vector(polymat.bareiss_jordan(block, guard), guard)
            for c, w in zip(columns, piece):
                vector[c] = w
        if not vector[t]:
            return None
        vectors.append(vector)
    return vectors


def reference_lefschetz_property(f: Form, prop: str,
                                 policy: RankPolicy | None = None) -> LefschetzReport:
    """``lefschetz_property`` as it was before it skipped sampling that
    the support bound rules out: every Hessian is evaluated at every
    seeded point, through the entry Forms."""
    policy = policy or RankPolicy()
    require_analysis_form(f)
    maps = _criterion_maps(f, prop)
    hessians = [mixed_hessian(f, k, l) for k, l in maps]
    required = [min(h.nrows, h.ncols) for h in hessians]
    for point in seeded_points(policy, f.nvars):
        achieved = [reference_integer_evaluated_rank(h, point) for h in hessians]
        if all(a == r for a, r in zip(achieved, required)):
            checks = [{"hessian": [h.k, h.l], "source": h.l,
                       "target": f.degree - h.k, "required": r, "achieved": a}
                      for h, r, a in zip(hessians, required, achieved)]
            return LefschetzReport(prop, "holds", LinearForm(f.variables, point),
                                   checks, ["sampled witness element recorded"])
    verdict = "undetermined"
    checks = []
    notes = []
    for h, r in zip(hessians, required):
        report = generic_rank(h, policy)
        checks.append({"hessian": [h.k, h.l], "source": h.l,
                       "target": f.degree - h.k, "required": r,
                       "achieved": report.value, "certainty": report.certainty})
        if report.certified and report.value < r:
            verdict = "fails"
            notes.append(f"multiplication from degree {h.l} into degree "
                         f"{f.degree - h.k} has certified generic rank "
                         f"{report.value} < {r}, for every linear element")
    if verdict != "fails":
        notes.append("no sampled element passed and no certified obstruction found")
    return LefschetzReport(prop, verdict, None, checks, notes)


def reference_certify_rank_deficient(f: Form, l: int, s: int, bound: int,
                                     policy: RankPolicy) -> dict | None:
    """Certified evidence that Hess^(l,s) has generic rank below bound."""
    hess = mixed_hessian(f, l, s)
    if l == s and hess.nrows <= policy.max_symbolic_dim:
        # full rank at one point proves det Hess^(l,l) is not identically zero
        if evaluated_rank(hess, next(seeded_points(policy, f.nvars))) == hess.nrows:
            return None
        if hessian_determinant(f, l, policy) is None:
            return {"method": "symbolic-determinant",
                    "certainty": "certified-symbolic",
                    "detail": f"det Hess^({l},{s}) = 0 identically"}
        return None
    report = generic_rank(hess, policy)
    if report.support_bound < bound:
        return {"method": "support-matching",
                "certainty": "certified-structural",
                "detail": f"support matching allows rank at most "
                          f"{report.support_bound} < {bound}"}
    if report.certified and report.value < bound:
        return {"method": report.method, "certainty": report.certainty,
                "detail": f"generic rank {report.value} < {bound}",
                "report": report.to_dict()}
    return None


def reference_slice_rank_vanishing(f: Form, x_vars, u_vars) -> dict | None:
    """``bounds.slice_rank_vanishing`` as it was before it read slice k:
    the rank of its own coefficient matrix of Fractions, rows indexed by
    the x-part of each term's exponent, columns by the u-part."""
    require_analysis_form(f)
    try:
        k, e = bigrade(f, x_vars, u_vars)
    except ValueError:
        return None
    if k < 1 or k >= e:
        return None
    index = {v: i for i, v in enumerate(f.variables)}
    x_pos = [index[v] for v in x_vars]
    u_pos = [index[v] for v in u_vars]
    rows: dict[tuple, dict[tuple, Fraction]] = {}
    for exponent, c in f.terms.items():
        xm = tuple(exponent[i] for i in x_pos)
        rows.setdefault(xm, {})[tuple(exponent[i] for i in u_pos)] = c
    s = linalg.sparse_rank(list(rows.values()))
    threshold = math.comb(len(u_vars) + k - 1, k)
    if s <= threshold:
        return None
    return {"criterion": "slice-rank", "k": k, "bidegree": [k, e],
            "slice_rank": s, "threshold": threshold,
            "conclusion": f"hess^{k} vanishes identically",
            "certainty": "certified-structural"}


def reference_rank(matrix) -> int:
    """Rank by one fraction-free Bareiss pass over the whole dense matrix.

    The route ``linalg.rank`` took before it split matrices into
    incidence components: each row is scaled to integers by the lcm of
    its denominators, and nothing is divided out or skipped.
    """
    rows = []
    for row in matrix:
        values = [Fraction(x) for x in row]
        scale = math.lcm(*(v.denominator for v in values)) if values else 1
        rows.append([int(v * scale) for v in values])
    m = len(rows)
    n = len(rows[0]) if m else 0
    r, prev = 0, 1
    for c in range(n):
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv, base = rows[r][c], rows[r]
        for i in range(r + 1, m):
            row, f = rows[i], rows[i][c]
            for j in range(c + 1, n):
                row[j] = (piv * row[j] - f * base[j]) // prev
            row[c] = 0
        prev = piv
        r += 1
    return r


def reference_rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
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


def reference_nullspace(matrix) -> list[list[Fraction]]:
    """Right-kernel basis read off ``reference_rref``, one vector per free column."""
    n = len(matrix[0]) if matrix else 0
    reduced, pivots = reference_rref(matrix)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][fc]
        basis.append(v)
    return basis


def reference_solve_columns(columns, target) -> list[Fraction] | None:
    """Solution read off ``reference_rref`` of [columns | target], free
    coordinates zero; None when the target column is a pivot."""
    aug = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    reduced, pivots = reference_rref(aug)
    k = len(columns)
    if k in pivots:
        return None
    out = [Fraction(0)] * k
    for i, pc in enumerate(pivots):
        out[pc] = reduced[i][k]
    return out


def _dense_int_row(row) -> list[int]:
    row = list(row)
    if all(type(x) is int for x in row):
        return row
    values = [Fraction(x) for x in row]
    scale = math.lcm(*(v.denominator for v in values)) if values else 1
    return [int(v * scale) for v in values]


def _dense_kernel(matrix, ncols: int) -> tuple[dict[int, list[int]], int]:
    """Integer right-kernel vectors by free column, and their divisor p.

    The dense kernel ``linalg.nullspace`` and ``solve_columns`` shared
    before ``nullspace`` took sparse vectors: the rows, scaled to
    integers, go through ``_bareiss_forward`` and each free column's
    vector is back-substituted through the echelon rows.
    """
    rows = [_dense_int_row(row) for row in matrix]
    pivots = linalg._bareiss_forward(rows)
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    taken = set(pivots)
    vectors = {}
    for c in range(ncols):
        if c in taken:
            continue
        v = [0] * ncols
        v[c] = p
        for i in range(len(pivots) - 1, -1, -1):
            row = rows[i]
            acc = row[c] * p
            for pc in pivots[i + 1:]:
                acc += row[pc] * v[pc]
            v[pivots[i]] = -acc // row[pivots[i]]
        vectors[c] = v
    return vectors, p


def reference_dense_nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, reduced echelon shaped, by free column
    (the dense ``linalg.nullspace`` over a matrix's rows)."""
    vectors, p = _dense_kernel(matrix, len(matrix[0]) if matrix else 0)
    return [[Fraction(x, p) for x in v] for v in vectors.values()]


def reference_dense_solve_columns(columns, target) -> list[Fraction] | None:
    """Coefficients c with sum c_j * column_j = target, or None (the
    removed ``linalg.solve_columns``).

    Free coordinates, if any, are set to zero: the answer is the kernel
    vector of the target's column in [columns | target], scaled to -1
    there.  A pivot there means the target is not in the span.
    """
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("column length mismatch")
    k = len(columns)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(m)]
    vectors, p = _dense_kernel(aug, k + 1)
    if k not in vectors:
        return None
    return [Fraction(-x, p) for x in vectors[k][:k]]


def reference_kernel_basis(slice_) -> list[Form]:
    """The annihilator slice by the dense route ``kernel_basis`` took
    before it read kernels off the stored rows: the slice transposed
    into a |columns| x dim Q_k matrix, zero rows included."""
    everything = monomials(len(slice_.variables), slice_.k)
    where = {alpha: i for i, alpha in enumerate(everything)}
    transpose = [[0] * len(everything) for _ in slice_.columns]
    for alpha, row in zip(slice_.row_monomials, slice_.rows):
        for j, c in row.items():
            transpose[j][where[alpha]] = c
    basis = []
    for vector in reference_dense_nullspace(transpose):
        terms = {everything[i]: c for i, c in enumerate(vector) if c != 0}
        basis.append(Form(slice_.variables, slice_.k, terms))
    return basis


def reference_multiplication_map_rank(f: Form, L: LinearForm, k: int, l: int) -> int:
    """``multiplication_map_rank`` as it was: one dense solve per
    degree-k basis monomial, through ``reference_dense_solve_columns``."""
    basis_k = apolar_basis(f, k)
    basis_l = apolar_basis(f, l)
    cols_mono = monomials(f.nvars, f.degree - l)
    index = {e: i for i, e in enumerate(cols_mono)}

    def vectorize(form: Form | None) -> list[Fraction]:
        v = [Fraction(0)] * len(cols_mono)
        if form is not None:
            for e, c in form.terms.items():
                v[index[e]] = c
        return v

    images = [vectorize(apply(monomial(f.variables, e), f))
              for e in basis_l.monomials]
    ell = L.to_form()
    op = ell
    for _ in range(l - k - 1):
        op = multiply(op, ell)
    matrix_cols = []
    for e in basis_k.monomials:
        q = multiply(op, monomial(f.variables, e))
        coords = reference_dense_solve_columns(images, vectorize(apply(q, f)))
        if coords is None:
            raise RuntimeError("product image left the span of the basis images")
        matrix_cols.append(coords)
    matrix = [[col[i] for col in matrix_cols] for i in range(len(basis_l))]
    if not matrix or not matrix[0]:
        return 0
    return linalg.rank(matrix)


def reference_sylvester_resultant(a: list[Poly], b: list[Poly],
                                  guard: int) -> Poly:
    """Resultant of two binary forms given by descending coefficient lists."""
    m = len(a) - 1
    n = len(b) - 1
    size = m + n
    rows: list[list[Poly]] = []
    for i in range(n):
        rows.append([{} for _ in range(i)] + list(a)
                    + [{} for _ in range(size - i - m - 1)])
    for i in range(m):
        rows.append([{} for _ in range(i)] + list(b)
                    + [{} for _ in range(size - i - n - 1)])
    return polymat.bareiss_det(rows, guard)


def _dehomogenized(f: Form) -> list[Fraction]:
    """Coefficients of f(t, 1) by ascending power of t."""
    out = [Fraction(0)] * (f.degree + 1)
    for (a, _), c in f.terms.items():
        out[a] = c
    return out


def _poly_degree(coeffs: list[Fraction]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    db = _poly_degree(b)
    lead = b[db]
    while True:
        da = _poly_degree(a)
        if da < db:
            return a[:max(da + 1, 0)]
        q = a[da] / lead
        shift = da - db
        for i in range(db + 1):
            a[shift + i] -= q * b[i]
        a[da] = Fraction(0)


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while _poly_degree(b) >= 0:
        a, b = b, _poly_mod(a, b)
    return a


def _gcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    return _poly_degree(_poly_gcd(a, b))


def reference_is_squarefree_binary(f: Form) -> bool:
    """No repeated root on the projective line, decided exactly."""
    require_analysis_form(f)
    if f.nvars != 2:
        raise ValueError("squarefree test is for binary forms")
    p = _dehomogenized(f)
    dp = _poly_degree(p)
    if f.degree - dp > 1:
        return False  # root at infinity with multiplicity >= 2
    if dp < 1:
        return True
    derivative = [i * p[i] for i in range(1, dp + 1)]
    return _gcd_degree(p, derivative) == 0


def reference_space_has_squarefree(basis: list[Form]) -> bool:
    """Whether a space of binary forms has a squarefree member, by gcds.

    One member: that member is squarefree.  Two or more: the gcd h of
    the members is squarefree, with the y-power (the root at infinity)
    counted as part of h.  Every member is a multiple of h, and the
    members divided by h span a system with no base point on P^1, so by
    Bertini (characteristic 0) its general member is squarefree and
    coprime to h.
    """
    if len(basis) == 1:
        return reference_is_squarefree_binary(basis[0])
    parts = [_dehomogenized(g) for g in basis]
    at_infinity = min(g.degree - _poly_degree(p) for g, p in zip(basis, parts))
    h = parts[0]
    for p in parts[1:]:
        h = _poly_gcd(h, p)
    derivative = [i * h[i] for i in range(1, _poly_degree(h) + 1)]
    return at_infinity <= 1 and _gcd_degree(h, derivative) == 0


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
