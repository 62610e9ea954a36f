"""Mixed Hessians, certified rank reports and Lefschetz checks.

The (k,l) mixed Hessian of f is the matrix of second-kind derivatives
alpha*beta(f) over the chosen monomial bases of the apolar algebra in
degrees k and l.  Rank questions about multiplication maps of the
algebra reduce to evaluated ranks of these matrices, which is what the
Lefschetz checks use; no element is sampled when the support of some
Hessian caps its rank below full (nu, below).  A Hessian is built as
the row of slice k+l each entry reads, or None for a zero entry; ranks
read those rows, the entries times the slice's integer ``denominator``,
and ``entries`` builds Forms on first read.

Rank certification runs a ladder: exact evaluation at seeded integer
points gives a certified lower bound, and the bipartite matching
number nu of the nonzero-entry support a certified upper bound.  The
support and nu are computed once per Hessian and kept on it, so a
caller that only needs nu (the cactus routes, when nu alone settles
their bound) pays for no evaluation and no entry.  Full rank at a
point settles the rank at once.  Below a size cap the rank is then
decided symbolically, with one kernel vector verified exactly over
Z[x].  When evaluation already reaches nu, the rank is certified as
nu, and the kernel witness comes from the matching closure of the
lowest column the maximum matching leaves free, a block of s rows and
s+1 columns; when evaluation falls short of nu, or the closure vector
vanishes at its own column, fraction-free elimination of the whole
matrix decides.  Both routes run polymat's fraction-free Gauss-Jordan,
so the report keeps its method label "fraction-free Gauss-Jordan
elimination", which tools reading the reports match on.  Above the
cap, meeting bounds certify structurally, and any other report is
labelled probabilistic with its Schwartz-Zippel odds, never silently.

The symbolic determinant of ``hessian_determinant`` serves only the
``hessian`` command, when a square rank is probabilistic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from operator import add, mul

from . import linalg, polymat
from .apolar import (CatalecticantSlice, apolar_basis, catalecticant,
                     require_analysis_form)
from .poly import Form, LinearForm, _as_fraction, apply, monomial, multiply, power


WINDOW = 1 << 16  # seeded evaluation coordinates are drawn from 1..WINDOW
MAX_ENTRY_DEGREE = 12  # symbolic elimination runs on entries of at most this degree


class BudgetExceeded(RuntimeError):
    """Raised when a certification budget is exceeded under strict policy."""


@dataclass
class RankPolicy:
    seed: int = 0
    trials: int = 8
    max_symbolic_dim: int = 12
    strict: bool = False

    def __post_init__(self):
        # a report with no evaluation or a negative cap certifies nothing
        if self.trials < 1:
            raise ValueError(f"rank trials must be at least 1, got {self.trials}")
        if self.max_symbolic_dim < 0:
            raise ValueError("symbolic caps must be nonnegative, got dimension "
                             f"{self.max_symbolic_dim} and entry degree "
                             f"{MAX_ENTRY_DEGREE}")


@dataclass
class RankReport:
    value: int
    certainty: str  # certified-symbolic | certified-structural | probabilistic
    method: str
    nrows: int
    ncols: int
    support_bound: int
    trials: int = 0
    witness_point: tuple | None = None
    kernel_witness: list | None = None
    error_bound: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return self.certainty != "probabilistic"

    @property
    def degenerate(self) -> bool:
        return self.value < min(self.nrows, self.ncols)

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "certainty": self.certainty,
            "method": self.method,
            "shape": [self.nrows, self.ncols],
            "degenerate": self.degenerate,
            "support_bound": self.support_bound,
            "trials": self.trials,
        }
        if self.witness_point is not None:
            out["witness_point"] = [str(x) for x in self.witness_point]
        if self.kernel_witness is not None:
            out["kernel_witness"] = ["0" if w is None else repr(w)
                                     for w in self.kernel_witness]
        if self.error_bound is not None:
            out["error_bound"] = self.error_bound
        if self.notes:
            out["notes"] = list(self.notes)
        return out


class MixedHessian:
    """Matrix [alpha_i beta_j (f)] over apolar basis monomials.

    ``cells[i][j]`` is the stored row of alpha_i + beta_j in ``images``,
    slice k+l, or None for a zero entry.  Shape, support and nu read
    only the cells, ranks read the slice's rows (the entries times
    ``images.denominator``), and ``entries`` builds Forms on first read."""

    def __init__(self, form: Form, k: int, l: int, row_basis, col_basis,
                 cells: list[list[int | None]], images: CatalecticantSlice):
        self.form = form
        self.k = k
        self.l = l
        self.row_basis = row_basis
        self.col_basis = col_basis
        self.cells = cells
        self.images = images

    @property
    def nrows(self) -> int:
        return len(self.cells)

    @property
    def ncols(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    @property
    def entry_degree(self) -> int:
        return self.form.degree - self.k - self.l

    @cached_property
    def entries(self) -> list[list[Form | None]]:
        """alpha_i beta_j (f), or None when zero; built on first read."""
        row_image = self.images.row_image
        return [[None if i is None else row_image(i) for i in row]
                for row in self.cells]

    @cached_property
    def support(self) -> list[set[int]]:
        """Columns of the nonzero entries, row by row."""
        return [set(j for j, i in enumerate(row) if i is not None)
                for row in self.cells]

    @cached_property
    def read_rows(self) -> dict[int, dict[int, int]]:
        """The slice rows the cells read, by row index."""
        rows = self.images.rows
        return {i: rows[i] for line in self.cells for i in line if i is not None}

    @cached_property
    def support_bound(self) -> int:
        """Matching number nu of the support, an upper bound on every rank."""
        return linalg.max_matching(self.support)


def mixed_hessian(f: Form, k: int, l: int) -> MixedHessian:
    """Entry (alpha, beta) is alpha*beta(f), row alpha+beta of slice k+l."""
    require_analysis_form(f)
    if k < 0 or l < 0 or k + l > f.degree:
        raise ValueError(f"need k, l >= 0 with k+l <= {f.degree}, got ({k}, {l})")
    rows = apolar_basis(f, k)
    cols = apolar_basis(f, l)
    images = catalecticant(f, k + l)
    where = images.row_index.get
    cells = [[where(tuple(map(add, er, ec))) for ec in cols.monomials]
             for er in rows.monomials]
    return MixedHessian(f, k, l, rows, cols, cells, images)


def seeded_points(policy: RankPolicy, nvars: int):
    """The policy's evaluation points: ``policy.trials`` seeded integer tuples."""
    rng = random.Random(policy.seed)
    for _ in range(policy.trials):
        yield tuple(rng.randint(1, WINDOW) for _ in range(nvars))


def evaluated_rank(hess: MixedHessian, point) -> int:
    """Exact rank of the Hessian evaluated at one rational point.

    The work stays in the integers and builds no entry Form.  Every
    entry is a form of degree delta = d-k-l, and its slice row holds its
    coefficients times the slice's ``denominator`` D.  With q the lcm
    of the point's denominators, that row at the integer point q*p is
    D*q^delta times the entry's value at p: H(p) times one nonzero
    integer, which has the same rank.  Each column monomial of slice
    k+l is evaluated once, from repeated products of q*p, and each row
    the cells read is summed once.
    """
    cells = hess.cells
    if not cells or not cells[0]:
        return 0
    if len(point) != hess.form.nvars:
        raise ValueError("point length does not match variable count")
    values = [_as_fraction(v) for v in point]
    lift = math.lcm(*(v.denominator for v in values))
    powers = [list(accumulate(repeat(v.numerator * (lift // v.denominator),
                                     hess.entry_degree), mul, initial=1))
              for v in values]
    at = [math.prod([p[e] for p, e in zip(powers, beta)])
          for beta in hess.images.columns]
    sums = {}
    for i, row in hess.read_rows.items():
        total = 0
        for j, c in row.items():
            total += c * at[j]
        sums[i] = total
    return linalg.rank([[0 if i is None else sums[i] for i in row] for row in cells])


def _symbolic_rows(hess: MixedHessian) -> tuple[list[list[polymat.Poly]], int]:
    """The entries times the slice's denominator, packed, and the guard
    mask; equal cells share one Poly."""
    columns = hess.images.columns
    packed = {i: {polymat.pack(columns[j]): c for j, c in row.items()}
              for i, row in hess.read_rows.items()}
    rows = [[{} if i is None else packed[i] for i in row] for row in hess.cells]
    return rows, polymat.guard_mask(hess.form.nvars)


def _closure_kernel(rows: list[list[polymat.Poly]], support: list[set[int]],
                    guard: int) -> list[polymat.Poly] | None:
    """A kernel vector read off a maximum matching at its lowest unmatched
    column t; the matrix must have an unmatched column.

    The closure of t is the smallest set of columns holding t and the
    matched column of every row with an entry in one of them.  Every
    such row is matched (else an augmenting path would exist), so the
    closure's s rows are the only rows touching its s+1 columns, and a
    kernel vector of that small block, padded with zeros, is one of the
    whole matrix.  None when the vector vanishes at t.  One vector is
    all ``generic_rank`` needs: it calls this only when evaluation
    reaches nu, so the rank is already certified as nu (evaluation
    bounds it below, the matching above), and the vector is the
    report's kernel witness.
    """
    n = len(rows[0])
    matched = linalg.matching(support)
    row_column = {i: c for c, i in matched.items()}
    t = min(c for c in range(n) if c not in matched)
    columns, block_rows, frontier = {t}, set(), [t]
    while frontier:
        c = frontier.pop()
        for i, row_columns in enumerate(support):
            if c in row_columns and i not in block_rows:
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
    return vector if vector[t] else None


def generic_rank(hess: MixedHessian, policy: RankPolicy | None = None) -> RankReport:
    """Generic rank of the Hessian, certified whenever the ladder allows."""
    policy = policy or RankPolicy()
    m, n = hess.nrows, hess.ncols
    cap = min(m, n)
    bound = hess.support_bound
    if cap == 0 or bound == 0:
        return RankReport(0, "certified-structural", "empty support",
                          m, n, support_bound=bound)

    best = 0
    witness = None
    trials = 0
    target = min(cap, bound)
    for point in seeded_points(policy, hess.form.nvars):
        trials += 1
        r = evaluated_rank(hess, point)
        if r > best:
            best, witness = r, point
        if best >= target:
            break

    if best == cap:
        return RankReport(best, "certified-structural",
                          "evaluation witness at full rank", m, n,
                          support_bound=bound, trials=trials, witness_point=witness)

    delta = hess.entry_degree
    if max(m, n) <= policy.max_symbolic_dim and delta <= MAX_ENTRY_DEGREE:
        rows, guard = _symbolic_rows(hess)
        vector = (_closure_kernel(rows, hess.support, guard)
                  if best == bound else None)
        if vector is not None:
            value = bound
        else:
            result = polymat.bareiss_jordan(rows, guard)
            value = result.rank
            if value < best:
                raise RuntimeError("symbolic rank below an evaluation witness")
            if value < cap:  # then some column is free
                vector = polymat.kernel_vector(result, guard)
        witness_forms = None
        if vector is not None:
            for row in rows:
                acc: polymat.Poly = {}
                for entry, w in zip(row, vector):
                    if entry and w:
                        acc = polymat.padd(acc, polymat.pmul(entry, w))
                if acc:
                    raise RuntimeError("kernel witness failed exact verification")
            content = math.gcd(*(c for w in vector for c in w.values())) or 1
            witness_forms = [polymat.to_form(w, hess.form.variables, divide=content)
                             for w in vector]
        return RankReport(value, "certified-symbolic",
                          "fraction-free Gauss-Jordan elimination", m, n,
                          support_bound=bound, trials=trials, witness_point=witness,
                          kernel_witness=witness_forms)

    if best == bound:
        # above the symbolic cap, but the support pattern already caps the rank
        return RankReport(best, "certified-structural",
                          "evaluation witness meets support matching bound",
                          m, n, support_bound=bound, trials=trials, witness_point=witness)

    if policy.strict:
        raise BudgetExceeded(
            f"symbolic certification is capped at dimension {policy.max_symbolic_dim} "
            f"and entry degree {MAX_ENTRY_DEGREE}; this Hessian is {m}x{n} "
            f"with entries of degree {delta}")
    odds = Fraction((best + 1) * max(delta, 1), WINDOW)
    return RankReport(best, "probabilistic", "seeded integer evaluations", m, n,
                      support_bound=bound, trials=trials, witness_point=witness,
                      error_bound=f"missed-rank odds <= ({odds})^{trials}",
                      notes=["the value is a certified lower bound; "
                             "degeneracy is not certified"])


def hessian_determinant(f: Form, k: int,
                        policy: RankPolicy | None = None) -> Form | None:
    """Exact determinant of the k-th Hessian; None is the zero marker."""
    policy = policy or RankPolicy()
    require_analysis_form(f)
    if k < 0 or 2 * k > f.degree:
        raise ValueError(f"hessian determinant needs 0 <= 2k <= {f.degree}")
    hess = mixed_hessian(f, k, k)
    m = hess.nrows
    if m > policy.max_symbolic_dim:
        raise BudgetExceeded(
            f"symbolic determinant is capped at dimension {policy.max_symbolic_dim}, "
            f"this Hessian is {m}x{m}")
    rows, guard = _symbolic_rows(hess)
    det = polymat.bareiss_det(rows, guard)
    return polymat.to_form(det, f.variables, divide=hess.images.denominator ** m)


def _criterion_maps(f: Form, prop: str) -> list[tuple[int, int]]:
    d = f.degree
    if prop == "slp":
        return [(k, k) for k in range(d // 2 + 1)]
    if prop == "wlp":
        q, odd = divmod(d, 2)
        if odd:
            return [(q, q)]
        return [(q - 1, q)] if q >= 1 else [(0, 0)]
    raise ValueError("property must be 'wlp' or 'slp'")


@dataclass
class LefschetzReport:
    property: str
    verdict: str  # holds | fails | undetermined
    element: LinearForm | None
    checks: list[dict]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "element": None if self.element is None
            else [str(c) for c in self.element.coefficients],
            "checks": self.checks,
            "notes": list(self.notes),
        }


def _map_check(hess: MixedHessian, required: int, achieved: int) -> dict:
    """A Lefschetz report's entry for the map the Hessian decides."""
    return {"hessian": [hess.k, hess.l], "source": hess.l,
            "target": hess.form.degree - hess.k,
            "required": required, "achieved": achieved}


def lefschetz_check(f: Form, L: LinearForm, prop: str) -> LefschetzReport:
    """Decide the property for one given linear element, exactly."""
    require_analysis_form(f)
    if L.variables != f.variables:
        raise ValueError("element and form use different variable tuples")
    checks = []
    ok = True
    for k, l in _criterion_maps(f, prop):
        hess = mixed_hessian(f, k, l)
        required = min(hess.nrows, hess.ncols)
        achieved = evaluated_rank(hess, L.point())
        checks.append(_map_check(hess, required, achieved))
        ok = ok and achieved == required
    return LefschetzReport(prop, "holds" if ok else "fails", L, checks)


def lefschetz_property(f: Form, prop: str,
                       policy: RankPolicy | None = None) -> LefschetzReport:
    """Existence version: does some linear element have the property.

    Holds when a sampled element passes (existence is enough); fails
    only on a certified generic obstruction; otherwise undetermined.
    No element is sampled when some Hessian's support matching number
    is below min(m, n): the rank at every point is at most nu, so no
    element could pass, and ``generic_rank`` gives the verdict.
    """
    policy = policy or RankPolicy()
    require_analysis_form(f)
    maps = _criterion_maps(f, prop)
    hessians = [mixed_hessian(f, k, l) for k, l in maps]
    required = [min(h.nrows, h.ncols) for h in hessians]
    if all(h.support_bound == r for h, r in zip(hessians, required)):
        for point in seeded_points(policy, f.nvars):
            achieved = [evaluated_rank(h, point) for h in hessians]
            if all(a == r for a, r in zip(achieved, required)):
                checks = [_map_check(h, r, a)
                          for h, r, a in zip(hessians, required, achieved)]
                return LefschetzReport(prop, "holds", LinearForm(f.variables, point),
                                       checks, ["sampled witness element recorded"])
    verdict = "undetermined"
    checks = []
    notes = []
    for h, r in zip(hessians, required):
        report = generic_rank(h, policy)
        checks.append({**_map_check(h, r, report.value), "certainty": report.certainty})
        if report.certified and report.value < r:
            verdict = "fails"
            notes.append(f"multiplication from degree {h.l} into degree "
                         f"{f.degree - h.k} has certified generic rank "
                         f"{report.value} < {r}, for every linear element")
    if verdict != "fails":
        notes.append("no sampled element passed and no certified obstruction found")
    return LefschetzReport(prop, verdict, None, checks, notes)


def multiplication_map_rank(f: Form, L: LinearForm, k: int, l: int) -> int:
    """Rank of multiplication by L^(l-k) from degree k to degree l.

    Built directly from the products L^(l-k) * m, m in the degree-k
    basis, so it is an independent cross-check for the evaluated
    Hessian rank.  The rank is that of their images (L^(l-k) * m)(f):
    an operator of degree l is zero in A_f exactly when it annihilates
    f, so g -> g(f) is injective on degree l and keeps every rank.
    """
    require_analysis_form(f)
    if not 0 <= k < l <= f.degree:
        raise ValueError(f"need 0 <= k < l <= {f.degree}, got ({k}, {l})")
    if L.variables != f.variables:
        raise ValueError("element and form use different variable tuples")
    op = power(L, l - k)
    images = []
    for e in apolar_basis(f, k).monomials:
        image = apply(multiply(op, monomial(f.variables, e)), f)
        images.append({} if image is None else image.terms)
    return linalg.sparse_rank(images)
