"""Power sum decompositions and the Waring side of the toolkit.

A decomposition is a list of pairwise non-proportional linear forms
with nonzero rational scalars whose scaled d-th powers sum to the
target exactly.  The Veronese coordinate matrix W_k of a decomposition
evaluates the degree-k apolar basis monomials at the points, and the
mixed Hessian of the target factors as d!/(l-k)! * W_{d-l} * D * W_k^t
with D diagonal in the scaled powers; that identity is what
factorization_check verifies entry by entry.

Binary Waring ranks follow the annihilator scan: the rank is the least
r whose kernel slice contains a squarefree operator.  Squarefreeness of
one binary form is an exact gcd test on an integer dehomogenization,
by a primitive pseudo-remainder sequence, with degree bookkeeping for
the root at infinity.  Whether a whole kernel slice contains any
squarefree member follows one rule in every dimension: each member is
tested, then 32 seeded integer combinations of the members, and the
exact fallback is the resultant of the partials of a symbolic member,
taken as the determinant of their Bezout matrix (half the size of the
Sylvester matrix).
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

from . import linalg, polymat
from .apolar import apolar_basis, catalecticant, require_analysis_form
from .hessian import mixed_hessian
from .poly import Form, form_sum, power, scale


class PowerSumDecomposition:
    """Exact scaled power sum: sum of c_i * l_i^d equal to the target."""

    def __init__(self, linear_forms, degree: int, scalars=None,
                 target: Form | None = None):
        forms = tuple(linear_forms)
        if not forms:
            raise ValueError("a decomposition needs at least one linear form")
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if scalars is None:
            weights = tuple(Fraction(1) for _ in forms)
        else:
            weights = tuple(Fraction(c) for c in scalars)
        if len(weights) != len(forms):
            raise ValueError("scalar list length does not match the forms")
        if any(c == 0 for c in weights):
            raise ValueError("zero scalars are not allowed")
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                if forms[i].proportional(forms[j]):
                    raise ValueError(
                        f"linear forms {i} and {j} are proportional")
        total = form_sum(scale(power(l, degree), c)
                         for l, c in zip(forms, weights))
        if total is None:
            raise ValueError("the scaled powers cancel to zero")
        if target is not None and total != target:
            raise ValueError("the scaled powers do not sum to the target")
        self.linear_forms = forms
        self.scalars = weights
        self.degree = degree
        self.target = total

    @property
    def length(self) -> int:
        return len(self.linear_forms)

    @property
    def is_pure(self) -> bool:
        return all(c == 1 for c in self.scalars)


def verify_decomposition(dec: PowerSumDecomposition) -> bool:
    """Recompute the scaled power sum and compare with the target."""
    total = form_sum(scale(power(l, dec.degree), c)
                     for l, c in zip(dec.linear_forms, dec.scalars))
    return total == dec.target


class VeroneseMatrix:
    """Degree-k apolar basis monomials evaluated at the decomposition points."""

    def __init__(self, dec: PowerSumDecomposition, k: int):
        if k < 0 or k > dec.degree:
            raise ValueError(f"need 0 <= k <= {dec.degree}")
        self.basis = apolar_basis(dec.target, k)
        self.k = k
        self.entries: list[list[Fraction]] = []
        for exponent in self.basis.monomials:
            row = []
            for l in dec.linear_forms:
                value = Fraction(1)
                for a, e in zip(l.coefficients, exponent):
                    if e:
                        value *= a ** e
                row.append(value)
            self.entries.append(row)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def rank(self) -> int:
        return linalg.rank(self.entries) if self.entries else 0


def factorization_check(dec: PowerSumDecomposition, k: int, l: int) -> bool:
    """Exact test of mixed Hessian = d!/(l-k)! * W_{d-l} * D_{k,l} * W_k^t.

    The diagonal D carries the decomposition scalars along with the
    powers l_r^(l-k), which keeps the identity true for signed inputs.
    """
    d = dec.degree
    if not (0 <= k <= l and k + l <= d):
        raise ValueError(f"need 0 <= k <= l with k+l <= {d}, got ({k}, {l})")
    target = dec.target
    hess = mixed_hessian(target, d - l, k)
    w_left = VeroneseMatrix(dec, d - l)
    w_right = VeroneseMatrix(dec, k)
    if (hess.row_basis.monomials != w_left.basis.monomials
            or hess.col_basis.monomials != w_right.basis.monomials):
        raise RuntimeError("basis mismatch between Hessian and W matrices")
    scalar = math.factorial(d) // math.factorial(l - k)
    middle = [scale(power(lin, l - k), c * scalar)
              for lin, c in zip(dec.linear_forms, dec.scalars)]
    for i in range(hess.nrows):
        for j in range(hess.ncols):
            pieces = []
            for r in range(dec.length):
                c = w_left.entries[i][r] * w_right.entries[j][r]
                if c != 0:
                    pieces.append(scale(middle[r], c))
            if form_sum(pieces) != hess.entries[i][j]:
                return False
    return True


def hessian_nonvanishing(dec: PowerSumDecomposition, k: int) -> bool:
    """Whether a length-a_k decomposition certifies hess^k != 0.

    With s = a_k the factorization is square, D is invertible, and W_k
    of full rank forces a nonzero determinant; the rank of W_k is the
    only thing left to check.
    """
    d = dec.degree
    if 2 * k > d:
        raise ValueError(f"need 2k <= {d}")
    w = VeroneseMatrix(dec, k)
    if dec.length != w.nrows:
        raise ValueError(
            f"decomposition length {dec.length} is not a_{k} = {w.nrows}")
    return w.rank() == dec.length


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by b, deg a >= deg b.

    Both are trimmed ascending coefficient lists; neither is modified.
    """
    lead = b[-1]
    db = len(b) - 1
    while len(a) > db:
        q = a[-1]
        shift = len(a) - 1 - db
        a = [lead * v for v in a]
        for i, v in enumerate(b):
            a[shift + i] -= q * v
        _trim(a)
    g = math.gcd(*a)
    return [v // g for v in a] if g > 1 else a


def _squarefree_coefficients(p: list[int], degree: int) -> bool:
    """Whether the binary form with x-ascending coefficients p is squarefree.

    p lists f(t, 1) by ascending power of t, with f of degree
    ``degree``; a degree drop of two or more is a double root at
    infinity.  The finite roots are checked by the primitive
    pseudo-remainder sequence of p and p', which has the degrees of
    the Euclidean one over Q.
    """
    p = _trim(list(p))
    dp = len(p) - 1
    if degree - dp > 1:
        return False  # root at infinity with multiplicity >= 2
    if dp < 1:
        return True
    a, b = p, [i * p[i] for i in range(1, dp + 1)]
    while b:
        a, b = b, _primitive_prem(a, b)
    return len(a) == 1


def _integer_coefficients(forms: list[Form]) -> list[list[int]]:
    """f(t, 1) coefficient lists of binary forms, times one common lcm."""
    common = math.lcm(*(c.denominator for f in forms for c in f.terms.values()))
    out = []
    for f in forms:
        p = [0] * (f.degree + 1)
        for (a, _), c in f.terms.items():
            p[a] = c.numerator * (common // c.denominator)
        out.append(p)
    return out


def is_squarefree_binary(f: Form) -> bool:
    """No repeated root on the projective line, decided exactly."""
    require_analysis_form(f)
    if f.nvars != 2:
        raise ValueError("squarefree test is for binary forms")
    return _squarefree_coefficients(_integer_coefficients([f])[0], f.degree)


def _resultant(a: list[polymat.Poly], b: list[polymat.Poly],
               guard: int) -> polymat.Poly:
    """Resultant of two binary forms given by descending coefficient lists.

    Both forms have formal degree n.  The resultant is
    (-1)^(n(n-1)/2) times the determinant of the n x n Bezout matrix
    of (p(x)q(y) - p(y)q(x))/(x - y), indexed by ascending powers,
    half the size of the Sylvester matrix.
    """
    n = len(a) - 1
    p, q = a[::-1], b[::-1]
    bezout: list[list[polymat.Poly]] = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            c = polymat.psub(polymat.pmul(p[i], q[j]), polymat.pmul(p[j], q[i]))
            if c:
                for s in range(j - i):
                    row = bezout[i + s]
                    row[j - 1 - s] = polymat.psub(row[j - 1 - s], c)
    det = polymat.bareiss_det(bezout, guard)
    return polymat.pneg(det) if n * (n - 1) // 2 % 2 else det


def _space_has_squarefree(basis: list[Form]) -> bool:
    """Whether a linear space of binary forms has a squarefree member.

    Tries each member, then 32 seeded integer combinations of the
    members lifted by one common lcm c.  The exact fallback tests whether
    the resultant of the partials of the symbolic member sum t_i g_i
    vanishes identically, which settles existence over the complex
    numbers.  Lifting g_i by c rather than by its own lcm c_i is the
    invertible substitution t_i -> t_i * c_i / c, which cannot change
    whether Res(F_x, F_y) vanishes identically.
    """
    for g in basis:
        if is_squarefree_binary(g):
            return True
    dim = len(basis)
    if dim == 1:
        return False
    degree = basis[0].degree
    lifted = _integer_coefficients(basis)
    columns = list(zip(*lifted))
    rng = random.Random(0)
    for _ in range(32):
        combo = [rng.randint(-9, 9) for _ in range(dim)]
        candidate = [sum(map(operator.mul, combo, col)) for col in columns]
        if any(candidate) and _squarefree_coefficients(candidate, degree):
            return True
    # exact decision: member F(t) = sum t_i g_i, test Res(F_x, F_y) == 0
    units = [polymat.pack([int(j == i) for j in range(dim)]) for i in range(dim)]
    members = list(zip(units, lifted))
    # coefficient of x^a y^(degree-1-a) in each partial, descending in a
    fx = [{u: (a + 1) * g[a + 1] for u, g in members if g[a + 1]}
          for a in range(degree - 1, -1, -1)]
    fy = [{u: (degree - a) * g[a] for u, g in members if g[a]}
          for a in range(degree - 1, -1, -1)]
    return bool(_resultant(fx, fy, polymat.guard_mask(dim)))


def binary_waring_rank(f: Form) -> int:
    """Least r whose annihilator slice contains a squarefree operator."""
    require_analysis_form(f)
    if f.nvars != 2:
        raise ValueError("binary forms only")
    for r in range(1, f.degree + 1):
        kernel = catalecticant(f, r).kernel_basis
        if kernel and _space_has_squarefree(kernel):
            return r
    raise RuntimeError("no squarefree annihilator found through the degree")
