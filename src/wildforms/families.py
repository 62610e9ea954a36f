"""Named families of forms with ready-made analysis hints.

Each buildable family returns the form together with the variable
partition and the certificate strategy that its structure suggests:
the conciseness order to target, border bound hints (an exact part
list when the form is a bihomogeneous chunk plus powers), and notes.
Randomized constructions are seeded and verified after building; a
draw that fails its conciseness check is retried with the next seed a
bounded number of times.

Two families are formula-only: their members are too large to build
as explicit forms here, but the certified bound pair (cactus threshold
and border upper bound) follows closed formulas exposed as functions.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

from .apolar import maximal_hilbert_through
from .bounds import CertificateStrategy
from .hessian import RankPolicy
from .poly import (Form, LinearForm, form_sum, make_form, monomial, monomials,
                   multiply, power, scale)

RESEED_CAP = 5


@dataclass
class FamilyResult:
    """A built family member plus the strategy hints for analyzing it."""

    name: str
    params: dict
    form: Form
    x_vars: tuple
    u_vars: tuple
    strategy: CertificateStrategy
    notes: list[str] = field(default_factory=list)
    seed: int | None = None


def generic_linear_forms(variables, count: int, seed: int = 0,
                         low: int = -9, high: int = 9) -> list[LinearForm]:
    """Seeded pairwise non-proportional linear forms with small entries."""
    rng = random.Random(seed)
    out: list[LinearForm] = []
    while len(out) < count:
        coeffs = [rng.randint(low, high) for _ in variables]
        if all(c == 0 for c in coeffs):
            continue
        cand = LinearForm(variables, coeffs)
        if any(cand.proportional(seen) for seen in out):
            continue
        out.append(cand)
    return out


def _xvar_names(count: int) -> tuple[str, ...]:
    if count <= 4:
        return tuple("xyzw"[:count])
    return tuple(f"x{i}" for i in range(1, count + 1))


def _build_perazzo(seed: int) -> FamilyResult:
    variables = ("x", "y", "z", "u", "v")
    terms = {(1, 0, 0, 2, 0): 1, (0, 1, 0, 1, 1): 1, (0, 0, 1, 0, 2): 1}
    f = make_form(variables, terms)
    strategy = CertificateStrategy(x_vars=("x", "y", "z"), u_vars=("u", "v"), k=1)
    return FamilyResult("perazzo", {}, f, ("x", "y", "z"), ("u", "v"), strategy)


def _build_bb_cubic(seed: int) -> FamilyResult:
    variables = ("x", "y", "z", "u", "v")
    terms = {(1, 0, 0, 2, 0): 1, (0, 1, 0, 2, 0): 1, (0, 1, 0, 1, 1): 2,
             (0, 1, 0, 0, 2): 1, (0, 0, 1, 0, 2): 1}
    f = make_form(variables, terms)
    strategy = CertificateStrategy(x_vars=("x", "y", "z"), u_vars=("u", "v"), k=1)
    return FamilyResult("bb-cubic", {}, f, ("x", "y", "z"), ("u", "v"), strategy)


def _build_ikeda(seed: int) -> FamilyResult:
    variables = ("x", "y", "u", "v")
    terms = {(1, 0, 3, 1): 1, (0, 1, 1, 3): 1, (2, 3, 0, 0): 1}
    f = make_form(variables, terms)
    strategy = CertificateStrategy(x_vars=("x", "y"), u_vars=("u", "v"),
                                   k=2, hessian_pair=(2, 2))
    return FamilyResult("ikeda", {}, f, ("x", "y"), ("u", "v"), strategy)


def _build_exceptional(n: int, d: int, seed: int) -> FamilyResult:
    if n < 2:
        raise ValueError("need n >= 2: with one x-variable the form has at most "
                         "5 nonzero rows in slice 2, below dim Q_2 = 6, so no "
                         "draw is 2-concise")
    if d < 2 * n - 1:
        raise ValueError(f"need d >= {2 * n - 1} so every u-exponent is positive")
    x_vars = _xvar_names(n)
    u_vars = ("u", "v")
    variables = x_vars + u_vars
    nx = len(x_vars)
    chunk_terms = {}
    for i in range(1, n + 1):
        exponent = tuple(1 if j == i - 1 else 0 for j in range(nx)) \
            + (d - 2 * (i - 1), 2 * i - 1)
        chunk_terms[exponent] = 1
    chunk = make_form(variables, chunk_terms)
    count = math.comb(n + 1, 2)
    for attempt in range(RESEED_CAP):
        drawn = generic_linear_forms(x_vars, count, seed + attempt)
        lines = [LinearForm(variables, tuple(l.coefficients) + (0, 0))
                 for l in drawn]
        powers = [power(l, d + 2) for l in lines]
        f = form_sum([chunk] + powers)
        if f is not None and maximal_hilbert_through(f, 2):
            strategy = CertificateStrategy(
                x_vars=x_vars, u_vars=u_vars, k=2,
                parts=[chunk] + powers)
            return FamilyResult("exceptional", {"n": n, "d": d}, f,
                                x_vars, u_vars, strategy,
                                seed=seed + attempt)
    raise RuntimeError(f"no 2-concise draw within {RESEED_CAP} reseeds")


def _build_monomial_spread(n: int, k: int, seed: int) -> FamilyResult:
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    x_vars = _xvar_names(n + 1)
    u_vars = ("u", "v")
    variables = x_vars + u_vars
    b = math.comb(n + k, k)
    pieces = []
    for i, m in enumerate(monomials(n + 1, k)):
        pieces.append(monomial(variables, m + (b - 1 - i, i)))
    f = form_sum(pieces)
    threshold = math.comb(n + 2 + k, k)
    strategy = CertificateStrategy(x_vars=x_vars, u_vars=u_vars, k=k)
    notes = [f"the vanishing route certifies cactus rank > {threshold} "
             f"= binom({n + 2 + k},{k}); a doubled threshold of "
             f"{2 * threshold} is not certified by the implemented routes"]
    strategy.notes = list(notes)
    return FamilyResult("monomial-spread", {"n": n, "k": k}, f,
                        x_vars, u_vars, strategy, notes=notes)


def _build_power_family(d: int, seed: int) -> FamilyResult:
    if d < 2:
        raise ValueError("need d >= 2")
    if d > 4:
        raise ValueError("members above d = 4 are formula-only; "
                         "see power_family_bounds")
    variables = ("x", "y", "z", "u", "v")
    base = make_form(variables, {(1, 0, 0, d, 0): 1,
                                 (0, 1, 0, d - 1, 1): 1,
                                 (0, 0, 1, 0, d): 1})
    f = base
    for _ in range(d - 2):
        f = multiply(f, base)
    k = d - 1
    if not maximal_hilbert_through(f, k):
        raise RuntimeError(f"the built member is not {k}-concise")
    strategy = CertificateStrategy(x_vars=("x", "y", "z"), u_vars=("u", "v"), k=k)
    return FamilyResult("power-family", {"d": d}, f,
                        ("x", "y", "z"), ("u", "v"), strategy)


def power_family_bounds(d: int) -> dict:
    """Certified bound pair for the degree-(d^2-1) power family member."""
    if d < 2:
        raise ValueError("need d >= 2")
    threshold = math.comb(d + 3, 4)
    border = (d - 1) * (d * d + 1)
    return {"d": d, "degree": d * d - 1, "variables": 5,
            "cactus_threshold": threshold, "border_bound": border,
            "wild": border <= threshold}


def gn_quartic_bounds(s: int, e: int | None = None) -> dict:
    """Certified bound pair for the vanishing-hessian quartic family."""
    if s < 1:
        raise ValueError("need s >= 1")
    if e is None:
        e = 2 * (s // 2)
    threshold = math.comb(s + 4, 2)
    border = 16 * e + 40
    return {"s": s, "e": e, "variables": s + 3,
            "cactus_threshold": threshold, "border_bound": border,
            "wild": border <= threshold}


_BUILDERS = {
    "perazzo": (_build_perazzo, 0, "Perazzo cubic x*u^2 + y*u*v + z*v^2"),
    "bb-cubic": (_build_bb_cubic, 0, "cubic x*u^2 + y*(u+v)^2 + z*v^2"),
    "ikeda": (_build_ikeda, 0, "quintic x*u^3*v + y*u*v^3 + x^2*y^3"),
    "exceptional": (_build_exceptional, 2,
                    "bigraded chunk plus C(n+1,2) generic powers, degree d+2"),
    "monomial-spread": (_build_monomial_spread, 2,
                        "every degree-k monomial carried by a distinct u,v slot"),
    "power-family": (_build_power_family, 1,
                     "(x*u^d + y*u^(d-1)*v + z*v^d)^(d-1), buildable for d <= 4"),
}

# name: (bound function, (fewest, most) integer arguments, description)
FORMULA_ONLY = {
    "power-family-large": (power_family_bounds, (1, 1),
                           "power_family_bounds(d) for members above d = 4"),
    "gn-quartic-formula": (gn_quartic_bounds, (1, 2),
                           "gn_quartic_bounds(s, e) for the quartic family"),
}


def family_names() -> list[str]:
    return sorted(_BUILDERS)


def family_info() -> list[dict]:
    rows = [{"name": name, "parameters": args, "description": desc,
             "buildable": True}
            for name, (_, args, desc) in sorted(_BUILDERS.items())]
    rows += [{"name": name, "parameters": None, "description": desc,
              "buildable": False}
             for name, (_, _, desc) in sorted(FORMULA_ONLY.items())]
    return rows


_SPEC_RE = re.compile(r"^\s*([a-z][a-z0-9-]*)\s*(?:\(\s*([-0-9,\s]*)\s*\))?\s*$")


def _parse_spec(spec: str, kind: str) -> tuple[str, list[int]]:
    """Name and integer arguments of a spec like "exceptional(3,5)"."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"unreadable {kind} spec {spec!r}")
    name, arg_text = match.group(1), match.group(2) or ""
    return name, [int(piece) for piece in arg_text.split(",") if piece.strip()]


def build(spec: str, seed: int = 0) -> FamilyResult:
    """Build a family member from a spec like "ikeda" or "exceptional(3,5)"."""
    name, args = _parse_spec(spec, "family")
    if name in FORMULA_ONLY:
        raise ValueError(f"{name} is formula-only and cannot be built; "
                         f"{FORMULA_ONLY[name][2]}")
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: "
                         + ", ".join(family_names()))
    builder, arity, _ = _BUILDERS[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} integer parameter(s), "
                         f"got {len(args)}")
    result = builder(*args, seed)
    if result.seed is None:
        result.seed = seed
    return result


def evaluate_formula(spec: str) -> tuple[str, dict]:
    """Name and bound pair of a formula-only spec like "power-family-large(17)"."""
    name, args = _parse_spec(spec, "formula")
    if name not in FORMULA_ONLY:
        raise ValueError(f"unknown formula {name!r}; known: "
                         + ", ".join(sorted(FORMULA_ONLY)))
    func, (lo, hi), _ = FORMULA_ONLY[name]
    if not lo <= len(args) <= hi:
        raise ValueError(f"{name} takes between {lo} and {hi} integers")
    return name, func(*args)
