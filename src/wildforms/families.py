"""Named families of forms with ready-made analysis hints.

Each buildable family returns the form together with the certificate
strategy that its structure suggests: the variable partition, the
conciseness order to target, border bound hints (an exact part list
when the form is a bihomogeneous chunk plus powers), and notes.
Randomized constructions are seeded and verified after building; a
draw that fails its conciseness check is retried with the next seed a
bounded number of times.

Two families are formula-only: their members are too large to build
as explicit forms here, but the certified bound pair (cactus threshold
and border upper bound) follows closed formulas exposed as functions.
Both kinds live in one table, ``FAMILIES``.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import partial

from .apolar import maximal_hilbert_through
from .bounds import CertificateStrategy
from .poly import (Form, LinearForm, form_sum, make_form, monomial, monomials,
                   multiply, power)

RESEED_CAP = 5


@dataclass
class FamilyResult:
    """A built family member, the strategy hints for analyzing it, and
    the seed its generic draws came from."""

    form: Form
    strategy: CertificateStrategy
    seed: int


def generic_linear_forms(variables, count: int, seed: int = 0,
                         drawn: int | None = None) -> list[LinearForm]:
    """Seeded pairwise non-proportional linear forms with entries in [-9, 9].

    With ``drawn``, entries are drawn for the first ``drawn`` variables
    only: the forms drawn over those alone, padded with zeros."""
    rng = random.Random(seed)
    tail = [0] * (len(variables) - drawn) if drawn is not None else []
    out: list[LinearForm] = []
    while len(out) < count:
        coeffs = [rng.randint(-9, 9) for _ in variables[:drawn]]
        if all(c == 0 for c in coeffs):
            continue
        cand = LinearForm(variables, coeffs + tail)
        if any(cand.proportional(seen) for seen in out):
            continue
        out.append(cand)
    return out


def _xvar_names(count: int) -> tuple[str, ...]:
    if count <= 4:
        return tuple("xyzw"[:count])
    return tuple(f"x{i}" for i in range(1, count + 1))


# parameterless members: (x-variables, u-variables, terms, conciseness order k)
_FIXED = {
    "perazzo": (("x", "y", "z"), ("u", "v"),
                {(1, 0, 0, 2, 0): 1, (0, 1, 0, 1, 1): 1, (0, 0, 1, 0, 2): 1}, 1),
    "bb-cubic": (("x", "y", "z"), ("u", "v"),
                 {(1, 0, 0, 2, 0): 1, (0, 1, 0, 2, 0): 1, (0, 1, 0, 1, 1): 2,
                  (0, 1, 0, 0, 2): 1, (0, 0, 1, 0, 2): 1}, 1),
    "ikeda": (("x", "y"), ("u", "v"),
              {(1, 0, 3, 1): 1, (0, 1, 1, 3): 1, (2, 3, 0, 0): 1}, 2),
}


def _build_fixed(name: str, seed: int) -> FamilyResult:
    x_vars, u_vars, terms, k = _FIXED[name]
    strategy = CertificateStrategy(x_vars=x_vars, u_vars=u_vars, k=k)
    return FamilyResult(make_form(x_vars + u_vars, terms), strategy, seed)


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
        lines = generic_linear_forms(variables, count, seed + attempt, drawn=nx)
        powers = [power(l, d + 2) for l in lines]
        f = form_sum([chunk] + powers)
        if f is not None and maximal_hilbert_through(f, 2):
            strategy = CertificateStrategy(x_vars=x_vars, u_vars=u_vars, k=2,
                                           parts=[chunk] + powers)
            return FamilyResult(f, strategy, seed + attempt)
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
    # the slice rank binom(n+k,k) beats the threshold k+1 only from n = 2
    notes = [f"the vanishing route certifies cactus rank > {threshold} "
             f"= binom({n + 2 + k},{k}); a doubled threshold of "
             f"{2 * threshold} is not certified by the implemented routes"
             ] if n >= 2 else []
    strategy = CertificateStrategy(x_vars=x_vars, u_vars=u_vars, k=k, notes=notes)
    return FamilyResult(f, strategy, seed)


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
    return FamilyResult(f, strategy, seed)


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
    elif e < 0:
        raise ValueError("need e >= 0")
    threshold = math.comb(s + 4, 2)
    border = 16 * e + 40
    return {"s": s, "e": e, "variables": s + 3,
            "cactus_threshold": threshold, "border_bound": border,
            "wild": border <= threshold}


# name: (function, (fewest, most) integer arguments, description, buildable);
# a buildable family's function also takes the seed last
FAMILIES = {
    "perazzo": (partial(_build_fixed, "perazzo"), (0, 0),
                "Perazzo cubic x*u^2 + y*u*v + z*v^2", True),
    "bb-cubic": (partial(_build_fixed, "bb-cubic"), (0, 0),
                 "cubic x*u^2 + y*(u+v)^2 + z*v^2", True),
    "ikeda": (partial(_build_fixed, "ikeda"), (0, 0),
              "quintic x*u^3*v + y*u*v^3 + x^2*y^3", True),
    "exceptional": (_build_exceptional, (2, 2),
                    "bigraded chunk plus C(n+1,2) generic powers, degree d+2", True),
    "monomial-spread": (_build_monomial_spread, (2, 2),
                        "every degree-k monomial carried by a distinct u,v slot", True),
    "power-family": (_build_power_family, (1, 1),
                     "(x*u^d + y*u^(d-1)*v + z*v^d)^(d-1), buildable for d <= 4", True),
    "power-family-large": (power_family_bounds, (1, 1),
                           "power_family_bounds(d) for members above d = 4", False),
    "gn-quartic-formula": (gn_quartic_bounds, (1, 2),
                           "gn_quartic_bounds(s, e) for the quartic family", False),
}


def _names(buildable: bool) -> list[str]:
    return sorted(name for name, entry in FAMILIES.items() if entry[3] is buildable)


def family_names() -> list[str]:
    return _names(True)


def family_info() -> list[dict]:
    """Buildable families, then formula-only ones, each sorted by name."""
    return [{"name": name, "parameters": FAMILIES[name][1][0] if buildable else None,
             "description": FAMILIES[name][2], "buildable": buildable}
            for buildable in (True, False) for name in _names(buildable)]


_SPEC_RE = re.compile(r"^\s*([a-z][a-z0-9-]*)\s*(?:\(\s*([-0-9,\s]*)\s*\))?\s*$")


def _parse_spec(spec: str, kind: str) -> tuple[str, list[int]]:
    """Name and integer arguments of a spec like "exceptional(3,5)"."""
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"unreadable {kind} spec {spec!r}")
    name, arg_text = match.group(1), match.group(2) or ""
    args = []
    for piece in filter(str.strip, arg_text.split(",")):
        try:
            args.append(int(piece))
        except ValueError:
            raise ValueError(f"{kind} spec {spec!r} has a non-integer "
                             f"argument {piece.strip()!r}") from None
    return name, args


def build(spec: str, seed: int = 0) -> FamilyResult:
    """Build a family member from a spec like "ikeda" or "exceptional(3,5)"."""
    name, args = _parse_spec(spec, "family")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; known: "
                         + ", ".join(family_names()))
    builder, (arity, _), description, buildable = FAMILIES[name]
    if not buildable:
        raise ValueError(f"{name} is formula-only and cannot be built; "
                         f"{description}")
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} integer parameter(s), "
                         f"got {len(args)}")
    return builder(*args, seed)


def evaluate_formula(spec: str) -> tuple[str, dict]:
    """Name and bound pair of a formula-only spec like "power-family-large(17)"."""
    name, args = _parse_spec(spec, "formula")
    if name not in _names(False):
        raise ValueError(f"unknown formula {name!r}; known: "
                         + ", ".join(_names(False)))
    func, (lo, hi), _, _ = FAMILIES[name]
    if not lo <= len(args) <= hi:
        raise ValueError(f"{name} takes between {lo} and {hi} integers")
    return name, func(*args)
