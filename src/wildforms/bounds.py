"""Border rank upper bounds, cactus rank lower bounds, wild certificates.

Border bounds come from closed formulas (monomials, bihomogeneous
forms in two u-variables), from explicit power sum decompositions, and
from additivity over an exact splitting of the form.  Cactus lower
bounds come from two certified routes: a k-concise form whose k-th
Hessian determinant vanishes identically has cactus rank above the
k-th catalecticant dimension, and a k-concise form with unimodal
Hilbert function and a rank-deficient mixed Hessian slice satisfies
the same bound.  A wild certificate packages one bound of each kind;
the verdict is "wild" exactly when the certified border upper bound
does not exceed the certified cactus threshold, so the cactus rank
strictly beats the border rank.  The certificate runs the vanishing
route at its order k: the degenerate route at the pair (k,k) asks the
same question of the same Hessian, so it is subsumed, and it remains
available for other pairs (l,s).

Every certifying step records how it was established.  Given a
bigraded form, the vanishing route first tries the structural slice
rank count.  Past that, both routes ask whether a mixed Hessian has
generic rank below a bound, and answer it one way: a support matching
number nu below the bound is structural evidence that needs no
evaluation; otherwise only a certified report of ``generic_rank``
counts, and a certified-symbolic one carries a kernel witness verified
exactly over Z[x], so every symbolic claim can be re-checked.  When
the ladder cannot certify, the routes report failure rather than
downgrade to sampled evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import linalg
from .apolar import (catalecticant, conciseness, hilbert, maximal_hilbert_through,
                     require_analysis_form)
from .hessian import RankPolicy, generic_rank, mixed_hessian
from .poly import Form, bigrade, form_sum, make_form, render
from .powersum import PowerSumDecomposition, verify_decomposition

SCHEMA = "wild-certificate/1"


@dataclass
class BorderBound:
    """Certified upper bound on the border rank of a form."""

    value: int
    method: str
    parts: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"value": self.value, "method": self.method,
                "parts": list(self.parts), "notes": list(self.notes)}


def border_bound_monomial(f: Form) -> int:
    """Product of (e+1) over the exponents after dropping the largest."""
    require_analysis_form(f)
    if len(f.terms) != 1:
        raise ValueError("the monomial bound needs a single-term form")
    exponent, = f.terms
    ordered = sorted(exponent, reverse=True)
    return math.prod(e + 1 for e in ordered[1:])


def border_bound_bihomogeneous(f: Form, x_vars, u_vars) -> int:
    """k(d+2) for a bidegree (k, e) form with 1 <= k <= e and two u-variables."""
    require_analysis_form(f)
    if len(tuple(u_vars)) != 2:
        raise ValueError("the bihomogeneous bound needs exactly two u-variables")
    k, e = bigrade(f, x_vars, u_vars)
    if not 1 <= k <= e:
        raise ValueError(f"need bidegree (k, e) with 1 <= k <= e, got ({k}, {e})")
    return k * (f.degree + 2)


def _is_linear_power(g: Form) -> bool:
    """Whether g is a power of a linear form: slice 1, the first partials
    of g, has rank 1.  With g's coefficients lifted to integers, every
    nonzero partial (c*e_i at e - u_i for each term c*x^e) must have the
    first one's monomials and cells proportional to its cells, checked
    by cross-multiplication; no slice is built or eliminated."""
    lift = math.lcm(*(c.denominator for c in g.terms.values()))
    partials: list[dict] = [{} for _ in g.variables]
    for e, c in g.terms.items():
        n = c.numerator * (lift // c.denominator)
        for i, a in enumerate(e):
            if a:
                partials[i][e[:i] + (a - 1,) + e[i + 1:]] = a * n
    first, *rest = [p for p in partials if p]
    pivot = next(iter(first))
    for p in rest:
        if p.keys() != first.keys():
            return False
        a, b = first[pivot], p[pivot]
        if any(p[m] * a != c * b for m, c in first.items()):
            return False
    return True


def _resolve_part(g: Form, x_vars, u_vars) -> tuple[int, str] | None:
    if len(g.terms) == 1:
        return border_bound_monomial(g), "monomial"
    if _is_linear_power(g):
        return 1, "power"
    if x_vars and u_vars:
        try:
            return border_bound_bihomogeneous(g, x_vars, u_vars), "bihomogeneous"
        except ValueError:
            return None
    return None


def _split_by_x_degree(f: Form, x_vars) -> list[Form]:
    indices = [f.variables.index(v) for v in x_vars]
    groups: dict[int, dict] = {}
    for exponent, c in f.terms.items():
        key = sum(exponent[i] for i in indices)
        groups.setdefault(key, {})[exponent] = c
    return [make_form(f.variables, terms) for _, terms in sorted(groups.items())]


def border_upper(f: Form, x_vars=None, u_vars=None, *,
                 decomposition: PowerSumDecomposition | None = None,
                 parts: list[Form] | None = None) -> BorderBound | None:
    """Best available certified border rank upper bound, or None.

    An explicit decomposition wins; otherwise the form is split into
    parts (given ones, else grouped by degree in the x-variables, else
    taken whole) and each part must resolve through the monomial,
    linear power, or bihomogeneous formula.
    """
    require_analysis_form(f)
    if decomposition is not None:
        if decomposition.target != f:
            raise ValueError("the decomposition targets a different form")
        if not verify_decomposition(decomposition):
            raise RuntimeError("stored decomposition fails verification")
        return BorderBound(decomposition.length, "explicit-decomposition",
                           parts=[{"length": decomposition.length,
                                   "pure": decomposition.is_pure}])
    if parts is not None:
        pieces = list(parts)
        if form_sum(pieces) != f:
            raise ValueError("the given parts do not sum to the form")
    elif x_vars:
        pieces = _split_by_x_degree(f, x_vars)
    else:
        pieces = [f]
    resolved = []
    for g in pieces:
        got = _resolve_part(g, x_vars, u_vars)
        if got is None:
            return None
        value, how = got
        resolved.append({"part": render(g), "method": how, "value": value})
    total = sum(item["value"] for item in resolved)
    method = resolved[0]["method"] if len(resolved) == 1 else "additive"
    return BorderBound(total, method, parts=resolved)


def generic_waring_rank(nvars: int, degree: int) -> int:
    """Rank of a generic form: the dimension count with the known exceptions."""
    if nvars < 1 or degree < 1:
        raise ValueError("need at least one variable and degree at least 1")
    if degree == 2:
        return nvars
    n = nvars - 1
    base = -(-math.comb(n + degree, degree) // nvars)
    if (n, degree) in {(2, 4), (3, 4), (4, 4), (4, 3)}:
        return base + 1
    return base


def slice_rank_vanishing(f: Form, x_vars, u_vars) -> dict | None:
    """Structural vanishing of hess^k from the bigraded coefficient matrix.

    For a bidegree (k, e) form with k < e, rows indexed by degree-k
    monomials in the x-variables and columns by degree-e monomials in
    the u-variables hold the coefficients.  Basis monomials of the
    apolar algebra in degree k contract the form into distinct
    x-degrees, so the k-th Hessian is block anti-triangular in the
    x-degree grading: a block pairing rows of x-degree j1 with columns
    of x-degree j2 vanishes whenever j1 + j2 > k.  The pure-x block
    contributes the slice rank s many rows, and they can only pair
    against pure-u columns, of which there are at most as many as
    degree-k monomials in the u-variables; s above that count leaves
    some row of every determinant term in a vanished block, so the
    k-th Hessian determinant vanishes identically.

    The matrix is read off catalecticant slice k: its pure-x row alpha
    is coefficient row alpha times alpha! and the slice's denominator,
    so the pure-x rows have rank s.
    """
    require_analysis_form(f)
    try:
        k, e = bigrade(f, x_vars, u_vars)
    except ValueError:
        return None
    if k < 1 or k >= e:
        return None
    u_pos = [f.variables.index(v) for v in u_vars]
    slice_ = catalecticant(f, k)
    s = linalg.sparse_rank([row for alpha, row in zip(slice_.row_monomials, slice_.rows)
                            if not any(alpha[i] for i in u_pos)])
    threshold = math.comb(len(u_vars) + k - 1, k)
    if s <= threshold:
        return None
    return {"criterion": "slice-rank", "k": k, "bidegree": [k, e],
            "slice_rank": s, "threshold": threshold,
            "conclusion": f"hess^{k} vanishes identically",
            "certainty": "certified-structural"}


@dataclass
class CactusLowerBound:
    """Certified statement: the cactus rank exceeds the value."""

    value: int
    k: int
    route: str
    evidence: dict
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"value": self.value, "k": self.k, "route": self.route,
                "evidence": dict(self.evidence), "notes": list(self.notes)}


def _certify_rank_deficient(f: Form, l: int, s: int, bound: int,
                            policy: RankPolicy) -> dict | None:
    """Certified evidence that Hess^(l,s) has generic rank below bound."""
    hess = mixed_hessian(f, l, s)
    if hess.support_bound < bound:
        return {"method": "support-matching",
                "certainty": "certified-structural",
                "detail": f"support matching allows rank at most "
                          f"{hess.support_bound} < {bound}"}
    report = generic_rank(hess, policy)
    if report.certified and report.value < bound:
        return {"method": report.method, "certainty": report.certainty,
                "detail": f"generic rank {report.value} < {bound}",
                "report": report.to_dict()}
    return None


def cactus_lower_vanishing(f: Form, k: int, x_vars=None, u_vars=None,
                           policy: RankPolicy | None = None
                           ) -> CactusLowerBound | None:
    """Cactus rank bound from k-conciseness and vanishing hess^k."""
    require_analysis_form(f)
    policy = policy or RankPolicy()
    d = f.degree
    if k < 1 or 2 * k > d:
        raise ValueError(f"need 1 <= k with 2k <= {d}")
    if not maximal_hilbert_through(f, k):
        return None
    a_k = math.comb(f.nvars - 1 + k, k)
    evidence = None
    if x_vars and u_vars:
        cert = slice_rank_vanishing(f, x_vars, u_vars)
        if cert is not None and cert["k"] == k:
            evidence = cert
    if evidence is None:
        evidence = _certify_rank_deficient(f, k, k, a_k, policy)
    if evidence is None:
        return None
    return CactusLowerBound(a_k, k, "vanishing-hessian", evidence)


def cactus_lower_degenerate(f: Form, k: int, l: int | None = None,
                            s: int | None = None,
                            policy: RankPolicy | None = None
                            ) -> CactusLowerBound | None:
    """Cactus rank bound from conciseness, unimodality, and a degenerate slice."""
    require_analysis_form(f)
    policy = policy or RankPolicy()
    d = f.degree
    if k < 1 or 2 * k > d:
        raise ValueError(f"need 1 <= k with 2k <= {d}")
    if l is None:
        l = k
    if s is None:
        s = k
    if l < 0 or s < 0 or l + s > d:
        raise ValueError(f"need 0 <= l, s with l+s <= {d}, got ({l}, {s})")
    if not maximal_hilbert_through(f, k):
        return None
    hf = hilbert(f)
    if not hf.is_unimodal:
        return None
    # Hess^(l,s) is hf[l] x hf[s]: an apolar basis has slice-rank many monomials
    evidence = _certify_rank_deficient(f, l, s, min(hf[l], hf[s]), policy)
    if evidence is None:
        return None
    evidence = dict(evidence)
    evidence["hessian_pair"] = [l, s]
    return CactusLowerBound(math.comb(f.nvars - 1 + k, k), k,
                            "unimodal-degenerate-hessian", evidence)


@dataclass
class CertificateStrategy:
    """Hints steering the wild certificate search."""

    x_vars: tuple | None = None
    u_vars: tuple | None = None
    k: int | None = None
    parts: list | None = None
    notes: list = field(default_factory=list)
    policy: RankPolicy = field(default_factory=RankPolicy)


def wild_certificate(f: Form, strategy: CertificateStrategy | None = None) -> dict:
    """Machine-checkable wildness certificate for a form.

    Collects a certified border rank upper bound and a certified cactus
    rank lower bound, and declares the form wild exactly when the border
    bound does not exceed the cactus threshold.  Failures to establish
    either side are reported with reasons, never papered over.  The
    ``conciseness`` field is conciseness(f); the order the cactus route
    ran at, which a strategy may set, is the cactus bound's ``k``.
    """
    require_analysis_form(f)
    strategy = strategy or CertificateStrategy()
    hf = hilbert(f)
    concise = conciseness(f)
    k = strategy.k if strategy.k is not None else concise
    reasons: list[str] = []
    border = border_upper(f, strategy.x_vars, strategy.u_vars,
                          parts=strategy.parts)
    if border is None:
        reasons.append("no certified border rank upper bound available")
    cactus = None
    if k < 1:
        reasons.append("the form is not even 1-concise")
    elif 2 * k > f.degree:
        reasons.append(f"conciseness order {k} exceeds half the degree")
    else:
        # the (k,k) degenerate route is subsumed: same Hessian test, same bound
        cactus = cactus_lower_vanishing(f, k, strategy.x_vars,
                                        strategy.u_vars, strategy.policy)
        if cactus is None:
            reasons.append(f"no certified cactus bound at order {k}: "
                           "neither Hessian route could be certified")
    verdict = "not-established"
    if border is not None and cactus is not None:
        if border.value <= cactus.value:
            verdict = "wild"
        else:
            reasons.append(f"border bound {border.value} exceeds the "
                           f"cactus threshold {cactus.value}")
    return {
        "schema": SCHEMA,
        "form": render(f),
        "variables": list(f.variables),
        "degree": f.degree,
        "hilbert": list(hf),
        "conciseness": concise,
        "border": border.to_dict() if border else None,
        "cactus": cactus.to_dict() if cactus else None,
        "verdict": verdict,
        "reasons": reasons,
        "notes": list(strategy.notes),
    }
