"""Acceptance suite: eight end-to-end criteria with runtime budgets.

Each criterion prints exactly one ACCEPTANCE line and fails loudly on
any missed check or blown budget.  All comparisons are exact; there
are no tolerances anywhere.
"""

from __future__ import annotations

import math
import random
import time

from wildforms.apolar import catalecticant, hilbert, is_k_concise
from wildforms.bounds import (
    border_upper,
    cactus_lower_degenerate,
    cactus_lower_vanishing,
    slice_rank_vanishing,
    wild_certificate,
)
from wildforms.families import build
from wildforms.hessian import (
    evaluated_rank,
    generic_rank,
    hessian_determinant,
    mixed_hessian,
    multiplication_map_rank,
)
from wildforms.poly import make_form, monomials, parse
from wildforms.powersum import (
    VeroneseMatrix,
    binary_waring_rank,
    factorization_check,
    hessian_nonvanishing,
)

from helpers import (
    oracle_binary_rank,
    oracle_hilbert,
    random_decomposition,
    random_form,
    random_linear,
)


def finish(number: int, started: float, budget: float, checks) -> None:
    elapsed = time.monotonic() - started
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}")
    assert not failed, f"criterion {number} failed checks: {failed}"
    assert elapsed <= budget, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget:.0f}s")


def test_acceptance_1_wild_quintic():
    """The quintic with a bihomogeneous chunk plus a binary monomial."""
    started = time.monotonic()
    r = build("ikeda")
    f = r.form
    checks = []
    checks.append(("hilbert", tuple(hilbert(f)) == (1, 4, 10, 10, 4, 1)))
    checks.append(("concise", is_k_concise(f, 2)))
    det2 = hessian_determinant(f, 2)
    checks.append(("hess2 vanishes", det2 is None))
    rep = generic_rank(mixed_hessian(f, 2, 2))
    checks.append(("hess2 rank certified",
                   rep.value == 9 and rep.certainty == "certified-symbolic"))
    checks.append(("hess1 nonzero", hessian_determinant(f, 1) is not None))
    border = border_upper(f, r.strategy.x_vars, r.strategy.u_vars)
    checks.append(("border 10", border is not None and border.value == 10))
    checks.append(("border parts", border is not None and
                   sorted(p["value"] for p in border.parts) == [3, 7]))
    cactus = cactus_lower_degenerate(f, 2)
    checks.append(("cactus 10", cactus is not None and cactus.value == 10))
    cert = wild_certificate(f, r.strategy)
    checks.append(("verdict", cert["verdict"] == "wild"))
    finish(1, started, 10.0, checks)


def test_acceptance_2_degenerate_cubics():
    """Both cubics with identically vanishing first Hessian."""
    started = time.monotonic()
    checks = []
    for name in ("perazzo", "bb-cubic"):
        r = build(name)
        f = r.form
        checks.append((f"{name} hilbert",
                       tuple(hilbert(f)) == (1, 5, 5, 1)))
        checks.append((f"{name} oracle",
                       oracle_hilbert(f) == (1, 5, 5, 1)))
        checks.append((f"{name} hess1 vanishes",
                       hessian_determinant(f, 1) is None))
        slice_cert = slice_rank_vanishing(f, r.strategy.x_vars, r.strategy.u_vars)
        checks.append((f"{name} slice cert",
                       slice_cert is not None
                       and slice_cert["certainty"] == "certified-structural"))
        cactus = cactus_lower_vanishing(f, 1, r.strategy.x_vars, r.strategy.u_vars)
        checks.append((f"{name} cactus 5",
                       cactus is not None and cactus.value == 5))
        border = border_upper(f, r.strategy.x_vars, r.strategy.u_vars)
        checks.append((f"{name} border 5",
                       border is not None and border.value == 5))
        cert = wild_certificate(f, r.strategy)
        checks.append((f"{name} verdict", cert["verdict"] == "wild"))
    finish(2, started, 5.0, checks)


def test_acceptance_3_wild_septic():
    """The septic built from a three-slot chunk plus six generic powers."""
    started = time.monotonic()
    r = build("exceptional(3, 5)")
    f = r.form
    checks = []
    checks.append(("degree", f.degree == 7))
    checks.append(("hilbert",
                   tuple(hilbert(f)) == (1, 5, 15, 15, 15, 15, 5, 1)))
    checks.append(("concise", is_k_concise(f, 2)))
    checks.append(("unimodal", hilbert(f).is_unimodal))
    cactus = cactus_lower_degenerate(f, 2)
    checks.append(("cactus 15", cactus is not None and cactus.value == 15))
    checks.append(("cactus certified",
                   cactus is not None
                   and cactus.evidence["certainty"].startswith("certified")))
    border = border_upper(f, r.strategy.x_vars, r.strategy.u_vars, parts=r.strategy.parts)
    checks.append(("border 15", border is not None and border.value == 15))
    cert = wild_certificate(f, r.strategy)
    checks.append(("verdict", cert["verdict"] == "wild"))
    finish(3, started, 60.0, checks)


def test_acceptance_4_spread_form():
    """The degree-18 spread form: certified threshold 70, border 80."""
    started = time.monotonic()
    r = build("monomial-spread(2, 4)")
    f = r.form
    checks = []
    a4 = catalecticant(f, 4).rank
    expected = sum((4 - i + 1) * math.comb(2 + i, i) for i in range(5))
    checks.append(("a_4 maximal", a4 == 70 == math.comb(8, 4) == expected))
    cert = slice_rank_vanishing(f, r.strategy.x_vars, r.strategy.u_vars)
    checks.append(("slice rank", cert is not None
                   and cert["slice_rank"] == 15 and cert["threshold"] == 5))
    border = border_upper(f, r.strategy.x_vars, r.strategy.u_vars)
    checks.append(("border 80", border is not None and border.value == 80))
    cactus = cactus_lower_vanishing(f, 4, r.strategy.x_vars, r.strategy.u_vars)
    checks.append(("cactus 70", cactus is not None and cactus.value == 70))
    full = wild_certificate(f, r.strategy)
    checks.append(("verdict honest", full["verdict"] == "not-established"))
    checks.append(("doubled note", any("doubled threshold of 140" in n
                                       for n in full["notes"])))
    finish(4, started, 300.0, checks)


def test_acceptance_5_hessian_rank_identity():
    """Multiplication map rank equals the evaluated Hessian rank."""
    started = time.monotonic()
    rng = random.Random(20260819)
    forms = 0
    pairs = 0
    checks = []
    while forms < 200:
        f = random_form(rng, nvars=rng.randint(2, 3), degree=rng.randint(2, 4))
        L = random_linear(rng, f.variables)
        d = f.degree
        forms += 1
        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                left = multiplication_map_rank(f, L, a, b)
                right = evaluated_rank(mixed_hessian(f, d - b, a), L.point())
                pairs += 1
                if left != right:
                    checks.append((f"{f} at ({a},{b})", False))
    checks.append(("forms", forms == 200))
    checks.append(("pairs covered", pairs >= 1000))
    finish(5, started, 300.0, checks)


def test_acceptance_6_factorization():
    """The Hessian factorization through Veronese matrices, signed included."""
    started = time.monotonic()
    rng = random.Random(40)
    built = 0
    corollary = 0
    checks = []
    while built < 100:
        dec = random_decomposition(rng, nvars=rng.randint(2, 3),
                                   degree=rng.randint(2, 4))
        if dec is None:
            continue
        built += 1
        d = dec.degree
        for k in range(d + 1):
            for l in range(k, d + 1):
                if k + l > d:
                    continue
                if not factorization_check(dec, k, l):
                    checks.append((f"factorization {dec.target} ({k},{l})",
                                   False))
        for k in range(d // 2 + 1):
            w = VeroneseMatrix(dec, k)
            if dec.length != w.nrows:
                continue
            if hessian_nonvanishing(dec, k):
                corollary += 1
                if w.nrows <= 12 and hessian_determinant(dec.target, k) is None:
                    checks.append((f"corollary {dec.target} k={k}", False))
    checks.append(("decompositions", built == 100))
    checks.append(("corollary exercised", corollary >= 30))
    finish(6, started, 300.0, checks)


def test_acceptance_7_binary_ranks():
    """Binary Waring ranks against the independent case analysis."""
    started = time.monotonic()
    rng = random.Random(777)
    seen = set()
    checks = []
    while len(seen) < 500:
        d = rng.randint(1, 6)
        terms = {}
        for e in monomials(2, d):
            c = rng.randint(-2, 2)
            if c:
                terms[e] = c
        f = make_form("xy", terms)
        if f is None:
            continue
        key = (f.degree, tuple(sorted(f.terms.items())))
        if key in seen:
            continue
        seen.add(key)
        got = binary_waring_rank(f)
        want = oracle_binary_rank(f)
        if got != want:
            checks.append((f"{f}: {got} != {want}", False))
    spot = {"x^6": 1, "x*y^5": 6, "x*y^2": 3, "x^2*y^4": 5, "x^3*y^3": 4}
    for text, want in spot.items():
        checks.append((f"spot {text}",
                       binary_waring_rank(parse(text, "xy")) == want))
    checks.append(("forms tested", len(seen) == 500))
    finish(7, started, 600.0, checks)


def test_acceptance_8_hilbert_symmetry():
    """Exact symmetry of the Hilbert function on a broad random sweep."""
    started = time.monotonic()
    rng = random.Random(88)
    checks = []
    degenerate_seen = 0
    for i in range(500):
        f = random_form(rng, nvars=rng.randint(2, 4),
                        degree=rng.randint(1, 4), density=rng.uniform(0.2, 1))
        h = hilbert(f)
        if not h.is_symmetric:
            checks.append((f"asymmetric {f}", False))
        # hilbert mirrors slices 0..d/2, so each upper slice is ranked alone
        for j in range(f.degree // 2 + 1, f.degree + 1):
            if catalecticant(f, j).rank != h[f.degree - j]:
                checks.append((f"upper slice {j} of {f}", False))
        if h[1] < f.nvars:
            degenerate_seen += 1
        if i % 100 == 0:
            ok = oracle_hilbert(f) == tuple(h)
            checks.append((f"oracle spot {i}", ok))
    checks.append(("degenerate forms in sweep", degenerate_seen >= 20))
    finish(8, started, 120.0, checks)
