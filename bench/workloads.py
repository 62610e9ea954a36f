"""Seeded, tiered job lists for the four benchmark workloads.

A workload is a sequence of rounds.  Each round is one job list with a
fixed number of jobs in every tier, so every round holds the same
number of slow-path jobs; rounds differ only in their seeded draws.
Round ``r`` of seed ``s`` is a pure function of (s, r).  Within a
run, generated forms (random forms, binary forms, seeded
``exceptional`` members) are never repeated, so a cache across calls
cannot turn a job into a lookup.  Named members without a seed
parameter (``ikeda``, ``monomial-spread(3,3)``, ...) exist once per
round.

A job is a CLI argv plus what its check expects.  The program sees
only the argv; the seed stays here.  Form text is passed as
``--poly=TEXT``: argparse would read a space-free text that starts with
'-' (a negative monomial) as an unknown option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from checks import render


@dataclass(frozen=True)
class Job:
    tier: str
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def command(self) -> str:
        return self.argv[0]


def _sub_rng(seed: int, round_index: int, tier: str) -> random.Random:
    return random.Random(f"{seed}/{round_index}/{tier}")


# -- ladder: analyze on named family members ---------------------------------

LADDER_SMALL = ["ikeda", "perazzo", "bb-cubic", "power-family(2)",
                "power-family(3)", "power-family(4)", "monomial-spread(1,3)",
                "monomial-spread(1,4)", "monomial-spread(1,5)",
                "monomial-spread(1,6)", "monomial-spread(2,2)",
                "monomial-spread(2,3)", "monomial-spread(3,2)"]
# exceptional members, each drawn over this many seeds per round.  With
# 173 jobs a round, the 10% slowest end in the middle of the twelve
# exceptional(3,7) jobs (~0.12 s), below the eleven heavier jobs, so
# job_p90_ms does not straddle a jump in cost; job_p50_ms falls among
# the exceptional(2,3) jobs.
LADDER_DENSE = [("exceptional(2,3)", 110), ("exceptional(3,5)", 30),
                ("exceptional(3,7)", 12), ("exceptional(4,7)", 4)]
LADDER_LARGE = ["monomial-spread(2,4)", "monomial-spread(1,8)",
                "monomial-spread(2,5)", "monomial-spread(3,3)"]

PINNED_ANALYZE = {
    "ikeda": {"hilbert": [1, 4, 10, 10, 4, 1], "border": 10, "cactus": 10,
              "verdict": "wild"},
    "perazzo": {"hilbert": [1, 5, 5, 1], "border": 5, "cactus": 5, "verdict": "wild"},
    "bb-cubic": {"hilbert": [1, 5, 5, 1], "border": 5, "cactus": 5, "verdict": "wild"},
    "exceptional(3,5)": {"border": 15, "cactus": 15, "verdict": "wild"},
    "monomial-spread(2,4)": {"border": 80, "cactus": 70,
                             "verdict": "not-established"},
}


def _member_seeds(seed: int, round_index: int, count: int) -> list[int]:
    """Distinct family seeds for one round; disjoint across rounds."""
    base = (seed * 1009 + round_index) * 1000
    return [base + i for i in range(count)]


def _analyze_family(tier: str, spec: str, seed: int) -> Job:
    return Job(tier, ("analyze", "--family", spec, "--seed", str(seed),
                      "--json", "--deterministic"),
               PINNED_ANALYZE.get(spec, {}))


def ladder_round(seed: int, round_index: int, seen: set) -> list[Job]:
    policy_seed = seed * 1009 + round_index
    jobs = [_analyze_family("small", spec, policy_seed) for spec in LADDER_SMALL]
    for spec, count in LADDER_DENSE:
        jobs += [_analyze_family("dense", spec, s)
                 for s in _member_seeds(seed, round_index, count)]
    jobs += [_analyze_family("large", spec, policy_seed) for spec in LADDER_LARGE]
    return jobs


# -- symbolic: hessian and lefschetz on degenerate-Hessian members -------------

SYMBOLIC_FIXED = [("ikeda", 5), ("perazzo", 3), ("bb-cubic", 3), ("power-family(3)", 8)]
# (spec, degree, seeds per round)
SYMBOLIC_SEEDED = [("exceptional(2,3)", 5, 6), ("exceptional(3,5)", 7, 3)]
SYMBOLIC_CAP = "16"

PINNED_HESSIAN = {
    ("perazzo", 1, 1): {"shape": [5, 5], "value": 4, "degenerate": True},
    ("bb-cubic", 1, 1): {"shape": [5, 5], "degenerate": True},
    ("ikeda", 2, 2): {"shape": [10, 10], "degenerate": True},
    ("exceptional(3,5)", 2, 2): {"shape": [15, 15], "degenerate": True},
}


def _symbolic_member(spec: str, degree: int, seed: int) -> list[Job]:
    base = ("--family", spec, "--seed", str(seed), "--max-symbolic-dim",
            SYMBOLIC_CAP, "--json", "--deterministic")
    jobs = []
    for k in range(1, degree):
        for l in range(k, degree - k + 1):
            jobs.append(Job("hessian", ("hessian", "--k", str(k), "--l", str(l)) + base,
                            PINNED_HESSIAN.get((spec, k, l), {})))
    for flag in ("--wlp", "--slp"):
        jobs.append(Job("lefschetz", ("lefschetz", flag) + base, {"verdict": "fails"}))
    return jobs


def symbolic_round(seed: int, round_index: int, seen: set) -> list[Job]:
    policy_seed = seed * 1009 + round_index
    jobs = []
    for spec, degree in SYMBOLIC_FIXED:
        jobs += _symbolic_member(spec, degree, policy_seed)
    for spec, degree, count in SYMBOLIC_SEEDED:
        for s in _member_seeds(seed, round_index, count):
            jobs += _symbolic_member(spec, degree, s)
    return jobs


# -- random: analyze on seeded random forms -------------------------------------

VARIABLES = ("x", "y", "z", "u", "v")
# (nvars, degree, terms, forms per round), per tier.  The sparse tier
# keeps 4-6 terms and, above degree 6, five variables: with 8-12 terms a
# few draws in a hundred ran for minutes (one 12-term nonic in four
# variables took 119 s), and sparse 4-variable forms of degree 7-12
# swing by 10-50x between draws.  The counts make the job percentiles
# land inside blocks of one cell: the median of a round's 45 jobs among
# the eight (5, 8, 4) forms (~25 ms), and the 90th percentile among the
# ~100 ms cells below the two heaviest forms.
RANDOM_DENSE = [(3, 4, 6, 3), (3, 5, 9, 3), (3, 6, 12, 2), (3, 7, 16, 2),
                (3, 7, 30, 2), (3, 8, 20, 1), (4, 4, 10, 3), (4, 5, 20, 1),
                (5, 4, 14, 2), (5, 5, 10, 2), (5, 5, 20, 2)]
RANDOM_SPARSE = [(4, 6, 4, 3), (5, 6, 6, 5), (5, 8, 4, 8), (5, 9, 5, 2),
                 (5, 10, 6, 2), (5, 12, 5, 2)]


def _exponents(nvars: int, degree: int) -> list[tuple]:
    if nvars == 1:
        return [(degree,)]
    return [(first,) + rest for first in range(degree, -1, -1)
            for rest in _exponents(nvars - 1, degree - first)]


def _random_form(rng: random.Random, nvars: int, degree: int, count: int,
                 seen: set) -> dict:
    space = _exponents(nvars, degree)
    while True:
        chosen = rng.sample(space, min(count, len(space)))
        terms = {e: rng.choice((-1, 1)) * rng.randint(1, 9) for e in chosen}
        key = (nvars, frozenset(terms.items()))
        if key not in seen:
            seen.add(key)
            return terms


def random_round(seed: int, round_index: int, seen: set) -> list[Job]:
    jobs = []
    for tier, cells in (("dense", RANDOM_DENSE), ("sparse", RANDOM_SPARSE)):
        rng = _sub_rng(seed, round_index, tier)
        for nvars, degree, terms, count in cells:
            variables = VARIABLES[:nvars]
            for _ in range(count):
                text = render(variables, _random_form(rng, nvars, degree, terms, seen))
                jobs.append(Job(tier, ("analyze", "--poly=" + text, "--vars",
                                       ",".join(variables), "--seed", str(seed),
                                       "--json", "--deterministic"),
                                {"form": text, "k_from_hilbert": True}))
    return jobs


# -- binary: Waring rank of binary forms ----------------------------------------

BINARY_DEGREES = range(4, 15)
BINARY_GENERIC_PER_DEGREE = 9
# (a, b, jobs per round) for l1^a * l2^b with l1, l2 not proportional
# and no zero coefficient; every one needs the resultant fallback.  The
# 10% slowest jobs of a round end in the middle of the (1, 5) block, so
# job_p90_ms reads a resultant job of one fixed shape (~45 ms).
BINARY_DEGENERATE = [(3, 7, 2), (2, 6, 4), (1, 5, 16), (4, 7, 4), (3, 6, 4),
                     (1, 4, 4), (1, 3, 2), (2, 4, 2), (3, 5, 2), (4, 6, 2),
                     (5, 7, 2)]
NONZERO = [c for c in range(-4, 5) if c]


def _linear_power_product(l1, l2, a: int, b: int) -> list[int]:
    """Coefficients of x^i y^(a+b-i) in (p x + q y)^a (r x + s y)^b."""
    def power(lin, e):
        p, q = lin
        return [comb(e, i) * p ** i * q ** (e - i) for i in range(e + 1)]
    left, right = power(l1, a), power(l2, b)
    out = [0] * (a + b + 1)
    for i, c in enumerate(left):
        for j, e in enumerate(right):
            out[i + j] += c * e
    return out


def _binary_text(coeffs: list[int]) -> str:
    d = len(coeffs) - 1
    return render(("x", "y"), {(i, d - i): c for i, c in enumerate(coeffs) if c})


def binary_round(seed: int, round_index: int, seen: set) -> list[Job]:
    jobs = []
    rng = _sub_rng(seed, round_index, "generic")
    for d in BINARY_DEGREES:
        for _ in range(BINARY_GENERIC_PER_DEGREE):
            while True:
                coeffs = [rng.randint(-9, 9) for _ in range(d + 1)]
                coeffs[d] = coeffs[d] or 1
                if tuple(coeffs) not in seen:
                    break
            seen.add(tuple(coeffs))
            jobs.append(Job("generic", ("binary-rank", "--poly=" + _binary_text(coeffs),
                                        "--vars", "x,y", "--json"),
                            {"coeffs": coeffs}))
    rng = _sub_rng(seed, round_index, "degenerate")
    for a, b, count in BINARY_DEGENERATE:
        for _ in range(count):
            jobs.append(_degenerate_job(rng, a, b, seen))
    return jobs


def _degenerate_job(rng: random.Random, a: int, b: int, seen: set) -> Job:
    while True:
        l1 = (rng.choice(NONZERO), rng.choice(NONZERO))
        l2 = (rng.choice(NONZERO), rng.choice(NONZERO))
        if l1[0] * l2[1] == l1[1] * l2[0]:
            continue                       # proportional
        coeffs = _linear_power_product(l1, l2, a, b)
        if tuple(coeffs) not in seen:
            break
    seen.add(tuple(coeffs))
    return Job("degenerate", ("binary-rank", "--poly=" + _binary_text(coeffs),
                              "--vars", "x,y", "--json"),
               {"rank": b + 1})


WORKLOADS = {
    "ladder": ladder_round,
    "random": random_round,
    "symbolic": symbolic_round,
    "binary": binary_round,
}


def generate(workload: str, seed: int, rounds: int) -> list[list[Job]]:
    """The first ``rounds`` job lists of a workload for one seed."""
    make = WORKLOADS[workload]
    seen: set = set()
    return [make(seed, r, seen) for r in range(rounds)]
