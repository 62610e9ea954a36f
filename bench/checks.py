"""Output checks for benchmark jobs, written without the library's code.

Each check reads one job's exit code and JSON output and returns the
list of problems it found (empty when the output is right) together
with the job's claim counts for ``certified_ratio``.  Nothing here
imports wildforms, so a defect in the library cannot hide in the check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

VERDICTS = {"holds", "fails", "undetermined"}
CERTAINTIES = {"certified-symbolic", "certified-structural", "probabilistic"}


# -- forms as {exponent: int} dictionaries ----------------------------------

def render(variables, terms: dict) -> str:
    """Canonical text, the same grammar the CLI prints: lex-largest term first."""
    out = ""
    for exponent in sorted(terms, reverse=True):
        c = terms[exponent]
        body = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(variables, exponent) if k)
        text = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not out:
            out = ("-" if c < 0 else "") + text
        else:
            out += (" - " if c < 0 else " + ") + text
    return out


def parse(text: str, variables) -> dict:
    """Read the canonical text back; coefficients may be p/q."""
    index = {v: i for i, v in enumerate(variables)}
    terms: dict = {}
    for sign, piece in _signed_pieces(text):
        coeff = Fraction(sign)
        exps = [0] * len(variables)
        for factor in piece.split("*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
        if terms[key] == 0:
            del terms[key]
    return terms


def _signed_pieces(text: str):
    for chunk in text.strip().replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        if chunk.startswith("-"):
            yield -1, chunk[1:]
        else:
            yield 1, chunk


# -- exact linear algebra on small Fraction matrices --------------------------

def left_kernel(rows) -> list[list[Fraction]]:
    """Basis of {c : c . rows == 0} by Gauss-Jordan on the transpose."""
    m = len(rows)
    cols = [[Fraction(rows[i][j]) for i in range(m)] for j in range(len(rows[0]))]
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(cols)) if cols[i][c]), None)
        if pivot is None:
            continue
        cols[r], cols[pivot] = cols[pivot], cols[r]
        lead = cols[r][c]
        cols[r] = [v / lead for v in cols[r]]
        for i in range(len(cols)):
            if i != r and cols[i][c]:
                f = cols[i][c]
                cols[i] = [a - f * b for a, b in zip(cols[i], cols[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -cols[i][free]
        basis.append(v)
    return basis


def _poly_gcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p
    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            a = trim([x - q * (b[i - shift] if i >= shift else 0)
                      for i, x in enumerate(a)])
            if not a:
                break
        a, b = b, a
    return len(a) - 1


def squarefree_binary(coeffs: list[Fraction]) -> bool:
    """coeffs[j] multiplies X^j Y^(r-j); no repeated factor over C."""
    r = len(coeffs) - 1
    top = max((j for j, c in enumerate(coeffs) if c), default=-1)
    if r - top >= 2:
        return False                      # Y^2 divides
    if top <= 0:
        return r - top <= 1 and r <= 1
    derivative = [j * coeffs[j] for j in range(1, top + 1)]
    return _poly_gcd_degree(list(coeffs[:top + 1]), derivative) == 0


def sylvester_rank(coeffs: list[int]) -> int:
    """Waring rank of sum coeffs[i] x^i y^(d-i) by Sylvester's theorem.

    With f = sum C(d,i) b_i x^i y^(d-i), the degree-k apolar slice is the
    left kernel of the Hankel matrix [b_(j+m)].  Let r be the least
    degree with a nonzero annihilator.  A pencil there (r = (d+2)/2)
    has a squarefree member, so the rank is r; a single generator
    gives r when it is squarefree and d + 2 - r otherwise.
    """
    d = len(coeffs) - 1
    b = [Fraction(coeffs[i], comb(d, i)) for i in range(d + 1)]
    for k in range(1, d + 1):
        hankel = [[b[j + m] for m in range(d - k + 1)] for j in range(k + 1)]
        kernel = left_kernel(hankel)
        if not kernel:
            continue
        if len(kernel) >= 2:
            return k
        return k if squarefree_binary(kernel[0]) else d + 2 - k
    raise ValueError("no annihilator found")


# -- per-command checks -----------------------------------------------------

def _hilbert_problems(h: list, nvars: int, degree: int) -> list[str]:
    out = []
    if len(h) != degree + 1:
        out.append(f"hilbert has {len(h)} entries for degree {degree}")
        return out
    if h != h[::-1]:
        out.append(f"hilbert {h} is not symmetric")
    for k, a in enumerate(h):
        if not 1 <= a <= comb(nvars - 1 + k, k):
            out.append(f"h_{k} = {a} outside 1..dim Q_{k}")
    return out


def _unimodal(h: list) -> bool:
    down = False
    for a, b in zip(h, h[1:]):
        if b < a:
            down = True
        elif b > a and down:
            return False
    return True


def _conciseness(h: list, nvars: int) -> int:
    best = 0
    for k in range(1, (len(h) - 2) // 2 + 1):
        if any(h[j] != comb(nvars - 1 + j, j) for j in range(k + 1)):
            break
        best = k
    return best


def _monomial_bound(terms: dict) -> int:
    (exponent,) = terms
    value = 1
    for e in sorted(exponent)[:-1]:
        value *= e + 1
    return value


def check_analyze(doc: dict, expect: dict) -> list[str]:
    out = []
    cert = doc["certificate"]
    variables = cert["variables"]
    n, d = len(variables), cert["degree"]
    h = doc["hilbert"]
    out += _hilbert_problems(h, n, d)
    if cert["hilbert"] != h:
        out.append("certificate and report disagree on the Hilbert vector")
    if doc["symmetric"] != (h == h[::-1]) or doc["unimodal"] != _unimodal(h):
        out.append("symmetric/unimodal flags disagree with the vector")
    if "form" in expect and cert["form"] != expect["form"]:
        out.append(f"form echoed as {cert['form']!r}, sent {expect['form']!r}")
    if expect.get("k_from_hilbert") and cert["conciseness"] != _conciseness(h, n):
        out.append(f"conciseness {cert['conciseness']} disagrees with {h}")
    border, cactus = cert["border"], cert["cactus"]
    if border is not None and border["method"] != "explicit-decomposition":
        if sum(part["value"] for part in border["parts"]) != border["value"]:
            out.append("border part values do not add up to the bound")
        total: dict = {}
        for part in border["parts"]:
            terms = parse(part["part"], variables)
            for e, c in terms.items():
                total[e] = total.get(e, 0) + c
            if part["method"] == "monomial" and part["value"] != _monomial_bound(terms):
                out.append(f"monomial part {part['part']} has value {part['value']}")
            if part["method"] == "power" and part["value"] != 1:
                out.append(f"power part {part['part']} has value {part['value']}")
        if {e: c for e, c in total.items() if c} != parse(cert["form"], variables):
            out.append("border parts do not sum to the form")
    wild = (border is not None and cactus is not None
            and border["value"] <= cactus["value"])
    if cert["verdict"] != ("wild" if wild else "not-established"):
        out.append(f"verdict {cert['verdict']} inconsistent with its bounds")
    if cert["verdict"] != "wild" and not cert["reasons"]:
        out.append("not-established without a reason")
    if "hilbert" in expect and h != expect["hilbert"]:
        out.append(f"hilbert differs from the pinned value {expect['hilbert']}")
    if "verdict" in expect and cert["verdict"] != expect["verdict"]:
        out.append(f"verdict differs from the pinned value {expect['verdict']}")
    for side, value in (("border", border), ("cactus", cactus)):
        if side in expect and (value is None or value["value"] != expect[side]):
            out.append(f"{side} differs from the pinned value {expect[side]}")
    return out


def check_hessian(doc: dict, expect: dict) -> list[str]:
    out = []
    rep = doc["rank"]
    m, n = rep["shape"]
    v = rep["value"]
    if not 0 <= v <= min(m, n) or v > rep["support_bound"]:
        out.append(f"rank {v} outside 0..min(shape {m}x{n}, support bound)")
    if rep["certainty"] not in CERTAINTIES:
        out.append(f"unknown certainty {rep['certainty']!r}")
    if rep["degenerate"] != (v < min(m, n)) and rep["certainty"] != "probabilistic":
        out.append("degenerate flag disagrees with the certified rank")
    if rep["certainty"] == "certified-symbolic" and v < min(m, n) \
            and len(rep.get("kernel_witness", ())) != n:
        out.append("certified deficient rank without a kernel witness")
    if "determinant_vanishes" in doc and rep["certainty"] != "probabilistic" \
            and m == n and doc["determinant_vanishes"] != (v < n):
        out.append("determinant and certified rank disagree")
    for key in ("shape", "value"):
        if key in expect and rep[key] != expect[key]:
            out.append(f"{key} {rep[key]} differs from the pinned {expect[key]}")
    if "degenerate" in expect and rep["degenerate"] != expect["degenerate"]:
        out.append("degenerate flag differs from the pinned value")
    return out


def check_lefschetz(doc: dict, expect: dict) -> list[str]:
    out = []
    rep = doc["report"]
    verdict = rep["verdict"]
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    checks = rep["checks"]
    if verdict == "holds" and (rep["element"] is None or any(
            c["achieved"] != c["required"] for c in checks)):
        out.append("holds without a passing element")
    if verdict == "fails" and not any(
            c["achieved"] < c["required"] and c.get("certainty", "") != "probabilistic"
            for c in checks):
        out.append("fails without a certified obstruction")
    if "verdict" in expect and verdict != expect["verdict"]:
        out.append(f"verdict {verdict} differs from the pinned {expect['verdict']}")
    return out


def check_binary(doc: dict, expect: dict) -> list[str]:
    want = expect["rank"] if "rank" in expect else sylvester_rank(expect["coeffs"])
    if doc["rank"] != want:
        return [f"rank {doc['rank']}, expected {want}"]
    return []


CHECKS = {"analyze": check_analyze, "hessian": check_hessian,
          "lefschetz": check_lefschetz, "binary-rank": check_binary}


def claims(doc: dict) -> tuple[int, int]:
    """(claims made, claims certified) by one job's output.

    analyze: the Hilbert function plus the border and cactus sides, a
    side being certified when present; hessian: the rank report;
    lefschetz: the verdict, certified unless undetermined; binary-rank:
    the exact rank.
    """
    command = doc["command"]
    if command == "analyze":
        cert = doc["certificate"]
        return 3, 1 + (cert["border"] is not None) + (cert["cactus"] is not None)
    if command == "hessian":
        return 1, int(doc["rank"]["certainty"] != "probabilistic")
    if command == "lefschetz":
        return 1, int(doc["report"]["verdict"] != "undetermined")
    return 1, 1


def check(command: str, expect: dict, code, stdout: str) -> tuple[list[str], int, int]:
    """Problems found in one job's result, plus its claim counts."""
    if code != 0:
        return [f"exit code {code}"], 0, 0
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"], 0, 0
    if doc.get("command") != command:
        return [f"output is for command {doc.get('command')!r}"], 0, 0
    try:
        problems = CHECKS[command](doc, expect)
        made, certified = claims(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"], 0, 0
    return problems, made, certified
