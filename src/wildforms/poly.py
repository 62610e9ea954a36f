"""Exact sparse homogeneous polynomials and their differential action.

A form is stored as a mapping from exponent tuples to nonzero Fraction
coefficients, together with the ordered tuple of variable names and the
common total degree.  The same container doubles as a constant
coefficient differential operator in the dual variables: ``apply``
differentiates literally, so iterated derivatives pick up falling
factorial scalars, (d/dx)^a x^d = d!/(d-a)! * x^(d-a).

The zero polynomial carries no degree and is never a Form.  Every
operation that can collapse to zero returns None instead, and analyses
reject None inputs up front.

Public constructors (``Form``, ``make_form``, ``parse``, ``monomial``,
``constant``, ``LinearForm``) validate their input.  Arithmetic on
Forms and powers of linear forms build their result once, unchecked,
with ``Form._trusted``; sums add all their terms in one pass
(``_collect``), over integer numerators brought to a common
denominator, so a coefficient becomes a Fraction once, after its last
addition.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exponent = tuple[int, ...]
Scalar = int | Fraction


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction coefficient, got {type(value).__name__}")


class Form:
    """A nonzero homogeneous polynomial with exact rational coefficients.

    ``terms`` is never mutated after construction, which is what lets
    ``apolar.catalecticant`` keep the form's slices in ``_slices``.
    """

    __slots__ = ("variables", "degree", "terms", "_slices", "__weakref__")

    def __init__(self, variables: Sequence[str], degree: int,
                 terms: Mapping[Exponent, Scalar]):
        names = tuple(variables)
        if not names:
            raise ValueError("a form needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable name in {names}")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean: dict[Exponent, Fraction] = {}
        for exponent, coefficient in terms.items():
            c = _as_fraction(coefficient)
            if c == 0:
                continue
            e = tuple(exponent)
            if len(e) != len(names) or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e} for variables {names}")
            if sum(e) != degree:
                raise ValueError(
                    f"inhomogeneous terms: declared degree {degree}, found degree {sum(e)}")
            clean[e] = c
        if not clean:
            raise ValueError("the zero polynomial is not a Form (no degree)")
        self.variables = names
        self.degree = degree
        self.terms = clean
        self._slices = None

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], degree: int,
                 terms: dict[Exponent, Fraction]) -> "Form":
        """A Form over terms already known to be valid: nonzero Fraction
        coefficients on exponents of the right length and degree.  Only
        arithmetic results come this way; public input goes through
        ``Form(...)``, which checks all of it."""
        f = object.__new__(cls)
        f.variables = variables
        f.degree = degree
        f.terms = terms
        f._slices = None
        return f

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def coefficient(self, exponent: Exponent) -> Fraction:
        return self.terms.get(tuple(exponent), Fraction(0))

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms with the lex-largest monomial first (graded lex on one degree)."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        values = [_as_fraction(p) for p in point]
        total = Fraction(0)
        for exponent, coefficient in self.terms.items():
            piece = coefficient
            for v, k in zip(values, exponent):
                if k:
                    piece *= v ** k
            total += piece
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.variables == other.variables and self.degree == other.degree
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return render(self)

    def __neg__(self) -> "Form":
        return Form._trusted(self.variables, self.degree,
                             {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Form") -> "Form | None":
        _check_addend(self, other)
        return form_sum((self, other))

    def __sub__(self, other: "Form") -> "Form | None":
        _check_addend(self, other)
        return form_sum((self, -other))

    def __mul__(self, other):
        if isinstance(other, Form):
            return multiply(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)


# DiffOps live in the dual ring; they share the Form container and act
# through apply().
DiffOp = Form


def make_form(variables: Sequence[str], terms: Mapping[Exponent, Scalar]) -> Form | None:
    """Build a Form from a term mapping, or None when everything cancels."""
    kept = {tuple(e): _as_fraction(c) for e, c in terms.items() if _as_fraction(c) != 0}
    if not kept:
        return None
    degrees = {sum(e) for e in kept}
    if len(degrees) > 1:
        low, high = min(degrees), max(degrees)
        raise ValueError(f"inhomogeneous terms: found degrees {low} and {high}")
    return Form(variables, degrees.pop(), kept)


def monomial(variables: Sequence[str], exponent: Exponent, coefficient: Scalar = 1) -> Form:
    e = tuple(exponent)
    return Form(variables, sum(e), {e: coefficient})


def constant(variables: Sequence[str], value: Scalar) -> Form:
    zero = (0,) * len(tuple(variables))
    return Form(variables, 0, {zero: value})


def monomials(nvars: int, degree: int) -> list[Exponent]:
    """All exponent tuples of the given total degree, lex-descending."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if nvars == 1:
        return [(degree,)]
    out: list[Exponent] = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def _collect(pairs: Iterable[tuple[Exponent, Fraction]]) -> dict[Exponent, Fraction]:
    """Add coefficients by exponent, dropping every sum that cancels; an
    exponent that cancels and comes back goes to the end.  The sums are
    of integer numerators over the lcm D of all denominators, and each
    surviving sum n becomes one Fraction n/D."""
    pairs = list(pairs)
    lift = math.lcm(*(c.denominator for _, c in pairs))
    sums: dict[Exponent, int] = {}
    for e, c in pairs:
        acc = sums.get(e, 0) + c.numerator * (lift // c.denominator)
        if acc:
            sums[e] = acc
        else:
            sums.pop(e, None)
    return {e: Fraction(n, lift) for e, n in sums.items()}


def _check_addend(first: Form, part: object) -> None:
    if not isinstance(part, Form):
        raise TypeError(f"cannot combine Form with {type(part).__name__}")
    if part.variables != first.variables:
        raise ValueError("forms live over different variable tuples")
    if part.degree != first.degree:
        raise ValueError(f"cannot add degrees {first.degree} and {part.degree}")


def scale(f: Form, c: Scalar) -> Form | None:
    c = _as_fraction(c)
    if c == 0:
        return None
    return Form._trusted(f.variables, f.degree,
                         {e: c * v for e, v in f.terms.items()})


def multiply(f: Form, g: Form) -> Form:
    if f.variables != g.variables:
        raise ValueError("forms live over different variable tuples")
    terms = _collect((tuple(a + b for a, b in zip(ef, eg)), cf * cg)
                     for ef, cf in f.terms.items() for eg, cg in g.terms.items())
    # a product of nonzero forms over a field is nonzero
    return Form._trusted(f.variables, f.degree + g.degree, terms)


def form_sum(parts: Iterable["Form | None"]) -> Form | None:
    """Sum forms of one common degree, skipping None, None when all cancel.

    Every part is checked against the first, then all terms are added
    in one pass."""
    forms = [part for part in parts if part is not None]
    for part in forms:
        _check_addend(forms[0], part)
    terms = _collect(item for part in forms for item in part.terms.items())
    if not terms:
        return None
    return Form._trusted(forms[0].variables, forms[0].degree, terms)


def apply(op: DiffOp, f: Form) -> Form | None:
    """Differentiate f by op; X^a acts as the literal iterated d/dx_a."""
    if op.variables != f.variables:
        raise ValueError("operator and form use different variable tuples")
    pairs = []
    for oe, oc in op.terms.items():
        for fe, fc in f.terms.items():
            factor = math.prod(map(math.perm, fe, oe))  # 0 once some k > m
            if factor:
                pairs.append((tuple(m - k for m, k in zip(fe, oe)), oc * fc * factor))
    terms = _collect(pairs)
    return Form._trusted(f.variables, f.degree - op.degree, terms) if terms else None


class LinearForm:
    """A nonzero linear form given by its coefficient vector."""

    __slots__ = ("variables", "coefficients")

    def __init__(self, variables: Sequence[str], coefficients: Sequence[Scalar]):
        names = tuple(variables)
        coeffs = tuple(_as_fraction(c) for c in coefficients)
        if len(coeffs) != len(names):
            raise ValueError("coefficient vector length does not match variables")
        if all(c == 0 for c in coeffs):
            raise ValueError("the zero vector does not define a linear form")
        self.variables = names
        self.coefficients = coeffs

    def to_form(self) -> Form:
        terms: dict[Exponent, Fraction] = {}
        n = len(self.variables)
        for i, c in enumerate(self.coefficients):
            if c != 0:
                e = tuple(1 if j == i else 0 for j in range(n))
                terms[e] = c
        return Form(self.variables, 1, terms)

    def point(self) -> tuple[Fraction, ...]:
        """The coefficient vector, used as an evaluation point."""
        return self.coefficients

    def proportional(self, other: "LinearForm") -> bool:
        if self.variables != other.variables:
            raise ValueError("linear forms live over different variable tuples")
        a, b = self.coefficients, other.coefficients
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] * b[j] != a[j] * b[i]:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.variables == other.variables and self.coefficients == other.coefficients

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return render(self.to_form())


def power(linear: LinearForm, d: int) -> Form:
    """The d-th power of a linear form, by the multinomial theorem.

    (c_1 x_1 + ... + c_n x_n)^d is the sum over |e| = d of
    d!/(e_1! ... e_n!) * c_1^e_1 ... c_n^e_n * x^e, taken over the
    variables with c_i != 0 only, so no term cancels.  The coefficients
    are scaled to integers by the lcm D of their denominators and each
    result is divided by D^d once.  Terms come out graded-lex
    descending.
    """
    if d < 0:
        raise ValueError("negative power")
    if d == 0:
        return constant(linear.variables, 1)
    support = [(i, c) for i, c in enumerate(linear.coefficients) if c != 0]
    lift = math.lcm(*(c.denominator for _, c in support))
    scaled = [c.numerator * (lift // c.denominator) for _, c in support]
    # partial terms: (exponents so far, degree left, integer coefficient)
    partial: list[tuple[Exponent, int, int]] = [((), d, 1)]
    for j, p in enumerate(scaled):
        powers = [p ** a for a in range(d + 1)]
        last = j == len(scaled) - 1   # the last variable takes what is left
        partial = [(e + (a,), left - a, coefficient * math.comb(left, a) * powers[a])
                   for e, left, coefficient in partial
                   for a in range(left, left - 1 if last else -1, -1)]
    denominator = lift ** d
    terms: dict[Exponent, Fraction] = {}
    for e, _, coefficient in partial:
        exponent = [0] * len(linear.variables)
        for (i, _), a in zip(support, e):
            exponent[i] = a
        terms[tuple(exponent)] = Fraction(coefficient, denominator)
    return Form._trusted(linear.variables, d, terms)


def check_partition(variables: Sequence[str], x_vars: Sequence[str],
                    u_vars: Sequence[str]) -> None:
    """Raise unless the two blocks are disjoint and cover every variable."""
    names, xs, us = tuple(variables), tuple(x_vars), tuple(u_vars)
    if sorted(xs + us) != sorted(names) or set(xs) & set(us):
        raise ValueError(f"{xs} and {us} do not partition {names}")


def bigrade(f: Form, x_vars: Sequence[str], u_vars: Sequence[str]) -> tuple[int, int]:
    """The (x-degree, u-degree) bidegree, or a two-term witness error."""
    check_partition(f.variables, x_vars, u_vars)
    x_idx = [f.variables.index(v) for v in x_vars]
    seen: dict[tuple[int, int], Exponent] = {}
    for e in f.terms:
        k = sum(e[i] for i in x_idx)
        bidegree = (k, f.degree - k)
        seen[bidegree] = e
        if len(seen) > 1:
            (b1, e1), (b2, e2) = list(seen.items())[:2]
            t1 = render(monomial(f.variables, e1, f.terms[e1]))
            t2 = render(monomial(f.variables, e2, f.terms[e2]))
            raise ValueError(
                f"not bi-homogeneous: term {t1} has bidegree {b1} but term {t2} has {b2}")
    return next(iter(seen))


def render(f: Form) -> str:
    """Canonical text: graded-lex descending terms, '*' separated factors;
    a coefficient is written from its numerator and denominator."""
    pieces: list[tuple[str, str]] = []
    for exponent, coefficient in f.sorted_terms():
        factors = []
        for name, e in zip(f.variables, exponent):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        num, den = coefficient.numerator, coefficient.denominator
        sign = "-" if num < 0 else "+"
        num = abs(num)
        c = str(num) if den == 1 else f"{num}/{den}"
        if not body:
            text = c
        elif c == "1":
            text = body
        else:
            text = f"{c}*{body}"
        pieces.append((sign, text))
    head_sign, head = pieces[0]
    out = ("-" + head) if head_sign == "-" else head
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ValueError(f"syntax error at position {i}: unexpected character {ch!r}")
    return tokens


def parse(text: str, variables: Sequence[str]) -> Form | None:
    """Parse a sum of '*'-separated terms over the declared variables.

    Coefficients are integers or p/q fractions, factors are var or
    var^k.  Inhomogeneous input is rejected with two witness degrees.
    Returns None when the input cancels to the zero polynomial.
    """
    names = tuple(variables)
    if len(set(names)) != len(names) or not names:
        raise ValueError(f"bad variable list {names}")
    index = {name: i for i, name in enumerate(names)}
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty input")

    pos = 0

    def peek() -> tuple[str, object, int] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, object, int]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_int(context: str) -> int:
        tok = peek()
        if tok is None or tok[0] != "int":
            where = tok[2] if tok else len(text)
            raise ValueError(f"syntax error at position {where}: expected {context}")
        return take()[1]  # type: ignore[return-value]

    def parse_atom(coeff: Fraction, exps: list[int]) -> Fraction:
        tok = peek()
        if tok is None:
            raise ValueError(f"syntax error at position {len(text)}: expected a factor")
        kind, value, where = tok
        if kind == "int":
            take()
            numerator = value
            if peek() is not None and peek()[0] == "/":
                take()
                denominator = parse_int("a denominator")
                if denominator == 0:
                    raise ValueError(f"syntax error at position {where}: division by zero")
                return coeff * Fraction(numerator, denominator)
            return coeff * numerator
        if kind == "name":
            take()
            if value not in index:
                raise ValueError(f"unknown variable {value!r} at position {where}")
            k = 1
            if peek() is not None and peek()[0] == "^":
                take()
                k = parse_int("an integer exponent")
            exps[index[value]] += k
            return coeff
        raise ValueError(f"syntax error at position {where}: expected a factor")

    pairs: list[tuple[Exponent, Fraction]] = []
    sign = 1
    tok = peek()
    if tok is not None and tok[0] in "+-":
        take()
        sign = -1 if tok[0] == "-" else 1
    while True:
        coeff = Fraction(sign)
        exps = [0] * len(names)
        coeff = parse_atom(coeff, exps)
        while peek() is not None and peek()[0] == "*":
            take()
            coeff = parse_atom(coeff, exps)
        pairs.append((tuple(exps), coeff))
        tok = peek()
        if tok is None:
            break
        if tok[0] not in "+-":
            raise ValueError(f"syntax error at position {tok[2]}: expected '+' or '-'")
        take()
        sign = -1 if tok[0] == "-" else 1
    degrees = {sum(e) for e, _ in pairs}
    if len(degrees) > 1:
        raise ValueError(
            f"inhomogeneous input: found terms of degree {min(degrees)} and {max(degrees)}")
    terms = _collect(pairs)
    if not terms:
        return None
    return Form(names, degrees.pop(), terms)
