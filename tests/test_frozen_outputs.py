"""Frozen CLI outputs: ``--json --deterministic`` stays byte-identical.

Each command below runs in-process through ``wildforms.cli.main``; the
sha256 of its exit code, stdout and stderr must equal the digest stored
in ``tests/data/frozen_outputs.json``.  The corpus covers both cactus
routes (slice rank, support matching, a full-support Hessian whose
deficiency the rank ladder certifies with a kernel witness, and dense
forms whose Hessian is certified full rank by one evaluation), a
certificate whose strategy order exceeds the form's conciseness, one
whose evaluated Hessian splits into many incidence components,
rational coefficients, ``hilbert`` of odd and even degree,
``hessian`` with k = l and k < l, ``lefschetz``
with sampled and given (rational) elements and with sampling ruled
out by support matching, and ``binary-rank``,
including three forms whose rank the resultant of the partials of a
symbolic kernel member decides, up to four parameters, one whose
kernels are mostly unit operators for monomials with no stored slice
row, and one with rational coefficients.  Slice cells with mixed
denominators are pinned by a rational bigraded cubic, certified by the
slice-rank criterion, whose Hessian gets a closure kernel witness, and
by a rational multiple of the sheared perazzo cubic, whose witness
comes from full elimination.  Sparse slice components ranked mod p,
full rank or settled by the support matching, are pinned by
monomial-spread(3,4).  The family
listing, a member built as a product of forms, a chunk-plus-powers sum
whose parts ``bounds`` adds up again, and polynomial text whose terms
cancel and come back pin the form arithmetic.  Two forms whose Hilbert
growth fails at degree 1 and at the top admissible degree pin the
conciseness scan, and exceptional(5,9) and a rational sum of four
octic powers pin slices eliminated only on the rows that are not x_i
times a dependent row of the slice below.

The digests were written by the program of commit ee53730 (the first
two resultant ``binary-rank`` digests by commit 9c7ebc4, the third by
commit bd86157, which took the resultant from the Sylvester matrix,
``hessian --family perazzo --k 1`` by the child of commit e3a6079,
which reads kernel witnesses off matching closures, and
``analyze --family ikeda``, ``analyze --poly`` of the sheared perazzo
cubic and ``analyze --family monomial-spread(1,3)`` by the child of
commit 6dd5c24, which settles every cactus claim by support matching
or the rank ladder and reports the form's own conciseness, and the two
``hilbert`` digests and ``analyze --family monomial-spread(1,6)`` by
commit cc81983, whose ``hilbert`` still eliminated every slice, and
``family --list``, ``analyze --family power-family(3)``, ``bounds
--family exceptional(2,3) --seed 3`` and ``analyze --poly`` of the
cancelling cubic by commit f45fa4f, whose ``form_sum`` still folded
its parts pairwise, and the ``binary-rank`` digests of x^7 + y^7 and
of the rational binary quintic by commit a95aa92, whose kernels still
ran dense over every degree-k monomial, and ``analyze`` of
exceptional(3,7) and exceptional(4,7) by commit 5253eb9, which still
found linear powers by eliminating slice 1 and built every mixed
Hessian entry eagerly, and the ``lefschetz`` digests of
exceptional(2,3) and power-family(3) and ``hessian`` of
exceptional(3,5) at k = l = 2 by commit ea2d9de, which evaluated
Hessians and packed their symbolic rows through entry Forms and sampled
elements for every Lefschetz check, and ``analyze`` and ``hessian
--k 1`` of the rational bigraded cubic and ``hessian --k 1`` of 2/3
times the sheared perazzo cubic by commit a307862, whose slices still
held Fraction cells for rational forms and whose slice-rank criterion
built its own coefficient matrix, and ``analyze`` and ``hilbert`` of
monomial-spread(3,4) by commit f4f0433, which eliminated every slice
component of two or more rows and columns by Bareiss, and ``hilbert``
and ``analyze`` of x^5 + y^5 over x, y, z and of x^5 + y^5 + z^5 by
commit ce61225, whose growth checks still asked for a window of
slices, and ``analyze --family exceptional(5,9) --seed 1`` and
``hilbert`` of the four octic powers by commit 6387d5b, which still
eliminated every stored row of a slice), from the root of its checkout
with this file copied in:

    PYTHONPATH=src python tests/test_frozen_outputs.py > tests/data/frozen_outputs.json

A change that means to alter an output regenerates the file the same
way and says which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wildforms.cli import main

DATA = Path(__file__).resolve().parent / "data" / "frozen_outputs.json"

DENSE_TERNARY_QUARTIC = ("3*x^4 - 2*x^3*y + x^2*y^2 + 5*x*y^3 - y^4 + x^2*z^2"
                         " - 4*x*z^3 + 2*y^2*z^2 + y*z^3 + 7*z^4 + x*y*z^2")
DENSE_QUATERNARY_QUARTIC = ("x^4 + 2*y^4 - 3*z^4 + w^4 + x*y*z*w + x^2*y*z"
                            " - y^2*z*w + 3*x*z^2*w + 2*x^3*w - y^3*z")
RATIONAL_CUBIC = "1/2*x^3 - 3/7*x*y^2 + 5/3*y^2*z + z^3 - 2/5*x*z^2"
SHEARED_PERAZZO = ("x^3 + 2*x^2*u + x*y^2 + x*y*v + x*u^2 + y^2*z + y^2*u"
                   " + 2*y*z*v + y*u*v + z*v^2")
RATIONAL_QUINTIC = ("1/2*x^5 - 2/3*x^3*y*z + 3/4*x*y^2*z^2 + y^5 - 5/7*y*z^4"
                    " + 2/9*x^2*w^3")
RATIONAL_SEXTIC = ("3/5*x^6 + x^3*y^3 - 7/2*x^2*y^2*z^2 + 1/3*y^6 - 4/9*x*z^5"
                   " + y^4*z^2")
BINARY_SEXTIC = ("243*x^6 + 81*x^5*y - 540*x^4*y^2 + 450*x^3*y^3"
                 " - 165*x^2*y^4 + 29*x*y^5 - 2*y^6")
BINARY_OCTIC = ("4*x^8 + 68*x^7*y + 469*x^6*y^2 + 1638*x^5*y^3 + 2835*x^4*y^4"
                " + 1512*x^3*y^5 - 1701*x^2*y^6 - 1458*x*y^7 + 729*y^8")
BINARY_OCTIC_RANK_7 = ("64*x^8 - 64*x^7*y - 80*x^6*y^2 + 128*x^5*y^3 - 20*x^4*y^4"
                       " - 52*x^3*y^5 + 37*x^2*y^6 - 10*x*y^7 + y^8")
# x^2*y and y^3 cancel and come back, y^2*z cancels for good
CANCELLING_CUBIC = ("x^2*y + y^3 - x^2*y + x*z^2 + 2*y^2*z - y^3 + 3*x^2*y + z^3"
                    " - 2*y^2*z + y^3 - x*y*z")
RATIONAL_BINARY_QUINTIC = "1/2*x^5 - 3/4*x^3*y^2 + 2/3*y^5"
RATIONAL_BIGRADED = "1/2*x*u^2 + 2/3*y*u*v + 3/5*z*v^2"
SCALED_SHEARED_PERAZZO = ("2/3*x^3 + 4/3*x^2*u + 2/3*x*y^2 + 2/3*x*y*v + 2/3*x*u^2"
                          " + 2/3*y^2*z + 2/3*y^2*u + 4/3*y*z*v + 2/3*y*u*v"
                          " + 2/3*z*v^2")

# (x + 2y - z)^8 + (2x - y + 3z)^8 + (x - 3y + z)^8 + (x/2 + 2y/3 - z)^8
FOUR_OCTIC_POWERS = ("66049/256*x^8 - 24767/24*x^7*y + 49151/16*x^7*z + 77623/36*x^6*y^2"
                     " - 132391/12*x^6*y*z + 258951/16*x^6*z^2 - 77098/27*x^5*y^3"
                     " + 50897/3*x^5*y^2*z - 97097/2*x^5*y*z^2 + 193529/4*x^5*z^3"
                     " + 640780/81*x^4*y^4 - 627620/27*x^4*y^3*z + 197855/3*x^4*y^2*z^2"
                     " - 367115/3*x^4*y*z^3 + 726915/8*x^4*z^4 - 2979928/243*x^3*y^5"
                     " + 2017960/81*x^3*y^4*z - 1375360/27*x^3*y^3*z^2"
                     " + 1113560/9*x^3*y^2*z^3 - 545090/3*x^3*y*z^4 + 108857*x^3*z^5"
                     " + 16268812/729*x^2*y^6 - 3905944/81*x^2*y^5*z"
                     " + 1508780/27*x^2*y^4*z^2 - 2163280/27*x^2*y^3*z^3"
                     " + 424760/3*x^2*y^2*z^4 - 164164*x^2*y*z^5 + 81711*x^2*z^6"
                     " - 36058744/2187*x*y^7 + 27391112/729*x*y^6*z - 3115336/81*x*y^5*z^2"
                     " + 2696680/81*x*y^4*z^3 - 1367240/27*x*y^3*z^4 + 247352/3*x*y^2*z^5"
                     " - 245056/3*x*y*z^6 + 34988*x*z^7 + 44733154/6561*y^8"
                     " - 40556752/2187*y^7*z + 16372216/729*y^6*z^2 - 4111408/243*y^5*z^3"
                     " + 1010380/81*y^4*z^4 - 420784/27*y^3*z^5 + 187096/9*y^2*z^6"
                     " - 52624/3*y*z^7 + 6564*z^8")

COMMANDS = [
    ("analyze", "--family", "ikeda"),
    ("analyze", "--family", "perazzo"),
    ("analyze", "--family", "bb-cubic"),
    ("analyze", "--family", "exceptional(3,5)", "--seed", "1"),
    ("analyze", "--family", "monomial-spread(2,3)"),
    ("analyze", "--poly", DENSE_TERNARY_QUARTIC, "--vars", "x,y,z"),
    ("analyze", "--poly", DENSE_QUATERNARY_QUARTIC, "--vars", "x,y,z,w"),
    ("analyze", "--poly", RATIONAL_CUBIC, "--vars", "x,y,z"),
    # full support, rank 4 < 5: the cactus claim carries a kernel witness
    ("analyze", "--poly", SHEARED_PERAZZO, "--vars", "x,y,z,u,v"),
    # the strategy's order 3 exceeds the form's conciseness 2
    ("analyze", "--family", "monomial-spread(1,3)"),
    # its Hessian splits into 49 incidence components
    ("analyze", "--family", "monomial-spread(1,6)"),
    # odd and even degree: the upper half of the vector mirrors the lower
    ("hilbert", "--poly", RATIONAL_QUINTIC, "--vars", "x,y,z,w"),
    ("hilbert", "--poly", RATIONAL_SEXTIC, "--vars", "x,y,z"),
    ("hessian", "--family", "perazzo", "--k", "1"),
    ("hessian", "--poly", RATIONAL_CUBIC, "--vars", "x,y,z", "--k", "1"),
    ("hessian", "--family", "ikeda", "--k", "1", "--l", "2"),
    ("lefschetz", "--family", "ikeda", "--wlp"),
    ("lefschetz", "--family", "perazzo", "--slp"),
    ("lefschetz", "--poly", DENSE_TERNARY_QUARTIC, "--vars", "x,y,z", "--slp"),
    ("lefschetz", "--family", "perazzo", "--wlp", "--element=1/2,-3,2/5,1,7"),
    ("lefschetz", "--poly", RATIONAL_CUBIC, "--vars", "x,y,z", "--slp",
     "--element=-1/3,2,5/4"),
    ("binary-rank", "--poly", "x^5 + 3*x^2*y^3 - 2*x*y^4 + y^5", "--vars", "x,y"),
    # (x+2y)(3x-y)^5 and (x+3y)^6(2x-y)^2: sampling fails, so the resultant decides
    ("binary-rank", "--poly", BINARY_SEXTIC, "--vars", "x,y"),
    ("binary-rank", "--poly", BINARY_OCTIC, "--vars", "x,y"),
    # (x+y)^2(2x-y)^6: its resultants reach four parameters
    ("binary-rank", "--poly", BINARY_OCTIC_RANK_7, "--vars", "x,y"),
    ("family", "--list"),
    # a product of forms, a sum of a chunk and powers, a parse that cancels
    ("analyze", "--family", "power-family(3)"),
    ("bounds", "--family", "exceptional(2,3)", "--seed", "3"),
    ("analyze", "--poly", CANCELLING_CUBIC, "--vars", "x,y,z"),
    # slice 2 stores no row for x*y, so its one kernel operator is a unit
    ("binary-rank", "--poly", "x^7 + y^7", "--vars", "x,y"),
    # rational coefficients: its slices' cells are over one denominator, 12
    ("binary-rank", "--poly", RATIONAL_BINARY_QUINTIC, "--vars", "x,y"),
    # chunk plus powers: each power part is recognised as a linear power,
    # and the cactus bound reads the degenerate (2,2) Hessian
    ("analyze", "--family", "exceptional(3,7)", "--seed", "1"),
    ("analyze", "--family", "exceptional(4,7)", "--seed", "2"),
    # every Hessian's support matching number is below its size, so no
    # element is sampled and generic_rank gives the verdict
    ("lefschetz", "--family", "exceptional(2,3)", "--seed", "1", "--slp"),
    ("lefschetz", "--family", "power-family(3)", "--wlp"),
    # rows read once from slice 4, with the matching-closure kernel witness
    ("hessian", "--family", "exceptional(3,5)", "--seed", "1", "--k", "2",
     "--l", "2", "--max-symbolic-dim", "16"),
    # slice cells with mixed denominators: the slice-rank criterion certifies
    # the cactus claim, and the Hessian's kernel witness comes off a closure
    ("analyze", "--poly", RATIONAL_BIGRADED, "--vars", "x,y,z,u,v",
     "--partition", "X=x,y,z;U=u,v"),
    ("hessian", "--poly", RATIONAL_BIGRADED, "--vars", "x,y,z,u,v",
     "--partition", "X=x,y,z;U=u,v", "--k", "1"),
    # 2/3 times the sheared perazzo cubic: the witness from full elimination
    ("hessian", "--poly", SCALED_SHEARED_PERAZZO, "--vars", "x,y,z,u,v", "--k", "1"),
    # sparse slice components of ~150 rows, ranked mod p and settled by
    # the support matching; about 9 s each when Bareiss eliminated them
    ("analyze", "--family", "monomial-spread(3,4)"),
    ("hilbert", "--family", "monomial-spread(3,4)"),
    # Hilbert growth fails at degree 1 (z is missing), and falls short at
    # the top admissible degree 2 (conciseness 1)
    ("hilbert", "--poly", "x^5 + y^5", "--vars", "x,y,z"),
    ("analyze", "--poly", "x^5 + y^5", "--vars", "x,y,z"),
    ("hilbert", "--poly", "x^5 + y^5 + z^5", "--vars", "x,y,z"),
    ("analyze", "--poly", "x^5 + y^5 + z^5", "--vars", "x,y,z"),
    # slices 4 and 5 are eliminated only on the rows that are not x_i
    # times a dependent row of the slice below
    ("analyze", "--family", "exceptional(5,9)", "--seed", "1"),
    # Hilbert function 1 3 4 4 4 4 4 3 1: slice 2 is deficient, so slices
    # 3 and 4 eliminate 5 of their 10 and 4 of their 15 rows
    ("hilbert", "--poly", FOUR_OCTIC_POWERS, "--vars", "x,y,z"),
]


def _key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def digest(argv: tuple[str, ...]) -> str:
    """sha256 over the exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--json", "--deterministic"])
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def test_corpus_matches_the_frozen_file():
    frozen = json.loads(DATA.read_text())
    assert sorted(frozen) == sorted(_key(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[_key(a)[:60] for a in COMMANDS])
def test_output_is_frozen(argv):
    frozen = json.loads(DATA.read_text())
    assert digest(argv) == frozen[_key(argv)]


if __name__ == "__main__":
    print(json.dumps({_key(argv): digest(argv) for argv in COMMANDS}, indent=2))
