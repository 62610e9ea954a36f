"""One sha256 over the outputs of the benchmark's round-0 jobs.

Run from the root of a checkout:

    python tests/round0_digest.py

It runs round 0 of every workload in ``bench/workloads.py`` at seeds
1-3, then three long jobs (``analyze`` of monomial-spread(3,4) and of
exceptional(5,9), ``hilbert`` of x^3000), each in-process through
``wildforms.cli.main`` of that checkout's ``src/``.  It prints the job
count and one sha256 over every job's argv, exit code, stdout and
stderr, in order.  Two checkouts whose digests agree gave byte-identical
outputs on every job, which is how a refactor shows it changed nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from wildforms.cli import main  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (1, 2, 3)
TAILS = [
    ("analyze", "--family", "monomial-spread(3,4)", "--json", "--deterministic"),
    ("analyze", "--family", "exceptional(5,9)", "--seed", "1", "--json", "--deterministic"),
    ("hilbert", "--poly", "x^3000", "--vars", "x", "--json", "--deterministic"),
]


def run(argv) -> tuple[object, str, str]:
    """Exit code (or the exception raised), stdout and stderr of one job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is an output too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def jobs() -> list[tuple]:
    argvs = [job.argv for workload in WORKLOADS for seed in SEEDS
             for job in generate(workload, seed, 1)[0]]
    return argvs + TAILS


def digest() -> tuple[int, str]:
    if not Path(sys.modules["wildforms"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"run from a checkout root: wildforms is not under {ROOT / 'src'}")
    total = hashlib.sha256()
    argvs = jobs()
    for argv in argvs:
        total.update(json.dumps([list(argv), *run(argv)]).encode() + b"\n")
    return len(argvs), total.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest()
    print(f"{count} jobs sha256 {hexdigest}")
