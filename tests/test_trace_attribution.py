"""The benchmark's per-layer attribution still reaches the kernel path.

``bench/tracer.py`` wraps ``linalg.nullspace`` and
``CatalecticantSlice.kernel_basis`` by name, and the ``binary``
workload reports their self times.  A refactor that stopped calling
either through those names would leave the metrics reading zero
without failing anything else, so one traced ``binary-rank`` job must
reach both.
"""

from __future__ import annotations

import contextlib
import io

from wildforms.cli import main

from helpers import bench_module


def test_binary_rank_job_reaches_kernel_layers():
    tracer = bench_module("tracer").Tracer()
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        code = main(["binary-rank", "--poly", "x^5 + 3*x^2*y^3 - 2*x*y^4 + y^5",
                     "--vars", "x,y", "--json"])
    assert code == 0
    assert tracer.calls.get("powersum.binary_waring_rank", 0) == 1
    assert tracer.calls.get("apolar.kernel_basis", 0) >= 1
    assert tracer.calls.get("linalg.nullspace", 0) >= 1
