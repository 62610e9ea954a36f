"""The benchmark's per-layer attribution still reaches the kernel path.

``bench/tracer.py`` wraps ``linalg.nullspace`` and
``CatalecticantSlice.kernel_basis`` by name, and the ``binary``
workload reports their self times.  A refactor that stopped calling
either through those names would leave the metrics reading zero
without failing anything else, so one traced ``binary-rank`` job must
reach both.  The tracer also counts the calls through
``apolar.catalecticant`` and the cells of the slices they return, so a
slice built on the way to another (a chain step, a mirror's partner)
must not pass through that name.
"""

from __future__ import annotations

import contextlib
import io

from wildforms import apolar, hessian
from wildforms.cli import main
from wildforms.poly import parse

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


def test_chained_and_mirrored_builds_add_no_catalecticant_calls():
    tracer = bench_module("tracer").Tracer()
    f = parse("x^3*y + 2*y^2*z^2 - z^4 + x*y*z^2", "xyz")
    with tracer:
        top = apolar.catalecticant(f, 4)      # slice 0, mirrored
        middle = apolar.catalecticant(f, 2)   # slices 1 and 2, stepped up
        hessian.mixed_hessian(f, 1, 2)        # slice 3, mirrored from slice 1
    assert sorted(f._slices) == [0, 1, 2, 3, 4]
    assert tracer.calls["apolar.catalecticant"] == 5
    returned = (top, middle, f._slices[1], f._slices[2], f._slices[3])
    assert tracer.counts["apolar.slice.cells"] == sum(s.nrows * s.ncols for s in returned)
