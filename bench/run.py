"""Benchmark for wildforms: one closed-loop workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

One caller runs one job at a time on this thread.  A job calls the
public entry ``wildforms.cli.main(argv)`` in-process with stdout
captured; its output is checked after the timed window.  Rounds (one
job list each, see workloads.py) run until the next round would end
past ``--seconds``, and never fewer than MIN_JOBS jobs in total.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays
round 0 alternately without and with the tracer (tracer.py) and
reports the per-layer metrics and the tracing overhead; it also checks
that traced and untraced outputs are byte-identical and that every
traced replay gives the same counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported
from ``src/`` of the checkout this file sits in; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import check  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_JOBS = 100
SETUP_REPEATS = 25

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "peak_rss_mib": "MiB", "ok_ratio": "ratio", "certified_ratio": "ratio",
}

# per-layer metric -> unit; names follow "<module>.<function>.<measure>"
PER_LAYER = {
    "apolar.catalecticant.self_s": "s",
    "apolar.catalecticant.calls": "count",
    "apolar.slice.cells": "count",
    "apolar.slice.nnz": "count",
    "apolar.slice.reuse_ratio": "ratio",
    "apolar.hilbert.calls": "count",
    "apolar.apolar_basis.self_s": "s",
    "apolar.kernel_basis.self_s": "s",
    "linalg.sparse_rank.self_s": "s",
    "linalg.rank.self_s": "s",
    "linalg.rank.cells": "count",
    "linalg.greedy_independent.self_s": "s",
    "linalg.max_matching.self_s": "s",
    "linalg.nullspace.self_s": "s",
    "polymat.bareiss_jordan.self_s": "s",
    "polymat.bareiss_jordan.calls": "count",
    "polymat.kernel_vector.self_s": "s",
    "polymat.bareiss_det.self_s": "s",
    "hessian.mixed_hessian.self_s": "s",
    "hessian.mixed_hessian.entries": "count",
    "hessian.evaluated_rank.self_s": "s",
    "hessian.evaluated_rank.calls": "count",
    "hessian.generic_rank.self_s": "s",
    "hessian.generic_rank.calls": "count",
    "hessian.generic_rank.reuse_ratio": "ratio",
    "hessian.rung.witness": "count",
    "hessian.rung.matching": "count",
    "hessian.rung.symbolic": "count",
    "hessian.rung.probabilistic": "count",
    "hessian.eval_trials": "count",
    "hessian.hessian_determinant.self_s": "s",
    "hessian.lefschetz_property.self_s": "s",
    "powersum.binary_waring_rank.self_s": "s",
    "powersum.binary_waring_rank.calls": "count",
    "powersum.is_squarefree_binary.calls": "count",
    "powersum.resultant.calls": "count",
    "powersum.resultant.max_dim": "count",
    "powersum.resultant_ratio": "ratio",
    "bounds.wild_certificate.self_s": "s",
    "bounds.border_upper.self_s": "s",
    "bounds.cactus_lower_vanishing.self_s": "s",
    "bounds.cactus_lower_degenerate.self_s": "s",
    "bounds.slice_rank_vanishing.self_s": "s",
    "families.build.self_s": "s",
    "poly.parse.self_s": "s",
    "poly.render.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class MissingProgram(RuntimeError):
    pass


def import_cli():
    """Fresh import of the program from this checkout's src/."""
    if not (SRC / "wildforms" / "cli.py").is_file():
        raise MissingProgram(f"no wildforms sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "wildforms" or n.startswith("wildforms.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("wildforms")
    cli = importlib.import_module("wildforms.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"wildforms was imported from {cli.__file__}")
    return cli


def setup(workload: str, seed: int):
    """Import plus generation of round 0, repeated; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_cli()
        seen: set = set()
        first = WORKLOADS[workload](seed, 0, seen)
        times.append(time.perf_counter() - start)
    return statistics.median(times), cli, first, seen


def run_job(cli, argv) -> tuple[int, object, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
    return elapsed, code, out.getvalue()


def run_round(cli, jobs, tracer=None) -> tuple[float, list]:
    """Run one job list; with a tracer, its spans carry the job index."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        results.append(run_job(cli, job.argv))
    return time.perf_counter() - start, results


def check_round(jobs, results) -> tuple[int, int, int]:
    """(failed jobs, claims made, claims certified) for one round."""
    failed = made = certified = 0
    for job, (_, code, stdout) in zip(jobs, results):
        problems, m, c = check(job.command, job.expect, code, stdout)
        if problems:
            failed += 1
            print(f"FAIL {' '.join(job.argv)}: {'; '.join(problems)}", file=sys.stderr)
        made += m
        certified += c
    return failed, made, certified


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float) -> dict:
    setup_s, cli, first, seen = setup(workload, seed)
    round_walls, latencies = [], []
    attempted = failed = made = certified = 0
    jobs = first
    round_index = 0
    start = time.perf_counter()
    while True:
        wall, results = run_round(cli, jobs)
        round_walls.append(wall)
        latencies += [ns / 1e6 for ns, _, _ in results]
        f, m, c = check_round(jobs, results)
        attempted += len(jobs)
        failed, made, certified = failed + f, made + m, certified + c
        elapsed = time.perf_counter() - start
        if (len(latencies) >= MIN_JOBS
                and elapsed + statistics.median(round_walls) > seconds):
            break
        round_index += 1
        jobs = WORKLOADS[workload](seed, round_index, seen)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# {workload} seed={seed}: {len(round_walls)} rounds, "
          f"{len(latencies)} jobs, failed_ratio={failed / attempted:.6g}, "
          f"p90 has {len(latencies) - int(0.9 * len(latencies))} samples above it")
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(round_walls),
        "job_p50_ms": percentile(latencies, 50),
        "job_p90_ms": percentile(latencies, 90),
        "peak_rss_mib": rss_mib,
        "ok_ratio": 1 - failed / attempted,
        "certified_ratio": certified / made if made else 0.0,
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    _, cli, jobs, _ = setup(workload, seed)
    plain_walls, traced_walls, tracers = [], [], []
    reference = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        order = (False, True) if len(plain_walls) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer = Tracer()
                with tracer:
                    wall, results = run_round(cli, jobs, tracer)
                tracers.append(tracer)
                traced_walls.append(wall)
            else:
                wall, results = run_round(cli, jobs)
                plain_walls.append(wall)
            outputs = [(code, stdout) for _, code, stdout in results]
            attempted += len(jobs)
            if reference is None:
                reference = outputs
                failed += check_round(jobs, results)[0]
            else:
                for job, got, want in zip(jobs, outputs, reference):
                    if got != want:
                        failed += 1
                        print(f"FAIL output differs between passes: "
                              f"{' '.join(job.argv)}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if elapsed + pair > seconds:
            break
    all_metrics = [t.metrics() for t in tracers]
    counts = [{k: v for k, v in m.items() if not k.endswith(".self_s")}
              for m in all_metrics]
    if any(c != counts[0] for c in counts[1:]):
        failed += 1
        print("FAIL traced replays of one round gave different counts", file=sys.stderr)
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        elif name.endswith(".self_s"):
            value = statistics.median(m[name] for m in all_metrics)
        else:
            value = all_metrics[0][name]
        metrics[name] = value
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.tsv"
    tracers[0].write_spans(spans_path)
    print(f"# {workload} seed={seed}: {len(traced_walls)} traced replays of "
          f"{len(jobs)} jobs, {len(tracers[0].spans)} spans in "
          f"{spans_path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": PER_LAYER[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
