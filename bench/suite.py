"""Run the benchmark over several seeds and report medians and spreads.

    python3 bench/suite.py --seeds 1-10                 # every workload
    python3 bench/suite.py --seeds 1-5 --workloads random --out runs.json
    python3 bench/suite.py --seeds 1 --trace 1          # per-layer metrics

Each run is a separate ``bench/run.py`` process, started one at a time.
For every metric the table gives the median over seeds, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) /
median, next to the bound in BENCHMARK.json; ``!`` marks an end-to-end
spread (other than setup_s) above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        lo, _, hi = piece.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def summarize(results: list[dict]) -> dict:
    return {name: {"unit": metric["unit"],
                   **stats([r["metrics"][name]["value"] for r in results])}
            for name, metric in results[0]["metrics"].items()}


def table(summary: dict, bounds: dict) -> list[str]:
    lines = []
    for name, row in summary.items():
        bound = bounds.get(name)
        spread = row["spread"]
        flag = ""
        if bound is not None and name != "setup_s" and (spread is None
                                                        or spread > bound / 3):
            flag = " !"
        lines.append(f"  {name:40s} {row['median']:14.6g} {row['unit']:6s} "
                     f"q1={row['q1']:.6g} q3={row['q3']:.6g} spread="
                     + ("n/a" if spread is None else f"{spread:.4f}")
                     + (f" bound={bound}" if bound is not None else "") + flag)
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        summary = summarize(results)
        everything[workload] = {"summary": summary, "runs": results}
        print(f"{workload}:")
        print("\n".join(table(summary, bounds)), flush=True)
    if args.out:
        record = {"python": platform.python_version(), "machine": platform.machine(),
                  "cpus": os.cpu_count(), "seconds": args.seconds,
                  "trace": args.trace, "workloads": everything}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
