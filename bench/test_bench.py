"""Tests of the benchmark's own code: tracer, generators and checks.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import workloads
from checks import check, parse, render, sylvester_rank
from tracer import TARGETS, Tracer, UnwrappedBinding

ROOT = Path(__file__).resolve().parent.parent

SAMPLE_ARGVS = [
    ("analyze", "--family", "ikeda", "--json", "--deterministic"),
    ("analyze", "--family", "exceptional(3,5)", "--seed", "4", "--json",
     "--deterministic"),
    ("hessian", "--family", "perazzo", "--k", "1", "--max-symbolic-dim", "16",
     "--json", "--deterministic"),
    ("lefschetz", "--family", "ikeda", "--slp", "--json", "--deterministic"),
    ("binary-rank", "--poly", "x^6 - 3*x^4*y^2 + 2*x*y^5", "--vars", "x,y", "--json"),
    ("binary-rank", "--poly", "x*y^5", "--vars", "x,y", "--json"),
    ("binary-rank", "--poly=-8*x^3*y^6", "--vars", "x,y", "--json"),
    ("analyze", "--poly", "3*x^4*y - x^2*z^3 + 5*y*z^4", "--vars", "x,y,z",
     "--json", "--deterministic"),
]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _outputs(cli, argvs):
    return [run.run_job(cli, argv)[1:] for argv in argvs]


def test_traced_outputs_are_byte_identical(cli):
    plain = _outputs(cli, SAMPLE_ARGVS)
    tracer = Tracer()
    with tracer:
        traced = _outputs(cli, SAMPLE_ARGVS)
    assert traced == plain
    assert all(code == 0 for code, _ in plain)
    assert tracer.calls["cli.main"] == len(SAMPLE_ARGVS)


def test_uninstall_restores_every_binding(cli):
    originals = {attr: getattr(sys.modules[module], attr)
                 for module, attr, _ in TARGETS if "." not in attr}
    with Tracer():
        assert sys.modules["wildforms.bounds"].hilbert is not originals["hilbert"]
    for module, attr, _ in TARGETS:
        if "." not in attr:
            assert getattr(sys.modules[module], attr) is originals[attr]


@pytest.mark.parametrize("holder", [tuple, dict])
def test_install_fails_on_an_unwrapped_binding(cli, holder):
    from wildforms import linalg
    original = linalg.rank
    leak = types.ModuleType("wildforms._bench_leak")
    leak.kept = (original,) if holder is tuple else {"rank": original}
    sys.modules[leak.__name__] = leak
    try:
        tracer = Tracer()
        with pytest.raises(UnwrappedBinding, match="linalg.rank"):
            tracer.install()
        assert linalg.rank is original
    finally:
        del sys.modules[leak.__name__]


def test_two_traced_runs_give_identical_counts(cli):
    def counts():
        tracer = Tracer()
        with tracer:
            _outputs(cli, SAMPLE_ARGVS)
        return {k: v for k, v in tracer.metrics().items() if not k.endswith("self_s")}
    first, second = counts(), counts()
    assert first == second
    assert first["powersum.resultant.calls"] >= 1
    assert first["hessian.rung.symbolic"] >= 1


def test_self_time_excludes_children(cli):
    tracer = Tracer()
    with tracer:
        _outputs(cli, SAMPLE_ARGVS[:1])
    spans = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[1] == "cli.main")
    children = sum(s[3] - s[2] for s in tracer.spans if s[4] == root[0])
    assert tracer.self_ns["cli.main"] == root[3] - root[2] - children
    assert all(s[4] is None or s[4] in spans for s in tracer.spans)


def test_metrics_cover_the_per_layer_list(cli):
    tracer = Tracer()
    with tracer:
        _outputs(cli, SAMPLE_ARGVS)
    names = set(tracer.metrics()) | {"trace.overhead_ratio"}
    assert set(run.PER_LAYER) <= names


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        unit = run.END_TO_END.get(metric["name"]) or run.PER_LAYER[metric["name"]]
        assert metric["unit"] == unit
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded_and_distinct(name):
    first = workloads.generate(name, 3, 3)
    again = workloads.generate(name, 3, 3)
    other = workloads.generate(name, 4, 3)
    assert [[j.argv for j in r] for r in first] == [[j.argv for j in r] for r in again]
    assert first[0] != other[0]
    tiers = [[j.tier for j in r] for r in first]
    assert all(t == tiers[0] for t in tiers)
    argvs = [j.argv for r in first for j in r]
    if name in ("random", "binary"):
        assert len(set(argvs)) == len(argvs)


def test_random_forms_are_rendered_canonically(cli):
    from wildforms.poly import parse as lib_parse, render as lib_render
    for job in workloads.generate("random", 5, 1)[0]:
        text, variables = job.argv[1].removeprefix("--poly="), tuple(job.argv[3].split(","))
        assert lib_render(lib_parse(text, variables)) == text
        assert render(variables, parse(text, variables)) == text


def test_sylvester_rank_known_values():
    assert sylvester_rank([0, 0, 1, 0, 0, 0, 0]) == 5          # x^2*y^4
    assert sylvester_rank([1, 0, 0, 1]) == 2                    # x^3 + y^3
    assert sylvester_rank([0, 1, 0]) == 2                       # x*y
    assert sylvester_rank([0, 0, 3, 0, 0]) == 3                 # 3 x^2 y^2
    assert sylvester_rank([1, 0, 0, 0, 0, 0]) == 1              # y^5


def test_checks_reject_wrong_outputs():
    good = json.dumps({"command": "binary-rank", "rank": 5})
    assert check("binary-rank", {"rank": 5}, 0, good)[0] == []
    assert check("binary-rank", {"rank": 6}, 0, good)[0]
    assert check("binary-rank", {"rank": 5}, 2, good)[0]
    assert check("binary-rank", {"rank": 5}, 0, "not json")[0]


def test_checks_pass_on_sample_outputs(cli):
    expects = [workloads.PINNED_ANALYZE["ikeda"],
               workloads.PINNED_ANALYZE["exceptional(3,5)"],
               workloads.PINNED_HESSIAN[("perazzo", 1, 1)],
               {"verdict": "fails"},
               {"coeffs": [0, 2, 0, 0, -3, 0, 1]},
               {"rank": 6},
               {"rank": 7},
               {"k_from_hilbert": True}]
    for argv, expect, (code, out) in zip(SAMPLE_ARGVS, expects,
                                         _outputs(cli, SAMPLE_ARGVS)):
        problems, made, certified = check(argv[0], expect, code, out)
        assert problems == [], argv
        assert 1 <= made and 0 <= certified <= made


def _set_verdict(cert):
    cert["verdict"] = "not-established"


def _drop_a_term(cert):
    part = cert["border"]["parts"][0]
    part["part"] = part["part"].rsplit(" + ", 1)[0]


def _inflate_a_part(cert):
    cert["border"]["parts"][0]["value"] += 1


@pytest.mark.parametrize("corrupt", [_set_verdict, _drop_a_term, _inflate_a_part])
def test_analyze_check_catches_a_corrupted_certificate(cli, corrupt):
    code, out = _outputs(cli, SAMPLE_ARGVS[:1])[0]
    doc = json.loads(out)
    corrupt(doc["certificate"])
    problems, _, _ = check("analyze", workloads.PINNED_ANALYZE["ikeda"], code,
                           json.dumps(doc))
    assert problems


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "binary",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
