"""Smoke test of the benchmark itself, at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that BENCHMARK.json and run.py agree on every metric, that
every named metric is emitted with its unit, that the correctness gate
trips when the checker is handed a wrong answer, and that the command
fails without a result when the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_run_py():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    r = _run("--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", trace, "--size", "smoke")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = _bench_json()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), name
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())
        for name, unit in run.END_TO_END:
            assert name in r.stdout and unit in r.stdout


def _smoke_pass(workload: str):
    module = run.load_workload(workload)
    inp = module.make_inputs(5, module.SIZES["smoke"])
    tr = Tracer()
    res = module.run_pass(inp, tr)
    assert module.check(inp, res, tr) == []
    return module, inp, res, tr


def test_gate_trips_on_a_wrong_selector_value():
    module, inp, res, tr = _smoke_pass("exact_chain")
    evals = res.outputs.evals
    i = next(i for i, r in enumerate(evals) if r.defined)
    wrong = tuple(c + 1 for c in evals[i].value)
    evals[i] = dataclasses.replace(evals[i], value=wrong)
    assert any("distance" in msg for msg in module.check(inp, res, tr))


def test_gate_trips_on_a_wrong_robot_answer():
    module, inp, res, tr = _smoke_pass("robot_grid")
    evals = res.outputs.evals
    evals[0] = dataclasses.replace(evals[0], value=(99, 99, 99))
    res.outputs.sims["selector"].truncated = True
    failures = module.check(inp, res, tr)
    assert any("distance" in msg for msg in failures)
    assert any("truncated" in msg for msg in failures)


def test_gate_trips_on_an_overlapping_reduction():
    module, inp, res, tr = _smoke_pass("domain_suite")
    from selectorkit.setalg import GeneralizedBasicSet, SetSequence

    i, (xs, ks) = next(
        (i, pair) for i, pair in enumerate(res.outputs.reductions) if pair[1].union_parts()
    )
    part = ks.union_parts()[0]
    doubled = SetSequence(
        ks.items + (GeneralizedBasicSet.of([part], dim=part.dim),), ks.pairing
    )
    res.outputs.reductions[i] = (xs, doubled)
    assert any("overlap" in msg for msg in module.check(inp, res, tr))


def test_gate_trips_when_a_pass_does_not_repeat_the_first():
    module, inp, res, tr = _smoke_pass("domain_suite")
    other = dataclasses.replace(res, fingerprint=dict(res.fingerprint, reductions="0"))
    attempted, failures = run.gate(module, inp, [(res, False), (other, False)], False, tr)
    assert attempted == 2 * res.ops
    assert failures == ["pass 1: reductions differs from the first pass"]


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    r = _run("--workload", "domain_suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
