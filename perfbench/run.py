#!/usr/bin/env python3
"""Seeded benchmark for selectorkit, one workload per invocation.

    python3 perfbench/run.py --workload robot_grid --seed 1 --seconds 30 --trace 0

The run times set-up in fresh processes, then repeats closed-loop passes
of the workload (one caller; each call starts after the previous one
returns), as many as fit in --seconds and at least two.  It checks the
outputs of the first pass against what the program certifies and
requires every later pass to reproduce them exactly.  Every time it
reports is scaled to a reference host speed by a calibration timed right
before and after each pass (see common.Calibration); the report prints
the raw pass times and the factors too.  It prints a report
with every figure by name and unit, then one JSON line: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A traced
run alternates untraced and traced passes, takes per-layer figures from
the traced ones, reports the difference of their wall times as the
tracing overhead and writes the spans to .perfbench-out/.

Exit status: 0 when every output is correct, 1 when the correctness
gate fails (the JSON line says "correct": false), 2 on bad usage or when
the program's sources are missing.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (
    REF_CALIBRATION_S,
    Calibration,
    PassResult,
    percentile,
    speed_scale,
    tail_percentile,
)
from tracing import Tracer, self_time_by_layer, total_by_name, under_root

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("robot_grid", "exact_chain", "domain_suite")
SETUP_REPEATS = 7
MIN_PASSES = 2
# The thread fan-out in selectorkit runs Python code under the GIL; on a
# 2-core box two workers made the export slower and noisier, so the
# program's own default of one is pinned.  At the benchmark's sizes a
# second BLAS thread did not make robot_grid faster, and it exposes the
# run to the load on a second core, which the single-threaded
# calibration does not see, so BLAS is pinned to one thread as well.
SELECTORKIT_THREADS = 1
BLAS_THREADS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("certify_s", "s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_rss_mb", "MB"),
)

# per-layer time metrics: the spans summed for each, within one pass
PASS_SPANS = {
    "robot.export_svf_s": ("robot.export_svf",),
    "robot.sim_selector_s": ("robot.simulate_selector",),
    "robot.sim_analytic_s": ("robot.simulate_analytic",),
    "selector.extract_s": ("selector.extract",),
    "selector.eval_s": ("selector.eval_first", "selector.eval"),
    "selector.first_eval_s": ("selector.eval_first",),
    "domain.verify_s": ("domain.verify",),
    "domain.closure_s": ("domain.closure",),
    "setalg.reduction_s": ("setalg.countable_reduction",),
    "svf.build_s": ("svf.build",),
    "inclusion.filippov_s": ("inclusion.filippov_tube", "inclusion.filippov_cellwise"),
    "cli.chain_json_s": ("cli.chain_json", "cli.chain_from_json"),
    "cli.sim_csv_s": ("cli.sim_csv",),
}
# spans and counts of the correctness check of the first pass, outside
# the timed passes
CHECK_SPANS = {"svf.distance_s": ("svf.distance",)}
CHECK_COUNTS = ("svf.distance_calls",)
LAYERS = ("setalg", "domain", "svf", "selector", "inclusion", "robot", "cli")
# per-layer counts, read from objects the program returned
COUNTS = (
    ("robot.cells", "count"),
    ("robot.excluded_cells", "count"),
    ("robot.net_points", "count"),
    ("robot.tau", "norm"),
    ("robot.control_steps", "count"),
    ("robot.witness_hits", "count"),
    ("selector.pieces.L2", "count"),
    ("selector.pieces.L3", "count"),
    ("selector.pieces.L4", "count"),
    ("selector.dom_measure", "frac"),
    ("selector.eval_calls", "count"),
    ("selector.eval_defined_frac", "frac"),
    ("domain.verify_calls", "count"),
    ("domain.witness_parts", "count"),
    ("domain.certs_ok_frac", "frac"),
    ("setalg.reduction_calls", "count"),
    ("setalg.parts_in", "count"),
    ("setalg.parts_out", "count"),
    ("svf.distance_calls", "count"),
    ("inclusion.iterations", "count"),
    ("inclusion.grid_points", "count"),
    ("inclusion.certified", "count"),
    ("cli.artifact_bytes", "bytes"),
)
PER_LAYER = (
    tuple((name, "s") for name in PASS_SPANS)
    + tuple((name, "s") for name in CHECK_SPANS)
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS + ("bench",))
    + COUNTS
    + (("trace.overhead_s", "s"),)
)

# workload-specific figures the report prints next to the JSON metrics
REPORT_UNITS = {
    "chain_s": "s",
    "first_eval_ms": "ms",
    "control_steps_per_s": "1/s",
    "di_solve_s": "s",
    "certs_per_s": "1/s",
    "reductions_per_s": "1/s",
}
OP_NAMES = {"robot_grid": "eval", "exact_chain": "eval", "domain_suite": "reduction"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke shrinks every pass, for the benchmark's own test",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads() -> dict[str, str]:
    """Fix the thread counts before numpy loads; never above the cores."""
    cores = len(os.sched_getaffinity(0))
    pinned = {
        "SELECTORKIT_THREADS": str(min(SELECTORKIT_THREADS, cores)),
        "OPENBLAS_NUM_THREADS": str(min(BLAS_THREADS, cores)),
        "OMP_NUM_THREADS": str(min(BLAS_THREADS, cores)),
    }
    os.environ.update(pinned)
    return {"cores": str(cores), **pinned}


def load_workload(name: str):
    """Import the workload module, and with it selectorkit from ./src.

    Returns None when the sources are missing: an installed copy of the
    package elsewhere must not stand in for the code under test.
    """
    if not (SRC / "selectorkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(name)
    origin = Path(sys.modules["selectorkit"].__file__).resolve()
    return module if SRC.resolve() in origin.parents else None


def environment(env: dict[str, str]) -> dict[str, str]:
    out = dict(env, python=platform.python_version())
    numpy = sys.modules.get("numpy")
    if numpy is None:
        out["numpy"] = "not loaded by this workload"
        return out
    out["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return out


def _child(args, flag: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size, flag,
    ]


def time_setups(args, cal: Calibration) -> tuple[list[float], list[float]]:
    """Raw wall times of fresh processes that import the program and build
    the inputs, and the host-speed factor of each."""
    times, scales = [], []
    before = cal.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(_child(args, "--setup-only"), check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        after = cal.sample()
        scales.append(speed_scale(before, after))
        before = after
    return times, scales


def peak_rss_mb(args) -> float:
    """Peak resident set of a fresh process that sets up and runs one pass.

    A process of its own, so that neither the calibration's data nor
    another workload counts.
    """
    out = subprocess.run(_child(args, "--rss-probe"), check=True, capture_output=True,
                         text=True, timeout=170)
    return float(out.stdout.split()[-1])


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(module, inp, seconds: float, trace: bool, tr: Tracer, cal: Calibration):
    """Closed-loop passes, as many as fit in `seconds` and at least two.

    A pass starts only if a pass of median length still ends in time.
    In a traced run every other pass is traced.  The calibration is
    sampled before the first pass and after each; the sample after one
    pass is the one before the next.
    """
    results: list[tuple[PassResult, bool]] = []
    t_start = time.perf_counter()
    before = cal.sample()
    while len(results) < MIN_PASSES or (
        time.perf_counter() - t_start + statistics.median(r.wall_s for r, _ in results) <= seconds
    ):
        traced = trace and len(results) % 2 == 1
        # start every pass from the same heap: later passes keep only
        # their fingerprints, and the previous pass's garbage is collected
        # before the clock starts rather than during the pass
        gc.collect()
        tr.enabled, tr.pass_id = traced, len(results)
        with tr.span("bench.pass"):
            res = module.run_pass(inp, tr)
        tr.enabled = False
        after = cal.sample()
        res.scale, before = speed_scale(before, after), after
        if results:
            res.outputs = None
        results.append((res, traced))
    return results, time.perf_counter() - t_start


def gate(module, inp, results, trace: bool, tr: Tracer) -> tuple[int, list[str]]:
    """Check the first pass; later passes must reproduce its fingerprint."""
    first = results[0][0]
    tr.enabled, tr.pass_id = trace, 0
    with tr.span("bench.check"):
        failures = list(module.check(inp, first, tr))
    tr.enabled = False
    for i, (res, _) in enumerate(results[1:], start=1):
        for key, value in res.fingerprint.items():
            if first.fingerprint.get(key) != value:
                failures.append(f"pass {i}: {key} differs from the first pass")
    attempted = sum(res.ops for res, _ in results)
    return attempted, failures


def timing_line(name: str, unit: str, samples: list[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    vals = sorted(samples)
    text = f"{name:22s} {statistics.median(vals):12.6g} {unit:5s} p50 of n={len(vals)}"
    p = tail_percentile(len(vals))
    if p is not None and p > 50.0:
        text += f", p{p:g} {percentile(vals, p):.6g}"
    elif p is None:
        text += " (no percentile has ten samples beyond it)"
    return text


def end_to_end(results, setups: list[float], rss: float):
    """The end-to-end metrics and every query latency in us, sorted.

    Each pass's times are scaled by its host-speed factor; the set-up
    times come scaled already.
    """
    ops = sorted(1e6 * res.scale * v for res, _ in results for v in res.op_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res.scale * res.wall_s for res, _ in results),
        "certify_s": statistics.median(res.scale * res.certify_s for res, _ in results),
        "op_p50_us": statistics.median(ops),
        "op_p90_us": percentile(ops, 90.0),
        "peak_rss_mb": rss,
    }
    return metrics, ops


def per_layer(results, tr: Tracer) -> dict[str, float]:
    """Per-layer metrics, every time scaled by the host-speed factor of its
    pass; the check after the passes takes their median factor."""
    traced = [res for res, t in results if t]
    plain = [res for res, t in results if not t]
    in_pass = under_root(tr.spans, "bench.pass")
    in_check = under_root(tr.spans, "bench.check")
    by_pass: dict[int, list] = {}
    for s in in_pass:
        by_pass.setdefault(s.pass_id, []).append(s)
    per_pass = []
    for pass_id, spans in by_pass.items():
        k = results[pass_id][0].scale
        totals = total_by_name(spans)
        selfs = self_time_by_layer(spans)
        row = {m: k * sum(totals.get(n, 0.0) for n in names) for m, names in PASS_SPANS.items()}
        row.update({f"{layer}.self_s": k * selfs.get(layer, 0.0) for layer in LAYERS + ("bench",)})
        per_pass.append(row)
    metrics = {m: statistics.median(row[m] for row in per_pass) for m in per_pass[0]}
    check_totals = total_by_name(in_check)
    k_check = statistics.median(res.scale for res, _ in results)
    for m, names in CHECK_SPANS.items():
        metrics[m] = k_check * sum(check_totals.get(n, 0.0) for n in names)
    checked = results[0][0]
    for name, _ in COUNTS:
        source = [checked] if name in CHECK_COUNTS else traced
        metrics[name] = statistics.median(res.counts.get(name, 0) for res in source)
    metrics["trace.overhead_s"] = statistics.median(
        r.scale * r.wall_s for r in traced
    ) - statistics.median(r.scale * r.wall_s for r in plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_threads()
    module = load_workload(args.workload)
    if module is None:
        print(f"error: selectorkit sources not found under {SRC}", file=sys.stderr)
        return 2
    size = module.SIZES[args.size]
    inp = module.make_inputs(args.seed, size)
    if args.setup_only:
        return 0
    if args.rss_probe:
        module.run_pass(inp, Tracer())
        print(own_peak_rss_mb())
        return 0

    tr = Tracer()
    try:
        # before the calibration's data exists: a child's peak counts the
        # parent's memory it was forked from
        rss = peak_rss_mb(args)
        cal = Calibration()
        raw_setups, setup_scales = time_setups(args, cal)
        setups = [k * t for k, t in zip(setup_scales, raw_setups)]
        results, elapsed = run_passes(module, inp, args.seconds, bool(args.trace), tr, cal)
        t_gate = time.perf_counter()
        attempted, failures = gate(module, inp, results, bool(args.trace), tr)
        t_gate = time.perf_counter() - t_gate
    except Exception:  # a call that raises is a failed operation: report and stop
        traceback.print_exc()
        print("FAIL: a pass raised; no result", file=sys.stderr)
        return 1
    failed = min(len(failures), attempted)

    mode = "traced every other pass" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(results)} passes in {elapsed:.1f} s, {mode}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment(env).items()))
    e2e, ops = end_to_end(results, setups, rss)
    op = OP_NAMES[args.workload]
    print(f"host speed: times are scaled to a calibration sample of {REF_CALIBRATION_S} s;"
          " factors by set-up " + " ".join(f"{k:.3f}" for k in setup_scales)
          + ", by pass " + " ".join(f"{r.scale:.3f}" for r, _ in results))
    print(timing_line("setup_s", "s", setups) + " set-ups in fresh processes; raw: "
          + " ".join(f"{t:.3f}" for t in raw_setups))
    print(timing_line("wall_s", "s", [r.scale * r.wall_s for r, _ in results])
          + "; raw by pass: " + " ".join(f"{r.wall_s:.3f}" for r, _ in results))
    print(timing_line("certify_s", "s", [r.scale * r.certify_s for r, _ in results]))
    print(timing_line(f"{op}_us", "us", ops) + f"; {op}_p50_us {e2e['op_p50_us']:.6g},"
          f" {op}_p90_us {e2e['op_p90_us']:.6g}, {op}_p99_us {percentile(ops, 99.0):.6g}")
    for name in results[0][0].report:
        # a rate is per time, so it scales by the inverse factor
        power = -1 if REPORT_UNITS[name] == "1/s" else 1
        print(timing_line(name, REPORT_UNITS[name],
                          [r.scale**power * r.report[name] for r, _ in results]))
    print(f"{'peak_rss_mb':22s} {e2e['peak_rss_mb']:12.6g} MB of a fresh process running one pass;"
          f" this process, calibration data included: {own_peak_rss_mb():.1f} MB")
    print(f"{'fail_frac':22s} {failed / attempted:12.6g} ({failed} of {attempted} operations,"
          f" checked in {t_gate:.1f} s)")
    for msg in failures[:20]:
        print(f"FAIL: {msg}")

    if args.trace:
        metrics = per_layer(results, tr)
        units = dict(PER_LAYER)
        for name, value in metrics.items():
            print(f"{name:28s} {value:14.6g} {units[name]}")
        out = ROOT / ".perfbench-out" / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tr.write_jsonl(out)
        print(f"spans written to {out.relative_to(ROOT)}")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        result = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
