"""robot_grid: the three-wheel-robot case study, SVF export to closed loop.

One pass runs what `selectorkit robot sim --controller selector` runs,
at a coarser cell width so that several passes fit in one run: export
the sampled subgradient SVF, extract the chain with the grid engine,
close the loop with the selector controller and with the analytic one,
then evaluate the chain at seeded probe points.  Almost all of the time
goes to numpy code in `robot` and the grid engine plus scalar
`eval_selector` queries; the exact set algebra is barely touched, so a
change to `setalg` or `domain` should leave this workload unchanged.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from selectorkit.cli import _json_bytes
from selectorkit.robot import SimConfig, export_svf, sim_csv, simulate
from selectorkit.selector import EvalResult, chain_to_json, eval_selector, extract

from common import PassResult, digest
from tracing import Tracer, timed

BOX_HALFWIDTH = 2  # the working box [-2, 2]^3 of the case study


@dataclass(frozen=True)
class Size:
    resolution: Fraction  # cell width; must divide the box width 4
    n: int  # extraction level, certified error 2**-n plus 3 tau
    horizon: float  # closed-loop time T in seconds, 100 control steps per second
    probes: int  # evaluations per pass after the first one


SIZES = {
    "full": Size(Fraction(4, 9), 4, 5.0, 500),
    "smoke": Size(Fraction(4, 9), 4, 0.5, 40),
}


@dataclass(frozen=True)
class Inputs:
    size: Size
    probes: tuple[tuple[Fraction, Fraction, Fraction], ...]


def make_inputs(seed: int, size: Size) -> Inputs:
    rng = random.Random(seed)
    probes = tuple(
        tuple(Fraction(rng.randint(-2048, 2048), 1024) for _ in range(3))
        for _ in range(size.probes + 1)
    )
    return Inputs(size, probes)


@dataclass
class Outputs:
    svf: object
    chain: object
    sims: dict  # controller name -> SimResult
    evals: list  # EvalResult per probe, the first one included


def run_pass(inp: Inputs, tr: Tracer) -> PassResult:
    size = inp.size
    t0 = time.perf_counter()
    svf, t_export = timed(tr, "robot.export_svf", export_svf, BOX_HALFWIDTH, size.resolution)
    chain, t_extract = timed(tr, "selector.extract", extract, svf, size.n)
    first, t_first = timed(tr, "selector.eval_first", eval_selector, chain, inp.probes[0])
    sims, sim_s = {}, {}
    for controller in ("selector", "analytic"):
        cfg = SimConfig(controller=controller, T=size.horizon)
        sims[controller], sim_s[controller] = timed(
            tr, f"robot.simulate_{controller}", simulate, cfg,
            chain if controller == "selector" else None,
        )
    evals, lat = [first], []
    for x in inp.probes[1:]:
        res, dt = timed(tr, "selector.eval", eval_selector, chain, x)
        evals.append(res)
        lat.append(dt)
    chain_json, _ = timed(tr, "cli.chain_json", lambda: _json_bytes(chain_to_json(chain)))
    csvs = {}
    for controller, sim in sims.items():
        csvs[controller], _ = timed(tr, "cli.sim_csv", sim_csv, sim)
    wall = time.perf_counter() - t0

    steps = sum(len(s.times) - 1 for s in sims.values())
    box_measure = svf.domain_box.measure()
    counts = {
        "robot.cells": svf.grid.n_cells,
        "robot.excluded_cells": svf.meta["excluded_cells"],
        "robot.net_points": sum(len(n) for n in svf.nets),
        "robot.tau": svf.tau,
        "robot.control_steps": steps,
        "robot.witness_hits": sum(s.witness_hits for s in sims.values()),
        "selector.eval_calls": len(evals),
        "selector.eval_defined_frac": sum(r.defined for r in evals) / len(evals),
        "selector.dom_measure": float(chain.steps[-1].certificate.dom_measure / box_measure),
        "cli.artifact_bytes": len(chain_json) + sum(len(c) for c in csvs.values()),
    }
    for step in chain.steps:
        counts[f"selector.pieces.L{step.level}"] = step.certificate.n_pieces
    eval_digest = digest(repr([(r.value, r.reason) for r in evals]))
    return PassResult(
        wall_s=wall,
        certify_s=t_export + t_extract,
        op_s=lat,
        ops=2 + len(sims) + len(evals) + 1 + len(csvs),  # export, extract, loops, evals, artifacts
        counts=counts,
        report={
            "chain_s": t_export + t_extract,
            "first_eval_ms": 1e3 * t_first,
            "control_steps_per_s": steps / sum(sim_s.values()),
        },
        fingerprint={
            "chain.json": digest(chain_json),
            **{f"sim_{c}.csv": digest(text) for c, text in csvs.items()},
            "evals": eval_digest,
        },
        outputs=Outputs(svf, chain, sims, evals),
    )


def check(inp: Inputs, res: PassResult, tr: Tracer) -> list[str]:
    """Failures of the pass's outputs against what the chain certifies."""
    out: Outputs = res.outputs
    svf, chain = out.svf, out.chain
    n = inp.size.n
    bad = []
    if not svf.tau <= 2.0 ** -(n + 1):
        bad.append(f"tau {svf.tau} exceeds 2**-{n + 1}")
    cert = chain.steps[-1].certificate
    if cert.error_bound != Fraction(1, 2**n) or cert.slack != 3.0 * svf.tau:
        bad.append(f"level-{n} bound is {cert.error_bound} + {cert.slack}, not 2**-{n} + 3 tau")
    measures = [s.certificate.dom_measure for s in chain.steps]
    if any(b > a for a, b in zip(measures, measures[1:])):
        bad.append(f"dom_measure increases across levels: {measures}")
    for controller, sim in out.sims.items():
        want = round(inp.size.horizon / sim.config.dt_control) + 1
        if sim.truncated or len(sim.times) != want:
            bad.append(f"{controller} closed loop truncated at t={sim.times[-1]}")
    # a defined answer is a mesh value accepted against its cell's net,
    # so it lies within the certified bound of that net (center-only)
    witness = chain.final_witness(chain.dom_budget)
    for x, r in zip(inp.probes, out.evals):
        if r.defined:
            flat = svf.grid.flat(svf.grid.cell_of_point(x))
            net = svf.range_map.normalize_array(svf.nets[flat])
            val = svf.range_map.normalize_array(np.array(r.as_floats()))
            d = float(np.linalg.norm(net - val, axis=-1).min())
            if not d < chain.final_error_bound:
                bad.append(f"eval at {x}: distance {d} to the cell net exceeds the bound")
        elif r.reason == EvalResult.INSIDE_WITNESS:
            if not witness.contains(list(x)):
                bad.append(f"eval at {x}: undefined inside a witness that misses it")
        elif svf.active(svf.grid.flat(svf.grid.cell_of_point(x))):
            bad.append(f"eval at {x}: undefined ({r.reason}) on an active cell")
    return bad
