"""exact_chain: certified selector chain from an exact cellwise SVF.

One pass validates a seeded cellwise SVF on a grid of cells over
[0,1]^2 with `build_cellwise_svf`, extracts the chain with the exact
engine, makes the first `eval_selector` call (which builds the
representability witness), evaluates seeded probes, round-trips the
chain through its JSON form, and solves two differential inclusions
with `filippov_iterate`: the built-in linear tube and the inclusion of
the same cellwise SVF.  This is the exact `Fraction` path, where
`selector` queries `setalg` and `domain` rather than builds with them.
It runs no `robot` code and no grid engine, so changes to the export or
the grid engine should leave it unchanged.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from selectorkit.cli import _json_bytes
from selectorkit.inclusion import (
    filippov_iterate,
    linear_tube_problem,
    problem_from_cellwise_svf,
)
from selectorkit.selector import (
    EvalResult,
    chain_from_json,
    chain_to_json,
    eval_selector,
    extract,
)
from selectorkit.setalg import BasicSet, GeneralizedBasicSet
from selectorkit.svf import AffineRangeMap, build_cellwise_svf, svf_distance

from common import PassResult, digest
from tracing import Tracer, timed

DEN = 64  # value coordinates are multiples of 1/64
# Values stay inside [-1/2, 1/2]^2, whose normalized image [1/4, 3/4]^2
# keeps every value set within reach of the zero start at level 2.
RANGE = ((-1, -1), (1, 1))


@dataclass(frozen=True)
class Size:
    cells: tuple[int, int]  # cells per axis over [0,1]^2
    n: int  # extraction level, certified error 2**-n
    probes: int  # evaluations per pass after the first one
    tube_step: float  # grid step of the linear-tube solve
    di_horizon: float  # horizon of the cellwise inclusion, under sqrt(2) * cell half-width
    di_step: float  # grid step of the cellwise inclusion


SIZES = {
    "full": Size((5, 5), 4, 1000, 1e-3, 0.1, 1e-3),
    "smoke": Size((2, 2), 3, 40, 1e-2, 0.1, 1e-2),
}


@dataclass(frozen=True)
class Inputs:
    size: Size
    # per cell: ("box", (x, y, w, h)) or ("points", ((x, y), (x, y))),
    # numerators over DEN
    values: tuple
    probes: tuple[tuple[Fraction, Fraction], ...]
    x0: tuple[float, float]


def make_inputs(seed: int, size: Size) -> Inputs:
    rng = random.Random(seed)
    gx, gy = size.cells
    # half the cells carry a box, half two singletons: the share fixes
    # the part count, which sets most of the extraction cost
    kinds = ["box", "points"] * ((gx * gy + 1) // 2)
    kinds = kinds[: gx * gy]
    rng.shuffle(kinds)
    half = DEN // 2
    values = []
    for kind in kinds:
        if kind == "box":
            w, h = rng.randint(1, 8), rng.randint(1, 8)
            values.append(
                ("box", (rng.randint(-half, half - w), rng.randint(-half, half - h), w, h))
            )
        else:
            values.append(
                ("points", tuple((rng.randint(-half, half), rng.randint(-half, half)) for _ in range(2)))
            )
    probes = tuple(
        (Fraction(rng.randint(0, 2**20), 2**20), Fraction(rng.randint(0, 2**20), 2**20))
        for _ in range(size.probes + 1)
    )
    # the inclusion starts at the center of a seeded cell and, at speed at
    # most sqrt(2)/2, cannot leave it within the horizon: F stays constant
    # along the solution and the iteration converges
    i, j = rng.randrange(gx), rng.randrange(gy)
    x0 = ((i + 0.5) / gx, (j + 0.5) / gy)
    return Inputs(size, tuple(values), probes, x0)


def _cells(inp: Inputs):
    gx, gy = inp.size.cells
    cells = []
    for i in range(gx):
        for j in range(gy):
            cell = BasicSet.box(
                [Fraction(i, gx), Fraction(j, gy)],
                [Fraction(i + 1, gx), Fraction(j + 1, gy)],
                [True, True],
                [i == gx - 1, j == gy - 1],
            )
            kind, data = inp.values[i * gy + j]
            if kind == "box":
                x, y, w, h = (Fraction(c, DEN) for c in data)
                parts = [BasicSet.closed_box([x, y], [x + w, y + h])]
            else:
                parts = [BasicSet.singleton([Fraction(a, DEN), Fraction(b, DEN)]) for a, b in data]
            cells.append((cell, GeneralizedBasicSet.of(parts, dim=2)))
    return cells


@dataclass
class Outputs:
    svf: object
    chain: object
    chain_json: str
    roundtrip: object
    evals: list
    tube: object
    cellwise: object


def run_pass(inp: Inputs, tr: Tracer) -> PassResult:
    size = inp.size
    t0 = time.perf_counter()
    cells = _cells(inp)
    box = BasicSet.closed_box([0, 0], [1, 1])
    svf, t_build = timed(
        tr, "svf.build", build_cellwise_svf, box, cells, AffineRangeMap.of(*RANGE)
    )
    chain, t_extract = timed(tr, "selector.extract", extract, svf, size.n)
    first, t_first = timed(tr, "selector.eval_first", eval_selector, chain, inp.probes[0])
    evals, lat = [first], []
    for x in inp.probes[1:]:
        res, dt = timed(tr, "selector.eval", eval_selector, chain, x)
        evals.append(res)
        lat.append(dt)
    text, _ = timed(tr, "cli.chain_json", lambda: _json_bytes(chain_to_json(chain)))
    back, _ = timed(tr, "cli.chain_from_json", lambda: chain_from_json(json.loads(text)))
    tube, t_tube = timed(
        tr, "inclusion.filippov_tube", filippov_iterate,
        linear_tube_problem(), grid_step=size.tube_step,
    )
    # the reference g = x0 is constant, so its defect dist(0, F(x0)) is at
    # most sqrt(2)/2 (values lie in [-1/2, 1/2]^2), below p = 1
    prob = problem_from_cellwise_svf(
        svf, x0=list(inp.x0), T=size.di_horizon, beta_tube=1e9, obj={"p": 1.0}
    )
    cw, t_cw = timed(
        tr, "inclusion.filippov_cellwise", filippov_iterate, prob, grid_step=size.di_step
    )
    wall = time.perf_counter() - t0

    trajectories = (tube, cw)
    counts = {
        "selector.eval_calls": len(evals),
        "selector.eval_defined_frac": sum(r.defined for r in evals) / len(evals),
        "selector.dom_measure": float(chain.steps[-1].certificate.dom_measure / box.measure()),
        "inclusion.iterations": sum(t.iterations for t in trajectories),
        "inclusion.grid_points": sum(len(t.times) for t in trajectories),
        "inclusion.certified": sum(t.certified for t in trajectories),
        "cli.artifact_bytes": len(text),
    }
    for step in chain.steps:
        counts[f"selector.pieces.L{step.level}"] = step.certificate.n_pieces
    return PassResult(
        wall_s=wall,
        certify_s=t_build + t_extract,
        op_s=lat,
        ops=2 + len(evals) + 2 + len(trajectories),  # build, extract, evals, json, solves
        counts=counts,
        report={
            "chain_s": t_build + t_extract,
            "first_eval_ms": 1e3 * t_first,
            "di_solve_s": t_tube + t_cw,
        },
        fingerprint={
            "chain.json": digest(text),
            "evals": digest(repr([(r.value, r.reason) for r in evals])),
            "trajectories": digest(repr([t.states.tobytes() for t in trajectories])),
        },
        outputs=Outputs(svf, chain, text, back, evals, tube, cw),
    )


def check(inp: Inputs, res: PassResult, tr: Tracer) -> list[str]:
    """Failures of the pass's outputs against the exact certificates."""
    out: Outputs = res.outputs
    svf, chain = out.svf, out.chain
    n = inp.size.n
    bad = []
    measures = [s.certificate.dom_measure for s in chain.steps]
    if any(b > a for a, b in zip(measures, measures[1:])):
        bad.append(f"dom_measure increases across levels: {measures}")
    # the range map has the same width on both axes, so normalized
    # distances are original ones divided by that width
    width = float(svf.range_map.widths()[0])
    witness = chain.final_witness(chain.dom_budget)
    calls = 0
    for x, r in zip(inp.probes, out.evals):
        if r.defined:
            with tr.span("svf.distance"):
                d = svf_distance(svf, r.value, x)
            calls += 1
            if not d / width < 2.0**-n:
                bad.append(f"eval at {x}: distance {d / width} to F(x) is not below 2**-{n}")
        elif r.reason != EvalResult.INSIDE_WITNESS or not witness.contains(list(x)):
            bad.append(f"eval at {x}: undefined ({r.reason}) outside the witness")
    res.counts["svf.distance_calls"] = calls
    if _json_bytes(chain_to_json(out.roundtrip)) != out.chain_json:
        bad.append("chain.json does not survive chain_from_json")
    for name, traj in (("linear tube", out.tube), ("cellwise inclusion", out.cellwise)):
        if not (traj.converged and traj.certified):
            bad.append(f"{name}: converged={traj.converged} certified={traj.certified}")
    return bad
