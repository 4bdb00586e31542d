"""Command-line surface: parse inputs, run pipelines, emit artifacts.

Every run writes its artifacts plus exactly one run_manifest.json
capturing the resolved command, parameters, input digests, package
versions, and wall time.  Artifacts are byte-deterministic for a fixed
manifest; the manifest itself carries the (varying) wall time.

Exit codes: 0 success, 2 contract violation, 3 input error (command-line
usage errors included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import ContractViolation, InputError
from .rational import rational_to_json


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from e


def _point_arg(text: str) -> list[Fraction]:
    return [_fraction_arg(tok) for tok in text.split(",")]


def _load_json(path) -> tuple[dict, str]:
    """The JSON object in an input file, and the file's sha256."""
    if not isinstance(path, str):
        raise InputError(f"an input file name must be a string, not {path!r}")
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as e:
        raise InputError(f"input file not found: {path}") from e
    except OSError as e:
        raise InputError(f"cannot read input file {path}: {e.strerror}") from e
    try:
        obj = json.loads(data)
    except ValueError as e:  # bad JSON, or bytes that are no Unicode text
        raise InputError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj, hashlib.sha256(data).hexdigest()


def _json_bytes(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


class Run:
    """Artifact collector plus manifest bookkeeping for one command."""

    def __init__(self, args):
        self.args = args
        self.out = Path(getattr(args, "out", ".") or ".")
        # the nearest existing path must be a directory: refuse before any work
        existing = next(p for p in (self.out, *self.out.parents) if p.exists())
        if not existing.is_dir():
            raise InputError(f"--out {self.out}: {existing} is a file, not a directory")
        self.artifacts: dict[str, str] = {}
        self.inputs: dict[str, str] = {}
        self.t0 = time.time()

    def load(self, path) -> dict:
        """The JSON object in an input file; its sha256 goes into the manifest."""
        obj, self.inputs[path] = _load_json(path)
        return obj

    def add(self, name: str, content: str):
        self.artifacts[name] = content

    def finish(self, parameters: dict) -> int:
        self.out.mkdir(parents=True, exist_ok=True)
        for name, content in self.artifacts.items():
            (self.out / name).write_text(content)
        manifest = {
            "command": sys.argv[1:] if self.args.argv is None else self.args.argv,
            "subcommand": self.args.command,
            "inputs": self.inputs,
            "outputs": sorted(self.artifacts),
            "parameters": parameters,
            "versions": {
                "selectorkit": __version__,
                "python": sys.version.split()[0],
            },
            "wall_time_s": round(time.time() - self.t0, 6),
        }
        (self.out / "run_manifest.json").write_text(_json_bytes(manifest))
        return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_reduce(args) -> int:
    from .setalg import GeneralizedBasicSet, countable_reduction, first_meeting_pair
    from .setalg import sequence_from_json, sequence_to_json

    run = Run(args)
    xs = sequence_from_json(run.load(args.sets))
    ks = countable_reduction(xs)
    flat = [GeneralizedBasicSet(p.dim, (p,)) for it in ks.items for p in it.parts]
    disjoint = first_meeting_pair(flat) is None
    report = {
        "items": len(xs.items),
        "input_measure_sum": rational_to_json(xs.measure()),
        "reduced_measure_sum": rational_to_json(ks.measure()),
        "pairwise_disjoint": disjoint,
        "subset_of_originals": all(
            k.issubset(j) for j, k in zip(xs.items, ks.items)
        ),
    }
    run.add("reduced.json", _json_bytes(sequence_to_json(ks)))
    run.add("reduction_report.json", _json_bytes(report))
    print(f"reduced {len(xs.items)} sets; disjoint={disjoint}")
    return run.finish({"sets": args.sets})


def cmd_extract(args) -> int:
    from .selector import chain_to_json, extract, selector_csv
    from .svf import cellwise_svf_from_json

    run = Run(args)
    svf = cellwise_svf_from_json(run.load(args.svf))
    chain = extract(svf, args.n, args.dom_budget)
    run.add("chain.json", _json_bytes(chain_to_json(chain)))
    if svf.alpha == 1:
        lo, hi = svf.domain_box.lo[0], svf.domain_box.hi[0]
        pts = [[lo + (hi - lo) * Fraction(i, 256)] for i in range(257)]
        run.add("selector_section.csv", selector_csv(chain, pts))
    print(
        f"extracted chain to level {args.n}; certified error "
        f"{chain.final_error_bound} (normalized range units)"
    )
    return run.finish(
        {
            "svf": args.svf,
            "n": args.n,
            "dom_budget": str(args.dom_budget),
        }
    )


def cmd_eval(args) -> int:
    from .selector import chain_from_json, eval_selector

    run = Run(args)
    chain = chain_from_json(run.load(args.chain))
    res = eval_selector(chain, args.at, args.dom_budget)
    if res.defined:
        text = ", ".join(str(c) for c in res.value)
        print(text)
        payload = {
            "point": [str(c) for c in args.at],
            "value": [rational_to_json(c) for c in res.value],
            "value_float": list(res.as_floats()),
        }
    else:
        print(f"undefined ({res.reason})")
        payload = {"point": [str(c) for c in args.at], "undefined": res.reason}
    run.add("eval.json", _json_bytes(payload))
    return run.finish(
        {"chain": args.chain, "at": [str(c) for c in args.at]}
    )


def cmd_solve_di(args) -> int:
    from .inclusion import filippov_iterate, problem_from_json, trajectory_csv

    run = Run(args)
    prob, solver = problem_from_json(run.load(args.problem), run.load)
    traj = filippov_iterate(prob, **solver)
    run.add("trajectory.csv", trajectory_csv(traj))
    cert = {
        "field": prob.name,
        "delta": prob.delta,
        "iterations": traj.iterations,
        "residuals": traj.residuals,
        "converged": traj.converged,
        "certified": traj.certified,
        "tube_margin": traj.tube_margin,
    }
    run.add("certificate.json", _json_bytes(cert))
    status = "certified" if traj.certified else "NOT certified"
    print(
        f"{prob.name}: {traj.iterations} iterations, residual "
        f"{traj.residuals[-1]:.3e}, {status}"
    )
    return run.finish({"problem": args.problem, **solver})


def cmd_robot_sim(args) -> int:
    from .robot import SimConfig, gnuplot_script, sim_csv, simulate

    run = Run(args)
    config = SimConfig(
        controller=args.controller,
        x0=tuple(float(c) for c in args.x0),
        T=args.T,
        dt_control=args.dt,
    )
    chain = None
    if args.controller == "selector":
        from .robot import export_svf
        from .selector import extract

        svf = export_svf(box_halfwidth=2.0, resolution=args.res)
        chain = extract(svf, args.n)
    result = simulate(config, chain=chain)
    run.add("sim.csv", sim_csv(result))
    run.add("sim_metadata.json", _json_bytes(result.metadata()))
    if args.plot_script:
        run.add("plot.gp", gnuplot_script("sim.csv", "sim"))
    meta = result.metadata()
    print(
        f"{args.controller}: terminal sup-norm "
        f"{meta['terminal_sup_norm']:.4f}, V(T) = {meta['terminal_clf']:.4f}, "
        f"control TV = {meta['control_total_variation']:.2f}"
    )
    return run.finish(
        {
            "controller": args.controller,
            "x0": [str(c) for c in args.x0],
            "T": args.T,
            "dt": args.dt,
            "res": str(args.res),
            "n": args.n,
        }
    )


def cmd_robot_export(args) -> int:
    import numpy as np

    from .robot import export_svf

    run = Run(args)
    svf = export_svf(box_halfwidth=args.box, resolution=args.res)
    payload = {
        "grid_shape": list(svf.grid.shape),
        "box_halfwidth": float(args.box),
        "resolution": str(args.res),
        "tau": svf.tau,
        "range_lo": [float(c) for c in svf.range_map.lo],
        "range_hi": [float(c) for c in svf.range_map.hi],
        "meta": svf.meta,
        "nets": [np.asarray(n).tolist() for n in svf.nets],
    }
    run.add("robot_svf.json", _json_bytes(payload))
    admitted = [k for k in range(2, 16) if svf.tau <= 2.0 ** -(k + 1)]
    reach = f"admits n <= {admitted[-1]}" if admitted else "admits no n >= 2"
    print(f"exported {svf.grid.n_cells} cells, tau = {svf.tau:.5f} ({reach})")
    return run.finish({"res": str(args.res), "box": str(args.box)})


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one `input error:` line, exit 3.

    Subparsers inherit the class, so this covers every subcommand.  A
    token that starts with '-' and a digit (or '-.' and a digit) is a
    value, never an option, so `--at -1/128` and `--x0 -1,1,1` parse as
    negative coordinates; no option of this program is spelled that way.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(3, f"input error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="selectorkit",
        description="Constructive measurable-selector toolkit",
    )
    p.add_argument("--out", default=".", help="artifact output directory")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("reduce", help="countable reduction of a set sequence")
    q.add_argument("sets", help="SetSequence JSON file")
    q.set_defaults(fn=cmd_reduce)

    q = sub.add_parser("extract", help="selector extraction from a cellwise SVF")
    q.add_argument("svf", help="cellwise SVF JSON file")
    q.add_argument("--n", type=int, default=4, help="precision level (error 2^-n)")
    q.add_argument(
        "--dom-budget",
        type=_fraction_arg,
        default=Fraction(1, 16),
        help="domain-loss witness budget",
    )
    q.set_defaults(fn=cmd_extract)

    q = sub.add_parser("eval", help="evaluate an extracted chain")
    q.add_argument("chain", help="chain JSON file")
    q.add_argument("--at", type=_point_arg, required=True, help="point, comma-sep")
    q.add_argument("--dom-budget", type=_fraction_arg, default=None)
    q.set_defaults(fn=cmd_eval)

    q = sub.add_parser("solve-di", help="Filippov iteration for an inclusion")
    q.add_argument("problem", help="problem JSON file")
    q.set_defaults(fn=cmd_solve_di)

    r = sub.add_parser("robot", help="three-wheel robot case study")
    rsub = r.add_subparsers(dest="robot_command", required=True)

    q = rsub.add_parser("sim", help="closed-loop simulation")
    q.add_argument("--controller", choices=["analytic", "selector"], required=True)
    q.add_argument("--x0", type=_point_arg, default=[1, 1, 1])
    q.add_argument("--T", type=float, default=10.0)
    q.add_argument("--dt", type=float, default=0.01)
    q.add_argument("--res", type=_fraction_arg, default=Fraction(4, 33))
    q.add_argument("--n", type=int, default=4)
    q.add_argument("--plot-script", action="store_true")
    q.set_defaults(fn=cmd_robot_sim)

    q = rsub.add_parser("export-svf", help="export the subgradient SVF")
    q.add_argument("--res", type=_fraction_arg, default=Fraction(4, 33))
    q.add_argument("--box", type=_fraction_arg, default=Fraction(2))
    q.set_defaults(fn=cmd_robot_export)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except ContractViolation as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
