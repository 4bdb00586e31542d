import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ASSETS = Path(__file__).resolve().parent.parent / "assets"


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run(
        [sys.executable, "-m", "selectorkit.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_reduce_example1(tmp_path):
    r = run_cli(["--out", "r", "reduce", str(ASSETS / "example1.json")], tmp_path)
    assert r.returncode == 0, r.stderr
    reduced = json.loads((tmp_path / "r" / "reduced.json").read_text())
    parts0 = reduced["items"][0]["parts"]
    parts1 = reduced["items"][1]["parts"]
    assert parts0[0]["lo"] == [0] and parts0[0]["hi"] == [{"num": 1, "exp2": 1}]
    assert parts1[0]["lo"] == [{"num": 1, "exp2": 1}] and parts1[0]["hi"] == [1]
    assert parts1[0]["closed_lo"] == [False] and parts1[0]["closed_hi"] == [True]
    report = json.loads((tmp_path / "r" / "reduction_report.json").read_text())
    assert report["pairwise_disjoint"] and report["subset_of_originals"]


def test_extract_and_eval_desk(tmp_path):
    r = run_cli(
        ["--out", "e", "extract", str(ASSETS / "desk_svf.json"), "--n", "2"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert "1/4" in r.stdout or "0.25" in r.stdout  # certified error 2^-2
    r = run_cli(
        ["--out", "v", "eval", str(tmp_path / "e" / "chain.json"), "--at", "0.3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "1/8"


def test_extract_n4_certified_error(tmp_path):
    r = run_cli(
        ["--out", "e", "extract", str(ASSETS / "desk_svf.json"), "--n", "4"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    chain = json.loads((tmp_path / "e" / "chain.json").read_text())
    assert chain["final_error_bound"] == 0.0625
    csv_text = (tmp_path / "e" / "selector_section.csv").read_text()
    assert csv_text.splitlines()[0] == "x1,f1,status"


def test_eval_undefined_point(tmp_path):
    run_cli(["--out", "e", "extract", str(ASSETS / "desk_svf.json")], tmp_path)
    r = run_cli(
        ["--out", "v", "eval", str(tmp_path / "e" / "chain.json"), "--at", "1/2"],
        tmp_path,
    )
    assert r.returncode == 0
    assert "undefined" in r.stdout
    r = run_cli(
        ["--out", "v2", "eval", str(tmp_path / "e" / "chain.json"), "--at", "3/2"],
        tmp_path,
    )
    assert "outside_domain" in r.stdout


def test_solve_di_certificate(tmp_path):
    r = run_cli(["--out", "d", "solve-di", str(ASSETS / "di_linear.json")], tmp_path)
    assert r.returncode == 0, r.stderr
    cert = json.loads((tmp_path / "d" / "certificate.json").read_text())
    assert cert["converged"] and cert["certified"]
    assert cert["residuals"][-1] < 1e-6
    csv_lines = (tmp_path / "d" / "trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x1,v1,xi"
    assert len(csv_lines) == 202


# sha256 of the solve-di artifacts; a change to these bytes must be named
SOLVE_DI_DIGESTS = {
    "di_linear.json": {
        "trajectory.csv": "42685138429540df7fd0c10799c4ea489af8fa5988b24df9661abdb142313a31",
        "certificate.json": "ea903f78c5fd7bc4823c6da7009406dca795f5e5048c99e9fbc31c52d7b7c181",
    },
    # the problem of test_inclusion.test_problem_from_cellwise_svf_file
    "di_desk.json": {
        "trajectory.csv": "b321442ddb60a0375168d6a7ec01d09b99695c8d78aa8198ff1b18dad20cabb2",
        "certificate.json": "fa7c3dac4a5c88696e2d925893713db385453df42c56fc54b9461c31eb7e5d8d",
    },
}


def test_solve_di_artifacts_are_pinned(tmp_path):
    import hashlib

    (tmp_path / "desk_svf.json").write_bytes((ASSETS / "desk_svf.json").read_bytes())
    (tmp_path / "di_linear.json").write_bytes((ASSETS / "di_linear.json").read_bytes())
    (tmp_path / "di_desk.json").write_text(json.dumps({
        "svf_file": "desk_svf.json", "x0": [0.0], "T": 1.0, "beta_tube": 2.0,
        "kappa": 1.0, "p": 0.25, "grid_step": 0.01,
    }))
    for problem, digests in SOLVE_DI_DIGESTS.items():
        out = Path(problem).stem
        r = run_cli(["--out", out, "solve-di", problem], tmp_path)
        assert r.returncode == 0, r.stderr
        got = {
            name: hashlib.sha256((tmp_path / out / name).read_bytes()).hexdigest()
            for name in digests
        }
        assert got == digests, problem


# sha256 of the exact-engine artifacts of `extract assets/desk_svf.json --n 4`
# and of `eval.json` at points of that chain; a change to these bytes must be named
DESK_EXTRACT_DIGESTS = {
    "chain.json": "e9c67fb18db1dff4b58b69d0645fdd62fc7c796e77b830522d1e752b6d899887",
    "selector_section.csv": "211b5370220eae452ac314f3bacc21e950176d3fcd9f9188bc2f078268ccb35c",
}
DESK_EVAL_DIGESTS = {
    "0.3": "20703ec9b1c0564a6609cbfe53cf02ffbf8ecd11fa7fd7982746e8eb12d460d5",  # 7/32
    # the cell boundary and the box face, each inside M(1/16)
    "1/2": "b63ab8ed2548b26f999e6bb16916d846207dd5215fd000d2eef926ba0d0129a2",
    "1": "31bec7487f04c1f30f453e26576a3a3b13e5fcfcd802dbec19e856b042e64dc0",
    # outside the box: inside M(1/16)'s slab (-1/64, 1/64), and beyond it
    "-1/128": "d5778e82f0905fdf6c5501f59c4e2566d62fd6af8036bb9f58d390f7fe551b91",
    "3/2": "eb25d2885b591d01afea028777f2962a6335cbf5ea9c681621c9336ebc970cc6",
}


def test_exact_extract_and_eval_artifacts_are_pinned(tmp_path):
    import hashlib

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    r = run_cli(["--out", "e", "extract", str(ASSETS / "desk_svf.json"), "--n", "4"], tmp_path)
    assert r.returncode == 0, r.stderr
    got = {name: sha(tmp_path / "e" / name) for name in DESK_EXTRACT_DIGESTS}
    assert got == DESK_EXTRACT_DIGESTS
    got = {}
    for i, at in enumerate(DESK_EVAL_DIGESTS):
        r = run_cli(["--out", f"v{i}", "eval", "e/chain.json", f"--at={at}"], tmp_path)
        assert r.returncode == 0, r.stderr
        got[at] = sha(tmp_path / f"v{i}" / "eval.json")
    assert got == DESK_EVAL_DIGESTS


def test_negative_coordinate_after_a_space_is_a_value(tmp_path):
    """`--at -1/128` reads as `--at=-1/128` does, not as an option."""
    import hashlib

    r = run_cli(["--out", "e", "extract", str(ASSETS / "desk_svf.json"), "--n", "4"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["--out", "v", "eval", "e/chain.json", "--at", "-1/128"], tmp_path)
    assert r.returncode == 0, r.stderr
    got = hashlib.sha256((tmp_path / "v" / "eval.json").read_bytes()).hexdigest()
    assert got == DESK_EVAL_DIGESTS["-1/128"]


def test_negative_start_after_a_space_is_a_value(tmp_path):
    r = run_cli(
        ["--out", "s", "robot", "sim", "--controller", "analytic", "--T", "0.05", "--x0", "-1,1,1"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    first = (tmp_path / "s" / "sim.csv").read_text().splitlines()[1].split(",")
    assert first[:4] == ["0.0", "-1.0", "1.0", "1.0"]


def test_solve_di_names_the_iterate_that_leaves_the_box(tmp_path):
    # from 0.9 the desk field's value 3/4 carries the iterate past x = 1
    (tmp_path / "desk_svf.json").write_bytes((ASSETS / "desk_svf.json").read_bytes())
    (tmp_path / "di.json").write_text(json.dumps(
        {"svf_file": "desk_svf.json", "x0": [0.9], "T": 2.0, "grid_step": 0.01}
    ))
    r = run_cli(["--out", "d", "solve-di", "di.json"], tmp_path)
    assert r.returncode == 2
    assert r.stderr.splitlines() == [
        "contract violation: Filippov iteration: the iterate at t=0.41000000000000003 "
        "is [1.0025000000000002], outside the SVF's working box"
    ]


def test_robot_sim_analytic(tmp_path):
    r = run_cli(
        [
            "--out", "s",
            "robot", "sim",
            "--controller", "analytic",
            "--T", "0.5",
            "--plot-script",
        ],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    meta = json.loads((tmp_path / "s" / "sim_metadata.json").read_text())
    assert meta["controller"] == "analytic"
    assert (tmp_path / "s" / "plot.gp").exists()
    assert (tmp_path / "s" / "sim.csv").read_text().startswith("t,x1,x2,x3,u1,u2,V")


# sha256 of the artifacts of `robot sim --controller analytic` at the CLI
# defaults (x0 = 1,1,1, T = 10, dt = 0.01); a change to these bytes must be named
ROBOT_SIM_ANALYTIC_DIGESTS = {
    "sim.csv": "4dddefd2abc8122d95fd00f3e97e913fb04ffad85b725e5c201ccc6411fc0512",
    "sim_metadata.json": "4270b2ffa0c8853ddea59eea79003f457e19d8421321e273a10df1b9001378ce",
}


def test_robot_sim_analytic_artifacts_are_pinned(tmp_path):
    import hashlib

    r = run_cli(["--out", "s", "robot", "sim", "--controller", "analytic"], tmp_path)
    assert r.returncode == 0, r.stderr
    got = {
        name: hashlib.sha256((tmp_path / "s" / name).read_bytes()).hexdigest()
        for name in ROBOT_SIM_ANALYTIC_DIGESTS
    }
    assert got == ROBOT_SIM_ANALYTIC_DIGESTS


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    r = run_cli(["--out", "x", "reduce", str(bad)], tmp_path)
    assert r.returncode == 3
    assert "line 1" in r.stderr


def test_contract_violation_exit_code(tmp_path):
    # constant SVF far from the range anchor aborts extraction (coverage)
    svf = {
        "kind": "cellwise",
        "dim": 1,
        "domain": {"kind": "box", "lo": [0], "hi": [1],
                   "closed_lo": [True], "closed_hi": [True]},
        "range": {"lo": [0], "hi": [1]},
        "cells": [
            {
                "cell": {"kind": "box", "lo": [0], "hi": [1],
                         "closed_lo": [True], "closed_hi": [True]},
                "values": {"dim": 1, "parts": [
                    {"kind": "singleton", "lo": [{"num": 7, "exp2": 3}],
                     "hi": [{"num": 7, "exp2": 3}],
                     "closed_lo": [True], "closed_hi": [True]}]},
            }
        ],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(svf))
    r = run_cli(["--out", "x", "extract", str(path)], tmp_path)
    assert r.returncode == 2
    assert "contract violation" in r.stderr


@pytest.mark.parametrize("out", ["plainfile", "plainfile/sub"])
def test_out_through_a_file_is_input_error(tmp_path, out):
    (tmp_path / "plainfile").write_text("kept\n")
    r = run_cli(["--out", out, "reduce", str(ASSETS / "example1.json")], tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr.splitlines() == [
        f"input error: --out {out}: plainfile is a file, not a directory"
    ]
    assert r.stdout == "" and (tmp_path / "plainfile").read_text() == "kept\n"


def test_missing_input_file(tmp_path):
    r = run_cli(["--out", "x", "reduce", "nope.json"], tmp_path)
    assert r.returncode == 3


def test_manifest_written_and_complete(tmp_path):
    run_cli(["--out", "m", "extract", str(ASSETS / "desk_svf.json")], tmp_path)
    manifest = json.loads((tmp_path / "m" / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "extract"
    assert "chain.json" in manifest["outputs"]
    assert str(ASSETS / "desk_svf.json") in manifest["inputs"]
    assert manifest["versions"]["selectorkit"]
    assert manifest["wall_time_s"] >= 0
    assert "seed" not in manifest  # nothing in the package draws random numbers


def test_solve_di_manifest_lists_the_svf_file(tmp_path):
    import hashlib

    svf = tmp_path / "desk_svf.json"
    svf.write_bytes((ASSETS / "desk_svf.json").read_bytes())
    problem = tmp_path / "di.json"
    problem.write_text(json.dumps({"svf_file": "desk_svf.json", "x0": [0.3], "T": 0.1}))
    r = run_cli(["--out", "d", "solve-di", "di.json"], tmp_path)
    assert r.returncode == 0, r.stderr
    manifest = json.loads((tmp_path / "d" / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        "di.json": hashlib.sha256(problem.read_bytes()).hexdigest(),
        "desk_svf.json": hashlib.sha256(svf.read_bytes()).hexdigest(),
    }
    # an unreadable SVF file fails like any other input file
    for content in ("{", "[1]"):
        svf.write_text(content)
        r = run_cli(["--out", "e", "solve-di", "di.json"], tmp_path)
        assert r.returncode == 3, r.stderr
        assert len(r.stderr.splitlines()) == 1, r.stderr
        assert r.stderr.startswith("input error:") and "desk_svf.json" in r.stderr
    problem.write_text(json.dumps({"svf_file": 3, "x0": [0.3]}))
    r = run_cli(["--out", "e", "solve-di", "di.json"], tmp_path)
    assert r.returncode == 3 and r.stderr.startswith("input error:"), r.stderr


def extract_concurrently(tags, cwd):
    """Start one desk `extract --n 5` process per tag at once; wait for all."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "selectorkit.cli", "--out", tag,
             "extract", str(ASSETS / "desk_svf.json"), "--n", "5"],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in tags
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err


@pytest.mark.parametrize("workers", [1, 3])
def test_extract_deterministic_across_threads(tmp_path, workers):
    # two rounds, each of `workers` processes running at the same time
    tags = [f"{rnd}{i}" for rnd in ("a", "b") for i in range(workers)]
    extract_concurrently(tags[:workers], tmp_path)
    extract_concurrently(tags[workers:], tmp_path)
    for name in ("chain.json", "selector_section.csv"):
        first = (tmp_path / tags[0] / name).read_bytes()
        for tag in tags[1:]:
            assert (tmp_path / tag / name).read_bytes() == first, (tag, name)


def test_artifacts_identical_across_thread_counts(tmp_path):
    # a lone run against runs made while three others share the machine
    extract_concurrently(["t1"], tmp_path)
    extract_concurrently([f"t4_{i}" for i in range(4)], tmp_path)
    lone = (tmp_path / "t1" / "chain.json").read_bytes()
    for i in range(4):
        assert (tmp_path / f"t4_{i}" / "chain.json").read_bytes() == lone


def test_package_reads_no_environment_variable():
    src = Path(__file__).resolve().parent.parent / "src" / "selectorkit"
    modules = sorted(src.rglob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text()
        assert "environ" not in text and "getenv" not in text, path.name


def test_robot_export_svf(tmp_path):
    r = run_cli(
        ["--out", "x", "robot", "export-svf", "--res", "4/3"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((tmp_path / "x" / "robot_svf.json").read_text())
    assert payload["grid_shape"] == [3, 3, 3]
    assert len(payload["nets"]) == 27
    assert payload["tau"] > 0


def test_robot_export_svf_keeps_box_exact(tmp_path):
    # 2/3 as a float is not an integer multiple of 4/9
    r = run_cli(
        ["--out", "x", "robot", "export-svf", "--box", "2/3", "--res", "4/9"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((tmp_path / "x" / "robot_svf.json").read_text())
    assert payload["grid_shape"] == [3, 3, 3]
    assert payload["box_halfwidth"] == 2 / 3


def test_help_exits_zero(tmp_path):
    r = run_cli(["robot", "sim", "--help"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "--controller" in r.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["export-svf", "--res", "0"],
        ["export-svf", "--res", "-1"],
        ["export-svf", "--box", "0"],
        ["sim", "--controller", "analytic", "--dt", "0"],
        ["sim", "--controller", "analytic", "--dt", "-0.01"],
        ["sim", "--controller", "analytic", "--T", "-1"],
        ["sim", "--controller", "analytic", "--x0", "1,1"],
        ["sim", "--controller", "analytic", "--x0", "1,1,nan"],
        ["sim", "--controller", "analytic", "--n", "x"],
        ["sim"],
    ],
    ids=[
        "res0", "res-neg", "box0", "dt0", "dt-neg", "T-neg", "x0-short",
        "x0-nan", "n-not-int", "controller-missing",
    ],
)
def test_bad_robot_input_is_input_error(tmp_path, args):
    r = run_cli(["--out", "x", "robot", *args], tmp_path)
    assert r.returncode == 3, r.stderr
    assert any(line.startswith("input error:") for line in r.stderr.splitlines())
    assert "Traceback" not in r.stderr


def _desk_chain_with(edit, n=2, empty_cell=False) -> dict:
    """The desk chain.json at level n, edited; with `empty_cell`, of the desk
    SVF with an empty cell inserted second."""
    from selectorkit.selector import chain_to_json, extract
    from selectorkit.svf import cellwise_svf_from_json

    svf = json.loads((ASSETS / "desk_svf.json").read_text())
    if empty_cell:
        svf["cells"].insert(1, {"cell": {"kind": "empty"}, "values": svf["cells"][0]["values"]})
    chain = chain_to_json(extract(cellwise_svf_from_json(svf), n))
    edit(chain)
    return chain


def _as_parent_format(chain: dict) -> None:
    """Each step's winners rewritten as the pieces that chain.json held before
    it held winners: the cells grouped by value, in mesh-index order."""
    from selectorkit.rational import rational_to_json
    from selectorkit.selector import chain_from_json
    from selectorkit.setalg import gbs_to_json

    for out, step in zip(chain["steps"], chain_from_json(chain).steps):
        out["pieces"] = [
            {"set": gbs_to_json(q), "value": [rational_to_json(c) for c in r]}
            for q, r in step.pieces
        ]
        del out["winner"]


def test_parent_format_desk_chain_is_rebuilt_byte_for_byte():
    """`_as_parent_format` of the desk chain at n = 4 is the chain.json that
    `extract --n 4` wrote before steps were written as winners."""
    import hashlib

    from selectorkit.cli import _json_bytes

    text = _json_bytes(_desk_chain_with(_as_parent_format, n=4))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dc99af559c89f85bbb4d121471f7bf707521572135843ee5da769510cc2eb7b2"
    )


def test_eval_refuses_sampled_chain(tmp_path):
    """A grid chain.json (winners per level) is an input error on read."""
    from fractions import Fraction

    from selectorkit.robot import export_svf
    from selectorkit.selector import chain_to_json, extract

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_to_json(extract(export_svf(2, Fraction(4, 9)), 3))))
    r = run_cli(["--out", "x", "eval", str(path), "--at", "0,0,0"], tmp_path)
    assert r.returncode == 3, r.stderr
    lines = r.stderr.splitlines()
    assert lines == ["input error: only cellwise chains round-trip through JSON"], r.stderr


def _desk_svf_with(edit) -> dict:
    svf = json.loads((ASSETS / "desk_svf.json").read_text())
    edit(svf)
    return svf


# level-2 certificate fields of the desk chain, each set to a value that
# contradicts the step's level, its one piece or the chain's budget
CONTRADICTED_CERTIFICATE_FIELDS = [
    ("mesh_pitch", 7),
    ("error_bound", {"num": 1, "exp2": 1}),
    ("step_gap", {"num": 1, "exp2": 2}),
    ("slack", 0.5),
    ("n_pieces", 99),
    ("dom_measure", {"num": 1, "exp2": 1}),
    ("witness_budget", {"num": 1, "exp2": 4}),
]


def _set_level2_winner(i, w):
    return lambda c: c["steps"][0]["winner"].__setitem__(i, w)


# edits of the level-2 winners of the desk chain with an empty cell second,
# [1, -1, 1], to lists that extraction never writes
BAD_WINNERS = [
    ("short", lambda c: c["steps"][0]["winner"].pop()),
    ("not-list", lambda c: c["steps"][0].update(winner=1)),
    ("bool", _set_level2_winner(0, True)),
    ("float", _set_level2_winner(0, 1.0)),
    ("past-mesh", _set_level2_winner(0, 9)),
    ("undefined-on-cell", _set_level2_winner(2, -1)),
    ("on-empty-cell", _set_level2_winner(1, 1)),
]


def _example1_with_lo(lo) -> dict:
    sets = json.loads((ASSETS / "example1.json").read_text())
    sets["items"][0]["parts"][0]["lo"] = lo
    return sets


# solver and problem fields that end a run in a traceback or are misread
BAD_PROBLEMS = [
    ("grid-step-zero", {"grid_step": 0}),
    ("grid-step-negative", {"grid_step": -0.01}),
    ("grid-step-nan", {"grid_step": float("nan")}),
    ("T-infinite", {"T": float("inf")}),
    ("singleton-T-negative", {"field": "singleton", "T": -1}),
    ("max-iter-zero", {"max_iter": 0}),
    ("max-iter-negative", {"max_iter": -3}),
    ("x0-empty", {"x0": []}),
    ("linear-tube-x0-two-coordinates", {"field": "linear_tube", "x0": [1, 2]}),
    ("x0-nan", {"x0": [float("nan")]}),
    ("p0-nan", {"p0": float("nan")}),
    ("tol-zero", {"tol": 0, "T": 0.1}),
    ("svf-x0-outside-box", {"svf_file": str(ASSETS / "desk_svf.json"), "x0": [3.0], "T": 0.1}),
    ("svf-x0-two-coordinates", {"svf_file": str(ASSETS / "desk_svf.json"), "x0": [0.5, 0.5]}),
]


@pytest.mark.parametrize(
    "command, content",
    [
        (["extract"], lambda: _desk_svf_with(lambda s: s.pop("cells"))),
        (
            ["extract"],
            lambda: _desk_svf_with(
                lambda s: s["cells"][0]["cell"].update(hi=[{"num": 1}])
            ),
        ),
        (
            ["extract"],
            lambda: _desk_svf_with(
                lambda s: s["cells"][0]["cell"].update(hi=[float("nan")])
            ),
        ),
        (["extract"], lambda: _desk_svf_with(lambda s: s.update(dim="x"))),
        (["extract"], lambda: _desk_svf_with(lambda s: s.update(cells=3))),
        (["reduce"], lambda: _example1_with_lo(["x"])),
        (["reduce"], lambda: _example1_with_lo(3)),
        (
            ["eval", "--at", "0.3"],
            lambda: _desk_chain_with(lambda c: c["steps"][0].pop("level")),
        ),
        (["eval", "--at", "0.3"], lambda: _desk_chain_with(lambda c: c.update(n="x"))),
        (["eval", "--at", "0.3"], lambda: _desk_chain_with(lambda c: c.update(svf=[1, 2]))),
        (["eval", "--at", "0.3"], lambda: _desk_chain_with(lambda c: c.update(steps=[]))),
        (
            ["eval", "--at", "0.3"],
            lambda: _desk_chain_with(lambda c: c["steps"][0].update(level=9)),
        ),
        *[
            (
                ["eval", "--at", "0.3"],
                lambda field=field, value=value: _desk_chain_with(
                    lambda c: c["steps"][0].update({field: value})
                ),
            )
            for field, value in CONTRADICTED_CERTIFICATE_FIELDS
        ],
        # the level-4 value 7/32 of both cells moved to 31/32, 0.72 from F(0.3)
        (
            ["eval", "--at", "0.3"],
            lambda: _desk_chain_with(lambda c: c["steps"][2].update(winner=[31, 31]), n=4),
        ),
        *[
            (["eval", "--at", "0.3"], lambda edit=edit: _desk_chain_with(edit, empty_cell=True))
            for _, edit in BAD_WINNERS
        ],
        (["eval", "--at", "0.3"], lambda: _desk_chain_with(_as_parent_format, n=4)),
        (["solve-di"], lambda: {"svf_file": "absent_svf.json", "x0": [0.5]}),
        (["solve-di"], lambda: {"field": "linear_tube", "x0": "abc"}),
        *[(["solve-di"], lambda problem=problem: problem) for _, problem in BAD_PROBLEMS],
        (["reduce"], lambda: [1, 2]),
        (["extract"], lambda: [1, 2]),
        (["eval", "--at", "0.3"], lambda: [1, 2]),
        (["solve-di"], lambda: [1, 2]),
    ],
    ids=[
        "svf-no-cells", "svf-bad-rational", "svf-nan-corner", "svf-dim-not-int",
        "svf-cells-not-list", "sets-bad-corner", "sets-lo-not-list",
        "chain-no-level", "chain-n-not-int", "chain-svf-not-object",
        "chain-no-steps", "chain-level-beyond-n",
        *[f"chain-contradicted-{field}" for field, _ in CONTRADICTED_CERTIFICATE_FIELDS],
        "chain-moved-value", *[f"chain-winner-{name}" for name, _ in BAD_WINNERS],
        "chain-parent-format",
        "problem-svf-file-missing",
        "problem-x0-not-number", *[f"problem-{name}" for name, _ in BAD_PROBLEMS],
        "sets-not-object", "svf-not-object",
        "chain-not-object", "problem-not-object",
    ],
)
def test_malformed_input_file_is_input_error(tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content()))
    r = run_cli(["--out", "x", command[0], str(path), *command[1:]], tmp_path)
    assert r.returncode == 3, r.stderr
    lines = r.stderr.splitlines()
    assert sum(line.startswith("input error:") for line in lines) == 1, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", [["extract"], ["eval", "--at", "0.3"]])
@pytest.mark.parametrize("budget", ["0", "-1/8"])
def test_nonpositive_dom_budget_is_input_error(tmp_path, command, budget):
    path = tmp_path / "input.json"
    if command[0] == "extract":
        path.write_text((ASSETS / "desk_svf.json").read_text())
    else:
        path.write_text(json.dumps(_desk_chain_with(lambda c: None)))
    r = run_cli(
        ["--out", "x", command[0], str(path), *command[1:], f"--dom-budget={budget}"],
        tmp_path,
    )
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("input error:"), r.stderr


@pytest.mark.parametrize("budget", [0, {"num": -1, "exp2": 4}], ids=["zero", "negative"])
def test_eval_refuses_chain_with_nonpositive_dom_budget(tmp_path, budget):
    from selectorkit.rational import rational_from_json, rational_to_json

    def edit(chain):
        # the steps' budgets scaled to match, so only the sign is wrong
        chain["dom_budget"] = budget
        for step in chain["steps"]:
            step["witness_budget"] = rational_to_json(
                rational_from_json(budget) / 2 ** (chain["n"] - step["level"] + 1)
            )

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_desk_chain_with(edit)))
    r = run_cli(["--out", "x", "eval", str(path), "--at", "0.3"], tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("input error:") and "'dom_budget'" in r.stderr, r.stderr


def _with_range_lo(obj, lo):
    obj["range"]["lo"] = [lo]


@pytest.mark.parametrize(
    "command, content",
    [
        (["extract"], lambda: _desk_svf_with(lambda s: _with_range_lo(s, {"num": -1, "exp2": 20000}))),
        (
            ["eval", "--at", "0.3"],
            lambda: _desk_chain_with(lambda c: _with_range_lo(c["svf"], {"num": -1, "exp2": 3_000_000})),
        ),
    ],
    ids=["svf-range-end", "chain-range-end"],
)
def test_wire_exponent_beyond_float_range_is_input_error(tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content()))
    r = run_cli(["--out", "x", command[0], str(path), *command[1:]], tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("input error:") and "'exp2'" in r.stderr, r.stderr
    assert "Traceback" not in r.stderr


def test_wire_exponent_bound_keeps_every_float():
    from fractions import Fraction

    from selectorkit.rational import rational_from_json, rational_to_json

    for x in (5e-324, 2.2250738585072014e-308, 0.1, 1.5, 1.7976931348623157e308):
        q = Fraction(x)
        assert rational_from_json(json.loads(json.dumps(rational_to_json(q)))) == q
    assert rational_to_json(Fraction(5e-324)) == {"num": 1, "exp2": 1074}
