import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import robot_subgradients, simulate_reference
from selectorkit.errors import InputError, PrecisionError
from selectorkit.robot import (
    DENOM_FLOOR,
    THETA_GRID,
    SimConfig,
    _gradients,
    analytic_subgradient,
    clf_value,
    clf_values,
    control_law,
    disassembled_subgradients,
    disk_feedback,
    export_svf,
    gnuplot_script,
    marginal_value,
    sim_csv,
    simulate,
    subgradient_nets,
)
from selectorkit.selector import eval_selector, extract
from selectorkit.setalg import BasicSet
from selectorkit.svf import GridSpec

F_ = Fraction


# ---------------------------------------------------------------------------
# marginal function


def test_marginal_unit_x1():
    assert marginal_value([1, 0, 0], 0.3) == pytest.approx(1.0)


def test_marginal_pure_x3():
    # |x3|^3 / (sqrt|x3|)^2 = x3^2
    for th in (0.0, 1.1, 3.0):
        assert marginal_value([0, 0, 1], th) == pytest.approx(1.0)
    assert marginal_value([0, 0, 0.5], 0.2) == pytest.approx(0.25)


def test_marginal_x3_zero_ignores_denominator():
    assert marginal_value([1, 1, 0], math.pi / 4) == pytest.approx(2.0)
    # even where the denominator would vanish
    assert marginal_value([1, 1, 0], 3 * math.pi / 4) == pytest.approx(2.0)


def test_marginal_denominator_floor_sentinel():
    # x3 != 0 and d = 0: sentinel
    v = marginal_value([1, 0, 1e-30], math.pi)  # d = -1 + 1e-15 ~ -1 fine
    assert np.isfinite(v)
    v = marginal_value([0.5, 0, 0.25], math.pi)  # d = -0.5 + 0.5 = 0
    assert v == math.inf


# ---------------------------------------------------------------------------
# CLF


def test_clf_theta_independent_cases():
    v, mins = clf_value([0, 0, 1])
    assert v == pytest.approx(1.0)
    assert len(mins) >= 128
    v, mins = clf_value([1, 1, 0])
    assert v == pytest.approx(2.0)
    assert len(mins) >= 128


def test_clf_origin_anchor():
    v, mins = clf_value([0, 0, 0])
    assert v == 0.0
    assert len(mins) == 128


def test_clf_positive_off_origin():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-2, 2, 3)
        if np.abs(x).max() < 1e-3:
            continue
        v, _ = clf_value(x)
        assert v > 0


def test_clf_minimizer_matches_closed_form():
    # for R > 0 the minimizer is atan2(x2, x1)
    x = [1.0, 0.5, 0.8]
    v, mins = clf_value(x)
    theta_star = math.atan2(0.5, 1.0)
    assert min(abs(m - theta_star) for m in mins) < 2 * math.pi / 128
    assert v == pytest.approx(marginal_value(x, theta_star), rel=1e-6)


def test_clf_semiconcavity_constant_reported():
    # fitted constant is reported, not asserted
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, 3)
        y = rng.uniform(-1.5, 1.5, 3)
        vx, _ = clf_value(x)
        vy, _ = clf_value(y)
        vm, _ = clf_value((x + y) / 2)
        gap = vx + vy - 2 * vm
        nrm = float(np.linalg.norm(x - y)) ** 2
        if nrm > 1e-6:
            worst = max(worst, gap / nrm)
    print(f"fitted semiconcavity constant C ~= {worst:.3f}")
    assert np.isfinite(worst)


# ---------------------------------------------------------------------------
# subgradients


def test_disassembled_circle_case():
    g = disassembled_subgradients([0, 0, 1])
    assert len(g) >= 128
    for row in g:
        # (-2 cos t, -2 sin t, 2) for some t
        assert row[0] ** 2 + row[1] ** 2 == pytest.approx(4.0, abs=1e-9)
        assert row[2] == pytest.approx(2.0)


def test_disassembled_near_singleton():
    g = disassembled_subgradients([1, 1, 0])
    assert len(g) == 1
    assert tuple(g[0]) == pytest.approx((4.0, 4.0, 0.0))


def test_disassembled_origin():
    g = disassembled_subgradients([0, 0, 0])
    assert len(g) == 1
    assert tuple(g[0]) == (0.0, 0.0, 0.0)
    # cross-check the limit numerically just off the origin
    g2 = disassembled_subgradients([1e-4, 0, 0])
    assert np.abs(g2).max() < 1e-6


def test_gradient_vs_central_differences():
    rng = np.random.default_rng(0)

    def f(x, t):
        x1, x2, x3 = x
        u = abs(x3)
        if u == 0:
            return x1**4 + x2**4
        d = x1 * math.cos(t) + x2 * math.sin(t) + math.sqrt(u)
        return x1**4 + x2**4 + u**3 / d**2

    checked = 0
    while checked < 300:
        x = rng.uniform(-2, 2, 3)
        t = rng.uniform(0, 2 * math.pi)
        d = x[0] * math.cos(t) + x[1] * math.sin(t) + math.sqrt(abs(x[2]))
        if abs(d) < 0.05 or abs(x[2]) < 0.05:
            continue
        g = _gradients(x.reshape(1, 3), np.zeros(1, dtype=np.intp), np.array([t]))[1][0]
        h = 1e-6
        fd = np.array(
            [(f(x + h * e, t) - f(x - h * e, t)) / (2 * h) for e in np.eye(3)]
        )
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-5
        checked += 1


def test_analytic_branch_values():
    assert tuple(analytic_subgradient([0, 0, 1])) == pytest.approx((-2.0, 0.0, 2.0))
    assert tuple(analytic_subgradient([1, 1, 0])) == pytest.approx((4.0, 4.0, 0.0))
    assert tuple(analytic_subgradient([0, 0, 0])) == (0.0, 0.0, 0.0)


def test_envelope_consistency():
    # where the minimizer is unique, the analytic subgradient sits inside
    # the disassembled set up to the theta-grid spacing
    rng = np.random.default_rng(3)
    for _ in range(40):
        x = rng.uniform(-2, 2, 3)
        if math.hypot(x[0], x[1]) < 0.3 or abs(x[2]) < 0.05:
            continue
        za = analytic_subgradient(x)
        ds = disassembled_subgradients(x)
        d = np.linalg.norm(ds - za, axis=1).min()
        assert d < 0.2 * (1 + np.linalg.norm(za))


# coordinates on the scale of DENOM_FLOOR put the branch denominator
# d = x1 cos t + x2 sin t + sqrt|x3| near the floor, on either side of it
planar = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.5, 2.5),
    st.floats(-2, 2).map(lambda s: s * DENOM_FLOOR),
)
axial = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.5, 2.5),
    st.floats(-4, 4).map(lambda s: s * DENOM_FLOOR**2),
)


@given(st.tuples(planar, planar, axial))
@example((0.0, 0.0, 0.0))
@example((0.5, -0.3, 0.0))  # x3 = 0
@example((0.0, 0.0, -0.8))  # the x3 axis, theta = 0
@example((3e-7, 4e-7, 1e-12))  # theta*, d = 1.5e-6 just above the floor
@example((-1e-7, 0.0, 1e-14))  # theta = 0, d = 0
@example((-6e-7, 0.0, 1e-12))  # theta = 0, d = 4e-7 below the floor
@example((-DENOM_FLOOR, 0.0, 1e-300))  # theta = 0, |d| equal to the floor
@settings(max_examples=400, deadline=None)
def test_analytic_subgradient_is_the_kernel_at_theta_star(x):
    x1, x2, _ = x
    theta = float(np.arctan2(x2, x1)) if x1 * x1 + x2 * x2 > DENOM_FLOOR**2 else 0.0
    _, g = _gradients(np.array([x]), np.zeros(1, dtype=np.intp), np.array([theta]))
    want = g[0].tolist() if len(g) else [0.0, 0.0, 0.0]
    got = analytic_subgradient(x)
    assert [c.hex() for c in got] == [c.hex() for c in want]


# ---------------------------------------------------------------------------
# batched kernel against the one-point scalar reference


def _assert_matches_reference(points, theta_grid):
    nets = subgradient_nets(points, theta_grid)
    assert len(nets) == len(points)
    values = clf_values(points)
    for x, net, v in zip(points, nets, values):
        v_ref, minimizers, ref = robot_subgradients(x, theta_grid)
        assert net.shape == ref.shape and net.tobytes() == ref.tobytes(), x
        got_v, got_minimizers = clf_value(x, theta_grid)
        assert np.float64(got_v).tobytes() == np.float64(v_ref).tobytes(), x
        assert got_minimizers.tobytes() == minimizers.tobytes(), x
        if theta_grid == THETA_GRID:
            assert v.tobytes() == np.float64(v_ref).tobytes(), x


def _centers(n_axis):
    grid = GridSpec(BasicSet.closed_box([-2] * 3, [2] * 3), (n_axis,) * 3)
    return grid.centers_array()


@pytest.mark.parametrize("theta_grid", [THETA_GRID, 2 * THETA_GRID])
@pytest.mark.parametrize("n_axis", [9, 11])
def test_kernel_matches_reference_on_centers(n_axis, theta_grid):
    _assert_matches_reference(_centers(n_axis), theta_grid)


DEGENERATE = [
    (0.0, 0.0, 0.0),
    (-0.0, 0.0, -0.0),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, -0.3),
    (0.0, 0.0, 1e-11),
    (1.0, 1.0, 0.0),
    (-0.5, 1.5, 0.0),
    (1e-4, 0.0, 0.0),
    (0.5, 0.0, 0.25),  # d = 0 at theta = pi
    (1.0, 0.5, 1e-9),  # rows equal at 12 decimals but not in their bits
    (-0.3, 0.2, -1e-13),
    (0.0, 0.0, 1e-13),  # every angle degenerates
    (0.0, 0.0, -5e-13),
]


@pytest.mark.parametrize("theta_grid", [THETA_GRID, 2 * THETA_GRID])
def test_kernel_matches_reference_on_degenerate_points(theta_grid):
    _assert_matches_reference(np.array(DEGENERATE), theta_grid)
    # on the x3 axis below |x3| = 1e-12 the denominator sqrt|x3| is under
    # the floor at every angle: no subgradient, V = +inf
    for x in [(0.0, 0.0, 1e-13), (0.0, 0.0, -5e-13)]:
        assert len(disassembled_subgradients(x, theta_grid)) == 0
        assert clf_value(x, theta_grid)[0] == math.inf


def test_kernel_blocks_do_not_change_nets(monkeypatch):
    import selectorkit.robot as robot

    points = np.concatenate([_centers(9), np.array(DEGENERATE)])
    whole = subgradient_nets(points)
    monkeypatch.setattr(robot, "BLOCK_ROWS", 7)
    for a, b in zip(whole, subgradient_nets(points)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


coordinate = st.one_of(
    st.floats(-2.5, 2.5),
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-9, -1e-7]),
)


@given(
    st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=12),
    st.sampled_from([THETA_GRID, 2 * THETA_GRID]),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_hypothesis(points, theta_grid):
    _assert_matches_reference(np.array(points, dtype=float), theta_grid)


def test_simulated_clf_matches_pointwise_values():
    res = simulate(SimConfig(controller="analytic", T=1.0))
    pointwise = np.array([robot_subgradients(x, THETA_GRID)[0] for x in res.states])
    assert res.clf.tobytes() == pointwise.tobytes()


# ---------------------------------------------------------------------------
# control law


def test_control_law_examples():
    assert control_law([-2, 0, 2], [0, 0, 1]) == pytest.approx((2.0, 0.0))
    assert control_law([0, 0, 0], [1, 1, 1]) == (0.0, 0.0)
    assert control_law([1, 1, 0], [0, 0, 0]) == (-1.0, -1.0)


def test_disk_feedback_unit_length_and_zero():
    assert disk_feedback((3.0, -4.0)) == pytest.approx((0.6, -0.8))
    assert disk_feedback((1e-12, 0.0)) == (1.0, 0.0)
    assert disk_feedback((0.0, 0.0)) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# SVF export


def small_svf():
    return export_svf(box_halfwidth=2.0, resolution=F_(4, 11))


def test_export_svf_accepted():
    svf = small_svf()
    assert svf.grid.n_cells == 11**3
    assert svf.tau > 0
    assert svf.meta["excluded_cells"] == 0
    # every net inhabited and inside the normalized unit cube with margin
    for i in range(0, svf.grid.n_cells, 97):
        net = svf.range_map.normalize_array(svf.nets[i])
        assert len(net) >= 1
        d = np.linalg.norm(net - 0.5, axis=1)
        assert d.max() < 0.5  # reachable from the f1 anchor


def test_exported_svfs_compare_by_value():
    a, b = export_svf(2, F_(4, 9)), export_svf(2, F_(4, 9))
    assert a == b
    assert a != export_svf(2, F_(4, 11))


def test_export_degenerate_single_cell():
    svf = export_svf(box_halfwidth=2.0, resolution=F_(4))
    assert svf.grid.n_cells == 1
    assert len(svf.nets) == 1


def test_export_too_coarse_for_deep_extraction():
    # at cell width 4/11 tau is about 0.0299, too coarse to certify n = 6
    svf = small_svf()
    assert svf.tau > 2.0**-7
    with pytest.raises(PrecisionError):
        extract(svf, 6)


def test_export_samples_only_what_tau_certifies(monkeypatch):
    # the nets come from the 11^3 cell centers and the theta-refinement
    # check from every tenth center on the doubled grid; nothing else is
    # sampled, and tau keeps its value bit for bit
    import selectorkit.robot as robot

    rows = []
    original = robot.subgradient_nets

    def counted(points, theta_grid=robot.THETA_GRID):
        rows.extend([theta_grid] * len(points))
        return original(points, theta_grid)

    monkeypatch.setattr(robot, "subgradient_nets", counted)
    svf = small_svf()
    assert len(rows) == 1465
    assert rows.count(2 * robot.THETA_GRID) == 134
    assert svf.tau == 0.029925013873333777
    assert svf.meta["tau_thin"] == 0.014962506936666889
    assert svf.meta["tau_theta"] == 0.014962506936666889


def test_resolution_must_divide_box():
    with pytest.raises(InputError):
        export_svf(box_halfwidth=2.0, resolution=F_(3, 7))


def test_robot_selector_section_golden():
    # pinned section of our own extracted selector at x3 = -1; guards
    # determinism of the whole pipeline
    svf = small_svf()
    chain = extract(svf, 4)
    got = {}
    for p in [(-1.5, -0.5, -1.0), (-0.5, 0.5, -1.0), (0.5, 1.5, -1.0), (1.5, -1.5, -1.0)]:
        res = eval_selector(chain, [F_(c).limit_denominator(2**20) for c in p])
        got[p] = res.as_floats()
    assert got[(-1.5, -0.5, -1.0)] == pytest.approx(
        (-21.036814425244184, -6.010518407212624, -0.9090909090909092)
    )
    assert got[(-0.5, 0.5, -1.0)] == pytest.approx(
        (-9.015777610818937, -6.010518407212624, -1.3636363636363638)
    )
    assert got[(0.5, 1.5, -1.0)] == pytest.approx(
        (-9.015777610818937, 6.010518407212624, -0.9090909090909092)
    )
    assert got[(1.5, -1.5, -1.0)] == pytest.approx(
        (3.005259203606312, -18.031555221637873, -0.9090909090909092)
    )


def test_selector_values_inside_certified_ball():
    svf = small_svf()
    chain = extract(svf, 4)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        x = rng.uniform(-1.9, 1.9, 3)
        res = eval_selector(chain, [F_(c).limit_denominator(2**20) for c in x])
        if not res.defined:
            continue
        # compare against the value net at the cell center
        idx = svf.grid.cell_of_point([F_(c).limit_denominator(2**20) for c in x])
        net = svf.range_map.normalize_array(svf.nets[svf.grid.flat(idx)])
        val = np.array(
            [float(c) for c in svf.range_map.normalize(res.value)]
        )
        d = np.linalg.norm(net - val, axis=1).min()
        assert d < chain.final_error_bound + 1e-9
        checked += 1


# ---------------------------------------------------------------------------
# simulation


def test_simulate_equilibrium_at_origin():
    res = simulate(SimConfig(controller="analytic", x0=(0, 0, 0), T=0.5))
    assert np.abs(res.states).max() == 0.0
    assert np.abs(res.controls).max() == 0.0


def test_simulate_analytic_descent():
    res = simulate(SimConfig(controller="analytic"))
    supn = np.abs(res.states).max(axis=1)
    dv = np.diff(res.clf)
    mask = supn[:-1] >= 0.5
    assert (dv[mask] <= 1e-3).all()
    # unit-disk feedback: |u| = 1 whatever |grad V|, so the loop enters
    # the 0.25 ball near t = 2.4 and ends near 0.003 by t = 10
    assert supn[-1] < 0.30
    assert res.clf[-1] < 0.05
    assert not res.truncated


def test_simulate_selector_smoke():
    svf = small_svf()
    chain = extract(svf, 4)
    res = simulate(SimConfig(controller="selector", T=2.0), chain=chain)
    assert len(res.times) == 201
    assert np.isfinite(res.states).all()
    assert res.control_variation >= 0.0
    meta = res.metadata()
    assert meta["controller"] == "selector"
    assert "control_total_variation" in meta


def test_simulate_selector_requires_chain():
    with pytest.raises(InputError):
        simulate(SimConfig(controller="selector"))


@pytest.mark.parametrize(
    "x0, name",
    [((1.0, 1.0, float("nan")), "x3"), ((float("-inf"), 0.0, 0.0), "x1")],
)
def test_sim_config_refuses_non_finite_start(x0, name):
    with pytest.raises(InputError, match=f"x0's coordinate {name} must be finite"):
        SimConfig(x0=x0, T=0.05)


def test_sim_internal_step_must_divide():
    with pytest.raises(InputError):
        SimConfig(dt_internal=0.003)


# seeded starts for the closed loop: on the plane x3 = 0, on the x3 axis,
# at the origin, one outside the working box (truncates after one step)
SIM_STARTS = [
    *map(tuple, np.random.default_rng(31).uniform(-1.5, 1.5, (4, 3)).tolist()),
    (0.7, -0.4, 0.0),
    (0.0, 0.0, 0.8),
    (0.0, 0.0, -0.3),
    (0.0, 0.0, 0.0),
    (0.5, -0.5, 2.2),
]


def _same_result(got, want):
    for name in ("times", "states", "controls", "clf"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert got.control_variation.hex() == want.control_variation.hex()
    assert (got.witness_hits, got.truncated, got.config) == (
        want.witness_hits, want.truncated, want.config,
    )


def test_simulate_matches_array_loop_bit_for_bit():
    chain = extract(small_svf(), 4)
    truncated = 0
    for x0 in SIM_STARTS:
        for controller in ("analytic", "selector"):
            cfg = SimConfig(controller=controller, x0=x0, T=1.0)
            res = simulate(cfg, chain)
            _same_result(res, simulate_reference(cfg, chain))
            truncated += res.truncated
    assert truncated == 2  # the start outside the box, under both controllers


def test_sim_csv_and_plot_script():
    res = simulate(SimConfig(controller="analytic", T=0.2))
    text = sim_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,u1,u2,V"
    assert len(lines) == len(res.times) + 1
    script = gnuplot_script("run.csv", "run")
    assert "run_states.png" in script and "run.csv" in script
