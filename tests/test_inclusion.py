import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectorkit.errors import DomainPointError, InhabitednessError, InputError
from selectorkit.inclusion import (
    filippov_iterate,
    linear_tube_problem,
    problem_from_cellwise_svf,
    problem_from_json,
    projection_selector,
    singleton_field_problem,
    trajectory_csv,
    xi_bound,
    xi_profile,
)
from selectorkit.setalg import BasicSet, GeneralizedBasicSet
from selectorkit.svf import AffineRangeMap, build_cellwise_svf

from oracles import filippov_iterate_reference, projection_reference


# ---------------------------------------------------------------------------
# xi bound


def test_xi_closed_form_pure_delta():
    # kappa = L, p = 0: xi(t) = delta e^{Lt}
    L = 0.7
    for t in (0.5, 1.0, 2.0):
        got = xi_bound(0.5, lambda _t: L, lambda _t: 0.0, t, grid_step=0.001)
        assert got == pytest.approx(0.5 * math.exp(L * t), rel=1e-5)


def test_xi_closed_form_pure_defect():
    # delta = 0, kappa = L, p = p0: xi(t) = p0 (e^{Lt} - 1)/L
    L, p0 = 1.3, 0.4
    for t in (0.5, 1.5):
        got = xi_bound(0.0, lambda _t: L, lambda _t: p0, t, grid_step=0.001)
        assert got == pytest.approx(p0 * (math.exp(L * t) - 1.0) / L, rel=1e-5)


def test_xi_at_zero_is_delta():
    assert xi_bound(0.25, lambda t: 1.0, lambda t: 1.0, 0.0) == 0.25


def test_xi_monotone_for_nonnegative_inputs():
    times = np.linspace(0.0, 2.0, 201)
    xi = xi_profile(0.1, lambda t: 0.5 + 0.1 * t, lambda t: 0.2, times)
    assert (np.diff(xi) >= -1e-12).all()


# ---------------------------------------------------------------------------
# projection selector


def project_one(prob, t, x, target):
    """The projection at one point, as a batch of one row."""
    nets = prob.field_net(np.array([t]), np.array([x], dtype=float))
    return projection_selector(nets, np.array([target], dtype=float))[0]


def test_projection_onto_interval_endpoint():
    prob = linear_tube_problem(net_points=3)
    # F(t, 0) = {-0.1, 0, 0.1}; target 2 -> upper endpoint 0.1... net at x=0:
    v = project_one(prob, 0.0, [0.0], [2.0])
    assert v[0] == pytest.approx(0.1)


def test_projection_target_inside():
    prob = linear_tube_problem(net_points=5)
    v = project_one(prob, 0.0, [1.0], [-1.02])
    assert abs(v[0] + 1.0) <= 0.05 + 1e-12


def test_projection_singleton():
    prob = singleton_field_problem()
    v = project_one(prob, 0.0, [2.0], [99.0])
    assert v[0] == -2.0


F = Fraction


def atoms(*points):
    """Value set of singleton atoms at the given points."""
    return GeneralizedBasicSet.of([BasicSet.singleton(p) for p in points])


def boxes(*corners):
    """Value set of closed boxes, one per (lo, hi) pair."""
    return GeneralizedBasicSet.of([BasicSet.closed_box(lo, hi) for lo, hi in corners])


def test_projection_batch_with_nets_of_unequal_size():
    # cell [0, 1/2]: one atom; cell (1/2, 1]: the box [-1/2, 1/2], whose net
    # is its ends and midpoint (-1/2, 1/2, 0), so the first row is padded
    svf = build_cellwise_svf(
        BasicSet.closed_box([0], [1]),
        [
            (BasicSet.interval(0, F(1, 2), True, True), atoms([F(1, 4)])),
            (BasicSet.interval(F(1, 2), 1, False, True), boxes(([F(-1, 2)], [F(1, 2)]))),
        ],
        AffineRangeMap.of([-1], [1]),
    )
    prob = problem_from_cellwise_svf(svf, x0=[0.25], T=1.0, beta_tube=1.0)
    times = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    X = np.array([[0.25], [0.75], [0.75], [0.75], [0.75]])
    nets = prob.field_net(times, X)
    assert nets.shape == (5, 3, 1)
    assert nets[0].tolist() == [[0.25]] * 3
    assert nets[1].tolist() == [[-0.5], [0.5], [0.0]]
    # +-1/4 lie as near the midpoint 0 as an end: the end, at the lower index, wins
    targets = np.array([[-9.0], [0.4], [-0.3], [0.25], [-0.25]])
    v = projection_selector(nets, targets)
    assert v.tolist() == [[0.25], [0.5], [-0.5], [0.5], [-0.5]]
    for row, net, target in zip(v, nets, targets):
        assert row.tolist() == projection_reference(net, target).tolist()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_projection_selector_matches_pointwise_projection_hypothesis(data):
    # small integer coordinates make exact ties common; each row's net is
    # padded to the widest by repeating its last point, as the oracles do
    d = data.draw(st.integers(1, 3))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    rows = data.draw(st.lists(st.lists(point, min_size=1, max_size=5), min_size=1, max_size=6))
    targets = np.array(data.draw(st.lists(point, min_size=len(rows), max_size=len(rows))), float)
    m = max(map(len, rows))
    nets = np.array([net + net[-1:] * (m - len(net)) for net in rows], dtype=float)
    got = projection_selector(nets, targets)
    want = [projection_reference(np.array(net, float), t) for net, t in zip(rows, targets)]
    assert got.tobytes() == np.array(want).tobytes()


def test_projection_compares_norms_not_squares():
    # far's squared norm exceeds near's, yet the two norms round alike:
    # the tie goes to the lower index, where a comparison of squares
    # would pick near
    near = np.array([665.001953125, 934.6611328125])
    far = np.array([near[0], np.nextafter(near[1], np.inf)])
    assert (far * far).sum() > (near * near).sum()
    assert np.linalg.norm(far) == np.linalg.norm(near)
    v = projection_selector(np.array([[far, near]]), np.zeros((1, 2)))
    assert v[0].tobytes() == far.tobytes()


def _outcome(solve, prob, **solver):
    """What a solver run yields, compared bit for bit, or the error it raises."""
    try:
        traj = solve(prob, **solver)
    except (DomainPointError, InhabitednessError) as e:
        return type(e), str(e)
    return (
        traj.states.tobytes(),
        traj.selector_values.tobytes(),
        traj.residuals,
        traj.converged,
        traj.certified,
        traj.tube_margin,
    )


@st.composite
def tube_problems(draw):
    T = draw(st.sampled_from([0.5, 1.0, 2.0]))
    x0 = draw(st.one_of(st.just(1.0), st.floats(-2.0, 4.0)))  # 1.0 = g(0)
    prob = linear_tube_problem(
        x0=x0,
        p0=draw(st.floats(0.0, 1.0)),
        T=T,
        net_points=draw(st.integers(2, 7)),
    )
    return prob, T / draw(st.integers(4, 80))


@st.composite
def singleton_problems(draw):
    T = draw(st.sampled_from([0.5, 1.0]))
    prob = singleton_field_problem(x0=draw(st.floats(-3.0, 3.0)), T=T)
    return prob, T / draw(st.integers(4, 80))


VALUES = [F(i, 8) for i in range(-4, 5)]  # within the range map [-1, 1]


@st.composite
def value_sets(draw, dim):
    """One to three atoms or closed boxes, with coordinates in VALUES."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.lists(st.sampled_from(VALUES), min_size=dim, max_size=dim))
        if draw(st.booleans()):
            parts.append(BasicSet.singleton(a))
        else:
            b = draw(st.lists(st.sampled_from(VALUES), min_size=dim, max_size=dim))
            parts.append(BasicSet.closed_box(list(map(min, a, b)), list(map(max, a, b))))
    return GeneralizedBasicSet.of(parts)


@st.composite
def cellwise_problems(draw):
    """A 1-D or 2-D cellwise SVF on [0, 1]^dim, its cells carrying nets of
    unequal size; a tie cell holds atoms at +-1/4 on the first axis, equally
    near the first sweep's target 0."""
    dim = draw(st.sampled_from([1, 2]))
    axes = []
    for _ in range(dim):
        cuts = sorted(draw(st.sets(st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]), max_size=2)))
        ends = [F(0), *cuts, F(1)]
        axes.append([(lo, hi, lo == 0) for lo, hi in zip(ends, ends[1:])])
    tie = atoms([F(-1, 4)] + [F(0)] * (dim - 1), [F(1, 4)] + [F(0)] * (dim - 1))
    cells = []
    for spans in np.ndindex(*map(len, axes)):
        ivs = [axes[k][i] for k, i in enumerate(spans)]
        cell = BasicSet.box(
            [lo for lo, _, _ in ivs], [hi for _, hi, _ in ivs],
            [closed for _, _, closed in ivs], [True] * dim,
        )
        cells.append((cell, tie if draw(st.booleans()) else draw(value_sets(dim))))
    svf = build_cellwise_svf(
        BasicSet.closed_box([0] * dim, [1] * dim), cells, AffineRangeMap.of([-1] * dim, [1] * dim)
    )
    # speeds reach 1/2 per axis: from some starts the iterate leaves the box
    x0 = draw(st.lists(st.sampled_from([F(i, 16) for i in range(17)]), min_size=dim, max_size=dim))
    T = draw(st.sampled_from([0.1, 0.25, 0.5]))
    prob = problem_from_cellwise_svf(svf, x0=[float(c) for c in x0], T=T, beta_tube=2.0)
    return prob, T / draw(st.integers(2, 40))


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(tube_problems(), singleton_problems(), cellwise_problems()),
    st.integers(1, 15),
    st.sampled_from([1e-3, 1e-6, 1e-9]),
)
def test_batched_solver_matches_pointwise_reference_hypothesis(case, max_iter, tol):
    prob, step = case
    solver = dict(grid_step=step, max_iter=max_iter, tol=tol)
    assert _outcome(filippov_iterate, prob, **solver) == _outcome(
        filippov_iterate_reference, prob, **solver
    )


# ---------------------------------------------------------------------------
# solver


def test_exact_reference_collapses_onto_g():
    # x0 = g(0): the band center equals gdot, iterates stay on g
    prob = linear_tube_problem(x0=1.0, p0=0.1, T=2.0)
    traj = filippov_iterate(prob, grid_step=0.01)
    assert traj.converged and traj.certified
    g = np.exp(-traj.times)
    assert np.abs(traj.states[:, 0] - g).max() <= traj.quad_slack.max() + 1e-9


def test_offset_initial_state_within_tube():
    prob = linear_tube_problem(x0=1.2, p0=0.1, T=2.0)
    traj = filippov_iterate(prob, grid_step=0.01, max_iter=50, tol=1e-6)
    assert traj.converged
    assert traj.residuals[-1] < 1e-6
    bound = 0.2 * np.exp(traj.times) + traj.quad_slack
    gap = np.abs(traj.states[:, 0] - np.exp(-traj.times))
    assert (gap <= bound + 1e-12).all()
    assert traj.certified


def test_singleton_field_is_picard():
    prob = singleton_field_problem(x0=1.0, T=1.0)
    traj = filippov_iterate(prob, grid_step=0.005)
    assert traj.converged and traj.certified
    assert np.abs(traj.states[:, 0] - np.exp(-traj.times)).max() < 1e-4


def test_contraction_after_first_iterations():
    # the finite-net projection can bump the residual once by about
    # tau * h while atom choices settle; beyond that the Lipschitz tube
    # contracts monotonically
    prob = linear_tube_problem(x0=1.2, p0=0.1, T=2.0)
    traj = filippov_iterate(prob, grid_step=0.01)
    r = traj.residuals
    for a, b in zip(r[1:], r[2:]):
        assert b <= a + prob.tau * 0.01
    for a, b in zip(r[4:], r[5:]):
        assert b <= a + 1e-12
    assert r[-1] < 1e-6


def test_derivative_stays_in_field():
    # certificate soundness: finite differences of states track the net
    prob = linear_tube_problem(x0=1.2, p0=0.1, T=2.0)
    traj = filippov_iterate(prob, grid_step=0.01)
    h = traj.times[1] - traj.times[0]
    fd = (traj.states[1:] - traj.states[:-1]) / h
    for j in range(1, len(traj.times) - 1):
        x = traj.states[j]
        lo, hi = -x[0] - 0.1, -x[0] + 0.1
        mid = 0.5 * (traj.selector_values[j][0] + traj.selector_values[j + 1][0])
        assert abs(fd[j][0] - mid) < 1e-9
        assert lo - prob.tau - 0.02 <= fd[j][0] <= hi + prob.tau + 0.02


def test_grid_step_must_divide_horizon():
    prob = linear_tube_problem(T=1.0)
    with pytest.raises(InputError):
        filippov_iterate(prob, grid_step=0.3)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_nonpositive_tol_rejected(tol):
    with pytest.raises(InputError, match="tol"):
        filippov_iterate(linear_tube_problem(T=1.0), tol=tol)


def test_initial_offset_outside_tube_rejected():
    with pytest.raises(InputError):
        linear_tube_problem(x0=9.0, beta_tube=1.0)


def test_nonconvergence_flagged():
    prob = linear_tube_problem(x0=1.2, p0=0.1, T=2.0)
    traj = filippov_iterate(prob, grid_step=0.01, max_iter=2, tol=1e-12)
    assert not traj.converged
    assert not traj.certified


# ---------------------------------------------------------------------------
# IO


def read_json(path):
    return json.loads(Path(path).read_text())


def test_problem_from_json_linear():
    prob, solver = problem_from_json(
        {"field": "linear_tube", "x0": 1.2, "p0": 0.1, "T": 2.0, "tol": 1e-6}, read_json
    )
    assert prob.name == "linear_tube"
    assert solver["tol"] == 1e-6
    traj = filippov_iterate(prob, **solver)
    assert traj.certified


def test_trajectory_csv_shape():
    prob = singleton_field_problem(T=0.5)
    traj = filippov_iterate(prob, grid_step=0.05)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,v1,xi"
    assert len(lines) == len(traj.times) + 1


def test_empty_net_rejected():
    prob = singleton_field_problem(x0=1.0, T=0.5)
    prob.field_net = lambda times, X: np.empty((len(times), 0, 1))
    with pytest.raises(InhabitednessError, match=r"t=0\.0, x=\[1\.\]"):
        filippov_iterate(prob, grid_step=0.05)


def test_problem_from_cellwise_svf_file(tmp_path):
    spec = {
        "svf_file": str(Path(__file__).resolve().parent.parent / "assets" / "desk_svf.json"),
        "x0": [0.0],
        "T": 1.0,
        "beta_tube": 2.0,
        "kappa": 1.0,
        "p": 0.25,
        "grid_step": 0.01,
    }
    path = tmp_path / "di.json"
    path.write_text(json.dumps(spec))
    prob, solver = problem_from_json(read_json(path), read_json)
    traj = filippov_iterate(prob, **solver)
    assert traj.converged
    # the field is {1/4} on the visited region: linear growth at slope 1/4
    assert traj.states[-1, 0] == pytest.approx(0.25, abs=1e-6)
    assert traj.certified
