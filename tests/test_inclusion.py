import json
import math
from pathlib import Path

import numpy as np
import pytest

from selectorkit.errors import InputError
from selectorkit.inclusion import (
    filippov_iterate,
    linear_tube_problem,
    problem_from_json,
    projection_selector,
    singleton_field_problem,
    trajectory_csv,
    xi_bound,
    xi_profile,
)


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


def test_projection_onto_interval_endpoint():
    prob = linear_tube_problem(net_points=3)
    # F(t, 0) = {-0.1, 0, 0.1}; target 2 -> upper endpoint 0.1... net at x=0:
    v = projection_selector(prob.field_net, 0.0, np.array([0.0]), np.array([2.0]))
    assert v[0] == pytest.approx(0.1)


def test_projection_target_inside():
    prob = linear_tube_problem(net_points=5)
    v = projection_selector(prob.field_net, 0.0, np.array([1.0]), np.array([-1.02]))
    assert abs(v[0] + 1.0) <= 0.05 + 1e-12


def test_projection_singleton():
    prob = singleton_field_problem()
    v = projection_selector(prob.field_net, 0.0, np.array([2.0]), np.array([99.0]))
    assert v[0] == -2.0


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
    from selectorkit.errors import InhabitednessError

    with pytest.raises(InhabitednessError):
        projection_selector(
            lambda t, x: np.empty((0, 1)), 0.0, np.array([0.0]), np.array([1.0])
        )


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
