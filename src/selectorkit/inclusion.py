"""Filippov iteration solver for Lipschitzean differential inclusions.

Given a reference absolutely-continuous curve g with defect p(t) and a
Lipschitz modulus kappa(t), the solver iterates

    x_{j+1}(t) = x0 + integral of v_j,   v_j = proj_{F(t, x_j(t))}(xdot_j(t))

on a uniform grid until successive iterates agree, then certifies the
tube bound |x(t) - g(t)| <= xi(t) with

    xi(t) = delta * e^{int_0^t kappa} + int_0^t e^{int_tau^t kappa} p dtau

evaluated by composite trapezoid quadrature on the same grid.
Derivatives of iterates are the stored selector values, never numerical
differences.
Each sweep asks the net oracle once for the whole grid, field_net(times,
X) -> (n, m, d), and projects every point at once.  A net of fewer than m
points repeats its last point; the nearest point of lowest index wins, so
a repeated point never displaces its original.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainPointError, InhabitednessError, InputError
from .rational import as_fraction


NetOracle = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class DIProblem:
    """Differential inclusion xdot in F(t, x), x(0) = x0, on [0, T].

    `field_net(times, X)` returns, for n times and the (n, d) states at
    them, an (n, m, d) array: row i is a net of F(times[i], X[i]) with
    declared net radius `tau`, a net of fewer than m points padded by
    repeating its last point.  The reference curve g comes with its
    derivative oracle; kappa and p are the Lipschitz modulus and defect
    functions of the tube theorem.  Each of these four oracles takes the
    whole time grid at once: `g(times)` and `g_dot(times)` return (n, d)
    arrays, `kappa(times)` and `p(times)` an (n,) array or one scalar.
    """

    field_net: NetOracle
    x0: np.ndarray
    g: Callable[[np.ndarray], np.ndarray]
    g_dot: Callable[[np.ndarray], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray | float]
    p: Callable[[np.ndarray], np.ndarray | float]
    T: float
    beta_tube: float
    tau: float = 0.0
    name: str = "custom"

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.delta > self.beta_tube + 1e-12:
            raise InputError(
                f"initial offset {self.delta:.4g} exceeds the tube radius "
                f"{self.beta_tube:.4g}"
            )

    @property
    def delta(self) -> float:
        return float(np.linalg.norm(self.x0 - self.g(np.zeros(1))[0]))


@dataclass
class DITrajectory:
    times: np.ndarray
    states: np.ndarray  # (N+1, d)
    selector_values: np.ndarray  # (N+1, d)
    xi: np.ndarray
    quad_slack: np.ndarray
    residuals: list[float]
    iterations: int
    converged: bool
    certified: bool
    tube_margin: float  # min over grid of xi + slack - |x - g|


# ---------------------------------------------------------------------------
# xi bound


def _grid(T: float, h: float) -> np.ndarray:
    if not (math.isfinite(h) and h > 0):
        raise InputError(f"grid_step must be finite and positive, not {h!r}")
    if not (math.isfinite(T) and T >= 0):
        raise InputError(f"horizon T must be finite and non-negative, not {T!r}")
    n = round(T / h)
    if abs(n * h - T) > 1e-9 * max(1.0, T):
        raise InputError(f"grid step {h} does not divide the horizon {T}")
    return np.linspace(0.0, T, n + 1)


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    inc = 0.5 * h * (y[1:] + y[:-1])
    out[1:] = np.cumsum(inc, axis=0)
    return out


def xi_profile(
    delta: float, kappa, p, times: np.ndarray
) -> np.ndarray:
    """xi on a whole grid by composite trapezoid quadrature, kappa and p read over it."""
    kv = np.broadcast_to(np.asarray(kappa(times), dtype=float), times.shape)
    pv = np.broadcast_to(np.asarray(p(times), dtype=float), times.shape)
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    K = _cumtrapz(kv, h)
    inner = _cumtrapz(np.exp(-K) * pv, h)
    return delta * np.exp(K) + np.exp(K) * inner


def xi_bound(delta: float, kappa, p, t: float, grid_step: float = 0.01) -> float:
    """xi(t) for a single time, on a fresh grid of the given step."""
    if t == 0.0:
        return float(delta)
    times = _grid(t, min(grid_step, t))
    return float(xi_profile(float(delta), kappa, p, times)[-1])


# ---------------------------------------------------------------------------
# projection selector


def projection_selector(nets: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row i: the point of nets[i] (n, m >= 1, d) nearest to targets[i] (n, d).

    Ties take the lowest index.  Norms are compared, not squares: two
    squares that differ can round to one norm, which is a tie.
    """
    dist = np.linalg.norm(nets - targets[:, None, :], axis=-1)
    return nets[np.arange(len(nets)), dist.argmin(axis=1)]


# ---------------------------------------------------------------------------
# solver


def filippov_iterate(
    prob: DIProblem,
    grid_step: float = 0.01,
    max_iter: int = 50,
    tol: float = 1e-6,
) -> DITrajectory:
    """Iterate selector integration until successive iterates agree.

    Returns the trajectory with its tube certificate; a run that does
    not converge within max_iter comes back flagged non-certified.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be at least 1, not {max_iter!r}")
    if not tol > 0:
        raise InputError(f"tol must be positive, not {tol!r}")
    times = _grid(prob.T, grid_step)
    h = float(grid_step)

    g_vals = np.asarray(prob.g(times), dtype=float)
    x_cur = g_vals + (prob.x0 - g_vals[0])
    xdot_cur = np.asarray(prob.g_dot(times), dtype=float)

    residuals: list[float] = []
    converged = False
    for _ in range(max_iter):
        nets = np.asarray(prob.field_net(times, x_cur), dtype=float)
        if nets.shape[1] == 0:
            raise InhabitednessError(f"empty value net at t={times[0]}, x={x_cur[0]}")
        v = projection_selector(nets, xdot_cur)
        x_next = prob.x0 + _cumtrapz(v, h)
        residual = float(np.abs(x_next - x_cur).max())
        residuals.append(residual)
        x_cur, xdot_cur = x_next, v
        if residual < tol:
            converged = True
            break

    xi = xi_profile(prob.delta, prob.kappa, prob.p, times)
    # trapezoid slack: variation of the integrand bounds the error per step,
    # plus the same allowance for the quadrature inside xi itself
    dv = np.abs(np.diff(v, axis=0)).sum(axis=1)
    tv = np.concatenate([[0.0], np.cumsum(dv)])
    quad_slack = 0.25 * h * tv + h * h * (1.0 + np.abs(xi)) + prob.tau * times
    gap = np.linalg.norm(x_cur - g_vals, axis=1)
    margin = float((xi + quad_slack - gap).min())
    certified = bool(converged and margin >= 0.0)
    return DITrajectory(
        times=times,
        states=x_cur,
        selector_values=v,
        xi=xi,
        quad_slack=quad_slack,
        residuals=residuals,
        iterations=len(residuals),
        converged=converged,
        certified=certified,
        tube_margin=margin,
    )


# ---------------------------------------------------------------------------
# built-in problems and serialization


def linear_tube_problem(
    x0=1.2, p0=0.1, T=2.0, beta_tube=4.0, net_points=3
) -> DIProblem:
    """xdot in [-x - p0, -x + p0] against the reference g = e^-t.

    The reference derivative sits at the band center, so the defect p
    vanishes and xi(t) = |x0 - 1| * e^t.
    """
    if net_points < 2:
        raise InputError("net_points must be at least 2")
    offsets = np.linspace(-1.0, 1.0, int(net_points)) * p0

    def net(times, X):
        return offsets[None, :, None] + (-X[:, None, :1])

    return DIProblem(
        field_net=net,
        x0=np.array([float(x0)]),
        g=lambda t: np.exp(-t)[:, None],
        g_dot=lambda t: -np.exp(-t)[:, None],
        kappa=lambda t: 1.0,
        p=lambda t: 0.0,
        T=float(T),
        beta_tube=float(beta_tube),
        tau=p0 / max(int(net_points) - 1, 1),
        name="linear_tube",
    )


def singleton_field_problem(x0=1.0, T=2.0, beta_tube=4.0) -> DIProblem:
    """Degenerate inclusion xdot = -x: Picard iteration for the ODE."""

    def net(times, X):
        return -X[:, None, :1]

    return DIProblem(
        field_net=net,
        x0=np.array([float(x0)]),
        g=lambda t: (float(x0) * np.exp(-t))[:, None],
        g_dot=lambda t: (-float(x0) * np.exp(-t))[:, None],
        kappa=lambda t: 1.0,
        p=lambda t: 0.0,
        T=float(T),
        beta_tube=float(beta_tube),
        tau=0.0,
        name="singleton",
    )


def problem_from_json(
    obj: dict, load_json: Callable[[str], dict]
) -> tuple[DIProblem, dict]:
    """Build a problem from a JSON spec; returns (problem, solver kwargs).

    A spec naming an `svf_file` reads that cellwise SVF through load_json.
    """
    solver = {
        "grid_step": _field(obj, "grid_step", _finite, 0.01),
        "max_iter": _field(obj, "max_iter", int, 50),
        "tol": _field(obj, "tol", _finite, 1e-6),
    }
    if "svf_file" in obj:
        from .svf import cellwise_svf_from_json

        prob = problem_from_cellwise_svf(
            cellwise_svf_from_json(load_json(obj["svf_file"])),
            x0=_field(obj, "x0", _vector),
            T=_field(obj, "T", _finite, 1.0),
            beta_tube=_field(obj, "beta_tube", _finite, 1e9),
            obj=obj,
        )
        return prob, solver
    name = obj.get("field", "linear_tube")
    if name == "linear_tube":
        prob = linear_tube_problem(
            x0=_field(obj, "x0", _coordinate, 1.2),
            p0=_field(obj, "p0", _finite, 0.1),
            T=_field(obj, "T", _finite, 2.0),
            beta_tube=_field(obj, "beta_tube", _finite, 4.0),
            net_points=_field(obj, "net_points", int, 3),
        )
    elif name == "singleton":
        prob = singleton_field_problem(
            x0=_field(obj, "x0", _coordinate, 1.0),
            T=_field(obj, "T", _finite, 2.0),
            beta_tube=_field(obj, "beta_tube", _finite, 4.0),
        )
    else:
        raise InputError(f"unknown built-in field {name!r}")
    return prob, solver


_REQUIRED = object()


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("not a finite number")
    return out


def _vector(value) -> np.ndarray:
    out = np.atleast_1d(np.asarray(value, dtype=float))
    if out.ndim != 1 or not out.size or not np.isfinite(out).all():
        raise ValueError("not a non-empty list of finite numbers")
    return out


def _coordinate(value) -> float:
    """The one coordinate of a point of a built-in 1-D field."""
    out = _vector(value)
    if len(out) != 1:
        raise ValueError("a built-in field is one-dimensional")
    return float(out[0])


def _field(obj: dict, key: str, convert, default=_REQUIRED):
    """obj[key] (or the default) through convert; InputError if missing or malformed."""
    if key not in obj and default is _REQUIRED:
        raise InputError(f"problem field {key!r} is missing")
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise InputError(f"problem field {key!r} is malformed: {value!r} ({e})") from e


def problem_from_cellwise_svf(svf, x0, T, beta_tube, obj=None) -> DIProblem:
    """Autonomous inclusion from a cellwise SVF: F(t, x) = F(x).

    The net samples each value-set part at its corners and midpoint.
    The constant reference g = x0 is used with its defect bounded by the
    observed distance of 0 to F along the reference, which the caller
    should override for sharper certificates.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if len(x0) != svf.alpha:
        raise InputError(f"x0 has {len(x0)} coordinates; the SVF's domain has {svf.alpha}")
    if not svf.domain_box.contains([as_fraction(c) for c in x0]):
        raise InputError(f"x0 {x0.tolist()} lies outside the SVF's working box")

    cell_nets = {}  # cell index -> its net, built once; the padding below copies it

    def net(times, X):
        nets = []
        for t, x in zip(times.tolist(), X.tolist()):
            i = svf.cell_index_at(x)  # the float iterate, located exactly
            if i is None:
                raise DomainPointError(
                    f"Filippov iteration: the iterate at t={t!r} is {x!r}, "
                    "outside the SVF's working box"
                )
            pts = cell_nets.get(i)
            if pts is None:
                pts = cell_nets[i] = []
                for part in svf.cells[i][1].parts:
                    lo = [float(c) for c in part.lo]
                    hi = [float(c) for c in part.hi]
                    pts.append(lo)
                    if hi != lo:
                        pts.append(hi)
                        pts.append([0.5 * (a + b) for a, b in zip(lo, hi)])
            nets.append(pts)
        m = max(map(len, nets))
        return np.array([pts + pts[-1:] * (m - len(pts)) for pts in nets])

    obj = obj or {}
    kappa_const = _field(obj, "kappa", _finite, 1.0)
    p_const = _field(obj, "p", _finite, 0.0)
    return DIProblem(
        field_net=net,
        x0=x0,
        g=lambda t: np.tile(x0, (len(t), 1)),
        g_dot=lambda t: np.zeros((len(t), len(x0))),
        kappa=lambda t: kappa_const,
        p=lambda t: p_const,
        T=T,
        beta_tube=beta_tube,
        tau=0.0,
        name="cellwise",
    )


def trajectory_csv(traj: DITrajectory) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    d = traj.states.shape[1]
    w.writerow(
        ["t"]
        + [f"x{j + 1}" for j in range(d)]
        + [f"v{j + 1}" for j in range(d)]
        + ["xi"]
    )
    for j, t in enumerate(traj.times):
        w.writerow(
            [repr(float(t))]
            + [repr(float(c)) for c in traj.states[j]]
            + [repr(float(c)) for c in traj.selector_values[j]]
            + [repr(float(traj.xi[j]))]
        )
    return buf.getvalue()
