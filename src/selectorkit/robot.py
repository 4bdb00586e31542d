"""Three-wheel robot case study: nonholonomic integrator stabilization.

The model is xdot = g1(x) u1 + g2(x) u2 with g1 = (1, 0, -x2),
g2 = (0, 1, x1).  No smooth control Lyapunov function exists, so the
controller works with the marginal function

    F(x, theta) = x1^4 + x2^4 + |x3|^3 / (x1 cos t + x2 sin t + sqrt|x3|)^2

whose minimum over theta is the CLF V.  Gradients of F at the
near-minimizers form the disassembled subdifferential, a set-valued
map.  For a subgradient zeta, taken either from the closed-form branch
expression or from a measurable selector extracted from the
subgradient SVF, the feedback is the minimizer of <zeta, f(x, u)> over
the closed unit disk of controls: u = w / |w| with
w = -(<zeta, g1>, <zeta, g2>), and u = 0 when w = 0 (sample-and-hold
CLF feedback after Clarke, Ledyaev, Sontag and Subbotin, 1997).

Simulations run zero-order-hold control at 10 ms with explicit Euler
substeps.  The closed loop runs on Python floats, with the bits of the
batched numpy kernels: the state is three floats, and the analytic
controller's closed form uses `math` cos, sin and sqrt, which agree
with numpy's on every sample measured.  Three operations stay numpy
because the `math` or Python form rounds differently; the counts are
of 200,000 points uniform in [-2, 2]^3 (numpy 2.4.6, x86-64): the
branch angle (`np.arctan2`; `math.atan2` differs on 15,342), the cube
of the denominator (a 0-d array power; Python's `**` and an np.float64
scalar's each differ on 10,527) and the disk normalization
(`np.hypot`; `math.hypot` differs on 1,179).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError
from .selector import SelectorChain, final_answer
from .setalg import BasicSet
from .svf import GridSpec, SampledSVF, directed_deviation, symmetric_range_box


# discretization of the marginal-function minimization
THETA_GRID = 128
REFINE_LEVELS = 3
DENOM_FLOOR = 1e-6
ARGMIN_TOL = 1e-4  # acceptance band is ARGMIN_TOL * (1 + V)
MAX_NET = 12  # value-net entries kept per exported cell
WORKING_HALFWIDTH = 2.0  # a simulated state leaving [-2, 2]^3 truncates the run
BLOCK_ROWS = 512  # points per kernel pass; bounds the (points x angles) temporaries

# The kernel below evaluates many points at once.  Every float operation
# it applies to one point is the one a single-point evaluation applies,
# so results do not depend on how points are batched.  The per-point
# powers stay Python-float arithmetic (numpy's vectorized power rounds
# differently from the C library's pow).


def _blocks(points):
    X = np.asarray(points, dtype=float).reshape(-1, 3)
    return (X[lo : lo + BLOCK_ROWS] for lo in range(0, len(X), BLOCK_ROWS))


def _marginal(X: np.ndarray):
    """F(x, .) for each row x of X, as a function of (1, T) or (B, T) angles.

    Angles where the denominator degenerates get the +inf sentinel;
    rows with x3 = 0 ignore the denominator (the |x3|^3 term vanishes).
    """
    rows = X.tolist()
    x1, x2 = X[:, 0:1], X[:, 1:2]
    u = np.abs(X[:, 2:3])
    root, flat = np.sqrt(u), u == 0.0
    poly = np.array([a**4 + b**4 for a, b, _ in rows]).reshape(-1, 1)
    cube = np.array([abs(c) ** 3 for _, _, c in rows]).reshape(-1, 1)

    def F(thetas: np.ndarray) -> np.ndarray:
        d = x1 * np.cos(thetas) + x2 * np.sin(thetas) + root
        ok = np.abs(d) >= DENOM_FLOOR
        vals = np.where(ok, poly + cube / np.where(ok, d, 1.0) ** 2, np.inf)
        return np.where(flat, poly, vals)

    return F


def marginal_value(x: Sequence[float], theta: float) -> float:
    """F(x, theta); +inf sentinel when the denominator degenerates."""
    F = _marginal(np.asarray(x, dtype=float).reshape(1, 3))
    return float(F(np.array([float(theta)]))[0, 0])


def _minimize(X: np.ndarray, theta_grid: int):
    """V = min_theta F at each row of X, and the near-minimizer angles.

    Returns (v, rows, angles): v holds one value per row (+inf where
    every grid angle degenerates); each (rows[i], angles[i]) pair is a
    near-minimizer, grouped by row and ascending in angle within a row.
    The minimum is taken over the theta grid, then refined by
    REFINE_LEVELS 9-point searches around the best angle.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    F = _marginal(X)
    vals = F(thetas)  # (B, T)
    finite = np.isfinite(vals)
    live = finite.any(axis=1)
    at = np.arange(len(X))
    best = np.argmin(vals, axis=1)
    v, theta_best = vals[at, best], thetas[best]
    width = 2.0 * np.pi / theta_grid
    for _ in range(REFINE_LEVELS):
        local = theta_best[:, None] + np.linspace(-width, width, 9)
        lv = F(local)
        j = np.argmin(lv, axis=1)
        lv_j = lv[at, j]
        better = live & np.isfinite(lv_j) & (lv_j < v)
        v = np.where(better, lv_j, v)
        theta_best = np.where(better, local[at, j], theta_best)
        width /= 4.0
    near = finite & (vals <= (v + ARGMIN_TOL * (1.0 + v))[:, None])
    # the refined minimizer may undercut every base-grid angle by more
    # than the band; it is a genuine argmin member either way
    theta_best = np.mod(theta_best, 2.0 * np.pi)
    extra = live & ~(near & np.isclose(thetas, theta_best[:, None])).any(axis=1)
    rows, cols = np.nonzero(near)
    extra_rows = np.nonzero(extra)[0]
    rows = np.concatenate([rows, extra_rows])
    angles = np.concatenate([thetas[cols], theta_best[extra_rows]])
    order = np.lexsort((angles, rows))
    return v, rows[order], angles[order]


def _gradients(X: np.ndarray, rows: np.ndarray, angles: np.ndarray):
    """dF/dx at each (X[rows[i]], angles[i]) pair, deduplicated per row.

    Pairs whose denominator degenerates are dropped.  Within a row a
    gradient equal at 12 decimals to an earlier pair's is dropped, so
    the first occurrence in the given order survives.  Returns the
    surviving (rows, gradients) in the given order.
    """
    terms = np.array(
        [(4.0 * a**3, 4.0 * b**3, abs(c) ** 3, abs(c) ** 2, abs(c) ** 2.5) for a, b, c in X.tolist()]
    ).reshape(-1, 5)[rows]
    x = X[rows]
    u = np.abs(x[:, 2])
    flat = u == 0.0
    ct, st = np.cos(angles), np.sin(angles)
    d = x[:, 0] * ct + x[:, 1] * st + np.sqrt(u)
    keep = flat | (np.abs(d) >= DENOM_FLOOR)
    rows, x, terms, flat = rows[keep], x[keep], terms[keep], flat[keep]
    ct, st = ct[keep], st[keep]
    d = np.where(flat, 1.0, d[keep])
    p1, p2, cube, square, half = terms.T
    d3 = d**3
    g = np.empty((len(rows), 3))
    g[:, 0] = np.where(flat, p1, p1 - 2.0 * cube * ct / d3)
    g[:, 1] = np.where(flat, p2, p2 - 2.0 * cube * st / d3)
    g[:, 2] = np.where(flat, 0.0, np.sign(x[:, 2]) * (3.0 * square / d**2 - half / d3))
    if len(g) < 2:
        return rows, g
    # per-row dedupe: a stable sort on (row, rounded gradient) puts equal
    # keys next to each other in their original order
    key = np.round(g, 12)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], rows))
    k, r = key[order], rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (k[1:] != k[:-1]).any(axis=1)
    kept = np.sort(order[first])
    return rows[kept], g[kept]


def clf_value(x, theta_grid: int = THETA_GRID) -> tuple[float, np.ndarray]:
    """V(x) = min_theta F(x, theta) and the near-minimizer angles."""
    v, _, angles = _minimize(np.asarray(x, dtype=float).reshape(1, 3), theta_grid)
    return float(v[0]), angles


def clf_values(points) -> np.ndarray:
    """V at each row of an (N, 3) array of points."""
    return np.concatenate([_minimize(X, THETA_GRID)[0] for X in _blocks(points)])


def disassembled_subgradients(x, theta_grid: int = THETA_GRID) -> np.ndarray:
    """dF/dx at every near-minimizer theta; empty when all angles degenerate."""
    return subgradient_nets([x], theta_grid)[0]


def subgradient_nets(points, theta_grid: int = THETA_GRID) -> list[np.ndarray]:
    """`disassembled_subgradients` at each row of an (N, 3) array.

    One batched pass per BLOCK_ROWS points; a point's net does not
    depend on which other points share its block.
    """
    nets = []
    for X in _blocks(points):
        _, rows, angles = _minimize(X, theta_grid)
        rows, g = _gradients(X, rows, angles)
        ends = np.cumsum(np.bincount(rows, minlength=len(X))).tolist()
        nets.extend(g[a:b] for a, b in zip([0] + ends[:-1], ends))
    return nets


def analytic_subgradient(x) -> tuple[float, float, float]:
    """The closed-form branch subgradient, dF/dx at theta*, on Python floats.

    Away from the x3 axis the minimizer is theta* = atan2(x2, x1) (it
    maximizes the squared denominator), giving the envelope gradient;
    on the axis the branch falls back to theta = 0.  The result is zero
    where the denominator degenerates, and (4 x1^3, 4 x2^3, 0) on x3 = 0.
    Every value has the bits of `_gradients` at the same angle (see the
    module docstring for the operations that stay numpy); d**2 is d*d,
    which is how numpy squares.
    """
    x1, x2, x3 = (float(c) for c in x)
    if x1 * x1 + x2 * x2 > DENOM_FLOOR**2:
        theta = float(np.arctan2(x2, x1))
    else:
        theta = 0.0
    p1, p2 = 4.0 * x1**3, 4.0 * x2**3
    if x3 == 0.0:
        return (p1, p2, 0.0)
    u = abs(x3)
    ct, st = math.cos(theta), math.sin(theta)
    d = x1 * ct + x2 * st + math.sqrt(u)
    if abs(d) < DENOM_FLOOR:
        return (0.0, 0.0, 0.0)
    cube, d3 = u**3, float(np.array(d) ** 3)
    return (
        p1 - 2.0 * cube * ct / d3,
        p2 - 2.0 * cube * st / d3,
        math.copysign(1.0, x3) * (3.0 * u**2 / (d * d) - u**2.5 / d3),
    )


def control_law(zeta, x) -> tuple[float, float]:
    """w = -(<zeta, g1>, <zeta, g2>) for the integrator's input fields.

    This is the steepest-descent direction of <zeta, f(x, u)> in u; its
    length scales with |zeta|.  `simulate` applies its unit-disk
    normalization (see `disk_feedback`).
    """
    z1, z2, z3 = (float(c) for c in zeta)
    x1, x2 = float(x[0]), float(x[1])
    return (-(z1 - x2 * z3), -(z2 + x1 * z3))


def disk_feedback(w: tuple[float, float]) -> tuple[float, float]:
    """argmin of <zeta, f(x, u)> over |u| <= 1: w / |w|, and 0 when w = 0."""
    r = float(np.hypot(w[0], w[1]))
    if r == 0.0:
        return (0.0, 0.0)
    return (w[0] / r, w[1] / r)


# ---------------------------------------------------------------------------
# subgradient SVF export


def export_svf(
    box_halfwidth: Fraction | float = 2.0,
    resolution: Fraction | float = Fraction(1, 8),
) -> SampledSVF:
    """Sampled SVF of the disassembled subdifferential over [-b, b]^3.

    `resolution` is the cell width.  Value nets are the subgradients at
    the near-minimizer angles at the cell centers, evenly thinned to
    MAX_NET entries; tau is the covering radius lost to thinning plus
    the deviation of a doubled theta grid from the nets, both at cell
    centers (the subdifferential jumps near the x3 axis, so no constant
    bounds its variation inside a cell).  Cells whose angles all
    degenerate are excluded and counted in the metadata.  All centers
    go through `subgradient_nets` in one batched pass, and so do the
    doubled-grid samples of the tau check.
    """
    from .rational import as_fraction

    b = as_fraction(box_halfwidth)
    h = as_fraction(resolution)
    if b <= 0 or h <= 0:
        raise InputError("box half-width and resolution must be positive")
    n_axis = (2 * b) / h
    if n_axis.denominator != 1:
        raise InputError("resolution must divide the box width")
    n_axis = int(n_axis)
    grid = GridSpec(BasicSet.closed_box([-b] * 3, [b] * 3), (n_axis,) * 3)
    centers = grid.centers_array()

    full_nets = subgradient_nets(centers)
    mask = np.array([len(g) > 0 for g in full_nets], dtype=bool)
    full_nets = [g if len(g) else np.zeros((1, 3)) for g in full_nets]

    allv = np.concatenate([g for g, live in zip(full_nets, mask) if live])
    range_map = symmetric_range_box(allv)

    nets = []
    tau_thin = 0.0
    for i, g in enumerate(full_nets):
        kept, radius = _thin_net(g, range_map)
        nets.append(kept)
        if mask[i]:
            tau_thin = max(tau_thin, radius)
    tau_theta = _theta_refinement_tau(nets, mask, centers, range_map)
    return SampledSVF(
        grid,
        range_map,
        tuple(nets),
        tau_thin + tau_theta,
        meta={
            "excluded_cells": int((~mask).sum()),
            "tau_thin": tau_thin,
            "tau_theta": tau_theta,
            "max_net": MAX_NET,
            "theta_grid": THETA_GRID,
            "resolution": float(h),
        },
        mask=mask,
    )


def _thin_net(g: np.ndarray, range_map) -> tuple[np.ndarray, float]:
    """Evenly thin a net, returning the normalized covering radius lost."""
    if len(g) <= MAX_NET:
        return g, 0.0
    idx = np.unique(np.linspace(0, len(g) - 1, MAX_NET).round().astype(int))
    kept = g[idx]
    dropped = np.delete(g, idx, axis=0)
    return kept, directed_deviation(
        range_map.normalize_array(dropped), range_map.normalize_array(kept)
    )


def _theta_refinement_tau(nets, mask: np.ndarray, centers: np.ndarray, range_map) -> float:
    """Deviation of a doubled-theta-grid pass from the declared nets."""
    idx = np.arange(0, len(centers), max(len(centers) // 128, 1))
    idx = idx[mask[idx]]
    worst = 0.0
    for i, fine in zip(idx, subgradient_nets(centers[idx], 2 * THETA_GRID)):
        if len(fine):
            coarse_n = range_map.normalize_array(nets[i])
            worst = max(worst, directed_deviation(range_map.normalize_array(fine), coarse_n))
    return worst


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimConfig:
    dt_control: float = 0.01
    dt_internal: float = 0.001
    T: float = 10.0
    x0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    controller: str = "analytic"  # "analytic" | "selector"

    def __post_init__(self):
        if not all(
            math.isfinite(v) and v > 0 for v in (self.dt_control, self.dt_internal, self.T)
        ):
            raise InputError("dt_control, dt_internal and T must be positive and finite")
        if len(self.x0) != 3:
            raise InputError(f"x0 must have 3 coordinates, got {len(self.x0)}")
        for name, c in zip(("x1", "x2", "x3"), self.x0):
            if not math.isfinite(c):
                raise InputError(f"x0's coordinate {name} must be finite, got {c!r}")
        n = round(self.dt_control / self.dt_internal)
        if abs(n * self.dt_internal - self.dt_control) > 1e-12:
            raise InputError("dt_internal must divide dt_control")
        if self.controller not in ("analytic", "selector"):
            raise InputError(f"unknown controller {self.controller!r}")


@dataclass
class SimResult:
    times: np.ndarray
    states: np.ndarray  # (N+1, 3)
    controls: np.ndarray  # (N+1, 2)
    clf: np.ndarray  # V(x(t))
    control_variation: float  # total variation of u, 1-norm
    witness_hits: int  # selector evals answered Undefined(inside witness)
    truncated: bool
    config: SimConfig

    def metadata(self) -> dict:
        return {
            "controller": self.config.controller,
            "dt_control": self.config.dt_control,
            "dt_internal": self.config.dt_internal,
            "T": self.config.T,
            "x0": list(self.config.x0),
            "denom_floor": DENOM_FLOOR,
            "argmin_tol": ARGMIN_TOL,
            "theta_grid": THETA_GRID,
            "control_total_variation": self.control_variation,
            "witness_hits": self.witness_hits,
            "truncated": self.truncated,
            "terminal_state": [float(c) for c in self.states[-1]],
            "terminal_sup_norm": float(np.abs(self.states[-1]).max()),
            "terminal_clf": float(self.clf[-1]),
        }


def simulate(config: SimConfig, chain: SelectorChain | None = None) -> SimResult:
    """Zero-order-hold closed loop on the nonholonomic integrator.

    At each sampling instant both controllers take a subgradient zeta
    (closed-form branch or chain value), form w = control_law(zeta, x)
    and hold u = w / |w| over the sampling interval, u = 0 when w = 0:
    the minimizer of <zeta, f(x, u)> over the closed unit disk.  The
    selector controller reads the chain's value as `eval_selector` would,
    from the chain's float table (`final_floats`), and holds the
    previous control on Undefined answers (witness hits).  States
    escaping the working box truncate the run.  The control never reads
    V, so V(x(t)) is computed after the loop, in one batched call over
    the recorded states.

    The state is three Python floats; an Euler substep makes the IEEE
    operations of x + h * array([u1, u2, -x2 u1 + x1 u2]) in the same
    order, so the states have the bits of the array form, and no numpy
    routine runs inside the substep loop.  The recorded states become
    one array after the loop.
    """
    if config.controller == "selector" and chain is None:
        raise InputError("selector controller needs an extracted chain")
    n_steps = round(config.T / config.dt_control)
    substeps = round(config.dt_control / config.dt_internal)

    h = config.dt_internal
    x1, x2, x3 = (float(c) for c in config.x0)
    times = [0.0]
    states = [(x1, x2, x3)]
    controls = []
    u = (0.0, 0.0)
    witness_hits = 0
    truncated = False

    for k in range(n_steps):
        x = (x1, x2, x3)
        if config.controller == "analytic":
            u = disk_feedback(control_law(analytic_subgradient(x), x))
        else:
            reason, key = final_answer(chain, x)
            if reason is None:
                u = disk_feedback(control_law(chain.final_floats[key], x))
            else:
                witness_hits += 1  # hold previous control
        controls.append(u)
        u1, u2 = u
        for _ in range(substeps):
            x1, x2, x3 = x1 + h * u1, x2 + h * u2, x3 + h * (-x2 * u1 + x1 * u2)
        times.append((k + 1) * config.dt_control)
        states.append((x1, x2, x3))
        if max(abs(x1), abs(x2), abs(x3)) > WORKING_HALFWIDTH:
            truncated = True
            break

    controls.append(u)
    arr_u = np.array(controls)
    tv = float(np.abs(np.diff(arr_u, axis=0)).sum())
    states = np.array(states)
    return SimResult(
        times=np.array(times),
        states=states,
        controls=arr_u,
        clf=clf_values(states),
        control_variation=tv,
        witness_hits=witness_hits,
        truncated=truncated,
        config=config,
    )


def sim_csv(result: SimResult) -> str:
    """One row per recorded instant: t, the state, the held control and V."""
    rows = zip(
        result.times.tolist(), result.states.tolist(), result.controls.tolist(),
        result.clf.tolist(),
    )
    lines = ["t,x1,x2,x3,u1,u2,V"]
    lines.extend(",".join(map(repr, [t, *x, *u, v])) for t, x, u, v in rows)
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_name: str, out_prefix: str) -> str:
    """Companion plot script for the simulation CSV."""
    return "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            f"set output '{out_prefix}_states.png'",
            "set terminal pngcairo size 900,600",
            f"plot '{csv_name}' using 1:2 with lines, '' using 1:3 with lines, "
            "'' using 1:4 with lines",
            f"set output '{out_prefix}_controls.png'",
            f"plot '{csv_name}' using 1:5 with lines, '' using 1:6 with lines",
            f"set output '{out_prefix}_clf.png'",
            f"plot '{csv_name}' using 1:7 with lines",
        ]
    )
