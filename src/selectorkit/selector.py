"""Constructive measurable-selector extraction to precision 2**-n.

The extractor builds piecewise-constant approximants f_2 .. f_n.  At
level k a regular mesh of pitch 2**-(k+1) is laid over the normalized
range; a point x keeps mesh value r when r is within 2**-k of F(x) and
within 2**-(k-1) of the previous approximant, and ties go to the
lowest mesh index via the countable reduction in row-major order.

Only mesh points within four pitches of the previous value can pass,
so both engines walk the same lattice ball around it in lexicographic
order, which keeps the tie-break, as its runs of one first digit
(`_ball_runs`), and differ only in the distance test.  The exact engine
handles cellwise SVFs, which it never splits, and decides both tests
exactly on one integer scale per cell and level (`_CellScale`), where
the previous value and the cell's value-set ends are ints: both tests
are sums of per-axis terms of a candidate's digits, tabled once per
cell and level, and a run whose first-axis terms alone already fail
either test is skipped whole.
The grid engine handles sampled SVFs on their cell grid, vectorized in
float64, with declared slack tau folded into every certificate
(acceptance threshold 2**-k + 2*tau, certified error 2**-k + 3*tau).
Each run is tested at once for the cells still without a winner whose
first-digit slab lies within reach of their net, and a cell's first
hit is its lowest admitted index.

The initial approximant is the real-space zero vector expressed in
normalized coordinates.  Its feasibility at the first constructed
level (every value set must come within 1/2 of it) is not guaranteed
by the construction and is checked at runtime; failures abort with the
uncovered region.

Both engines give a step one form, `Step`: a winning mesh index per
cell of the SVF, -1 where undefined.  The SVF places points among its
cells and its one witness M(eps) for every step (`locate`).  Every
reader of a step decodes its winners to mesh digits; `Fraction` nodes
are built only where a value leaves the package.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import CoverageError, InputError, PrecisionError
from .rational import as_exact, as_fraction, int_from_json, rational_from_json, rational_to_json
from .setalg import (
    BasicSet,
    _aspoint,
    GeneralizedBasicSet,
    Point,
    basic_set_to_json,
)
from .svf import (
    INSIDE_WITNESS,
    OUTSIDE_DOMAIN,
    CellwiseSVF,
    RepresentableSVF,
    SampledSVF,
    cellwise_svf_from_json,
    cellwise_svf_to_json,
    ravel,
    unravel,
)


# ---------------------------------------------------------------------------
# mesh


def mesh_pitch(k: int) -> Fraction:
    return Fraction(1, 2 ** (k + 1))


def mesh_shape(level: int, beta: int) -> tuple[int, ...]:
    """Nodes per axis of the level's mesh over [0, 1]**beta."""
    return (2 ** (level + 1) + 1,) * beta


@cache
def mesh_value(level: int, flat: int, beta: int) -> tuple[Fraction, ...]:
    """The level's mesh node with row-major flat index `flat`: its digits
    over 2**(level+1)."""
    top = 2 ** (level + 1)
    return tuple(Fraction(d, top) for d in unravel(flat, mesh_shape(level, beta)))


def _piece_rank(winner: Sequence[int], w: int) -> int:
    """The rank of winner w among a step's distinct winners, in mesh-index order."""
    return len({v for v in winner if 0 <= v < w})


# ---------------------------------------------------------------------------
# chain data


@dataclass(frozen=True)
class StepCertificate:
    level: int
    mesh_pitch: Fraction
    error_bound: Fraction  # mesh part, 2**-k
    slack: float  # sampled slack folded into the bound (0 exact)
    step_gap: Fraction  # |f_k - f_{k-1}| bound, 2**-(k-1)
    witness_budget: Fraction
    n_pieces: int
    dom_measure: Fraction

    @staticmethod
    def at_level(
        k: int, slack: float, witness_budget, n_pieces: int, dom_measure
    ) -> "StepCertificate":
        """The certificate of step k: pitch 2**-(k+1), error 2**-k, gap 2**-(k-1)."""
        return StepCertificate(
            k, mesh_pitch(k), Fraction(1, 2**k), slack, Fraction(1, 2 ** (k - 1)),
            as_fraction(witness_budget), n_pieces, dom_measure,
        )


@dataclass(frozen=True)
class Step:
    """Approximant f_k on the SVF's cells, for both engines.

    winner[i] is the flat mesh index of f_k's value on cell i of the SVF,
    in its cell order (a cellwise SVF's cells, a sampled SVF's grid cells
    row-major), or -1 where f_k is undefined.  The SVF places points and
    holds the witness M(eps) of every step.
    """

    level: int
    winner: tuple[int, ...] = field(repr=False)
    certificate: StepCertificate
    svf: RepresentableSVF = field(repr=False, compare=False)

    def value_at(self, x) -> tuple[Fraction, ...] | None:
        i = self.svf.cell_index_at(x)
        w = -1 if i is None else self.winner[i]
        return None if w < 0 else mesh_value(self.level, w, self.svf.beta)

    def answer(self, x: Point, eps: Fraction) -> tuple[str | None, int | None]:
        """(reason, None) where f_k is undefined at x, else (None, mesh index).

        The SVF's `locate` decides outside the closed box, inside M(eps)
        and which cell, whose winner may be -1 (undefined).
        """
        reason, i = self.svf.locate(x, eps)
        if reason is not None:
            return reason, None
        w = self.winner[i]
        return (OUTSIDE_DOMAIN, None) if w < 0 else (None, w)

    @property
    def pieces(self) -> tuple[tuple[GeneralizedBasicSet, tuple[Fraction, ...]], ...]:
        """A cellwise step as pieces: its cells grouped by winner, in mesh-index
        order, each piece's cells in SVF order, with their mesh node."""
        cells = [(cell, w) for (cell, _), w in zip(self.svf.cells, self.winner)]
        return tuple(
            (
                GeneralizedBasicSet(self.svf.alpha, tuple(c for c, v in cells if v == w)),
                mesh_value(self.level, w, self.svf.beta),
            )
            for w in sorted(set(self.winner) - {-1})
        )


@dataclass(frozen=True)
class SelectorChain:
    """The extracted sequence f_1..f_n with per-step certificates."""

    svf: RepresentableSVF
    n: int
    dom_budget: Fraction
    f1_value: tuple[Fraction, ...]
    steps: tuple[Step, ...]  # levels 2..n

    @property
    def engine(self) -> str:
        return "exact" if self.svf.kind == "cellwise" else "grid"

    @property
    def beta(self) -> int:
        return self.svf.beta

    @property
    def final_error_bound(self) -> float:
        cert = self.steps[-1].certificate
        return float(cert.error_bound) + cert.slack

    def final_witness(self, eps) -> GeneralizedBasicSet:
        return self.svf.witness(eps)

    @cached_property
    def final_values(self) -> dict[int, tuple[Fraction, ...]]:
        """The final step's values denormalized to the range, all computed at once.

        A level-k mesh node's coordinate is d / 2**(k+1) for its digit d, so
        its denormalized value on an axis with low end a / s and width b / s
        (`AffineRangeMap.int_axes`) is (a * 2**(k+1) + d * b) / (s * 2**(k+1)).
        Each coordinate is one `Fraction` of those ints; the result equals
        `range_map.denormalize` of each winner's `mesh_value`.
        """
        step = self.steps[-1]
        top = 2 ** (step.level + 1)
        axes = [(a * top, b, s * top) for a, b, s in self.svf.range_map.int_axes]
        shape = mesh_shape(step.level, self.beta)
        return {
            key: tuple(Fraction(a + d * b, s) for d, (a, b, s) in zip(unravel(key, shape), axes))
            for key in sorted(set(step.winner))
            if key >= 0
        }

    @cached_property
    def final_floats(self) -> dict[int, tuple[float, ...]]:
        """`final_values` as floats, converted once for a closed loop that
        reads them at every step; `float` of a `Fraction` is correctly
        rounded, so each tuple has the bits of `EvalResult.as_floats`."""
        return {key: tuple(map(float, value)) for key, value in self.final_values.items()}


@dataclass(frozen=True)
class EvalResult:
    """Selector evaluation: a range value or a typed Undefined."""

    value: tuple[Fraction, ...] | None
    reason: str | None = None  # "inside_witness" | "outside_domain"

    INSIDE_WITNESS = INSIDE_WITNESS
    OUTSIDE_DOMAIN = OUTSIDE_DOMAIN

    @property
    def defined(self) -> bool:
        return self.value is not None

    def as_floats(self) -> tuple[float, ...] | None:
        return None if self.value is None else tuple(float(c) for c in self.value)


# ---------------------------------------------------------------------------
# extraction entry point


def extract(F: RepresentableSVF, n: int, dom_budget=Fraction(1, 16)) -> SelectorChain:
    """Run the extraction to level n (certified error 2**-n plus slack)."""
    if n < 2:
        raise InputError("extraction level must be at least 2")
    dom_budget = as_fraction(dom_budget)
    if dom_budget <= 0:
        raise InputError("domain-loss budget must be positive")
    if F.kind == "sampled" and F.tau > float(Fraction(1, 2 ** (n + 1))):
        raise PrecisionError(
            f"sampled slack tau={F.tau:.4g} exceeds 2**-(n+1)={2.0**-(n+1):.4g}; "
            "refine the sampling grid"
        )
    build = extraction_step if F.kind == "cellwise" else _grid_step
    steps, prev = [], None
    for k in range(2, n + 1):
        prev = build(prev, F, k, dom_budget * Fraction(1, 2 ** (n - k + 1)))
        steps.append(prev)
    return SelectorChain(F, n, dom_budget, _f1_value(F), tuple(steps))


def _f1_value(F: RepresentableSVF) -> tuple[Fraction, ...]:
    """The initial approximant: the real zero vector, normalized."""
    return F.range_map.normalize([0] * F.beta)


# ---------------------------------------------------------------------------
# candidate ball


@cache
def _ball_offsets(beta: int) -> tuple[tuple[int, ...], ...]:
    """Mesh-digit offsets that can hold an admitted value, lexicographic.

    An admitted value at level k lies within gap 2**-(k-1), four
    pitches, of the previous value, which sits at most half a pitch per
    axis from its nearest node.  So every admitted node is that node
    plus an offset o in [-4, 4]**beta with sum max(|o_j| - 1/2, 0)**2
    < 16.  Walking the offsets in lexicographic order around a fixed
    node follows the row-major mesh order, so the first admitted
    candidate is the lowest mesh index, which is the tie-break.

    The nearest node is taken half to even where the previous value sits
    midway between two nodes.  The winner does not depend on that choice:
    the value is half a pitch from either node, so the ball around either
    one holds every admitted node, and both walks meet the lowest first.
    Built once per beta.
    """
    return tuple(
        o
        for o in itertools.product(range(-4, 5), repeat=beta)
        if sum(max(2 * abs(c) - 1, 0) ** 2 for c in o) < 64
    )


@cache
def _ball_runs(beta: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """`_ball_offsets` as its runs of one first digit, in ball order: per
    run, (first offset, the offsets' other digits).  Both engines walk
    these; at beta = 2 the runs are 5, 7, 9, 9, 9, 9, 9, 7, 5 long."""
    return tuple(
        (first, tuple(o[1:] for o in run))
        for first, run in itertools.groupby(_ball_offsets(beta), key=lambda o: o[0])
    )


# ---------------------------------------------------------------------------
# exact engine


def extraction_step(f_prev: Step | None, F: CellwiseSVF, k: int, budget=None) -> Step:
    """Exact-engine step k from the previous approximant.

    `f_prev` is the step at level k - 1, or None to start from the
    constant f_1.  `budget` is the step's witness budget, 2**-(k+2)
    unless given.  A cell of F that `f_prev` holds no value for, its SVF
    having another cell at that index, is an InputError.
    """
    if k < 2:
        raise InputError("extraction level must be at least 2")
    budget = as_fraction(budget) if budget is not None else Fraction(1, 2 ** (k + 2))
    top = 2 ** (k + 1)  # largest mesh digit
    runs = _ball_runs(F.beta)
    nodes = mesh_shape(k, F.beta)

    # winner per cell: the first ball candidate admitted from its previous value
    winner = [-1] * len(F.cells)
    for ci, w, scale in _cell_scales(F, k, f_prev):
        digits = scale.first_admitted(runs, top)
        if digits is None:
            pi = 0 if f_prev is None else _piece_rank(f_prev.winner, w)
            raise CoverageError(
                f"no mesh point at level {k} serves cell {ci} from piece {pi}; "
                "the value set lies outside the previous approximant's reach",
                region=GeneralizedBasicSet(F.alpha, (F.cells[ci][0],)),
            )
        winner[ci] = ravel(digits, nodes)

    n_pieces = len(set(winner) - {-1})
    cert = StepCertificate.at_level(k, 0.0, budget, n_pieces, F.domain_box.measure())
    return Step(k, tuple(winner), cert, F)


def _cell_scales(F: CellwiseSVF, k: int, f_prev: Step | None):
    """The per-cell set-up of extraction and the load check: per non-empty
    cell of F, (ci, w, scale), w being f_prev's winner on cell ci (None at
    level 2) and scale the cell's `_CellScale` from f_1 or w's digits."""
    axes = F.range_map.int_axes
    w, prev = None, [(-a, b) for a, b, _ in axes]  # f_1, the normalized zero -lo / width
    if f_prev is not None:
        prev_cells, prev_nodes = f_prev.svf.cells, mesh_shape(k - 1, F.beta)
    for ci, (cell, values) in enumerate(F.cells):
        if cell.is_empty:
            continue
        if f_prev is not None:
            w = f_prev.winner[ci] if ci < len(prev_cells) and prev_cells[ci][0] == cell else -1
            if w < 0:
                raise InputError(f"the level-{k - 1} step holds no piece for cell {ci} of the SVF")
            prev = [(d, 2**k) for d in unravel(w, prev_nodes)]
        yield ci, w, _CellScale(prev, values, axes, k)


class _CellScale:
    """Admissibility at level k on one cell, decided in ints.

    A level-k value r is admitted from the previous value p when r is
    within 2**-(k-1) of p and within 2**-k of the cell's normalized value
    set, both strictly.  p comes as normalized integer ratios (num, den),
    the previous step's digits over 2**k or f_1's.  The value set comes in
    range coordinates: an end n/d on an axis (a, b, s) of the range map's
    `int_axes` normalizes to (n*s - a*d) / (d*b).  L is the lcm of 2**(k+1)
    and the denominators of p and of those ratios; p and each part's lo and
    hi are encoded once as ints on L.  A candidate is its digit vector d,
    the mesh node d / 2**(k+1), which sits at d * m on L with
    m = L >> (k+1).  Both tests are sums of per-axis terms (`terms`): on
    axis j at digit d_j, the gap term (d_j m - p_j)**2 and, per part, the
    value term clamp**2, clamp being the distance below lo or above hi.
    The gap test 4**(k-1) * sum of gap terms < L**2 and the value test
    4**k * sum of a part's value terms < L**2 for some part compare against
    L**2 >> 2(k-1) and L**2 >> 2k, exact since 4**(k+1) divides L**2.  Like
    `BasicSet.dist2_point`, the value test measures to each part's
    closure, so closure flags do not enter.  `admits` decides one digit
    vector; `first_admitted` walks the ball on tables of the same terms.
    """

    __slots__ = ("step", "prev", "ends", "gap2", "err2")

    def __init__(self, prev: Sequence[tuple[int, int]], values: GeneralizedBasicSet, axes, k: int):
        def normalized(end: Fraction, a: int, b: int, s: int) -> tuple[int, int]:
            n, d = end.as_integer_ratio()
            return n * s - a * d, d * b

        ends = [  # per axis, per part
            [(normalized(q.lo[j], *ax), normalized(q.hi[j], *ax)) for q in values.parts]
            for j, ax in enumerate(axes)
        ]
        dens = [d for _, d in prev] + [d for axis in ends for end in axis for _, d in end]
        scale = math.lcm(2 ** (k + 1), *dens)

        def on_scale(ratio: tuple[int, int]) -> int:
            return ratio[0] * (scale // ratio[1])

        self.step = scale >> (k + 1)  # m, one mesh pitch on the scale
        self.prev = [on_scale(c) for c in prev]
        self.ends = [[(on_scale(lo), on_scale(hi)) for lo, hi in axis] for axis in ends]
        self.gap2 = (scale * scale) >> (2 * (k - 1))
        self.err2 = (scale * scale) >> (2 * k)

    def nearest_node(self) -> list[int]:
        """The digits of the mesh node nearest the previous value, ties to even."""
        base = []
        for p in self.prev:
            q, rem = divmod(p, self.step)
            base.append(q + (2 * rem > self.step or (2 * rem == self.step and q & 1)))
        return base

    def terms(self, j: int, d: int) -> tuple[int, list[int]]:
        """Axis j's terms at mesh digit d: the gap term and one value term per part."""
        x = d * self.step
        return (x - self.prev[j]) ** 2, [
            (lo - x) ** 2 if x < lo else (x - hi) ** 2 if x > hi else 0 for lo, hi in self.ends[j]
        ]

    def admits(self, digits: Sequence[int]) -> bool:
        """Whether the level-k node with these mesh digits passes both tests."""
        gaps, values = zip(*map(self.terms, range(len(digits)), digits))
        return sum(gaps) < self.gap2 and any(sum(v) < self.err2 for v in zip(*values))

    def first_admitted(self, runs, top: int) -> tuple[int, ...] | None:
        """The first admitted digits in ball order around `nearest_node()`,
        the lowest admitted mesh index, or None; `runs` is `_ball_runs(beta)`.

        The terms of the digits base_j - 4 .. base_j + 4 within [0, top] are
        tabled once per axis.  Terms are non-negative, so a run whose first-axis
        gap term reaches gap2, or whose first-axis value terms all reach err2,
        is skipped whole; inside a run only the parts still in reach are summed.
        """
        base = self.nearest_node()
        first, *rest = (
            {o: self.terms(j, b + o) for o in range(-4, 5) if 0 <= b + o <= top}
            for j, b in enumerate(base)
        )
        for o0, tails in runs:
            if o0 not in first:
                continue
            gap0, values0 = first[o0]
            live = [(i, v) for i, v in enumerate(values0) if v < self.err2]
            if gap0 >= self.gap2 or not live:
                continue
            for tail in tails:
                terms = [t.get(o) for t, o in zip(rest, tail)]
                if None in terms or gap0 + sum(g for g, _ in terms) >= self.gap2:
                    continue
                if any(v + sum(vs[i] for _, vs in terms) < self.err2 for i, v in live):
                    return (base[0] + o0, *(b + o for b, o in zip(base[1:], tail)))
        return None


# ---------------------------------------------------------------------------
# grid engine


# per chunk of cells: the longest run's candidates x net points
_GRID_TEMP_ELEMS = 8_000_000
_SLAB_GUARD = 1e-9  # relative margin of the first-digit slab bound


def _grid_step(prev_step: Step | None, F: SampledSVF, k: int, budget) -> Step:
    beta = F.beta
    pitch = 2.0 ** -(k + 1)
    nodes = mesh_shape(k, beta)
    eps_accept = 2.0**-k + 2.0 * F.tau
    gap = 2.0 ** -(k - 1)
    n_cells = F.grid.n_cells

    if prev_step is not None:
        prev_w = np.array(prev_step.winner)  # a cell without a value is not active
        prev_vals = np.stack(np.unravel_index(np.maximum(prev_w, 0), mesh_shape(k - 1, beta)), -1)
        prev_vals = prev_vals * 2.0**-k
        prev_ok = prev_w >= 0
    else:
        prev_vals = np.tile(np.array([float(c) for c in _f1_value(F)]), (n_cells, 1))
        prev_ok = np.ones(n_cells, dtype=bool)
    if F.mask is not None:
        prev_ok = prev_ok & F.mask

    # the ball's offsets in runs of one first digit, in ball order
    ball_runs = _ball_runs(beta)
    first_offsets = np.array([o0 for o0, _ in ball_runs])
    runs = [np.array([(o0, *tail) for tail in tails]) for o0, tails in ball_runs]
    winner = np.full(n_cells, -1, dtype=np.int64)
    accept2 = eps_accept * eps_accept
    gap2 = gap * gap
    padded_all = F.padded_nets
    nn_all = (padded_all**2).sum(axis=2)  # (cells, m)
    m_max = padded_all.shape[1]

    # First-digit slab bound: a candidate with first digit d0 lies at least
    # |d0*pitch - n_0| from net point n, so no d0 with slab2 >= accept2
    # holds an admitted candidate.  Pruning must keep every candidate
    # that the float test below admits.  That test computes d_net2 as
    # |c|^2 + |n|^2 - 2 c.n, with rounding error below
    # (beta + 2) * 2**-53 * (|c| + |n|)^2, under 1e-14 for coordinates in
    # [0, 1]; slab2 is off by a few ulps of itself.  Both lie far below
    # 1e-9 of accept2 >= 4**-k at every level k <= 8, and `rounding2`
    # keeps the bound safe at deeper levels.
    rounding2 = (beta + 3) * 2.0**-52 * (np.sqrt(beta) + np.sqrt(nn_all.max())) ** 2
    prune2 = accept2 * (1 + _SLAB_GUARD) + rounding2

    # visit the runs in ball order, each for the open cells whose slab
    # bound keeps it; a cell closes at its first hit, which is its
    # lowest-index admitted candidate
    active = np.nonzero(prev_ok)[0]
    chunk = max(1, _GRID_TEMP_ELEMS // (max(map(len, runs)) * m_max))
    for lo in range(0, len(active), chunk):
        cells = active[lo : lo + chunk]
        nets_chunk = padded_all[cells]
        prev_chunk = prev_vals[cells]  # (b, beta)
        base = np.rint(prev_chunk / pitch).astype(np.int64)
        nn_chunk = nn_all[cells]  # (b, m)
        d0 = base[:, :1] + first_offsets  # (b, runs) first digits
        slab2 = ((d0[:, :, None] * pitch - nets_chunk[:, None, :, 0]) ** 2).min(axis=2)
        keep = (slab2 < prune2) & (d0 >= 0) & (d0 < nodes[0])  # (b, runs)
        is_open = np.ones(len(cells), dtype=bool)
        for r, run in enumerate(runs):
            rows = np.flatnonzero(is_open & keep[:, r])
            if not len(rows):
                continue
            digits = base[rows, None, :] + run  # (rows, run, beta), no gather
            coords = digits * pitch
            # per-axis sums over axes 0..beta-1 in order, the bits of
            # numpy's sum over a short last axis
            ok, d_prev2, cc = True, 0.0, 0.0
            for j in range(beta):
                ok = ok & (digits[..., j] >= 0) & (digits[..., j] < nodes[j])
                d_prev2 = d_prev2 + (coords[..., j] - prev_chunk[rows, j, None]) ** 2
                cc = cc + coords[..., j] ** 2
            # |c - n|^2 = |c|^2 + |n|^2 - 2 c.n via batched matmul, taken as
            # n @ c^T on a view of c (the bits of c @ n^T), then its min
            # over net points one contiguous (rows, run) slice at a time
            cross2 = nets_chunk[rows] @ coords.transpose(0, 2, 1)
            cross2 *= 2.0  # (rows, m, run)
            nn = nn_chunk[rows]
            d_net2 = cc + nn[:, :1] - cross2[:, 0]
            for i in range(1, m_max):
                np.minimum(d_net2, cc + nn[:, i, None] - cross2[:, i], out=d_net2)
            ok &= (d_prev2 < gap2) & (d_net2 < accept2)
            hit = ok.any(axis=1)
            first = np.argmax(ok[hit], axis=1)
            winner[cells[rows[hit]]] = np.ravel_multi_index(digits[hit, first].T, nodes)
            is_open[rows[hit]] = False
        uncovered = np.flatnonzero(is_open)
        if len(uncovered):
            flat = int(cells[uncovered[0]])
            raise CoverageError(
                f"mesh guarantee fails at level {k} on cell {F.grid.unflat(flat)}: "
                "sampled slack too coarse or value set unreachable",
                region=F.grid.cell_box(F.grid.unflat(flat)),
            )

    covered = int((winner >= 0).sum())
    cert = StepCertificate.at_level(
        k, 3.0 * F.tau, budget, len(np.unique(winner[winner >= 0])),
        F.grid.cell_volume * covered,
    )
    return Step(k, tuple(winner.tolist()), cert, F)


# ---------------------------------------------------------------------------
# evaluation


def eval_selector(chain: SelectorChain, x, eps_dom=None) -> EvalResult:
    """Evaluate the final approximant at x, denormalized to the range.

    Undefined outside the closed working box, then inside the final
    step's witness M(eps_dom), then wherever that step has no value.
    """
    reason, key = final_answer(chain, x, eps_dom)
    if reason is not None:
        return EvalResult(None, reason)
    return EvalResult(chain.final_values[key])


def final_answer(chain: SelectorChain, x, eps_dom=None) -> tuple[str | None, int | None]:
    """`eval_selector`'s decision at x: (reason, None) where it is
    undefined, else (None, the key of its value in `final_values`)."""
    if eps_dom is None:
        eps_dom = chain.dom_budget  # positive: extract and chain_from_json refuse others
    else:
        eps_dom = as_fraction(eps_dom)
        if eps_dom <= 0:
            raise InputError("witness budget must be positive")
    return chain.steps[-1].answer(_aspoint(x, chain.svf.domain_box.dim, as_exact), eps_dom)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class CauchyDefect:
    """Disagreement region between two chain levels."""

    k: int
    m: int
    threshold: Fraction
    region_measure: Fraction
    budget_bound: Fraction

    @property
    def within_budget(self) -> bool:
        return self.region_measure <= self.budget_bound


def cauchy_defect(chain: SelectorChain, k: int, m: int) -> CauchyDefect:
    """Measure where |f_k - f_m| >= 2**-(k-2), plus lost domain.

    The chain contract makes this region empty on the common domain;
    whatever remains (domain lost between the levels) must fit inside
    the two steps' witness budgets.  Decided per cell in ints on the
    level-m mesh: f_k's digits times 2**(m-k) against f_m's, their squared
    distance against the threshold's, 4**(m-k+3).  A cell where f_k has a
    value and f_m none counts whole.
    """
    if not (2 <= k < m <= chain.n):
        raise InputError("need 2 <= k < m <= n")
    thr = Fraction(1, 2 ** (k - 2))
    sk, sm = chain.steps[k - 2], chain.steps[m - 2]
    shape_k, shape_m = mesh_shape(k, chain.beta), mesh_shape(m, chain.beta)
    up, thr2 = 2 ** (m - k), 4 ** (m - k + 3)
    bad = Fraction(0)
    for i, (wk, wm) in enumerate(zip(sk.winner, sm.winner)):
        if wk < 0:
            continue
        if wm >= 0:
            dk, dm = unravel(wk, shape_k), unravel(wm, shape_m)
            if sum((a * up - b) ** 2 for a, b in zip(dk, dm)) < thr2:
                continue
        bad += chain.svf.cell_box(i).measure()
    budget = sk.certificate.witness_budget + sm.certificate.witness_budget
    return CauchyDefect(k, m, thr, bad, budget)


# ---------------------------------------------------------------------------
# weak-continuity finishing pass (1-D)


@dataclass(frozen=True)
class FinishReport:
    probes: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]
    exception: GeneralizedBasicSet
    sup_error_outside: float
    epsilon: float
    valid: bool


def piecewise_constant_finish(
    chain: SelectorChain, n_probes: int = 33, grid: int = 1000
) -> FinishReport:
    """Extend f_n from an ordered finite probe set by constancy (1-D).

    Validates that the step extension stays within 2**-(n-1) of F off
    an exception set of measure below the same bound.
    """
    from .svf import svf_distance

    box = chain.svf.domain_box
    if box.dim != 1:
        raise InputError("the finishing pass is one-dimensional")
    lo, hi = box.lo[0], box.hi[0]
    xs, vs = [], []
    for i in range(n_probes):
        x = lo + (hi - lo) * Fraction(i, n_probes - 1)
        res = eval_selector(chain, [x])
        if res.defined:
            xs.append(x)
            vs.append(res.value)
    eps = float(chain.steps[-1].certificate.step_gap) + chain.steps[-1].certificate.slack

    def fhat(x: Fraction):  # the value at the last probe at or below x, else the first
        return vs[max(bisect_right(xs, x) - 1, 0)]

    bad_pts = []
    sup_out = 0.0
    for i in range(grid + 1):
        x = lo + (hi - lo) * Fraction(i, grid)
        d = svf_distance(chain.svf, fhat(x), [x])
        if d >= eps:
            bad_pts.append(x)
        else:
            sup_out = max(sup_out, d)
    width = min(Fraction(1, 2) * as_fraction(eps) / max(len(bad_pts), 1), (hi - lo) / grid)
    exception = GeneralizedBasicSet.of(
        [BasicSet.interval(x - width, x + width) for x in bad_pts], dim=1
    )
    valid = float(exception.measure()) < eps
    return FinishReport(tuple(xs), tuple(vs), exception, sup_out, eps, valid)


# ---------------------------------------------------------------------------
# serialization


def chain_to_json(chain: SelectorChain) -> dict:
    """The chain as JSON: each step's level, certificate and `winner`.

    `winner` is one flat mesh index per cell of the SVF, in its cell
    order (a cellwise SVF's cells, a sampled SVF's grid cells row-major),
    with -1 where the step is undefined; the cells and mesh values follow
    from the `svf` block, the level and beta.
    """
    steps = [
        {k: rational_to_json(v) if isinstance(v, Fraction) else v for k, v in cert.items()}
        for cert in (asdict(step.certificate) for step in chain.steps)
    ]
    for out, step in zip(steps, chain.steps):
        out["winner"] = list(step.winner)
    if chain.engine == "exact":
        svf = cellwise_svf_to_json(chain.svf)
    else:
        svf = {
            "kind": "sampled",
            "tau": chain.svf.tau,
            "grid_shape": list(chain.svf.grid.shape),
            "domain": basic_set_to_json(chain.svf.grid.box),
            "range": {
                "lo": [rational_to_json(c) for c in chain.svf.range_map.lo],
                "hi": [rational_to_json(c) for c in chain.svf.range_map.hi],
            },
        }
    return {
        "n": chain.n,
        "engine": chain.engine,
        "dom_budget": rational_to_json(chain.dom_budget),
        "f1": [rational_to_json(c) for c in chain.f1_value],
        "final_error_bound": chain.final_error_bound,
        "steps": steps,
        "svf": svf,
    }


def chain_from_json(obj: dict) -> SelectorChain:
    """Rebuild a chain for evaluation purposes (exact engine only), each
    step's `winner` read per cell (`_winner_from_json`) and re-decided
    (`_check_cells`)."""
    svf_obj = obj.get("svf", {})
    if not isinstance(svf_obj, dict):
        raise InputError("chain field 'svf' must be an object")
    if svf_obj.get("kind") != "cellwise":
        raise InputError("only cellwise chains round-trip through JSON")
    svf = cellwise_svf_from_json(svf_obj)
    try:
        n = int_from_json(obj["n"], "n")
        dom_budget = rational_from_json(obj["dom_budget"])
        if dom_budget <= 0:
            raise InputError(f"chain field 'dom_budget' must be positive, not {dom_budget}")
        read = []
        for s in obj["steps"]:
            cert = {  # each field read as its annotated type
                f.name: int_from_json(s[f.name], f.name) if f.type == "int"
                else float(rational_from_json(s[f.name])) if f.type == "float"
                else rational_from_json(s[f.name])
                for f in fields(StepCertificate)
            }
            read.append((StepCertificate(**cert), s["winner"]))
        levels = [cert.level for cert, _ in read]
        if n < 2 or levels != list(range(2, n + 1)):
            raise InputError(
                f"chain field 'steps' must hold levels 2..n = {n} in order, not {levels}"
            )
        steps = tuple(
            Step(cert.level, _winner_from_json(svf, cert.level, winner), cert, svf)
            for cert, winner in read
        )
        for step in steps:
            _check_certificate(step, svf.domain_box, n, dom_budget)
        f1 = tuple(rational_from_json(c) for c in obj["f1"])
        if f1 != _f1_value(svf):
            raise InputError(
                f"chain field 'f1' must be the normalized zero {_fmt(_f1_value(svf))}, "
                f"not {_fmt(f1)}"
            )
        _check_cells(svf, steps)
        return SelectorChain(svf, n, dom_budget, f1, steps)
    except KeyError as e:
        raise InputError(f"chain is missing the field {e}") from e
    except TypeError as e:
        raise InputError(f"chain has a field of the wrong type: {e}") from e


def _check_certificate(step: Step, box: BasicSet, n: int, budget) -> None:
    """InputError naming a certificate field that extraction would not write;
    its piece count is the number of the step's distinct winners."""
    cert, k, n_pieces = step.certificate, step.level, len(set(step.winner) - {-1})
    want = StepCertificate.at_level(k, 0.0, budget / 2 ** (n - k + 1), n_pieces, box.measure())
    for f in fields(cert):
        got, expected = getattr(cert, f.name), getattr(want, f.name)
        if got != expected:
            raise InputError(
                f"chain step at level {k} certifies {f.name} = {got}, not {expected}"
            )


def _winner_from_json(svf: CellwiseSVF, k: int, winner) -> tuple[int, ...]:
    """A step's `winner` as extraction writes it: a list of one int per cell
    of the SVF, a level-k mesh index on each non-empty cell and -1 on each
    empty one; InputError naming the level and the cell otherwise."""
    if not isinstance(winner, list) or len(winner) != len(svf.cells):
        got = len(winner) if isinstance(winner, list) else f"the {type(winner).__name__} {winner!r}"
        raise InputError(
            f"chain step at level {k} must list a winner for each of the SVF's "
            f"{len(svf.cells)} cells, not {got}"
        )
    top = (2 ** (k + 1) + 1) ** svf.beta
    for ci, ((cell, _), w) in enumerate(zip(svf.cells, winner)):
        if type(w) is not int or not (w == -1 if cell.is_empty else 0 <= w < top):
            want = "-1, the cell being empty" if cell.is_empty else f"an index below {top}"
            raise InputError(
                f"chain step at level {k} gives cell {ci} the winner {w!r}, not {want}"
            )
    return tuple(winner)


def _check_cells(svf: CellwiseSVF, steps: Sequence[Step]) -> None:
    """InputError unless `_CellScale.admits` each cell's winner digits from
    its value one level down, the scales set up as extraction sets them up
    (`_cell_scales`); the error names the value's piece, its rank in
    mesh-index order.

    `_winner_from_json` has bounded every index, so the digits lie on the
    level's mesh, and every non-empty cell holds a winner at every level."""
    f_prev = None
    for step in steps:
        k, nodes = step.level, mesh_shape(step.level, svf.beta)
        for ci, w_prev, scale in _cell_scales(svf, k, f_prev):
            w = step.winner[ci]
            if not scale.admits(unravel(w, nodes)):
                was = _f1_value(svf) if f_prev is None else mesh_value(k - 1, w_prev, svf.beta)
                raise InputError(
                    f"chain step at level {k} gives piece {_piece_rank(step.winner, w)} the "
                    f"value {_fmt(mesh_value(k, w, svf.beta))} on cell {ci}, which is not a "
                    f"level-{k} mesh node within 2**-{k} of the cell's values and "
                    f"2**-{k - 1} of its level-{k - 1} value {_fmt(was)}"
                )
        f_prev = step


def _fmt(r: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(c) for c in r) + ")"


def selector_csv(chain: SelectorChain, points: Sequence[Sequence]) -> str:
    """CSV dump of (x, f_n(x)) rows for plotting."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    alpha = chain.svf.domain_box.dim
    w.writerow(
        [f"x{j + 1}" for j in range(alpha)]
        + [f"f{j + 1}" for j in range(chain.beta)]
        + ["status"]
    )
    for pt in points:
        res = eval_selector(chain, pt)
        values = [repr(float(c)) for c in res.value] if res.defined else [""] * chain.beta
        w.writerow([repr(float(as_fraction(c))) for c in pt] + values + [res.reason or "ok"])
    return buf.getvalue()
