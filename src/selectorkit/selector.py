"""Constructive measurable-selector extraction to precision 2**-n.

The extractor builds piecewise-constant approximants f_2 .. f_n.  At
level k a regular mesh of pitch 2**-(k+1) is laid over the normalized
range; a point x keeps mesh value r when r is within 2**-k of F(x) and
within 2**-(k-1) of the previous approximant, and ties go to the
lowest mesh index via the countable reduction in row-major order.

Only mesh points within four pitches of the previous value can pass,
so both engines enumerate the same lattice ball around it
(`_ball_offsets`) in lexicographic order, which keeps the tie-break,
and differ only in the distance test.  The exact engine handles
cellwise SVFs, which it never splits, and decides both tests exactly on
one integer scale per cell and level (`_CellScale`): the previous value
and the ends of the cell's value-set parts are encoded as ints once,
and each candidate is its digit vector.  The grid engine handles sampled
SVFs on their cell grid, vectorized in float64, with declared slack
tau folded into every certificate (acceptance threshold
2**-k + 2*tau, certified error 2**-k + 3*tau).

The initial approximant is the real-space zero vector expressed in
normalized coordinates.  Its feasibility at the first constructed
level (every value set must come within 1/2 of it) is not guaranteed
by the construction and is checked at runtime; failures abort with the
uncovered region.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .domain import PiecewiseConstantMap, RepresentabilityWitness
from .errors import CoverageError, InputError, PrecisionError
from .rational import as_fraction, int_from_json, rational_from_json, rational_to_json
from .setalg import (
    BasicSet,
    _aspoint,
    GeneralizedBasicSet,
    Point,
    basic_set_to_json,
    gbs_from_json,
    gbs_to_json,
    union_with_owners,
)
from .svf import (
    CellwiseSVF,
    GridSpec,
    RepresentableSVF,
    SampledSVF,
    cellwise_svf_from_json,
    cellwise_svf_to_json,
    grid_witness,
    unravel,
)


# ---------------------------------------------------------------------------
# mesh


def mesh_pitch(k: int) -> Fraction:
    return Fraction(1, 2 ** (k + 1))


def mesh_shape(level: int, beta: int) -> tuple[int, ...]:
    """Nodes per axis of the level's mesh over [0, 1]**beta."""
    return (2 ** (level + 1) + 1,) * beta


def mesh_value(level: int, flat: int, beta: int) -> tuple[Fraction, ...]:
    """The level's mesh node with row-major flat index `flat`."""
    pitch = mesh_pitch(level)
    return tuple(pitch * d for d in unravel(flat, mesh_shape(level, beta)))


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
class ExactStep(PiecewiseConstantMap):
    """Approximant f_k on a cellwise SVF: its cells grouped by mesh value.

    The pieces' parts are the SVF's non-empty cells, each once, so the
    step's domain is the SVF's `cell_domain`, whose witness is M(eps).
    """

    level: int
    certificate: StepCertificate
    # per admitted eps, by its integer ratio: M(eps) in the closed box, then the pieces
    _unions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def witness(self) -> RepresentabilityWitness:
        return self.domain.witness

    @cached_property
    def by_cell(self) -> dict[BasicSet, tuple[int, tuple[Fraction, ...]]]:
        """Each cell's piece index and value."""
        return {p: (i, r) for i, (q, r) in enumerate(self.pieces) for p in q.parts}

    def answer(self, x: Point, eps: Fraction) -> tuple[str | None, int | None]:
        """(reason, None) where f_k is undefined at x, else (None, piece index).

        The first part that holds x decides: a part of M(eps) in the closed
        box, a piece's part, or none (outside the domain).
        """
        key = eps.as_integer_ratio()  # a tuple of ints hashes faster than a Fraction
        if key not in self._unions:
            m = self.witness(eps).intersect(self.domain.ambient.closure())
            self._unions[key] = union_with_owners([m, *(q for q, _ in self.pieces)])
        union, owner = self._unions[key]
        k = union.locate(x)
        if k is None:
            return EvalResult.OUTSIDE_DOMAIN, None
        return (EvalResult.INSIDE_WITNESS, None) if owner[k] == 0 else (None, owner[k] - 1)

    def keyed_values(self) -> dict[int, tuple[Fraction, ...]]:
        """Each piece's value under the key `answer` returns for it."""
        return {i: r for i, (_, r) in enumerate(self.pieces)}


@dataclass(frozen=True, eq=False)
class GridStep:
    """Approximant on the sampled SVF's cell grid.

    winner[i] is the flat mesh index of the value on grid cell i, or -1
    where the approximant is undefined.  Every union of grid cells has
    its endpoints on the grid planes, so the grid-plane witness serves
    each step.  Steps are equal when their fields other than the witness
    are, `winner` compared by value.
    """

    level: int
    winner: np.ndarray = field(repr=False)
    grid: GridSpec
    beta: int
    witness: RepresentabilityWitness = field(repr=False)
    certificate: StepCertificate
    # per admitted eps, by its integer ratio: the slab ends of M(eps) per axis
    _slab_keys: dict = field(default_factory=dict, init=False, repr=False)

    def __eq__(self, other):
        if not isinstance(other, GridStep):
            return NotImplemented
        return (self.level, self.grid, self.beta, self.certificate) == (
            other.level, other.grid, other.beta, other.certificate
        ) and np.array_equal(self.winner, other.winner)

    def value_at(self, x) -> tuple[Fraction, ...] | None:
        idx = self.grid.cell_of_point(x)
        if idx is None:
            return None
        w = int(self.winner[self.grid.flat(idx)])
        return None if w < 0 else mesh_value(self.level, w, self.beta)

    @cached_property
    def _winners(self) -> list[int]:
        return self.winner.tolist()

    def answer(self, x: Point, eps: Fraction) -> tuple[str | None, int | None]:
        """(reason, None) where f_k is undefined at x, else (None, mesh index).

        One integer placement per axis among the ends of M(eps)'s slabs
        decides all three questions: outside the closed box, inside
        M(eps), and which cell, whose winner may be -1 (undefined).
        """
        key = eps.as_integer_ratio()  # a tuple of ints hashes faster than a Fraction
        axes = self._slab_keys.get(key)
        if axes is None:
            self.witness(eps)  # admits eps only when M(eps) fits its budget
            axes = self._slab_keys[key] = self.grid.slab_keys(eps)
        flat, in_slab = 0, False
        for c, axis, n_cells in zip(x, axes, self.grid.shape):
            placed = axis.place(c)
            if placed is None:
                return EvalResult.OUTSIDE_DOMAIN, None
            below, upto = placed
            if below == upto and below & 1:
                in_slab = True
            else:
                flat = flat * n_cells + upto // 2 - 1
        if in_slab:
            return EvalResult.INSIDE_WITNESS, None
        w = self._winners[flat]
        return (EvalResult.OUTSIDE_DOMAIN, None) if w < 0 else (None, w)

    def keyed_values(self) -> dict[int, tuple[Fraction, ...]]:
        """Each winning mesh node under the key `answer` returns for it."""
        return {
            w: mesh_value(self.level, w, self.beta)
            for w in np.unique(self.winner).tolist()
            if w >= 0
        }


@dataclass(frozen=True)
class SelectorChain:
    """The extracted sequence f_1..f_n with per-step certificates."""

    svf: RepresentableSVF
    n: int
    dom_budget: Fraction
    f1_value: tuple[Fraction, ...]
    steps: tuple  # ExactStep | GridStep, levels 2..n

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
        return self.steps[-1].witness(eps)

    @cached_property
    def final_values(self) -> dict[int, tuple[Fraction, ...]]:
        """The final step's values denormalized to the range, all computed at once.

        Each axis's low end and width are taken once for every value;
        the result equals `range_map.denormalize` of each value.
        """
        rmap = self.svf.range_map
        axes = tuple(zip(rmap.lo, rmap.widths()))
        return {
            key: tuple(l + c * w for c, (l, w) in zip(r, axes))
            for key, r in self.steps[-1].keyed_values().items()
        }


@dataclass(frozen=True)
class EvalResult:
    """Selector evaluation: a range value or a typed Undefined."""

    value: tuple[Fraction, ...] | None
    reason: str | None = None  # "inside_witness" | "outside_domain"

    INSIDE_WITNESS = "inside_witness"
    OUTSIDE_DOMAIN = "outside_domain"

    @property
    def defined(self) -> bool:
        return self.value is not None

    def as_floats(self) -> tuple[float, ...] | None:
        return None if self.value is None else tuple(float(c) for c in self.value)


# ---------------------------------------------------------------------------
# extraction entry point


def extract(
    F: RepresentableSVF, n: int, dom_budget=Fraction(1, 16)
) -> SelectorChain:
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


def _ball_offsets(beta: int) -> list[tuple[int, ...]]:
    """Mesh-digit offsets that can hold an admissible value, lexicographic.

    An admissible value at level k lies within gap 2**-(k-1), four
    pitches, of the previous value, which sits at most half a pitch per
    axis from its nearest node.  So every admissible node is that node
    plus an offset o in [-4, 4]**beta with sum max(|o_j| - 1/2, 0)**2
    < 16.  Walking the offsets in lexicographic order around a fixed
    node follows the row-major mesh order, so the first admissible
    candidate is the lowest mesh index, which is the tie-break.

    The nearest node is taken half to even where the previous value sits
    midway between two nodes.  The winner does not depend on that choice:
    the value is half a pitch from either node, so the ball around either
    one holds every admissible node, and both walks meet the lowest first.
    """
    return [
        o
        for o in itertools.product(range(-4, 5), repeat=beta)
        if sum(max(2 * abs(c) - 1, 0) ** 2 for c in o) < 64
    ]


# ---------------------------------------------------------------------------
# exact engine


def extraction_step(
    f_prev: ExactStep | None, F: CellwiseSVF, k: int, budget=None
) -> ExactStep:
    """Exact-engine step k from the previous approximant.

    `f_prev` is the step at level k - 1, or None to start from the
    constant f_1.  `budget` is the step's witness budget, 2**-(k+2)
    unless given.  A cell of F that no piece of `f_prev` holds is an InputError.
    """
    if k < 2:
        raise InputError("extraction level must be at least 2")
    budget = as_fraction(budget) if budget is not None else Fraction(1, 2 ** (k + 2))
    f1 = _f1_value(F)
    prev = {cell: (0, f1) for cell, _ in F.cells} if f_prev is None else f_prev.by_cell
    top = 2 ** (k + 1)  # largest mesh digit
    offsets = _ball_offsets(F.beta)

    # winner per cell: the digits of the first ball candidate admissible
    # from its previous value
    winners: dict[tuple[int, ...], list[BasicSet]] = {}
    for ci, (cell, _) in enumerate(F.cells):
        if cell.is_empty:
            continue
        if cell not in prev:
            raise InputError(f"the level-{k - 1} step holds no piece for cell {ci} of the SVF")
        pi, v = prev[cell]
        scale = _CellScale(v, F.normalized_values(ci), k)
        base = scale.nearest_node()
        for off in offsets:
            digits = tuple(b + o for b, o in zip(base, off))
            if all(0 <= d <= top for d in digits) and scale.admits(digits):
                break
        else:
            raise CoverageError(
                f"no mesh point at level {k} serves cell {ci} from piece {pi}; "
                "the value set lies outside the previous approximant's reach",
                region=GeneralizedBasicSet(F.alpha, (cell,)),
            )
        winners.setdefault(digits, []).append(cell)

    # digit tuples sort in mesh-index order; the cells tile the box
    pieces = tuple(
        (GeneralizedBasicSet(F.alpha, tuple(winners[d])), tuple(Fraction(c, top) for c in d))
        for d in sorted(winners)
    )
    cert = StepCertificate.at_level(k, 0.0, budget, len(pieces), F.domain_box.measure())
    return ExactStep(pieces, F.cell_domain, k, cert)


def admissible(r: Sequence[Fraction], prev: Sequence[Fraction], vals, k: int) -> bool:
    """Whether r may be f_k's value on a cell with normalized value set `vals`
    where f_{k-1} is `prev`.

    r must be a level-k mesh node in [0, 1]**beta and lie within
    2**-(k-1) of prev and within 2**-k of vals, both strictly.  r is
    turned into its mesh digits and both distances are decided on the
    cell's integer scale (`_CellScale`), the one the exact engine walks.
    Any other r, one of another length included, is refused.
    """
    if len(r) != len(prev):
        return False
    top, digits = 2 ** (k + 1), []
    for c in r:
        num, den = c.as_integer_ratio()
        if top % den or not 0 <= num <= den:
            return False
        digits.append(num * (top // den))
    return _CellScale(prev, vals, k).admits(digits)


class _CellScale:
    """Admissibility at level k on one cell, decided in ints.

    L is the lcm of 2**(k+1), the denominators of the previous value p
    and those of the ends of the value set's parts.  p and each part's
    lo and hi are encoded once as ints on L.  A candidate is its digit
    vector d, the mesh node d / 2**(k+1), which sits at d * m on L with
    m = L >> (k+1).  The gap test 4**(k-1) * sum (d_j m - p_j)**2 < L**2
    and the value test 4**k * sum clamp_j**2 < L**2 for some part, clamp
    being the distance below lo or above hi, compare against
    L**2 >> 2(k-1) and L**2 >> 2k, exact since 4**(k+1) divides L**2.  Like
    `BasicSet.dist2_point`, the value test measures to each part's
    closure, so closure flags do not enter.
    """

    __slots__ = ("step", "prev", "boxes", "gap2", "err2")

    def __init__(self, prev: Sequence[Fraction], vals: GeneralizedBasicSet, k: int):
        ratios = [c.as_integer_ratio() for c in prev]
        ends = [
            [(lo.as_integer_ratio(), hi.as_integer_ratio()) for lo, hi in zip(p.lo, p.hi)]
            for p in vals.parts
        ]
        dens = [d for _, d in ratios] + [d for box in ends for end in box for _, d in end]
        scale = math.lcm(2 ** (k + 1), *dens)

        def on_scale(ratio: tuple[int, int]) -> int:
            return ratio[0] * (scale // ratio[1])

        self.step = scale >> (k + 1)  # m, one mesh pitch on the scale
        self.prev = [on_scale(c) for c in ratios]
        self.boxes = [[(on_scale(lo), on_scale(hi)) for lo, hi in box] for box in ends]
        self.gap2 = (scale * scale) >> (2 * (k - 1))
        self.err2 = (scale * scale) >> (2 * k)

    def nearest_node(self) -> list[int]:
        """The digits of the mesh node nearest the previous value, ties to even."""
        base = []
        for p in self.prev:
            q, rem = divmod(p, self.step)
            base.append(q + (2 * rem > self.step or (2 * rem == self.step and q & 1)))
        return base

    def admits(self, digits: Sequence[int]) -> bool:
        """Whether the level-k node with these mesh digits passes both tests."""
        xs = [d * self.step for d in digits]
        if sum((x - p) * (x - p) for x, p in zip(xs, self.prev)) >= self.gap2:
            return False
        for box in self.boxes:
            acc = 0
            for x, (lo, hi) in zip(xs, box):
                if x < lo:
                    acc += (lo - x) * (lo - x)
                elif x > hi:
                    acc += (x - hi) * (x - hi)
            if acc < self.err2:
                return True
        return False


# ---------------------------------------------------------------------------
# grid engine


_OFFSET_BLOCK = 32  # ball candidates tested per pass
# per chunk of cells: a pass's candidates x net points, plus the int16
# index of the ball offsets each cell keeps
_GRID_TEMP_ELEMS = 8_000_000
_SLAB_GUARD = 1e-9  # relative margin of the first-digit slab bound


def _grid_step(prev_step: GridStep | None, F: SampledSVF, k: int, budget) -> GridStep:
    beta = F.beta
    pitch = 2.0 ** -(k + 1)
    nodes = mesh_shape(k, beta)
    eps_accept = 2.0**-k + 2.0 * F.tau
    gap = 2.0 ** -(k - 1)
    n_cells = F.grid.n_cells

    if prev_step is not None:
        prev_vals = _winner_coords(prev_step)
        prev_ok = prev_step.winner >= 0
    else:
        prev_vals = np.tile(np.array([float(c) for c in _f1_value(F)]), (n_cells, 1))
        prev_ok = np.ones(n_cells, dtype=bool)
    if F.mask is not None:
        prev_ok = prev_ok & F.mask

    offsets = np.array(_ball_offsets(beta))
    # the ball's distinct first-digit offsets, each offset's index among
    # them, and how many offsets share each
    first_offsets, first_of, n_first = np.unique(
        offsets[:, 0], return_inverse=True, return_counts=True
    )
    winner = np.full(n_cells, -1, dtype=np.int64)
    accept2 = eps_accept * eps_accept
    gap2 = gap * gap
    padded_all = F.padded_nets
    nn_all = (padded_all**2).sum(axis=2)  # (cells, m)
    m_max = padded_all.shape[1]

    # First-digit slab bound: a candidate with first digit d0 lies at least
    # |d0*pitch - n_0| from net point n, so no d0 with slab2 >= accept2
    # holds an admissible candidate.  Pruning must keep every candidate
    # that the float test below admits.  That test computes d_net2 as
    # |c|^2 + |n|^2 - 2 c.n, with rounding error below
    # (beta + 2) * 2**-53 * (|c| + |n|)^2, under 1e-14 for coordinates in
    # [0, 1]; slab2 is off by a few ulps of itself.  Both lie far below
    # 1e-9 of accept2 >= 4**-k at every level k <= 8, and `rounding2`
    # keeps the bound safe at deeper levels.
    rounding2 = (beta + 3) * 2.0**-52 * (np.sqrt(beta) + np.sqrt(nn_all.max())) ** 2
    prune2 = accept2 * (1 + _SLAB_GUARD) + rounding2

    # walk each cell's kept offsets in lexicographic blocks and retire the
    # cell at its first hit, which is its lowest-index admissible candidate
    active = np.nonzero(prev_ok)[0]
    chunk = max(1, _GRID_TEMP_ELEMS // (_OFFSET_BLOCK * m_max + len(offsets)))
    for lo in range(0, len(active), chunk):
        cells = active[lo : lo + chunk]
        nets_chunk = padded_all[cells]
        prev_chunk = prev_vals[cells]  # (b, beta)
        base = np.rint(prev_chunk / pitch).astype(np.int64)
        nn_chunk = nn_all[cells]  # (b, m)
        d0 = base[:, :1] + first_offsets  # (b, 9) first digits
        slab2 = ((d0[:, :, None] * pitch - nets_chunk[:, None, :, 0]) ** 2).min(axis=2)
        keep = (slab2 < prune2) & (d0 >= 0) & (d0 < nodes[0])  # (b, 9)
        n_keep = (keep * n_first).sum(axis=1)
        # each row's kept offsets first, in ball order
        order = np.argsort(~keep[:, first_of], axis=1, kind="stable").astype(np.int16)
        todo = np.arange(len(cells))  # chunk rows still without a winner
        for p_lo in range(0, len(offsets), _OFFSET_BLOCK):
            todo = todo[n_keep[todo] > p_lo]  # rows with kept offsets left
            if not len(todo):
                break
            prev, nets_pad = prev_chunk[todo], nets_chunk[todo]
            idx = order[todo, p_lo : p_lo + _OFFSET_BLOCK]
            kept = p_lo + np.arange(idx.shape[1]) < n_keep[todo, None]
            digits = base[todo, None, :] + offsets[idx]
            valid = kept & ((digits >= 0) & (digits < nodes)).all(axis=2)
            coords = digits * pitch
            d_prev2 = ((coords - prev[:, None, :]) ** 2).sum(axis=2)
            # |c - n|^2 = |c|^2 + |n|^2 - 2 c.n via batched matmul, avoiding
            # the (b, C, m, beta) broadcast temporary; 2 c.n is formed in place
            cc = (coords**2).sum(axis=2)  # (b, C)
            cross2 = coords @ nets_pad.transpose(0, 2, 1)  # (b, C, m)
            cross2 *= 2.0
            d_net2 = (cc[:, :, None] + nn_chunk[todo][:, None, :] - cross2).min(axis=2)
            ok = valid & (d_prev2 < gap2) & (d_net2 < accept2)
            hit = ok.any(axis=1)
            first = np.argmax(ok[hit], axis=1)
            winner[cells[todo[hit]]] = np.ravel_multi_index(digits[hit, first].T, nodes)
            todo = todo[~hit]
        uncovered = np.flatnonzero(winner[cells] < 0)
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
    return GridStep(
        level=k,
        winner=winner,
        grid=F.grid,
        beta=beta,
        witness=grid_witness(F.grid),
        certificate=cert,
    )


def _winner_coords(step: GridStep) -> np.ndarray:
    """Each cell's winning mesh node as float coordinates; NaN where undefined."""
    w = step.winner
    digits = np.unravel_index(np.maximum(w, 0), mesh_shape(step.level, step.beta))
    coords = np.stack(digits, axis=-1) * 2.0 ** -(step.level + 1)
    coords[w < 0] = np.nan
    return coords


# ---------------------------------------------------------------------------
# evaluation


def eval_selector(chain: SelectorChain, x, eps_dom=None) -> EvalResult:
    """Evaluate the final approximant at x, denormalized to the range.

    Undefined outside the closed working box, then inside the final
    step's witness M(eps_dom), then wherever that step has no value.
    """
    if eps_dom is None:
        eps_dom = chain.dom_budget  # positive: extract and chain_from_json refuse others
    else:
        eps_dom = as_fraction(eps_dom)
        if eps_dom <= 0:
            raise InputError("witness budget must be positive")
    x = _aspoint(x, chain.svf.domain_box.dim)
    reason, key = chain.steps[-1].answer(x, eps_dom)
    if reason is not None:
        return EvalResult(None, reason)
    return EvalResult(chain.final_values[key])


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
    the two steps' witness budgets.
    """
    if not (2 <= k < m <= chain.n):
        raise InputError("need 2 <= k < m <= n")
    thr = Fraction(1, 2 ** (k - 2))
    thr2 = thr * thr
    sk = chain.steps[k - 2]
    sm = chain.steps[m - 2]
    bad = Fraction(0)
    if chain.engine == "exact":
        later = sm.by_cell  # a cell that level m lost counts whole
        for cell, (_, vk) in sk.by_cell.items():
            if cell not in later or sum((a - b) ** 2 for a, b in zip(vk, later[cell][1])) >= thr2:
                bad += cell.measure()
    else:
        ck = _winner_coords(sk)
        cm = _winner_coords(sm)
        both = (sk.winner >= 0) & (sm.winner >= 0)
        d2 = ((ck - cm) ** 2).sum(axis=1)
        viol = both & (d2 >= float(thr2))
        lostmask = (sk.winner >= 0) & (sm.winner < 0)
        bad = chain.svf.grid.cell_volume * int((viol | lostmask).sum())
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

    def fhat(x: Fraction):
        k = 0
        while k + 1 < len(xs) and xs[k + 1] <= x:
            k += 1
        return vs[k]

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
    return FinishReport(
        tuple(xs), tuple(vs), exception, sup_out, eps, valid
    )


# ---------------------------------------------------------------------------
# serialization


def chain_to_json(chain: SelectorChain) -> dict:
    """The chain as JSON: each step's level and certificate, then its values.

    An exact step writes its pieces, each a set and its mesh value.  A
    grid step writes `winner`, one flat mesh index per grid cell in
    row-major order, with -1 where the step is undefined; the cells and
    mesh values follow from the `svf` block's grid, the level and beta.
    """
    steps = []
    for step in chain.steps:
        cert = step.certificate
        steps.append(
            {
                "level": step.level,
                "mesh_pitch": rational_to_json(cert.mesh_pitch),
                "error_bound": rational_to_json(cert.error_bound),
                "slack": cert.slack,
                "step_gap": rational_to_json(cert.step_gap),
                "witness_budget": rational_to_json(cert.witness_budget),
                "n_pieces": cert.n_pieces,
                "dom_measure": rational_to_json(cert.dom_measure),
            }
        )
    if chain.engine == "exact":
        for out, step in zip(steps, chain.steps):
            out["pieces"] = [
                {"set": gbs_to_json(q), "value": [rational_to_json(c) for c in r]}
                for q, r in step.pieces
            ]
        svf = cellwise_svf_to_json(chain.svf)
    else:
        for out, step in zip(steps, chain.steps):
            out["winner"] = step.winner.tolist()
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
    """Rebuild a chain for evaluation purposes (exact engine only)."""
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
        steps = []
        for s in obj["steps"]:
            pieces = tuple(
                (
                    gbs_from_json(p["set"]),
                    tuple(rational_from_json(c) for c in p["value"]),
                )
                for p in s["pieces"]
            )
            cert = StepCertificate(
                level=int_from_json(s["level"], "level"),
                mesh_pitch=rational_from_json(s["mesh_pitch"]),
                error_bound=rational_from_json(s["error_bound"]),
                slack=float(rational_from_json(s["slack"])),
                step_gap=rational_from_json(s["step_gap"]),
                witness_budget=rational_from_json(s["witness_budget"]),
                n_pieces=int_from_json(s["n_pieces"], "n_pieces"),
                dom_measure=rational_from_json(s["dom_measure"]),
            )
            steps.append(ExactStep(pieces, svf.cell_domain, cert.level, cert))
        levels = [step.level for step in steps]
        if n < 2 or levels != list(range(2, n + 1)):
            raise InputError(
                f"chain field 'steps' must hold levels 2..n = {n} in order, not {levels}"
            )
        for step in steps:
            _check_certificate(step, n, dom_budget)
        f1 = tuple(rational_from_json(c) for c in obj["f1"])
        if f1 != _f1_value(svf):
            raise InputError(
                f"chain field 'f1' must be the normalized zero {_fmt(_f1_value(svf))}, "
                f"not {_fmt(f1)}"
            )
        _check_cells(svf, f1, steps)
        return SelectorChain(svf, n, dom_budget, f1, tuple(steps))
    except KeyError as e:
        raise InputError(f"chain is missing the field {e}") from e
    except TypeError as e:
        raise InputError(f"chain has a field of the wrong type: {e}") from e


def _check_certificate(step: ExactStep, n: int, dom_budget: Fraction) -> None:
    """InputError naming a certificate field that extraction would not write."""
    k, cert = step.level, step.certificate
    want = StepCertificate.at_level(
        k, 0.0, dom_budget / 2 ** (n - k + 1), len(step.pieces),
        step.domain.ambient.measure(),
    )
    for f in fields(cert):
        got, expected = getattr(cert, f.name), getattr(want, f.name)
        if got != expected:
            raise InputError(
                f"chain step at level {k} certifies {f.name} = {got}, not {expected}"
            )


def _check_cells(svf: CellwiseSVF, f1: tuple[Fraction, ...], steps) -> None:
    """InputError unless each step's parts are the SVF's non-empty cells, each once,
    and `admissible` accepts each cell's value from its value one level down."""
    cells = {cell: ci for ci, (cell, _) in enumerate(svf.cells) if not cell.is_empty}
    prev = dict.fromkeys(cells, f1)
    for step in steps:
        k, held = step.level, [cells.get(p) for q, _ in step.pieces for p in q.parts]
        if None in held or sorted(held) != list(cells.values()):
            raise InputError(
                f"chain step at level {k} must hold each of the SVF's {len(cells)} non-empty "
                f"cells once as a part of a piece, not the cells {held}"
            )
        for cell, (i, r) in step.by_cell.items():
            if not admissible(r, prev[cell], svf.normalized_values(cells[cell]), k):
                raise InputError(
                    f"chain step at level {k} gives piece {i} the value {_fmt(r)} on "
                    f"cell {cells[cell]}, which is not a level-{k} mesh node within 2**-{k} "
                    f"of the cell's values and 2**-{k - 1} of its level-{k - 1} value "
                    f"{_fmt(prev[cell])}"
                )
        prev = {cell: r for cell, (_, r) in step.by_cell.items()}


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
        if res.defined:
            w.writerow(
                [repr(float(as_fraction(c))) for c in pt]
                + [repr(float(c)) for c in res.value]
                + ["ok"]
            )
        else:
            w.writerow(
                [repr(float(as_fraction(c))) for c in pt]
                + [""] * chain.beta
                + [res.reason]
            )
    return buf.getvalue()
