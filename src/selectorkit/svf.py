"""Representable set-valued functions.

Two tiers share one contract (computable distance to values, sublevel
domains) and one witness M(eps) and point location, from the
`domain.PlaneSet` of their cell ends (a sampled SVF's grid planes):

* cellwise: a finite disjoint tiling of the working box, each cell
  carrying a generalized set of range values.  Distances and sublevel
  sets are exact rational arithmetic.
* sampled: a point oracle returning a finite net of F(x) per grid cell
  center, with a declared net radius tau.  Sublevel sets are decided at
  cell centers and all downstream certificates carry the tau slack.

Range values are normalized into [0,1]^beta through a stored affine
map, read in ints through its one integer form (`int_axes`); every
public operation takes and returns original-range coordinates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainPointError, InhabitednessError, InputError, PrecisionError
from .rational import as_fraction, int_from_json, rational_from_json, rational_to_json
from .setalg import (
    AxisKeys,
    BasicSet,
    GeneralizedBasicSet,
    SetSequence,
    _aspoint,
    basic_set_from_json,
    basic_set_to_json,
    dist2_point_set,
    first_meeting_pair,
    gbs_from_json,
    gbs_to_json,
)
from .domain import PlaneSet, RepresentableDomain, RepresentabilityWitness

INSIDE_WITNESS = "inside_witness"  # `locate`'s reasons where no cell answers
OUTSIDE_DOMAIN = "outside_domain"


# ---------------------------------------------------------------------------
# range normalization


@dataclass(frozen=True)
class AffineRangeMap:
    """Per-axis affine map from the original range box onto [0,1]^beta."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self):
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise InputError("range box must have positive width on every axis")

    @staticmethod
    def of(lo: Sequence, hi: Sequence) -> "AffineRangeMap":
        return AffineRangeMap(
            tuple(as_fraction(c) for c in lo), tuple(as_fraction(c) for c in hi)
        )

    @property
    def beta(self) -> int:
        return len(self.lo)

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def normalize(self, y: Sequence) -> tuple[Fraction, ...]:
        return tuple(
            (as_fraction(c) - l) / (h - l) for c, l, h in zip(y, self.lo, self.hi)
        )

    def denormalize(self, r: Sequence) -> tuple[Fraction, ...]:
        return tuple(
            l + as_fraction(c) * (h - l) for c, l, h in zip(r, self.lo, self.hi)
        )

    @cached_property
    def int_axes(self) -> tuple[tuple[int, int, int], ...]:
        """Per axis (a, b, s): lo = a / s and width = b / s in ints, s the lcm
        of their denominators; every integer reading of the map starts here."""
        axes = []
        for l, w in zip(self.lo, self.widths()):
            s = math.lcm(l.denominator, w.denominator)
            axes.append((l.numerator * (s // l.denominator), w.numerator * (s // w.denominator), s))
        return tuple(axes)

    def normalize_array(self, ys: np.ndarray) -> np.ndarray:
        """(ys - lo) / width in float64, lo and width rounded once each
        (int true division rounds correctly, as `float` of a `Fraction` does)."""
        lo = np.array([a / s for a, _, s in self.int_axes])
        w = np.array([b / s for _, b, s in self.int_axes])
        return (ys - lo) / w


def identity_range_map(beta: int) -> AffineRangeMap:
    return AffineRangeMap.of([0] * beta, [1] * beta)


RANGE_PAD = 2  # sampled range boxes reach twice the largest observed |value|


def symmetric_range_box(values: np.ndarray) -> AffineRangeMap:
    """Range box [-RANGE_PAD*G_i, RANGE_PAD*G_i] around 0 per axis.

    Symmetric and padded so that the normalized image of the real zero
    vector is the box center and every observed value stays within
    Euclidean distance 1/2 of it, which the extraction induction needs
    at its first step.
    """
    g = np.max(np.abs(values), axis=0)
    g = np.where(g == 0, 1.0, g)
    half = [as_fraction(float(c)) * RANGE_PAD for c in g]
    return AffineRangeMap.of([-c for c in half], list(half))


# ---------------------------------------------------------------------------
# point location of both tiers


class SVFBase:
    """What both SVF tiers share: dimensions, and M(eps) and `locate` from `plane_set`."""

    @property
    def alpha(self) -> int:
        return self.domain_box.dim

    @property
    def beta(self) -> int:
        return self.range_map.beta

    @cached_property
    def witness(self) -> RepresentabilityWitness:
        """The plane set's M(eps), which serves every union of the cells."""
        return RepresentabilityWitness(self.plane_set.witness)

    @cached_property
    def _owner(self) -> Sequence[int]:
        """Per block of the plane grid, row-major, the cell holding it: itself by default."""
        return range(math.prod(self.plane_set.shape))

    def locate(self, x, eps: Fraction) -> tuple[str | None, int | None]:
        """(reason, None) outside the closed box or inside M(eps), else (None, cell index).

        One integer placement per axis among the ends of M(eps)'s slabs
        decides all three.  Coordinates are exact rationals read through
        `as_integer_ratio`, floats included, so none becomes a `Fraction`.
        """
        key = eps.as_integer_ratio()  # a tuple of ints hashes faster than a Fraction
        located = self._located.get(key)
        if located is None:
            self.witness(eps)  # admits eps only when M(eps) fits its budget
            planes = self.plane_set
            located = self._located[key] = (planes.slab_keys(eps), planes.shape, self._owner)
        axes, shape, owner = located
        flat, in_slab = 0, False
        for c, axis, n in zip(x, axes, shape):
            placed = axis.place(c)
            if placed is None:
                return OUTSIDE_DOMAIN, None
            below, upto = placed
            if below == upto and below & 1:
                in_slab = True
            else:
                flat = flat * n + upto // 2 - 1
        return (INSIDE_WITNESS, None) if in_slab else (None, owner[flat])


# ---------------------------------------------------------------------------
# cellwise SVFs


@dataclass(frozen=True)
class CellwiseSVF(SVFBase):
    """Exact piecewise SVF: disjoint cells tiling the working box."""

    domain_box: BasicSet
    range_map: AffineRangeMap
    cells: tuple[tuple[BasicSet, GeneralizedBasicSet], ...]
    # per admitted eps, by its integer ratio: `locate`'s slab ends, block grid and owners
    _located: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    kind = "cellwise"
    tau = 0.0

    def cell_index_at(self, x) -> int | None:
        return self._cell_union.locate(x)

    @cached_property
    def _cell_union(self) -> GeneralizedBasicSet:
        return GeneralizedBasicSet(self.alpha, tuple(cell for cell, _ in self.cells))

    @cached_property
    def plane_set(self) -> PlaneSet:
        """The cells' planes, by the rule `make_witness` applies to any carrier."""
        return PlaneSet.of(self.domain_box, [c for c, _ in self.cells])

    @cached_property
    def _owner(self) -> list[int]:
        """A cell holds, on each axis, the blocks between the ranks of its ends,
        none where it is degenerate.  Size: the product of the axes' plane gaps."""
        shape, planes = self.plane_set.shape, self.plane_set.planes
        owner = [None] * math.prod(shape)
        for i, (cell, _) in enumerate(self.cells):
            if cell.is_empty:
                continue
            spans = [range(p.index(a), p.index(b)) if p else range(1)
                     for p, a, b in zip(planes, cell.lo, cell.hi)]
            for idx in itertools.product(*spans):
                owner[ravel(idx, shape)] = i
        return owner

    @cached_property
    def cell_domain(self) -> RepresentableDomain:
        """The cells as one domain over the box under `witness`: every exact step's domain."""
        seq = SetSequence.of(self._cell_union.parts, "rowmajor")
        return RepresentableDomain(seq, self.domain_box, self.witness, "closure")

    def cell_box(self, i: int) -> BasicSet:
        return self.cells[i][0]

    def value_set(self, x) -> GeneralizedBasicSet:
        i = self.cell_index_at(x)
        if i is None:
            raise DomainPointError(f"point {x!r} outside the working box")
        return self.cells[i][1]


def build_cellwise_svf(
    domain_box: BasicSet,
    cells: Sequence[tuple[BasicSet, GeneralizedBasicSet]],
    range_map: AffineRangeMap | None = None,
) -> CellwiseSVF:
    """Validate and assemble a cellwise SVF.

    Cells must tile the working box disjointly and every value set must
    be inhabited.  Value sets get their closure flags forced shut
    (representable values are closed sets).  An empty cell is stored as
    `BasicSet.empty`, the box its JSON form reads back as.
    """
    dim = domain_box.dim
    closed_cells = []
    for cell, values in cells:
        if values.is_empty:
            raise InhabitednessError(f"cell {cell!r} carries an empty value set")
        closed_vals = GeneralizedBasicSet.of(
            [p.closure() for p in values.parts], dim=values.dim
        )
        closed_cells.append((BasicSet.empty(dim) if cell.is_empty else cell, closed_vals))
    pair = first_meeting_pair([GeneralizedBasicSet(dim, (c,)) for c, _ in closed_cells])
    if pair is not None:
        raise InputError("cells {} and {} overlap".format(*pair))
    union = GeneralizedBasicSet.of([c for c, _ in closed_cells], dim=dim)
    box = GeneralizedBasicSet.of([domain_box], dim=dim)
    if not box.subtract(union).is_empty:
        raise InputError("cells do not cover the working box")
    if not union.subtract(box).is_empty:
        raise InputError("cells exceed the working box")
    if range_map is None:
        beta = closed_cells[0][1].dim
        lo = [min(p.lo[k] for _, v in closed_cells for p in v.parts) for k in range(beta)]
        hi = [max(p.hi[k] for _, v in closed_cells for p in v.parts) for k in range(beta)]
        if all(l >= 0 and h <= 1 for l, h in zip(lo, hi)):
            range_map = identity_range_map(beta)
        else:
            hi = [h if h > l else l + 1 for l, h in zip(lo, hi)]
            range_map = AffineRangeMap.of(lo, hi)
    return CellwiseSVF(domain_box, range_map, tuple(closed_cells))


# ---------------------------------------------------------------------------
# sampled SVFs


def unravel(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    """The row-major multi-index of `flat` in an array of the given shape.

    The scalar form of `np.unravel_index`, which costs more per call.
    """
    idx = []
    for n in reversed(shape):
        idx.append(flat % n)
        flat //= n
    idx.reverse()
    return tuple(idx)


def ravel(idx: Sequence[int], shape: Sequence[int]) -> int:
    """The row-major flat index of `idx` in an array of the given shape,
    the inverse of `unravel`."""
    flat = 0
    for i, n in zip(idx, shape):
        flat = flat * n + i
    return flat


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid over a closed box; cells are half-open tiles.

    The box has positive width and at least one cell on every axis.
    """

    box: BasicSet
    shape: tuple[int, ...]

    def __post_init__(self):
        if len(self.shape) != self.box.dim:
            raise InputError(
                f"grid shape {tuple(self.shape)} has {len(self.shape)} axes, "
                f"the box {self.box.dim}"
            )
        if any(n < 1 for n in self.shape):
            raise InputError(f"grid shape {tuple(self.shape)} has an axis without cells")
        if any(h <= l for l, h in zip(self.box.lo, self.box.hi)):
            raise InputError("grid box must have positive width on every axis")

    @property
    def dim(self) -> int:
        return self.box.dim

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> Fraction:
        return math.prod(self.widths(), start=Fraction(1))

    def widths(self) -> tuple[Fraction, ...]:
        return tuple(
            (self.box.hi[j] - self.box.lo[j]) / self.shape[j] for j in range(self.dim)
        )

    def center(self, idx: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple((p[i] + p[i + 1]) / 2 for p, i in zip(self.planes, idx))

    def centers_array(self) -> np.ndarray:
        """Every cell center in float64, row-major."""
        return self._float_lattice([np.arange(n) + 0.5 for n in self.shape])

    def corners_array(self) -> np.ndarray:
        """Every crossing of the grid planes in float64, row-major."""
        return self._float_lattice([np.arange(n + 1) for n in self.shape])

    def _float_lattice(self, steps: list[np.ndarray]) -> np.ndarray:
        axes = [
            float(lo) + float(w) * s for lo, w, s in zip(self.box.lo, self.widths(), steps)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @cached_property
    def planes(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per axis, the shape[j] + 1 cell boundaries from box.lo to box.hi."""
        w = self.widths()
        return tuple(
            tuple(self.box.lo[j] + w[j] * i for i in range(self.shape[j] + 1))
            for j in range(self.dim)
        )

    @cached_property
    def _plane_keys(self) -> tuple[AxisKeys, ...]:
        return tuple(AxisKeys.of(p, p[0], p[-1]) for p in self.planes)

    def cell_of_point(self, x) -> tuple[int, ...] | None:
        idx = []
        for c, axis, n in zip(_aspoint(x, self.dim), self._plane_keys, self.shape):
            placed = axis.place(c)
            if placed is None:
                return None
            # cells are [plane_i, plane_i+1); the top plane closes the last cell
            idx.append(min(placed[1], n) - 1)
        return tuple(idx)

    def flat(self, idx: tuple[int, ...]) -> int:
        return ravel(idx, self.shape)

    def unflat(self, flat: int) -> tuple[int, ...]:
        return unravel(flat, self.shape)

    def cell_box(self, idx: tuple[int, ...]) -> BasicSet:
        """The box of cell idx.

        Closed below; closed above only on the axis's last cell, so the
        boxes of distinct cells are disjoint.
        """
        return BasicSet(
            self.dim,
            tuple(planes[i] for planes, i in zip(self.planes, idx)),
            tuple(planes[i + 1] for planes, i in zip(self.planes, idx)),
            (True,) * self.dim,
            tuple(i == n - 1 for i, n in zip(idx, self.shape)),
        )


@dataclass(frozen=True, eq=False)
class SampledSVF(SVFBase):
    """Grid-sampled SVF: finite value nets at cell centers, slack tau.

    `mask`, when present, marks active cells; excluded cells (empty
    value nets, reported by the producer) stay outside the domain.  Two
    SVFs are equal when every field but `meta` is, the nets and the
    mask compared by value.
    """

    grid: GridSpec
    range_map: AffineRangeMap
    nets: tuple[np.ndarray, ...] = field(repr=False)  # raw range coords, (m_i, beta)
    tau: float  # normalized units
    meta: dict = field(default_factory=dict)
    mask: np.ndarray | None = field(default=None, repr=False)
    # per admitted eps, by its integer ratio: `locate`'s slab ends, block grid and owners
    _located: dict = field(default_factory=dict, init=False, repr=False)

    kind = "sampled"

    def __eq__(self, other):
        if not isinstance(other, SampledSVF):
            return NotImplemented
        return (self.grid, self.range_map, self.tau, len(self.nets)) == (
            other.grid, other.range_map, other.tau, len(other.nets)
        ) and all(map(np.array_equal, (self.mask, *self.nets), (other.mask, *other.nets)))

    def active(self, flat_idx: int) -> bool:
        return self.mask is None or bool(self.mask[flat_idx])

    @property
    def domain_box(self) -> BasicSet:
        return self.grid.box

    def cell_index_at(self, x) -> int | None:
        """The flat index of the grid cell holding x, or None outside the box."""
        idx = self.grid.cell_of_point(x)
        return None if idx is None else self.grid.flat(idx)

    @cached_property
    def plane_set(self) -> PlaneSet:
        return PlaneSet(self.grid.box, self.grid.planes)

    def cell_box(self, i: int) -> BasicSet:
        return self.grid.cell_box(self.grid.unflat(i))

    @cached_property
    def _normalized_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every net normalized in one call, stacked; each cell's first row and length."""
        lens = np.array([len(n) for n in self.nets])
        stack = np.concatenate([n.reshape(-1, self.beta) for n in self.nets])
        return self.range_map.normalize_array(stack), np.cumsum(lens) - lens, lens

    @cached_property
    def normalized_nets(self) -> list[np.ndarray]:
        stack, starts, lens = self._normalized_stack
        return [stack[s : s + m] for s, m in zip(starts, lens)]

    @cached_property
    def padded_nets(self) -> np.ndarray:
        """Normalized nets as one (cells, m_max, beta) array.

        Short nets are padded with their first point, which leaves every
        nearest-point distance unchanged.
        """
        stack, starts, lens = self._normalized_stack
        cols = np.arange(lens.max())
        return stack[starts[:, None] + np.where(cols < lens[:, None], cols, 0)]


def build_sampled_svf(
    grid: GridSpec,
    sampler: Callable[[np.ndarray], Sequence[np.ndarray]],
    tau: float | None = None,
    range_map: AffineRangeMap | None = None,
) -> SampledSVF:
    """Evaluate the sampler on all cell centers and assemble the SVF.

    The sampler maps an (N, alpha) array of centers to a length-N list
    of (m_i, beta) value nets.  Every net must be inhabited.  When tau
    is None it is `estimate_tau`: half the largest Hausdorff deviation,
    in normalized range units, between the nets of adjacent cells.
    """
    centers = grid.centers_array()
    nets = [np.asarray(n, dtype=float) for n in sampler(centers)]
    if len(nets) != len(centers):
        raise InputError("sampler returned the wrong number of nets")
    for i, n in enumerate(nets):
        if n.size == 0:
            raise InhabitednessError(f"empty net at cell {grid.unflat(i)}")
    if range_map is None:
        allv = np.concatenate([n.reshape(-1, nets[0].shape[-1]) for n in nets])
        range_map = symmetric_range_box(allv)
    svf = SampledSVF(grid, range_map, tuple(nets), 0.0)
    if tau is None:
        tau = estimate_tau(svf)
    return SampledSVF(grid, range_map, tuple(nets), float(tau))


def estimate_tau(svf: SampledSVF) -> float:
    """Grid-estimated slack: half the max adjacent-cell net deviation."""
    norm = svf.normalized_nets
    cells = np.arange(svf.grid.n_cells).reshape(svf.grid.shape)
    worst = 0.0
    for j in range(svf.grid.dim):
        # every cell paired with its neighbour one step up axis j
        for i, k in zip(np.delete(cells, -1, axis=j).flat, np.delete(cells, 0, axis=j).flat):
            a, b = norm[i], norm[k]
            worst = max(worst, directed_deviation(a, b), directed_deviation(b, a))
    return 0.5 * worst


def directed_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of a of the distance to the nearest point of b."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return float(d.min(axis=1).max())


RepresentableSVF = CellwiseSVF | SampledSVF


# ---------------------------------------------------------------------------
# distance


def svf_distance(F: RepresentableSVF, r: Sequence, x: Sequence) -> float:
    """Distance from range point r to F(x), in original range coordinates.

    Cellwise: exact box distance to the cell's value set.  Sampled: min
    over the cell's net, within tau (denormalized) of the true value.
    """
    i = F.cell_index_at(x)
    if i is None:
        raise DomainPointError(f"point {x!r} outside the working box")
    if F.kind == "cellwise":
        return float(np.sqrt(float(dist2_point_set([as_fraction(c) for c in r], F.cells[i][1]))))
    if not F.active(i):
        raise DomainPointError(f"point {x!r} lies in an excluded cell")
    rv = np.array([float(c) for c in _aspoint(r, F.beta)])
    return float(np.linalg.norm(F.nets[i] - rv, axis=-1).min())


# ---------------------------------------------------------------------------
# sublevel domains


@dataclass(frozen=True)
class SublevelFamily:
    """Sublevel sets C_i = {x : |r_i - F(x)| <= delta} as domains."""

    centers: tuple[tuple[Fraction, ...], ...]
    delta: Fraction
    slack: float
    domains: tuple[RepresentableDomain, ...]
    cell_indices: tuple[tuple[int, ...], ...]
    union_domain: RepresentableDomain

    def __len__(self) -> int:
        return len(self.centers)


def sublevel_domains(
    F: RepresentableSVF,
    centers: Sequence[Sequence],
    delta,
    strict: bool = False,
) -> SublevelFamily:
    """Build the sublevel family for finitely many range centers.

    Cellwise: each C_i is the exact union of accepted cells (closed
    comparison by default, strict when requested).  Sampled: cells are
    accepted when the net at their center passes the tau-inflated test,
    a conservative superset of the honest delta + tau level.  Every
    member and the union, an empty one included, is witnessed by the
    SVF's one M(eps), `F.witness`, which serves every union of its cells.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    centers = tuple(tuple(as_fraction(c) for c in r) for r in centers)
    if F.kind == "cellwise":
        slack, thr = 0.0, delta * delta
        distances = lambda r: [dist2_point_set(r, values) for _, values in F.cells]
    else:
        # tau lives in normalized units; bound its original-space size by the
        # widest range axis (conservative for anisotropic maps)
        slack = F.tau * float(max(F.range_map.widths()))
        if slack >= float(delta):
            raise PrecisionError(
                f"sampled slack {slack:.3g} cannot resolve delta={float(delta):.3g}"
            )
        thr = float(delta) + slack
        distances = lambda r: _net_distances(F, r)

    def domain(idxs) -> RepresentableDomain:
        items = [F.cell_box(i) for i in idxs] or [GeneralizedBasicSet.empty(F.alpha)]
        seq = SetSequence.of(items, "rowmajor")
        return RepresentableDomain(seq, F.domain_box, F.witness, coverage="closure")

    below = operator.lt if strict else operator.le
    accepted = tuple(
        tuple(i for i, d in enumerate(distances(r)) if below(d, thr)) for r in centers
    )
    union_idx = tuple(sorted({i for idxs in accepted for i in idxs}))
    domains = tuple(domain(idxs) for idxs in accepted)
    return SublevelFamily(centers, delta, slack, domains, accepted, domain(union_idx))


def _net_distances(F: SampledSVF, r) -> list[float]:
    """Per cell, the distance from r to the nearest net point; +inf if excluded."""
    rv = np.array([float(c) for c in r])
    return [
        float(np.linalg.norm(net - rv, axis=-1).min()) if F.active(i) else math.inf
        for i, net in enumerate(F.nets)
    ]


# ---------------------------------------------------------------------------
# Filippov regularization


def filippov_regularize(
    f1: Callable[[np.ndarray], np.ndarray],
    f2: Callable[[np.ndarray], np.ndarray],
    sigma: Callable[[np.ndarray], np.ndarray],
    hull_steps: int,
    domain_box: BasicSet,
    grid_shape: Sequence[int],
    range_map: AffineRangeMap | None = None,
) -> SampledSVF:
    """Sampled SVF of the two-field convex-hull regularization.

    Off the switching surface the net is the single active field value;
    on straddling cells it is the segment between the two fields
    sampled at hull_steps points, with tau = segment length /
    hull_steps (normalized after range mapping).
    """
    if hull_steps < 2:
        raise InputError("hull_steps must be at least 2")
    grid = GridSpec(domain_box, tuple(int(n) for n in grid_shape))
    centers = grid.centers_array()
    v1 = np.atleast_2d(np.asarray(f1(centers), dtype=float))
    v2 = np.atleast_2d(np.asarray(f2(centers), dtype=float))
    if v1.shape[0] != len(centers):
        v1 = v1.T
    if v2.shape[0] != len(centers):
        v2 = v2.T

    straddle = _straddle_mask(grid, sigma)
    sgn_center = np.asarray(sigma(centers), dtype=float).reshape(-1)

    alphas = np.linspace(0.0, 1.0, hull_steps)
    nets = []
    for i in range(len(centers)):
        if straddle[i] or sgn_center[i] == 0.0:
            seg = np.array([(1 - a) * v1[i] + a * v2[i] for a in alphas])
            nets.append(seg)
        elif sgn_center[i] > 0:
            nets.append(v1[i][None, :])
        else:
            nets.append(v2[i][None, :])
    if range_map is None:
        range_map = symmetric_range_box(np.concatenate(nets))
    seg_len = np.linalg.norm(range_map.normalize_array(v1) - range_map.normalize_array(v2), axis=-1)
    tau = float(seg_len.max() / hull_steps) if len(seg_len) else 0.0
    return SampledSVF(grid, range_map, tuple(nets), tau)


def _straddle_mask(grid: GridSpec, sigma) -> np.ndarray:
    """Cells whose corners disagree in sign are surface cells."""
    sgn = np.sign(np.asarray(sigma(grid.corners_array()), dtype=float)).reshape(
        [s + 1 for s in grid.shape]
    )
    # each cell's 2**dim corner signs, one corner offset per slice
    corner = np.stack([
        sgn[tuple(slice(o, o + n) for o, n in zip(offset, grid.shape))]
        for offset in itertools.product((0, 1), repeat=grid.dim)
    ])
    out = (corner.max(axis=0) != corner.min(axis=0)) | (corner == 0).any(axis=0)
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# serialization


def cellwise_svf_to_json(F: CellwiseSVF) -> dict:
    return {
        "kind": "cellwise",
        "domain": basic_set_to_json(F.domain_box),
        "dim": F.alpha,
        "range": {
            "lo": [rational_to_json(c) for c in F.range_map.lo],
            "hi": [rational_to_json(c) for c in F.range_map.hi],
        },
        "cells": [
            {"cell": basic_set_to_json(c), "values": gbs_to_json(v)}
            for c, v in F.cells
        ],
    }


def cellwise_svf_from_json(obj: dict) -> CellwiseSVF:
    if not isinstance(obj, dict):
        raise InputError("a cellwise SVF must be a JSON object")
    try:
        dim = int_from_json(obj.get("dim", 1), "dim")
        domain_box = basic_set_from_json(obj["domain"], dim)
        rng = obj["range"]
        range_map = AffineRangeMap.of(
            [rational_from_json(c) for c in rng["lo"]],
            [rational_from_json(c) for c in rng["hi"]],
        )
        cells = [
            (basic_set_from_json(c["cell"], dim), gbs_from_json(c["values"]))
            for c in obj["cells"]
        ]
    except KeyError as e:
        raise InputError(f"cellwise SVF is missing the field {e}") from e
    except TypeError as e:
        raise InputError(f"cellwise SVF has a field of the wrong type: {e}") from e
    return build_cellwise_svf(domain_box, cells, range_map)
