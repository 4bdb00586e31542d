"""Representable domains: constructive witnesses and measurability machinery.

A representable domain is a set sequence X in a compact ambient box
that, for every eps > 0, produces a generalized set M(eps) of measure
at most eps covering the endpoint set of X with a strictly positive
margin, such that the ambient minus M sits inside X.  All three
clauses are decidable here because the set algebra is exact.

Piecewise-constant maps on such domains extend to continuous functions
off an exception set of measure eps: ramps across witness gaps in 1-D,
multilinear blending over adjacent pieces in higher dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .errors import AdjacencyError, InputError, WitnessError
from .rational import as_fraction
from .setalg import (
    BasicSet,
    GeneralizedBasicSet,
    SetAlgebraError,
    SetSequence,
    basic_set_from_json,
    basic_set_to_json,
    countable_reduction,
    dist_point_set,
    first_meeting_pair,
    sequence_from_json,
    sequence_to_json,
    union_with_owners,
)


# ---------------------------------------------------------------------------
# witness construction


def _face_groups(faces: Sequence[BasicSet]) -> list[tuple[int, Fraction, BasicSet]]:
    """Merge faces into maximal coplanar slab extents.

    Faces are grouped by (first degenerate axis, pinned value); each
    group is summarized by the bounding box of its members.  Covering
    the bounding extent instead of each face separately keeps slab
    boundaries away from transversal endpoint segments.
    """
    groups: dict[tuple[int, Fraction], list[BasicSet]] = {}
    for f in faces:
        pin = next(j for j in range(f.dim) if f.axis_degenerate(j))
        groups.setdefault((pin, f.lo[pin]), []).append(f)
    out = []
    for (pin, value), members in sorted(
        groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        dim = members[0].dim
        lo = [min(m.lo[j] for m in members) for j in range(dim)]
        hi = [max(m.hi[j] for m in members) for j in range(dim)]
        out.append((pin, value, BasicSet.closed_box(lo, hi)))
    return out


def _budgets(eps: Fraction, n: int) -> list[Fraction]:
    """Geometric budgets eps/2, eps/4, ..., one per slab, summing below eps."""
    return [eps * Fraction(1, 2 ** (i + 1)) for i in range(n)]


def slab_margin(budget: Fraction, extent: BasicSet, pin: int, cap: Fraction) -> Fraction:
    """Half-width h <= cap, 1/2 of a slab around x[pin] over extent, whose volume at
    most 2h * prod over the other axes of (width + 1) fits the budget."""
    other = Fraction(1)
    for j in range(extent.dim):
        if j != pin:
            other *= (extent.hi[j] - extent.lo[j]) + 1
    return min(Fraction(1, 2), cap, budget / (2 * other))


def slab_box(pin: int, value: Fraction, extent: BasicSet, half: Fraction) -> BasicSet:
    """The open box around the plane x[pin] = value over extent, grown by half."""
    lo = [c - half for c in extent.lo]
    hi = [c + half for c in extent.hi]
    lo[pin], hi[pin] = value - half, value + half
    return BasicSet.open_box(lo, hi)


def make_witness(
    x: SetSequence | GeneralizedBasicSet,
    ambient: BasicSet,
    eps,
    coverage: str = "ambient",
) -> GeneralizedBasicSet:
    """Build a witness M(eps) for the endpoint set of x, in one attempt.

    The carrier is x itself, a GeneralizedBasicSet, or a SetSequence's
    union.  Open slabs around each merged endpoint group, budgeted
    geometrically, clipped to a slight inflation of the ambient box.
    Each failed clause raises WitnessError: a vanishing slab margin or a
    measure over eps (clause 1), or, from `decide_clauses`, no positive
    well-containment margin (clause 2) or coverage-region points outside
    both the witness and the carrier (clause 3, non-representable input).
    """
    return _witness_and_certificate(x, ambient, eps, coverage)[0]


def _witness_and_certificate(
    x: SetSequence | GeneralizedBasicSet,
    ambient: BasicSet,
    eps,
    coverage: str,
) -> tuple[GeneralizedBasicSet, DomainCertificate | None]:
    """make_witness's witness and the certificate that admitted it.

    The certificate is None for a carrier without endpoints, whose empty
    witness is returned undecided.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise WitnessError("witness budget must be positive")
    carrier = x.as_gbs() if isinstance(x, SetSequence) else x
    gamma = carrier.gamma
    dim = ambient.dim
    if not gamma:
        return GeneralizedBasicSet.empty(dim), None

    groups = _face_groups(gamma)
    budgets = _budgets(eps, len(groups))

    # keep slab thickness under a quarter of the closest parallel plane gap
    caps = []
    for i, (pin, value, _) in enumerate(groups):
        gaps = [
            abs(value - v2) for (p2, v2, _) in groups if p2 == pin and v2 != value
        ]
        caps.append(min(gaps) / 4 if gaps else Fraction(1, 2))

    parts = []
    for (pin, value, extent), budget, cap in zip(groups, budgets, caps):
        m = slab_margin(budget, extent, pin, cap)
        if m <= 0:
            raise WitnessError("witness margin vanished")
        parts.append(slab_box(pin, value, extent, m))
    max_m = max((p.hi[0] - p.lo[0]) for p in parts) if parts else Fraction(0)
    clip = ambient.inflate(max_m)
    witness = GeneralizedBasicSet.of([p.intersect(clip) for p in parts], dim=dim)
    if witness.measure() > eps:
        raise WitnessError("witness exceeds its measure budget")
    cert = decide_clauses(carrier, ambient, witness, eps, coverage)
    if cert.margin is None:
        raise WitnessError("could not realize a positive well-containment margin")
    if not cert.covers_complement:
        raise WitnessError(
            "ambient minus witness is not inside the carrier "
            "(non-representable input)"
        )
    return witness, cert


def decide_clauses(
    carrier: GeneralizedBasicSet,
    ambient: BasicSet,
    m: GeneralizedBasicSet,
    eps: Fraction,
    coverage: str,
) -> "DomainCertificate":
    """Clause 2 (a well-containment margin) and clause 3 for witness m.

    Clause 3 asks the coverage region minus m to lie inside the carrier.
    Sublevel-set members C_i are proper subsets of the working box and
    the theorem only needs their union representable, so with coverage
    "closure" the region is the carrier closure, not the ambient box.
    """
    if coverage == "ambient":
        region = GeneralizedBasicSet.of([ambient], dim=ambient.dim)
    elif coverage == "closure":
        region = GeneralizedBasicSet.of(
            [p.closure() for p in carrier.parts], dim=carrier.dim
        )
    else:
        raise WitnessError(f"unknown coverage mode {coverage!r}")
    margin = well_containment_margin(carrier.gamma, m)
    covers = region.subtract(m).subtract(carrier).is_empty
    return DomainCertificate(eps, m.measure(), margin, covers, coverage)


def well_containment_margin(
    faces: Sequence[BasicSet],
    m: GeneralizedBasicSet,
    r0: Fraction | None = None,
    max_halvings: int = 40,
) -> Fraction | None:
    """First verified r = r0 / 2**k, k < max_halvings.

    r verifies when each face grown by r lies inside M and misses ess(M),
    every part face minus all open interiors (`_separating_faces`).  r0
    defaults to a quarter of the thinnest side of M's parts, over their
    non-degenerate axes.  Returns None when no such r verifies, and also
    when r0 is not given and every part of M is degenerate: no inflated
    box fits inside a measure-zero M.  Without faces, returns r0 (1/4 if
    not given).
    """
    faces = [f for f in faces if not f.is_empty]
    if not faces:
        return r0 or Fraction(1, 4)
    if m.is_empty:
        return None
    if r0 is None:
        thick = _thinnest_side(m)
        if thick is None:
            return None
        r0 = thick / 4
    separating = _separating_faces(m)
    r = as_fraction(r0)
    for _ in range(max_halvings):
        if _contained_with_margin(faces, m, separating, r):
            return r
        r /= 2
    return None


def _thinnest_side(m: GeneralizedBasicSet) -> Fraction | None:
    """Shortest non-degenerate side over M's parts; None if there is none.

    Decided on integer ratios, as `BasicSet.axis_degenerate` decides
    degeneracy: side hi - lo is (c*b - a*d, b*d) for ends a/b and c/d,
    and sides are compared cross-multiplied, so only the result is a
    `Fraction`.
    """
    best = None
    for p in m.parts:
        for lo, hi in zip(p.lo, p.hi):
            (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
            side = (c * b - a * d, b * d)
            if side[0] > 0 and (best is None or side[0] * best[1] < best[0] * side[1]):
                best = side
    return None if best is None else Fraction(*best)


def _separating_faces(m: GeneralizedBasicSet) -> GeneralizedBasicSet:
    """Faces of m meeting a part that is not an open box, minus all interiors.

    A box inside m meets ess(M) exactly when it meets this subset.  A
    point of the box in ess(M) lies on a face F and in a part P, and in
    no open interior, so P is not an open box; F meets P and is kept.
    P's own faces would not do: a segment glued between two open
    squares has only its end points as faces.
    """
    shut = GeneralizedBasicSet(m.dim, tuple(p for p in m.parts if p.kind != "open-box"))
    if shut.is_empty:
        return shut
    interiors = GeneralizedBasicSet.of([p.interior_open() for p in m.parts], dim=m.dim)
    faces = tuple(f for f in m.gamma if shut.meeting(f))
    return GeneralizedBasicSet(m.dim, faces).subtract(interiors)


def _contained_with_margin(faces, m, separating, r) -> bool:
    """Whether each face grown by r lies in m and meets no separating face."""
    for f in faces:
        box = f.inflate(r)
        if separating.meeting(box):
            return False
        if not GeneralizedBasicSet.of([box], dim=box.dim).subtract(m).is_empty:
            return False
    return True


def disjointify_witness(m: GeneralizedBasicSet) -> GeneralizedBasicSet:
    """Countable reduction of a witness into disjoint basic sets."""
    if m.is_empty:
        return m
    reduced = countable_reduction(SetSequence.of(m.parts, "rowmajor"))
    return GeneralizedBasicSet.of(reduced.union_parts(), dim=m.dim)


# ---------------------------------------------------------------------------
# domains


class RepresentabilityWitness:
    """Validating wrapper around an eps -> M(eps) generator.

    Every query re-checks the measure budget; results are cached per
    eps.  The located-set distance oracle is the exact box distance.
    """

    def __init__(self, generator: Callable[[Fraction], GeneralizedBasicSet]):
        self._generator = generator
        self._cache: dict[Fraction, GeneralizedBasicSet] = {}

    def __call__(self, eps) -> GeneralizedBasicSet:
        eps = as_fraction(eps)
        if eps <= 0:
            raise WitnessError("witness budget must be positive")
        if eps not in self._cache:
            m = self._generator(eps)
            if m.measure() > eps:
                raise WitnessError(
                    f"generator returned measure {m.measure()} > budget {eps}"
                )
            self._cache[eps] = m
        return self._cache[eps]

    def distance(self, point, eps) -> float:
        return dist_point_set(point, self(eps))

    def certificate(self, carrier, ambient, eps, coverage) -> DomainCertificate | None:
        """The certificate already decided for M(eps) on these inputs; None here."""
        return None


class CarrierWitness(RepresentabilityWitness):
    """make_witness for one carrier, keeping the certificate of each M(eps).

    make_witness admits a witness only after deciding clauses 2 and 3 for
    it, so a verify on the same carrier, ambient box and coverage reads
    that certificate instead of deciding them again.
    """

    def __init__(self, carrier: SetSequence, ambient: BasicSet, coverage: str):
        super().__init__(self._generate)
        self._carrier, self._ambient, self._coverage = carrier, ambient, coverage
        self._decided: dict[Fraction, DomainCertificate | None] = {}

    def _generate(self, eps: Fraction) -> GeneralizedBasicSet:
        m, self._decided[eps] = _witness_and_certificate(
            self._carrier, self._ambient, eps, self._coverage
        )
        return m

    def certificate(self, carrier, ambient, eps, coverage) -> DomainCertificate | None:
        """The certificate M(eps) was admitted with, when decided on these inputs."""
        if (carrier, ambient, coverage) != (
            self._carrier.as_gbs(), self._ambient, self._coverage
        ):
            return None
        return self._decided.get(eps)


@dataclass(frozen=True)
class DomainCertificate:
    epsilon: Fraction
    witness_measure: Fraction
    margin: Fraction | None
    covers_complement: bool
    coverage: str = "ambient"

    @property
    def ok(self) -> bool:
        return self.margin is not None and self.covers_complement


@dataclass(frozen=True)
class RepresentableDomain:
    """Set sequence + ambient box + representability witness."""

    carrier: SetSequence
    ambient: BasicSet
    witness: RepresentabilityWitness = field(compare=False)
    coverage: str = "ambient"

    @staticmethod
    def from_carrier(
        carrier: SetSequence, ambient: BasicSet, coverage: str = "ambient"
    ) -> "RepresentableDomain":
        witness = CarrierWitness(carrier, ambient, coverage)
        return RepresentableDomain(carrier, ambient, witness, coverage)

    @staticmethod
    def from_cells(
        cells: Sequence[BasicSet], ambient: BasicSet, coverage: str = "ambient"
    ) -> "RepresentableDomain":
        if any(c.dim != ambient.dim for c in cells):
            raise SetAlgebraError("part dimension mismatch")
        seq = SetSequence.of(cells, "rowmajor")
        return RepresentableDomain.from_carrier(seq, ambient, coverage)

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def carrier_gbs(self) -> GeneralizedBasicSet:
        return self.carrier.as_gbs()

    def contains(self, point) -> bool:
        return self.carrier.contains(point)

    def verify(self, eps) -> DomainCertificate:
        """Clauses 2 and 3 for M(eps), decided once per carrier and witness."""
        eps = as_fraction(eps)
        carrier, m = self.carrier_gbs(), self.witness(eps)
        cert = self.witness.certificate(carrier, self.ambient, eps, self.coverage)
        if cert is None:
            cert = decide_clauses(carrier, self.ambient, m, eps, self.coverage)
        return cert


def reduce_domain(dom: RepresentableDomain) -> RepresentableDomain:
    """Countable reduction of the carrier; the witness carries over."""
    return RepresentableDomain(
        countable_reduction(dom.carrier),
        dom.ambient,
        dom.witness,
        dom.coverage,
    )


def intersect_domains(
    d1: RepresentableDomain, d2: RepresentableDomain
) -> RepresentableDomain:
    """Intersection domain with the eps/2 + eps/2 union witness."""
    items = []
    for a in d1.carrier.items:
        for b in d2.carrier.items:
            items.append(a.intersect(b))
    carrier = SetSequence(tuple(items), d1.carrier.pairing)
    return _joint_witness_domain(carrier, d1, d2)


def termwise_intersect_domains(
    d1: RepresentableDomain, d2: RepresentableDomain
) -> RepresentableDomain:
    """Item-by-item intersection; requires X1 inside the result."""
    if len(d1.carrier.items) != len(d2.carrier.items):
        raise WitnessError("term-wise intersection needs equal-length sequences")
    items = tuple(
        a.intersect(b) for a, b in zip(d1.carrier.items, d2.carrier.items)
    )
    carrier = SetSequence(items, d1.carrier.pairing)
    if not d1.carrier_gbs().subtract(carrier.as_gbs()).is_empty:
        raise WitnessError("term-wise intersection precondition X1 <= X~ fails")
    return _joint_witness_domain(carrier, d1, d2)


def _joint_witness_domain(carrier, d1, d2) -> RepresentableDomain:
    def gen(eps: Fraction) -> GeneralizedBasicSet:
        m1 = d1.witness(eps / 2)
        m2 = d2.witness(eps / 2)
        return GeneralizedBasicSet.of(m1.parts + m2.parts, dim=d1.ambient.dim)

    return RepresentableDomain(
        carrier, d1.ambient, RepresentabilityWitness(gen), d1.coverage
    )


# ---------------------------------------------------------------------------
# piecewise-constant maps and continuous extension


@dataclass(frozen=True)
class PiecewiseConstantMap:
    """Disjoint generalized sets Q_i with constant range values r_i."""

    pieces: tuple[tuple[GeneralizedBasicSet, tuple[Fraction, ...]], ...]
    domain: RepresentableDomain

    @property
    def range_dim(self) -> int:
        return len(self.pieces[0][1]) if self.pieces else 0

    def value_at(self, point) -> tuple[Fraction, ...] | None:
        union, owner = self._located
        k = union.locate(point)
        return None if k is None else self.pieces[owner[k]][1]

    @cached_property
    def _located(self) -> tuple[GeneralizedBasicSet, tuple[int, ...]]:
        return union_with_owners([q for q, _ in self.pieces])

    def validate(self) -> None:
        pair = first_meeting_pair([q for q, _ in self.pieces])
        if pair is not None:
            raise WitnessError("pieces {} and {} overlap".format(*pair))
        union = GeneralizedBasicSet.of(
            [p for q, _ in self.pieces for p in q.parts], dim=self.domain.dim
        )
        carrier = self.domain.carrier_gbs()
        if not union.subtract(carrier).is_empty:
            raise WitnessError("piece union exceeds the domain carrier")
        if not carrier.subtract(union).is_empty:
            raise WitnessError("piece union does not cover the domain carrier")


@dataclass
class ContinuousExtension:
    """Evaluable continuous g with g = f outside the exception set."""

    fn: Callable[[Sequence[float]], tuple[float, ...]]
    exception: GeneralizedBasicSet
    lipschitz: float

    def __call__(self, point) -> tuple[float, ...]:
        return self.fn(point)


def continuous_extension(
    f: PiecewiseConstantMap, eps, adjacency_delta: Fraction | None = None
) -> ContinuousExtension:
    """Continuous g equal to f off an exception set of measure <= eps.

    1-D ramps linearly across the reduced witness intervals; in higher
    dimension the weak finite adjacency condition is checked on a probe
    cover first and values blend multilinearly over nearby pieces.
    """
    eps = as_fraction(eps)
    dim = f.domain.dim
    values = [r for _, r in f.pieces]
    if not values:
        raise WitnessError("cannot extend a map with no pieces")
    if all(v == values[0] for v in values):
        const = tuple(float(c) for c in values[0])
        return ContinuousExtension(
            lambda _pt, _c=const: _c, GeneralizedBasicSet.empty(dim), 0.0
        )

    m = f.domain.witness(eps)
    m_red = disjointify_witness(m)
    cert = f.domain.verify(eps)
    if cert.margin is None:
        raise WitnessError("domain fails its own representability check")

    if dim == 1:
        return _extension_1d(f, m_red)
    report = check_weak_finite_adjacency(f.domain, delta=adjacency_delta)
    if not report.ok:
        raise AdjacencyError(report.offending_cell)
    return _extension_blend(f, m_red, cert.margin)


def _nearest_value(f: PiecewiseConstantMap, point) -> tuple[Fraction, ...]:
    v = f.value_at(point)
    if v is not None:
        return v
    best, best_d = None, None
    for q, r in f.pieces:
        for p in q.parts:
            d = p.dist2_point(point)
            if best_d is None or d < best_d:
                best, best_d = r, d
    return best


def _extension_1d(f: PiecewiseConstantMap, m_red: GeneralizedBasicSet):
    ramps = []
    for part in sorted(m_red.parts, key=lambda p: p.lo[0]):
        a, b = part.lo[0], part.hi[0]
        fa = tuple(float(c) for c in _nearest_value(f, [a]))
        fb = tuple(float(c) for c in _nearest_value(f, [b]))
        ramps.append((a, b, fa, fb))
    beta = f.range_dim
    lip = 0.0
    for a, b, fa, fb in ramps:
        if b > a:
            lip = max(
                lip, max(abs(fa[k] - fb[k]) for k in range(beta)) / float(b - a)
            )

    def g(point):
        x = as_fraction(point[0] if isinstance(point, (list, tuple)) else point)
        for a, b, fa, fb in ramps:
            if a <= x <= b:
                t = float((x - a) / (b - a)) if b > a else 0.0
                return tuple(fa[k] + t * (fb[k] - fa[k]) for k in range(beta))
        return tuple(float(c) for c in _nearest_value(f, [x]))

    return ContinuousExtension(g, m_red, lip)


def _extension_blend(
    f: PiecewiseConstantMap, m_red: GeneralizedBasicSet, margin: Fraction
):
    scale = float(margin)
    beta = f.range_dim
    pieces = [
        (q, tuple(float(c) for c in r), [(p.lo, p.hi) for p in q.parts])
        for q, r in f.pieces
    ]
    vals = [v for _, v, _ in pieces]
    spread = max(
        abs(a[k] - b[k]) for a in vals for b in vals for k in range(beta)
    )
    lip = 2.0 * len(pieces) * spread / scale if scale > 0 else float("inf")

    def weight(point, boxes) -> float:
        best = 0.0
        for lo, hi in boxes:
            w = 1.0
            for j, c in enumerate(point):
                gap = max(float(lo[j]) - c, c - float(hi[j]), 0.0)
                h = 1.0 - gap / scale
                if h <= 0.0:
                    w = 0.0
                    break
                w *= h
            best = max(best, w)
        return best

    def g(point):
        pt_exact = tuple(as_fraction(c) for c in point)
        pt = tuple(float(c) for c in pt_exact)
        ws = []
        exact_hit = None
        for q, v, boxes in pieces:
            w = weight(pt, boxes)
            ws.append(w)
            if exact_hit is None and q.contains(pt_exact):
                exact_hit = v
        positives = [i for i, w in enumerate(ws) if w > 0.0]
        if exact_hit is not None and len(positives) <= 1:
            return exact_hit
        total = sum(ws)
        if total == 0.0:
            return _nearest_float_value(pieces, pt)
        return tuple(
            sum(ws[i] * pieces[i][1][k] for i in positives) / total
            for k in range(beta)
        )

    return ContinuousExtension(g, m_red, lip)


def _nearest_float_value(pieces, pt):
    best, best_d = None, None
    for _, v, boxes in pieces:
        for lo, hi in boxes:
            d = sum(
                max(float(lo[j]) - c, c - float(hi[j]), 0.0) ** 2
                for j, c in enumerate(pt)
            )
            if best_d is None or d < best_d:
                best, best_d = v, d
    return best


# ---------------------------------------------------------------------------
# weak finite adjacency


@dataclass(frozen=True)
class AdjacencyReport:
    ok: bool
    delta: Fraction
    offending_cell: BasicSet | None = None


ADJACENCY_CELLS_PER_AXIS = 12  # probe boxes per axis, at most


def check_weak_finite_adjacency(
    dom: RepresentableDomain, delta: Fraction | None = None
) -> AdjacencyReport:
    """Probe a delta-cover of the ambient box.

    Each probe box must be covered by the delta-inflated carrier parts
    it meets; a region no inflated part reaches is reported as the
    offending cell.  delta defaults to half the thinnest side of the
    1/16 witness, or 1/8 when that witness has no non-degenerate side.
    """
    dim = dom.dim
    if delta is None:
        thick = _thinnest_side(dom.witness(Fraction(1, 16)))
        delta = thick / 2 if thick is not None else Fraction(1, 8)
    delta = as_fraction(delta)
    inflated = GeneralizedBasicSet.of(
        [p.inflate(delta) for p in dom.carrier.union_parts()], dim=dim
    )

    steps, starts = [], []
    for j in range(dim):
        lo = dom.ambient.lo[j]
        extent = dom.ambient.hi[j] - lo
        n = min(ADJACENCY_CELLS_PER_AXIS, max(1, int(extent / delta)))
        steps.append(extent / n)
        starts.append([lo + i * steps[j] for i in range(n)])

    # probe cells in row-major order, the first axis outermost
    for lo in itertools.product(*starts):
        cell = BasicSet.closed_box(lo, [c + step for c, step in zip(lo, steps)])
        if not GeneralizedBasicSet.of([cell], dim=dim).subtract(inflated).is_empty:
            return AdjacencyReport(False, delta, cell)
    return AdjacencyReport(True, delta)


# ---------------------------------------------------------------------------
# serialization


def domain_to_json(dom: RepresentableDomain) -> dict:
    return {**sequence_to_json(dom.carrier), "ambient": basic_set_to_json(dom.ambient)}


def domain_from_json(obj: dict) -> RepresentableDomain:
    """A domain whose witness make_witness builds with its geometric budgets."""
    rule = obj.get("witness_budget_rule", "geometric")
    if rule != "geometric":
        raise InputError(f"unknown witness budget rule {rule!r}; only 'geometric' is built")
    carrier = sequence_from_json(obj)
    ambient = basic_set_from_json(obj["ambient"], int(obj["dim"]))
    return RepresentableDomain.from_carrier(carrier, ambient)
