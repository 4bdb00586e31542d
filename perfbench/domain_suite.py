"""domain_suite: exact set algebra built, not queried.

One pass runs seeded random set sequences through `countable_reduction`,
then seeded random tilings through `RepresentableDomain.verify`,
`reduce_domain`, `intersect_domains` and `termwise_intersect_domains`,
verifying every resulting domain.  This is where the set algebra builds
witnesses and margins, including the halving search in
`well_containment_margin`.  It imports no `selector`, no `robot` and no
numpy, so changes to extraction or to the export should not move it.

The sequences and tilings follow the shapes of the acceptance suites,
with fixed part and cut counts so that the cost of a pass depends little
on the seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from selectorkit.domain import (
    RepresentableDomain,
    intersect_domains,
    reduce_domain,
    termwise_intersect_domains,
)
from selectorkit.setalg import BasicSet, GeneralizedBasicSet, SetSequence, countable_reduction

from common import PassResult, digest
from tracing import Tracer, timed

BUDGETS = (Fraction(1, 8), Fraction(1, 10), Fraction(1, 16))
TERMWISE_EPS = Fraction(1, 10)


@dataclass(frozen=True)
class Size:
    reductions: int  # set sequences per pass
    parts: tuple[int, int, int]  # parts per sequence in dimension 1, 2, 3
    pairs: int  # tiling pairs per pass
    cuts: tuple[tuple[int, ...], ...]  # cuts per axis of a tiling in dimension 1, 2, 3
    termwise: int  # inner/outer pairs for the term-wise intersection


SIZES = {
    "full": Size(500, (10, 10, 6), 8, ((2,), (2, 1), (1, 1, 0)), 5),
    "smoke": Size(12, (4, 4, 3), 4, ((1,), (1, 1), (1, 0, 0)), 1),
}


@dataclass(frozen=True)
class Inputs:
    size: Size
    # per sequence: (dim, pairing, items); an item is a list of parts
    # (lo, width, closed_lo, closed_hi) with corners in eighths
    sequences: tuple
    # per pair: (dim, eps, cuts of the first tiling, cuts of the second),
    # cuts in sixteenths per axis
    pairs: tuple
    # per term-wise pair: (cut, pad) in sixteenths
    termwise: tuple


def _sequence(rng: random.Random, dim: int, total: int):
    n_items = rng.randint(1, 5)
    items, remaining = [], total
    for j in range(n_items):
        k = rng.randint(0, remaining) if j < n_items - 1 else remaining
        remaining -= k
        parts = []
        for _ in range(k):
            axes = [
                (rng.randint(0, 24), rng.randint(1, 8), rng.random() < 0.5, rng.random() < 0.5)
                for _ in range(dim)
            ]
            parts.append(tuple(zip(*axes)))
        items.append(parts)
    return (dim, rng.choice(["cantor", "rowmajor"]), items)


def _cuts(rng: random.Random, counts: tuple[int, ...]):
    return tuple(tuple(sorted(rng.sample(range(1, 16), k))) for k in counts)


def make_inputs(seed: int, size: Size) -> Inputs:
    rng = random.Random(seed)
    dims = (1, 1, 1, 2, 2, 3)
    sequences = tuple(
        _sequence(rng, dim, size.parts[dim - 1])
        for dim in (dims[i % len(dims)] for i in range(size.reductions))
    )
    pairs = []
    for case in range(size.pairs):
        dim = 1 if case % 2 == 0 else (2 if case % 4 == 1 else 3)
        counts = size.cuts[dim - 1]
        # the budget sets how far the margin search halves, so it cycles
        # rather than being drawn: every seed gets the same mix
        eps = BUDGETS[case % len(BUDGETS)]
        pairs.append((dim, eps, _cuts(rng, counts), _cuts(rng, counts)))
    termwise = tuple((rng.randint(4, 12), rng.randint(1, 3)) for _ in range(size.termwise))
    return Inputs(size, sequences, tuple(pairs), termwise)


def _set_sequence(spec) -> SetSequence:
    dim, pairing, items = spec
    gbs = []
    for parts in items:
        boxes = [
            BasicSet.box(
                [Fraction(a, 8) for a in lo],
                [Fraction(a + w, 8) for a, w in zip(lo, width)],
                list(cl),
                list(ch),
            )
            for lo, width, cl, ch in parts
        ]
        gbs.append(GeneralizedBasicSet.of(boxes, dim=dim))
    return SetSequence.of(gbs, pairing)


def _tiling(dim: int, cuts) -> RepresentableDomain:
    axes = [[Fraction(0)] + [Fraction(c, 16) for c in cs] + [Fraction(1)] for cs in cuts]
    cells = []
    for cell in itertools.product(*(list(zip(a, a[1:])) for a in axes)):
        lo = [a for a, _ in cell]
        hi = [b for _, b in cell]
        cells.append(BasicSet.box(lo, hi, [a == 0 for a in lo], [True] * dim))
    return RepresentableDomain.from_cells(cells, BasicSet.closed_box([0] * dim, [1] * dim))


def _termwise_pair(cut16: int, pad16: int):
    cut, pad = Fraction(cut16, 16), Fraction(pad16, 16)
    ambient = BasicSet.closed_box([0], [1])
    inner = [BasicSet.interval(0, cut, True, True), BasicSet.interval(cut, 1, False, True)]
    outer = [
        BasicSet.interval(0, min(cut + pad, Fraction(1)), True, True),
        BasicSet.interval(max(cut - pad, Fraction(0)), 1, True, True),
    ]
    return (
        RepresentableDomain.from_cells(inner, ambient),
        RepresentableDomain.from_cells(outer, ambient),
    )


@dataclass
class Outputs:
    reductions: list  # (input SetSequence, reduced SetSequence)
    certs: list  # (eps, DomainCertificate, witness parts)


def run_pass(inp: Inputs, tr: Tracer) -> PassResult:
    t0 = time.perf_counter()
    reductions, lat = [], []
    for spec in inp.sequences:
        xs = _set_sequence(spec)
        ks, dt = timed(tr, "setalg.countable_reduction", countable_reduction, xs)
        reductions.append((xs, ks))
        lat.append(dt)

    certs = []

    def verify(dom, eps):
        cert = timed(tr, "domain.verify", dom.verify, eps)[0]
        certs.append((eps, cert, len(dom.witness(eps).parts)))

    t_c = time.perf_counter()
    for dim, eps, cuts1, cuts2 in inp.pairs:
        d1, d2 = _tiling(dim, cuts1), _tiling(dim, cuts2)
        verify(d1, eps)
        verify(d2, eps)
        with tr.span("domain.closure"):
            verify(reduce_domain(d1), eps)
            verify(intersect_domains(d1, d2), eps)
    for cut, pad in inp.termwise:
        dd1, dd2 = _termwise_pair(cut, pad)
        with tr.span("domain.closure"):
            verify(termwise_intersect_domains(dd1, dd2), TERMWISE_EPS)
    t_certs = time.perf_counter() - t_c
    wall = time.perf_counter() - t0

    n_ok = sum(c.ok for _, c, _ in certs)
    counts = {
        "setalg.reduction_calls": len(reductions),
        "setalg.parts_in": sum(len(xs.union_parts()) for xs, _ in reductions),
        "setalg.parts_out": sum(len(ks.union_parts()) for _, ks in reductions),
        "domain.verify_calls": len(certs),
        "domain.witness_parts": sum(n for _, _, n in certs),
        "domain.certs_ok_frac": n_ok / len(certs),
    }
    return PassResult(
        wall_s=wall,
        certify_s=t_certs,
        op_s=lat,
        ops=len(reductions) + len(certs),
        counts=counts,
        report={
            "certs_per_s": n_ok / t_certs,
            "reductions_per_s": len(lat) / sum(lat),
        },
        fingerprint={
            "reductions": digest(repr([ks for _, ks in reductions])),
            "certificates": digest(repr([c for _, c, _ in certs])),
        },
        outputs=Outputs(reductions, certs),
    )


def union_measure(boxes: list[BasicSet]) -> Fraction:
    """Measure of a union of boxes over the grid of their corner planes.

    Independent of the reduction: every elementary cell of the grid lies
    inside or outside each box, and open or closed faces do not change
    the measure.
    """
    if not boxes:
        return Fraction(0)
    dim = boxes[0].dim
    axes = [sorted({c for b in boxes for c in (b.lo[j], b.hi[j])}) for j in range(dim)]
    index = [{c: i for i, c in enumerate(a)} for a in axes]
    covered = set()
    for b in boxes:
        covered.update(
            itertools.product(*(range(index[j][b.lo[j]], index[j][b.hi[j]]) for j in range(dim)))
        )
    widths = [[hi - lo for lo, hi in zip(a, a[1:])] for a in axes]
    total = Fraction(0)
    for cell in covered:
        vol = Fraction(1)
        for j, i in enumerate(cell):
            vol *= widths[j][i]
        total += vol
    return total


def _closures_meet(a: BasicSet, b: BasicSet) -> bool:
    return all(a.lo[j] <= b.hi[j] and b.lo[j] <= a.hi[j] for j in range(a.dim))


def check(inp: Inputs, res: PassResult, tr: Tracer) -> list[str]:
    """Reduction identities and certificate contracts of one pass."""
    out: Outputs = res.outputs
    bad = []
    for i, (xs, ks) in enumerate(out.reductions):
        if not all(k.issubset(j) for j, k in zip(xs.items, ks.items)):
            bad.append(f"reduction {i}: a reduced item leaves its original")
        flat = ks.union_parts()
        if any(
            _closures_meet(a, b) and a.intersects(b) for a, b in itertools.combinations(flat, 2)
        ):
            bad.append(f"reduction {i}: reduced parts overlap")
        union = union_measure(xs.union_parts())
        if ks.measure() != union:
            bad.append(f"reduction {i}: measure {ks.measure()} != union measure {union}")
    for eps, cert, _ in out.certs:
        if not (cert.ok and cert.margin > 0 and cert.witness_measure <= eps):
            bad.append(f"certificate at eps={eps} fails: {cert}")
    return bad
