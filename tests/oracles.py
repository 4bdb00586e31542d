"""Independent oracles used to cross-check the package.

These deliberately avoid the package's own set algebra: the union
measure works on an integer-scaled cell decomposition with midpoint
membership, and the brute-force selector enumerates mesh points times
cells literally.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _scaled_boxes(parts):
    """Scale all corners to one integer grid (x2 so midpoints stay integral)."""
    if not parts:
        return [], 1
    denoms = [c.denominator for b in parts for c in (*b[0], *b[1])]
    scale = 2 * lcm(*denoms)
    out = []
    for lo, hi in parts:
        out.append(
            (
                tuple(int(c * scale) for c in lo),
                tuple(int(c * scale) for c in hi),
            )
        )
    return out, scale


def union_measure(parts) -> Fraction:
    """Measure of a union of boxes, counting overlaps once.

    `parts` is an iterable of (lo_tuple, hi_tuple) of Fractions (closure
    flags are irrelevant for measure).  Cell decomposition: cut space at
    every corner coordinate, keep cells whose midpoint lies strictly
    inside some box.
    """
    parts = [(tuple(lo), tuple(hi)) for lo, hi in parts]
    parts = [p for p in parts if all(l < h for l, h in zip(p[0], p[1]))]
    if not parts:
        return Fraction(0)
    dim = len(parts[0][0])
    boxes, scale = _scaled_boxes(parts)
    axes = []
    for j in range(dim):
        coords = sorted({b[0][j] for b in boxes} | {b[1][j] for b in boxes})
        axes.append(coords)

    total = 0
    # iterate the cell grid without building the full product in memory
    def rec(j, mids, vol):
        nonlocal total
        if j == dim:
            for lo, hi in boxes:
                if all(lo[k] < mids[k] < hi[k] for k in range(dim)):
                    total += vol
                    return
            return
        cs = axes[j]
        for a, b in zip(cs, cs[1:]):
            rec(j + 1, mids + [(a + b) // 2], vol * (b - a))

    rec(0, [], 1)
    return Fraction(total, scale**dim)


def gbs_boxes(gbs):
    """Corner pairs of a GeneralizedBasicSet for the oracle above."""
    return [(p.lo, p.hi) for p in gbs.parts]


def seq_boxes(seq):
    return [(p.lo, p.hi) for it in seq.items for p in it.parts]


def first_part_containing(parts, x):
    """Index of the first box holding point x, or None, by a linear scan.

    Reads only the corners and closure flags of each part and compares
    them with x literally, so empty parts hold no point.
    """
    for k, p in enumerate(parts):
        if all(
            (p.lo[j] < c or (p.lo[j] == c and p.closed_lo[j]))
            and (c < p.hi[j] or (c == p.hi[j] and p.closed_hi[j]))
            for j, c in enumerate(x)
        ):
            return k
    return None


def contains_reference(box, x):
    """BasicSet.contains as first written: an emptiness test, then four
    literal comparisons per axis."""
    if any(
        _interval_empty(box.lo[j], box.closed_lo[j], box.hi[j], box.closed_hi[j])
        for j in range(box.dim)
    ):
        return False
    for j, c in enumerate(x):
        if c < box.lo[j] or c > box.hi[j]:
            return False
        if c == box.lo[j] and not box.closed_lo[j]:
            return False
        if c == box.hi[j] and not box.closed_hi[j]:
            return False
    return True


def _interval_empty(lo, clo, hi, chi):
    return lo > hi or (lo == hi and not (clo and chi))


def _meet_axis(a, b, j):
    """Axis j of a meet: the larger lower and the smaller upper end, a
    tied end closed only where both boxes close it."""
    lo, clo = a.lo[j], a.closed_lo[j]
    if b.lo[j] > lo:
        lo, clo = b.lo[j], b.closed_lo[j]
    elif b.lo[j] == lo:
        clo = clo and b.closed_lo[j]
    hi, chi = a.hi[j], a.closed_hi[j]
    if b.hi[j] < hi:
        hi, chi = b.hi[j], b.closed_hi[j]
    elif b.hi[j] == hi:
        chi = chi and b.closed_hi[j]
    return lo, clo, hi, chi


def _with_axis(box, j, lo, clo, hi, chi):
    from selectorkit.setalg import BasicSet

    def put(t, v):
        return t[:j] + (v,) + t[j + 1 :]

    return BasicSet(
        box.dim, put(box.lo, lo), put(box.hi, hi),
        put(box.closed_lo, clo), put(box.closed_hi, chi),
    )


def box_subtract_reference(a, b):
    """BasicSet.subtract as first written: an emptiness test, a whole meet
    test, then per axis the slab below b, the slab above b and the meet."""
    if any(
        _interval_empty(a.lo[j], a.closed_lo[j], a.hi[j], a.closed_hi[j])
        for j in range(a.dim)
    ):
        return []
    if any(_interval_empty(*_meet_axis(a, b, j)) for j in range(a.dim)):
        return [a]
    pieces, cur = [], a
    for j in range(a.dim):
        lo, clo = a.lo[j], a.closed_lo[j]
        hi, chi = a.hi[j], a.closed_hi[j]
        if not _interval_empty(lo, clo, b.lo[j], not b.closed_lo[j]):
            pieces.append(_with_axis(cur, j, lo, clo, b.lo[j], not b.closed_lo[j]))
        if not _interval_empty(b.hi[j], not b.closed_hi[j], hi, chi):
            pieces.append(_with_axis(cur, j, b.hi[j], not b.closed_hi[j], hi, chi))
        cur = _with_axis(cur, j, *_meet_axis(a, b, j))
    return pieces


def intersect_reference(parts, others):
    """GeneralizedBasicSet.intersect as first written: each part met, in
    order, with every part of others whose `Fraction` meet is not empty."""
    from selectorkit.setalg import BasicSet

    out = []
    for a in parts:
        for b in others:
            axes = [_meet_axis(a, b, j) for j in range(a.dim)]
            if not any(_interval_empty(*ax) for ax in axes):
                lo, clo, hi, chi = zip(*axes)
                out.append(BasicSet(a.dim, lo, hi, clo, chi))
    return out


def countable_reduction_reference(xs):
    """countable_reduction as first written: each part, in pairing order,
    cut in turn by every earlier part with box_subtract_reference.  An
    empty part leaves nothing, the first one included."""
    from selectorkit.setalg import GeneralizedBasicSet, SetSequence

    dim = xs.dim if xs.items else 1
    reduced, earlier = {}, []
    for n, m in xs.flat_order():
        part = xs.items[n].parts[m]
        empty = any(
            _interval_empty(part.lo[j], part.closed_lo[j], part.hi[j], part.closed_hi[j])
            for j in range(part.dim)
        )
        pieces = [] if empty else [part]
        for b in earlier:
            pieces = [q for p in pieces for q in box_subtract_reference(p, b)]
        reduced[(n, m)] = pieces
        earlier.append(part)
    items = tuple(
        GeneralizedBasicSet(dim, tuple(q for m in range(len(it.parts)) for q in reduced[(n, m)]))
        for n, it in enumerate(xs.items)
    )
    return SetSequence(items, xs.pairing)


def parts_meeting(parts, box):
    """Indices of the parts that intersect box, by a linear scan."""
    return [i for i, p in enumerate(parts) if p.intersects(box)]


def slot_reference(values, c, closed=True, side=0):
    """The slot of an interval end at c among sorted distinct `Fraction`
    values, by `Fraction` bisection, as the rank index first placed it.

    Slot 2i+1 is values[i] and slot 2i the gap below it; an end at a
    value covers its slot when closed and the gap on `side` when open.
    """
    from bisect import bisect_left

    c = Fraction(c)
    i = bisect_left(values, c)
    if i < len(values) and values[i] == c:
        return 2 * i + 1 + (0 if closed else side)
    return 2 * i


def rank_index_reference(g):
    """Per axis of a generalized set: its sorted distinct `Fraction` ends
    and the cumulative start and end masks, as first written."""
    index = []
    for j in range(g.dim):
        values = sorted({c for p in g.parts for c in (p.lo[j], p.hi[j])})
        starts = [0] * (2 * len(values) + 1)
        ends = [0] * (2 * len(values) + 1)
        for k, p in enumerate(g.parts):
            first = slot_reference(values, p.lo[j], p.closed_lo[j], 1)
            last = slot_reference(values, p.hi[j], p.closed_hi[j], -1)
            if first <= last:
                starts[first] |= 1 << k
                ends[last] |= 1 << k
        for s in range(1, len(starts)):
            starts[s] |= starts[s - 1]
            ends[-1 - s] |= ends[-s]
        index.append((values, starts, ends))
    return index


def subtract_reference(parts, subtrahends):
    """Sequential difference: every piece cut by each subtrahend in turn."""
    parts = list(parts)
    for b in subtrahends:
        parts = [piece for p in parts for piece in p.subtract(b)]
        if not parts:
            break
    return parts


def essential_gamma_reference(m):
    """Every part face of m minus the open interiors of all its parts.

    The essential boundary ess(M) as first defined: each face of
    `m.gamma` cut by every interior in turn, whatever the part kinds.
    """
    return subtract_reference(m.gamma, [p.interior_open() for p in m.parts])


def margin_reference(faces, m, max_halvings):
    """well_containment_margin decided against essential_gamma_reference."""
    from selectorkit.domain import _contained_with_margin, _thinnest_side
    from selectorkit.setalg import GeneralizedBasicSet

    faces = [f for f in faces if not f.is_empty]
    if not faces:
        return Fraction(1, 4)
    thick = None if m.is_empty else _thinnest_side(m)
    if thick is None:
        return None
    ess = GeneralizedBasicSet(m.dim, tuple(essential_gamma_reference(m)))
    r = thick / 4
    for _ in range(max_halvings):
        if _contained_with_margin(faces, m, ess, r):
            return r
        r /= 2
    return None


def adjacency_reference(dom, delta=None):
    """check_weak_finite_adjacency as first written: a recursive walk over
    the probe cells, each cut in turn by the inflated parts it meets."""
    from selectorkit.domain import ADJACENCY_CELLS_PER_AXIS, AdjacencyReport, _thinnest_side
    from selectorkit.setalg import BasicSet

    dim = dom.dim
    if delta is None:
        thick = _thinnest_side(dom.witness(Fraction(1, 16)))
        delta = thick / 2 if thick is not None else Fraction(1, 8)
    delta = Fraction(delta)
    inflated = [p.inflate(delta) for p in dom.carrier.union_parts()]
    steps = []
    for j in range(dim):
        extent = dom.ambient.hi[j] - dom.ambient.lo[j]
        n = min(ADJACENCY_CELLS_PER_AXIS, max(1, int(extent / delta)))
        steps.append((extent / n, n))

    def rec(j, lo):
        if j == dim:
            cell = BasicSet.closed_box(lo, [lo[k] + steps[k][0] for k in range(dim)])
            meet = [b for b in inflated if b.intersects(cell)]
            return cell if subtract_reference([cell], meet) else None
        step, n = steps[j]
        for i in range(n):
            bad = rec(j + 1, lo + [dom.ambient.lo[j] + i * step])
            if bad is not None:
                return bad
        return None

    bad = rec(0, [])
    return AdjacencyReport(bad is None, delta, bad)


def brute_force_selector(F, n):
    """Literal mesh-sweep extraction on a cellwise SVF with cell-aligned pieces.

    Enumerates every mesh point against every cell, applies the two
    acceptance tests verbatim, and reduces by first-come-first-served in
    mesh order (first-come reduction at cell granularity).  Returns,
    per level 2..n, a dict cell_index -> mesh value tuple.
    """
    beta = F.beta
    from selectorkit.setalg import dist2_point_set

    f_prev = {ci: F.range_map.normalize([0] * beta) for ci in range(len(F.cells))}
    levels = []
    for k in range(2, n + 1):
        pitch = Fraction(1, 2 ** (k + 1))
        n_ax = 2 ** (k + 1) + 1
        mesh = []

        def rec(prefix):
            if len(prefix) == beta:
                mesh.append(tuple(prefix))
                return
            for i in range(n_ax):
                rec(prefix + [pitch * i])

        rec([])
        eps2 = Fraction(1, 2**k) ** 2
        gap2 = Fraction(1, 2 ** (k - 1)) ** 2
        assign = {}
        for i, r in enumerate(mesh):
            for ci in range(len(F.cells)):
                if ci in assign or ci not in f_prev:
                    continue
                vals = normalized_values_reference(F, ci)
                c_ok = dist2_point_set(r, vals) < eps2
                pv = f_prev[ci]
                d_ok = sum((a - b) * (a - b) for a, b in zip(r, pv)) < gap2
                if c_ok and d_ok:
                    assign[ci] = r
        if set(assign) != set(f_prev):
            raise AssertionError(f"oracle coverage loss at level {k}")
        levels.append(assign)
        f_prev = assign
    return levels


def normalized_values_reference(F, ci):
    """Cell ci's value set mapped onto [0, 1]**beta in `Fraction`s: each
    part's ends through `range_map.normalize`, its closure flags kept."""
    from selectorkit.setalg import BasicSet, GeneralizedBasicSet

    values = F.cells[ci][1]
    rmap = F.range_map
    parts = [
        BasicSet(p.dim, rmap.normalize(p.lo), rmap.normalize(p.hi), p.closed_lo, p.closed_hi)
        for p in values.parts
    ]
    return GeneralizedBasicSet.of(parts, dim=values.dim)


def admissible_reference(r, prev, vals, k):
    """The admissibility rule as first written, in `Fraction`s: r within
    2**-(k-1) of prev and within 2**-k of the closure of a part of
    vals, both strictly, and a level-k mesh node in [0, 1]."""
    g2, e2 = Fraction(1, 4 ** (k - 1)), Fraction(1, 4**k)
    return (
        len(r) == len(prev)
        and sum((a - b) * (a - b) for a, b in zip(r, prev)) < g2
        and min(p.dist2_point(r) for p in vals.parts) < e2
        and all(2 ** (k + 1) % c.denominator == 0 and 0 <= c <= 1 for c in r)
    )


def first_admitted_reference(scale, top):
    """selector._CellScale.first_admitted as the ball walk was first
    written: `admits` on every ball offset around `nearest_node()` whose
    digits lie in [0, top], in ball order; the first admitted digits, or
    None."""
    from selectorkit.selector import _ball_offsets

    base = scale.nearest_node()
    for off in _ball_offsets(len(base)):
        digits = tuple(b + o for b, o in zip(base, off))
        if all(0 <= d <= top for d in digits) and scale.admits(digits):
            return digits
    return None


def extraction_step_reference(prev, F, k, budget=None):
    """selector.extraction_step as first written: every cell of F against
    every previous piece, each non-empty meet an atom with its own winner.

    `prev` is the previous step's pieces, or None to start from the
    normalized zero.  Returns (pieces, certificate), the domain measure
    summed over the pieces; an atom without a winner raises the engine's
    CoverageError.
    """
    from selectorkit.errors import CoverageError
    from selectorkit.selector import StepCertificate, _ball_offsets, mesh_pitch
    from selectorkit.setalg import GeneralizedBasicSet

    budget = Fraction(budget) if budget is not None else Fraction(1, 2 ** (k + 2))
    if prev is None:
        whole = GeneralizedBasicSet.of([c for c, _ in F.cells], dim=F.alpha)
        prev = [(whole, F.range_map.normalize([0] * F.beta))]
    pitch = mesh_pitch(k)
    top = 2 ** (k + 1)
    e2 = Fraction(1, 2**k) ** 2
    g2 = Fraction(1, 2 ** (k - 1)) ** 2
    winners = {}
    for ci, (cell, _) in enumerate(F.cells):
        cell_g = GeneralizedBasicSet.of([cell], dim=F.alpha)
        vals = normalized_values_reference(F, ci).parts
        for pi, (q, v) in enumerate(prev):
            region = cell_g.intersect(q)
            if region.is_empty:
                continue
            base = [round(c / pitch) for c in v]
            for off in _ball_offsets(F.beta):
                digits = [b + o for b, o in zip(base, off)]
                if not all(0 <= d <= top for d in digits):
                    continue
                r = tuple(pitch * d for d in digits)
                if sum((a - b) * (a - b) for a, b in zip(r, v)) < g2 and min(
                    p.dist2_point(r) for p in vals
                ) < e2:
                    break
            else:
                raise CoverageError(
                    f"no mesh point at level {k} serves cell {ci} from piece {pi}; "
                    "the value set lies outside the previous approximant's reach",
                    region=region,
                )
            winners.setdefault(r, []).append(region)
    pieces = tuple(
        (GeneralizedBasicSet.of([p for g in winners[r] for p in g.parts], dim=F.alpha), r)
        for r in sorted(winners)
    )
    dom_measure = sum((q.measure() for q, _ in pieces), Fraction(0))
    return pieces, StepCertificate.at_level(k, 0.0, budget, len(pieces), dom_measure)


def cauchy_defect_reference(chain, k, m):
    """selector.cauchy_defect's exact branch as first written: the meet of
    every pair of far-apart pieces, plus level k's parts minus level m's."""
    from selectorkit.selector import CauchyDefect
    from selectorkit.setalg import GeneralizedBasicSet

    thr = Fraction(1, 2 ** (k - 2))
    sk, sm = chain.steps[k - 2], chain.steps[m - 2]
    bad = Fraction(0)
    for qk, vk in sk.pieces:
        for qm, vm in sm.pieces:
            if sum((a - b) * (a - b) for a, b in zip(vk, vm)) >= thr * thr:
                bad += qk.intersect(qm).measure()

    def carrier(step):
        parts = [p for q, _ in step.pieces for p in q.parts]
        return GeneralizedBasicSet.of(parts, dim=chain.svf.alpha)

    bad += carrier(sk).subtract(carrier(sm)).measure()
    budget = sk.certificate.witness_budget + sm.certificate.witness_budget
    return CauchyDefect(k, m, thr, bad, budget)


def grid_cauchy_defect_reference(chain, k, m):
    """selector.cauchy_defect's grid branch as first written: each level's
    winners as float mesh coordinates, a violation where both have a value
    and d2 >= float(thr2), plus the cells level m lost, times the cell volume."""
    import numpy as np

    from selectorkit.selector import CauchyDefect, mesh_shape

    def _winner_coords(step):
        """Each cell's winning mesh node as float coordinates; NaN where undefined."""
        w = np.array(step.winner)
        digits = np.unravel_index(np.maximum(w, 0), mesh_shape(step.level, step.svf.beta))
        coords = np.stack(digits, axis=-1) * 2.0 ** -(step.level + 1)
        coords[w < 0] = np.nan
        return coords

    thr = Fraction(1, 2 ** (k - 2))
    thr2 = thr * thr
    sk = chain.steps[k - 2]
    sm = chain.steps[m - 2]
    wk, wm = np.array(sk.winner), np.array(sm.winner)
    ck = _winner_coords(sk)
    cm = _winner_coords(sm)
    both = (wk >= 0) & (wm >= 0)
    d2 = ((ck - cm) ** 2).sum(axis=1)
    viol = both & (d2 >= float(thr2))
    lostmask = (wk >= 0) & (wm < 0)
    bad = chain.svf.grid.cell_volume * int((viol | lostmask).sum())
    budget = sk.certificate.witness_budget + sm.certificate.witness_budget
    return CauchyDefect(k, m, thr, bad, budget)


# ---------------------------------------------------------------------------
# sublevel families, one cell at a time


def sublevel_reference(F, centers, delta, strict):
    """Sublevel family of an SVF by a literal loop over centers and cells.

    Cellwise: the exact squared distance from r to each closed value
    part, read from its corners, against delta**2.  Sampled: the nearest
    net point of each active cell against delta plus the tau slack.
    Each domain is a row-major sequence of one-box items, or of one
    empty set.  Every domain, an empty one included, has the one witness
    of the SVF's cells, `plane_witness_reference` of its planes.  Returns
    (cell indices, slack, domains, union domain).
    """
    import numpy as np

    from selectorkit.domain import RepresentableDomain, RepresentabilityWitness
    from selectorkit.setalg import GeneralizedBasicSet, SetSequence

    delta = Fraction(delta)
    dim = F.domain_box.dim

    def passes(d, thr):
        return d < thr or (not strict and d == thr)

    slack = 0.0
    if F.kind == "sampled":
        widths = [h - l for l, h in zip(F.range_map.lo, F.range_map.hi)]
        slack = F.tau * float(max(widths))
    cell_indices = []
    for r in centers:
        r = [Fraction(c) for c in r]
        idxs = []
        if F.kind == "cellwise":
            for i, (_, values) in enumerate(F.cells):
                d2 = min(
                    sum(max(lo - c, c - hi, 0) ** 2 for c, lo, hi in zip(r, p.lo, p.hi))
                    for p in values.parts
                )
                if passes(d2, delta * delta):
                    idxs.append(i)
        else:
            rv = np.array([float(c) for c in r])
            for i in range(F.grid.n_cells):
                if F.mask is not None and not F.mask[i]:
                    continue
                d = float(np.linalg.norm(F.nets[i] - rv, axis=-1).min())
                if passes(d, float(delta) + slack):
                    idxs.append(i)
        cell_indices.append(tuple(idxs))

    planes = svf_planes_reference(F)
    witness = RepresentabilityWitness(
        lambda eps: GeneralizedBasicSet.of(
            plane_witness_reference(F.domain_box, planes, eps), dim=dim
        )
    )

    def domain(idxs):
        if F.kind == "cellwise":
            boxes = [F.cells[i][0] for i in idxs]
        else:
            boxes = [F.grid.cell_box(F.grid.unflat(i)) for i in idxs]
        items = tuple(GeneralizedBasicSet.of([b], dim=dim) for b in boxes)
        seq = SetSequence(items or (GeneralizedBasicSet.empty(dim),), "rowmajor")
        return RepresentableDomain(seq, F.domain_box, witness, coverage="closure")

    union = tuple(sorted({i for idxs in cell_indices for i in idxs}))
    return (
        tuple(cell_indices),
        slack,
        [domain(idxs) for idxs in cell_indices],
        domain(union),
    )


# ---------------------------------------------------------------------------
# selector evaluation, engine by engine


def eval_selector_reference(chain, x, eps_dom=None):
    """Selector evaluation with the engine dispatch written out.

    Three answers in order: outside the closed working box, inside the
    witness M(eps_dom), then the final step's value, or outside_domain
    where it has none.  Both engines' witness is `plane_witness_reference`
    of the SVF's planes.  The exact engine's value is the first piece
    holding x by a linear scan, the grid engine's the mesh node its cell
    won.
    """
    from selectorkit.selector import EvalResult

    F = chain.svf
    box = F.domain_box
    eps = Fraction(chain.dom_budget if eps_dom is None else eps_dom)
    x = [Fraction(c) for c in x]
    if first_part_containing([box.closure()], x) is None:
        return EvalResult(None, EvalResult.OUTSIDE_DOMAIN)
    step = chain.steps[-1]
    slabs = plane_witness_reference(box, svf_planes_reference(F), eps)
    if F.kind == "cellwise":
        owners = [r for q, r in step.pieces if first_part_containing(q.parts, x) is not None]
        r = owners[0] if owners else None
    else:
        idx = F.grid.cell_of_point(x)
        w = -1 if idx is None else int(step.winner[F.grid.flat(idx)])
        r = None
        if w >= 0:
            n_axis = 2 ** (step.level + 1) + 1
            digits = [(w // n_axis ** (F.beta - 1 - j)) % n_axis for j in range(F.beta)]
            r = tuple(Fraction(d, 2 ** (step.level + 1)) for d in digits)
    if first_part_containing(slabs, x) is not None:
        return EvalResult(None, EvalResult.INSIDE_WITNESS)
    if r is None:
        return EvalResult(None, EvalResult.OUTSIDE_DOMAIN)
    return EvalResult(F.range_map.denormalize(r))


# ---------------------------------------------------------------------------
# robot subdifferential, one point at a time


def robot_subgradients(x, theta_grid: int):
    """Scalar reference for the robot's CLF and disassembled subgradients.

    Evaluates one point with small numpy arrays over its own angles and
    deduplicates gradient rows through a set of rounded tuples, keeping
    first occurrences.  Returns (V, near-minimizer angles, subgradients).
    """
    import numpy as np

    from selectorkit.robot import ARGMIN_TOL, DENOM_FLOOR, REFINE_LEVELS

    x1, x2, x3 = (float(c) for c in x)
    u = abs(x3)

    def marginal(thetas):
        poly = x1**4 + x2**4
        if u == 0.0:
            return np.full_like(thetas, poly, dtype=float)
        d = x1 * np.cos(thetas) + x2 * np.sin(thetas) + np.sqrt(u)
        out = np.full_like(thetas, np.inf, dtype=float)
        ok = np.abs(d) >= DENOM_FLOOR
        out[ok] = poly + u**3 / d[ok] ** 2
        return out

    def gradients(thetas):
        p1, p2 = 4.0 * x1**3, 4.0 * x2**3
        if u == 0.0:
            g = np.zeros((len(thetas), 3))
            g[:, 0], g[:, 1] = p1, p2
        else:
            ct, st = np.cos(thetas), np.sin(thetas)
            d = x1 * ct + x2 * st + np.sqrt(u)
            ok = np.abs(d) >= DENOM_FLOOR
            ct, st, d = ct[ok], st[ok], d[ok]
            g = np.empty((int(ok.sum()), 3))
            g[:, 0] = p1 - 2.0 * u**3 * ct / d**3
            g[:, 1] = p2 - 2.0 * u**3 * st / d**3
            g[:, 2] = np.sign(x3) * (3.0 * u**2 / d**2 - u**2.5 / d**3)
        seen, keep = set(), []
        for i, row in enumerate(g):
            key = tuple(np.round(row, 12))
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return g[keep]

    thetas = np.linspace(0.0, 2.0 * np.pi, theta_grid, endpoint=False)
    if x1 == 0.0 and x2 == 0.0 and x3 == 0.0:
        return 0.0, thetas, gradients(thetas)
    vals = marginal(thetas)
    finite = np.isfinite(vals)
    if not finite.any():
        return np.inf, thetas[:0], np.empty((0, 3))
    best_i = int(np.argmin(vals))
    v_best = float(vals[best_i])
    theta_best = float(thetas[best_i])
    width = 2.0 * np.pi / theta_grid
    for _ in range(REFINE_LEVELS):
        local = theta_best + np.linspace(-width, width, 9)
        lv = marginal(local)
        j = int(np.argmin(lv))
        if np.isfinite(lv[j]) and lv[j] < v_best:
            v_best, theta_best = float(lv[j]), float(local[j])
        width /= 4.0
    band = ARGMIN_TOL * (1.0 + v_best)
    minimizers = thetas[finite & (vals <= v_best + band)]
    theta_best = float(np.mod(theta_best, 2.0 * np.pi))
    if not np.any(np.isclose(minimizers, theta_best)):
        minimizers = np.sort(np.append(minimizers, theta_best))
    return v_best, minimizers, gradients(minimizers)


def simulate_reference(config, chain=None):
    """`robot.simulate` as a numpy-array loop, as first written.

    The state is a 3-array stepped by `x + dt * array(...)` and the
    analytic controller takes the batched `_gradients` kernel at
    theta* = atan2(x2, x1) (theta = 0 near the x3 axis) on one row.
    """
    import numpy as np

    from selectorkit.robot import (
        DENOM_FLOOR,
        WORKING_HALFWIDTH,
        SimResult,
        _gradients,
        clf_values,
        control_law,
        disk_feedback,
    )
    from selectorkit.selector import eval_selector

    def analytic(x):
        x1, x2 = float(x[0]), float(x[1])
        theta = float(np.arctan2(x2, x1)) if x1 * x1 + x2 * x2 > DENOM_FLOOR**2 else 0.0
        g = _gradients(x.reshape(1, 3), np.zeros(1, dtype=np.intp), np.array([theta]))[1]
        return g[0] if len(g) else np.zeros(3)

    n_steps = round(config.T / config.dt_control)
    substeps = round(config.dt_control / config.dt_internal)
    x = np.array(config.x0, dtype=float)
    times, states, controls = [0.0], [x.copy()], []
    u, witness_hits, truncated = (0.0, 0.0), 0, False
    for k in range(n_steps):
        if config.controller == "analytic":
            u = disk_feedback(control_law(analytic(x), x))
        else:
            res = eval_selector(chain, [float(c) for c in x])
            if res.defined:
                u = disk_feedback(control_law(res.as_floats(), x))
            else:
                witness_hits += 1
        controls.append(u)
        for _ in range(substeps):
            x1, x2, _ = x
            x = x + config.dt_internal * np.array([u[0], u[1], -x2 * u[0] + x1 * u[1]])
        times.append((k + 1) * config.dt_control)
        states.append(x.copy())
        if np.abs(x).max() > WORKING_HALFWIDTH:
            truncated = True
            break
    controls.append(u)
    arr_u = np.array(controls)
    states = np.array(states)
    return SimResult(
        times=np.array(times),
        states=states,
        controls=arr_u,
        clf=clf_values(states),
        control_variation=float(np.abs(np.diff(arr_u, axis=0)).sum()),
        witness_hits=witness_hits,
        truncated=truncated,
        config=config,
    )


# ---------------------------------------------------------------------------
# grid geometry and overlap checks, as first written


def cell_of_point_reference(grid, x):
    """GridSpec.cell_of_point by `Fraction` bisection over the planes."""
    from bisect import bisect_right

    idx = []
    for j, planes in enumerate(grid.planes):
        c = Fraction(x[j])
        if c < planes[0] or c > planes[-1]:
            return None
        # cells are [plane_i, plane_i+1); the top plane closes the last cell
        idx.append(min(bisect_right(planes, c), grid.shape[j]) - 1)
    return tuple(idx)


def cell_box_reference(grid, idx):
    """GridSpec.cell_box with its corners computed from the widths."""
    from selectorkit.setalg import BasicSet

    w = grid.widths()
    lo = [grid.box.lo[j] + w[j] * idx[j] for j in range(grid.dim)]
    hi = [grid.box.lo[j] + w[j] * (idx[j] + 1) for j in range(grid.dim)]
    closed_hi = [idx[j] == grid.shape[j] - 1 for j in range(grid.dim)]
    return BasicSet.box(lo, hi, [True] * grid.dim, closed_hi)


def locate_reference(F, eps):
    """`locate` at eps written out, as a function of the point: outside the
    closed box, then inside a slab of `plane_witness_reference`, then the
    first cell holding x (a cellwise SVF's cells, or a sampled SVF's grid
    cell, flat)."""
    box = F.domain_box
    slabs = plane_witness_reference(box, svf_planes_reference(F), eps)
    cells = [c for c, _ in F.cells] if F.kind == "cellwise" else None

    def answer(x):
        if first_part_containing([box.closure()], x) is None:
            return "outside_domain", None
        if first_part_containing(slabs, x) is not None:
            return "inside_witness", None
        if cells is not None:
            return None, first_part_containing(cells, x)
        return None, F.grid.flat(F.grid.cell_of_point(x))

    return answer


def grid_planes_reference(grid):
    """A grid's planes lo + i * width / n per axis, i = 0 .. n."""
    box = grid.box
    return [
        [box.lo[j] + (box.hi[j] - box.lo[j]) * i / n for i in range(n + 1)]
        for j, n in enumerate(grid.shape)
    ]


def svf_planes_reference(F):
    """An SVF's witness planes per axis, written out: a sampled SVF's grid
    planes, and for a cellwise SVF `carrier_planes_reference` of its cells."""
    if F.kind == "sampled":
        return grid_planes_reference(F.grid)
    return carrier_planes_reference(F.domain_box, [c for c, _ in F.cells])


def carrier_planes_reference(box, parts):
    """The witness planes of parts in a box, axis by axis and part by part.

    On an axis where the box has positive width, every lower or upper end
    of a part holding a point that lies in [box lo, box hi] is a plane,
    each value once, in increasing order; an axis of zero width has none.
    If every axis has zero width, the box's point is the one plane, on
    the first axis.
    """
    planes = []
    for j in range(box.dim):
        axis = []
        if box.lo[j] < box.hi[j]:
            for p in parts:
                if any(
                    p.lo[k] > p.hi[k]
                    or (p.lo[k] == p.hi[k] and not (p.closed_lo[k] and p.closed_hi[k]))
                    for k in range(p.dim)
                ):
                    continue  # a part without points has no ends
                for e in (p.lo[j], p.hi[j]):
                    if box.lo[j] <= e <= box.hi[j] and e not in axis:
                        axis.append(e)
        planes.append(sorted(axis))
    if all(box.lo[j] == box.hi[j] for j in range(box.dim)):
        planes[0] = [box.lo[0]]
    return planes


def plane_witness_reference(box, planes, eps):
    """The plane witness's slabs, one per plane, with the rule written out.

    eps is shared evenly by the planes; a plane of axis j gets the open
    slab of half-width h_j = min(eps / #planes / (2 prod over k != j of
    (w_k + 1)), smallest gap between adjacent planes / 4, 1/2) around it,
    reaching h_j past the box on every other axis, w_k being the box's
    width on axis k.  With no two planes on any axis there is no gap, and
    only 1/2 caps h_j.  No planes, no slabs.
    """
    from selectorkit.setalg import BasicSet

    eps = Fraction(eps)
    dim = box.dim
    n_planes = sum(len(p) for p in planes)
    if n_planes == 0:
        return []
    widths = [box.hi[k] - box.lo[k] for k in range(dim)]
    gaps = [p[i + 1] - p[i] for p in planes for i in range(len(p) - 1)]
    min_gap = min(gaps) if gaps else Fraction(2)
    slabs = []
    for j in range(dim):
        other = Fraction(1)
        for k in range(dim):
            if k != j:
                other *= widths[k] + 1
        h = min(eps / n_planes / (2 * other), min_gap / 4, Fraction(1, 2))
        for v in planes[j]:
            lo = [box.lo[k] - h if k != j else v - h for k in range(dim)]
            hi = [box.hi[k] + h if k != j else v + h for k in range(dim)]
            slabs.append(BasicSet.open_box(lo, hi))
    return slabs


def straddle_mask_reference(grid, sigma):
    """svf._straddle_mask cell by cell: a cell straddles when its corner
    signs disagree or one of them is zero."""
    import numpy as np

    corner_axes = []
    for j in range(grid.dim):
        lo = float(grid.box.lo[j])
        w = float(grid.widths()[j])
        corner_axes.append(lo + w * np.arange(grid.shape[j] + 1))
    mesh = np.meshgrid(*corner_axes, indexing="ij")
    corners = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    sgn = np.sign(np.asarray(sigma(corners), dtype=float)).reshape(
        [s + 1 for s in grid.shape]
    )
    out = np.zeros(grid.shape, dtype=bool)
    for idx in np.ndindex(*grid.shape):
        vals = sgn[tuple(slice(i, i + 2) for i in idx)].reshape(-1)
        out[idx] = vals.max() != vals.min() or (vals == 0).any()
    return out.reshape(-1)


def first_meeting_pair_reference(sets):
    """The first pair i < j of generalized sets with meeting parts, by
    testing every pair of sets and every pair of their parts."""
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if any(p.intersects(q) for p in sets[i].parts for q in sets[j].parts):
                return i, j
    return None


def grid_step_reference(prev_winner, F, k):
    """The winners of selector._grid_step, walking the whole ball.

    `prev_winner` is the level k - 1 winner array, or None to start from
    the constant f_1.  Every active cell tests all of its lattice-ball
    offsets in lexicographic blocks of 32 and keeps its first admissible
    candidate; a cell that none serves raises CoverageError naming the
    lowest such cell.
    """
    import numpy as np

    from selectorkit.errors import CoverageError
    from selectorkit.selector import _ball_offsets, _f1_value, mesh_shape

    beta = F.beta
    pitch = 2.0 ** -(k + 1)
    nodes = mesh_shape(k, beta)
    eps_accept = 2.0**-k + 2.0 * F.tau
    gap = 2.0 ** -(k - 1)

    if prev_winner is None:
        prev_vals = np.tile([float(c) for c in _f1_value(F)], (F.grid.n_cells, 1))
        prev_ok = np.ones(F.grid.n_cells, dtype=bool)
    else:
        digits = np.unravel_index(np.maximum(prev_winner, 0), mesh_shape(k - 1, beta))
        prev_vals = np.stack(digits, axis=-1) * 2.0**-k
        prev_ok = prev_winner >= 0
    if F.mask is not None:
        prev_ok = prev_ok & F.mask

    offsets = np.array(_ball_offsets(beta))
    winner = np.full(F.grid.n_cells, -1, dtype=np.int64)
    accept2 = eps_accept * eps_accept
    gap2 = gap * gap
    nets_all = F.padded_nets
    nn_all = (nets_all**2).sum(axis=2)
    cells = np.nonzero(prev_ok)[0]
    base = np.rint(prev_vals[cells] / pitch).astype(np.int64)
    todo = np.arange(len(cells))
    for o_lo in range(0, len(offsets), 32):
        if not len(todo):
            break
        prev, nets = prev_vals[cells[todo]], nets_all[cells[todo]]
        digits = base[todo, None, :] + offsets[None, o_lo : o_lo + 32]
        valid = ((digits >= 0) & (digits < nodes)).all(axis=2)
        coords = digits * pitch
        d_prev2 = ((coords - prev[:, None, :]) ** 2).sum(axis=2)
        cc = (coords**2).sum(axis=2)
        cross = coords @ nets.transpose(0, 2, 1)
        d_net2 = (cc[:, :, None] + nn_all[cells[todo]][:, None, :] - 2.0 * cross).min(axis=2)
        ok = valid & (d_prev2 < gap2) & (d_net2 < accept2)
        hit = ok.any(axis=1)
        first = np.argmax(ok[hit], axis=1)
        winner[cells[todo[hit]]] = np.ravel_multi_index(digits[hit, first].T, nodes)
        todo = todo[~hit]
    if len(todo):
        idx = F.grid.unflat(int(cells[todo[0]]))
        raise CoverageError(
            f"mesh guarantee fails at level {k} on cell {idx}: "
            "sampled slack too coarse or value set unreachable",
            region=F.grid.cell_box(idx),
        )
    return winner


def projection_reference(net, target):
    """The point of one (m, d) net nearest to the target; ties take the
    lowest index."""
    import numpy as np

    d = np.linalg.norm(net - np.atleast_1d(target), axis=1)
    return net[int(np.argmin(d))]


def filippov_iterate_reference(prob, grid_step=0.01, max_iter=50, tol=1e-6):
    """inclusion.filippov_iterate, projecting one grid point at a time.

    Each point's net, reference value and reference derivative come from
    their own one-row calls of the oracles, so no padding enters; the
    sweep, the quadrature, the residual and the certificate are written
    out as the solver's.
    """
    import numpy as np

    from selectorkit.errors import InhabitednessError
    from selectorkit.inclusion import DITrajectory, _cumtrapz, _grid, xi_profile

    times = _grid(prob.T, grid_step)
    h = float(grid_step)
    n, d = len(times), len(prob.x0)

    g_vals = np.array([prob.g(times[j : j + 1])[0] for j in range(n)])
    x_cur = g_vals + (prob.x0 - g_vals[0])
    xdot_cur = np.array([prob.g_dot(times[j : j + 1])[0] for j in range(n)])
    residuals, converged, v = [], False, xdot_cur
    for _ in range(max_iter):
        v = np.empty((n, d))
        for j in range(n):
            net = np.asarray(prob.field_net(times[j : j + 1], x_cur[j : j + 1]), dtype=float)[0]
            if net.size == 0:
                raise InhabitednessError(f"empty value net at t={times[j]}, x={x_cur[j]}")
            v[j] = projection_reference(net, xdot_cur[j])
        x_next = prob.x0 + _cumtrapz(v, h)
        residual = float(np.abs(x_next - x_cur).max())
        residuals.append(residual)
        x_cur, xdot_cur = x_next, v
        if residual < tol:
            converged = True
            break

    xi = xi_profile(prob.delta, prob.kappa, prob.p, times)
    dv = np.abs(np.diff(v, axis=0)).sum(axis=1)
    tv = np.concatenate([[0.0], np.cumsum(dv)])
    quad_slack = 0.25 * h * tv + h * h * (1.0 + np.abs(xi)) + prob.tau * times
    gap = np.linalg.norm(x_cur - g_vals, axis=1)
    margin = float((xi + quad_slack - gap).min())
    return DITrajectory(
        times=times,
        states=x_cur,
        selector_values=v,
        xi=xi,
        quad_slack=quad_slack,
        residuals=residuals,
        iterations=len(residuals),
        converged=converged,
        certified=bool(converged and margin >= 0.0),
        tube_margin=margin,
    )
