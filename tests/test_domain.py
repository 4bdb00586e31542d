import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectorkit.domain import (
    PiecewiseConstantMap,
    RepresentabilityWitness,
    RepresentableDomain,
    check_weak_finite_adjacency,
    continuous_extension,
    decide_clauses,
    disjointify_witness,
    domain_from_json,
    domain_to_json,
    intersect_domains,
    make_witness,
    reduce_domain,
    termwise_intersect_domains,
    well_containment_margin,
    WitnessError,
    _separating_faces,
    _thinnest_side,
)
from selectorkit.errors import InputError
from selectorkit.setalg import (
    BasicSet,
    GeneralizedBasicSet,
    SetAlgebraError,
    SetSequence,
)
from selectorkit.svf import GridSpec, grid_plane_witness

from oracles import adjacency_reference, margin_reference

F = Fraction


def unit_interval_domain(cut=F(1, 2)):
    """[0,1] tiled as [0,cut] and (cut,1]."""
    ambient = BasicSet.closed_box([0], [1])
    cells = [
        BasicSet.interval(0, cut, True, True),
        BasicSet.interval(cut, 1, False, True),
    ]
    return RepresentableDomain.from_cells(cells, ambient)


def square_domain(nx=2, ny=2):
    ambient = BasicSet.closed_box([0, 0], [1, 1])
    cells = []
    for i in range(nx):
        for j in range(ny):
            lo = [F(i, nx), F(j, ny)]
            hi = [F(i + 1, nx), F(j + 1, ny)]
            cells.append(
                BasicSet.box(
                    lo,
                    hi,
                    [i == 0, j == 0],
                    [True, True],
                )
            )
    return RepresentableDomain.from_cells(cells, ambient)


# ---------------------------------------------------------------------------
# make_witness


def test_witness_geometric_budget_three_point_cover():
    """The three endpoint slabs take eps/2, eps/4 and eps/8 in plane order."""
    seq = SetSequence.of(
        [
            BasicSet.interval(0, F(1, 2), True, True),
            BasicSet.interval(F(1, 2), 1, False, True),
        ],
        "rowmajor",
    )
    ambient = BasicSet.closed_box([0], [1])
    m = make_witness(seq, ambient, F(3, 10))
    got = sorted((p.lo[0], p.hi[0]) for p in m.parts)
    assert got == [
        (F(-3, 40), F(3, 40)),
        (F(37, 80), F(43, 80)),
        (F(157, 160), F(163, 160)),
    ]
    assert m.measure() == F(21, 80)


def test_from_cells_rejects_cell_of_other_dimension():
    ambient = BasicSet.closed_box([0, 0], [1, 1])
    square, segment = BasicSet.closed_box([0, 0], [1, 1]), BasicSet.closed_box([0], [1])
    for cells in ([segment], [square, segment]):
        with pytest.raises(SetAlgebraError):
            RepresentableDomain.from_cells(cells, ambient)


def test_witness_empty_gamma():
    seq = SetSequence((GeneralizedBasicSet.empty(1),), "rowmajor")
    ambient = BasicSet.closed_box([0], [1])
    assert make_witness(seq, ambient, F(1, 10)).is_empty


def test_witness_budget_halves():
    dom = unit_interval_domain()
    m1 = dom.witness(F(3, 10))
    m2 = dom.witness(F(3, 20))
    assert m2.measure() * 2 == m1.measure()
    assert dom.verify(F(3, 10)).ok and dom.verify(F(3, 20)).ok


def test_witness_geometric_measure_under_budget():
    dom = unit_interval_domain()
    for eps in (F(1, 4), F(1, 16), F(1, 64)):
        m = dom.witness(eps)
        assert 0 < m.measure() <= eps


def test_witness_noncovering_carrier_rejected():
    # carrier misses (1/2, 1]: ambient minus any small witness sticks out
    ambient = BasicSet.closed_box([0], [1])
    cells = [BasicSet.interval(0, F(1, 2), True, True)]
    with pytest.raises(WitnessError):
        make_witness(
            SetSequence.of([GeneralizedBasicSet.of(cells, dim=1)]),
            ambient,
            F(1, 100),
        )


def test_witness_2d_grid_domain_passes_def6():
    dom = square_domain(2, 2)
    cert = dom.verify(F(1, 10))
    assert cert.ok
    assert cert.margin > 0
    assert cert.witness_measure <= F(1, 10)


def test_witness_3d_domain_passes_def6():
    ambient = BasicSet.closed_box([0, 0, 0], [1, 1, 1])
    cells = [
        BasicSet.box([0, 0, 0], [F(1, 2), 1, 1], [True] * 3, [True] * 3),
        BasicSet.box([F(1, 2), 0, 0], [1, 1, 1], [False, True, True], [True] * 3),
    ]
    dom = RepresentableDomain.from_cells(cells, ambient)
    cert = dom.verify(F(1, 8))
    assert cert.ok


def test_witness_margin_failure_makes_one_margin_search(monkeypatch):
    # the carrier pokes out of the ambient, so its endpoint 3/2 lies
    # outside every clipped slab and no margin exists
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return well_containment_margin(*args, **kwargs)

    monkeypatch.setattr("selectorkit.domain.well_containment_margin", counted)
    carrier = GeneralizedBasicSet.of([BasicSet.closed_box([F(1, 2)], [F(3, 2)])])
    with pytest.raises(WitnessError, match="positive well-containment margin"):
        make_witness(carrier, BasicSet.closed_box([0], [1]), F(1, 10))
    assert len(calls) == 1


def test_verify_decides_each_domains_clauses_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return well_containment_margin(*args, **kwargs)

    monkeypatch.setattr("selectorkit.domain.well_containment_margin", counted)
    eps = F(1, 10)

    def fresh(dom):
        m = dom.witness(eps)
        return decide_clauses(dom.carrier_gbs(), dom.ambient, m, eps, dom.coverage)

    # from_cells: witness(eps) decides once, verify reads that certificate
    dom = square_domain()
    dom.witness(eps)
    cert = dom.verify(eps)
    assert len(calls) == 1
    # a reduction that cuts no part leaves an equal carrier: same certificate
    red = reduce_domain(dom)
    assert red.carrier_gbs() == dom.carrier_gbs()
    assert red.verify(eps) == cert and len(calls) == 1
    assert cert == fresh(dom) == fresh(red)
    # a reduction that cuts parts decides for its own carrier
    cells = [
        BasicSet.interval(0, F(3, 4), True, True),
        BasicSet.interval(F(1, 4), 1, True, True),
    ]
    overlap = RepresentableDomain.from_cells(cells, BasicSet.closed_box([0], [1]))
    overlap.verify(eps)
    red = reduce_domain(overlap)
    assert red.carrier_gbs() != overlap.carrier_gbs()
    n = len(calls)
    got = red.verify(eps)
    assert len(calls) == n + 1
    assert got == fresh(red)
    # an intersection has its own carrier and a union witness
    inter = intersect_domains(unit_interval_domain(), unit_interval_domain(F(1, 4)))
    assert inter.verify(eps) == fresh(inter)


SIXTEENTHS = [F(k, 16) for k in range(17)]


@st.composite
def carriers_inside_unit_box(draw):
    """Unions of 1-3 boxes with corners on the 1/16 grid inside [0,1]^d.

    Parts may overlap, and a zero width makes an axis degenerate.
    """
    dim = draw(st.integers(1, 3))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = [], []
        for _ in range(dim):
            a, b = sorted(draw(st.tuples(*[st.sampled_from(SIXTEENTHS)] * 2)))
            lo.append(a)
            hi.append(b)
        flags = st.tuples(*[st.booleans()] * dim)
        parts.append(BasicSet(dim, tuple(lo), tuple(hi), draw(flags), draw(flags)))
    return GeneralizedBasicSet.of(parts, dim=dim)


@given(carriers_inside_unit_box())
@settings(max_examples=100, deadline=None)
def test_witness_margin_holds_for_carriers_inside_ambient(carrier):
    ambient = BasicSet.closed_box([0] * carrier.dim, [1] * carrier.dim)
    eps = F(1, 10)
    try:
        make_witness(carrier, ambient, eps, coverage="ambient")
    except WitnessError as e:
        assert "well-containment margin" not in str(e)
    m = make_witness(carrier, ambient, eps, coverage="closure")
    if m.is_empty:
        assert not carrier.gamma
    else:
        assert well_containment_margin(carrier.gamma, m) == _thinnest_side(m) / 4


# ---------------------------------------------------------------------------
# disjointify


def test_disjointify_two_overlapping_intervals():
    m = GeneralizedBasicSet.of(
        [
            BasicSet.interval(0, 2, False, False),
            BasicSet.interval(1, 3, False, False),
        ],
        dim=1,
    )
    out = disjointify_witness(m)
    got = sorted(
        (p.lo[0], p.hi[0], p.closed_lo[0], p.closed_hi[0]) for p in out.parts
    )
    assert got == [(0, 2, False, False), (2, 3, True, False)]


def test_disjointify_disjoint_unchanged():
    m = GeneralizedBasicSet.of(
        [BasicSet.interval(0, 1, False, False), BasicSet.interval(2, 3, False, False)],
        dim=1,
    )
    assert disjointify_witness(m) == m


def test_disjointify_empty():
    m = GeneralizedBasicSet.empty(2)
    assert disjointify_witness(m).is_empty


def test_disjointify_keeps_interior():
    # M \ Gamma_M is inside the reduction
    m = GeneralizedBasicSet.of(
        [
            BasicSet.interval(0, 2, False, False),
            BasicSet.interval(1, 3, False, False),
        ],
        dim=1,
    )
    out = disjointify_witness(m)
    interior = m.subtract(
        GeneralizedBasicSet.of(
            [BasicSet.singleton([c]) for f in m.gamma for c in (f.lo[0],)], dim=1
        )
    )
    assert interior.subtract(out).is_empty


# ---------------------------------------------------------------------------
# closure properties of representable domains


def _random_tiling_domain(rng: random.Random, dim: int) -> RepresentableDomain:
    ambient = BasicSet.closed_box([0] * dim, [1] * dim)
    cuts_per_axis = []
    for _ in range(dim):
        k = rng.randint(0, 2)
        cuts = sorted({F(rng.randint(1, 15), 16) for _ in range(k)})
        cuts_per_axis.append([F(0)] + cuts + [F(1)])
    cells = []

    def rec(j, lo_acc, hi_acc, clo_acc):
        if j == dim:
            cells.append(
                BasicSet.box(lo_acc, hi_acc, clo_acc, [True] * dim)
            )
            return
        cs = cuts_per_axis[j]
        for a, b in zip(cs, cs[1:]):
            rec(j + 1, lo_acc + [a], hi_acc + [b], clo_acc + [a == 0])

    rec(0, [], [], [])
    return RepresentableDomain.from_cells(cells, ambient)


def test_closure_reduction_of_domain_is_representable():
    rng = random.Random(5)
    for _ in range(5):
        dom = _random_tiling_domain(rng, rng.choice([1, 2]))
        red = reduce_domain(dom)
        cert = red.verify(F(1, 12))
        assert cert.ok


def test_closure_intersection_is_representable():
    rng = random.Random(11)
    for _ in range(5):
        dim = rng.choice([1, 2])
        d1 = _random_tiling_domain(rng, dim)
        d2 = _random_tiling_domain(rng, dim)
        inter = intersect_domains(d1, d2)
        cert = inter.verify(F(1, 10))
        assert cert.margin is not None
        assert cert.witness_measure <= F(1, 10)
        assert cert.covers_complement


def test_closure_termwise_intersection():
    # X1 term-wise inside X2 so the X1 <= X~ precondition holds
    ambient = BasicSet.closed_box([0], [1])
    inner = [
        BasicSet.interval(0, F(1, 2), True, True),
        BasicSet.interval(F(1, 2), 1, False, True),
    ]
    outer = [
        BasicSet.interval(0, F(3, 4), True, True),
        BasicSet.interval(F(1, 4), 1, True, True),
    ]
    d1 = RepresentableDomain.from_cells(inner, ambient)
    d2 = RepresentableDomain.from_cells(outer, ambient)
    tw = termwise_intersect_domains(d1, d2)
    assert tw.carrier_gbs().subtract(d1.carrier_gbs()).is_empty
    assert d1.carrier_gbs().subtract(tw.carrier_gbs()).is_empty
    cert = tw.verify(F(1, 10))
    assert cert.margin is not None and cert.covers_complement


def test_termwise_precondition_violation():
    ambient = BasicSet.closed_box([0], [1])
    d1 = unit_interval_domain()
    shifted = [
        BasicSet.interval(0, F(1, 4), True, True),
        BasicSet.interval(F(3, 4), 1, True, True),
    ]
    d2 = RepresentableDomain.from_cells(shifted, ambient)
    with pytest.raises(WitnessError):
        termwise_intersect_domains(d1, d2)


# ---------------------------------------------------------------------------
# piecewise-constant maps and extension


def desk_map() -> PiecewiseConstantMap:
    dom = unit_interval_domain()
    q1, q2 = (dom.carrier.items[0], dom.carrier.items[1])
    return PiecewiseConstantMap(
        pieces=((q1, (F(0),)), (q2, (F(1),))), domain=dom
    )


def test_pcm_validate_and_eval():
    f = desk_map()
    f.validate()
    assert f.value_at([F(1, 4)]) == (0,)
    assert f.value_at([F(3, 4)]) == (1,)
    assert f.value_at([F(2)]) is None


def test_pcm_validate_names_the_first_overlapping_pair():
    dom = unit_interval_domain()
    q1, q2 = dom.carrier.items
    # the point 1/2 lies in piece 1, [0, 1/2], but not in piece 0, (1/2, 1]
    seam = GeneralizedBasicSet.of([BasicSet.singleton([F(1, 2)])])
    pieces = ((q2, (F(1),)), (q1, (F(0),)), (seam, (F(1, 2),)))
    with pytest.raises(WitnessError, match="pieces 1 and 2 overlap"):
        PiecewiseConstantMap(pieces=pieces, domain=dom).validate()


def test_extension_constant_map():
    dom = unit_interval_domain()
    f = PiecewiseConstantMap(
        pieces=tuple((q, (F(1, 4),)) for q in dom.carrier.items), domain=dom
    )
    g = continuous_extension(f, F(1, 10))
    assert g.exception.is_empty
    assert g([0.3]) == (0.25,)


def test_extension_1d_ramp():
    f = desk_map()
    g = continuous_extension(f, F(1, 10))
    assert g.exception.measure() <= F(1, 10)
    # ramp region straddles 1/2; outside it g equals f bit-for-bit
    for x in [F(1, 8), F(1, 4), F(2, 5)]:
        if not g.exception.contains([x]):
            assert g([x]) == (0.0,)
    for x in [F(3, 5), F(7, 8)]:
        if not g.exception.contains([x]):
            assert g([x]) == (1.0,)
    # continuity: small steps move g by at most L*h + slack
    lo, hi = 0.0, 1.0
    prev = g([lo])[0]
    h = 1e-3
    x = lo
    while x < hi:
        x = min(x + h, hi)
        cur = g([x])[0]
        assert abs(cur - prev) <= g.lipschitz * h * 1.01 + 1e-12
        prev = cur


def test_extension_1d_matches_f_on_grid():
    f = desk_map()
    g = continuous_extension(f, F(1, 10))
    mismatches = 0
    for i in range(1000):
        x = F(i, 999)
        if g.exception.contains([x]):
            continue
        fx = f.value_at([x])
        if fx is None:
            continue
        gx = g([x])
        mismatches += gx != tuple(float(c) for c in fx)
    assert mismatches == 0


def test_extension_2d_blend():
    dom = square_domain(2, 1)
    q1, q2 = dom.carrier.items
    f = PiecewiseConstantMap(pieces=((q1, (F(0),)), (q2, (F(1),))), domain=dom)
    f.validate()
    g = continuous_extension(f, F(1, 10))
    assert g.exception.measure() <= F(1, 10)
    # bit-equal off the exception set
    rng = random.Random(3)
    for _ in range(300):
        x = (F(rng.randint(0, 256), 256), F(rng.randint(0, 256), 256))
        if g.exception.contains(x):
            continue
        fx = f.value_at(x)
        if fx is None:
            continue
        assert g(x) == tuple(float(c) for c in fx)
    # continuity probe
    for _ in range(200):
        x = [rng.uniform(0, 1), rng.uniform(0, 1)]
        h = 1e-4
        y = [min(1.0, x[0] + h), x[1]]
        assert abs(g(x)[0] - g(y)[0]) <= g.lipschitz * h * 1.5 + 1e-12


def test_adjacency_check_passes_on_tiling():
    dom = square_domain(2, 2)
    report = check_weak_finite_adjacency(dom, delta=F(1, 8))
    assert report.ok


def test_adjacency_check_reports_hole():
    # carrier covers only the left quarter; probe cells on the right are
    # unreachable by any delta-inflated part
    ambient = BasicSet.closed_box([0, 0], [1, 1])
    cells = [BasicSet.box([0, 0], [F(1, 4), 1], [True, True], [True, True])]
    seq = SetSequence.of([GeneralizedBasicSet.of(cells, dim=2)], "rowmajor")
    from selectorkit.domain import RepresentabilityWitness

    thin = GeneralizedBasicSet.of(
        [BasicSet.open_box([F(-1, 64), F(-1, 64)], [F(1, 64), F(65, 64)])], dim=2
    )
    dom = RepresentableDomain(seq, ambient, RepresentabilityWitness(lambda eps: thin))
    report = check_weak_finite_adjacency(dom, delta=F(1, 16))
    assert not report.ok
    assert report.offending_cell is not None


def test_adjacency_default_delta_with_degenerate_witness():
    # a measure-zero witness passes the budget but has no side to halve
    dom = square_domain(2, 2)
    point = GeneralizedBasicSet.of([BasicSet.singleton([F(1, 2), F(1, 2)])], dim=2)
    dom = RepresentableDomain(
        dom.carrier, dom.ambient, RepresentabilityWitness(lambda eps: point)
    )
    report = check_weak_finite_adjacency(dom)
    assert report.delta == F(1, 8)
    assert report.ok


@st.composite
def probed_tilings(draw):
    """A domain on a random tiling of the unit box and a probe delta.

    Each axis is cut at 0-2 random sixteenths; every cell of the grid is
    kept or dropped and gets mixed closure flags, so holes, gaps at open
    faces and full covers all occur.  The witness is one thin open slab,
    so the default delta is 1/32 where no delta is drawn.
    """
    dim = draw(st.integers(1, 3))
    axes = []
    for _ in range(dim):
        cuts = draw(st.lists(st.integers(1, 15), max_size=2, unique=True))
        axes.append([F(0), *sorted(F(c, 16) for c in cuts), F(1)])
    flags = st.tuples(*[st.booleans()] * dim)
    cells = []
    for idx in itertools.product(*[range(len(a) - 1) for a in axes]):
        if draw(st.integers(0, 5)) == 0:
            continue
        lo = [a[i] for a, i in zip(axes, idx)]
        hi = [a[i + 1] for a, i in zip(axes, idx)]
        cells.append(BasicSet(dim, tuple(lo), tuple(hi), draw(flags), draw(flags)))
    ambient = BasicSet.closed_box([0] * dim, [1] * dim)
    slab = GeneralizedBasicSet.of(
        [BasicSet.open_box([F(-1, 32)] + [F(0)] * (dim - 1), [F(1, 32)] + [F(1)] * (dim - 1))],
        dim=dim,
    )
    seq = SetSequence.of([GeneralizedBasicSet.of(cells, dim=dim)], "rowmajor")
    dom = RepresentableDomain(seq, ambient, RepresentabilityWitness(lambda eps: slab))
    # in 3-D only coarse probes: at most 4**3 cells
    deltas = [F(1, 3), F(1, 4)] + ([None, F(1, 8)] if dim < 3 else [])
    return dom, draw(st.sampled_from(deltas))


@given(probed_tilings())
@settings(max_examples=150, deadline=None)
def test_adjacency_matches_recursive_reference_hypothesis(case):
    dom, delta = case
    assert check_weak_finite_adjacency(dom, delta) == adjacency_reference(dom, delta)


# ---------------------------------------------------------------------------
# well-containment margin


def test_margin_none_when_every_witness_part_is_degenerate():
    dom = unit_interval_domain()
    points = GeneralizedBasicSet.of(
        [BasicSet.singleton([c]) for c in (0, F(1, 2), 1)], dim=1
    )
    dom = RepresentableDomain(
        dom.carrier, dom.ambient, RepresentabilityWitness(lambda eps: points)
    )
    assert well_containment_margin(list(dom.carrier.gamma()), points) is None
    cert = dom.verify(F(1, 10))
    assert cert.margin is None and not cert.ok


def test_margin_thickness_skips_degenerate_witness_parts():
    # r0 comes from the open part alone: a quarter of its width 1/4
    m = GeneralizedBasicSet.of(
        [BasicSet.open_box([F(-1, 8)], [F(1, 8)]), BasicSet.singleton([1])], dim=1
    )
    assert well_containment_margin([BasicSet.singleton([0])], m) == F(1, 16)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_margin_halves_explicit_r0(dim, k):
    # r verifies exactly when r < 1/8, so r0 = 2**k / 16 halves k times
    face = BasicSet.closed_box([0] * dim, [0] + [1] * (dim - 1))
    m = GeneralizedBasicSet.of(
        [BasicSet.open_box([F(-1, 8)] * dim, [F(1, 8)] + [F(9, 8)] * (dim - 1))],
        dim=dim,
    )
    r0 = F(2**k, 16)
    assert well_containment_margin([face], m, r0=r0) == r0 / 2**k
    assert well_containment_margin([face], m, r0=r0, max_halvings=k + 1) == r0 / 2**k
    assert well_containment_margin([face], m, r0=r0, max_halvings=k) is None


QUARTERS = [F(k, 4) for k in range(-2, 7)]


@st.composite
def witnesses_with_faces(draw):
    """A witness glued from grid cells, and 1-2 closed faces, in dim 1-3.

    Each cell of a grid over [0,1]^d (cut at quarters, at most 8 cells)
    is dropped, kept as an open box or kept with mixed closure flags.
    Up to two extra parts overlap them: a seam between cells (a
    degenerate part) or a box on the quarter grid, open or with mixed
    flags.  Each face is a cell center, a seam, a seam's center or a
    closed box on the quarter grid, which may lie outside M.
    """
    dim = draw(st.integers(1, 3))

    def mixed(b):
        # a degenerate axis stays closed, so the part is not empty
        ends = [
            tuple(draw(st.booleans()) or l == h for l, h in zip(b.lo, b.hi))
            for _ in range(2)
        ]
        return BasicSet(dim, b.lo, b.hi, *ends)

    def quarter_box():
        lo = [draw(st.sampled_from(QUARTERS)) for _ in range(dim)]
        return BasicSet.closed_box(lo, [a + F(draw(st.integers(0, 4)), 4) for a in lo])

    def center(b):
        return BasicSet.singleton([(l + h) / 2 for l, h in zip(b.lo, b.hi)])

    cut_sets = st.sets(st.sampled_from(QUARTERS[3:6]), max_size=4 - dim)
    axes = [[F(0), *sorted(draw(cut_sets)), F(1)] for _ in range(dim)]
    cells = [BasicSet.closed_box([a], [b]) for a, b in zip(axes[0], axes[0][1:])]
    for cuts in axes[1:]:
        cells = [
            BasicSet.closed_box([*c.lo, a], [*c.hi, b])
            for c in cells
            for a, b in zip(cuts, cuts[1:])
        ]
    cell_faces = [f for c in cells for f in c.faces()]
    seams = [
        f for f in cell_faces if any(l == h and 0 < l < 1 for l, h in zip(f.lo, f.hi))
    ] or cell_faces
    parts = []
    for c in cells:
        kind = draw(st.sampled_from(["drop", "open", "open", "open", "mixed"]))
        if kind != "drop":
            parts.append(c.interior_open() if kind == "open" else mixed(c))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            parts.append(mixed(draw(st.sampled_from(seams))))
        else:
            b = quarter_box()
            parts.append(draw(st.sampled_from([b.interior_open(), mixed(b)])))
    faces = []
    for _ in range(draw(st.integers(1, 2))):
        f = draw(st.sampled_from(seams))
        c = draw(st.sampled_from(cells))
        faces.append(
            draw(st.sampled_from([center(c), center(f), center(f), f, quarter_box()]))
        )
    return GeneralizedBasicSet.of(parts, dim=dim), faces


@given(witnesses_with_faces())
@settings(max_examples=200, deadline=None)
def test_margin_matches_essential_gamma_reference_hypothesis(case):
    m, faces = case
    want = margin_reference(faces, m, 3)
    assert well_containment_margin(faces, m, max_halvings=3) == want


def test_built_witnesses_are_all_open():
    # the margin search of every witness the package builds meets no face
    eps = F(1, 10)
    rng = random.Random(3)
    tilings = [_random_tiling_domain(rng, dim) for dim in (1, 2, 3)]
    witnesses = [d.witness(eps) for d in [square_domain(), *tilings]]
    grid = GridSpec(BasicSet.closed_box([0, 0], [1, 1]), (3, 4))
    witnesses.append(grid_plane_witness(grid, eps))
    witnesses.append(intersect_domains(tilings[1], square_domain()).witness(eps))
    for m in witnesses:
        assert m.parts and all(p.kind == "open-box" for p in m.parts)
        assert _separating_faces(m).is_empty


def test_margin_with_shut_parts_matches_reference():
    # one closed part across an open slab: its faces on the slab's sides
    # stay in S, and the face on the slab's axis clears them at r0 = 1/32
    slab = BasicSet.open_box([F(-1, 8), F(-1, 8)], [F(1, 8), F(9, 8)])
    shut = BasicSet.closed_box([F(-1, 8), F(1, 2)], [F(1, 8), F(5, 8)])
    m = GeneralizedBasicSet.of([slab, shut], dim=2)
    face = BasicSet.closed_box([0, 0], [0, 1])
    assert not _separating_faces(m).is_empty
    assert well_containment_margin([face], m) == margin_reference([face], m, 40)
    assert well_containment_margin([face], m) == F(1, 32)
    # a segment glued between two open squares: the squares' shared face,
    # not the segment's end points, keeps the margin undecided
    m = GeneralizedBasicSet.of(
        [
            BasicSet.open_box([0, 0], [1, 1]),
            BasicSet.open_box([0, -1], [1, 0]),
            BasicSet.closed_box([0, 0], [1, 0]),
        ],
        dim=2,
    )
    face = BasicSet.singleton([F(1, 2), 0])
    assert well_containment_margin([face], m) is None
    assert margin_reference([face], m, 40) is None


# ---------------------------------------------------------------------------
# serialization


def test_domain_json_roundtrip():
    dom = unit_interval_domain()
    back = domain_from_json(domain_to_json(dom))
    assert back.carrier == dom.carrier
    assert back.ambient == dom.ambient
    assert back.verify(F(1, 10)).ok


def test_domain_json_names_no_budget_rule_and_refuses_other_rules():
    obj = domain_to_json(unit_interval_domain())
    assert "witness_budget_rule" not in obj
    back = domain_from_json(dict(obj, witness_budget_rule="geometric"))
    assert back.verify(F(1, 10)).ok
    with pytest.raises(InputError, match="'equal'"):
        domain_from_json(dict(obj, witness_budget_rule="equal"))


def test_witness_distance_oracle():
    # located witnesses expose an exact box-distance oracle
    dom = square_domain(2, 2)
    eps = F(1, 10)
    m = dom.witness(eps)
    d = dom.witness.distance([F(1, 4), F(1, 4)], eps)
    assert d >= 0
    # a point on gamma lies inside the witness
    assert dom.witness.distance([F(1, 2), F(1, 4)], eps) == 0.0
    # consistency with the generalized-set distance
    from selectorkit.setalg import dist_point_set

    assert d == dist_point_set([F(1, 4), F(1, 4)], m)
