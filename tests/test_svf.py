import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selectorkit.errors import (
    DomainPointError,
    InhabitednessError,
    InputError,
    PrecisionError,
)
from selectorkit.domain import decide_clauses, well_containment_margin
from selectorkit.setalg import BasicSet, GeneralizedBasicSet, SetAlgebraError
from selectorkit.svf import (
    AffineRangeMap,
    GridSpec,
    SampledSVF,
    build_cellwise_svf,
    build_sampled_svf,
    cellwise_svf_from_json,
    cellwise_svf_to_json,
    filippov_regularize,
    grid_plane_witness,
    sublevel_domains,
    svf_distance,
    symmetric_range_box,
)
from selectorkit.svf import _straddle_mask

from oracles import (
    cell_box_reference,
    cell_of_point_reference,
    grid_plane_witness_reference,
    straddle_mask_reference,
    sublevel_reference,
)

F = Fraction


def gv(*points):
    """Value set made of singleton atoms."""
    return GeneralizedBasicSet.of(
        [BasicSet.singleton([F(p) if not isinstance(p, tuple) else p]) for p in points],
        dim=1,
    )


def desk_svf():
    """F(x) = {1/4} on [0,1/2], {1/4, 3/4} on (1/2,1]."""
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F(1, 2), True, True), gv(F(1, 4))),
        (BasicSet.interval(F(1, 2), 1, False, True), gv(F(1, 4), F(3, 4))),
    ]
    return build_cellwise_svf(box, cells)


# ---------------------------------------------------------------------------
# build / validation


def test_build_desk_svf():
    f = desk_svf()
    assert f.beta == 1 and f.alpha == 1
    assert f.range_map.lo == (0,) and f.range_map.hi == (1,)


def test_build_rejects_empty_value_set():
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F(1, 2), True, True), gv(F(1, 4))),
        (BasicSet.interval(F(1, 2), 1, False, True), GeneralizedBasicSet.empty(1)),
    ]
    with pytest.raises(InhabitednessError):
        build_cellwise_svf(box, cells)


def test_build_rejects_gaps_and_overlaps():
    box = BasicSet.closed_box([0], [1])
    with pytest.raises(InputError):
        build_cellwise_svf(
            box, [(BasicSet.interval(0, F(1, 2), True, True), gv(F(1, 4)))]
        )
    with pytest.raises(InputError):
        build_cellwise_svf(
            box,
            [
                (BasicSet.interval(0, F(3, 4), True, True), gv(F(1, 4))),
                (BasicSet.interval(F(1, 2), 1, True, True), gv(F(1, 4))),
            ],
        )


# ---------------------------------------------------------------------------
# distance


def test_distance_member_point():
    f = desk_svf()
    assert svf_distance(f, [F(1, 4)], [F(1, 4)]) == 0.0


def test_distance_scalar():
    f = desk_svf()
    assert svf_distance(f, [F(3, 8)], [F(1, 4)]) == pytest.approx(0.125)


def test_distance_min_over_atoms():
    f = desk_svf()
    assert svf_distance(f, [F(7, 10)], [F(4, 5)]) == pytest.approx(0.05)


def test_distance_outside_domain():
    f = desk_svf()
    with pytest.raises(DomainPointError):
        svf_distance(f, [F(1, 4)], [F(2)])


def test_distance_matches_bruteforce_sampling():
    rng = random.Random(9)
    f = desk_svf()
    for _ in range(100):
        r = F(rng.randint(0, 1000), 1000)
        x = F(rng.randint(0, 1000), 1000)
        vals = f.value_set([x])
        brute = min(
            abs(float(r) - float(p.lo[0]) - k * 1e-4)
            for p in vals.parts
            for k in range(int(float(p.hi[0] - p.lo[0]) / 1e-4) + 1)
        )
        assert svf_distance(f, [r], [x]) <= brute + 1e-4


# ---------------------------------------------------------------------------
# sublevel domains (cellwise)


def test_sublevel_desk_example():
    f = desk_svf()
    fam = sublevel_domains(f, [[0], [F(1, 4)], [F(1, 2)]], F(1, 4))
    # r = 1/4 is within 1/4 of both cells' value sets -> full domain
    assert fam.cell_indices[1] == (0, 1)
    # r = 0 accepted where dist <= 1/4: both cells contain atom 1/4
    assert fam.cell_indices[0] == (0, 1)
    # r = 1/2: cell 0 dist 1/4 (ok), cell 1 dist 1/4 (ok)
    assert fam.cell_indices[2] == (0, 1)
    strict = sublevel_domains(f, [[0]], F(1, 4), strict=True)
    assert strict.cell_indices[0] == ()


def test_sublevel_saturation():
    f = desk_svf()
    fam = sublevel_domains(f, [[F(1, 2)]], F(10))
    dom = fam.domains[0]
    assert dom.carrier_gbs().subtract(
        GeneralizedBasicSet.of([f.domain_box], dim=1)
    ).is_empty
    assert fam.union_domain.verify(F(1, 10)).ok


def test_sublevel_all_empty():
    f = desk_svf()
    fam = sublevel_domains(f, [[F(-5)], [F(5)]], F(1, 8))
    assert all(ix == () for ix in fam.cell_indices)
    # an empty union keeps the SVF's one witness, and nothing of it to cover
    assert fam.union_domain.carrier_gbs().is_empty
    assert fam.union_domain.witness is f.witness
    assert fam.union_domain.verify(F(1, 10)).ok


def test_cellwise_sublevel_verify_reads_the_witness_certificate(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return well_containment_margin(*args, **kwargs)

    monkeypatch.setattr("selectorkit.domain.well_containment_margin", counted)
    dom = desk_svf().cell_domain
    eps = F(1, 12)
    m = dom.witness(eps)
    cert = dom.verify(eps)
    assert not m.is_empty and len(calls) == 1
    assert cert == decide_clauses(dom.carrier_gbs(), dom.ambient, m, eps, "closure")


def test_sublevel_domains_pass_def6():
    f = desk_svf()
    fam = sublevel_domains(f, [[F(1, 4)], [F(3, 4)]], F(1, 8))
    for dom, idxs in zip(fam.domains, fam.cell_indices):
        if idxs:
            assert dom.verify(F(1, 12)).ok
    # soundness: accepted points satisfy the distance bound
    rng = random.Random(4)
    for dom, r in zip(fam.domains, fam.centers):
        for _ in range(200):
            x = F(rng.randint(0, 512), 512)
            if dom.contains([x]):
                assert svf_distance(f, r, [x]) <= 0.125 + 1e-12


# ---------------------------------------------------------------------------
# sampled SVFs


@pytest.mark.parametrize(
    "lo, hi, shape, match",
    [
        ([0, 0], [1, 1], (4,), "axes"),
        ([0], [1], (4, 4), "axes"),
        ([0, 0], [1, 1], (4, 0), "without cells"),
        ([0], [1], (-2,), "without cells"),
        ([0, 1], [1, 1], (4, 4), "positive width"),
        ([1], [0], (4,), "positive width"),
    ],
)
def test_grid_spec_refuses_a_grid_without_cells(lo, hi, shape, match):
    with pytest.raises(InputError, match=match):
        GridSpec(BasicSet.closed_box(lo, hi), shape)


def test_sampled_build_and_tau():
    grid = GridSpec(BasicSet.closed_box([0], [1]), (8,))

    def sampler(centers):
        return [np.array([[float(c[0])]]) for c in centers]

    svf = build_sampled_svf(grid, sampler)
    assert svf.tau > 0
    assert len(svf.nets) == 8


def test_sampled_sublevel_conservative():
    grid = GridSpec(BasicSet.closed_box([0], [1]), (16,))

    def sampler(centers):
        return [np.array([[float(c[0])]]) for c in centers]

    svf = build_sampled_svf(grid, sampler)
    fam = sublevel_domains(svf, [[F(1, 2)]], F(1, 4))
    dom = fam.domains[0]
    # every x truly within delta of r must be accepted (conservative)
    for x in [F(5, 16), F(1, 2), F(11, 16)]:
        assert dom.contains([x])
    # accepted points satisfy the slack-inflated bound
    rng = random.Random(2)
    for _ in range(100):
        x = F(rng.randint(0, 256), 256)
        if dom.contains([x]):
            assert svf_distance(svf, [F(1, 2)], [x]) <= 0.25 + 2 * fam.slack + 1e-9


def test_sampled_sublevel_refuses_coarse_grid():
    grid = GridSpec(BasicSet.closed_box([0], [1]), (2,))

    def sampler(centers):
        return [np.array([[float(c[0]) ** 2]]) for c in centers]

    svf = build_sampled_svf(grid, sampler)
    with pytest.raises(PrecisionError):
        sublevel_domains(svf, [[F(1, 2)]], F(1, 1000))


def _two_cell_masked_svf():
    """Cell 0 holds {1/2}; cell 1 is excluded and keeps a zero placeholder net."""
    grid = GridSpec(BasicSet.closed_box([0], [1]), (2,))
    nets = (np.array([[0.5]]), np.zeros((1, 1)))
    return SampledSVF(
        grid, AffineRangeMap.of([-1], [1]), nets, 0.0, mask=np.array([True, False])
    )


def test_sampled_excluded_cell_has_no_distance_and_joins_no_sublevel_set():
    svf = _two_cell_masked_svf()
    assert svf_distance(svf, [0], [F(1, 4)]) == 0.5
    with pytest.raises(DomainPointError, match="excluded cell"):
        svf_distance(svf, [0], [F(3, 4)])
    fam = sublevel_domains(svf, [[0], [F(1, 2)]], F(1, 4))
    assert fam.cell_indices == ((), (0,))
    assert not fam.union_domain.contains([F(3, 4)])


def _cellwise_2d():
    """3x3 cells of [0,1]^2, mixing singleton and interval value sets."""
    grid = GridSpec(BasicSet.closed_box([0, 0], [1, 1]), (3, 3))
    cells = []
    for flat in range(grid.n_cells):
        i, j = grid.unflat(flat)
        values = [BasicSet.singleton([F(i + j, 8)])]
        if (i + j) % 2:
            values.append(BasicSet.closed_box([F(j, 4)], [F(j + 1, 4)]))
        cells.append((grid.cell_box((i, j)), GeneralizedBasicSet.of(values, dim=1)))
    svf = build_cellwise_svf(grid.box, cells)
    return svf, [[0], [F(1, 4)], [F(1, 2)], [F(3, 2)]], F(1, 8)


def _sampled_1d():
    """Dyadic centers as nets with tau 0, so delta = 3/16 ties exactly."""
    grid = GridSpec(BasicSet.closed_box([0], [1]), (8,))
    svf = build_sampled_svf(
        grid, lambda cs: [np.array([[c[0]]]) for c in cs], tau=0.0,
        range_map=AffineRangeMap.of([0], [1]),
    )
    return svf, [[F(1, 2)], [F(1, 16)], [F(3)]], F(3, 16)


def _sampled_2d():
    """A 4x4 grid with estimated tau, two-point nets and one excluded cell."""
    grid = GridSpec(BasicSet.closed_box([0, 0], [1, 1]), (4, 4))

    def sampler(cs):
        return [np.array([[c[0], c[1]], [c[1], -c[0]]]) for c in cs]

    svf = build_sampled_svf(grid, sampler)
    mask = np.ones(grid.n_cells, dtype=bool)
    mask[5] = False
    svf = SampledSVF(grid, svf.range_map, svf.nets, svf.tau, mask=mask)
    centers = [[F(1, 2), F(1, 2)], [F(5, 8), F(-3, 8)], [F(1, 8), F(1, 8)], [9, 9]]
    return svf, centers, F(3, 16)


_SUBLEVEL_CASES = [
    lambda: (desk_svf(), [[0], [F(1, 4)], [F(1, 2)], [F(-5)]], F(1, 4)),
    _cellwise_2d,
    _sampled_1d,
    _sampled_2d,
    lambda: (_two_cell_masked_svf(), [[0], [F(1, 2)]], F(1, 4)),
]
_SUBLEVEL_IDS = ["desk", "cellwise-2d", "sampled-1d", "sampled-2d-mask", "sampled-2cell-mask"]


@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
@pytest.mark.parametrize("make", _SUBLEVEL_CASES, ids=_SUBLEVEL_IDS)
def test_sublevel_family_matches_per_cell_reference(make, strict):
    svf, centers, delta = make()
    fam = sublevel_domains(svf, centers, delta, strict=strict)
    indices, slack, domains, union = sublevel_reference(svf, centers, delta, strict)
    assert fam.cell_indices == indices
    assert fam.slack == slack
    for got, want in zip((*fam.domains, fam.union_domain), (*domains, union)):
        assert got.carrier == want.carrier
        assert repr(got.verify(F(1, 10))) == repr(want.verify(F(1, 10)))


@pytest.mark.parametrize("strict", [False, True], ids=["closed", "strict"])
@pytest.mark.parametrize("make", _SUBLEVEL_CASES, ids=_SUBLEVEL_IDS)
def test_sublevel_members_and_union_verify_under_the_svf_witness(make, strict):
    svf, centers, delta = make()
    fam = sublevel_domains(svf, centers, delta, strict=strict)
    for dom in (*fam.domains, fam.union_domain):
        assert dom.witness is svf.witness
        for eps in (F(1, 3), F(1, 10), F(1, 12), F(1, 100)):
            assert dom.verify(eps).ok


@pytest.mark.parametrize(
    "make", [_cellwise_2d, _sampled_2d], ids=["cellwise-2d", "sampled-2d-mask"]
)
def test_point_queries_refuse_a_point_of_the_wrong_dimension(make):
    """Both SVF kinds refuse a domain point or a range point with too many
    or too few coordinates, as the cellwise path always did."""
    svf = make()[0]
    x = [0.75, 0.25]
    assert svf.cell_index_at(x) is not None
    for bad in ([0.75, 0.25, 123], [0.75]):
        with pytest.raises(SetAlgebraError, match="point dimension"):
            svf.cell_index_at(bad)
        with pytest.raises(SetAlgebraError, match="point dimension"):
            svf_distance(svf, [0] * svf.beta, bad)
    for r in ([0] * (svf.beta + 1), [0] * (svf.beta - 1)):
        with pytest.raises(SetAlgebraError, match="point dimension"):
            svf_distance(svf, r, x)


def test_cell_of_point_on_and_beside_every_plane():
    """Bisection over the planes agrees with floor((c - lo) / w), top plane clamped."""
    grid = GridSpec(BasicSet.closed_box([-2, 0], [2, F(1, 3)]), (9, 4))
    w = grid.widths()
    tiny = F(1, 2**40)

    def reference(x):
        idx = []
        for j, c in enumerate(x):
            if c < grid.box.lo[j] or c > grid.box.hi[j]:
                return None
            idx.append(min(int((c - grid.box.lo[j]) / w[j]), grid.shape[j] - 1))
        return tuple(idx)

    center = grid.center((4, 1))
    for j, v in grid.grid_planes():
        for c in (v - tiny, v, v + tiny):
            x = list(center)
            x[j] = c
            assert grid.cell_of_point(x) == reference(x)
    assert grid.cell_of_point([2, F(1, 3)]) == (8, 3)
    assert grid.cell_of_point([-2 - tiny, 0]) is None


def test_normalized_nets_match_per_cell_normalization():
    grid = GridSpec(BasicSet.closed_box([0], [1]), (5,))

    def sampler(centers):
        return [
            np.array([[c[0] + k, -c[0] - 2 * k] for k in range(1 + i % 3)]) * (i + 1)
            for i, c in enumerate(centers)
        ]

    svf = build_sampled_svf(grid, sampler, tau=0.0)
    want = [svf.range_map.normalize_array(n) for n in svf.nets]
    for got, ref in zip(svf.normalized_nets, want):
        assert np.array_equal(got, ref)
    padded = svf.padded_nets
    assert padded.shape == (5, 3, 2)
    for i, ref in enumerate(want):
        assert np.array_equal(padded[i, : len(ref)], ref)
        assert (padded[i, len(ref) :] == ref[0]).all()


def test_grid_plane_witness_budget():
    grid = GridSpec(BasicSet.closed_box([0, 0], [1, 1]), (4, 4))
    for eps in (F(1, 4), F(1, 64)):
        m = grid_plane_witness(grid, eps)
        assert m.measure() <= eps
        # covers the grid planes
        assert m.contains([F(1, 4), F(1, 3)])
        assert m.contains([F(2, 7), F(1, 2)])


def test_grid_plane_witness_matches_the_per_plane_rule():
    rng = random.Random(29)
    for dim in (1, 2, 3):
        for _ in range(4):
            lo = [F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim)]
            hi = [l + F(rng.randint(1, 24), rng.randint(1, 6)) for l in lo]
            shape = tuple(rng.randint(1, 5) for _ in range(dim))
            grid = GridSpec(BasicSet.closed_box(lo, hi), shape)
            for eps in (F(1), F(1, 3), F(1, 10), F(1, 100), F(7, 1000)):
                got = grid_plane_witness(grid, eps)
                want = grid_plane_witness_reference(grid, eps)
                assert got.parts == tuple(want)
                assert got.measure() <= eps


# ---------------------------------------------------------------------------
# Filippov regularization


def test_filippov_sign_field():
    box = BasicSet.closed_box([-1], [1])
    svf = filippov_regularize(
        f1=lambda x: -np.ones(len(x)),  # sigma > 0 side (x > 0)
        f2=lambda x: np.ones(len(x)),
        sigma=lambda x: x[:, 0],
        hull_steps=5,
        domain_box=box,
        grid_shape=(8,),
    )
    # at x = 1: pure f1 = {-1}
    d = svf_distance(svf, [-1], [F(1)])
    assert d == pytest.approx(0.0, abs=1e-12)
    # at x = 0 (straddling cell): net spans [-1, 1]
    idx = svf.grid.cell_of_point([F(1, 1000)])
    net = svf.nets[svf.grid.flat(idx)]
    assert net.min() == -1.0 and net.max() == 1.0 and len(net) == 5


def test_filippov_degenerate_hull():
    box = BasicSet.closed_box([-1], [1])
    svf = filippov_regularize(
        f1=lambda x: np.full(len(x), 0.5),
        f2=lambda x: np.full(len(x), 0.5),
        sigma=lambda x: x[:, 0],
        hull_steps=4,
        domain_box=box,
        grid_shape=(4,),
    )
    assert svf.tau == 0.0
    for n in svf.nets:
        assert np.allclose(n, 0.5)


def test_filippov_two_steps_tau():
    box = BasicSet.closed_box([-1], [1])
    svf = filippov_regularize(
        f1=lambda x: -np.ones(len(x)),
        f2=lambda x: np.ones(len(x)),
        sigma=lambda x: x[:, 0],
        hull_steps=2,
        domain_box=box,
        grid_shape=(8,),
    )
    seg_norm = np.linalg.norm(
        svf.range_map.normalize_array(np.array([[-1.0]]))
        - svf.range_map.normalize_array(np.array([[1.0]]))
    )
    assert svf.tau == pytest.approx(seg_norm / 2)


# ---------------------------------------------------------------------------
# range normalization


def test_symmetric_range_box_centers_zero():
    vals = np.array([[3.0, -1.0], [1.0, 0.5]])
    rm = symmetric_range_box(vals)
    center = rm.normalize([0, 0])
    assert center == (F(1, 2), F(1, 2))
    for v in vals:
        nv = rm.normalize(v)
        d = math.sqrt(sum((float(c) - 0.5) ** 2 for c in nv))
        assert d < 0.5


def test_range_map_roundtrip():
    rm = AffineRangeMap.of([-2, 0], [2, 8])
    y = (F(1, 3), F(5))
    assert rm.denormalize(rm.normalize(y)) == y


_RANGE_ENDS = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.floats(min_value=-50, max_value=50),
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_int_axes_agree_with_the_fraction_map_hypothesis(data):
    """Each axis's (a, b, s) is its lo and width over one lcm, so normalize
    and denormalize read from it agree on rational points, and
    `normalize_array` has the bits of (ys - float(lo)) / float(hi - lo), on
    maps with non-dyadic and float-valued ends."""
    beta = data.draw(st.integers(1, 3))
    ends = [
        sorted(data.draw(st.lists(_RANGE_ENDS, min_size=2, max_size=2, unique_by=F)))
        for _ in range(beta)
    ]
    assume(all(F(hi) - F(lo) > F(1, 10**6) for lo, hi in ends))  # no float overflow
    rm = AffineRangeMap.of([lo for lo, _ in ends], [hi for _, hi in ends])
    for (a, b, s), lo, w in zip(rm.int_axes, rm.lo, rm.widths()):
        assert (F(a, s), F(b, s), s) == (lo, w, math.lcm(lo.denominator, w.denominator))
    rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
    y = [data.draw(rationals) for _ in range(beta)]
    assert rm.normalize(y) == tuple(F(c * s - a, b) for c, (a, b, s) in zip(y, rm.int_axes))
    assert rm.denormalize(y) == tuple(F(a + c * b, s) for c, (a, b, s) in zip(y, rm.int_axes))
    rows = st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=beta, max_size=beta)
    ys = np.array(data.draw(st.lists(rows, min_size=1, max_size=4)))
    lo = np.array([float(c) for c in rm.lo])
    width = np.array([float(h - l) for l, h in zip(rm.lo, rm.hi)])
    assert rm.normalize_array(ys).tobytes() == ((ys - lo) / width).tobytes()


def test_json_roundtrip():
    f = desk_svf()
    back = cellwise_svf_from_json(cellwise_svf_to_json(f))
    assert back.cells == f.cells
    assert back.range_map == f.range_map


def test_cellwise_svf_from_json_rejects_non_object():
    with pytest.raises(InputError, match="JSON object"):
        cellwise_svf_from_json([1, 2])


def test_sublevel_rejection_soundness():
    # points rejected from every sublevel member keep a positive margin
    f = desk_svf()
    fam = sublevel_domains(f, [[F(0)]], F(1, 8))
    rng = random.Random(6)
    for _ in range(200):
        x = F(rng.randint(0, 512), 512)
        in_any = any(dom.contains([x]) for dom in fam.domains)
        if not in_any:
            assert svf_distance(f, [F(0)], [x]) > 0.125 - 1e-12


# ---------------------------------------------------------------------------
# hypothesis properties: grid geometry against the references


@st.composite
def grids(draw):
    """A grid in dimension 1-3 with 1-5 cells per axis.

    Cell widths include non-dyadic ones such as 4/33, whose planes the
    references compute from the widths and GridSpec reads from `planes`.
    """
    dim = draw(st.integers(1, 3))
    lo = [draw(st.sampled_from([F(-2), F(0), F(1, 3)])) for _ in range(dim)]
    shape = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    widths = [
        draw(st.sampled_from([F(4, 33), F(4, 9), F(1, 3), F(1, 2), F(2, 7), F(1)]))
        for _ in range(dim)
    ]
    hi = [a + w * n for a, w, n in zip(lo, widths, shape)]
    return GridSpec(BasicSet.closed_box(lo, hi), shape)


@given(grids())
@settings(max_examples=200, deadline=None)
def test_cell_box_matches_reference_hypothesis(grid):
    for idx in np.ndindex(*grid.shape):
        want = cell_box_reference(grid, idx)
        assert grid.cell_box(idx) == want
        assert repr(grid.cell_box(idx)) == repr(want)


@given(grids(), st.data())
@settings(max_examples=200, deadline=None)
def test_cell_of_point_matches_fraction_bisection_hypothesis(grid, data):
    """Points on, just beside and outside every plane, as Fractions and floats."""
    tiny = F(1, 2**40)
    base = [
        data.draw(st.one_of(
            st.fractions(p[0] - 1, p[-1] + 1, max_denominator=99),
            st.floats(float(p[0] - 1), float(p[-1] + 1)),
        ))
        for p in grid.planes
    ]
    for j, planes in enumerate(grid.planes):
        for v in (*planes, planes[0] - 1, planes[-1] + 1):
            for c in (v - tiny, v, v + tiny, float(v)):
                x = list(base)
                x[j] = c
                assert grid.cell_of_point(x) == cell_of_point_reference(grid, x)


@given(grids(), st.data())
@settings(max_examples=200, deadline=None)
def test_straddle_mask_matches_reference_hypothesis(grid, data):
    n_corners = math.prod(s + 1 for s in grid.shape)
    values = np.array(data.draw(st.lists(
        st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
        min_size=n_corners, max_size=n_corners,
    )))

    def sigma(corners):
        assert len(corners) == n_corners
        return values

    assert np.array_equal(_straddle_mask(grid, sigma), straddle_mask_reference(grid, sigma))
