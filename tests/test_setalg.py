import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selectorkit.setalg import (
    AxisKeys,
    _cut,
    BasicSet,
    GeneralizedBasicSet,
    SetAlgebraError,
    SetSequence,
    basic_set_from_json,
    basic_set_to_json,
    countable_reduction,
    dist_point_set,
    first_meeting_pair,
    flatten_index,
    gbs_from_json,
    gbs_to_json,
    measure,
    sequence_from_json,
    sequence_to_json,
    set_difference,
    unflatten_index,
)

from selectorkit.rational import as_fraction

from oracles import (
    box_subtract_reference,
    contains_reference,
    countable_reduction_reference,
    first_meeting_pair_reference,
    first_part_containing,
    intersect_reference,
    parts_meeting,
    rank_index_reference,
    seq_boxes,
    slot_reference,
    subtract_reference,
    union_measure,
)

F = Fraction


def iv(lo, hi, cl=True, ch=True):
    return BasicSet.interval(F(lo), F(hi), cl, ch)


def gbs(*parts):
    return GeneralizedBasicSet.of(parts, dim=parts[0].dim if parts else 1)


# ---------------------------------------------------------------------------
# rational scalars


def test_as_fraction_reads_decimal_strings_exactly():
    assert as_fraction("0.3") == Fraction(3, 10)
    assert as_fraction("-5/8") == Fraction(-5, 8)
    assert as_fraction(0.3) != Fraction(3, 10)  # floats keep their binary value


# ---------------------------------------------------------------------------
# measure


def test_measure_empty_is_zero():
    assert measure(GeneralizedBasicSet.empty(1)) == 0
    assert measure(BasicSet.empty(2)) == 0


def test_measure_overlap_blind():
    s = gbs(iv(0, F(1, 2)), iv(F(1, 4), 1))
    assert measure(s) == F(5, 4)


def test_measure_singleton_zero():
    assert measure(BasicSet.singleton([F(3)])) == 0


def test_measure_box_volume():
    b = BasicSet.open_box([0, 0], [F(1, 2), F(1, 4)])
    assert b.measure() == F(1, 8)


def test_measure_degenerate_face_zero():
    face = BasicSet.closed_box([0, 0], [1, 0])
    assert face.measure() == 0 and not face.is_empty


# ---------------------------------------------------------------------------
# difference


def test_difference_identity():
    out = set_difference(iv(0, 1), GeneralizedBasicSet.empty(1))
    assert len(out.parts) == 1 and out.parts[0] == iv(0, 1)


def test_difference_one_sided_cut():
    # (0,1) \ (1/2,2) -> (0,1/2]
    a = iv(0, 1, False, False)
    out = set_difference(a, gbs(iv(F(1, 2), 2, False, False)))
    assert len(out.parts) == 1
    p = out.parts[0]
    assert (p.lo[0], p.hi[0]) == (0, F(1, 2))
    assert (p.closed_lo[0], p.closed_hi[0]) == (False, True)


def test_difference_two_cuts():
    # [0,1] \ ((1/4,1/2) u (3/4,2)) -> [0,1/4] u [1/2,3/4]
    out = set_difference(
        iv(0, 1), gbs(iv(F(1, 4), F(1, 2), False, False), iv(F(3, 4), 2, False, False))
    )
    got = sorted((p.lo[0], p.hi[0], p.closed_lo[0], p.closed_hi[0]) for p in out.parts)
    assert got == [
        (F(0), F(1, 4), True, True),
        (F(1, 2), F(3, 4), True, True),
    ]


def test_difference_conservation_1d():
    rng = random.Random(7)
    for _ in range(50):
        a = iv(F(rng.randint(0, 8), 8), F(rng.randint(9, 16), 8))
        parts = [
            iv(
                F(rng.randint(0, 16), 8),
                F(rng.randint(0, 16), 8) + F(rng.randint(1, 8), 8),
                rng.random() < 0.5,
                rng.random() < 0.5,
            )
            for _ in range(rng.randint(1, 4))
        ]
        bs = gbs(*parts)
        diff = set_difference(a, bs)
        inter = GeneralizedBasicSet.of([a], dim=1).intersect(bs)
        lhs = a.measure()
        rhs = diff.measure() + union_measure([(p.lo, p.hi) for p in inter.parts])
        assert lhs == rhs
        # difference really is disjoint from bs
        assert diff.intersect(bs).is_empty


def test_difference_box_2d_frame():
    outer = BasicSet.closed_box([0, 0], [1, 1])
    inner = BasicSet.open_box([0, 0], [1, 1])
    frame = set_difference(outer, gbs(inner))
    assert frame.measure() == 0
    assert not frame.is_empty
    assert frame.contains([F(0), F(1, 2)])
    assert frame.contains([F(1, 2), F(1)])
    assert not frame.contains([F(1, 2), F(1, 2)])


# ---------------------------------------------------------------------------
# hypothesis property: deciding a meet without building it

GRID = [F(k, 2) for k in range(5)]


@st.composite
def box_pairs(draw):
    """Two boxes of one dimension with corners on a half-integer grid.

    A negative width makes an axis empty and a zero width a degenerate
    one; with the grid this small, touching and equal ends are common.
    """
    dim = draw(st.integers(1, 3))

    def box():
        lo, hi = [], []
        for _ in range(dim):
            a = draw(st.sampled_from(GRID))
            lo.append(a)
            hi.append(a + F(draw(st.integers(-1, 3)), 2))
        flags = st.tuples(*[st.booleans()] * dim)
        return BasicSet(dim, tuple(lo), tuple(hi), draw(flags), draw(flags))

    return box(), box()


def _meets_pointwise(a, b):
    """Oracle: both boxes hold a common point, looked for axis by axis.

    Ends lie on the half-integer grid, so an axis meet that holds a point
    holds one on the quarter grid.
    """
    for j in range(a.dim):
        axis = [
            BasicSet.interval(p.lo[j], p.hi[j], p.closed_lo[j], p.closed_hi[j])
            for p in (a, b)
        ]
        if not any(
            axis[0].contains([F(k, 4)]) and axis[1].contains([F(k, 4)])
            for k in range(-4, 13)
        ):
            return False
    return True


@given(box_pairs())
@settings(max_examples=400, deadline=None)
def test_intersects_agrees_with_intersect_hypothesis(pair):
    a, b = pair
    meets = a.intersects(b)
    assert meets == (not a.intersect(b).is_empty)
    assert meets == b.intersects(a)
    assert meets == _meets_pointwise(a, b)
    if not meets:
        assert a.subtract(b) == ([] if a.is_empty else [a])


# ---------------------------------------------------------------------------
# hypothesis property: point location against a linear scan


# the sixth grid holds every endpoint, the quarter grid the midpoints
# between half-integer ones, and both hold values outside every part
COORD = st.one_of(
    st.sampled_from([F(k, 4) for k in range(-4, 17)]),
    st.sampled_from([F(k, 6) for k in range(-6, 25)]),
    st.fractions(min_value=-1, max_value=5, max_denominator=7),
)


@st.composite
def grid_parts(draw, dim):
    """0-8 parts with corners on halves and thirds, empty and degenerate
    ones kept; widths are halves or thirds, so the ends of one axis mix
    the denominators 2 and 3 and lie on the sixth grid."""
    flags = st.tuples(*[st.booleans()] * dim)
    corners = GRID + [F(k, 3) for k in (1, 2, 4, 5)]
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        lo = tuple(draw(st.sampled_from(corners)) for _ in range(dim))
        if draw(st.integers(0, 4)) == 0:
            parts.append(BasicSet.singleton(lo))
            continue
        hi = tuple(
            a + F(draw(st.integers(-1, 3)), draw(st.sampled_from([2, 3]))) for a in lo
        )
        parts.append(BasicSet(dim, lo, hi, draw(flags), draw(flags)))
    return tuple(parts)


@st.composite
def located_unions(draw):
    """A union of 0-8 parts in dimension 1-3, empty parts kept, and points.

    Corners lie on halves and thirds; negative and zero widths give empty
    and degenerate axes (faces), singletons are drawn outright, and the
    closure flags are mixed.  Coordinates come from the quarter and sixth
    grids (every endpoint, midpoints and values outside every part) and
    from small arbitrary fractions.
    """
    dim = draw(st.integers(1, 3))
    point = st.tuples(*[COORD] * dim)
    parts = draw(grid_parts(dim))
    return GeneralizedBasicSet(dim, parts), draw(st.lists(point, min_size=1, max_size=8))


@given(located_unions())
@settings(max_examples=500, deadline=None)
def test_locate_matches_linear_scan_hypothesis(case):
    g, points = case
    kept = GeneralizedBasicSet.of(g.parts, dim=g.dim)
    for x in points:
        want = first_part_containing(g.parts, x)
        assert g.locate(x) == want
        assert g.contains(x) == (want is not None)
        assert kept.contains(x) == (want is not None)
        # a float point is located by its exact value, on faces too
        xf = [float(c) for c in x]
        assert g.locate(xf) == g.locate([F(c) for c in xf]) == first_part_containing(
            g.parts, [F(c) for c in xf]
        )


@st.composite
def unions_with_boxes(draw):
    """A union as in located_unions and 1-6 query boxes of any closure.

    Query corners come from the same coordinates as the points; a width
    of 0 gives a degenerate axis (a point or a face when both ends are
    closed, empty otherwise) and a negative width an empty box.
    """
    dim = draw(st.integers(1, 3))
    flags = st.tuples(*[st.booleans()] * dim)
    width = st.one_of(st.sampled_from([F(k, 4) for k in range(-1, 9)]), COORD)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        lo = tuple(draw(COORD) for _ in range(dim))
        hi = tuple(a + draw(width) for a in lo)
        boxes.append(BasicSet(dim, lo, hi, draw(flags), draw(flags)))
    return GeneralizedBasicSet(dim, draw(grid_parts(dim))), boxes


@given(unions_with_boxes())
@settings(max_examples=300, deadline=None)
def test_meeting_matches_linear_scan_hypothesis(case):
    g, boxes = case
    for box in boxes:
        assert g.meeting(box) == parts_meeting(g.parts, box)


# ---------------------------------------------------------------------------
# hypothesis property: integer placement against a Fraction bisection


@st.composite
def axis_probes(draw):
    """1-8 breakpoints with non-dyadic gaps, in any order and repeated, and
    probes as Fractions, floats and ints: on each breakpoint, 2**-40
    beside it, and outside all of them."""
    values = [draw(st.fractions(-2, 2, max_denominator=9))]
    for _ in range(draw(st.integers(0, 7))):
        width = draw(st.sampled_from([F(1, 3), F(2, 3), F(4, 9), F(4, 33), F(1, 2), F(1)]))
        values.append(values[-1] + width)
    tiny = F(1, 2**40)
    exact = [c for v in values for c in (v - tiny, v, v + tiny)]
    exact += [values[0] - 1, values[-1] + 1]
    ints = [n for v in values for n in (math.floor(v), math.ceil(v))]
    ints += [math.floor(values[0]) - 1, math.ceil(values[-1]) + 1]
    given_as = draw(st.permutations(values + values[: draw(st.integers(0, 2))]))
    return values, given_as, exact + [float(c) for c in exact] + ints


@given(axis_probes(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_axis_keys_slot_matches_fraction_bisection_hypothesis(case, closed):
    values, given_as, probes = case
    axis = AxisKeys.of(given_as)
    bounded = AxisKeys.of(values, values[0], values[-1])
    for c in probes:
        placed = axis.place(c)
        assert axis.slot(*placed) == slot_reference(values, c)
        for side in (1, -1):
            assert axis.slot(*placed, closed, side) == slot_reference(values, c, closed, side)
        inside = values[0] <= F(c) <= values[-1]
        assert bounded.place(c) == (placed if inside else None)


@given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), grid_parts(d))))
@settings(max_examples=200, deadline=None)
def test_rank_index_matches_fraction_reference_hypothesis(case):
    dim, parts = case
    g = GeneralizedBasicSet(dim, parts)
    for (axis, starts, ends), (values, want_starts, want_ends) in zip(
        g._rank_index, rank_index_reference(g)
    ):
        assert axis.keys == [axis.key(v) for v in values]
        assert (starts, ends) == (want_starts, want_ends)


@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), grid_parts(d), grid_parts(d)))
)
@settings(max_examples=300, deadline=None)
def test_subtract_matches_sequential_reference_hypothesis(case):
    dim, a, b = case
    got = GeneralizedBasicSet(dim, a).subtract(GeneralizedBasicSet(dim, b))
    assert got.parts == tuple(subtract_reference(a, b))


@st.composite
def mixed_boxes(draw, count):
    """count boxes of one dimension 1-3 and points beside their ends.

    Corners come from the quarter grid and small fractions; a width of
    -1/4 makes an axis empty, 0 degenerate, and the flags are mixed, so
    empty, degenerate, disjoint, touching and nested boxes all occur.
    Each point coordinate is an end of some box or a free coordinate.
    """
    dim = draw(st.integers(1, 3))
    flags = st.tuples(*[st.booleans()] * dim)
    width = st.one_of(st.sampled_from([F(k, 4) for k in range(-1, 9)]), COORD)
    boxes = []
    for _ in range(count):
        lo = tuple(draw(COORD) for _ in range(dim))
        hi = tuple(a + draw(width) for a in lo)
        boxes.append(BasicSet(dim, lo, hi, draw(flags), draw(flags)))
    coord = [
        st.one_of(st.sampled_from([c for b in boxes for c in (b.lo[j], b.hi[j])]), COORD)
        for j in range(dim)
    ]
    return boxes, draw(st.lists(st.tuples(*coord), min_size=1, max_size=6))


@given(mixed_boxes(2))
@settings(max_examples=300, deadline=None)
def test_box_subtract_matches_reference_hypothesis(case):
    (a, b), points = case
    for x, y in ((a, b), (b, a), (a, a)):
        pieces = x.subtract(y)
        assert pieces == box_subtract_reference(x, y)
        for pt in points:
            inside = [p.contains(pt) for p in pieces]
            assert sum(inside) == (x.contains(pt) and not y.contains(pt))


@given(mixed_boxes(1))
@settings(max_examples=200, deadline=None)
def test_box_contains_matches_linear_scan_hypothesis(case):
    (box,), points = case
    for x in points:
        want = first_part_containing([box], x) is not None
        assert box.contains(x) == want == contains_reference(box, x)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(grid_parts(d), min_size=0, max_size=6))
    )
)
@settings(max_examples=300, deadline=None)
def test_first_meeting_pair_matches_all_pairs_loop_hypothesis(case):
    """Empty, degenerate and touching parts with mixed ends; parts of one
    set that meet each other make no pair."""
    dim, part_lists = case
    sets = [GeneralizedBasicSet(dim, parts) for parts in part_lists]
    assert first_meeting_pair(sets) == first_meeting_pair_reference(sets)


@st.composite
def sequences_with_points(draw):
    """A located union cut into 1-4 consecutive items; items may hold no part."""
    g, points = draw(located_unions())
    cuts = sorted(draw(st.lists(st.integers(0, len(g.parts)), max_size=3)))
    bounds = [0, *cuts, len(g.parts)]
    items = tuple(
        GeneralizedBasicSet(g.dim, g.parts[a:b]) for a, b in zip(bounds, bounds[1:])
    )
    return SetSequence(items, draw(st.sampled_from(["cantor", "rowmajor"]))), points


@given(sequences_with_points())
@settings(max_examples=300, deadline=None)
def test_sequence_contains_is_any_item_membership_hypothesis(case):
    xs, points = case
    for x in points:
        want = any(first_part_containing(it.parts, x) is not None for it in xs.items)
        assert xs.contains(x) == want
    assert xs.union_parts() == [p for it in xs.items for p in it.parts]
    assert xs.as_gbs() is xs.as_gbs()
    assert xs.gamma() == GeneralizedBasicSet(xs.dim, tuple(xs.union_parts())).gamma


def test_sequence_without_items():
    xs = SetSequence(())
    assert not xs.contains([F(0)])
    assert xs.union_parts() == []
    with pytest.raises(SetAlgebraError):
        xs.as_gbs()
    with pytest.raises(SetAlgebraError):
        xs.gamma()


def test_locate_first_of_overlapping_parts():
    g = gbs(iv(0, 1), iv(F(1, 2), 2), BasicSet.singleton([F(1, 2)]))
    assert [g.locate([F(k, 4)]) for k in range(-1, 10)] == [
        None, 0, 0, 0, 0, 0, 1, 1, 1, 1, None
    ]
    assert [g.locate([k / 4]) for k in range(-1, 10)] == [g.locate([F(k, 4)]) for k in range(-1, 10)]
    assert gbs(iv(0, 1, False, False), BasicSet.singleton([F(0)])).locate([0]) == 1
    assert gbs().locate([0]) is None


def test_locate_rejects_point_of_wrong_dimension():
    g = gbs(BasicSet.closed_box([0, 0], [1, 1]))
    for x in ([F(1, 2)], [F(1, 2)] * 3):
        with pytest.raises(SetAlgebraError):
            g.locate(x)
        with pytest.raises(SetAlgebraError):
            g.contains(x)


# ---------------------------------------------------------------------------
# distance


def test_dist_interior_point():
    assert dist_point_set([F(1, 2)], gbs(iv(0, 1))) == 0.0


def test_dist_exterior_point():
    assert dist_point_set([F(2)], gbs(iv(0, 1))) == 1.0


def test_dist_empty_is_inf():
    assert dist_point_set([F(0)], GeneralizedBasicSet.empty(1)) == math.inf


def test_dist_2d():
    s = gbs(BasicSet.closed_box([0, 0], [1, 1]))
    assert dist_point_set([F(2), F(2)], s) == pytest.approx(math.sqrt(2))


# ---------------------------------------------------------------------------
# pairing


@given(st.integers(0, 500), st.integers(0, 500))
def test_pairing_roundtrip(n, m):
    assert unflatten_index(flatten_index(n, m)) == (n, m)


def test_pairing_bijective_prefix():
    seen = {flatten_index(n, m) for n in range(40) for m in range(40)}
    assert len(seen) == 1600


# ---------------------------------------------------------------------------
# countable reduction


def test_reduction_example1():
    xs = SetSequence.of([iv(0, F(1, 2)), iv(F(1, 4), 1)])
    ks = countable_reduction(xs)
    k1, k2 = ks.items
    assert [(*p.lo, *p.hi) for p in k1.parts] == [(F(0), F(1, 2))]
    p = k2.parts[0]
    assert (p.lo[0], p.hi[0]) == (F(1, 2), F(1))
    assert (p.closed_lo[0], p.closed_hi[0]) == (False, True)


def test_reduction_disjoint_unchanged():
    xs = SetSequence.of([iv(0, F(1, 4)), iv(F(1, 2), 1)])
    ks = countable_reduction(xs)
    assert ks.items[0].parts == xs.items[0].parts
    assert ks.items[1].parts == xs.items[1].parts


def test_reduction_shadowed_set_becomes_empty():
    xs = SetSequence.of([iv(0, 1), iv(F(1, 4), F(1, 2))])
    ks = countable_reduction(xs)
    assert not ks.items[0].is_empty
    assert ks.items[1].is_empty


def test_reduction_cantor_vs_rowmajor_order():
    # two parts in the first item, one in the second: Cantor subtracts
    # the second item's part before the first item's second part.
    a = iv(0, 4)
    b = iv(6, 10)
    c = iv(2, 8)
    cantor = countable_reduction(SetSequence.of([gbs(a, b), gbs(c)], "cantor"))
    rowmaj = countable_reduction(SetSequence.of([gbs(a, b), gbs(c)], "rowmajor"))
    # cantor: order a, c, b -> b loses (6,8] to c
    assert cantor.items[1].parts[0].lo[0] == 4
    assert min(p.lo[0] for p in cantor.items[0].parts) == 0
    assert any(p.lo[0] == 8 for p in cantor.items[0].parts)
    # rowmajor: order a, b, c -> c keeps only the middle gap (4,6)
    assert [(p.lo[0], p.hi[0]) for p in rowmaj.items[1].parts] == [(4, 6)]


def _random_sequence(rng: random.Random, dim: int, max_parts: int) -> SetSequence:
    n_items = rng.randint(1, 5)
    budget = rng.randint(1, max_parts)
    items = []
    for _ in range(n_items):
        k = rng.randint(0, max(1, budget // n_items))
        parts = []
        for _ in range(k):
            lo, hi, cl, ch = [], [], [], []
            for _ in range(dim):
                a = F(rng.randint(0, 24), 8)
                w = F(rng.randint(1, 8), 8)
                lo.append(a)
                hi.append(a + w)
                cl.append(rng.random() < 0.5)
                ch.append(rng.random() < 0.5)
            parts.append(BasicSet.box(lo, hi, cl, ch))
        items.append(GeneralizedBasicSet.of(parts, dim=dim))
    return SetSequence.of(items, rng.choice(["cantor", "rowmajor"]))


def _check_reduction_properties(xs: SetSequence, ks: SetSequence, rng: random.Random):
    dim = xs.dim
    # subset: every K_n inside J_n
    for j, k in zip(xs.items, ks.items):
        assert k.issubset(j)
    # pairwise disjoint
    flat = [p for it in ks.items for p in it.parts]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            assert not flat[i].intersects(flat[j])
    # measure identity against the independent sweep oracle
    assert sum((it.measure() for it in ks.items), F(0)) == union_measure(seq_boxes(xs))
    # no new boundary: a sampled gamma point of K_n lies on gamma of J or is
    # an interior seam of K_n (box decompositions of L-shaped differences
    # need internal cuts; those cuts are not boundary of the set K_n)
    jg = xs.as_gbs()
    for it in ks.items:
        for f in it.gamma[:20]:
            probe = tuple((l + h) / 2 for l, h in zip(f.lo, f.hi))
            if any(f.contains(probe) for f in jg.gamma):
                continue
            delta = F(1, 4096)
            box = BasicSet.closed_box(
                [c - delta for c in probe], [c + delta for c in probe]
            )
            assert GeneralizedBasicSet.of([box], dim=dim).subtract(it).is_empty
    # density: random points of U J are close to U K
    kg = ks.as_gbs()
    for _ in range(40):
        parts = [p for it in xs.items for p in it.parts]
        if not parts:
            break
        p = rng.choice(parts)
        x = tuple(
            lo + (hi - lo) * F(rng.randint(1, 31), 32) for lo, hi in zip(p.lo, p.hi)
        )
        d = _dist_to_witness(x, kg)
        assert d <= 1e-3


def _dist_to_witness(x, kg):
    """Distance from x to an explicit point inside kg (midpoint probing)."""
    best = math.inf
    for part in kg.parts:
        y = []
        for j in range(part.dim):
            c = min(max(x[j], part.lo[j]), part.hi[j])
            nudge = min(F(1, 2048), (part.hi[j] - part.lo[j]) / 2)
            if c == part.lo[j] and not part.closed_lo[j]:
                c = part.lo[j] + nudge
            if c == part.hi[j] and not part.closed_hi[j]:
                c = part.hi[j] - nudge
            y.append(c)
        if part.contains(y):
            d = math.sqrt(sum(float(a - b) ** 2 for a, b in zip(x, y)))
            best = min(best, d)
    return best


def test_reduction_random_properties():
    rng = random.Random(20240811)
    for case in range(60):
        dim = rng.choice([1, 1, 2, 3])
        xs = _random_sequence(rng, dim, max_parts=10 if dim < 3 else 6)
        ks = countable_reduction(xs)
        _check_reduction_properties(xs, ks, rng)


# ---------------------------------------------------------------------------
# hypothesis property: 1-D reduction invariants


@st.composite
def interval_sequences(draw):
    n = draw(st.integers(1, 4))
    items = []
    for _ in range(n):
        k = draw(st.integers(0, 3))
        parts = []
        for _ in range(k):
            a = F(draw(st.integers(0, 30)), 8)
            w = F(draw(st.integers(1, 10)), 8)
            parts.append(
                BasicSet.interval(a, a + w, draw(st.booleans()), draw(st.booleans()))
            )
        items.append(GeneralizedBasicSet.of(parts, dim=1))
    return SetSequence(tuple(items), draw(st.sampled_from(["cantor", "rowmajor"])))


@given(interval_sequences())
@settings(max_examples=120, deadline=None)
def test_reduction_measure_identity_hypothesis(xs):
    ks = countable_reduction(xs)
    assert sum((it.measure() for it in ks.items), F(0)) == union_measure(seq_boxes(xs))
    for j, k in zip(xs.items, ks.items):
        assert k.issubset(j)


# ---------------------------------------------------------------------------
# hypothesis property: the integer-key kernel against the Fraction references

# thirds, ninths, multiples of 4/33 and eighths in [-1, 2]: the ends of one
# axis mix denominators, so its scale is their lcm, and negative ends occur
KERNEL_CORNERS = sorted(
    {F(k, d) for d in (3, 8, 9) for k in range(-d, 2 * d + 1)}
    | {F(4 * k, 33) for k in range(-8, 17)}
)
KERNEL_WIDTHS = [F(-1, 8), F(0), F(1, 9), F(4, 33), F(1, 3), F(3, 8), F(2, 3), F(1)]


@st.composite
def kernel_parts(draw, dim):
    """0-4 parts on KERNEL_CORNERS: a width of -1/8 makes an axis empty and
    0 a degenerate one (empty unless both ends are closed), singletons are
    drawn outright, and the closure flags are mixed."""
    flags = st.tuples(*[st.booleans()] * dim)
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        lo = tuple(draw(st.sampled_from(KERNEL_CORNERS)) for _ in range(dim))
        if draw(st.integers(0, 5)) == 0:
            parts.append(BasicSet.singleton(lo))
            continue
        hi = tuple(a + draw(st.sampled_from(KERNEL_WIDTHS)) for a in lo)
        parts.append(BasicSet(dim, lo, hi, draw(flags), draw(flags)))
    return tuple(parts)


@st.composite
def kernel_sequences(draw):
    """1-4 items of kernel_parts in dimension 1-3, empty parts kept, under
    either pairing."""
    dim = draw(st.integers(1, 3))
    items = tuple(
        GeneralizedBasicSet(dim, draw(kernel_parts(dim))) for _ in range(draw(st.integers(1, 4)))
    )
    return SetSequence(items, draw(st.sampled_from(["cantor", "rowmajor"])))


@given(kernel_sequences())
@settings(max_examples=300, deadline=None)
def test_reduction_matches_sequential_reference_hypothesis(xs):
    got, want = countable_reduction(xs), countable_reduction_reference(xs)
    assert got == want
    assert repr(got) == repr(want)


@given(kernel_sequences())
@settings(max_examples=200, deadline=None)
def test_reduction_makes_no_new_endpoints_hypothesis(xs):
    """Every end of every reduced part is an end of an input part on the
    same axis: the very `Fraction` object, so none was built."""
    parts = xs.union_parts()
    for p in countable_reduction(xs).union_parts():
        for j in range(xs.dim):
            ends = [c for q in parts for c in (q.lo[j], q.hi[j])]
            for c in (p.lo[j], p.hi[j]):
                assert c in ends
                assert any(c is e for e in ends)


@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(st.just(d), kernel_parts(d), kernel_parts(d))
    )
)
@settings(max_examples=200, deadline=None)
def test_intersect_matches_fraction_reference_hypothesis(case):
    dim, a, b = case
    got = GeneralizedBasicSet(dim, a).intersect(GeneralizedBasicSet(dim, b))
    assert got.parts == tuple(intersect_reference(a, b))


def test_cut_leaves_nothing_of_an_empty_part():
    """_cut decides an empty part itself, with boxes to remove or without."""
    half_open_point = BasicSet.interval(F(1, 3), F(1, 3), True, False)
    crossed = BasicSet.closed_box([F(1), F(0)], [F(0), F(1)])
    assert _cut(half_open_point, []) == []
    assert _cut(half_open_point, [iv(5, 6)]) == []
    assert _cut(crossed, []) == []
    assert _cut(BasicSet.empty(2), [BasicSet.closed_box([5, 5], [6, 6])]) == []
    part = iv(0, 1)
    assert _cut(part, [])[0] is part
    assert _cut(part, [iv(2, 3)])[0] is part


def test_union_of_empty_parts_is_empty():
    """A generalized set built with the plain constructor from empty parts
    only has no point, whatever it is compared with."""
    only_empty = GeneralizedBasicSet(1, (BasicSet.empty(1),))
    assert only_empty.is_empty
    assert only_empty.issubset(GeneralizedBasicSet.empty(1))
    assert only_empty.issubset(GeneralizedBasicSet.of([iv(5, 6)]))


# ---------------------------------------------------------------------------
# JSON round trips


def test_json_roundtrip_set():
    s = gbs(iv(0, F(1, 2)), BasicSet.singleton([F(3, 4)]))
    assert gbs_from_json(gbs_to_json(s)) == s


def test_json_roundtrip_sequence():
    xs = SetSequence.of([iv(0, F(1, 2)), iv(F(1, 4), 1)], "rowmajor")
    back = sequence_from_json(sequence_to_json(xs))
    assert back == xs


def test_json_dyadic_encoding():
    b = iv(0, F(1, 2))
    j = basic_set_to_json(b)
    assert j["hi"][0] == {"num": 1, "exp2": 1}
    assert basic_set_from_json(j, 1) == b


def test_json_nondyadic_encoding():
    b = iv(0, F(1, 3))
    j = basic_set_to_json(b)
    assert j["hi"][0] == {"num": 1, "den": 3}
    assert basic_set_from_json(j, 1) == b
