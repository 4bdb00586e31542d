import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selectorkit.domain import PiecewiseConstantMap, continuous_extension, make_witness
from selectorkit.errors import CoverageError, InputError, PrecisionError
from selectorkit.rational import as_fraction, rational_from_json, rational_to_json
from selectorkit import selector
from selectorkit.robot import MAX_NET, export_svf
from selectorkit.selector import (
    EvalResult,
    Step,
    _ball_offsets,
    _ball_runs,
    _CellScale,
    cauchy_defect,
    chain_from_json,
    chain_to_json,
    eval_selector,
    extract,
    extraction_step,
    mesh_value,
    piecewise_constant_finish,
    selector_csv,
)
from selectorkit.setalg import (
    BasicSet,
    GeneralizedBasicSet,
    SetAlgebraError,
    SetSequence,
    basic_set_from_json,
)
from selectorkit.svf import (
    AffineRangeMap,
    GridSpec,
    build_cellwise_svf,
    build_sampled_svf,
    identity_range_map,
    ravel,
    svf_distance,
    unravel,
)

from oracles import (
    admissible_reference,
    brute_force_selector,
    cauchy_defect_reference,
    extraction_step_reference,
    first_admitted_reference,
    eval_selector_reference,
    first_part_containing,
    grid_cauchy_defect_reference,
    grid_step_reference,
    normalized_values_reference,
)

F_ = Fraction


def atoms(*points):
    return GeneralizedBasicSet.of(
        [BasicSet.singleton([F_(p)]) for p in points], dim=1
    )


def desk_svf():
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F_(1, 2), True, True), atoms(F_(1, 4))),
        (BasicSet.interval(F_(1, 2), 1, False, True), atoms(F_(1, 4), F_(3, 4))),
    ]
    return build_cellwise_svf(box, cells)


def three_cell_svf():
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F_(1, 4), True, True), atoms(F_(1, 8))),
        (BasicSet.interval(F_(1, 4), F_(1, 2), False, True), atoms(F_(3, 8))),
        (
            BasicSet.interval(F_(1, 2), 1, False, True),
            atoms(F_(1, 8), F_(7, 16)),
        ),
    ]
    return build_cellwise_svf(box, cells)


def four_cell_svf():
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F_(1, 4), True, True), atoms(F_(1, 8))),
        (BasicSet.interval(F_(1, 4), F_(1, 2), False, True), atoms(F_(5, 16))),
        (
            BasicSet.interval(F_(1, 2), F_(3, 4), False, True),
            GeneralizedBasicSet.of(
                [BasicSet.interval(F_(1, 8), F_(1, 4), True, True)], dim=1
            ),
        ),
        (BasicSet.interval(F_(3, 4), 1, False, True), atoms(F_(2, 5))),
    ]
    return build_cellwise_svf(box, cells)


def offmesh_beta2_svf():
    """beta = 2; real zero normalizes to (1/3, 2/5), which is no mesh node."""
    box = BasicSet.closed_box([0], [1])
    cells = [
        (
            BasicSet.interval(0, F_(1, 3), True, True),
            GeneralizedBasicSet.of([BasicSet.singleton([F_(1, 10), F_(-1, 7)])], dim=2),
        ),
        (
            BasicSet.interval(F_(1, 3), F_(2, 3), False, True),
            GeneralizedBasicSet.of(
                [
                    BasicSet.closed_box([F_(-1, 5), 0], [F_(-1, 10), F_(1, 9)]),
                    BasicSet.singleton([F_(1, 4), F_(1, 5)]),
                ],
                dim=2,
            ),
        ),
        (
            BasicSet.interval(F_(2, 3), 1, False, True),
            GeneralizedBasicSet.of(
                [
                    BasicSet.singleton([F_(-1, 4), F_(1, 6)]),
                    BasicSet.singleton([F_(1, 5), F_(-1, 5)]),
                ],
                dim=2,
            ),
        ),
    ]
    rmap = AffineRangeMap.of([F_(-1, 3), F_(-2, 5)], [F_(2, 3), F_(3, 5)])
    return build_cellwise_svf(box, cells, rmap)


def beta3_svf():
    """beta = 3; real zero normalizes near the low mesh corner, which keeps
    the brute-force sweep short."""
    box = BasicSet.closed_box([0], [1])
    cells = [
        (
            BasicSet.interval(0, F_(1, 2), True, True),
            GeneralizedBasicSet.of(
                [BasicSet.singleton([F_(1, 5), F_(-1, 5), F_(1, 10)])], dim=3
            ),
        ),
        (
            BasicSet.interval(F_(1, 2), 1, False, True),
            GeneralizedBasicSet.of(
                [
                    BasicSet.closed_box([0, 0, 0], [F_(1, 8)] * 3),
                    BasicSet.singleton([F_(-1, 5), F_(1, 4), 0]),
                ],
                dim=3,
            ),
        ),
    ]
    rmap = AffineRangeMap.of([F_(-1, 4)] * 3, [F_(7, 4)] * 3)
    return build_cellwise_svf(box, cells, rmap)


# ---------------------------------------------------------------------------
# mesh levels


def test_ball_offsets_hold_every_node_within_gap():
    assert [len(_ball_offsets(b)) for b in (1, 2, 3)] == [9, 69, 461]
    rng = random.Random(5)
    k = 3
    pitch = F_(1, 2 ** (k + 1))
    gap2 = F_(1, 2 ** (k - 1)) ** 2
    for beta in (1, 2):
        offsets = _ball_offsets(beta)
        assert offsets is _ball_offsets(beta) and type(offsets) is tuple
        assert list(offsets) == sorted(offsets)
        for _ in range(50):
            v = tuple(F_(rng.randint(0, 999), 999) for _ in range(beta))
            base = [round(c / pitch) for c in v]
            ball = {tuple(b + o for b, o in zip(base, off)) for off in offsets}
            for d in itertools.product(range(2 ** (k + 1) + 1), repeat=beta):
                if sum((pitch * i - c) ** 2 for i, c in zip(d, v)) < gap2:
                    assert d in ball


def test_ball_runs_split_the_ball_by_first_digit():
    lengths = {1: [1] * 9, 2: [5, 7, 9, 9, 9, 9, 9, 7, 5], 3: [21, 45, 61, 69, 69, 69, 61, 45, 21]}
    for beta, want in lengths.items():
        runs = _ball_runs(beta)
        assert runs is _ball_runs(beta)
        assert [len(tails) for _, tails in runs] == want
        assert [(o0, *tail) for o0, tails in runs for tail in tails] == list(_ball_offsets(beta))


def test_both_engines_walk_the_ball_runs():
    exact, grid = desk_svf(), _slab_boundary_svf(0.0, 2, 0)
    with mock.patch.object(selector, "_ball_runs", wraps=selector._ball_runs) as runs:
        extract(exact, 2)
        extract(grid, 2)
    assert runs.call_args_list == [mock.call(exact.beta), mock.call(grid.beta)]


def test_mesh_rejects_low_level():
    f = desk_svf()
    with pytest.raises(InputError):
        extract(f, 1)
    with pytest.raises(InputError):
        extraction_step(None, f, 1)


# ---------------------------------------------------------------------------
# desk extraction steps (hand-simulated values)


def test_desk_step2_constant_eighth():
    f = desk_svf()
    step = extraction_step(None, f, 2)
    assert len(step.pieces) == 1
    q, r = step.pieces[0]
    assert r == (F_(1, 8),)
    # both cells survive with the same value: full domain
    assert q.contains([F_(1, 4)]) and q.contains([F_(3, 4)])


def test_desk_step3_from_step2():
    f = desk_svf()
    s2 = extraction_step(None, f, 2)
    s3 = extraction_step(s2, f, 3)
    assert len(s3.pieces) == 1
    assert s3.pieces[0][1] == (F_(3, 16),)
    # contract |f3 - f2| < 1/4
    assert abs(F_(3, 16) - F_(1, 8)) < F_(1, 4)


def test_constant_target_locks_to_mesh():
    box = BasicSet.closed_box([0], [1])
    f = build_cellwise_svf(
        box, [(BasicSet.closed_box([0], [1]), atoms(F_(3, 8)))]
    )
    chain = extract(f, 5)
    for step in chain.steps:
        assert len(step.pieces) == 1
        v = step.pieces[0][1][0]
        assert abs(v - F_(3, 8)) < F_(1, 2 ** step.level)


def test_zero_selector_stays_zero():
    box = BasicSet.closed_box([0], [1])
    f = build_cellwise_svf(box, [(BasicSet.closed_box([0], [1]), atoms(0))])
    chain = extract(f, 4)
    for step in chain.steps:
        assert step.pieces[0][1] == (F_(0),)


def test_unreachable_value_set_aborts():
    box = BasicSet.closed_box([0], [1])
    f = build_cellwise_svf(
        box, [(BasicSet.closed_box([0], [1]), atoms(F_(7, 8)))]
    )
    with pytest.raises(CoverageError):
        extract(f, 3)


# ---------------------------------------------------------------------------
# full chains: contracts


@pytest.mark.parametrize("svf_fn", [desk_svf, three_cell_svf, four_cell_svf])
def test_chain_contracts(svf_fn):
    f = svf_fn()
    n = 5
    chain = extract(f, n)
    rng = random.Random(random.Random(str(svf_fn)).randint(0, 99))
    rng = random.Random(17)
    probes = [F_(rng.randint(0, 4096), 4096) for _ in range(500)]
    for k, step in enumerate(chain.steps, start=2):
        for x in probes:
            v = step.value_at([x])
            assert v is not None
            # |f_k - F| < 2^-k (exact engine: no slack)
            d = svf_distance(f, f.range_map.denormalize(v), [x])
            assert d < 2.0**-k + 1e-15
            if k > 2:
                vprev = chain.steps[k - 3].value_at([x])
                gap = abs(float(v[0]) - float(vprev[0]))
                assert gap < 2.0 ** -(k - 1)
    # domain monotone (exact engine keeps full coverage)
    def carrier(step):
        return GeneralizedBasicSet.of([p for q, _ in step.pieces for p in q.parts], dim=1)

    for a, b in zip(chain.steps, chain.steps[1:]):
        assert carrier(b).subtract(carrier(a)).is_empty


@pytest.mark.parametrize(
    "svf_fn",
    [desk_svf, three_cell_svf, four_cell_svf, offmesh_beta2_svf, beta3_svf],
)
def test_bruteforce_oracle_piece_structure(svf_fn):
    f = svf_fn()
    n = 4
    chain = extract(f, n)
    oracle_levels = brute_force_selector(f, n)
    for k, (step, oracle) in enumerate(zip(chain.steps, oracle_levels), start=2):
        # identical values on every cell (probe at cell midpoints)
        for ci, (cell, _) in enumerate(f.cells):
            mid = [
                (cell.lo[0] + cell.hi[0]) / 2
            ]
            got = step.value_at(mid)
            assert got == oracle[ci], f"level {k} cell {ci}"
        # identical measure per value
        value_measure = {}
        for q, r in step.pieces:
            value_measure[r] = value_measure.get(r, F_(0)) + q.measure()
        oracle_measure = {}
        for ci, r in oracle.items():
            oracle_measure[r] = (
                oracle_measure.get(r, F_(0)) + f.cells[ci][0].measure()
            )
        assert value_measure == oracle_measure


def test_cauchy_defect_within_budget():
    f = three_cell_svf()
    chain = extract(f, 5)
    for k, m in [(2, 3), (2, 5), (3, 5)]:
        d = cauchy_defect(chain, k, m)
        assert d.region_measure == 0
        assert d.within_budget


# ---------------------------------------------------------------------------
# cell-aligned exact steps against the cell-by-piece loops


def _axis_tiling(draw):
    """One axis's intervals over [0, 1], as (lo, hi, closed_lo, closed_hi).

    Each inner cut closes the interval below it, the one above it, or is
    a singleton cell of its own; the outer ends are open or closed.
    """
    cuts = sorted(draw(st.sets(st.integers(1, 7), max_size=3)))
    ends = [F_(0), *(F_(c, 8) for c in cuts), F_(1)]
    modes = [draw(st.sampled_from(["below", "above", "single"])) for _ in cuts]
    outer = draw(st.tuples(st.booleans(), st.booleans()))
    out = []
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        clo = outer[0] if i == 0 else modes[i - 1] == "above"
        chi = outer[1] if i == len(cuts) else modes[i] == "below"
        out.append((lo, hi, clo, chi))
        if i < len(cuts) and modes[i] == "single":
            out.append((hi, hi, True, True))
    return out


@st.composite
def cellwise_svf_pairs(draw):
    """Two cellwise SVFs on one random tiling: dims 1-2, beta 1-2, mixed
    closures, singleton and degenerate cells, one empty cell, and value
    sets of boxes and points.  The range box sometimes puts values out of
    the zero start's reach, so extraction can fail with CoverageError."""
    alpha, beta = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    axes = [_axis_tiling(draw) for _ in range(alpha)]
    if alpha == 2:
        assume(len(axes[0]) * len(axes[1]) <= 20)
    cells = [
        BasicSet.box(*([a[i] for a in combo] for i in range(4)))
        for combo in itertools.product(*axes)
    ]
    box = BasicSet.box(
        [a[0][0] for a in axes], [a[-1][1] for a in axes],
        [a[0][2] for a in axes], [a[-1][3] for a in axes],
    )
    empty = BasicSet.box([F_(1, 2)] * alpha, [F_(1, 2)] * alpha, [False] * alpha, [False] * alpha)
    cells.insert(draw(st.integers(0, len(cells))), empty)
    lo, hi = draw(st.sampled_from([-1, F_(-1, 4)])), draw(st.sampled_from([1, 2]))
    coord = st.integers(int(lo * 16), int(hi * 16) - 1).map(lambda c: F_(c, 16))

    def value_set():
        parts = []
        for _ in range(draw(st.integers(1, 2))):
            corner = [draw(coord) for _ in range(beta)]
            size = [F_(draw(st.integers(0, 4)), 16) for _ in range(beta)]
            parts.append(BasicSet.closed_box(corner, [c + s for c, s in zip(corner, size)]))
        return GeneralizedBasicSet.of(parts, dim=beta)

    rmap = AffineRangeMap.of([lo] * beta, [hi] * beta)
    return tuple(
        build_cellwise_svf(box, [(c, value_set()) for c in cells], rmap) for _ in range(2)
    )


@given(pair=cellwise_svf_pairs())
@settings(max_examples=60, deadline=None)
def test_exact_steps_match_cell_by_piece_reference_hypothesis(pair):
    f = pair[0]
    step, ref = None, None
    for k in range(2, 5):
        try:
            want = extraction_step_reference(ref, f, k)
        except CoverageError as e:
            with pytest.raises(CoverageError) as got:
                extraction_step(step, f, k)
            assert (str(got.value), got.value.region) == (str(e), e.region)
            return
        step = extraction_step(step, f, k)
        assert (step.pieces, step.certificate) == want
        ref = want[0]


# unit offsets with exact rational length 1, axis-aligned and not
_UNITS = {
    1: [(1,), (-1,)],
    2: [(1, 0), (0, -1), (F_(3, 5), F_(4, 5)), (F_(-4, 5), F_(3, 5)), (F_(5, 13), F_(-12, 13))],
    3: [(1, 0, 0), (0, 0, -1), (F_(2, 3), F_(-2, 3), F_(1, 3)), (F_(2, 7), F_(3, 7), F_(-6, 7))],
}


@st.composite
def admissible_cases(draw):
    """(digits, prev, vals, rmap, k) for `_CellScale.admits`, drawn so that
    exact ties occur: the level-k node r = digits / 2**(k+1) exactly
    2**-(k-1) from prev and exactly 2**-k from a part's corner or face,
    besides just inside, just outside and anywhere.  Parts are open,
    closed, mixed, degenerate or singletons, in normalized coordinates.
    rmap is a range map with dyadic, non-dyadic or float-valued ends; prev
    may be its normalized zero.  The digits lie in [0, 2**(k+1)], as every
    reader's do, the mesh edges 0 and 2**(k+1) drawn often.  With `far`
    the parts move 2 along the first axis, out of every mesh node's reach."""
    k, beta = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    ends = [
        (draw(st.sampled_from([0, F_(-1, 3), F_(-2, 7), -1, F_(-5, 3), 0.1])),
         draw(st.sampled_from([1, F_(7, 5), F_(2, 9), F_(10, 3), 2.3])))
        for _ in range(beta)
    ]
    rmap = AffineRangeMap.of([l for l, _ in ends], [as_fraction(l) + w for l, w in ends])
    top = 2 ** (k + 1)
    digits = [draw(st.one_of(st.sampled_from([0, top]), st.integers(0, top))) for _ in range(beta)]
    r = [F_(d, top) for d in digits]

    def offset(length):
        kind = draw(st.sampled_from(["tie", "tie", "under", "over", "free"]))
        if kind == "free":
            return [F_(draw(st.integers(-3 * top, 3 * top)), 6 * top) for _ in range(beta)]
        unit = draw(st.sampled_from(_UNITS[beta]))
        scale = {"tie": 1, "under": F_(96, 97), "over": F_(98, 97)}[kind]
        return [length * scale * u for u in unit]

    prev_kind = draw(st.sampled_from(["offset", "offset", "zero", "node"]))
    if prev_kind == "offset":
        prev = [c + g for c, g in zip(r, offset(F_(1, 2 ** (k - 1))))]
    elif prev_kind == "zero":
        prev = list(rmap.normalize([0] * beta))
    else:
        prev = [F_(draw(st.integers(0, top // 2)), top // 2) for _ in range(beta)]

    parts, far = [], draw(st.integers(0, 7)) == 0
    for _ in range(draw(st.integers(1, 3))):
        gap = offset(F_(1, 2**k))  # from r to the part's nearest point q
        gap[0] += 2 * far
        kind = draw(st.sampled_from(["open", "closed", "mixed", "degenerate", "singleton"]))
        flat = {"singleton": set(range(beta)), "degenerate": {draw(st.integers(0, beta - 1))}}
        lo, hi = [], []
        for j, (c, g) in enumerate(zip(r, gap)):
            widths = [F_(1, top), F_(1, 16), F_(1, 3)]
            w = 0 if j in flat.get(kind, ()) else draw(st.sampled_from(widths))
            q = c + g
            lo.append(q if g > 0 else q - w)
            hi.append(q if g < 0 else q + w)
        if kind == "mixed":
            flags = [[draw(st.booleans()) for _ in range(beta)] for _ in range(2)]
        else:  # open, closed, or closed on the flat axes only
            closed = [kind == "closed" or j in flat.get(kind, ()) for j in range(beta)]
            flags = [closed, closed]
        parts.append(BasicSet.box(lo, hi, *flags))
    vals = GeneralizedBasicSet.of(parts, dim=beta)
    return tuple(digits), tuple(prev), vals, rmap, k


@given(case=admissible_cases())
@settings(max_examples=400, deadline=None)
def test_admissible_matches_fraction_reference_on_ties_hypothesis(case):
    """The integer rule on a node's digits and the value set in range
    coordinates decides as the `Fraction` one on the node and the normalized
    value set, exact ties included."""
    digits, prev, vals, rmap, k = case
    got = _case_scale(case).admits(digits)
    r = tuple(F_(d, 2 ** (k + 1)) for d in digits)
    assert got == admissible_reference(r, prev, vals, k)


@given(case=admissible_cases())
@settings(max_examples=400, deadline=None)
def test_first_admitted_matches_ball_walk_reference_hypothesis(case):
    """The tabled walk of the ball's runs finds the digits that `admits` on
    every in-range ball offset finds first, and None where none passes."""
    _, _, vals, _, k = case
    scale, top = _case_scale(case), 2 ** (k + 1)
    assert scale.first_admitted(_ball_runs(vals.dim), top) == first_admitted_reference(scale, top)


def _case_scale(case):
    """The `_CellScale` of an `admissible_cases` draw, its value set
    denormalized to range coordinates."""
    _, prev, vals, rmap, k = case
    raw = GeneralizedBasicSet.of(
        [BasicSet.box(rmap.denormalize(p.lo), rmap.denormalize(p.hi), p.closed_lo, p.closed_hi)
         for p in vals.parts],
        dim=vals.dim,
    )
    return _CellScale([c.as_integer_ratio() for c in prev], raw, rmap.int_axes, k)


@given(pair=cellwise_svf_pairs(), drop=st.booleans())
@settings(max_examples=40, deadline=None)
def test_exact_cauchy_defect_matches_piece_pair_reference_hypothesis(pair, drop):
    """On chains spliced from two SVFs over one tiling, so that levels can
    disagree, and with a cell dropped from the last level when `drop`: the
    first cell, in SVF order, of its last piece."""
    try:
        a, b = (extract(f, 4) for f in pair)
    except CoverageError:
        assume(False)
    steps = [a.steps[0], b.steps[1], a.steps[2]]
    if drop:
        winner = list(steps[-1].winner)
        winner[winner.index(max(winner))] = -1
        steps[-1] = dataclasses.replace(steps[-1], winner=tuple(winner))
    chain = dataclasses.replace(a, steps=tuple(steps))
    for k, m in itertools.combinations(range(2, 5), 2):
        assert cauchy_defect(chain, k, m) == cauchy_defect_reference(chain, k, m)


def test_extraction_step_refuses_previous_step_of_another_svf():
    prev = extraction_step(None, desk_svf(), 2)
    with pytest.raises(InputError, match="level-2 step holds no piece for cell 0 of the SVF"):
        extraction_step(prev, three_cell_svf(), 3)


def test_extraction_step_refuses_previous_step_of_svf_with_as_many_other_cells():
    """Two cells each, cut at 1/2 and at 1/4: a lookup by cell index alone
    would read the desk step's values as this SVF's."""
    box = BasicSet.closed_box([0], [1])
    quarter = build_cellwise_svf(box, [
        (BasicSet.interval(0, F_(1, 4), True, True), atoms(F_(1, 4))),
        (BasicSet.interval(F_(1, 4), 1, False, True), atoms(F_(1, 4), F_(3, 4))),
    ])
    prev = extraction_step(None, desk_svf(), 2)
    assert len(prev.winner) == len(quarter.cells) and extraction_step(None, quarter, 2) == prev
    with pytest.raises(InputError, match="level-2 step holds no piece for cell 0 of the SVF"):
        extraction_step(prev, quarter, 3)
    # the desk's cells with other values: the step's value 1/8 on each cell
    # is read, and 1/16 is the lowest node within 1/8 of the new value 1/8
    same_cells = build_cellwise_svf(box, [(c, atoms(F_(1, 8))) for c, _ in desk_svf().cells])
    assert extraction_step(prev, same_cells, 3).winner == (1, 1)


def _perturbed(step, seed):
    """The step with about half its winners moved to random nodes of its mesh
    and a tenth set to -1."""
    rng = random.Random(seed)
    n_nodes = math.prod(selector.mesh_shape(step.level, step.svf.beta))
    winner = [
        -1 if r < 0.1 else rng.randrange(n_nodes) if r < 0.55 else w
        for w, r in ((w, rng.random()) for w in step.winner)
    ]
    return dataclasses.replace(step, winner=tuple(winner))


@pytest.mark.parametrize(
    "make",
    [lambda: desk_sampled(16), lambda: masked_square_sampled(), lambda: export_svf(2, F_(4, 9))],
    ids=["desk", "masked-2d", "robot-3d"],
)
def test_grid_cauchy_defect_matches_float_reference(make):
    """The integer rule on mesh digits decides as the float comparison did, on
    extracted chains, on chains whose last level lost cells, and on chains
    with moved winners, so that cells fall on both sides of the threshold and,
    on the desk and masked grids, exactly on it."""
    chain = extract(make(), 4)
    last = chain.steps[-1]
    lost = dataclasses.replace(
        last, winner=tuple(-1 if i % 3 == 0 else w for i, w in enumerate(last.winner))
    )
    assert -1 in lost.winner
    chains = [chain, dataclasses.replace(chain, steps=(*chain.steps[:-1], lost))]
    for seed in range(4):
        chains.append(
            dataclasses.replace(
                chain, steps=tuple(_perturbed(s, 10 * seed + s.level) for s in chain.steps)
            )
        )
    measures = set()
    for c in chains:
        for k, m in itertools.combinations(range(2, 5), 2):
            got = cauchy_defect(c, k, m)
            assert got == grid_cauchy_defect_reference(c, k, m)
            measures.add(got.region_measure)
    assert len(measures) > 3


# ---------------------------------------------------------------------------
# evaluation


def test_eval_desk_point():
    f = desk_svf()
    chain = extract(f, 2)
    res = eval_selector(chain, [F_(3, 10)])
    assert res.defined
    assert res.value == (F_(1, 8),)


def test_eval_witness_endpoint_undefined():
    f = desk_svf()
    chain = extract(f, 3)
    res = eval_selector(chain, [F_(1, 2)])
    assert not res.defined
    assert res.reason == EvalResult.INSIDE_WITNESS


def test_eval_outside_domain():
    f = desk_svf()
    chain = extract(f, 2)
    res = eval_selector(chain, [F_(3, 2)])
    assert not res.defined
    assert res.reason == EvalResult.OUTSIDE_DOMAIN


def _probe_points(boxes):
    """Every endpoint of 1-D boxes, the midpoints between them and two outside values."""
    ends = sorted({c for b in boxes for c in (b.lo[0], b.hi[0])})
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return [[x] for x in ends + mids + [ends[0] - 1, ends[-1] + 1]]


@pytest.mark.parametrize(
    "svf_fn",
    [desk_svf, three_cell_svf, four_cell_svf, offmesh_beta2_svf, beta3_svf],
)
def test_point_location_matches_linear_scan(svf_fn):
    f = svf_fn()
    cells = [c for c, _ in f.cells]
    for x in _probe_points(cells):
        assert f.cell_index_at(x) == first_part_containing(cells, x)
    for step in extract(f, 4).steps:
        parts = [p for q, _ in step.pieces for p in q.parts]
        for x in _probe_points(parts):
            owners = [
                r for q, r in step.pieces if first_part_containing(q.parts, x) is not None
            ]
            want = owners[0] if owners else None
            assert step.value_at(x) == want


@pytest.mark.parametrize(
    "svf_fn",
    [desk_svf, three_cell_svf, four_cell_svf, offmesh_beta2_svf, beta3_svf],
)
def test_exact_final_witness_is_make_witness_of_per_part_sequence(svf_fn):
    f = svf_fn()
    chain = extract(f, 4)
    dim = f.domain_box.dim
    parts = [p for q, _ in chain.steps[-1].pieces for p in q.parts]
    seq = SetSequence(
        tuple(GeneralizedBasicSet.of([p], dim=dim) for p in parts), "rowmajor"
    )
    for eps in (chain.dom_budget, F_(1, 7), F_(1, 100)):
        want = make_witness(seq, f.domain_box, eps, coverage="closure")
        assert chain.final_witness(eps) == want


def test_eval_rejects_nonpositive_witness_budget():
    chain = extract(desk_svf(), 2)
    for eps in (0, F_(-1, 8)):
        with pytest.raises(InputError, match="witness budget"):
            eval_selector(chain, [F_(3, 10)], eps)


@pytest.mark.parametrize(
    "make_chain",
    [
        lambda: extract(offmesh_beta2_svf(), 4),
        lambda: extract(beta3_svf(), 3),
        lambda: extract(export_svf(2, F_(4, 9)), 4),
        lambda: extract(desk_sampled(16), 4),
        lambda: extract(masked_square_sampled(), 4),
    ],
    ids=["exact-beta2", "exact-beta3", "robot-grid", "desk-grid", "masked-2d-grid"],
)
def test_final_values_equal_per_value_denormalize(make_chain):
    chain = make_chain()
    step, denormalize = chain.steps[-1], chain.svf.range_map.denormalize
    want = {
        w: denormalize(mesh_value(step.level, w, chain.beta))
        for w in sorted(set(step.winner))
        if w >= 0
    }
    assert want and chain.final_values == want  # the desk grid chain has one value


@pytest.mark.parametrize(
    "svf_fn",
    [desk_svf, three_cell_svf, four_cell_svf, offmesh_beta2_svf, beta3_svf],
)
def test_continuous_extension_of_final_exact_step(svf_fn):
    chain = extract(svf_fn(), 4)
    step = chain.steps[-1]
    for eps in (chain.dom_budget, F_(1, 7)):
        g = continuous_extension(PiecewiseConstantMap(step.pieces, chain.svf.cell_domain), eps)
        assert g.exception.measure() <= eps
        for i in range(257):
            x = [F_(i, 256)]
            v = step.value_at(x)
            if v is not None and not g.exception.contains(x):
                assert g(x) == tuple(float(c) for c in v)


# ---------------------------------------------------------------------------
# evaluation against the engine-by-engine reference


def half_open_square_svf():
    """2-D cellwise SVF on [0,1] x [0,1): the top face of the box is open."""
    h = F_(1, 2)
    box = BasicSet.box([0, 0], [1, 1], [True, True], [True, False])
    cells = [
        (BasicSet.box([0, 0], [h, h], [True, True], [True, True]), atoms(F_(1, 4))),
        (
            BasicSet.box([h, 0], [1, h], [False, True], [True, True]),
            atoms(F_(1, 4), F_(3, 4)),
        ),
        (BasicSet.box([0, h], [h, 1], [True, False], [True, False]), atoms(F_(3, 8))),
        (
            BasicSet.box([h, h], [1, 1], [False, False], [True, False]),
            GeneralizedBasicSet.of([BasicSet.interval(F_(1, 8), F_(3, 8), True, True)], dim=1),
        ),
    ]
    return build_cellwise_svf(box, cells)


def masked_square_sampled():
    """2-D sampled SVF (beta = 2) on a 6 x 6 grid with two excluded cells."""
    grid = GridSpec(BasicSet.closed_box([0, 0], [1, 1]), (6, 6))

    def sampler(centers):
        return [np.array([[0.25 if c[0] < 0.5 else 0.375, 0.3]]) for c in centers]

    svf = build_sampled_svf(grid, sampler, tau=0.0, range_map=identity_range_map(2))
    mask = np.ones(grid.n_cells, dtype=bool)
    mask[[7, 22]] = False
    return dataclasses.replace(svf, mask=mask)


_EVAL_EPS = (None, F_(1, 16), F_(1, 7), F_(1, 100))
_EVAL_CHAINS = (
    "exact", "exact-json", "exact-half-open-2d", "exact-thirds",
    "grid", "grid-masked-2d", "grid-robot-3d",
)


def thirds_svf():
    """1-D cellwise SVF cut at 1/3 and 7/9: cell ends that are not dyadic."""
    box = BasicSet.closed_box([0], [1])
    cells = [
        (BasicSet.interval(0, F_(1, 3), True, True), atoms(F_(1, 8))),
        (BasicSet.interval(F_(1, 3), F_(7, 9), False, False), atoms(F_(3, 8), F_(5, 8))),
        (BasicSet.interval(F_(7, 9), 1, True, True), atoms(F_(7, 16))),
    ]
    return build_cellwise_svf(box, cells)


@functools.cache
def _eval_case(name):
    """A chain and, per axis, the box faces with a point beyond each and a
    point between each face and the end of a witness slab that reaches
    past it, and the other coordinates where the answer can change: exact
    piece ends, witness slab ends and grid planes."""
    if name == "exact-json":
        chain, faces, inner = _eval_case("exact")
        return chain_from_json(json.loads(json.dumps(chain_to_json(chain)))), faces, inner
    make = {
        "exact": three_cell_svf,
        "exact-half-open-2d": half_open_square_svf,
        "exact-thirds": thirds_svf,
        "grid": lambda: desk_sampled(16),
        "grid-masked-2d": masked_square_sampled,
        # non-dyadic planes -2 + 4i/9, as in the robot_grid bench workload
        "grid-robot-3d": lambda: export_svf(2, F_(4, 9)),
    }[name]
    chain = extract(make(), 4)
    box = chain.svf.domain_box
    slabs = [p for eps in _EVAL_EPS[1:] for p in chain.final_witness(eps).parts]
    parts = list(slabs)
    if chain.engine == "exact":  # a grid cell's ends are grid planes, added below
        parts += [p for q, _ in chain.steps[-1].pieces for p in q.parts]
    faces, inner = [], []
    for j in range(box.dim):
        beyond = {(p.lo[j] + box.lo[j]) / 2 for p in slabs if p.lo[j] < box.lo[j]}
        beyond |= {(p.hi[j] + box.hi[j]) / 2 for p in slabs if p.hi[j] > box.hi[j]}
        faces.append(
            sorted({box.lo[j] - F_(1, 4), box.lo[j], box.hi[j], box.hi[j] + F_(1, 4), *beyond})
        )
        coords = {c for p in parts for c in (p.lo[j], p.hi[j])}
        if chain.svf.kind == "sampled":
            coords |= set(chain.svf.grid.planes[j])
        inner.append(sorted(coords))
    return chain, faces, inner


@pytest.mark.parametrize("name", _EVAL_CHAINS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_eval_matches_engine_reference_hypothesis(name, data):
    chain, faces, inner = _eval_case(name)
    eps = data.draw(st.sampled_from(_EVAL_EPS))
    # floats too, as the closed loop passes them
    x = [
        data.draw(
            st.one_of(
                st.sampled_from(ends),
                st.sampled_from(coords),
                st.sampled_from(coords).map(float),
                st.fractions(ends[0], ends[-1], max_denominator=64),
                st.floats(float(ends[0]), float(ends[-1])),
            )
        )
        for ends, coords in zip(faces, inner)
    ]
    assert eval_selector(chain, x, eps) == eval_selector_reference(chain, x, eps)


@pytest.mark.parametrize("name", ["exact", "exact-json", "exact-half-open-2d", "exact-thirds"])
def test_exact_eval_is_outside_domain_in_witness_slab_beyond_box(name):
    """M(eps) reaches past the box; there the answer is outside_domain."""
    chain, _, _ = _eval_case(name)
    box = chain.svf.domain_box
    n_points = 0
    for eps in _EVAL_EPS[1:]:
        m = chain.final_witness(eps)
        for p, j in itertools.product(m.parts, range(box.dim)):
            x = [(lo + hi) / 2 for lo, hi in zip(p.lo, p.hi)]
            for end, beyond in ((box.lo[j], p.lo[j]), (box.hi[j], p.hi[j])):
                x[j] = (end + beyond) / 2
                if x[j] != end and m.contains(x) and not box.closure().contains(x):
                    n_points += 1
                    assert eval_selector(chain, x, eps) == EvalResult(None, "outside_domain")
    assert n_points >= 6


@pytest.mark.parametrize("name", ["desk", "grid-robot-3d"])
def test_eval_refuses_malformed_points(name):
    """Every coordinate is checked before any step answers, on both engines."""
    chain = extract(desk_svf(), 4) if name == "desk" else _eval_case(name)[0]
    dim = chain.svf.domain_box.dim
    refusals = [(c, ValueError, "non-finite scalar") for c in (math.nan, math.inf, -math.inf)]
    refusals += [(True, TypeError, "bool"), ("abc", ValueError, "abc")]
    for j in range(dim):
        for bad, error, match in refusals:
            x = [F_(1, 3)] * dim
            x[j] = bad
            with pytest.raises(error, match=match):
                eval_selector(chain, x)
    for x in ([F_(1, 3)] * (dim + 1), [1 / 3] * (dim + 1), [1 / 3] * (dim - 1)):
        with pytest.raises(SetAlgebraError, match=f"point dimension {len(x)} != set dimension {dim}"):
            eval_selector(chain, x)


# ---------------------------------------------------------------------------
# grid engine


def desk_sampled(n_cells=16):
    """Sampled twin of the desk SVF on a cell-aligned grid (tau = 0)."""
    grid = GridSpec(BasicSet.closed_box([0], [1]), (n_cells,))

    def sampler(centers):
        out = []
        for c in centers:
            if c[0] <= 0.5:
                out.append(np.array([[0.25]]))
            else:
                out.append(np.array([[0.25], [0.75]]))
        return out

    return build_sampled_svf(grid, sampler, tau=0.0, range_map=identity_range_map(1))


def test_grid_engine_matches_exact_on_desk():
    f_exact = desk_svf()
    f_grid = desk_sampled()
    for n in (2, 3, 4):
        ce = extract(f_exact, n)
        cg = extract(f_grid, n)
        for x in [F_(1, 10), F_(3, 10), F_(6, 10), F_(9, 10)]:
            ve = ce.steps[-1].value_at([x])
            vg = cg.steps[-1].value_at([x])
            assert tuple(float(c) for c in ve) == tuple(float(c) for c in vg)


def test_grid_engine_certified_error():
    f = desk_sampled(32)
    n = 5
    chain = extract(f, n)
    rng = random.Random(3)
    for _ in range(500):
        x = F_(rng.randint(0, 8192), 8192)
        v = chain.steps[-1].value_at([x])
        d = svf_distance(f, f.range_map.denormalize(v), [x])
        assert d < chain.final_error_bound + 1e-12


def test_grid_engine_refuses_coarse_tau():
    grid = GridSpec(BasicSet.closed_box([0], [1]), (4,))

    def sampler(centers):
        return [np.array([[float(c[0])]]) for c in centers]

    svf = build_sampled_svf(grid, sampler)
    assert svf.tau > 2.0**-5
    with pytest.raises(PrecisionError):
        extract(svf, 4)


def test_grid_engine_names_lowest_uncovered_cell():
    # cells 2 and 5 hold the value 1, out of reach of the level-2 ball
    # around the anchor 0; the error names the lower of the two
    grid = GridSpec(BasicSet.closed_box([0], [1]), (8,))

    def sampler(centers):
        return [np.array([[1.0 if i in (2, 5) else 0.25]]) for i in range(len(centers))]

    svf = build_sampled_svf(grid, sampler, tau=0.0, range_map=identity_range_map(1))
    with pytest.raises(CoverageError) as err:
        extract(svf, 3)
    assert "level 2 on cell (2,)" in str(err.value)
    assert err.value.region == grid.cell_box((2,))


def _reference_winners(F, n):
    """Each level's winners by the unpruned walk, or the CoverageError it raises."""
    out, prev = [], None
    try:
        for k in range(2, n + 1):
            prev = grid_step_reference(prev, F, k)
            out.append(prev)
    except CoverageError as e:
        return out, e
    return out, None


@st.composite
def sampled_svfs(draw):
    """Small random sampled SVFs with a level n that their tau admits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    beta = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    tau = draw(st.floats(0.0, 2.0 ** -(n + 1)))
    grid = GridSpec(BasicSet.closed_box([0] * len(shape), [1] * len(shape)), shape)
    # single points, several, or as many as the robot export keeps
    max_points = draw(st.sampled_from([1, 4, MAX_NET]))
    nets = [rng.uniform(-1, 1, (rng.integers(1, max_points + 1), beta)) for _ in range(grid.n_cells)]
    if draw(st.booleans()):
        # anchored at 0 with values up to 0.6 per axis: some cells unreachable
        nets = [0.6 * np.abs(v) for v in nets]
        range_map = identity_range_map(beta)
    else:
        range_map = None  # symmetric box, anchor at its center
    svf = build_sampled_svf(grid, lambda centers: nets, tau=tau, range_map=range_map)
    if draw(st.booleans()):
        svf = dataclasses.replace(svf, mask=rng.random(grid.n_cells) < 0.8)
    return svf, n


@given(sampled_svfs(), st.sampled_from([1, 500, 8_000_000]))
@settings(max_examples=120, deadline=None)
def test_pruned_grid_walk_matches_full_walk_hypothesis(case, temp_elems):
    svf, n = case
    want, err = _reference_winners(svf, n)
    # small temporaries split the cells into several chunks
    with mock.patch.object(selector, "_GRID_TEMP_ELEMS", temp_elems):
        if err is None:
            chain = extract(svf, n)
            assert all(np.array_equal(s.winner, w) for s, w in zip(chain.steps, want))
            return
        with pytest.raises(CoverageError) as got:
            extract(svf, n)
    assert str(got.value) == str(err) and got.value.region == err.region


def _slab_boundary_svf(tau, beta, ulps_inside):
    """One cell whose net point lies eps_accept (less `ulps_inside` ulps)
    beyond the level-2 slab of first digit 1, along the first axis."""
    n0 = 1 / 8 + (2.0**-2 + 2.0 * tau)
    for _ in range(ulps_inside):
        n0 = math.nextafter(n0, 0)
    net = np.array([[n0] + [1 / 8] * (beta - 1)])
    grid = GridSpec(BasicSet.closed_box([0], [1]), (1,))
    return build_sampled_svf(grid, lambda c: [net], tau=tau, range_map=identity_range_map(beta))


@pytest.mark.parametrize("ulps_inside", [0, 1], ids=["at-eps", "1-ulp-inside"])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 1 / 64, 0.02])
def test_slab_bound_keeps_candidates_on_its_boundary(tau, beta, ulps_inside):
    svf = _slab_boundary_svf(tau, beta, ulps_inside)
    assert np.array_equal(extract(svf, 2).steps[0].winner, grid_step_reference(None, svf, 2))


def test_slab_guard_keeps_a_winner_the_bare_bound_drops():
    # the float test admits the node (1/8, 1/8), although the first-axis
    # distance of its net point, in float, already reaches eps_accept
    svf = _slab_boundary_svf(0.02, 2, 0)
    accept = 2.0**-2 + 2.0 * svf.tau
    assert (1 / 8 - svf.padded_nets[0, 0, 0]) ** 2 >= accept * accept
    want = grid_step_reference(None, svf, 2)
    assert mesh_value(2, int(want[0]), 2) == (F_(1, 8), F_(1, 8))
    assert np.array_equal(extract(svf, 2).steps[0].winner, want)


def test_grid_walk_reaches_the_last_first_digit_run():
    # f_1 sits at (3/64, 3/64), off the level-2 node (0, 0); net point B
    # keeps the runs of first digits 0..3 but lies beyond the gap from all
    # of their candidates, and net point A admits only the node (4/8, 0),
    # in the run of first-digit offset +4
    lo = F_(-3, 64)
    nets = np.array([[0.72, 0.0], [0.2, 0.95]]) + float(lo)
    grid = GridSpec(BasicSet.closed_box([0], [1]), (1,))
    svf = build_sampled_svf(
        grid, lambda c: [nets], tau=0.0, range_map=AffineRangeMap.of([lo] * 2, [lo + 1] * 2)
    )
    accept2 = 2.0**-4
    first = svf.padded_nets[0, :, 0]
    assert all(((d0 / 8 - first) ** 2).min() < accept2 for d0 in range(4))
    want = grid_step_reference(None, svf, 2)
    assert unravel(int(want[0]), (9, 9)) == (4, 0)
    assert np.array_equal(extract(svf, 2).steps[0].winner, want)


def test_robot_grid_winners_match_full_walk_at_every_level():
    svf = export_svf(2, F_(4, 11))
    want, err = _reference_winners(svf, 4)
    assert err is None
    assert all(np.array_equal(s.winner, w) for s, w in zip(extract(svf, 4).steps, want))


def test_grid_engine_dom_monotone_and_gap():
    f = desk_sampled(32)
    chain = extract(f, 5)
    for a, b in zip(chain.steps, chain.steps[1:]):
        assert ((np.array(b.winner) >= 0) <= (np.array(a.winner) >= 0)).all()


def test_grid_steps_chains_and_sampled_svfs_compare_by_value():
    a, b = extract(desk_sampled(16), 3), extract(desk_sampled(16), 3)
    assert a.steps[0] is not b.steps[0]
    assert a.steps[0] == b.steps[0] and a == b and a.svf == b.svf
    # an equal pair, then pairs differing only in an array field
    other = dataclasses.replace(a.steps[0], winner=tuple(int(w == 0) for w in a.steps[0].winner))
    assert a.steps[0] != other
    assert extract(desk_sampled(32), 3) != a
    nets = list(a.svf.nets)
    nets[0] = nets[0] + 1.0
    assert dataclasses.replace(a.svf, nets=tuple(nets)) != a.svf
    masked = dataclasses.replace(a.svf, mask=np.ones(a.svf.grid.n_cells, dtype=bool))
    assert masked != a.svf and masked == dataclasses.replace(masked)


# ---------------------------------------------------------------------------
# determinism / serialization


def test_chain_json_roundtrip_eval():
    f = three_cell_svf()
    chain = extract(f, 4)
    j = chain_to_json(chain)
    back = chain_from_json(json.loads(json.dumps(j)))
    rng = random.Random(8)
    for _ in range(100):
        x = [F_(rng.randint(0, 1024), 1024)]
        assert eval_selector(back, x) == eval_selector(chain, x)


# the keys of a step in chain.json, for both engines
STEP_KEYS = {f.name for f in dataclasses.fields(selector.StepCertificate)} | {"winner"}


@given(pair=cellwise_svf_pairs())
@settings(max_examples=40, deadline=None)
def test_exact_chain_json_round_trips_hypothesis(pair):
    """chain.json reads back to an equal chain, its SVF and empty cell
    included, and dumps to the same bytes; each step writes its
    certificate and one winner per cell, -1 on the empty cell."""
    from selectorkit.cli import _json_bytes

    f = pair[0]
    try:
        chain = extract(f, 4)
    except CoverageError:
        assume(False)
    text = _json_bytes(chain_to_json(chain))
    back = chain_from_json(json.loads(text))
    assert back == chain
    assert _json_bytes(chain_to_json(back)) == text
    empty = [i for i, (cell, _) in enumerate(f.cells) if cell.is_empty]
    for s in json.loads(text)["steps"]:
        assert set(s) == STEP_KEYS
        assert len(s["winner"]) == len(f.cells) and [s["winner"][i] for i in empty] == [-1]


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(steps=[]),
        lambda c: c["steps"][0].update(level=9),
        lambda c: c.update(steps=c["steps"][::-1]),
        lambda c: c.update(n=1, steps=[]),
    ],
    ids=["no-steps", "level-beyond-n", "levels-reversed", "n-below-2"],
)
def test_chain_from_json_requires_levels_2_to_n(edit):
    obj = json.loads(json.dumps(chain_to_json(extract(three_cell_svf(), 4))))
    edit(obj)
    with pytest.raises(InputError, match="'steps'"):
        chain_from_json(obj)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mesh_pitch", 7),
        ("error_bound", {"num": 1, "exp2": 1}),
        ("step_gap", {"num": 1, "exp2": 4}),
        ("slack", 0.25),
        ("n_pieces", 99),
        ("dom_measure", {"num": 1, "exp2": 1}),
        ("witness_budget", {"num": 1, "exp2": 6}),
    ],
)
def test_chain_from_json_rejects_certificate_that_contradicts_its_step(field, value):
    obj = json.loads(json.dumps(chain_to_json(extract(desk_svf(), 4))))
    assert chain_from_json(obj).final_error_bound == 1 / 16
    obj["steps"][2][field] = value  # the level-4 step
    with pytest.raises(InputError, match=f"level 4 certifies {field} = "):
        chain_from_json(obj)


@pytest.mark.parametrize("budget", [0, {"num": -1, "exp2": 4}], ids=["zero", "negative"])
@pytest.mark.parametrize("with_steps", [False, True], ids=["chain-only", "with-steps"])
def test_chain_from_json_refuses_nonpositive_dom_budget(budget, with_steps):
    obj = json.loads(json.dumps(chain_to_json(extract(desk_svf(), 4))))
    obj["dom_budget"] = budget
    if with_steps:  # the steps' budgets scaled to match, as extract would write them
        for step in obj["steps"]:
            step["witness_budget"] = rational_to_json(
                rational_from_json(budget) / 2 ** (4 - step["level"] + 1)
            )
    with pytest.raises(InputError, match="'dom_budget' must be positive"):
        chain_from_json(obj)


def test_chain_from_json_rejects_svf_that_is_no_object():
    obj = json.loads(json.dumps(chain_to_json(extract(three_cell_svf(), 2))))
    obj["svf"] = [1, 2]
    with pytest.raises(InputError, match="'svf'"):
        chain_from_json(obj)


@pytest.mark.parametrize(
    "make, has_undefined",
    [
        (lambda: desk_sampled(16), False),
        (masked_square_sampled, True),
        (lambda: export_svf(2, F_(4, 9)), False),
    ],
    ids=["desk", "masked-2d", "robot-3d"],
)
def test_grid_chain_json_writes_each_step_as_its_winners(make, has_undefined):
    """Each grid step is written as one mesh index per cell, -1 where it is
    undefined; the grid and beta come from the `svf` block."""
    chain = extract(make(), 4)
    obj = json.loads(json.dumps(chain_to_json(chain)))
    svf = obj["svf"]
    grid = GridSpec(
        basic_set_from_json(svf["domain"], len(svf["grid_shape"])), tuple(svf["grid_shape"])
    )
    beta = len(svf["range"]["lo"])
    assert (grid, beta) == (chain.svf.grid, chain.beta)
    assert len(obj["steps"]) == len(chain.steps)
    for s, step in zip(obj["steps"], chain.steps):
        assert set(s) == STEP_KEYS
        assert len(s["winner"]) == grid.n_cells
        assert (-1 in s["winner"]) == has_undefined
        rebuilt = Step(s["level"], tuple(s["winner"]), step.certificate, chain.svf)
        assert rebuilt == step


def _grid_probes(svf, n_points=120):
    """Seeded points over the box and a little past it, each coordinate a grid
    plane, a plane as a float, a k/1024 fraction or a uniform float."""
    rng = random.Random(29)
    box = svf.domain_box
    points = []
    for _ in range(n_points):
        x = []
        for j in range(box.dim):
            lo, hi = box.lo[j] - F_(1, 8), box.hi[j] + F_(1, 8)
            plane = rng.choice(svf.grid.planes[j])
            x.append(rng.choice([
                plane,
                float(plane),
                lo + (hi - lo) * F_(rng.randint(0, 1024), 1024),
                rng.uniform(float(lo), float(hi)),
            ]))
        points.append(x)
    return points


# sha256 of a grid chain's `chain.json` bytes, of `selector_csv` and of the
# `eval_selector` answers (their reprs, at three witness budgets) on
# `_grid_probes`; a change to these bytes must be named
GRID_DIGESTS = {
    "desk": {
        "chain.json": "ded36bf54d879904703726dff20bd747946ec58f334d7ab790f3a8cc2a2f4cf3",
        "selector_csv": "491dbfaf967c615d2eeb77a0a482e77592c6076ce5e7539b4bd20259be0e515c",
        "evals": "73a2bcb1d692e88e9a403fdfb2daf85b470dc3a58cf13e05e660e93c8082fea4",
    },
    "masked-2d": {
        "chain.json": "49b06d000995e84ffe244188c3f2d5e8e7e9f3ee1b5682f67cca6de7265559d9",
        "selector_csv": "1acbca43d62656564b79ee632af4f4fd455a6182d9f008a8a29ee8f2a5c3e774",
        "evals": "3f79d5303274c477aae961d2b3dd41838414d6deee6a727d8be769b7459d5481",
    },
    "robot-3d": {
        "chain.json": "aaf26a6a5edbcba6ada238146230276d0f6532572fce926e268e41e3e8974dd9",
        "selector_csv": "bc37b2758bcfac6b0432c8624233e4fd8ef6355edbd24be5e145054ff5b65b41",
        "evals": "9a2a8ffc6e92f9cceffaace5ccd9a3aace995f3140d5b674c70daa5e7051494a",
    },
}


@pytest.mark.parametrize(
    "name, make",
    [
        ("desk", lambda: desk_sampled(16)),
        ("masked-2d", masked_square_sampled),
        ("robot-3d", lambda: export_svf(2, F_(4, 9))),
    ],
)
def test_grid_chain_and_eval_bytes_are_pinned(name, make):
    import hashlib

    from selectorkit.cli import _json_bytes

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    chain = extract(make(), 4)
    probes = _grid_probes(chain.svf)
    evals = [eval_selector(chain, x, eps) for eps in (None, F_(1, 7), F_(1, 100)) for x in probes]
    got = {
        "chain.json": sha(_json_bytes(chain_to_json(chain))),
        "selector_csv": sha(selector_csv(chain, probes)),
        "evals": sha(repr(evals)),
    }
    assert got == GRID_DIGESTS[name]


def test_chain_from_json_refuses_sampled_chain():
    obj = json.loads(json.dumps(chain_to_json(extract(desk_sampled(16), 3))))
    with pytest.raises(InputError, match="only cellwise chains"):
        chain_from_json(obj)


@pytest.mark.parametrize(
    "edit, match",
    [
        # the level-4 value 7/32 of both cells moved to 31/32, 0.72 from F(0.3)
        (
            lambda c: c["steps"][2].update(winner=[31, 31]),
            r"level 4 gives piece 0 the value \(31/32\) on cell 0, which is not a level-4 "
            r"mesh node within 2\*\*-4 of the cell's values and 2\*\*-3 of its level-3 "
            r"value \(3/16\)",
        ),
        # one past the last of the level-4 mesh's 33 nodes
        (
            lambda c: c["steps"][2].update(winner=[33, 33]),
            r"level 4 gives cell 0 the winner 33, not an index below 33",
        ),
        # the level-3 value 3/16 of both cells moved to 11/16, 9/16 from
        # their level-2 value 1/8
        (
            lambda c: c["steps"][1].update(winner=[11, 11]),
            r"level 3 gives piece 0 the value \(11/16\) on cell 0, .* level-2 value \(1/8\)",
        ),
        (
            lambda c: c.update(f1=[{"num": 1, "exp2": 3}]),
            r"'f1' must be the normalized zero \(0\), not \(1/8\)",
        ),
    ],
    ids=["moved-value", "off-mesh", "gap-too-wide", "f1-not-zero"],
)
def test_chain_from_json_redecides_each_value_on_each_cell(edit, match):
    obj = json.loads(json.dumps(chain_to_json(extract(desk_svf(), 4))))
    edit(obj)
    with pytest.raises(InputError, match=match):
        chain_from_json(obj)


@given(pair=cellwise_svf_pairs(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_chain_from_json_redecides_a_moved_winner_hypothesis(pair, data):
    """One cell's winner at level k moved to another in-range index, with
    the step's piece count kept consistent: `chain_from_json` accepts the
    chain exactly when the `Fraction` rule admits the moved value at level
    k, and the cell's level-(k+1) value from it.  Otherwise it raises the
    InputError (exit 3 in the CLI) that names the first failing level,
    the piece, the value, the cell and its value one level down."""
    f = pair[0]
    try:
        chain = extract(f, 4)
    except CoverageError:
        assume(False)
    ci = data.draw(st.sampled_from([i for i, (c, _) in enumerate(f.cells) if not c.is_empty]))
    k = data.draw(st.integers(2, 4))
    old, nodes, top = chain.steps[k - 2].winner[ci], selector.mesh_shape(k, f.beta), 2 ** (k + 1)
    if data.draw(st.booleans()):  # a near node, often still admissible
        near = st.integers(-2, 2)
        digits = [min(max(d + data.draw(near), 0), top) for d in unravel(old, nodes)]
        w = ravel(digits, nodes)
        assume(w != old)
    else:
        w = data.draw(st.integers(0, math.prod(nodes) - 2))
        w += w >= old
    obj = json.loads(json.dumps(chain_to_json(chain)))
    winner = obj["steps"][k - 2]["winner"]
    winner[ci] = w
    obj["steps"][k - 2]["n_pieces"] = len(set(winner) - {-1})

    def value(level):  # the cell's value at a level, after the move
        return mesh_value(level, obj["steps"][level - 2]["winner"][ci], f.beta)

    vals = normalized_values_reference(f, ci)
    prev = chain.f1_value if k == 2 else value(k - 1)
    checks = [(k, value(k), prev)] + ([(k + 1, value(k + 1), value(k))] if k < 4 else [])
    fails = [(level, r, p) for level, r, p in checks if not admissible_reference(r, p, vals, level)]
    if not fails:
        assert chain_from_json(obj).steps[k - 2].winner[ci] == w
        return
    level, r, p = fails[0]
    at = obj["steps"][level - 2]["winner"]
    piece = len({v for v in at if 0 <= v < at[ci]})
    fmt = lambda t: "(" + ", ".join(str(c) for c in t) + ")"
    with pytest.raises(InputError) as got:
        chain_from_json(obj)
    assert str(got.value) == (
        f"chain step at level {level} gives piece {piece} the value {fmt(r)} on cell {ci}, "
        f"which is not a level-{level} mesh node within 2**-{level} of the cell's values "
        f"and 2**-{level - 1} of its level-{level - 1} value {fmt(p)}"
    )


def _with_empty_cell(f):
    """f with an empty cell inserted second, with the values of f's first."""
    empty = BasicSet.box([F_(1, 4)], [F_(1, 4)], [False], [False])
    cells = [f.cells[0], (empty, f.cells[0][1]), *f.cells[1:]]
    return build_cellwise_svf(f.domain_box, cells, f.range_map)


def _set_winner(level, i, w):
    return lambda c: c["steps"][level - 2]["winner"].__setitem__(i, w)


@pytest.mark.parametrize(
    "edit, match",
    [
        (
            lambda c: c["steps"][1]["winner"].pop(),
            r"level 3 must list a winner for each of the SVF's 4 cells, not 3",
        ),
        (
            lambda c: c["steps"][1].update(winner={"0": 1}),
            r"level 3 must list a winner for each of the SVF's 4 cells, not the dict \{'0': 1\}",
        ),
        (_set_winner(3, 0, True), r"level 3 gives cell 0 the winner True, not an index below 17"),
        (_set_winner(3, 2, 3.0), r"level 3 gives cell 2 the winner 3.0, not an index below 17"),
        (_set_winner(3, 3, 17), r"level 3 gives cell 3 the winner 17, not an index below 17"),
        (_set_winner(4, 0, -1), r"level 4 gives cell 0 the winner -1, not an index below 33"),
        (_set_winner(2, 1, 0), r"level 2 gives cell 1 the winner 0, not -1, the cell being empty"),
        (lambda c: c["steps"][2].pop("winner"), r"chain is missing the field 'winner'"),
    ],
    ids=[
        "cell-missing", "not-a-list", "bool", "float", "past-mesh",
        "undefined-on-cell", "value-on-empty-cell", "no-winner",
    ],
)
def test_chain_from_json_refuses_step_not_aligned_with_cells(edit, match):
    """A step holds one mesh index per cell of the SVF, an int on the level's
    mesh on each non-empty cell and -1 on each empty one."""
    obj = json.loads(json.dumps(chain_to_json(extract(_with_empty_cell(three_cell_svf()), 4))))
    assert obj["steps"][0]["winner"][1] == -1
    edit(obj)
    with pytest.raises(InputError, match=match):
        chain_from_json(obj)


def test_extraction_deterministic():
    f = four_cell_svf()
    j1 = json.dumps(chain_to_json(extract(f, 4)), sort_keys=True)
    j2 = json.dumps(chain_to_json(extract(f, 4)), sort_keys=True)
    assert j1 == j2


def test_selector_csv_output():
    f = desk_svf()
    chain = extract(f, 3)
    text = selector_csv(chain, [[F_(i, 10)] for i in range(11)])
    lines = text.strip().split("\n")
    assert lines[0] == "x1,f1,status"
    assert len(lines) == 12


# ---------------------------------------------------------------------------
# weak-continuity finishing pass


def test_piecewise_constant_finish_desk():
    f = desk_svf()
    chain = extract(f, 4)
    report = piecewise_constant_finish(chain, n_probes=33, grid=500)
    assert report.valid
    assert report.sup_error_outside < report.epsilon
