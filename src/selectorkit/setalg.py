"""Exact algebra of basic and generalized sets.

Basic sets are axis-aligned boxes in dimension 1..3 with exact rational
corners and per-face closure flags, so differences like
``[0,1] \\ (1/4,1/2)`` come out exactly as ``[0,1/4] u [1/2,1]``.  A
generalized basic set is a finite union of basic sets.  The measure is
overlap-blind: it sums part volumes without subtracting intersections,
and singletons, box boundaries and the empty set weigh zero.

Open and closed ends are compared by one rule, the folded integer end
key.  Axis j of a computation is scaled by L_j, the lcm of the end
denominators on that axis, so an end at v becomes the int n = v * L_j,
and its closure folds into the key: a lower end is 2n closed and 2n + 1
open, an upper end 2n closed and 2n - 1 open.  An axis is empty exactly
when lo > hi, and a meet is the larger lower and the smaller upper key.
The slabs of q \\ b on an axis are (q.lo, b.lo - 1) below b and
(b.hi + 1, q.hi) above it: the same end with the opposite closure is
just -1 or +1.  Set difference, intersection and the countable
reduction encode their inputs once per call, cut tuples of ints, and
decode by a per-axis dict from the scaled int back to the inputs' own
`Fraction` ends, since cutting never makes a new end value.  A single
box decides emptiness and membership on the cross-multiplied scale
(`_crossed`), and `AxisKeys.slot` applies the same rule to ranks.

The countable reduction rewrites a sequence of generalized sets into
pairwise-disjoint subsets covering the same union up to boundary
points, subtracting parts in the order given by a pairing bijection
over (set index, part index).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import gt
from typing import Iterable, Sequence

from .errors import InputError
from .rational import as_exact, as_fraction, int_from_json, rational_from_json, rational_to_json

MAX_DIM = 3

Point = tuple[Fraction, ...]


class SetAlgebraError(InputError):
    """Raised on malformed set-algebra inputs."""


def _aspoint(x: Sequence, dim: int, scalar=as_fraction) -> Point:
    pt = tuple(map(scalar, x))
    if len(pt) != dim:
        raise SetAlgebraError(f"point dimension {len(pt)} != set dimension {dim}")
    return pt


# ---------------------------------------------------------------------------
# basic sets


@dataclass(frozen=True)
class BasicSet:
    """Axis-aligned box with per-face closure flags.

    Degenerate axes (lo == hi, both faces closed) represent singletons
    and lower-dimensional faces.  An axis with lo > hi, or lo == hi
    without both faces closed, makes the whole set empty.
    """

    dim: int
    lo: Point
    hi: Point
    closed_lo: tuple[bool, ...]
    closed_hi: tuple[bool, ...]

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise SetAlgebraError(f"dimension {self.dim} outside 1..{MAX_DIM}")
        for field in (self.lo, self.hi, self.closed_lo, self.closed_hi):
            if len(field) != self.dim:
                raise SetAlgebraError("per-axis field length mismatch")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def box(lo: Sequence, hi: Sequence, closed_lo=None, closed_hi=None) -> "BasicSet":
        lo_ = tuple(as_fraction(c) for c in lo)
        hi_ = tuple(as_fraction(c) for c in hi)
        d = len(lo_)
        if closed_lo is None:
            closed_lo = (False,) * d
        if closed_hi is None:
            closed_hi = (False,) * d
        if isinstance(closed_lo, bool):
            closed_lo = (closed_lo,) * d
        if isinstance(closed_hi, bool):
            closed_hi = (closed_hi,) * d
        return BasicSet(d, lo_, hi_, tuple(closed_lo), tuple(closed_hi))

    @staticmethod
    def open_box(lo: Sequence, hi: Sequence) -> "BasicSet":
        return BasicSet.box(lo, hi, False, False)

    @staticmethod
    def closed_box(lo: Sequence, hi: Sequence) -> "BasicSet":
        return BasicSet.box(lo, hi, True, True)

    @staticmethod
    def singleton(point: Sequence) -> "BasicSet":
        return BasicSet.closed_box(point, point)

    @staticmethod
    def empty(dim: int) -> "BasicSet":
        z = (Fraction(0),) * dim
        return BasicSet(dim, z, z, (False,) * dim, (False,) * dim)

    @staticmethod
    def interval(lo, hi, closed_lo=False, closed_hi=False) -> "BasicSet":
        return BasicSet.box([lo], [hi], [closed_lo], [closed_hi])

    # -- structure ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return any(map(_crossed, self.lo, self.closed_lo, self.hi, self.closed_hi))

    def axis_degenerate(self, j: int) -> bool:
        return self.lo[j].as_integer_ratio() == self.hi[j].as_integer_ratio()

    @property
    def kind(self) -> str:
        if self.is_empty:
            return "empty"
        if all(self.axis_degenerate(j) for j in range(self.dim)):
            return "singleton"
        # a non-empty axis open at both ends has lo < hi
        if not any(self.closed_lo) and not any(self.closed_hi):
            return "open-box"
        return "box"

    def measure(self) -> Fraction:
        """Geometric volume; zero for empty, singletons and faces."""
        if self.is_empty:
            return Fraction(0)
        vol = Fraction(1)
        for j in range(self.dim):
            vol *= self.hi[j] - self.lo[j]
        return vol

    def contains(self, point: Sequence) -> bool:
        """Whether each coordinate c meets its axis: both [lo, c] and [c, hi] hold c."""
        for c, lo, clo, hi, chi in zip(
            _aspoint(point, self.dim), self.lo, self.closed_lo, self.hi, self.closed_hi
        ):
            if _crossed(lo, clo, c, True) or _crossed(c, True, hi, chi):
                return False
        return True

    # -- algebra -----------------------------------------------------------

    def intersect(self, other: "BasicSet") -> "BasicSet":
        _check_dims(self, other)
        frame = _Frame(self.dim, (self, other))
        meet = _meet(frame.encode(self), frame.encode(other))
        return BasicSet.empty(self.dim) if _key_empty(meet) else frame.decode(meet)

    def intersects(self, other: "BasicSet") -> bool:
        """Whether the boxes meet, decided on their keys without building the meet."""
        _check_dims(self, other)
        frame = _Frame(self.dim, (self, other))
        return not _key_empty(_meet(frame.encode(self), frame.encode(other)))

    def subtract(self, other: "BasicSet") -> list["BasicSet"]:
        """Guillotine difference; pieces are pairwise disjoint."""
        _check_dims(self, other)
        return _cut(self, (other,))

    def faces(self) -> list["BasicSet"]:
        """Boundary of the box as closed degenerate boxes.

        A fully degenerate part is its own boundary.  For each
        non-degenerate axis the two opposing faces are emitted with the
        remaining axes closed.
        """
        if self.is_empty:
            return []
        nondeg = [j for j in range(self.dim) if not self.axis_degenerate(j)]
        if not nondeg:
            return [self.closure()]
        out = []
        closed = self.closure()
        for j in nondeg:
            for v in (self.lo[j], self.hi[j]):
                lo = list(closed.lo)
                hi = list(closed.hi)
                lo[j] = hi[j] = v
                out.append(BasicSet.closed_box(lo, hi))
        return out

    def closure(self) -> "BasicSet":
        if self.is_empty:
            return self
        return BasicSet(
            self.dim, self.lo, self.hi, (True,) * self.dim, (True,) * self.dim
        )

    def interior_open(self) -> "BasicSet":
        """All-open variant (empty if any axis is degenerate)."""
        out = BasicSet(
            self.dim, self.lo, self.hi, (False,) * self.dim, (False,) * self.dim
        )
        return out if not out.is_empty else BasicSet.empty(self.dim)

    def inflate(self, r: Fraction) -> "BasicSet":
        """Closed box grown by r on every face."""
        r = as_fraction(r)
        return BasicSet.closed_box(
            [c - r for c in self.lo], [c + r for c in self.hi]
        )

    def dist2_point(self, point: Sequence) -> Fraction:
        """Exact squared Euclidean distance from a point to the closure."""
        if self.is_empty:
            raise SetAlgebraError("distance to the empty set is infinite")
        pt = _aspoint(point, self.dim)
        acc = Fraction(0)
        for j in range(self.dim):
            if pt[j] < self.lo[j]:
                gap = self.lo[j] - pt[j]
            elif pt[j] > self.hi[j]:
                gap = pt[j] - self.hi[j]
            else:
                continue
            acc += gap * gap
        return acc

    def __repr__(self) -> str:
        if self.is_empty:
            return f"BasicSet.empty({self.dim})"
        axes = []
        for j in range(self.dim):
            l = "[" if self.closed_lo[j] else "("
            r = "]" if self.closed_hi[j] else ")"
            axes.append(f"{l}{self.lo[j]},{self.hi[j]}{r}")
        return "x".join(axes)


# ---------------------------------------------------------------------------
# folded integer end keys


def _crossed(lo, clo: bool, hi, chi: bool) -> bool:
    """Whether the lower end (lo, clo) lies past the upper end (hi, chi): the
    folded keys on the scale b*d of lo = a/b and hi = c/d, so an axis is
    empty, and a coordinate misses an end, exactly when its ends cross."""
    a, b = lo.as_integer_ratio()
    c, d = hi.as_integer_ratio()
    return 2 * a * d + (not clo) > 2 * c * b - (not chi)


# A box as keys: (lower keys, upper keys), one int per axis each.
Keys = tuple[tuple[int, ...], tuple[int, ...]]


class _Frame:
    """The folded end keys of one computation's boxes, and back.

    Axis j is scaled by L_j, the lcm of the end denominators on that axis
    over the boxes given.  Cutting and meeting never make a new end value,
    so `decode` maps each scaled end back to the input's own `Fraction`
    by a per-axis dict.
    """

    __slots__ = ("scales", "values")

    def __init__(self, dim: int, boxes: Sequence[BasicSet]):
        self.scales = [
            math.lcm(*{v.denominator for b in boxes for v in (b.lo[j], b.hi[j])})
            for j in range(dim)
        ]
        self.values: list[dict[int, Fraction]] = [{} for _ in range(dim)]

    def encode(self, box: BasicSet) -> Keys:
        lo, hi = [], []
        for v, clo, w, chi, scale, values in zip(
            box.lo, box.closed_lo, box.hi, box.closed_hi, self.scales, self.values
        ):
            a, b = v.as_integer_ratio()
            c, d = w.as_integer_ratio()
            n, m = a * (scale // b), c * (scale // d)
            values[n] = v
            values[m] = w
            lo.append(2 * n + (not clo))
            hi.append(2 * m - (not chi))
        return tuple(lo), tuple(hi)

    def decode(self, key: Keys) -> BasicSet:
        lo, hi = key
        return BasicSet(
            len(lo),
            tuple(values[k >> 1] for values, k in zip(self.values, lo)),
            tuple(values[(k + 1) >> 1] for values, k in zip(self.values, hi)),
            tuple(not (k & 1) for k in lo),
            tuple(not (k & 1) for k in hi),
        )

    def cut(self, part: BasicSet, key: Keys, boxes: Iterable[Keys]) -> list[BasicSet]:
        """What is left of part, encoded as key, after removing each box in
        turn: none of an empty part, and part itself when no box meets it."""
        kept = [] if _key_empty(key) else [key]
        for b in boxes:
            if not kept:
                break
            kept = [q for p in kept for q in _minus(p, b)]
        return [part] if kept == [key] else [self.decode(q) for q in kept]


def _key_empty(key: Keys) -> bool:
    return any(map(gt, *key))


def _meet(a: Keys, b: Keys) -> Keys:
    return tuple(map(max, a[0], b[0])), tuple(map(min, a[1], b[1]))


def _minus(p: Keys, b: Keys) -> list[Keys]:
    """Non-empty key box p minus key box b, as guillotine slabs.

    Axis by axis, the slab of p below b ends at b's lower key - 1 and the
    slab above starts at b's upper key + 1 (the same value, the opposite
    closure); p then shrinks to the meet on that axis.  The core inside b
    is dropped.  Returns [p] when the boxes do not meet.
    """
    for lo, hi, blo, bhi in zip(*p, *b):
        if lo > bhi or blo > hi or blo > bhi:  # b misses p, or is empty
            return [p]
    pieces = []
    lo, hi = list(p[0]), list(p[1])
    for j, (blo, bhi) in enumerate(zip(*b)):
        if lo[j] < blo:
            pieces.append((tuple(lo), (*hi[:j], blo - 1, *hi[j + 1 :])))
            lo[j] = blo
        if bhi < hi[j]:
            pieces.append(((*lo[:j], bhi + 1, *lo[j + 1 :]), tuple(hi)))
            hi[j] = bhi
    return pieces


@dataclass(frozen=True)
class AxisKeys:
    """Sorted distinct rational breakpoints on one axis, each times `scale`
    (the lcm of their denominators) as an int, so a coordinate is placed
    among them by one integer division and a bisection, exactly.  Optional
    outer ends lo <= hi, scaled alike, close the axis to [lo, hi]."""

    scale: int
    keys: list[int]
    lo: int | None = None
    hi: int | None = None

    @staticmethod
    def of(values: Sequence[Fraction], lo=None, hi=None) -> "AxisKeys":
        ends = () if lo is None else (lo, hi)
        scale = math.lcm(*(v.denominator for v in (*ends, *values)))
        ints = [v.numerator * (scale // v.denominator) for v in (*ends, *values)]
        return AxisKeys(scale, sorted(set(ints[len(ends) :])), *ints[: len(ends)])

    def key(self, v: Fraction) -> int:
        """v times scale; v's denominator divides scale."""
        return v.numerator * (self.scale // v.denominator)

    def place(self, c) -> tuple[int, int] | None:
        """(#keys < c, #keys <= c), or None when c lies outside [lo, hi].

        c is an exact rational read through `as_integer_ratio`.  With
        c * scale = n + r / q, 0 <= r < q, an int key k is at most c
        exactly when k <= n, and below c when k <= n and r > 0 or k < n.
        """
        p, q = c.as_integer_ratio()
        n, r = divmod(p * self.scale, q)
        if self.lo is not None and (n < self.lo or n > self.hi or (n == self.hi and r)):
            return None
        upto = bisect_right(self.keys, n)
        return (upto if r else bisect_left(self.keys, n)), upto

    @staticmethod
    def slot(below: int, upto: int, closed: bool = True, side: int = 0) -> int:
        """Slot covered by an interval end placed at (below, upto).

        Slot 2i+1 is the key v_i and slot 2i the gap below it.  An end
        between keys (below == upto) lies in the gap, whatever its closure.
        An end at v_i covers v_i's slot when closed, else the gap next to
        it inside the interval: above (side 1) for a lower end, below
        (side -1) for an upper one.  A point's slot is below + upto.  This
        is the folded end key on the scale of ranks: 2i + 1 plays 2n, and
        an open end moves one slot inward as 2n + 1 and 2n - 1 do.
        """
        return below + upto + (0 if closed or below == upto else side)


def _check_dims(a, b) -> None:
    if a.dim != b.dim:
        raise SetAlgebraError(f"dimension mismatch {a.dim} != {b.dim}")


# ---------------------------------------------------------------------------
# generalized basic sets


@dataclass(frozen=True)
class GeneralizedBasicSet:
    """Finite union of basic sets; `of` drops empty parts, the plain
    constructor keeps them."""

    dim: int
    parts: tuple[BasicSet, ...]

    def __post_init__(self):
        for p in self.parts:
            if p.dim != self.dim:
                raise SetAlgebraError("part dimension mismatch")

    @staticmethod
    def of(parts: Iterable[BasicSet], dim: int | None = None) -> "GeneralizedBasicSet":
        kept = tuple(p for p in parts if not p.is_empty)
        if dim is None:
            if not kept:
                raise SetAlgebraError("dimension required for the empty union")
            dim = kept[0].dim
        return GeneralizedBasicSet(dim, kept)

    @staticmethod
    def empty(dim: int) -> "GeneralizedBasicSet":
        return GeneralizedBasicSet(dim, ())

    @property
    def is_empty(self) -> bool:
        """Whether the set has no point: the plain constructor may keep empty
        parts (a cellwise SVF's cell union holds each cell at its index)."""
        return all(p.is_empty for p in self.parts)

    def measure(self) -> Fraction:
        """Overlap-blind: plain sum of part volumes."""
        return sum((p.measure() for p in self.parts), Fraction(0))

    def contains(self, point: Sequence) -> bool:
        return self.locate(point) is not None

    def locate(self, point: Sequence) -> int | None:
        """Index of the first part containing the point, or None.

        Each coordinate, read exactly through `as_exact`, is placed in its
        slot among the axis's sorted endpoint values by `AxisKeys`.  The
        parts holding the point start at or before that slot and end at or
        after it on every axis; the lowest bit of that mask is the first.
        """
        if not self.parts:
            return None
        return self.locate_exact(_aspoint(point, self.dim, as_exact))

    def locate_exact(self, pt: Sequence) -> int | None:
        """`locate` for a point already checked by `_aspoint` with `as_exact`."""
        hits = (1 << len(self.parts)) - 1
        for c, (axis, starts, ends) in zip(pt, self._rank_index):
            s = axis.slot(*axis.place(c))
            hits &= starts[s] & ends[s]
            if not hits:
                return None
        return (hits & -hits).bit_length() - 1

    def meeting(self, box: BasicSet) -> list[int]:
        """Indices, in part order, of the parts that intersect the box.

        On each axis a non-empty box covers the slots from the one holding
        its first point to the one holding its last; a part meets it there
        when it starts at or before the box's last slot and ends at or
        after its first.
        """
        _check_dims(self, box)
        if not self.parts or box.is_empty:
            return []
        hits = (1 << len(self.parts)) - 1
        for j, (axis, starts, ends) in enumerate(self._rank_index):
            first = axis.slot(*axis.place(box.lo[j]), box.closed_lo[j], 1)
            last = axis.slot(*axis.place(box.hi[j]), box.closed_hi[j], -1)
            hits &= starts[last] & ends[first]
            if not hits:
                return []
        out = []
        while hits:
            low = hits & -hits
            out.append(low.bit_length() - 1)
            hits ^= low
        return out

    @cached_property
    def _rank_index(self) -> tuple[tuple[AxisKeys, list[int], list[int]], ...]:
        """Per axis: the part ends as `AxisKeys` and two cumulative part masks.

        A part covers the slots from its lower end's slot to its upper
        end's (each end's rank read from a dict on the keys); an empty
        part covers none on some axis and enters no mask there.  starts[s]
        holds the parts whose first slot is at most s, ends[s] those whose
        last slot is at least s.
        """
        index = []
        for j in range(self.dim):
            axis = AxisKeys.of([c for p in self.parts for c in (p.lo[j], p.hi[j])])
            rank = {k: i for i, k in enumerate(axis.keys)}
            starts = [0] * (2 * len(rank) + 1)
            ends = [0] * (2 * len(rank) + 1)
            for k, p in enumerate(self.parts):
                a, b = rank[axis.key(p.lo[j])], rank[axis.key(p.hi[j])]
                first = axis.slot(a, a + 1, p.closed_lo[j], 1)
                last = axis.slot(b, b + 1, p.closed_hi[j], -1)
                if first <= last:
                    starts[first] |= 1 << k
                    ends[last] |= 1 << k
            for s in range(1, len(starts)):
                starts[s] |= starts[s - 1]
                ends[-1 - s] |= ends[-s]
            index.append((axis, starts, ends))
        return tuple(index)

    @cached_property
    def gamma(self) -> tuple[BasicSet, ...]:
        """Endpoint set: union of the boundaries of all parts."""
        out: list[BasicSet] = []
        seen = set()
        for p in self.parts:
            for f in p.faces():
                key = (f.lo, f.hi)
                if key not in seen:
                    seen.add(key)
                    out.append(f)
        return tuple(out)

    def subtract(self, other: "GeneralizedBasicSet | BasicSet") -> "GeneralizedBasicSet":
        """Each part cut, in order, by the parts of other that meet it."""
        if isinstance(other, BasicSet):
            other = GeneralizedBasicSet(self.dim, (other,))
        if not other.parts:
            return self
        frame, near = self._meetings(other)
        pieces: list[BasicSet] = []
        for p, boxes in zip(self.parts, near):
            pieces.extend(frame.cut(p, frame.encode(p), boxes))
        return GeneralizedBasicSet(self.dim, tuple(pieces))

    def intersect(self, other: "GeneralizedBasicSet | BasicSet") -> "GeneralizedBasicSet":
        """The meets of each part with the parts of other that it meets, in order."""
        if isinstance(other, BasicSet):
            other = GeneralizedBasicSet(self.dim, (other,))
        frame, near = self._meetings(other)
        parts = []
        for p, boxes in zip(self.parts, near):
            key = frame.encode(p)
            parts.extend(frame.decode(_meet(key, b)) for b in boxes)
        return GeneralizedBasicSet(self.dim, tuple(parts))

    def _meetings(self, other: "GeneralizedBasicSet") -> tuple["_Frame", list[list[Keys]]]:
        """A frame over the parts and the parts of other that meet them, and
        per part the keys of those, in order; each box is encoded once."""
        near = [other.meeting(p) for p in self.parts]
        used = {k: other.parts[k] for ks in near for k in ks}
        frame = _Frame(self.dim, (*self.parts, *used.values()))
        keys = {k: frame.encode(b) for k, b in used.items()}
        return frame, [[keys[k] for k in ks] for ks in near]

    def issubset(self, other: "GeneralizedBasicSet") -> bool:
        """Exact containment, closure flags included."""
        return self.subtract(other).is_empty

    def __repr__(self) -> str:
        if self.is_empty:
            return f"GBS.empty({self.dim})"
        return " u ".join(repr(p) for p in self.parts)


GBS = GeneralizedBasicSet


def _cut(part: BasicSet, boxes: Iterable[BasicSet]) -> list[BasicSet]:
    """The pieces of part left after removing each box in turn.

    An empty part leaves none; a part that no box meets stands as it is.
    """
    boxes = tuple(boxes)
    frame = _Frame(part.dim, (part, *boxes))
    return frame.cut(part, frame.encode(part), map(frame.encode, boxes))


def union_with_owners(
    sets: Sequence[GeneralizedBasicSet],
) -> tuple[GeneralizedBasicSet, tuple[int, ...]]:
    """The parts of all sets, in order, as one union, and the set owning each part.

    The first part containing a point lies in the first set containing
    it, so `owner[union.locate(x)]` is that set's index.
    """
    union = GeneralizedBasicSet(
        sets[0].dim if sets else 1, tuple(p for q in sets for p in q.parts)
    )
    return union, tuple(i for i, q in enumerate(sets) for _ in q.parts)


def first_meeting_pair(sets: Sequence[GeneralizedBasicSet]) -> tuple[int, int] | None:
    """The first pair i < j, in row-major order, of sets whose parts meet.

    One box query per part on the union of all parts; parts of one set
    never make a pair.  None when the sets are pairwise disjoint.
    """
    union, owner = union_with_owners(sets)
    return min(
        (
            (owner[k], owner[m])
            for k, p in enumerate(union.parts)
            for m in union.meeting(p)
            if owner[m] > owner[k]
        ),
        default=None,
    )


# ---------------------------------------------------------------------------
# measure / distance entry points


def measure(s: GeneralizedBasicSet | BasicSet) -> Fraction:
    return s.measure()


def set_difference(a: BasicSet, bs: GeneralizedBasicSet) -> GeneralizedBasicSet:
    """Exact a \\ bs with correct closure flags."""
    _check_dims(a, bs)
    return GeneralizedBasicSet(a.dim, (a,)).subtract(bs)


def dist_point_set(x: Sequence, s: GeneralizedBasicSet | BasicSet) -> float:
    """Euclidean infimum distance to the closure; +inf to the empty set."""
    if isinstance(s, BasicSet):
        s = GeneralizedBasicSet(s.dim, (s,))
    d2 = dist2_point_set(x, s)
    return math.inf if d2 is None else math.sqrt(d2)


def dist2_point_set(x: Sequence, s: GeneralizedBasicSet) -> Fraction | None:
    """Exact squared distance to the closure, skipping empty parts; None if all are."""
    parts = [p for p in s.parts if not p.is_empty]
    if not parts:
        return None
    pt = _aspoint(x, s.dim)
    return min(p.dist2_point(pt) for p in parts)


# ---------------------------------------------------------------------------
# pairing bijections and set sequences

PAIRINGS = ("cantor", "rowmajor")


def flatten_index(n: int, m: int) -> int:
    """Cantor pairing N^2 -> N."""
    s = n + m
    return s * (s + 1) // 2 + m


def unflatten_index(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    t = w * (w + 1) // 2
    m = z - t
    return w - m, m


@dataclass(frozen=True)
class SetSequence:
    """Ordered sequence of generalized basic sets plus its pairing order.

    The pairing fixes the order in which double indices (set, part) are
    flattened for the countable reduction: "cantor" sorts by the Cantor
    pairing value, "rowmajor" enumerates all parts of item 0, then of
    item 1, and so on (used where the lowest set index must win ties).
    """

    items: tuple[GeneralizedBasicSet, ...]
    pairing: str = "cantor"

    def __post_init__(self):
        if self.pairing not in PAIRINGS:
            raise SetAlgebraError(f"unknown pairing {self.pairing!r}")
        dims = {it.dim for it in self.items}
        if len(dims) > 1:
            raise SetAlgebraError("mixed dimensions in sequence")

    @staticmethod
    def of(items: Iterable, pairing: str = "cantor") -> "SetSequence":
        out = []
        for it in items:
            if isinstance(it, BasicSet):
                it = GeneralizedBasicSet.of([it], dim=it.dim)
            out.append(it)
        return SetSequence(tuple(out), pairing)

    @property
    def dim(self) -> int:
        if not self.items:
            raise SetAlgebraError("empty sequence has no dimension")
        return self.items[0].dim

    @cached_property
    def _union(self) -> GeneralizedBasicSet:
        """The parts of all items, in order, as one union, built once."""
        return GeneralizedBasicSet(
            self.dim, tuple(p for it in self.items for p in it.parts)
        )

    def union_parts(self) -> list[BasicSet]:
        return list(self._union.parts) if self.items else []

    def as_gbs(self) -> GeneralizedBasicSet:
        return self._union

    def measure(self) -> Fraction:
        return sum((it.measure() for it in self.items), Fraction(0))

    def contains(self, point: Sequence) -> bool:
        return bool(self.items) and self._union.contains(point)

    def gamma(self) -> tuple[BasicSet, ...]:
        return self._union.gamma

    def flat_order(self) -> list[tuple[int, int]]:
        """Used (set, part) index pairs in subtraction order."""
        pairs = [
            (n, m) for n, it in enumerate(self.items) for m in range(len(it.parts))
        ]
        if self.pairing == "cantor":
            pairs.sort(key=lambda nm: flatten_index(*nm))
        return pairs


def countable_reduction(xs: SetSequence) -> SetSequence:
    """Pairwise-disjoint subsets K_n <= J_n covering the union densely.

    Each flattened part has every earlier part (in pairing order)
    subtracted from it; K_n collects the surviving pieces of J_n's
    parts.  Every part is encoded once and the cuts run on its keys.
    No new endpoints appear and the overlap-blind measure of the union
    is preserved.
    """
    order = xs.flat_order()
    dim = xs.dim if xs.items else 1
    parts = [xs.items[n].parts[m] for n, m in order]
    frame = _Frame(dim, parts)
    keys = [frame.encode(p) for p in parts]
    reduced: dict[tuple[int, int], list[BasicSet]] = {}
    for i, (nm, part, key) in enumerate(zip(order, parts, keys)):
        reduced[nm] = frame.cut(part, key, keys[:i])
    out_items = [
        GeneralizedBasicSet(
            dim, tuple(q for m in range(len(it.parts)) for q in reduced[(n, m)])
        )
        for n, it in enumerate(xs.items)
    ]
    return SetSequence(tuple(out_items), xs.pairing)


# ---------------------------------------------------------------------------
# JSON interchange


def basic_set_to_json(b: BasicSet) -> dict:
    kind = b.kind
    if kind == "empty":
        return {"kind": kind}
    return {
        "kind": kind,
        "lo": [rational_to_json(c) for c in b.lo],
        "hi": [rational_to_json(c) for c in b.hi],
        "closed_lo": list(b.closed_lo),
        "closed_hi": list(b.closed_hi),
    }


def basic_set_from_json(obj: dict, dim: int) -> BasicSet:
    if not isinstance(obj, dict):
        raise SetAlgebraError(f"a basic set is not an object: {obj!r}")
    if obj.get("kind") == "empty":
        return BasicSet.empty(dim)
    closed_lo = obj.get("closed_lo", [False] * dim)
    closed_hi = obj.get("closed_hi", [False] * dim)
    if obj.get("kind") == "singleton":
        closed_lo = closed_hi = [True] * dim
    try:
        lo = [rational_from_json(c) for c in obj["lo"]]
        hi = [rational_from_json(c) for c in obj["hi"]]
        b = BasicSet.box(lo, hi, closed_lo, closed_hi)
    except KeyError as e:
        raise SetAlgebraError(f"missing corner field {e}") from e
    except TypeError as e:
        raise SetAlgebraError(f"a basic set field has the wrong type: {e}") from e
    if b.dim != dim:
        raise SetAlgebraError(f"part dimension {b.dim} != declared {dim}")
    return b


def gbs_to_json(s: GeneralizedBasicSet) -> dict:
    return {"dim": s.dim, "parts": [basic_set_to_json(p) for p in s.parts]}


def gbs_from_json(obj: dict) -> GeneralizedBasicSet:
    if not isinstance(obj, dict):
        raise SetAlgebraError(f"a generalized set is not an object: {obj!r}")
    dim = int_from_json(obj["dim"], "dim")
    parts = [basic_set_from_json(p, dim) for p in obj.get("parts", [])]
    return GeneralizedBasicSet.of(parts, dim=dim)


def sequence_to_json(xs: SetSequence) -> dict:
    return {
        "dim": xs.items[0].dim if xs.items else 1,
        "pairing": xs.pairing,
        "items": [gbs_to_json(it) for it in xs.items],
    }


def sequence_from_json(obj: dict) -> SetSequence:
    dim = int_from_json(obj.get("dim", 1), "dim")
    items = []
    try:
        for it in obj.get("items", []):
            if isinstance(it, dict) and "dim" not in it:
                it = dict(it, dim=dim)
            items.append(gbs_from_json(it))
    except TypeError as e:
        raise SetAlgebraError(f"a set sequence field has the wrong type: {e}") from e
    return SetSequence(tuple(items), obj.get("pairing", "cantor"))
