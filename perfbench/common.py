"""Pieces shared by the workload modules and run.py."""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

# The calibration's reference time, a round figure near the fastest
# samples seen on a shared 2-core Xeon VM.  Scaled times are seconds at
# the host speed at which one sample takes this long.
REF_CALIBRATION_S = 0.035


@dataclass
class PassResult:
    """What one closed-loop pass of a workload measured and produced.

    `op_s` holds the latency of every query call of the pass (selector
    evaluations, or countable reductions in domain_suite).  `counts`
    are per-layer counts read from objects the program returned.
    `report` carries the workload-specific end-to-end figures under the
    names the report prints.  `fingerprint` digests the pass's outputs;
    passes over the same inputs must reproduce it exactly.
    """

    wall_s: float
    certify_s: float
    op_s: list[float]
    ops: int
    counts: dict[str, float]
    report: dict[str, float]
    fingerprint: dict[str, str]
    outputs: Any = field(repr=False)
    scale: float = 1.0  # host-speed factor of the pass, set by run.py


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


class Calibration:
    """Fixed work that calls no selectorkit code, timed between passes.

    The host is shared: for seconds to minutes at a time the same pass
    runs up to 1.7 times slower, whole runs included, so raw times of
    runs made minutes apart disagree by more than any useful bound.  The
    neighbours slow fixed work in the same process about as much, so
    `speed_scale` of the samples taken right before and right after a
    pass gives the factor that brings the pass's times to the reference
    host speed.  A sample runs interpreter work
    (Fraction arithmetic, tuple keys, a small dict) and random reads
    through a structure of about 100 MB, far beyond the caches: a loop of
    the first kind alone tracked the slowdowns of the Fraction-heavy
    passes too loosely.  A change to the program moves the scaled times
    exactly as it moves the raw ones.
    """

    REPEATS = 3
    SIZE = 300_000
    READS = 15_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i * 7919 % 10**9: (i, str(i)) for i in range(self.SIZE)}
        self._keys = list(self._table)
        rng.shuffle(self._keys)
        self._cells = [[i] for i in range(self.SIZE)]
        self._order = list(range(self.SIZE))
        rng.shuffle(self._order)

    def _work(self) -> int:
        acc, small = Fraction(0), {}
        for k in range(1, 4000):
            acc += Fraction(k % 89 + 1, k % 97 + 1)
            small[k % 211, k % 7] = acc.denominator % 1009
        total = sum(sorted(small.values()))
        for key in self._keys[: self.READS]:
            total += self._table[key][0]
        for i in self._order[: self.READS]:
            total += self._cells[i][0]
        return total

    def sample(self) -> list[float]:
        """Seconds the fixed work takes now, a few times over."""
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        return times


def speed_scale(before: list[float], after: list[float]) -> float:
    """Factor for a time measured between two calibration samples."""
    return REF_CALIBRATION_S / statistics.median(before + after)
