"""In-memory spans around the benchmark's calls into selectorkit.

A span records its name, start, end, the span that was open when it
began (its parent) and the pass it belongs to.  The layer of a span is
the part of its name before the first dot, so `selector.extract` belongs
to `selector`.  Spans are kept in memory and written out once, when the
run ends.  A disabled tracer hands out one shared no-op context, so
untraced passes pay a context-manager entry per call and nothing else.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

_NULL = contextlib.nullcontext()


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; `enabled` is switched per pass by run.py."""

    def __init__(self) -> None:
        self.enabled = False
        self.pass_id = 0
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return _OpenSpan(self, name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _OpenSpan:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_OpenSpan":
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._open[-1] if tr._open else None
        tr._open.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        tr.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, tr.pass_id)
        )
        return False


def timed(tr: Tracer, name: str, fn, *args, **kwargs):
    """Call fn inside a span; return (result, wall seconds of the call)."""
    t0 = time.perf_counter()
    with tr.span(name):
        out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def under_root(spans: list[Span], root_name: str) -> list[Span]:
    """The spans named root_name and every span nested inside one."""
    by_id = {s.id: s for s in spans}
    keep = []
    for s in spans:
        cur = s
        while cur.parent is not None:
            cur = by_id[cur.parent]
        if cur.name == root_name:
            keep.append(s)
    return keep


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Each span's duration minus its children's, summed per layer.

    Calls are sequential, so children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.duration - covered[s.id]
    return dict(out)


def total_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration
    return dict(out)
