"""In-memory spans and the self-time arithmetic over them.

A span is ``(id, name, track, start, end, parent, ref)``: *name* starts
with the layer (``serving.batch``, ``compiler.kernel``), *track* is the
thread or process it ran on, *parent* the id of the span that caused
it, and *ref* the request / batch / job identifier that every span of
one unit of work shares.  Spans are appended to a list while the
workload runs and written once when it ends.

A span's **self time** is its duration minus the part of it covered
by its children *on the same track* — a child on another track ran
concurrently and took nothing from its parent's thread.  On one track
the self times of a span tree therefore partition the root's
duration, which is what lets the per-layer numbers add up to the
workload's wall time.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    track: str
    start: float
    end: float
    parent: Optional[int]
    ref: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Append-only span list; ids are list positions."""

    def __init__(self):
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, *,
            track: str = "main", parent: Optional[int] = None,
            ref: Optional[str] = None) -> int:
        """Record a finished span; returns its id."""
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, track, start, end, parent, ref))
        return span_id

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "header": header,
                    "columns": list(Span._fields),
                    "spans": [list(span) for span in self.spans],
                },
                handle,
            )


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``span id -> self seconds`` (see the module docstring)."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    children: Dict[int, list] = {}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.track == span.track:
            children.setdefault(parent.id, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def layer_self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds summed per layer (the first component of the name)."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def tree_self_seconds(spans: Iterable[Span], root: int) -> float:
    """Self seconds summed over *root* and its same-track descendants.

    Equals the root's duration when every child lies inside its parent
    and siblings do not overlap; the trace check compares the two.
    """
    spans = list(spans)
    own = self_times(spans)
    track = next(span.track for span in spans if span.id == root)
    kids: Dict[int, List[int]] = {}
    for span in spans:
        if span.parent is not None and span.track == track:
            kids.setdefault(span.parent, []).append(span.id)
    total, stack = 0.0, [root]
    while stack:
        node = stack.pop()
        total += own[node]
        stack.extend(kids.get(node, ()))
    return total
