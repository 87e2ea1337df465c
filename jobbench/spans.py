"""In-memory span recording and per-layer self time for the traced replay.

A span is one call into a layer: its name, start, end, the span that caused
it and the job it belongs to.  Spans are kept in memory and summarised when
the run ends.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the per-job root span; its self time is the unattributed rest.
ROOT = "job"
#: Layer name under which a job's unattributed time is reported.
OTHER = "other"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    job_id: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one :class:`Span` per ``with tracer.span(name):`` block."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._job_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, job_id: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if job_id is not None:
            self._job_id = job_id
        record = Span(name, self.clock(), parent=parent, job_id=self._job_id)
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()


class NullTracer:
    """The untraced replay: same call sites, nothing recorded."""

    enabled = False

    def span(self, name: str, job_id: Optional[str] = None):
        return nullcontext(_SINK)


_SINK = Span("", 0.0)


def covered(interval: Tuple[float, float], children: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    low, high = interval
    clipped = sorted(
        (max(low, start), min(high, end)) for start, end in children if end > low and start < high
    )
    total = 0.0
    cursor = low
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered((span.start, span.end), children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, object]]:
    """Per layer name: call durations and total self time (seconds).

    The root spans' self time is reported under :data:`OTHER`; the root
    durations themselves are the per-job wall times.
    """
    table: Dict[str, Dict[str, object]] = {}
    for span, own in zip(spans, self_times(spans)):
        name = OTHER if span.name == ROOT else span.name
        row = table.setdefault(name, {"durations": [], "self": 0.0, "attrs": {}})
        row["durations"].append(own if span.name == ROOT else span.duration)
        row["self"] += own
        for key, value in span.attrs.items():
            row["attrs"][key] = row["attrs"].get(key, 0.0) + value
    return table


def job_walls(spans: Sequence[Span]) -> List[float]:
    return [span.duration for span in spans if span.name == ROOT]
