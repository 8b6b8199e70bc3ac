"""Wall-clock spans taken from the benchmark's side of each layer call.

A :class:`Tracer` records one :class:`Span` per timed call into a layer
of ``repro`` (name, start, end, parent span, op id).  Nothing inside the
library is instrumented: the benchmark wraps its own calls into the
public functions of each module, so the spans show where the wall time
of an op went layer by layer.  Spans are kept in memory and written at
the end in the ``fppn-spans`` shape of
:func:`repro.io.json_io.spans_to_jsonable`.

A span's name is ``<layer>.<call>``; the layer is one of :data:`LAYERS`,
the repo's modules.  The tracer's mode says which ops it records:
``"off"`` none, ``"all"`` every op, ``"alternate"`` only odd-numbered
ops, so that a traced run also times untraced ops and can report the
tracing overhead.  Work outside any op (set-up, checks) is recorded in
every mode but ``"off"``.
"""

from __future__ import annotations

import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

LAYERS = (
    "core", "taskgraph", "scheduling", "runtime", "experiment", "io",
    "analysis", "service", "apps",
)


@dataclass
class Span:
    """One timed call: seconds since the run started, plus its parent."""

    name: str
    span_id: int
    parent_id: Optional[int]
    kind: str  # the layer
    start: float
    end: Optional[float]
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    MODES = ("off", "all", "alternate")

    def __init__(self, mode: str, epoch: Optional[float] = None) -> None:
        if mode not in self.MODES:
            raise ValueError(f"tracer mode must be one of {self.MODES}")
        self.mode = mode
        self.spans: List[Span] = []
        self._t0 = time.perf_counter() if epoch is None else epoch
        self._lock = threading.Lock()
        self._local = threading.local()

    def traced(self, op: Optional[int] = None) -> bool:
        """Whether op *op* (``None``: work outside any op) is recorded."""
        if self.mode == "alternate" and op is not None:
            return op % 2 == 1
        return self.mode != "off"

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed call as span *name* of op *op*."""
        if not self.traced(op):
            yield
            return
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            raise ValueError(f"span {name!r} names no layer of {LAYERS}")
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span = Span(
                name=name,
                span_id=len(self.spans) + 1,
                parent_id=stack[-1].span_id if stack else None,
                kind=layer,
                start=time.perf_counter() - self._t0,
                end=None,
                attributes={} if op is None else {"op": op},
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter() - self._t0
            stack.pop()

    def median_ms(self, name: str) -> float:
        """Median duration of the spans called *name*."""
        return statistics.median(
            s.seconds * 1e3 for s in self.spans if s.name == name
        )


def self_ms(spans: List[Span]) -> Dict[str, float]:
    """Per layer: total span time minus the time of its child spans.

    Children run on their parent's thread, one after another, so the part
    of a parent's interval they cover is the sum of their durations.
    """
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = (
                child_time.get(s.parent_id, 0.0) + s.seconds
            )
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s.kind] += s.seconds - child_time.get(s.span_id, 0.0)
    return {layer: t * 1e3 for layer, t in totals.items()}


def merge(tracers: Dict[str, Tracer]) -> List[Span]:
    """One span list from per-workload tracers, ids made unique.

    Each span is tagged with the workload whose tracer recorded it.
    """
    merged: List[Span] = []
    for workload, tracer in tracers.items():
        offset = len(merged)
        for s in tracer.spans:
            merged.append(Span(
                name=s.name,
                span_id=s.span_id + offset,
                parent_id=None if s.parent_id is None else s.parent_id + offset,
                kind=s.kind,
                start=s.start,
                end=s.end,
                attributes={**s.attributes, "workload": workload},
            ))
    return merged
