"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a ``repro`` layer: its name, its layer,
start and end (``time.perf_counter`` seconds), the index of the span
that was open when it started (its parent), the id of the pass it
belongs to, and a few counts taken at the same boundary (candidates
scored, accesses replayed, cells claimed, ...). Spans are appended to a
list in memory and written once, when the benchmark ends.

Only the thread that created the recorder is traced: the queue worker's
lease heartbeat opens its own store connection on a second thread, and
spans from it would overlap the main thread's and break the self-time
arithmetic (a layer's self time is its duration minus the part covered
by its direct children, so the self times of one tree sum exactly to
its root).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer of the spans that open a pass (one workload set-up plus one rep).
ROOT = "root"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans of one thread; inactive outside a root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._run = ""

    def active(self) -> bool:
        return bool(self._stack) and threading.get_ident() == self._thread

    @contextmanager
    def root(self, run_id: str):
        """Open the root span of one pass and yield it; spans only
        record inside a root."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self._run = run_id
        with self._open(run_id, ROOT, {}) as span:
            yield span

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Time the enclosed block as a child of the innermost open span.

        Yields the span's attribute dict so the caller can add counts
        taken after the call returns. Outside a root span, or on another
        thread, nothing is recorded.
        """
        if not self.active():
            yield attrs
            return
        with self._open(name, layer, attrs) as span:
            yield span.attrs

    @contextmanager
    def _open(self, name: str, layer: str, attrs: dict):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, layer, time.perf_counter(), 0.0, parent,
                    self._run, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the root layer included)."""
    totals: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        totals[s.layer] = totals.get(s.layer, 0.0) + self_s
    return totals


def outermost(spans: list[Span], layer: str) -> list[Span]:
    """Spans of ``layer`` whose parent is in another layer.

    Summing these counts nested calls within one layer (``resolve_workloads``
    calling ``resolve_workload``) once.
    """
    return [
        s for s in spans
        if s.layer == layer
        and (s.parent is None or spans[s.parent].layer != layer)
    ]


def ancestor(spans: list[Span], span: Span, name: str) -> Span | None:
    """The nearest enclosing span called ``name``, if any."""
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None
