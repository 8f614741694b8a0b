"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the package: `Tracer.patch` replaces a
public function in the namespace of the module that imported it with a
wrapper that opens a span around the call.  Nothing under `src/` changes,
and the untraced run installs no span wrapper.

A span is (name, start, end, parent, flow).  Spans are kept in memory and
written out once, when the run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    flow: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for k, span in enumerate(spans):
        clipped = [(max(lo, span.start), min(hi, span.end))
                   for lo, hi in children.get(k, ()) if hi > span.start and lo < span.end]
        out.append(span.duration - covered(clipped))
    return out


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    flow: int | None = None
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, flow=self.flow))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def patch(self, module: object, attr: str, name: str) -> None:
        """Wrap `module.attr` (a function bound at an import site)."""
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0,
                                                                 "self": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = out[span.name]
            entry["calls"] += 1
            entry["total"] += span.duration
            entry["self"] += own
        return dict(out)

    def by_flow(self, name: str) -> dict[int | None, float]:
        """Total duration of the spans called `name`, per flow."""
        out: dict[int | None, float] = defaultdict(float)
        for span in self.spans:
            if span.name == name:
                out[span.flow] += span.duration
        return dict(out)

    def write(self, path) -> None:
        """JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as f:
            for k, s in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "flow": s.flow}) + "\n")
