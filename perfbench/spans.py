"""Timing and span recording around calls into the library's layers.

Every timed call in the benchmark goes through :meth:`Recorder.span`,
which always measures the call's wall time and, when tracing is on, also
keeps a span (name, layer, start, end, parent id) in memory.  Spans are
written out once, when the run ends (:meth:`Recorder.dump`).

A span's *self time* is its duration minus the time its child spans
cover.  The root span belongs to the benchmark itself, so its self time
is the ``unattributed`` remainder, and the self times of all layers plus
``unattributed`` add up to the root's wall time exactly.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

#: Layer name of the benchmark's own spans (root, rounds, checks).
BENCH_LAYER = "perfbench"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Timing:
    """What a ``with recorder.span(...)`` block yields: its duration."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


class Recorder:
    """Times calls; with ``enabled`` it also records the span tree."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Timing]:
        timing = Timing()
        if not self.enabled:
            t0 = time.perf_counter()
            try:
                yield timing
            finally:
                timing.seconds = time.perf_counter() - t0
            return
        span = Span(
            id=len(self.spans),
            parent=self._open[-1] if self._open else None,
            name=name,
            layer=layer,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield timing
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            timing.seconds = span.seconds

    def self_seconds(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer; the benchmark's own is ``unattributed``."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_seconds()):
            key = "unattributed" if s.layer == BENCH_LAYER else s.layer
            out[key] = out.get(key, 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")
