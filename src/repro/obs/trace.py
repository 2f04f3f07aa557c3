"""Structured span tracing: the engine's recording substrate.

A :class:`Tracer` records a tree of :class:`Span` objects — nested,
attributed, timestamped intervals — for one engine run.  Backends open a
span per pipeline phase (``engine.run`` binds the tracer with
:meth:`~repro.engine.backends.ExecutionBackend.bind`), the process
backend attaches *worker* spans measured inside OS worker processes, and
:meth:`Tracer.finish` freezes everything into an immutable :class:`Trace`
that exporters (:mod:`repro.obs.export`) and the ASCII renderer
(:mod:`repro.obs.render`) consume.

Phase identity is structured: a :class:`PhaseLabel` is a ``str`` subclass
that carries the phase's *base name* and attributes (``round``, ``final``)
separately from its display string, so iterative phases (``H1``, ``H2``,
…) land in the trace as ``name="H"`` with an explicit ``round`` attribute
instead of encoding the round in the label — while everything keyed by
the flat label (``CCResult.phase_seconds``, existing tests, the
``compare --profile`` table) keeps seeing the familiar strings.

Timestamps are ``time.perf_counter()`` values.  On every supported
platform that clock is system-wide, so spans recorded inside worker
processes are directly comparable with the parent's.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["PhaseLabel", "Span", "Trace", "Tracer", "phase_label"]


class PhaseLabel(str):
    """A phase label carrying structured identity alongside its string.

    Instances *are* strings (``PhaseLabel("H", round=2) == "H2"``), so
    they flow unchanged through every API that treats phases as plain
    labels; consumers that care about structure read ``.base`` and
    ``.attrs`` instead of parsing the text back apart.
    """

    base: str
    attrs: dict[str, Any]

    def __new__(
        cls,
        base: str,
        *,
        round: int | None = None,  # noqa: A002 - mirrors the span attribute
        final: bool = False,
        **attrs: Any,
    ) -> "PhaseLabel":
        text = base
        if round is not None:
            text = f"{text}{round}"
        if final:
            text = f"{text}*"
        self = super().__new__(cls, text)
        self.base = base
        merged: dict[str, Any] = {}
        if round is not None:
            merged["round"] = round
        if final:
            merged["final"] = True
        merged.update(attrs)
        self.attrs = merged
        return self


def phase_label(
    base: str,
    *,
    round: int | None = None,  # noqa: A002
    final: bool = False,
    **attrs: Any,
) -> PhaseLabel:
    """Build a :class:`PhaseLabel` (``phase_label("H", round=2) == "H2"``)."""
    return PhaseLabel(base, round=round, final=final, **attrs)


def split_label(label: str) -> tuple[str, dict[str, Any]]:
    """``(base name, attrs)`` of a label; plain strings have no attrs."""
    if isinstance(label, PhaseLabel):
        return label.base, dict(label.attrs)
    return str(label), {}


class Span:
    """One timed interval in a trace: a phase, sub-phase, or worker task.

    ``label`` is the flat display string (``"H2"``); ``name`` is the
    structured base (``"H"``) with the remainder in ``attrs``
    (``{"round": 2}``).  ``track`` is ``None`` for spans measured on the
    coordinating thread and a worker identifier (``"worker-0"``) for
    spans measured inside worker processes — per-track spans render as
    separate rows in the Chrome/Perfetto export and are excluded from
    ``phase_seconds`` so they never double-count their parent phase.
    """

    __slots__ = ("name", "label", "t0", "t1", "attrs", "track", "children")

    def __init__(
        self,
        label: str,
        t0: float,
        t1: float | None = None,
        *,
        track: str | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        name, label_attrs = split_label(label)
        if attrs:
            label_attrs.update(attrs)
        self.name = name
        self.label = str(label)
        self.t0 = t0
        self.t1 = t1
        self.attrs = label_attrs
        self.track = track
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Wall seconds covered by the span (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" track={self.track}" if self.track else ""
        return (
            f"Span({self.label!r}, {self.duration * 1000:.3f} ms,"
            f" {len(self.children)} children{extra})"
        )


class Trace:
    """A finished run's telemetry: the span tree plus metric snapshots.

    ``spans`` are the root spans in start order (an engine run has one,
    ``total``); ``counters``, ``gauges``, and ``histograms`` are the final
    snapshots of the run's :class:`~repro.obs.metrics.MetricsRegistry`;
    ``meta`` is provenance (algorithm, backend, worker count) stamped by
    the engine.
    """

    __slots__ = ("spans", "counters", "gauges", "histograms", "meta")

    def __init__(
        self,
        spans: list[Span],
        *,
        counters: dict[str, int] | None = None,
        gauges: dict[str, float] | None = None,
        histograms: dict[str, dict[str, Any]] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.spans = spans
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = dict(histograms or {})
        self.meta = dict(meta or {})

    # -- traversal -------------------------------------------------------- #

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Every span with its depth, depth-first in recording order."""
        stack: list[tuple[Span, int]] = [(s, 0) for s in reversed(self.spans)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            stack.extend((c, depth + 1) for c in reversed(span.children))

    def num_spans(self) -> int:
        """Total spans in the tree (all tracks)."""
        return sum(1 for _ in self.walk())

    @property
    def t0(self) -> float:
        """Earliest start timestamp (0.0 for an empty trace)."""
        times = [s.t0 for s, _ in self.walk()]
        return min(times) if times else 0.0

    @property
    def t1(self) -> float:
        """Latest end timestamp (0.0 for an empty trace)."""
        times = [s.t1 for s, _ in self.walk() if s.t1 is not None]
        return max(times) if times else 0.0

    # -- derived views ---------------------------------------------------- #

    def phase_seconds(self) -> dict[str, float]:
        """Flat ``label -> accumulated wall seconds`` view of the trace.

        Repeated labels accumulate (matching iterative pipelines that
        revisit a phase); worker-track spans are excluded because their
        time is already covered by the enclosing phase span.
        """
        seconds: dict[str, float] = {}
        for span, _ in self.walk():
            if span.track is not None or span.t1 is None:
                continue
            seconds[span.label] = seconds.get(span.label, 0.0) + span.duration
        return seconds

    def worker_spans(self) -> list[Span]:
        """Every worker-track span, in recording order."""
        return [s for s, _ in self.walk() if s.track is not None]

    def tracks(self) -> list[str]:
        """Worker track names in order of first appearance."""
        seen: list[str] = []
        for span in self.worker_spans():
            if span.track not in seen:
                seen.append(span.track)  # type: ignore[arg-type]
        return seen

    def worker_skew(self) -> dict[str, dict[str, float]]:
        """Per-phase worker imbalance: max/mean task duration and count.

        Groups worker-track spans by label and reports, per phase,
        ``{"max_s", "mean_s", "skew", "tasks"}`` where ``skew`` is the
        max/mean ratio — 1.0 means perfectly balanced blocks.
        """
        groups: dict[str, list[float]] = {}
        for span in self.worker_spans():
            groups.setdefault(span.label, []).append(span.duration)
        skew: dict[str, dict[str, float]] = {}
        for label, durations in groups.items():
            mean = sum(durations) / len(durations)
            peak = max(durations)
            skew[label] = {
                "max_s": peak,
                "mean_s": mean,
                "skew": peak / mean if mean > 0 else 1.0,
                "tasks": float(len(durations)),
            }
        return skew

    # -- serialisation ---------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""

        def span_dict(span: Span) -> dict[str, Any]:
            d: dict[str, Any] = {
                "name": span.name,
                "label": span.label,
                "t0": span.t0,
                "t1": span.t1,
            }
            if span.attrs:
                d["attrs"] = span.attrs
            if span.track is not None:
                d["track"] = span.track
            if span.children:
                d["children"] = [span_dict(c) for c in span.children]
            return d

        return {
            "spans": [span_dict(s) for s in self.spans],
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output."""

        def build(d: dict[str, Any]) -> Span:
            span = Span(
                d.get("label", d.get("name", "")),
                float(d["t0"]),
                None if d.get("t1") is None else float(d["t1"]),
                track=d.get("track"),
            )
            span.name = d.get("name", span.name)
            span.attrs = dict(d.get("attrs") or {})
            span.children = [build(c) for c in d.get("children", [])]
            return span

        return cls(
            [build(d) for d in data.get("spans", [])],
            counters=data.get("counters"),
            gauges=data.get("gauges"),
            histograms=data.get("histograms"),
            meta=data.get("meta"),
        )


class _NullSpanContext:
    """Reusable no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class Tracer:
    """Records spans for one run; cheap no-op when disabled.

    ``span`` opens a nested span around a block of work; ``add_span``
    attaches an already-measured interval (a worker task timed inside
    another process) under the currently open span.  ``finish`` closes
    any dangling spans and returns the immutable :class:`Trace`.
    """

    def __init__(self, enabled: bool = True, *, metrics=None) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.enabled = enabled
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled)
        )
        self._roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, label: str, **attrs: Any):
        """Context manager recording a nested span around its body."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(label, attrs)

    @contextmanager
    def _span(self, label: str, attrs: dict[str, Any]):
        span = Span(label, time.perf_counter(), attrs=attrs)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self._roots).append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._stack.pop()

    def add_span(
        self,
        label: str,
        t0: float,
        t1: float,
        *,
        track: str | None = None,
        **attrs: Any,
    ) -> Span | None:
        """Attach an externally measured interval under the open span."""
        if not self.enabled:
            return None
        span = Span(label, t0, t1, track=track, attrs=attrs)
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent else self._roots).append(span)
        return span

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def phase_seconds(self) -> dict[str, float]:
        """Live flat label -> seconds view over the spans closed so far."""
        return Trace(self._roots).phase_seconds()

    def finish(self, **meta: Any) -> Trace:
        """Freeze into a :class:`Trace` (closing any still-open spans)."""
        now = time.perf_counter()
        while self._stack:
            self._stack.pop().t1 = now
        return Trace(
            self._roots,
            counters=self.metrics.counters_snapshot(),
            gauges=self.metrics.gauges_snapshot(),
            histograms=self.metrics.histogram_summaries(),
            meta=meta,
        )
