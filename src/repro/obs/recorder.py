"""Recorders: the telemetry interface the solvers talk to.

The base :class:`Recorder` *is* the no-op implementation — every method
returns immediately, and :meth:`Recorder.span` hands back one shared
do-nothing context manager.  Solvers call the recorder a handful of
times per **round** (never per player), so with the default
:data:`NULL_RECORDER` the instrumented hot paths stay within measurement
noise of the uninstrumented code and assignments are byte-identical with
tracing on or off.

:class:`TraceRecorder` is the collecting implementation: hierarchical
spans on a pluggable clock, a :class:`~repro.obs.metrics.MetricsRegistry`
and the per-round solver telemetry of :meth:`Recorder.round_end`
(frontier size, moves, Eq. 3 cost evaluations, potential delta).

Opt-in is a context manager::

    with recording() as rec:          # ambient for everything inside
        partition(instance, solver="gt")
    print(summary_tree(rec))

or explicit (``SolveOptions(recorder=rec)`` / ``recorder=rec`` kwargs);
``active_recorder(explicit)`` resolves the one to use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.obs.clock import MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanEvent


class _NullSpanContext:
    """Shared no-op context manager returned by the null recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class Recorder:
    """No-op telemetry sink; subclass to actually collect."""

    #: False when recording is free to skip (lazy callables never run).
    enabled: bool = False

    #: The innermost open span (None on the null recorder).
    current_span = None

    def span(self, name: str, **attrs: Any):
        """Context manager timing one unit of work (yields the Span)."""
        return _NULL_SPAN

    def new_trace_id(self) -> str:
        """Fresh trace id for one distributed run ("" = not tracing)."""
        return ""

    def adopt(self, remote_spans, offset: float = 0.0) -> None:
        """Graft remote spans into the trace (no-op when not collecting)."""

    def count(
        self, name: str, value: float = 1.0, **labels: Any
    ) -> None:
        """Increment a counter."""

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge."""

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one histogram observation."""

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the current span."""

    def round_end(
        self,
        span: Optional[Span],
        solver: str,
        round_index: int,
        *,
        deviations: int,
        examined: int,
        cost_evaluations: Optional[int] = None,
        frontier_fn: Optional[Callable[[], int]] = None,
        potential_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        """Per-round solver telemetry (one call at the end of a round).

        ``frontier_fn``/``potential_fn`` are lazy so the null recorder
        never pays for an O(n) frontier count or an O(|E|) potential
        evaluation.  ``frontier_fn`` reports the dirty-set size *after*
        the round — the work queued for the next one.
        """


class NullRecorder(Recorder):
    """Explicit name for the default do-nothing recorder."""


#: The process-wide default recorder (always installed at stack bottom).
NULL_RECORDER = NullRecorder()


class TraceRecorder(Recorder):
    """Collects spans + metrics; export via :mod:`repro.obs.exporters`."""

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        meta: Optional[dict] = None,
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self.meta = dict(meta or {})
        self._stack: List[Span] = []
        self._next_id = 0
        self._next_trace = 0
        self._spans_by_id: dict = {}
        self._last_potential: dict = {}

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        span = self.open_span(name, **attrs)
        try:
            yield span
        finally:
            self.close_span(span)

    def open_span(self, name: str, **attrs: Any) -> Span:
        """Open a span without the context manager (manual traces)."""
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            start=self.clock(),
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._spans_by_id[span.span_id] = span
        if parent is not None:
            parent.children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        self._on_open(span)
        return span

    def close_span(self, span: Span) -> None:
        """Close ``span`` (and any deeper spans left open by mistake)."""
        while self._stack:
            top = self._stack.pop()
            top.finish(self.clock())
            self._on_close(top)
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not open")

    def _on_open(self, span: Span) -> None:
        """Subclass hook fired after a span opens (memory profiling)."""

    def _on_close(self, span: Span) -> None:
        """Subclass hook fired after a span closes."""

    # -- cross-node stitching ------------------------------------------
    def new_trace_id(self) -> str:
        """Deterministic fresh trace id for one distributed run."""
        trace_id = f"trace-{self._next_trace}"
        self._next_trace += 1
        return trace_id

    def adopt(self, remote_spans, offset: float = 0.0) -> None:
        """Graft :class:`~repro.obs.context.RemoteSpan` records in.

        Each remote span becomes a child of the (master-side) span its
        ``parent_span_id`` names — or a new root when the parent is
        unknown — shifted by ``offset`` so the simulated timeline shares
        this recorder's clock origin.  Record order is preserved, which
        is causal order for the lockstep protocol.
        """
        for remote in remote_spans:
            parent = self._spans_by_id.get(remote.parent_span_id)
            span = Span(
                name=remote.name,
                start=remote.start + offset,
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                end=remote.end + offset,
                attrs=dict(remote.attrs),
                node=remote.node,
            )
            self._next_id += 1
            self._spans_by_id[span.span_id] = span
            span.events = [
                SpanEvent(
                    name=event.name,
                    time=event.time + offset,
                    attrs=dict(event.attrs),
                )
                for event in remote.events
            ]
            if parent is not None:
                parent.children.append(span)
            else:
                self.spans.append(span)

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def all_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.spans:
            for span, _ in root.walk():
                yield span

    # -- metrics --------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **labels: Any) -> None:
        self.metrics.counter(name, labels).inc(value)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.gauge(name, labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.metrics.histogram(name, labels).observe(value)

    def event(self, name: str, **attrs: Any) -> None:
        current = self.current_span
        if current is not None:
            current.events.append(
                SpanEvent(name=name, time=self.clock(), attrs=dict(attrs))
            )
        else:
            # Eventless root: wrap in a zero-length span so nothing is
            # lost.  The timestamp is taken *inside* the wrapper so the
            # event stays within its span (schema v2 enforces this).
            span = self.open_span(name, orphan_event=True)
            span.events.append(
                SpanEvent(name=name, time=self.clock(), attrs=dict(attrs))
            )
            self.close_span(span)

    # -- per-round solver telemetry ------------------------------------
    def round_end(
        self,
        span: Optional[Span],
        solver: str,
        round_index: int,
        *,
        deviations: int,
        examined: int,
        cost_evaluations: Optional[int] = None,
        frontier_fn: Optional[Callable[[], int]] = None,
        potential_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        labels = {"solver": solver}
        self.count("solver.rounds", 1, **labels)
        self.count("solver.moves", deviations, **labels)
        self.count("solver.players_examined", examined, **labels)
        if cost_evaluations is not None:
            self.count("solver.cost_evaluations", cost_evaluations, **labels)
        frontier = int(frontier_fn()) if frontier_fn is not None else examined
        self.observe("solver.frontier", frontier, **labels)
        attrs = {
            "round": round_index,
            "deviations": deviations,
            "players_examined": examined,
            "frontier": frontier,
        }
        if cost_evaluations is not None:
            attrs["cost_evaluations"] = cost_evaluations
        if potential_fn is not None:
            potential = float(potential_fn())
            attrs["potential"] = potential
            previous = self._last_potential.get(solver)
            if previous is not None:
                attrs["potential_delta"] = potential - previous
                self.observe(
                    "solver.potential_drop", max(previous - potential, 0.0),
                    **labels,
                )
            self._last_potential[solver] = potential
        if span is not None:
            span.attrs.update(attrs)


# ----------------------------------------------------------------------
# Ambient recorder stack (context-manager opt-in)
# ----------------------------------------------------------------------
_ACTIVE: List[Recorder] = [NULL_RECORDER]


def current_recorder() -> Recorder:
    """The innermost ambient recorder (the null recorder by default)."""
    return _ACTIVE[-1]


def active_recorder(explicit: Optional[Recorder] = None) -> Recorder:
    """Resolve the recorder to use: explicit argument beats ambient."""
    return explicit if explicit is not None else _ACTIVE[-1]


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for the block."""
    _ACTIVE.append(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.pop()


@contextmanager
def recording(
    clock: Optional[Callable[[], float]] = None,
    meta: Optional[dict] = None,
) -> Iterator[TraceRecorder]:
    """Create a :class:`TraceRecorder` and make it ambient for the block."""
    with use_recorder(TraceRecorder(clock=clock, meta=meta)) as recorder:
        yield recorder
