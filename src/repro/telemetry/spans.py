"""Nestable tracing spans on a monotonic clock.

A :class:`Span` is one timed region — a NEAT phase, a backend's
generation evaluate, an INAX wave, or a single PU's set-up window —
with structured attributes.  Spans nest: the :class:`Tracer` keeps an
active-span stack, so a ``phase.evaluate`` span recorded by the
population loop becomes the parent of the backend and rollout spans
opened inside it, and the exported trace reconstructs the call tree.

Two clocks coexist in one trace:

* **host spans** (track ``"host"``) are timed with
  ``time.perf_counter`` relative to the tracer's epoch;
* **device spans** (tracks ``"pu0"``, ``"pu1"``, ...) are *derived*
  from INAX cycle counts — the device converts cycles to seconds via
  the FPGA clock and records them with :meth:`Tracer.add_span`, so the
  Fig 9(a) setup/active/control structure is literally visible per PU
  in a trace viewer.

Instrumentation is **off by default**: the module-level :func:`span`
helper checks a single context-local variable and returns a shared
no-op context manager when no tracer is installed, so disabled
telemetry costs one ``None`` check per instrumented region (the guard
benchmark in ``benchmarks/test_telemetry_overhead.py`` keeps this
honest).  The tracer lives in a :class:`~contextvars.ContextVar`, so
concurrent jobs in one process (threads or asyncio tasks) can each
install their own tracer without interfering.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import AbstractContextManager, contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "span",
]


@dataclass
class Span:
    """One finished timed region."""

    name: str
    #: seconds since the tracer's epoch (host) or device reset (PU tracks)
    start: float
    #: seconds
    duration: float
    span_id: int
    parent_id: int | None = None
    #: timeline the span belongs to: ``"host"`` or a device track
    #: (``"inax"``, ``"pu0"``, ``"pu1"``, ...)
    track: str = "host"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> dict[str, Any]:
        """JSONL row for this span (the ``type: "span"`` schema)."""
        row: dict[str, Any] = {
            "type": "span",
            "name": self.name,
            "track": self.track,
            "start": self.start,
            "dur": self.duration,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            row["parent_id"] = self.parent_id
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class Tracer:
    """Bounded in-memory recorder of finished spans.

    ``max_spans`` caps memory for long runs: once full, the oldest
    spans drop (counted in :attr:`dropped`) — telemetry must never be
    the thing that OOMs an edge deployment.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.max_spans = max_spans
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._stack: list[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self.dropped = 0

    # ----------------------------------------------------------- recording
    def now(self) -> float:
        """Seconds since the tracer's epoch (the host timeline)."""
        return time.perf_counter() - self._epoch

    @contextmanager
    def span(
        self, name: str, track: str = "host", **attrs: Any
    ) -> Iterator[Span]:
        """Time a block as a span; nesting sets the parent linkage.

        Yields the :class:`Span`, whose ``duration`` is set on exit."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        recorded = Span(
            name=name,
            start=0.0,
            duration=0.0,
            span_id=span_id,
            parent_id=parent,
            track=track,
            attrs=attrs,
        )
        t0 = time.perf_counter()
        recorded.start = t0 - self._epoch
        try:
            yield recorded
        finally:
            recorded.duration = time.perf_counter() - t0
            self._stack.pop()
            self._append(recorded)

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        track: str = "host",
        parent_id: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an explicitly-clocked span (e.g. cycles mapped to
        seconds by the INAX device); returns the recorded span."""
        if duration < 0:
            raise ValueError(f"negative duration for {name!r}: {duration}")
        span_id = self._next_id
        self._next_id += 1
        recorded = Span(
            name=name,
            start=start,
            duration=duration,
            span_id=span_id,
            parent_id=parent_id,
            track=track,
            attrs=attrs,
        )
        self._append(recorded)
        return recorded

    def _append(self, item: Span) -> None:
        if len(self._spans) == self.max_spans:
            self.dropped += 1
        self._spans.append(item)

    # -------------------------------------------------------------- views
    @property
    def spans(self) -> list[Span]:
        """Copy of the recorded spans, oldest first."""
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def seconds_by_name(self, prefix: str = "") -> dict[str, float]:
        """Total duration per span name (optionally name-prefixed)."""
        totals: dict[str, float] = {}
        for item in self._spans:
            if prefix and not item.name.startswith(prefix):
                continue
            totals[item.name] = totals.get(item.name, 0.0) + item.duration
        return totals


# ----------------------------------------------------------- context-local
#: the installed tracer; ``None`` means telemetry is disabled.  A
#: :class:`~contextvars.ContextVar` rather than a module global so
#: concurrent runs (asyncio tasks, per-job service threads) each see
#: their own tracer: a fresh thread or a copied asyncio context starts
#: from the default and installs its own session without clobbering
#: anyone else's.
_TRACER: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)
#: shared reusable no-op context manager for the disabled fast path
_NULL_SPAN: AbstractContextManager[None] = nullcontext()


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` when telemetry is disabled."""
    return _TRACER.get()


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install (or clear, with ``None``) the context's tracer.

    Returns the previously-installed tracer so callers can restore it.
    The installation is scoped to the current execution context: other
    threads and sibling asyncio tasks are unaffected.
    """
    previous = _TRACER.get()
    _TRACER.set(tracer)
    return previous


def span(
    name: str, track: str = "host", **attrs: Any
) -> AbstractContextManager[Span | None]:
    """Module-level span helper with a near-zero disabled fast path.

    ``with span("backend.evaluate", generation=g): ...`` records into the
    installed tracer, or is a shared no-op context manager when none is
    installed.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, track=track, **attrs)
