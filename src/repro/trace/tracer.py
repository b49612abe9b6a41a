"""Span recording on the ambient (simulated or wall) clock.

A :class:`Tracer` collects three event kinds:

- **spans** — intervals with a category (the instrumented layer: ``sim``,
  ``pfs``, ``lsm``, ``mpi``, ``core``, ``bench``), a name, per-track
  nesting depth, and free-form args;
- **instants** — point events (RPC retries, memtable freezes, forwards);
- **gauges** — (time, name, value) samples (queue depths).

Spans nest per *track* (one track per simulated process or OS thread),
mirroring how the discrete-event engine interleaves work: at most one
thread runs at a time, so each track's stack is only touched by its own
thread and recording needs no locking beyond the GIL's atomic appends.

Recording never advances simulated time and never touches any RNG, so an
instrumented run is bit-identical to an uninstrumented one — the same
guarantee the fault subsystem upholds (DESIGN.md).
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.trace import runtime

#: default cap on stored events — a runaway trace degrades to counting
#: drops instead of exhausting memory.
DEFAULT_MAX_EVENTS = 2_000_000


class Span:
    """One recorded interval.  Usable as a context manager."""

    __slots__ = (
        "tracer", "category", "name", "start", "end", "track", "depth",
        "args", "wall_start", "wall_end", "tele", "hist",
    )

    def __init__(
        self,
        tracer: "Tracer",
        category: str,
        name: str,
        start: float,
        track: str,
        depth: int,
        args: dict,
        wall_start: Optional[float] = None,
    ):
        self.tracer = tracer
        self.category = category
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.track = track
        self.depth = depth
        self.args = args
        self.wall_start = wall_start
        self.wall_end: Optional[float] = None
        #: the telemetry and histogram name this span's duration feeds
        #: on finish (set by :func:`repro.trace.runtime.span`)
        self.tele = None
        self.hist: Optional[str] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **args) -> "Span":
        """Attach (or update) args after the span opened."""
        self.args.update(args)
        return self

    def finish(self) -> None:
        self.tracer._finish_span(self)
        if self.tele is not None:
            self.tele.observe(self.hist, self.end - self.start)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()

    def to_dict(self) -> dict:
        out = {
            "cat": self.category,
            "name": self.name,
            "ts": self.start,
            "dur": self.duration,
            "track": self.track,
            "depth": self.depth,
        }
        if self.args:
            out["args"] = self.args
        if self.wall_start is not None and self.wall_end is not None:
            out["wall_ts"] = self.wall_start
            out["wall_dur"] = self.wall_end - self.wall_start
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.category}/{self.name} ts={self.start:.6f} "
            f"dur={self.duration:.6f} track={self.track!r})"
        )


class Tracer:
    """Records spans/instants/gauges; install via :func:`repro.trace.install`."""

    def __init__(
        self,
        enabled: bool = True,
        wall_clock: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.enabled = enabled
        self.wall_clock = wall_clock
        self.spans: list[Span] = []
        self.instants: list[dict] = []
        self.gauges: list[dict] = []
        self.dropped = 0
        self._max_events = max_events
        self._stacks = threading.local()

    # -- recording --------------------------------------------------------

    def span(self, category: str, name: str, **args) -> "Span | runtime._NullSpan":
        """Open a span at the current ambient time on the caller's track."""
        if not self.enabled:
            return runtime.NULL_SPAN
        now = runtime.ambient_clock()
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        span = Span(
            self,
            category,
            name,
            now,
            runtime.current_track(),
            len(stack),
            args,
            wall_start=time.monotonic() if self.wall_clock else None,
        )
        stack.append(span)
        return span

    def _finish_span(self, span: Span) -> None:
        span.end = runtime.ambient_clock()
        if self.wall_clock:
            span.wall_end = time.monotonic()
        stack = getattr(self._stacks, "stack", None)
        if stack and span in stack:
            # Pop through to the span (tolerates a leaked inner span).
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if self._room():
            self.spans.append(span)
        else:
            self.dropped += 1

    def instant(
        self,
        category: str,
        name: str,
        ts: Optional[float] = None,
        track: Optional[str] = None,
        **args,
    ) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        event = {
            "cat": category,
            "name": name,
            "ts": runtime.ambient_clock() if ts is None else ts,
            "track": runtime.current_track() if track is None else track,
        }
        if args:
            event["args"] = args
        if self._room():
            self.instants.append(event)
        else:
            self.dropped += 1

    def gauge(
        self,
        category: str,
        name: str,
        value: float,
        ts: Optional[float] = None,
    ) -> None:
        """Record one sample of a named gauge (e.g. a queue depth).

        ``ts`` overrides the ambient clock — the gauge sampler runs on
        the engine loop thread (not inside a sim process) and stamps the
        simulated grid time explicitly.
        """
        if not self.enabled:
            return
        if self._room():
            self.gauges.append(
                {
                    "cat": category,
                    "name": name,
                    "ts": runtime.ambient_clock() if ts is None else ts,
                    "value": value,
                }
            )
        else:
            self.dropped += 1

    def _room(self) -> bool:
        return (
            len(self.spans) + len(self.instants) + len(self.gauges)
            < self._max_events
        )

    # -- inspection -------------------------------------------------------

    def categories(self) -> list[str]:
        """Sorted distinct span categories recorded so far."""
        return sorted({span.category for span in self.spans})

    def to_payload(
        self, metrics: Optional[dict] = None, meta: Optional[dict] = None
    ) -> dict:
        """The raw-dump form consumed by ``python -m repro.trace``."""
        return {
            "format": "repro-trace",
            "version": 1,
            "meta": dict(meta or {}),
            "spans": [
                span.to_dict() for span in self.spans if span.end is not None
            ],
            "instants": list(self.instants),
            "gauges": list(self.gauges),
            "dropped": self.dropped,
            "metrics": dict(metrics or {}),
        }

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self.gauges.clear()
        self.dropped = 0
