"""Global tracing hooks — safe to import from the hottest layers.

This module must not import anything else from ``repro``: the sim
engine, PFS client, LSM engine, MPI communicator, and LSMIO manager all
import it at module scope.  A layer boundary is instrumented by exactly
one call, :func:`span`, which opens the boundary's tracer span and feeds
its latency histogram from the same interval; point events go through
:func:`instant`.  Both return or do nothing when neither instrument is
installed.

The simulated-clock hookup is inverted to keep the import graph acyclic:
:mod:`repro.sim.engine` registers its thread-local state here
(:data:`_SIM_TLS`) when it is imported, so :func:`ambient_clock` and
:func:`current_track` can resolve simulated time and the running process
without this package ever importing the simulator.
"""

from __future__ import annotations

import threading
import time

#: the installed :class:`~repro.trace.tracer.Tracer`, or None (disabled)
TRACER = None

#: the installed :class:`~repro.trace.metrics.MetricsRegistry`, or None
METRICS = None

#: the installed :class:`~repro.telemetry.Telemetry` (always-on
#: histograms + gauge sources), or None — hot paths gate on the same
#: one-global-read-plus-identity-check pattern as TRACER
TELEMETRY = None

#: the installed :class:`~repro.telemetry.sampler.GaugeSampler`, or None;
#: read by the sim engine's dispatch loop (hoisted once per ``run()``)
SAMPLER = None

#: the installed :class:`~repro.telemetry.profiler.EngineProfiler`, or
#: None; read by the sim engine's dispatch loop (hoisted once per
#: ``run()``), so the disabled path adds zero per-event work
PROFILER = None

#: thread-local of the discrete-event engine (set by repro.sim.engine)
_SIM_TLS = None


def ambient_clock() -> float:
    """Simulated time inside a sim process, else monotonic wall seconds.

    The one clock every layer times itself on (counters, stall
    accounting, spans and histograms alike).
    """
    tls = _SIM_TLS
    engine = getattr(tls, "engine", None) if tls is not None else None
    if engine is None:
        return time.monotonic()
    return engine._now


def current_track() -> str:
    """Name of the executing context: sim process name or thread name."""
    tls = _SIM_TLS
    proc = getattr(tls, "process", None) if tls is not None else None
    if proc is not None:
        return proc.name
    return threading.current_thread().name


class _NullSpan:
    """Shared no-op span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass


#: the singleton returned wherever tracing is off
NULL_SPAN = _NullSpan()


class _HistTimer:
    """A boundary timed for its histogram alone (telemetry, no tracer)."""

    __slots__ = ("tele", "hist", "start")

    def __init__(self, tele, hist: str):
        self.tele = tele
        self.hist = hist
        self.start = ambient_clock()

    def __enter__(self) -> "_HistTimer":
        return self

    def __exit__(self, *exc) -> bool:
        self.finish()
        return False

    def set(self, **args) -> "_HistTimer":
        return self

    def finish(self) -> None:
        self.tele.observe(self.hist, ambient_clock() - self.start)


def span(category: str, name: str, hist=None, **args):
    """Instrument one layer boundary; use as ``with span(...) as s:``.

    Opens a span on the installed tracer, and when ``hist`` names a
    histogram and telemetry is installed, observes the interval's
    duration into it on finish — so a boundary's latency distribution
    and its spans always cover the same interval.  Returns
    :data:`NULL_SPAN` when neither applies.  ``args`` are built by the
    caller even when disabled: attach costly ones with ``s.set(...)``
    behind a ``TRACER`` check.
    """
    tracer = TRACER
    tele = TELEMETRY if hist is not None else None
    opened = NULL_SPAN if tracer is None else tracer.span(category, name, **args)
    if tele is None:
        return opened
    if opened is NULL_SPAN:
        return _HistTimer(tele, hist)
    opened.tele = tele
    opened.hist = hist
    return opened


def instant(category: str, name: str, **args) -> None:
    """Record a point event on the installed tracer, or no-op."""
    tracer = TRACER
    if tracer is not None:
        tracer.instant(category, name, **args)
