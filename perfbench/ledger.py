"""Outside-in host-cost ledger: per-layer self CPU time, from wrappers.

The ledger attributes the host CPU a workload burns to the repo's
layers (``repro.sim``, ``repro.mpi``, ...) without touching their code.
:meth:`Ledger.install` replaces every public function, every public
method and every ``__init__`` defined in a layer package with a wrapper
that keeps, per OS thread, a stack of the layers currently executing:

* crossing into another layer charges the CPU time since the last
  boundary to the layer on top of the stack, then pushes the new one;
* returning charges the callee and pops it, so a layer's *self* time
  excludes the nested calls it made into other layers;
* a call into the layer already on top is passed straight through.

Time is the calling thread's CPU clock (``time.thread_time_ns``).  A
thread-backed sim process parked in ``sim.sleep``/``sim.wait`` sleeps on
a ``threading.Event`` and burns no CPU, so parked waits are never
charged.  Generator (``*_lw``) entry points are timed per resume step:
the wrapper charges only the time spent inside ``send``/``throw``, never
the simulated time between steps.

Process bodies handed to ``Engine.spawn``/``spawn_light`` are charged
to the layer that defines them (``repro.bench.llm._rank_lw`` to
``bench``); bodies defined outside the layers, such as the benchmark's
own rank programs, run under the ``unattributed`` pseudo-layer.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
import tracemalloc
from typing import Callable, Optional

#: the repo's layers, in report order
LAYERS = ("sim", "mpi", "ior", "iolibs", "core", "lsm", "pfs", "io", "bench")
UNATTRIBUTED = len(LAYERS)
_NAMES = LAYERS + ("unattributed",)

#: marks a callable the ledger produced (never wrapped twice)
_MARK = "__perfbench_layer__"


def layer_of(module_name: Optional[str]) -> Optional[int]:
    """Index of the layer owning ``module_name`` (None outside the layers)."""
    if not module_name:
        return None
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return LAYERS.index(parts[1])
    return None


def layer_of_path(filename: str) -> Optional[int]:
    """Index of the layer owning source file ``filename``, if any."""
    parts = filename.replace("\\", "/").split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro" and parts[index + 1] in LAYERS:
            return LAYERS.index(parts[index + 1])
    return None


class _ThreadState:
    """One OS thread's layer stack and CPU accumulators."""

    __slots__ = ("stack", "mark", "self_ns", "calls")

    def __init__(self, mark: int):
        self.stack: list[int] = []
        self.mark = mark
        self.self_ns = [0] * (len(LAYERS) + 1)
        self.calls = [0] * (len(LAYERS) + 1)


class Ledger:
    """Per-layer self-time accounting over wrapped layer entry points.

    ``clock`` is the per-thread CPU clock in nanoseconds and ``sim_clock``
    reads simulated seconds (both injectable for tests).  A thread seen
    for the first time starts its account at ``clock()``, or at 0 for the
    real thread CPU clock, which already starts at 0 when a thread is
    born — so thread start-up is charged too.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.thread_time_ns,
        sim_clock: Optional[Callable[[], float]] = None,
    ):
        self._clock = clock
        self._birth = 0 if clock is time.thread_time_ns else None
        if sim_clock is None:
            from repro.trace.runtime import ambient_clock as sim_clock
        self._sim_clock = sim_clock
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: probe name -> [calls, simulated seconds inside]
        self.probes: dict[str, list] = {}
        #: harvested when each sim engine closes
        self.engine_totals = {"events": 0, "thread": 0, "light": 0}
        self._cpu0 = 0
        self._phases: list[tuple[str, dict]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = _ThreadState(
                self._clock() if self._birth is None else self._birth
            )
            self._tls.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn: Callable, layer: int) -> Callable:
        """``fn`` charged to ``layer`` (per resume step for generators)."""
        if getattr(fn, _MARK, None) is not None:
            return fn
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(fn, layer)
        else:
            wrapper = self._wrap_call(fn, layer)
        setattr(wrapper, _MARK, layer)
        return wrapper

    def _wrap_call(self, fn: Callable, layer: int) -> Callable:
        tls = self._tls
        clock = self._clock
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            if stack and stack[-1] == layer:
                return fn(*args, **kwargs)
            now = clock()
            state.self_ns[stack[-1] if stack else UNATTRIBUTED] += now - state.mark
            state.mark = now
            state.calls[layer] += 1
            stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                state.self_ns[layer] += now - state.mark
                state.mark = now
                stack.pop()

        return wrapper

    def _wrap_generator(self, fn: Callable, layer: int) -> Callable:
        tls = self._tls
        clock = self._clock
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            value = None
            error: Optional[BaseException] = None
            counted = False
            while True:
                try:
                    state = tls.state
                except AttributeError:
                    state = state_of()
                stack = state.stack
                boundary = not (stack and stack[-1] == layer)
                if boundary:
                    now = clock()
                    state.self_ns[stack[-1] if stack else UNATTRIBUTED] += (
                        now - state.mark
                    )
                    state.mark = now
                    if not counted:
                        state.calls[layer] += 1
                    stack.append(layer)
                counted = True
                try:
                    if error is not None:
                        command = gen.throw(error)
                    else:
                        command = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if boundary:
                        now = clock()
                        state.self_ns[layer] += now - state.mark
                        state.mark = now
                        stack.pop()
                error = None
                try:
                    value = yield command
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 — forwarded into gen
                    error, value = exc, None

        return wrapper

    def probe(self, fn: Callable, name: str) -> Callable:
        """``fn`` counted on every call, with the simulated time inside it."""
        record = self.probes.setdefault(name, [0, 0.0])
        sim_clock = self._sim_clock
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def probed(*args, **kwargs):
                record[0] += 1
                start = sim_clock()
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    record[1] += sim_clock() - start

        else:

            @functools.wraps(fn)
            def probed(*args, **kwargs):
                record[0] += 1
                start = sim_clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record[1] += sim_clock() - start

        return probed

    def process_body(self, fn: Callable) -> Callable:
        """A spawned process body, charged to the layer defining it."""
        if getattr(fn, _MARK, None) is not None:
            return fn
        func = getattr(fn, "__func__", fn)
        layer = layer_of(getattr(func, "__module__", None))
        return self.wrap(fn, UNATTRIBUTED if layer is None else layer)

    # -- installation ----------------------------------------------------------

    def _set(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, probes: Optional[dict] = None) -> None:
        """Wrap every layer's entry points, plus the named ``probes``.

        ``probes`` maps a probe name to ``(module, qualified attribute)``,
        e.g. ``{"mpi.barrier": ("repro.mpi.comm", "Communicator.barrier")}``.
        """
        probes = probes or {}
        modules = []
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            modules.append(package)
            for info in pkgutil.walk_packages(
                package.__path__, package.__name__ + "."
            ):
                if not info.name.endswith("__main__"):
                    modules.append(importlib.import_module(info.name))
        wanted = {target: name for name, target in probes.items()}
        replaced: dict[int, Callable] = {}
        for module in modules:
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not name.startswith("_"):
                    wrapper = self._entry(
                        value, layer, wanted.get((module.__name__, name))
                    )
                    replaced[id(value)] = wrapper
                    self._set(module, name, wrapper)
                elif inspect.isclass(value) and not issubclass(
                    value, (BaseException, enum.Enum)
                ):
                    self._wrap_class(module, value, layer, wanted)
        # Re-point names imported elsewhere (``from repro.sim import sleep``).
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, name, wrapper)
        self._hook_engine()

    def _entry(self, fn: Callable, layer: int, probe: Optional[str]) -> Callable:
        if probe is not None:
            fn = self.probe(fn, probe)
        return self.wrap(fn, layer)

    def _wrap_class(self, module, cls: type, layer: int, wanted: dict) -> None:
        for name, value in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            probe = wanted.get((module.__name__, f"{cls.__name__}.{name}"))
            if inspect.isfunction(value):
                self._set(cls, name, self._entry(value, layer, probe))
            elif isinstance(value, (staticmethod, classmethod)):
                wrapped = self._entry(value.__func__, layer, probe)
                self._set(cls, name, type(value)(wrapped))

    def _hook_engine(self) -> None:
        """Charge spawned bodies to their layer; harvest engine counts."""
        from repro.sim import engine as engine_module

        Engine = engine_module.Engine
        spawn, spawn_light, close = Engine.spawn, Engine.spawn_light, Engine.close
        body = self.process_body
        totals = self.engine_totals

        def spawn_hook(engine, fn, *args, **kwargs):
            return spawn(engine, body(fn), *args, **kwargs)

        def spawn_light_hook(engine, genfn, *args, **kwargs):
            return spawn_light(engine, body(genfn), *args, **kwargs)

        def close_hook(engine):
            if not engine._closed:
                totals["events"] += engine._heap_pushes
                for proc in engine._processes:
                    light = isinstance(proc, engine_module.LightProcess)
                    totals["light" if light else "thread"] += 1
            return close(engine)

        self._set(Engine, "spawn", spawn_hook)
        self._set(Engine, "spawn_light", spawn_light_hook)
        self._set(Engine, "close", close_hook)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- measurement ----------------------------------------------------------

    def _totals(self) -> dict:
        with self._states_lock:
            states = list(self._states)
        self_ns = [sum(s.self_ns[i] for s in states) for i in range(len(_NAMES))]
        calls = [sum(s.calls[i] for s in states) for i in range(len(_NAMES))]
        return {
            "self_ns": self_ns,
            "calls": calls,
            "probes": {k: list(v) for k, v in self.probes.items()},
        }

    def start(self) -> None:
        """Zero every account and open the measured phase on this thread."""
        with self._states_lock:
            for state in self._states:
                state.self_ns = [0] * len(_NAMES)
                state.calls = [0] * len(_NAMES)
        for record in self.probes.values():
            record[0], record[1] = 0, 0.0
        for key in self.engine_totals:
            self.engine_totals[key] = 0
        self._state().mark = self._clock()
        self._cpu0 = time.process_time_ns()
        self._phases = [("write", self._totals())]

    def phase(self, name: str) -> None:
        """Start phase ``name`` (the measured phase starts in ``write``).

        Accounts of phases that share a name are summed.
        """
        state = self._state()
        now = self._clock()
        stack = state.stack
        state.self_ns[stack[-1] if stack else UNATTRIBUTED] += now - state.mark
        state.mark = now
        self._phases.append((name, self._totals()))

    def stop(self) -> dict:
        """Close the measured phase; return per-layer and per-phase totals.

        ``cpu_s`` is the process CPU over the phase, measured
        independently of the wrappers; ``gap_frac`` is how far the sum of
        every layer's self time plus the unattributed remainder lands from
        it.
        """
        self.phase("end")
        cpu_s = (time.process_time_ns() - self._cpu0) / 1e9
        phases = self._phases
        end = phases[-1][1]
        self_s = {
            _NAMES[i]: end["self_ns"][i] / 1e9 for i in range(len(_NAMES))
        }
        accounted = sum(self_s.values())
        per_phase: dict[str, dict] = {}
        for (name, begin), (_, finish) in zip(phases, phases[1:]):
            account = per_phase.setdefault(name, {
                "self_s": dict.fromkeys(_NAMES, 0.0),
                "probes": {probe: [0, 0.0] for probe in finish["probes"]},
            })
            for i, layer in enumerate(_NAMES):
                account["self_s"][layer] += (
                    finish["self_ns"][i] - begin["self_ns"][i]
                ) / 1e9
            for probe, (calls, sim_s) in finish["probes"].items():
                account["probes"][probe][0] += calls - begin["probes"][probe][0]
                account["probes"][probe][1] += sim_s - begin["probes"][probe][1]
        return {
            "self_s": self_s,
            "calls": {_NAMES[i]: end["calls"][i] for i in range(len(LAYERS))},
            "probes": end["probes"],
            "phases": per_phase,
            "engine": dict(self.engine_totals),
            "cpu_s": cpu_s,
            "accounted_s": accounted,
            "gap_frac": abs(accounted - cpu_s) / cpu_s if cpu_s > 0 else 0.0,
        }


class AllocProbe:
    """Live traced memory per layer, snapshotted near each memory peak.

    Installed as the sim engine's gauge sampler, so it is polled after
    every dispatched event without touching the simulated clock.  A
    tracemalloc snapshot is taken whenever traced memory grows 25% past
    the level of the previous snapshot, and again as each engine closes,
    while its cluster still holds every stored byte.  Allocations are
    attributed to the layer whose source file made them; a layer's peak
    is its largest share in any snapshot.
    """

    #: poll after every event
    next_due = 0.0
    #: growth over the previous snapshot that triggers the next one
    GROWTH = 1.25
    MIN_BYTES = 32 << 20

    def __init__(self) -> None:
        self.peak_bytes = [0] * (len(LAYERS) + 1)
        self._trigger = self.MIN_BYTES
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.sim.engine import Engine
        from repro.trace import runtime

        close = Engine.close
        probe = self

        def close_hook(engine):
            if not engine._closed:
                probe.snapshot()
            return close(engine)

        self._restore = [(Engine, "close", close), (runtime, "SAMPLER", runtime.SAMPLER)]
        Engine.close = close_hook
        runtime.SAMPLER = self

    def uninstall(self) -> None:
        for owner, name, value in self._restore:
            setattr(owner, name, value)
        self._restore = []

    # -- the gauge-sampler protocol the engine and constructors speak -------

    def register(self, name, read) -> None:
        pass

    def unregister(self, name) -> None:
        pass

    def bind(self, engine) -> None:
        pass

    def sample(self, now: float) -> None:
        if tracemalloc.get_traced_memory()[0] >= self._trigger:
            self.snapshot()

    # -- measurement -------------------------------------------------------------

    def start(self) -> None:
        tracemalloc.start(1)

    def snapshot(self) -> None:
        live = [0] * (len(LAYERS) + 1)
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            layer = layer_of_path(stat.traceback[0].filename)
            live[UNATTRIBUTED if layer is None else layer] += stat.size
        self.peak_bytes = [max(a, b) for a, b in zip(self.peak_bytes, live)]
        self._trigger = max(
            self.MIN_BYTES, int(tracemalloc.get_traced_memory()[0] * self.GROWTH)
        )

    def stop(self) -> dict:
        traced_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {
            "alloc_peak_MB": {
                _NAMES[i]: self.peak_bytes[i] / 1e6 for i in range(len(_NAMES))
            },
            "traced_peak_MB": traced_peak / 1e6,
        }
