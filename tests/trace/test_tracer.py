"""Tests for the Tracer: sim-clock spans, nesting, the disabled path."""

import pytest

from repro import sim, telemetry, trace
from repro.trace import runtime
from repro.trace.runtime import NULL_SPAN
from repro.trace.tracer import Tracer


@pytest.fixture
def installed():
    tracer = trace.install()
    yield tracer
    trace.uninstall()


class TestSimClockSpans:
    def test_span_nesting_on_simulated_clock(self, installed):
        tracer = installed

        def work():
            with tracer.span("test", "outer"):
                sim.sleep(1.0)
                with tracer.span("test", "inner"):
                    sim.sleep(0.5)
                sim.sleep(0.25)

        with sim.Engine() as engine:
            engine.spawn(work, name="worker")
            engine.run()

        spans = {s.name: s for s in tracer.spans}
        outer, inner = spans["outer"], spans["inner"]
        assert outer.start == 0.0
        assert outer.duration == pytest.approx(1.75)
        assert inner.start == pytest.approx(1.0)
        assert inner.duration == pytest.approx(0.5)
        # Nesting depth is per track; the engine's own proc span wraps both.
        assert inner.depth == outer.depth + 1
        assert outer.track == "worker"
        # The engine's process span covers the whole body.
        proc = spans["proc:worker"]
        assert proc.category == "sim"
        assert proc.duration == pytest.approx(1.75)
        assert proc.depth == outer.depth - 1

    def test_engine_spawn_emits_instant(self, installed):
        with sim.Engine() as engine:
            engine.spawn(lambda: sim.sleep(0.1), name="p0")
            engine.run()
        instants = [i for i in installed.instants if i["name"] == "spawn"]
        assert instants and instants[0]["args"]["proc"] == "p0"
        assert instants[0]["ts"] == 0.0

    def test_tracing_never_advances_simulated_time(self, installed):
        def work():
            for _ in range(10):
                with installed.span("test", "tick"):
                    pass
            sim.sleep(2.0)

        with sim.Engine() as engine:
            engine.spawn(work, name="w")
            final = engine.run()
        assert final == pytest.approx(2.0)
        ticks = [s for s in installed.spans if s.name == "tick"]
        assert len(ticks) == 10
        assert all(s.duration == 0.0 for s in ticks)

    def test_wall_clock_falls_back_outside_sim(self):
        tracer = Tracer()
        with tracer.span("test", "outside"):
            pass
        (span,) = tracer.spans
        assert span.duration >= 0.0  # monotonic clock, not sim time


class TestDisabledPath:
    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("x", "a")
        assert span is NULL_SPAN
        assert tracer.span("x", "b") is span  # one shared singleton
        span.set(k=1)
        span.finish()
        with span:
            pass
        tracer.instant("x", "i")
        tracer.gauge("x", "g", 1)
        assert tracer.spans == []
        assert tracer.instants == []
        assert tracer.gauges == []

    def test_uninstalled_global_is_none(self):
        assert runtime.TRACER is None
        assert runtime.span("x", "y") is NULL_SPAN

    def test_install_uninstall_roundtrip(self):
        tracer = trace.install()
        assert runtime.TRACER is tracer
        assert trace.current_tracer() is tracer
        assert trace.current_metrics() is not None
        trace.uninstall()
        assert runtime.TRACER is None
        assert runtime.METRICS is None

    def test_session_context_manager(self):
        with trace.session() as tracer:
            assert runtime.TRACER is tracer
        assert runtime.TRACER is None


class TestRecording:
    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        tracer.gauge("x", "g", 1)
        tracer.gauge("x", "g", 2)
        tracer.gauge("x", "g", 3)  # over the cap
        assert len(tracer.gauges) == 2
        assert tracer.dropped == 1

    def test_span_set_attaches_args(self):
        tracer = Tracer()
        span = tracer.span("lsm", "commit", group=2)
        span.set(nbytes=128, wal=False)
        span.finish()
        payload = tracer.to_payload()
        assert payload["spans"][0]["args"] == {
            "group": 2, "nbytes": 128, "wal": False,
        }

    def test_categories_and_clear(self):
        tracer = Tracer()
        tracer.span("pfs", "a").finish()
        tracer.span("lsm", "b").finish()
        assert tracer.categories() == ["lsm", "pfs"]
        tracer.clear()
        assert tracer.spans == [] and tracer.categories() == []

    def test_unfinished_spans_excluded_from_payload(self):
        tracer = Tracer()
        tracer.span("x", "open")  # never finished
        tracer.span("x", "done").finish()
        names = [s["name"] for s in tracer.to_payload()["spans"]]
        assert names == ["done"]

    def test_payload_carries_meta_and_metrics(self):
        tracer = Tracer()
        payload = tracer.to_payload(
            metrics={"a.b": 1}, meta={"fig": "fig5"}
        )
        assert payload["format"] == "repro-trace"
        assert payload["meta"] == {"fig": "fig5"}
        assert payload["metrics"] == {"a.b": 1}


class TestBoundarySpan:
    """``runtime.span``: one call opens the span and feeds its histogram."""

    @staticmethod
    def run(fn):
        with sim.Engine() as engine:
            engine.spawn(fn, name="worker")
            engine.run()

    def test_span_feeds_its_histogram_on_finish(self, installed):
        with telemetry.session() as tele:
            def work():
                with runtime.span("test", "op", hist="test.op", k=1) as span:
                    sim.sleep(0.25)
                    span.set(n=2)

            self.run(work)
        (span,) = [s for s in installed.spans if s.category == "test"]
        assert span.args == {"k": 1, "n": 2}
        hist = tele.histograms["test.op"]
        assert (hist.count, hist.sum) == (1, span.duration) == (1, 0.25)

    def test_telemetry_alone_times_the_same_interval(self):
        with telemetry.session() as tele:
            def work():
                with runtime.span("test", "op", hist="test.op") as timer:
                    assert timer is not NULL_SPAN
                    timer.set(ignored=True)
                    sim.sleep(0.5)

            self.run(work)
        hist = tele.histograms["test.op"]
        assert (hist.count, hist.sum) == (1, 0.5)

    def test_span_without_hist_leaves_telemetry_alone(self, installed):
        with telemetry.session() as tele:
            with runtime.span("test", "op") as span:
                assert span is not NULL_SPAN
        assert tele.histograms == {}
        with runtime.span("test", "op", hist="test.op") as span:
            assert span.hist is None  # no telemetry installed
        assert len(installed.spans) == 2

    def test_nothing_installed_is_the_null_span(self):
        assert runtime.span("test", "op", hist="test.op") is NULL_SPAN
        runtime.instant("test", "point", k=1)  # no tracer: no-op

    def test_instant_records_on_the_installed_tracer(self, installed):
        runtime.instant("test", "point", ts=1.5, track="t", k=1)
        assert installed.instants == [
            {"cat": "test", "name": "point", "ts": 1.5, "track": "t",
             "args": {"k": 1}}
        ]
