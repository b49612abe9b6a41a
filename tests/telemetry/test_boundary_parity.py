"""Span/histogram parity: one instrument per layer boundary.

A boundary opened with ``runtime.span(..., hist=name)`` feeds its
latency histogram from the span's own interval, so on a workload that
compacts and stalls the histogram and the spans must agree exactly —
and turning the tracer off must not move a single histogram sample.
The workload is the serial mode of ``benchmarks/micro/bench_stability.py``
(tight COMPACTION-class cap, small memtables) with two writers, so
group commits queue (``commit_stall``) and L0 hits both the slowdown
band and the stop trigger.
"""

import random
from collections import defaultdict

import pytest

from repro import sim, telemetry, trace
from repro.lsm import DB, Options
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster
from repro.sim.executor import SimExecutor
from repro.trace import runtime
from repro.trace.tracer import Tracer

SAMPLES = 300   # puts per writer
WRITERS = 2

#: boundary histogram -> the span that feeds it
BOUNDARIES = {
    "lsm.commit": "commit",
    "lsm.commit_stall": "commit_stall",
    "lsm.flush": "memtable_flush",
    "lsm.compaction": "compaction",
    "lsm.stall": "write_stop",
    "pfs.rpc.write": "write_rpc",
    "pfs.rpc.read": "read_rpc",
    "pfs.fsync": "fsync",
}

#: (count, sum, max) measured before spans fed the histograms, when
#: each site timed itself next to its span
PINNED = {
    "lsm.commit": (585, 0.22721804427942038, 0.01636045291030741),
    "lsm.flush": (23, 0.31872714522968687, 0.025286570285584564),
    "lsm.compaction": (7, 1.6679304957361532, 0.4267883323869035),
    "lsm.stall": (200, 0.8079999999999629, 0.17399999999998084),
    "lsm.commit_stall": (35, 0.19926420428891234, 0.012184392169833913),
}


def run_workload() -> None:
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, small_test_cluster())
        client = LustreClient(cluster, 0)
        client.scheduler.set_compaction_bandwidth(4 << 20)
        env = SimLustreEnv(client)

        def main():
            db = DB.open(
                "db",
                options=Options(
                    write_buffer_size=16 << 10,
                    target_file_size_base=12 << 10,
                    level0_file_num_compaction_trigger=2,
                    level0_slowdown_writes_trigger=6,
                    level0_stop_writes_trigger=9,
                    slowdown_delay=4e-3,
                    enable_compaction=True,
                    max_subcompactions=1,
                    compaction_pacing=False,
                ),
                env=env,
                executor=SimExecutor(engine),
            )

            def writer(seed):
                rng = random.Random(seed)
                for _ in range(SAMPLES):
                    sim.sleep(5e-3)
                    key = f"k{rng.randrange(512):05d}".encode()
                    db.put(key, b"v" * 512)

            writers = [engine.spawn(writer, 1234 + i) for i in range(WRITERS)]
            for proc in writers:
                sim.wait(proc.done)
            db.flush()
            db.close()

        engine.spawn(main)
        engine.run()


def snapshot_with(tracer):
    """Run once with telemetry (and ``tracer``, if any) installed."""
    if tracer is not None:
        trace.install(tracer)
    tele = telemetry.install()
    try:
        run_workload()
    finally:
        telemetry.uninstall()
        if tracer is not None:
            trace.uninstall()
    return tele.snapshot()


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    return tracer, snapshot_with(tracer)


def test_every_boundary_histogram_is_its_spans(traced):
    tracer, snap = traced
    by_hist = defaultdict(list)
    for span in tracer.spans:
        if span.hist is not None:
            by_hist[span.hist].append(span)
    assert {
        hist: spans[0].name for hist, spans in by_hist.items()
    } == {hist: name for hist, name in BOUNDARIES.items() if hist in by_hist}
    assert set(PINNED) <= set(by_hist)
    for hist, spans in by_hist.items():
        if hist == "lsm.stall":
            continue  # also takes slowdown delays: checked below
        assert snap[hist]["count"] == len(spans), hist
        assert snap[hist]["sum"] == sum(s.duration for s in spans), hist
        assert snap[hist]["max"] == max(s.duration for s in spans), hist


def test_stall_histogram_is_stop_spans_plus_slowdown_delays(traced):
    tracer, snap = traced
    stops = [s for s in tracer.spans if s.name == "write_stop"]
    slowdowns = [s for s in tracer.spans if s.name == "write_slowdown"]
    assert stops and slowdowns
    assert snap["lsm.stall"]["count"] == len(stops) + len(slowdowns)
    assert snap["lsm.stall"]["sum"] == pytest.approx(
        sum(s.duration for s in stops + slowdowns), rel=1e-9
    )


@pytest.mark.parametrize(
    "tracer", [None, Tracer(enabled=False)], ids=["no-tracer", "disabled"]
)
def test_telemetry_alone_yields_the_same_histograms(traced, tracer):
    _, expected = traced
    assert snapshot_with(tracer) == expected
    assert runtime.TRACER is None
    if tracer is not None:
        assert tracer.spans == [] and tracer.instants == []


def test_lsm_histograms_match_the_pinned_values(traced):
    _, snap = traced
    for hist, (count, total, peak) in PINNED.items():
        assert (
            snap[hist]["count"], snap[hist]["sum"], snap[hist]["max"]
        ) == (count, total, peak), hist
