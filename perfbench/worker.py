"""One benchmark iteration in a fresh process; prints one JSON line.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N --mode MODE``
with ``src`` on ``PYTHONPATH``.  Modes:

* ``plain``: no instrumentation; the end-to-end host and sim figures;
* ``ledger``: every layer entry point wrapped (see ``ledger.py``); adds
  per-layer self times and call counts;
* ``alloc``: tracemalloc on; adds per-layer live-memory peaks.

``setup_s`` covers the imports, the workload's set-up (inputs, and the
clusters it builds up front) and every ``LustreCluster`` built inside
the measured phase; that construction time is taken out of ``wall_s``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import ledger  # noqa: E402
import workloads  # noqa: E402
from repro.pfs.lustre import LustreCluster  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: (module, attribute) of the entry points counted on every call
PROBES = {
    "mpi.barrier": ("repro.mpi.comm", "Communicator.barrier"),
    "mpi.barrier_lw": ("repro.mpi.comm", "Communicator.barrier_lw"),
    "lsm.env_read": ("repro.pfs.simenv", "_SimRandomAccessFile.read"),
}


class ClusterBuildTimer:
    """Wall seconds spent in ``LustreCluster.__init__``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        init = LustreCluster.__init__
        timer = self

        def timed_init(cluster, *args, **kwargs):
            start = time.perf_counter()
            try:
                init(cluster, *args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - start

        LustreCluster.__init__ = timed_init


def layer_metrics(report: dict, counts: dict) -> dict:
    """The per-layer metrics of one ledger iteration."""
    self_s = report["self_s"]
    engine = report["engine"]
    probes = report["probes"]
    phases = report["phases"]
    metrics = {f"{layer}.host_self_s": self_s[layer] for layer in ledger.LAYERS}
    events = engine["events"]
    metrics["sim.events"] = events
    metrics["sim.host_us_per_event"] = self_s["sim"] / events * 1e6 if events else 0.0
    metrics["sim.thread_processes"] = engine["thread"]
    metrics["sim.light_processes"] = engine["light"]
    barrier = probes.get("mpi.barrier", [0, 0.0])
    barrier_lw = probes.get("mpi.barrier_lw", [0, 0.0])
    metrics["mpi.barriers"] = barrier[0] + barrier_lw[0]
    metrics["mpi.barrier_wait_sim_s"] = barrier[1] + barrier_lw[1]
    metrics["iolibs.calls"] = report["calls"]["iolibs"]
    for name in ("core.puts", "core.gets", "core.barrier_sim_s"):
        metrics[name] = counts[name]
    write_lsm_s = phases["write"]["self_s"]["lsm"]
    metrics["lsm.ingest_MBps_host"] = (
        counts["lsm.user_bytes"] / 1e6 / write_lsm_s
        if counts["lsm.user_bytes"] and write_lsm_s > 0 else 0.0
    )
    read = phases.get("read")
    gets = counts["core.gets"]
    if read is not None and gets:
        metrics["lsm.get_host_us"] = read["self_s"]["lsm"] / gets * 1e6
        metrics["lsm.env_reads_per_get"] = (
            read["probes"].get("lsm.env_read", [0, 0.0])[0] / gets
        )
    else:
        metrics["lsm.get_host_us"] = 0.0
        metrics["lsm.env_reads_per_get"] = 0.0
    for name in (
        "lsm.write_amp", "lsm.memtable_flushes",
        "pfs.rpcs", "pfs.rpc_retries", "pfs.rpc_failures",
        "pfs.ost_busy_max_frac", "pfs.ost_lock_switches",
        "pfs.mds_ops", "pfs.mds_busy_frac",
        "io.submits", "io.queued_frac", "io.stall_sim_s",
    ):
        metrics[name] = counts[name]
    metrics["host.cpu_s"] = report["cpu_s"]
    metrics["host.unattributed_s"] = self_s["unattributed"]
    metrics["host.accounting_gap_frac"] = report["gap_frac"]
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "ledger", "alloc"), default="plain")
    args = parser.parse_args()

    builds = ClusterBuildTimer()
    tracker = None
    if args.mode == "ledger":
        tracker = ledger.Ledger()
        tracker.install(PROBES)
    elif args.mode == "alloc":
        tracker = ledger.AllocProbe()
        tracker.install()

    workload = workloads.WORKLOADS[args.workload]()
    start = time.perf_counter()
    workload.setup(args.seed)
    setup_s = IMPORT_S + time.perf_counter() - start

    phase = getattr(tracker, "phase", lambda name: None)
    if tracker is not None:
        tracker.start()
    built_before = builds.seconds
    start = time.perf_counter()
    outcome = workload.run(phase)
    wall_s = time.perf_counter() - start
    report = tracker.stop() if tracker is not None else None
    in_run_builds = builds.seconds - built_before
    wall_s -= in_run_builds
    setup_s += in_run_builds

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "sim": outcome.sim,
        "digest": workloads.digest(outcome.digest_material),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors[:20],
    }
    if args.mode == "ledger":
        result["layers"] = layer_metrics(report, outcome.counts)
    elif args.mode == "alloc":
        result["layers"] = {
            f"{layer}.alloc_peak_MB": report["alloc_peak_MB"][layer]
            for layer in ledger.LAYERS
        }
        result["layers"]["host.unattributed_alloc_peak_MB"] = (
            report["alloc_peak_MB"]["unattributed"]
        )
        result["layers"]["host.traced_peak_MB"] = report["traced_peak_MB"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
