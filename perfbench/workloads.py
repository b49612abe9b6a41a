"""The benchmark's workloads: seeded inputs, the measured phase, the checks.

Every workload is closed-loop and simulated on the calibrated Viking
model (``repro.bench.figures.default_cluster``, with the figure drivers'
0.8 ms per-RPC arrival jitter).  The seed becomes the cluster's
``jitter_seed`` and, where values are stored, the payload seed.  Each
workload has two steps:

* ``setup(seed)`` builds configurations, clusters and inputs;
* ``run(phase)`` is the measured phase.  It returns an :class:`Outcome`:
  the simulated end-to-end figures, the simulated per-layer counts taken
  from the program's metrics registry, the material for the determinism
  digest, and the correctness tally.  ``phase(name)`` is called when a
  run moves into a new phase (the restart read-back).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro import sim
from repro.bench import llm
from repro.bench.figures import default_cluster
from repro.core.manager import LsmioManager
from repro.core.options import LsmioOptions
from repro.errors import NotFoundError
from repro.ior import IorConfig, run_ior
from repro.ior import runner as ior_runner
from repro.mpi import launcher, run_world
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.simenv import SimLustreEnv
from repro.trace import runtime as trace_runtime
from repro.trace.metrics import MetricsRegistry
from repro.util.stats import quantile

GIB = float(1 << 30)
#: the paper's headline scale: 48 nodes, one rank each, 8 MiB per rank
RANKS = 48
BYTES_PER_RANK = 8 << 20
STRIPE_COUNT = 4
#: the restart protocol's value size (Fig. 10 reads at 64 KiB)
VALUE_BYTES = 64 << 10
VALUES_PER_RANK = BYTES_PER_RANK // VALUE_BYTES
#: restart payloads are windows into one seeded pool per rank, shifted by
#: this many bytes per key, so every key's value differs from every other
VALUE_STEP = 256


@dataclass
class Outcome:
    """What one measured phase produced."""

    #: simulated end-to-end figures (sim_write_GiBps, ...)
    sim: dict
    #: simulated per-layer counts (core.puts, pfs.rpcs, ...)
    counts: dict
    #: JSON-able simulated outputs; hashed into the determinism digest
    digest_material: object
    attempted: int
    failed: int
    errors: list = field(default_factory=list)


class Registry:
    """One fresh metrics registry per simulated run, snapshotted at its end.

    The registry is dropped right after each snapshot: it references the
    run's cluster, which must be freed before the next run starts.
    """

    def __init__(self) -> None:
        self.segments: list[tuple[dict, float]] = []

    def begin(self) -> None:
        trace_runtime.METRICS = MetricsRegistry()

    def end(self, elapsed: float) -> dict:
        snapshot = trace_runtime.METRICS.snapshot()
        trace_runtime.METRICS = None
        self.segments.append((snapshot, elapsed))
        return snapshot


def _sum(snapshot: dict, prefix: str, suffix: str) -> float:
    return sum(
        value
        for key, value in snapshot.items()
        if key.startswith(prefix) and key.endswith(suffix)
    )


def layer_counts(segments: list[tuple[dict, float]]) -> dict:
    """Simulated per-layer counts over every run's registry snapshot."""
    counts = {
        "core.puts": 0, "core.gets": 0, "core.barrier_sim_s": 0.0,
        "lsm.memtable_flushes": 0, "lsm.user_bytes": 0,
        "pfs.rpcs": 0, "pfs.rpc_retries": 0, "pfs.rpc_failures": 0,
        "pfs.ost_busy_max_frac": 0.0, "pfs.ost_lock_switches": 0,
        "pfs.mds_ops": 0, "io.submits": 0, "io.stall_sim_s": 0.0,
    }
    lsm_pfs_bytes = 0
    mds_busy = elapsed_total = 0.0
    inline = queued = 0
    for snap, elapsed in segments:
        counts["core.puts"] += _sum(snap, "core.manager.", ".puts")
        counts["core.gets"] += _sum(snap, "core.manager.", ".gets")
        counts["core.barrier_sim_s"] += _sum(snap, "core.manager.", ".barrier_time")
        counts["lsm.memtable_flushes"] += _sum(snap, "lsm.db.", ".memtable_flushes")
        user_bytes = _sum(snap, "lsm.db.", ".bytes_written")
        counts["lsm.user_bytes"] += user_bytes
        if user_bytes:
            lsm_pfs_bytes += _sum(snap, "pfs.client", ".bytes_written")
        for kind in (".write_rpcs", ".read_rpcs", ".mds_ops"):
            counts["pfs.rpcs"] += _sum(snap, "pfs.client", kind)
        counts["pfs.rpc_retries"] += _sum(snap, "pfs.client", ".rpc_retries")
        counts["pfs.rpc_failures"] += _sum(snap, "pfs.client", ".rpc_failures")
        busiest = max(
            (v for k, v in snap.items()
             if k.startswith("pfs.ost") and k.endswith(".busy_time")),
            default=0.0,
        )
        if elapsed > 0:
            counts["pfs.ost_busy_max_frac"] = max(
                counts["pfs.ost_busy_max_frac"], busiest / elapsed
            )
        counts["pfs.ost_lock_switches"] += _sum(snap, "pfs.ost", ".lock_switches")
        counts["pfs.mds_ops"] += snap.get("pfs.mds.requests", 0)
        mds_busy += snap.get("pfs.mds.busy_time", 0.0)
        elapsed_total += elapsed
        sched = {k: v for k, v in snap.items() if k.startswith("io.sched.")}
        counts["io.submits"] += sum(
            v for k, v in sched.items() if k.rsplit(".", 1)[1].startswith("submitted_")
        )
        counts["io.stall_sim_s"] += sum(
            v for k, v in sched.items() if k.rsplit(".", 1)[1].startswith("stall_time_")
        )
        inline += _sum(sched, "io.sched.", ".inline_issues")
        queued += _sum(sched, "io.sched.", ".queued_issues")
    user_bytes = counts["lsm.user_bytes"]
    counts["lsm.write_amp"] = lsm_pfs_bytes / user_bytes if user_bytes else 0.0
    counts["pfs.mds_busy_frac"] = mds_busy / elapsed_total if elapsed_total else 0.0
    counts["io.queued_frac"] = queued / (inline + queued) if inline + queued else 0.0
    return counts


def _lsmio_options() -> LsmioOptions:
    """The IOR LSMIO driver's engine options and CPU-charge model."""
    return LsmioOptions(cpu_charge=ior_runner._lsmio_cpu_charge)


class Fig5:
    """Fig. 5's 48-node point: posix and LSMIO, 64 KiB and 1 MiB transfers.

    The LSMIO 64 KiB series also reads its data back (IOR ``-w -r``),
    which is Fig. 10's LSMIO point.  The write phase is timed before the
    read starts, so the read does not change the write figure.
    """

    name = "fig5-48n"
    #: (api, transfer size, read back)
    SERIES = (
        ("posix", 64 << 10, False),
        ("lsmio", 64 << 10, True),
        ("posix", 1 << 20, False),
        ("lsmio", 1 << 20, False),
    )

    def setup(self, seed: int) -> None:
        self.cluster = default_cluster(jitter_seed=seed)
        self.configs = [
            IorConfig(
                api=api,
                num_tasks=RANKS,
                block_size=transfer,
                transfer_size=transfer,
                segment_count=BYTES_PER_RANK // transfer,
                stripe_count=STRIPE_COUNT,
                stripe_size=transfer,
                read_back=read_back,
            )
            for api, transfer, read_back in self.SERIES
        ]

    def run(self, phase: Callable[[str], None]) -> Outcome:
        registry = Registry()
        runs = []
        captured: dict = {}

        # run_ior keeps the per-rank timings and the engine to itself;
        # take them from its run_world call.
        def capture(*args, **kwargs):
            timings = launcher.run_world(*args, **kwargs)
            captured["timings"] = timings
            captured["elapsed"] = kwargs["engine"].now
            return timings

        # Every rank's read phase starts after a barrier that follows the
        # write phase, so the first rank to start reading opens the
        # read phase for all of them.
        driver = ior_runner._LsmioDriver
        read_phase = driver.read_phase

        def marked_read_phase(rank_driver):
            if not captured.get("reading"):
                captured["reading"] = True
                phase("read")
            return read_phase(rank_driver)

        patched = ior_runner.run_world
        ior_runner.run_world = capture
        driver.read_phase = marked_read_phase
        try:
            for config in self.configs:
                registry.begin()
                result = run_ior(config, self.cluster)
                snapshot = registry.end(captured["elapsed"])
                runs.append((config, result, captured.pop("timings"), snapshot))
                if captured.pop("reading", False):
                    phase("write")
        finally:
            ior_runner.run_world = patched
            driver.read_phase = read_phase
        return self._outcome(runs, registry)

    def _outcome(self, runs, registry: Registry) -> Outcome:
        errors = []
        failed = 0
        material = []
        for config, result, timings, snapshot in runs:
            label = f"{config.api}/{config.transfer_size}"
            bandwidths = [result.max_write_bw]
            if config.read_back:
                bandwidths.append(result.max_read_bw)
            if not all(bw and math.isfinite(bw) and bw > 0 for bw in bandwidths):
                errors.append(f"{label}: series missing ({bandwidths})")
                failed += RANKS
            elif config.api == "lsmio":
                for rank in range(RANKS):
                    key = f"core.manager.{config.test_file}.lsmio/rank{rank}.bytes_put"
                    if snapshot.get(key) != BYTES_PER_RANK:
                        errors.append(f"{label} rank {rank}: bytes_put {snapshot.get(key)}")
                        failed += 1
            material.append({
                "series": label,
                "bandwidths": bandwidths,
                "timings": timings,
                "registry": snapshot,
            })
        by_label = {(c.api, c.transfer_size): (r, t) for c, r, t, _ in runs}
        lsmio, timings = by_label[("lsmio", 64 << 10)]
        sim_metrics = {
            "sim_write_GiBps": lsmio.max_write_bw / GIB,
            "sim_read_GiBps": lsmio.max_read_bw / GIB,
            "sim_restore_p99_s": quantile([t["read_time"] for t in timings], 0.99),
        }
        return Outcome(
            sim=sim_metrics,
            counts=layer_counts(registry.segments),
            digest_material=material,
            attempted=RANKS * len(runs),
            failed=failed,
            errors=errors,
        )


class Restart:
    """Fig. 10's LSMIO protocol: seeded puts, a sync barrier, point gets."""

    name = "restart-48n"

    def setup(self, seed: int) -> None:
        pool_bytes = VALUE_BYTES + VALUES_PER_RANK * VALUE_STEP
        self.pools = [
            random.Random(seed * 1_000_003 + rank).randbytes(pool_bytes)
            for rank in range(RANKS)
        ]
        self.registry = Registry()
        self.registry.begin()
        self.engine = sim.Engine()
        self.cluster = LustreCluster(self.engine, default_cluster(jitter_seed=seed))

    def value(self, rank: int, index: int) -> bytes:
        start = index * VALUE_STEP
        return self.pools[rank][start:start + VALUE_BYTES]

    def run(self, phase: Callable[[str], None]) -> Outcome:
        self._phase = phase
        self._read_started = False
        try:
            results = run_world(RANKS, self._rank, engine=self.engine)
            snapshot = self.registry.end(self.engine.now)
        finally:
            self.engine.close()
        return self._outcome(results, snapshot)

    def _rank(self, comm) -> dict:
        rank = comm.rank
        env = SimLustreEnv(
            LustreClient(self.cluster, rank),
            stripe_count=STRIPE_COUNT,
            stripe_size=VALUE_BYTES,
            readahead="2M",
        )
        manager = LsmioManager(
            f"restart.lsmio/rank{rank}", options=_lsmio_options(), env=env
        )
        comm.barrier()
        start = sim.now()
        for index in range(VALUES_PER_RANK):
            manager.put(f"r{rank:04d}/x{index:06d}", self.value(rank, index))
        manager.write_barrier(sync=True)
        comm.barrier()
        write_time = sim.now() - start

        comm.barrier()
        if not self._read_started:
            self._read_started = True
            self._phase("read")
        start = sim.now()
        mismatches = 0
        for index in range(VALUES_PER_RANK):
            try:
                got = manager.get(f"r{rank:04d}/x{index:06d}")
            except NotFoundError:
                got = None
            if got != self.value(rank, index):
                mismatches += 1
        restore_time = sim.now() - start
        comm.barrier()
        read_time = sim.now() - start
        manager.close()
        return {
            "write_time": write_time,
            "read_time": read_time,
            "restore_time": restore_time,
            "mismatches": mismatches,
        }

    def _outcome(self, results: list, snapshot: dict) -> Outcome:
        errors = []
        failed = 0
        for rank, result in enumerate(results):
            key = f"core.manager.restart.lsmio/rank{rank}.bytes_put"
            if snapshot.get(key) != BYTES_PER_RANK:
                errors.append(f"rank {rank}: bytes_put {snapshot.get(key)}")
                failed += VALUES_PER_RANK
            if result["mismatches"]:
                errors.append(f"rank {rank}: {result['mismatches']} gets wrong")
                failed += result["mismatches"]
        total = RANKS * BYTES_PER_RANK
        sim_metrics = {
            "sim_write_GiBps": total / max(r["write_time"] for r in results) / GIB,
            "sim_read_GiBps": total / max(r["read_time"] for r in results) / GIB,
            "sim_restore_p99_s": quantile(
                [r["restore_time"] for r in results], 0.99
            ),
        }
        return Outcome(
            sim=sim_metrics,
            counts=layer_counts(self.registry.segments),
            digest_material={"ranks": results, "registry": snapshot},
            attempted=2 * RANKS * VALUES_PER_RANK,
            failed=failed,
            errors=errors,
        )


class LlmFleet:
    """``run_llm_scenario(LlmConfig())``: 1024 ranks, retention, restore storm.

    The fleet cluster gets the figure drivers' RPC jitter, seeded by the
    workload seed; without jitter every seed would replay one schedule.
    """

    name = "llm-fleet"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.config = llm.LlmConfig()

    def fleet_config(self, ranks: int, **overrides):
        params = dict(
            client_jitter=default_cluster().client_jitter, jitter_seed=self.seed
        )
        params.update(overrides)
        return self._fleet_config(ranks, **params)

    def run(self, phase: Callable[[str], None]) -> Outcome:
        registry = Registry()
        self._fleet_config = llm.fleet_config
        llm.fleet_config = self.fleet_config
        registry.begin()
        try:
            result = llm.run_llm_scenario(self.config)
        finally:
            llm.fleet_config = self._fleet_config
        snapshot = registry.end(result["final_time_s"])
        cfg = self.config
        attempted = cfg.logical_ops()
        restore = result["restore"]
        expected = cfg.ranks * cfg.bytes_per_checkpoint
        errors = []
        if restore["bytes_read"] != expected:
            errors.append(f"restored {restore['bytes_read']} bytes, expected {expected}")
        sim_metrics = {
            "sim_write_GiBps": result["bytes_written"] / result["write_time_s"] / GIB,
            "sim_read_GiBps": restore["bytes_read"] / restore["storm_time_s"] / GIB,
            "sim_restore_p99_s": restore["rank_p99_s"],
        }
        return Outcome(
            sim=sim_metrics,
            counts=layer_counts(registry.segments),
            digest_material={"result": result, "registry": snapshot},
            attempted=attempted,
            failed=attempted if errors else 0,
            errors=errors,
        )


WORKLOADS = {wl.name: wl for wl in (Fig5, Restart, LlmFleet)}


def digest(material: object) -> str:
    """Stable hash of a workload's simulated outputs."""
    text = json.dumps(material, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
