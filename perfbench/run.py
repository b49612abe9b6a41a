"""The repo benchmark: host cost and simulated checkpoint bandwidth.

Usage::

    python3 perfbench/run.py --workload fig5-48n --seed 1 --seconds 50 --trace 0

Each iteration runs in a fresh worker process (``worker.py``).  With
``--trace 0`` the command repeats plain iterations for about ``--seconds``
and reports the median of each end-to-end metric.  With ``--trace 1`` it
runs one plain iteration as the baseline and one tracemalloc iteration,
then repeats ledger iterations (per-layer self time) for the rest of
``--seconds``, and reports the per-layer metrics.  A repeat starts
another iteration only while that one is expected to end less than half
an iteration past ``--seconds``, so a run lasts about ``--seconds``.

Every iteration's simulated outputs are hashed into a digest; all
iterations of one run, traced or not, must agree.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5-48n", "restart-48n", "llm-fleet")
#: end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_MB": "MB",
    "sim_write_GiBps": "GiB/s",
    "sim_read_GiBps": "GiB/s",
    "sim_restore_p99_s": "s",
}
#: the ledger's per-layer self times plus the unattributed remainder must
#: land within this share of the process CPU they claim to explain
ACCOUNTING_TOLERANCE = 0.05
#: a run ends within this many seconds: no iteration starts that the
#: slowest one so far says would overrun it, and workers are killed at it
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def per_layer_units() -> dict:
    """Per-layer metric -> unit, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


class Run:
    """The iterations of one command, their tally and their checks."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.results: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._slowest = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fail(self, error: str, ops: int = 0) -> None:
        self.attempted += ops
        self.failed += 1
        self.errors.append(error)

    def iterate(self, mode: str) -> dict | None:
        begin = time.perf_counter()
        try:
            result = run_worker(
                self.workload, self.seed, mode, RUN_BUDGET_S - self.elapsed()
            )
        except WorkerError as exc:
            self.fail(str(exc), ops=1)
            return None
        self._slowest = max(self._slowest, time.perf_counter() - begin)
        self.results.append(result)
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors.extend(result["errors"])
        return result

    def repeat(self, mode: str, seconds: float) -> list[dict]:
        """Iterate ``mode`` for about ``seconds`` since the start."""
        done = []
        durations = []
        while True:
            begin = time.perf_counter()
            result = self.iterate(mode)
            if result is None:
                return done
            done.append(result)
            durations.append(time.perf_counter() - begin)
            if self.elapsed() + statistics.median(durations) / 2 >= seconds:
                return done
            if self.elapsed() + self._slowest > RUN_BUDGET_S:
                return done

    def check_digests(self) -> set[str]:
        digests = {result["digest"] for result in self.results}
        if len(digests) > 1:
            self.fail(f"simulated outputs differ between iterations: {sorted(digests)}")
        return digests


def median_of(results: list[dict], key: str, section: str | None = None) -> float:
    return statistics.median((r[section] if section else r)[key] for r in results)


def end_to_end(run: Run, seconds: float) -> dict:
    plain = run.repeat("plain", seconds)
    if not plain:
        return {}
    return {
        name: {
            "value": median_of(plain, name, "sim" if name.startswith("sim_") else None),
            "unit": unit,
        }
        for name, unit in END_TO_END.items()
    }


def per_layer(run: Run, seconds: float) -> dict:
    baseline = run.iterate("plain")
    alloc = run.iterate("alloc") if baseline else None
    traced = run.repeat("ledger", seconds) if alloc else []
    if not traced:
        return {}
    units = per_layer_units()
    metrics = {
        name: {"value": median_of(traced, name, "layers"), "unit": units[name]}
        for name in traced[0]["layers"]
    }
    for name, value in alloc["layers"].items():
        metrics[name] = {"value": value, "unit": units[name]}
    metrics["host.trace_overhead_x"] = {
        "value": median_of(traced, "wall_s") / baseline["wall_s"],
        "unit": units["host.trace_overhead_x"],
    }
    gap = max(r["layers"]["host.accounting_gap_frac"] for r in traced)
    if gap > ACCOUNTING_TOLERANCE:
        run.fail(
            f"per-layer self times miss host CPU by {gap:.2%} "
            f"(tolerance {ACCOUNTING_TOLERANCE:.0%})"
        )
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.fail(f"per-layer metrics not reported: {missing}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics = measure(run, args.seconds)
    digests = run.check_digests()
    if not metrics:
        run.fail("no iteration completed")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.results)} iterations, {run.elapsed():.1f}s")
    print(f"  sim digest {', '.join(sorted(digests)) or '-'}")
    for result in run.results:
        print(f"  iteration {result['mode']:<6} wall_s {result['wall_s']:.4f} s, "
              f"setup_s {result['setup_s']:.4f} s")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<32} {error_rate:.6g} ({run.failed} failed / "
          f"{run.attempted} attempted)")
    for error in run.errors[:20]:
        print(f"  FAILED: {error}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
