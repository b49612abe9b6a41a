"""Seed plumbing, and trace neutrality of the fully installed ledger."""

from dataclasses import replace

import pytest

import ledger
import workloads
from repro import sim
from repro.bench import llm
from repro.trace import runtime as trace_runtime


@pytest.fixture(autouse=True)
def no_registry_left_behind():
    yield
    trace_runtime.METRICS = None


def test_seed_reaches_fig5_cluster_jitter():
    workload = workloads.Fig5()
    workload.setup(1234)
    assert workload.cluster.jitter_seed == 1234
    assert workload.cluster.client_jitter > 0


def test_seed_reaches_restart_cluster_and_payloads():
    first, again, other = workloads.Restart(), workloads.Restart(), workloads.Restart()
    for workload, seed in ((first, 7), (again, 7), (other, 8)):
        workload.setup(seed)
        workload.engine.close()
    assert first.cluster.config.jitter_seed == 7
    assert other.cluster.config.jitter_seed == 8
    assert first.value(3, 5) == again.value(3, 5)
    assert first.value(3, 5) != other.value(3, 5)
    assert first.value(3, 5) != first.value(3, 6)
    assert len(first.value(47, workloads.VALUES_PER_RANK - 1)) == workloads.VALUE_BYTES


def test_seed_reaches_llm_fleet_cluster(monkeypatch):
    workload = workloads.LlmFleet()
    workload.setup(99)
    seen = []

    def scenario(cfg):
        seen.append(llm.fleet_config(cfg.ranks))
        raise AssertionError("stop after building the config")

    monkeypatch.setattr(llm, "run_llm_scenario", scenario)
    with pytest.raises(AssertionError):
        workload.run(lambda name: None)
    assert seen[0].jitter_seed == 99 and seen[0].client_jitter > 0
    assert llm.fleet_config is workload._fleet_config  # restored


def _small_fleet() -> dict:
    cfg = replace(llm.LlmConfig(ranks=16).quick(), mode="light")
    return llm.run_llm_scenario(cfg)


def test_installed_ledger_is_trace_neutral_and_uninstalls():
    original_sleep = sim.sleep
    plain = _small_fleet()
    book = ledger.Ledger()
    book.install()
    try:
        assert sim.sleep is not original_sleep
        book.start()
        traced = _small_fleet()
        report = book.stop()
    finally:
        book.uninstall()
    assert sim.sleep is original_sleep
    assert traced == plain
    assert report["self_s"]["bench"] > 0 and report["self_s"]["pfs"] > 0
    assert report["engine"]["light"] > 0 and report["engine"]["events"] > 0
    assert report["gap_frac"] < 0.05
