"""One body per I/O path: every blocking form is its generator, driven.

The blocking client, scheduler, MPI and resource methods are one-line
``run_blocking`` delegations to their ``*_lw`` generators.  These tests
pin that from both ends: a client program run through the blocking
methods on a thread process and through the ``*_lw`` forms on a light
process must land on the same schedule and the same counters, and the
module ASTs must keep every blocking twin a single delegation.
"""

import ast
import inspect

import pytest

from repro import sim
from repro.fault import FaultInjector, FaultSchedule
from repro.io import scheduler as io_scheduler
from repro.io import Priority, io_priority
from repro.mpi import comm as mpi_comm
from repro.pfs import LustreClient, LustreCluster
from repro.pfs import client as pfs_client
from repro.pfs.configs import small_test_cluster
from repro.sim import resources as sim_resources

PAYLOAD = bytes(range(256)) * 1024  # 256 KiB


def _blocking(client):
    """``do(name, ...)`` calling the blocking method; never yields."""
    def do(name, *args, **kwargs):
        return getattr(client, name)(*args, **kwargs)
        yield  # unreachable: makes ``do`` a generator
    return do


def _light(client):
    """``do(name, ...)`` delegating to the ``*_lw`` generator."""
    def do(name, *args, **kwargs):
        return (yield from getattr(client, f"{name}_lw")(*args, **kwargs))
    return do


def _program(do):
    """The client program, written once for both drivers."""
    file = yield from do("create", "ckpt/a", stripe_count=4)
    yield from do("write", file, 0, PAYLOAD)
    yield from do(
        "writev", file,
        [(len(PAYLOAD), 1 << 16), (len(PAYLOAD) + (1 << 17), b"z" * 4096)],
    )
    yield from do("fsync", file)
    data = yield from do("read", file, 0, len(PAYLOAD))
    yield from do("create", "ckpt/b", stripe_count=1)
    yield from do("open", "ckpt/a")
    yield from do("stat", "ckpt/a")
    yield from do("setattr", "ckpt/a")
    names = yield from do("readdir", "ckpt", 1)
    yield from do("close", file)
    yield from do("unlink", "ckpt/a")
    return data == PAYLOAD, names


def _compaction_writer(client):
    """A concurrent COMPACTION-class writer (thread process, both runs)."""
    with io_priority(Priority.COMPACTION):
        file = client.create("bg/merge", stripe_count=2)
        for index in range(6):
            client.write(file, index << 20, 1 << 20)
        client.fsync(file)


def _run(light, config, schedule=None, background=False):
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        if schedule is not None:
            FaultInjector(schedule).install(cluster)
        client = LustreClient(cluster, 0)
        if background:
            engine.spawn(_compaction_writer, client)
        if light:
            proc = engine.spawn_light(_program, _light(client))
        else:
            proc = engine.spawn(sim.run_blocking, _program(_blocking(client)))
        final = engine.run()
        return {
            "result": proc.result,
            "final": final,
            "heap_pushes": engine._heap_pushes,
            "client": client.stats,
            "scheduler": client.scheduler.stats.snapshot(),
        }


def _fast_retry(**overrides):
    return small_test_cluster(
        rpc_timeout=0.02, rpc_max_retries=8, rpc_backoff_base=0.01,
        rpc_backoff_max=0.1, rpc_backoff_jitter=0.0, **overrides,
    )


CASES = {
    "healthy": dict(config=small_test_cluster()),
    "faults": dict(
        config=_fast_retry(),
        schedule=FaultSchedule(seed=11)
        .fail_ost(1, at_time=0.0, duration=0.05)
        .drop_rpc(probability=0.2),
    ),
    "drr": dict(
        config=small_test_cluster(
            io_policy="drr", io_compaction_bandwidth="1M",
            io_drr_quantum="64K",
        ),
        background=True,
    ),
}


class TestBlockingLightParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_schedule_and_counters(self, case):
        thread = _run(False, **CASES[case])
        light = _run(True, **CASES[case])
        assert thread == light
        assert thread["result"] == (True, ["a", "b"])

    def test_cases_cover_retry_and_queued_admission(self):
        faults = _run(True, **CASES["faults"])
        assert faults["client"].rpc_retries > 0
        drr = _run(True, **CASES["drr"])
        assert drr["scheduler"]["queued_issues"] > 0
        assert drr["scheduler"]["throttle_time"] > 0.0


def _body(fn: ast.FunctionDef) -> list:
    body = fn.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body


def _is_run_blocking(stmt) -> bool:
    call = stmt.value if isinstance(stmt, (ast.Return, ast.Expr)) else None
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr == "run_blocking" and (
            isinstance(func.value, ast.Name) and func.value.id == "sim"
        )
    return isinstance(func, ast.Name) and func.id == "run_blocking"


def _twins(module):
    """(class name, method node) for each method with an ``_lw`` sibling."""
    tree = ast.parse(inspect.getsource(module))
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            node.name: node for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        for name, node in methods.items():
            if f"{name}_lw" in methods:
                yield cls.name, node


class TestOneBodyPerPath:
    @pytest.mark.parametrize(
        "module", [pfs_client, io_scheduler, mpi_comm, sim_resources],
        ids=lambda m: m.__name__,
    )
    def test_blocking_twins_delegate_to_their_generator(self, module):
        twins = list(_twins(module))
        assert twins
        for cls_name, fn in twins:
            body = _body(fn)
            where = f"{cls_name}.{fn.name}"
            if where == "IoScheduler.submit":
                calls = [
                    node.func.attr for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ]
                assert "submit_lw" in calls, where
                continue
            assert len(body) == 1 and _is_run_blocking(body[0]), where
