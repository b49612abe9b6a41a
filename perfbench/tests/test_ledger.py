"""The ledger's self-time accounting on toy call graphs and real sim waits."""

import time

import pytest

import ledger
from repro import sim

SIM, MPI, PFS = (ledger.LAYERS.index(name) for name in ("sim", "mpi", "pfs"))


class FakeClock:
    """A thread CPU clock that advances only when the toy code 'works'."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def toy():
    clock = FakeClock()
    book = ledger.Ledger(clock=clock, sim_clock=lambda: 0.0)
    book.start()
    return clock, book


def test_blocking_calls_charge_self_time_to_each_layer(toy):
    clock, book = toy

    def sim_leaf():
        clock.work(7)

    leaf = book.wrap(sim_leaf, SIM)

    def mpi_helper():  # same layer as its caller: no boundary
        clock.work(1)

    helper = book.wrap(mpi_helper, MPI)

    def mpi_middle():
        clock.work(3)
        helper()
        leaf()
        clock.work(2)

    middle = book.wrap(mpi_middle, MPI)

    def sim_outer():
        clock.work(10)
        middle()
        clock.work(5)

    book.wrap(sim_outer, SIM)()
    clock.work(4)  # outside every layer
    report = book.stop()
    assert report["self_s"]["sim"] == pytest.approx(22e-9)
    assert report["self_s"]["mpi"] == pytest.approx(6e-9)
    assert report["self_s"]["unattributed"] == pytest.approx(4e-9)
    assert report["calls"]["mpi"] == 1  # the same-layer helper is not a crossing
    assert report["calls"]["sim"] == 2


def test_exceptions_unwind_the_layer_stack(toy):
    clock, book = toy

    def failing():
        clock.work(3)
        raise KeyError("boom")

    wrapped = book.wrap(failing, PFS)

    def caller():
        clock.work(2)
        with pytest.raises(KeyError):
            wrapped()
        clock.work(1)

    book.wrap(caller, SIM)()
    report = book.stop()
    assert report["self_s"]["pfs"] == pytest.approx(3e-9)
    assert report["self_s"]["sim"] == pytest.approx(3e-9)


def test_generator_steps_are_charged_but_parked_time_is_not(toy):
    clock, book = toy

    def pfs_rpc_lw():
        clock.work(2)
        value = yield 0.5
        clock.work(value)
        return "reply"

    rpc_lw = book.wrap(pfs_rpc_lw, PFS)

    def mpi_exchange_lw():
        clock.work(1)
        reply = yield from rpc_lw()
        clock.work(4)
        return reply

    exchange_lw = book.wrap(mpi_exchange_lw, MPI)

    def sim_dispatch():
        gen = exchange_lw()
        assert gen.send(None) == 0.5
        clock.work(100)  # the engine runs other processes meanwhile
        with pytest.raises(StopIteration) as stop:
            gen.send(8)
        assert stop.value.value == "reply"

    book.wrap(sim_dispatch, SIM)()
    report = book.stop()
    assert report["self_s"]["pfs"] == pytest.approx(10e-9)
    assert report["self_s"]["mpi"] == pytest.approx(5e-9)
    assert report["self_s"]["sim"] == pytest.approx(100e-9)
    assert report["calls"]["pfs"] == 1 and report["calls"]["mpi"] == 1


def test_generator_forwards_throw_and_close(toy):
    clock, book = toy
    closed = []

    def pfs_retry_lw():
        try:
            yield 1.0
        except TimeoutError:
            clock.work(3)
        try:
            yield 2.0
        finally:
            closed.append(True)

    gen = book.wrap(pfs_retry_lw, PFS)()
    assert gen.send(None) == 1.0
    assert gen.throw(TimeoutError()) == 2.0
    gen.close()
    assert closed == [True]
    assert book.stop()["self_s"]["pfs"] == pytest.approx(3e-9)


def test_phase_marks_split_the_accounts(toy):
    clock, book = toy
    step = book.wrap(lambda ns: clock.work(ns), PFS)
    step(5)
    book.phase("read")
    step(7)
    book.phase("write")
    step(11)
    phases = book.stop()["phases"]
    assert phases["write"]["self_s"]["pfs"] == pytest.approx(16e-9)
    assert phases["read"]["self_s"]["pfs"] == pytest.approx(7e-9)


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


@pytest.mark.parametrize("light", [False, True])
def test_parked_sim_waits_are_not_charged(light):
    """A rank parked in a sim sleep is not charged while another process runs."""
    book = ledger.Ledger()

    def waiter():
        sim.sleep(1.0)

    def waiter_lw():
        yield 1.0

    def burner():
        sim.sleep(0.5)
        _burn(0.05)

    with sim.Engine() as engine:
        book.start()
        if light:
            engine.spawn_light(book.wrap(waiter_lw, MPI))
        else:
            engine.spawn(book.wrap(waiter, MPI))
        engine.spawn(book.wrap(burner, PFS))
        engine.run()
    report = book.stop()
    assert report["self_s"]["pfs"] >= 0.045
    assert report["self_s"]["mpi"] < 0.01
    assert report["gap_frac"] < 0.05
