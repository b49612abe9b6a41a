"""Tests for LsmioStore: Table 1 semantics in both backend modes."""

import sys
import threading

import pytest

from repro import trace
from repro.errors import ClosedError, InvalidArgumentError, NotFoundError
from repro.core import Backend, LsmioOptions, LsmioStore
from repro.lsm.env import MemEnv


def make_store(backend=Backend.ROCKSDB, **opts):
    defaults = dict(write_buffer_size="64K")
    defaults.update(opts)
    return LsmioStore(
        "store", LsmioOptions(backend=backend, **defaults), env=MemEnv()
    )


class TestRocksdbMode:
    def test_put_get(self):
        with make_store() as store:
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"

    def test_append(self):
        with make_store() as store:
            store.append(b"s", b"a")
            store.append(b"s", b"b")
            assert store.get(b"s") == b"ab"

    def test_delete_and_del_alias(self):
        with make_store() as store:
            store.put(b"k", b"v")
            store.del_(b"k")
            with pytest.raises(NotFoundError):
                store.get(b"k")

    def test_write_barrier_flushes_memtable(self):
        with make_store() as store:
            store.put(b"k", b"v" * 1000)
            store.write_barrier()
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1

    def test_no_wal_files_written(self):
        env = MemEnv()
        store = LsmioStore("s", LsmioOptions(), env=env)
        store.put(b"k", b"v")
        store.write_barrier()
        logs = [n for n in env.get_children("s") if n.endswith(".log")]
        store.close()
        assert logs == []

    def test_batch_calls_are_noops(self):
        with make_store() as store:
            store.start_batch()  # RocksDB mode: batching unnecessary
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"  # visible without stop_batch
            store.stop_batch()

    def test_scan(self):
        with make_store() as store:
            for i in (3, 1, 2):
                store.put(f"k{i}".encode(), str(i).encode())
            assert [k for k, _ in store.scan()] == [b"k1", b"k2", b"k3"]

    def test_type_validation(self):
        with make_store() as store:
            with pytest.raises(InvalidArgumentError):
                store.put("str-key", b"v")
            with pytest.raises(InvalidArgumentError):
                store.put(b"k", 123)


class TestLeveldbMode:
    def test_wal_present(self):
        env = MemEnv()
        store = LsmioStore(
            "s", LsmioOptions(backend=Backend.LEVELDB), env=env
        )
        store.put(b"k", b"v")
        logs = [n for n in env.get_children("s") if n.endswith(".log")]
        store.close()
        assert logs  # LevelDB cannot run WAL-less

    def test_batched_writes_apply_at_stop(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k1", b"v1")
            store.put(b"k2", b"v2")
            store.stop_batch()
            assert store.get(b"k1") == b"v1"
            assert store.get(b"k2") == b"v2"

    def test_reads_observe_open_batch(self):
        # Reads are synchronous and must see batched writes (Table 1).
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"
            store.put(b"k2", b"v2")
            store.stop_batch()
            assert store.get(b"k2") == b"v2"

    def test_write_barrier_applies_open_batch(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.put(b"k", b"v")
            store.write_barrier()
            assert store.get(b"k") == b"v"

    def test_append_in_batch(self):
        with make_store(Backend.LEVELDB) as store:
            store.start_batch()
            store.append(b"s", b"1")
            store.append(b"s", b"2")
            store.stop_batch()
            assert store.get(b"s") == b"12"


def count_engine_writes(store):
    """Record the op count of every engine write the store issues."""
    writes = []
    engine_write = store.db.write

    def counting(batch, options):
        writes.append(len(batch))
        return engine_write(batch, options)

    store.db.write = counting
    return writes


@pytest.mark.parametrize("backend", list(Backend))
class TestAggregation:
    """The store owns write aggregation in both backend modes."""

    def test_puts_merge_into_one_engine_write(self, backend):
        with make_store(backend) as store:
            writes = count_engine_writes(store)
            for i in range(5):
                store.put(f"k{i}".encode(), b"v")
            assert writes == []
            store.write_barrier()
            assert writes == [5]
            assert store.batches_merged == 4
            assert store.db.stats.writes == 5

    def test_flush_at_write_buffer_size(self, backend):
        # Four 16 KiB puts fill the 64 KiB write buffer.
        with make_store(backend) as store:
            writes = count_engine_writes(store)
            for i in range(5):
                store.put(f"k{i}".encode(), bytes(16 << 10))
            assert writes == [4]
            store.write_barrier()
            assert writes == [4, 1]
            assert store.batches_merged == 3

    def test_sync_put_flushes_and_drains(self, backend):
        with make_store(backend, sync_writes=False) as store:
            writes = count_engine_writes(store)
            store.put(b"a", b"small")
            store.put(b"k", b"v" * (100 << 10), sync=True)
            assert writes == [2]
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1  # the memtable flush finished in the call

    def test_reads_observe_own_writes(self, backend):
        with make_store(backend) as store:
            writes = count_engine_writes(store)
            store.put(b"k1", b"v1")
            assert store.get(b"k1") == b"v1"
            store.put(b"k2", b"v2")
            assert store.multi_get([b"k2"]) == {b"k2": b"v2"}
            store.delete(b"k1")
            assert [k for k, _ in store.scan()] == [b"k2"]
            assert writes == [1, 1, 1]

    def test_stop_batch_applies_batch(self, backend):
        with make_store(backend) as store:
            writes = count_engine_writes(store)
            store.start_batch()
            store.append(b"s", b"1")
            store.append(b"s", b"2")
            assert writes == []
            store.stop_batch()
            assert writes == [2]
            assert store.db.get(b"s") == b"12"

    def test_traced_flush_emits_span(self, backend):
        with make_store(backend) as store:
            with trace.session() as tracer:
                store.put(b"a", b"12")
                store.put(b"bb", b"345")
                store.put(b"c", b"6", sync=True)
            spans = [
                s for s in tracer.spans if (s.category, s.name) == (
                    "core", "flush_pending",
                )
            ]
            assert [s.args for s in spans] == [
                {"ops": 3, "nbytes": 10, "sync": True}
            ]


class TestConcurrentWriters:
    def test_no_write_lost_across_threads(self):
        # Real threads share one store: every put must reach the engine
        # exactly once while other threads flush the batch under it.
        threads, per_thread = 8, 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_store(write_buffer_size="4K") as store:

                def writer(tid):
                    for i in range(per_thread):
                        store.put(f"t{tid}/k{i:04d}".encode(), bytes(64))

                workers = [
                    threading.Thread(target=writer, args=(tid,))
                    for tid in range(threads)
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                    assert not worker.is_alive()
                store.write_barrier()
                assert store.db.stats.writes == threads * per_thread
                assert len(list(store.scan())) == threads * per_thread
        finally:
            sys.setswitchinterval(interval)


class TestSyncModes:
    def test_sync_writes_inline(self):
        with make_store(sync_writes=True) as store:
            store.put(b"k", b"v" * (100 << 10))  # exceeds 64K buffer
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1  # flushed inline

    def test_async_writes_collected_by_barrier(self):
        with make_store(sync_writes=False) as store:
            for i in range(8):
                store.put(f"k{i}".encode(), bytes(16 << 10))
            store.write_barrier(sync=True)
            for i in range(8):
                assert store.get(f"k{i}".encode()) == bytes(16 << 10)

    def test_per_put_sync_override(self):
        with make_store(sync_writes=False) as store:
            store.put(b"k", b"v" * (100 << 10), sync=True)
            files, _ = store.db.approximate_level_shape()[0]
            assert files >= 1


class TestLifecycle:
    def test_closed_store_rejects_ops(self):
        store = make_store()
        store.close()
        with pytest.raises(ClosedError):
            store.put(b"k", b"v")
        with pytest.raises(ClosedError):
            store.get(b"k")

    def test_double_close(self):
        store = make_store()
        store.close()
        store.close()

    def test_close_persists(self):
        env = MemEnv()
        store = LsmioStore("s", LsmioOptions(), env=env)
        store.put(b"k", b"important")
        store.close()
        store2 = LsmioStore("s", LsmioOptions(), env=env)
        assert store2.get(b"k") == b"important"
        store2.close()
