"""Tests for SimLustreEnv: the real LSM engine on simulated Lustre."""

import random

import pytest

from repro import sim
from repro.errors import NotFoundError
from repro.fault import FaultyEnv
from repro.lsm import DB, Options
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.options import CompressionType, WriteOptions
from repro.lsm.sstable import Table, TableBuilder
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster


def run_sim(fn, config=None, **env_kwargs):
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config or small_test_cluster())
        client = LustreClient(cluster, 0)
        env = SimLustreEnv(client, **env_kwargs)

        proc = engine.spawn(fn, env)
        elapsed = engine.run()
        return proc.result, cluster, elapsed


class TestEnvContract:
    def test_write_read_roundtrip(self):
        def main(env):
            env.create_dir("d")
            with env.new_writable_file("d/f") as fh:
                fh.append(b"hello ")
                fh.append(b"simulated lustre")
                fh.sync()
            with env.new_random_access_file("d/f") as fh:
                return fh.read(0, 100), fh.size()

        (data, size), _, elapsed = run_sim(main)
        assert data == b"hello simulated lustre"
        assert size == 22
        assert elapsed > 0  # I/O took simulated time

    def test_sequential_file(self):
        def main(env):
            with env.new_writable_file("f") as fh:
                fh.append(b"0123456789")
            with env.new_sequential_file("f") as fh:
                return fh.read(4), fh.read(10)

        (first, rest), _, _ = run_sim(main)
        assert (first, rest) == (b"0123", b"456789")

    def test_missing_file(self):
        def main(env):
            with pytest.raises(NotFoundError):
                env.new_random_access_file("missing")
            with pytest.raises(NotFoundError):
                env.file_size("missing")
            return True

        assert run_sim(main)[0]

    def test_namespace_ops(self):
        def main(env):
            env.create_dir("db")
            env.new_writable_file("db/b").close()
            env.new_writable_file("db/a").close()
            env.rename_file("db/b", "db/c")
            children = env.get_children("db")
            env.delete_file("db/a")
            return children, env.get_children("db")

        (before, after), _, _ = run_sim(main)
        assert before == ["a", "c"]
        assert after == ["c"]

    @pytest.mark.parametrize(
        "path", ["db/x", "/db/x/", "db//x", "db///x", "//db////x//"]
    )
    def test_runs_of_slashes_name_one_path(self, path):
        def main(env):
            with env.new_writable_file(path) as fh:
                fh.append(b"payload")
            return env.file_exists("db/x"), env.cluster.list_paths()

        (exists, paths), _, _ = run_sim(main)
        assert exists
        assert paths == ["db/x"]

    def test_small_appends_batch_into_large_rpcs(self):
        """Appends leave as ``write_buffer``-sized client writes at fixed
        offsets, also when an append straddles the buffer boundary.

        The expected writes, RPC count and coalescing counters are the
        figures of the copying page-cache buffer this batching replaced.
        """
        writes = []

        def main(env):
            client = env.client
            write = client.write

            def record(file, offset, data):
                length = (
                    sum(map(len, data)) if type(data) is tuple else len(data)
                )
                writes.append((offset, length))
                return write(file, offset, data)

            client.write = record
            expected = bytearray()
            with env.new_writable_file("f") as fh:
                for _ in range(4096):
                    fh.append(b"x" * 256)  # 1 MiB of 256-byte appends
                expected += b"x" * (1 << 20)
                for i in range(700):  # 3000-byte appends straddle 1 MiB
                    chunk = bytes([i % 251]) * 3000
                    kind = i % 4
                    if kind == 0:
                        fh.append(chunk)
                    elif kind == 1:
                        fh.append(bytearray(chunk))
                    elif kind == 2:
                        fh.append(memoryview(bytearray(chunk)))
                    else:
                        fh.append_owned(bytearray(chunk))
                    expected += chunk
                big = bytes(range(256)) * (10 << 10)  # 2.5 MiB in one append
                fh.append(big)
                expected += big
                fh.sync()
            with env.new_random_access_file("f") as fh:
                assert fh.read(0, len(expected) + 10) == expected
            return client.stats

        stats, cluster, _ = run_sim(
            main, config=small_test_cluster(rpc_size="1M"), write_buffer="1M"
        )
        mib = 1 << 20
        tail = 1 * mib + 700 * 3000 + (10 << 10) * 256 - 5 * mib
        assert writes == [(i * mib, mib) for i in range(5)] + [(5 * mib, tail)]
        assert stats.write_rpcs == 12
        assert stats.extents_coalesced == 164
        assert stats.bytes_coalesced == 10622528
        total_rpcs = sum(ost.stats.requests for ost in cluster.osts)
        # ~5.5 MiB at 64K stripes over 2 OSTs → a few large RPCs per
        # client write, not one per append.
        assert total_rpcs == 18


class TestLsmOnSimulatedLustre:
    def test_db_full_cycle_on_lustre(self):
        def main(env):
            options = Options(
                enable_wal=False,
                enable_compaction=False,
                enable_block_cache=False,
                write_buffer_size="256K",
            )
            db = DB.open("rank0/db", options, env=env)
            for i in range(64):
                db.put(f"ckpt/block{i:04d}".encode(), bytes(4096))
            db.flush()
            value = db.get(b"ckpt/block0042")
            db.close()
            return value, sim.now()

        (value, elapsed), cluster, _ = run_sim(main)
        assert value == bytes(4096)
        assert elapsed > 0
        assert cluster.total_bytes_written() > 64 * 4096  # data + table overhead

    def test_db_reopen_on_lustre(self):
        def main(env):
            options = Options(enable_wal=False, write_buffer_size="64K")
            db = DB.open("db", options, env=env)
            db.put(b"k", b"v" * 1000)
            db.close()
            db2 = DB.open("db", options, env=env)
            value = db2.get(b"k")
            db2.close()
            return value

        value, _, _ = run_sim(main)
        assert value == b"v" * 1000

    def test_flush_writes_sequentially_to_osts(self):
        """An LSM flush must be (almost) all-sequential disk traffic —
        the paper's core mechanism."""

        def main(env):
            options = Options(
                enable_wal=False,
                enable_compaction=False,
                write_buffer_size="8M",
                block_size="64K",
                checksum="none",
            )
            db = DB.open("db", options, env=env)
            for i in range(256):
                db.put(f"key{i:05d}".encode(), bytes(65536))  # 16 MiB total
            db.close()
            return None

        _, cluster, _ = run_sim(
            main, config=small_test_cluster(rpc_size="4M", num_osts=4)
        )
        bytes_written = cluster.total_bytes_written()
        requests = sum(ost.stats.requests for ost in cluster.osts)
        # The flush must reach the disks as few, large extents (the LSM
        # write path's whole point) — not per-entry small writes.
        assert bytes_written / requests >= 1 << 20


#: torn lengths the copying page-cache buffer produced for seeds 0-5
TORN_LENGTHS = [21610, 15571, 21402, 20984, 19623, 18733]
#: un-synced puts the seed-3 crash keeps under the copying buffer
DB_SURVIVORS = 21


class TestZeroCopyAliasing:
    """Stored bytes never alias a buffer the caller may still mutate."""

    def test_client_write_copies_mutable_buffers(self):
        def main(env):
            client = env.client
            file = client.create("f", store_data=True)
            scratch = bytearray(b"a" * 8)
            client.write(file, 0, scratch)
            scratch[:] = b"b" * 8
            view_owner = bytearray(b"c" * 8)
            client.write(file, 8, memoryview(view_owner))
            view_owner[:] = b"d" * 8
            client.fsync(file)
            return client.read(file, 0, 16)

        data, _, _ = run_sim(main)
        assert data == b"a" * 8 + b"c" * 8

    def test_append_copies_mutable_buffers(self):
        def main(env):
            scratch = bytearray(b"1" * 100)
            view_owner = bytearray(b"2" * 100)
            with env.new_writable_file("f") as fh:
                fh.append(scratch)
                fh.append(memoryview(view_owner))
                scratch[:] = b"x" * 100  # still queued in the page cache
                view_owner[:] = b"y" * 100
                fh.sync()
                scratch[:] = b"z" * 100  # already at the OSTs
            with env.new_random_access_file("f") as fh:
                return fh.read(0, 200)

        data, _, _ = run_sim(main, write_buffer="64K")
        assert data == b"1" * 100 + b"2" * 100

    def test_zlib_table_survives_builder_reset(self):
        """Compressed blocks reach the env as a ``finish()`` view that the
        builder reuses after ``reset``; the stored table must not change."""
        options = Options(compression=CompressionType.ZLIB, block_size=1024)
        # A block holds two values; every other block is incompressible
        # and so reaches the env as the builder's raw view.
        items = [
            (
                f"key{i:04d}".encode(),
                random.Random(i).randbytes(700) if i // 2 % 2 else bytes(700),
            )
            for i in range(200)
        ]

        def main(env):
            dest = env.new_writable_file("t")
            builder = TableBuilder(options, dest)
            for key, value in items:
                builder.add(encode_internal_key(key, 1, ValueType.VALUE), value)
            size = builder.finish()
            dest.close()
            table = Table(options, env.new_random_access_file("t"))
            return size, [value for _, value in table]

        (size, values), _, _ = run_sim(main, write_buffer="4K")
        assert size < sum(len(value) for _, value in items)  # zeros shrank
        assert values == [value for _, value in items]

    @pytest.mark.parametrize("seed", range(6))
    def test_faulty_env_tears_unsynced_tail(self, seed):
        def main(env):
            faulty = FaultyEnv(env, seed=seed)
            with faulty.new_writable_file("log") as fh:
                fh.append(b"s" * 5000)
                fh.append_owned(bytearray(b"o" * 3000))
                fh.sync()
                fh.append(bytearray(b"u" * 7000))
                fh.append_owned(bytearray(b"w" * 9000))
            faulty.crash()
            with faulty.new_random_access_file("log") as fh:
                return fh.read(0, 1 << 20)

        data, _, _ = run_sim(main, write_buffer="4K")
        full = b"s" * 5000 + b"o" * 3000 + b"u" * 7000 + b"w" * 9000
        assert 8000 <= len(data) <= len(full)
        assert data == full[: len(data)]
        assert len(data) == TORN_LENGTHS[seed]

    def test_faulty_env_db_recovers_a_prefix(self):
        def main(env):
            faulty = FaultyEnv(env, seed=3)
            options = Options(write_buffer_size="64K")
            db = DB.open("db", options, env=faulty)
            db.put(b"durable", b"d" * 3000, WriteOptions(sync=True))
            for i in range(40):
                db.put(f"k{i:02d}".encode(), bytes([i]) * 3000)
            faulty.crash()
            recovered = DB.open("db", options, env=faulty)
            survivors = []
            for i in range(40):
                try:
                    survivors.append(recovered.get(f"k{i:02d}".encode()))
                except NotFoundError:
                    break
            durable = recovered.get(b"durable")
            recovered.close()
            return durable, survivors

        (durable, survivors), _, _ = run_sim(main)
        assert durable == b"d" * 3000
        assert survivors == [bytes([i]) * 3000 for i in range(len(survivors))]
        assert len(survivors) == DB_SURVIVORS
