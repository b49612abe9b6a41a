"""The Local Store (Table 1): the layer that encapsulates the LSM engine.

Implements the exact method set of the paper's Table 1 —
``startBatch/stopBatch/get/put/append/del/writeBarrier`` — and owns
write aggregation (§3.1.2).  Every ``put``/``append``/``del`` joins one
open ``WriteBatch`` (triggering no disk activity); the batch is applied
as a single engine write when it reaches ``write_buffer_size``, on a
sync write, before any read, and at ``stopBatch``/``writeBarrier``/close.
Each operation is sealed as its own charge segment, so modeled CPU — and
therefore simulated time — is billed exactly as for per-op writes.

The two backends differ only in the engine's WAL:

- **RocksDB mode** (default): the WAL is disabled at the engine and the
  write barrier flushes the memtable;
- **LevelDB mode**: the engine's WAL cannot be disabled, so each applied
  batch is one log record.

Async vs. sync writes (§3.1.1): in async mode memtable flushes are handed
to a background executor (one flush worker, §3.1.2) and ``writeBarrier``
drains it; in sync mode each flush completes inline.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.errors import ClosedError, InvalidArgumentError
from repro.io import BARRIER_CLASSES
from repro.lsm.batch import WriteBatch
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.executors import Executor, SyncExecutor, ThreadExecutor
from repro.lsm.options import WriteOptions
from repro.core.options import Backend, LsmioOptions
from repro.trace import runtime as _trace


def _default_executor(options: LsmioOptions) -> Executor:
    """Pick the flush executor for the ambient world.

    Sync mode → inline.  Async mode → a sim background process when
    running under the discrete-event engine, else one real worker thread.
    """
    if options.sync_writes:
        return SyncExecutor()
    try:
        from repro import sim
        from repro.sim.executor import SimExecutor

        return SimExecutor(sim.current_engine())
    except Exception:
        return ThreadExecutor()


class LsmioStore:
    """One node-local LSM-backed store."""

    def __init__(
        self,
        path: str,
        options: Optional[LsmioOptions] = None,
        env: Optional[Env] = None,
        executor: Optional[Executor] = None,
    ):
        self.options = options or LsmioOptions()
        self._executor = executor or _default_executor(self.options)
        self._owns_executor = executor is None
        engine_options = self.options.to_engine_options()
        if self.options.backend is Backend.LEVELDB:
            # LevelDB cannot run WAL-less: the engine keeps its log, one
            # record per applied batch (§3.1.2).
            engine_options.enable_wal = True
        self.db = DB.open(path, engine_options, env=env, executor=self._executor)
        #: the open aggregation batch (group commit at the store)
        self._batch = WriteBatch()
        #: operations absorbed into a preceding one by aggregation
        self.batches_merged = 0
        # Guards only the batch's mutation and detach, never held across
        # a simulated-time wait (see _apply).
        self._batch_lock = threading.Lock()
        from repro.sim.locks import AdaptiveRLock

        self._lock = AdaptiveRLock()
        self._closed = False

    # -- Table 1 API -------------------------------------------------------

    def start_batch(self) -> None:
        """Begin aggregation: a no-op, the store always aggregates."""
        self._check_open()

    def stop_batch(self) -> None:
        """End aggregation, applying buffered writes."""
        self._check_open()
        self._flush_batch()

    def get(self, key: bytes) -> bytes:
        """Point lookup.  Always executed synchronously (Table 1)."""
        self._flush_batch()
        with self._lock:
            self._check_open()
            return self.db.get(key)

    def put(self, key: bytes, value: bytes, sync: Optional[bool] = None) -> None:
        """Write (overwrite) one value; async unless configured/asked."""
        self._apply("put", key, value, sync)

    def append(self, key: bytes, value: bytes, sync: Optional[bool] = None) -> None:
        """Append to the existing value (merge operand)."""
        self._apply("merge", key, value, sync)

    def delete(self, key: bytes) -> None:
        """Delete one key."""
        self._apply("delete", key, b"", None)

    # Table 1 spells it ``del()``; Python reserves the name.
    del_ = delete

    def write_barrier(self, sync: bool = True) -> None:
        """Flush all buffered writes to disk; block until done (Table 1).

        Applies the open batch first — the paper calls the barrier
        implicitly at the end of a checkpoint file write (§3.1.1).

        The barrier waits only on the FOREGROUND+FLUSH service classes:
        durability needs the memtable flushes, not the compaction debt,
        so a trailing compaction keeps running behind the barrier.
        """
        self._flush_batch()
        with self._lock:
            self._check_open()
            self.db.flush(wait=False)
        if sync:
            self._executor.drain(priorities=BARRIER_CLASSES)

    # -- extras used by the manager/FStream ---------------------------------

    def multi_get(self, keys) -> dict:
        """Batch point lookups in sorted order (§5.1 batch-read path)."""
        self._flush_batch()
        with self._lock:
            self._check_open()
            return self.db.multi_get(keys)

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan (the batch-read path of §5.1's future work)."""
        self._flush_batch()
        with self._lock:
            self._check_open()
        return self.db.iterate(start, stop)

    def _apply(
        self, kind: str, key: bytes, value: bytes, sync: Optional[bool]
    ) -> None:
        """Queue one write into the open batch; flush when required.

        Accumulation does not take the store lock: in collective mode
        the aggregator rank and its service process share this store,
        and a write must not wait behind the other's engine write (see
        :meth:`_flush_batch`).  The short batch lock keeps real threads
        from appending to a batch another thread is applying.
        """
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError(f"keys must be bytes, got {type(key)}")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise InvalidArgumentError(
                f"values must be bytes-like, got {type(value)}"
            )
        self._check_open()
        with self._batch_lock:
            batch = self._batch
            if kind == "delete":
                batch.delete(key)
            else:
                getattr(batch, kind)(key, value)
            batch.add_charge_boundary()
            full = batch.approximate_size >= self.options.write_buffer_size
        if sync is None:
            sync = self.options.sync_writes
        if sync or full:
            self._flush_batch(sync)

    def _flush_batch(self, sync: bool = False) -> None:
        """Apply the open batch as one engine write (group commit).

        The batch is detached before the lock is taken, so writes that
        arrive while this one waits for the engine open a fresh batch.
        A sync flush then drains the barrier classes.
        """
        with self._batch_lock:
            batch = self._batch
            if not len(batch):
                return
            self._batch = WriteBatch()
            self.batches_merged += len(batch) - 1
        with _trace.span(
            "core", "flush_pending", ops=len(batch),
            nbytes=batch.payload_bytes, sync=sync,
        ):
            with self._lock:
                self._check_open()
                self.db.write(batch, WriteOptions())
            if sync:
                self._executor.drain(priorities=BARRIER_CLASSES)

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Barrier, then release the engine."""
        with self._lock:
            if self._closed:
                return
        self.write_barrier(sync=True)
        self.db.close()
        if self._owns_executor:
            self._executor.close()
        with self._lock:
            self._closed = True

    def __enter__(self) -> "LsmioStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
