"""WAL-shipping read replica: catch up, tail, and serve reads.

A :class:`ReadReplica` is a follower process for one primary
:class:`~repro.service.server.QueryService` over a durable table.  Its life
cycle is **catch-up-then-tail**, and attaching is one request:

1. **Handshake** (``wal_tail``): present the last applied commit sequence.
   If the primary's WAL still holds every committed frame past it, the
   answer is *replay* and those batches follow as binary ``RPK1`` push
   frames.  If compaction or eviction dropped needed frames, the answer is
   *snapshot* and carries the whole table as packed shards (versions
   included); the replica adopts it wholesale and its cursor jumps to the
   primary's last committed sequence.  The primary decides and subscribes
   the tail in one hold of its store lock: there is nothing to retry.
2. **Tail**: every later commit (and eviction) is pushed live — one
   gapless, strictly ordered sequence, queued until the apply loop runs.
3. **Apply**: each shipped batch goes through the replica table's ordinary
   :meth:`~repro.data.iupt.IUPT.ingest_batch` (and eviction pushes through
   ``evict_before``), so shard versions, engine caches and standing
   subscriptions behave exactly as on the primary: the same commit prefix
   yields a bit-identical table, including
   :meth:`~repro.data.iupt.IUPT.data_key_for` version tokens (the replica
   adopts the primary's store uid during the handshake).

The replica fronts its table with its own **read-only**
:class:`~repro.service.server.QueryService` (``role="replica"``): clients
query and subscribe against it exactly as against the primary; mutations are
rejected with ``bad_request``.  ``replica_status`` reports the applied
sequence, which is the router's stale-read bound.

A dropped primary connection is survived: the tailer re-dials with the
client's bounded backoff policy and redoes the handshake from its current
cursor.  Batches already applied are deduplicated by sequence number, so an
overlap between a pre-disconnect tail and a post-reconnect catch-up cannot
double-ingest.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from ..codec.packed import PackedRecordBatch
from ..data.iupt import IUPT
from ..engine.runtime import QueryEngine
from . import protocol
from .client import ReconnectPolicy, ServiceClient, ServiceError
from .server import QueryService


#: Send ``wal_ack`` after this many applied batches (acks feed the primary's
#: per-follower lag in ``replica_status``; they are observability, not
#: correctness — nothing on the primary waits for one), so a converged
#: replica can read up to ``ACK_EVERY - 1`` frames behind.
ACK_EVERY = 8


class ReplicaError(RuntimeError):
    """The replica could not reach or follow its primary."""


class ReadReplica:
    """One read replica: a tailer plus a read-only query service.

    Parameters
    ----------
    engine:
        The query engine over the *same indoor model* as the primary (graph
        and matrix are static scenario inputs, not replicated state).
    primary_host, primary_port:
        The primary query service to follow.
    name:
        The follower name this replica tails under (the key of its lag entry
        in the primary's ``replica_status``: observability only).
    """

    def __init__(
        self,
        engine: QueryEngine,
        primary_host: str,
        primary_port: int,
        name: str = "replica",
        host: str = "127.0.0.1",
        port: int = 0,
        reconnect: Optional[ReconnectPolicy] = None,
        query_workers: int = 4,
    ):
        self.engine = engine
        self.name = name
        self._primary = (primary_host, primary_port)
        self._host = host
        self._port = port
        self._reconnect = reconnect or ReconnectPolicy()
        self._query_workers = query_workers
        self._client: Optional[ServiceClient] = None
        self.iupt: Optional[IUPT] = None
        self.service: Optional[QueryService] = None
        self.applied_seq = 0
        self.applied_batches = 0
        self.applied_records = 0
        self.applied_evictions = 0
        self.snapshot_catchups = 0
        self.resubscribes = 0
        self._unacked = 0
        self._stopped = False
        self._failed: Optional[BaseException] = None
        self._run_task: Optional[asyncio.Task] = None
        self._caught_up = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Connect, catch up, start tailing, and serve reads.

        Returns the replica service's bound ``(host, port)``.  On return the
        initial catch-up has been *requested*; :meth:`wait_applied` blocks
        until a given primary sequence is actually applied.
        """
        if self._run_task is not None:
            raise RuntimeError("replica already started")
        self._client = await ServiceClient.connect(
            *self._primary, reconnect=self._reconnect
        )
        handshake = await self._handshake()
        shard_seconds = float(handshake["shard_seconds"])
        self.iupt = IUPT.sharded(shard_seconds=shard_seconds)
        # Version tokens embed the store uid; adopting the primary's makes
        # the replica's tokens compare equal for identical shard states.
        self.iupt.store.restore_identity(handshake["uid"])
        self._adopt_snapshot(handshake)
        self.service = QueryService(
            self.engine,
            self.iupt,
            host=self._host,
            port=self._port,
            role="replica",
            query_workers=self._query_workers,
        )
        self.service.replication_extra = self._status_extra
        address = await self.service.start()
        self._run_task = asyncio.ensure_future(self._run())
        return address

    async def stop(self) -> None:
        self._stopped = True
        if self._run_task is not None:
            self._run_task.cancel()
            try:
                await self._run_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if self._client is not None:
            await self._client.close()
        if self.service is not None:
            await self.service.stop()

    @property
    def healthy(self) -> bool:
        return self._failed is None and not self._stopped

    # ------------------------------------------------------------------
    # Handshake and catch-up
    # ------------------------------------------------------------------
    async def _handshake(self) -> dict:
        """The one request that (re)attaches the tail at :attr:`applied_seq`."""
        try:
            return await self._client.wal_tail(self.applied_seq, follower=self.name)
        except ServiceError as error:
            raise ReplicaError(
                f"primary rejected the WAL handshake: {error}"
            ) from error

    def _adopt_snapshot(self, handshake: dict) -> None:
        """Apply a ``snapshot``-mode handshake (no-op in ``replay`` mode).

        :meth:`start` calls it before the replica service exists; a
        re-attach runs it on the service's worker pool.
        """
        if handshake.get("mode") != "snapshot":
            return
        payload = handshake.get(protocol.BIN_PAYLOAD)
        if payload is None:
            raise ReplicaError("snapshot handshake carried no binary payload")
        shards = [
            (key, version, PackedRecordBatch.decode(blob))
            for key, version, blob in protocol.decode_shard_sections(payload)
        ]
        watermark = handshake.get("watermark")
        self.iupt.store.reset_to_packed_shards(
            shards,
            watermark=float("-inf") if watermark is None else float(watermark),
        )
        self.applied_seq = int(handshake["cursor"])
        self.snapshot_catchups += 1
        if self.service is not None and self.service.continuous is not None:
            # A reset fires no store events: standing subscriptions must be
            # recomputed against the adopted table explicitly.
            self.resubscribes += self.service.continuous.resync()

    # ------------------------------------------------------------------
    # The apply loop
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        """Consume WAL pushes forever; survive primary reconnects.

        Every call that takes the store lock (an ingest, an eviction, a
        snapshot adoption and the standing-query refreshes each one fires)
        runs on the replica service's worker pool, never on the loop that
        serves the replica's connections.
        """
        try:
            while not self._stopped:
                frame = await self._client.wal_frames.get()
                push = frame.get("push")
                if push == "wal":
                    await self._apply_commit(frame)
                elif push == "wal_evict":
                    watermark = float(frame["watermark"])
                    await self.service.pool.run_blocking(self.iupt.evict_before, watermark)
                    self.applied_evictions += 1
                elif push == "wal_closed":
                    await self._reattach()
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - surfaced via status
            self._failed = error

    async def _apply_commit(self, frame: dict) -> None:
        seq = int(frame["seq"])
        if seq <= self.applied_seq:
            # Overlap between a pre-reconnect tail and a post-reconnect
            # catch-up: the batch is already in the table.
            return
        records = protocol.records_from_payload(protocol.frame_payload(frame))
        await self.service.pool.run_blocking(self.iupt.ingest_batch, records)
        self.applied_seq = seq
        self.applied_batches += 1
        self.applied_records += len(records)
        self._unacked += 1
        self._caught_up.set()
        if self._unacked >= ACK_EVERY:
            self._unacked = 0
            try:
                await self._client.wal_ack(seq)
            except (ServiceError, ConnectionError):
                pass  # acks are advisory; the tail itself is the contract

    async def _reattach(self) -> None:
        """The tail connection died: re-dial and redo the handshake.

        The client's reconnect policy bounds the retries; the handshake
        restarts from the current applied sequence, so at worst the primary
        re-sends a suffix we deduplicate by sequence number.
        """
        if self._stopped:
            return
        try:
            handshake = await self._handshake()
        except ConnectionError:
            # The policy's retries inside request() are exhausted.
            raise ReplicaError(
                f"lost the primary at {self._primary[0]}:{self._primary[1]} "
                f"and reconnection retries are exhausted"
            ) from None
        await self.service.pool.run_blocking(self._adopt_snapshot, handshake)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def _status_extra(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "applied_seq": self.applied_seq,
            "applied_batches": self.applied_batches,
            "applied_records": self.applied_records,
            "applied_evictions": self.applied_evictions,
            "snapshot_catchups": self.snapshot_catchups,
            "resubscribes": self.resubscribes,
            "healthy": self.healthy,
            "primary": {"host": self._primary[0], "port": self._primary[1]},
        }

    async def wait_applied(self, seq: int, timeout: float = 10.0) -> None:
        """Block until the replica has applied primary sequence ``seq``."""
        deadline = asyncio.get_running_loop().time() + timeout
        while self.applied_seq < seq:
            if self._failed is not None:
                raise ReplicaError(
                    f"replica {self.name!r} failed while catching up"
                ) from self._failed
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"replica {self.name!r} stuck at seq {self.applied_seq}, "
                    f"waiting for {seq}"
                )
            self._caught_up.clear()
            try:
                await asyncio.wait_for(
                    self._caught_up.wait(), min(remaining, 0.25)
                )
            except asyncio.TimeoutError:
                continue
