"""The primary's side of replication: followers tailing the write-ahead log.

``wal_tail`` is the whole handshake (:meth:`WalTail._do_wal_tail`): in one
hold of the durable store's lock it either replays the committed batches past
the follower's cursor as push frames or puts every shard on the response,
then subscribes the connection to the store, so the follower sees one
gapless sequence.  Every later commit and eviction reaches it as a push frame
posted to the worker pool's ordered outbox: the loop writes it right after
the committing request's own answer, so an ingest is acknowledged before its
``wal`` push leaves, and pushes leave in commit order.  Every byte a
follower applies is a log frame of
:mod:`repro.storage.wal`: a ``wal`` push carries a commit's ``RSG1`` segment
frames (a live push the very bytes the commit appended, a replayed one the
frames re-encoded from their packed columns), and a snapshot payload one
base ``RSN1`` frame per shard; nothing here encodes a record.  A follower's
name and acknowledged cursor (``wal_ack``) live on its connection —
``connection.wal_token``, ``.follower``, ``.acked`` — and nowhere else;
:meth:`WalTail.followers` builds the ``replica_status`` view from the live
tailing connections.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..storage import EvictionEvent, IngestEvent
from ..storage.durable import DurableRecordStore
from . import protocol
from .metrics import ServiceMetrics
from .pool import WorkerPool
from .protocol import ProtocolError


class WalTail:
    """The ``wal_tail`` / ``wal_ack`` ops of one query service.

    ``durable`` is the served table when it is durable, else ``None``;
    ``connections`` is the service's live connection set, read on the loop.
    """

    def __init__(
        self,
        durable: Optional[DurableRecordStore],
        pool: WorkerPool,
        connections: Set,
        metrics: ServiceMetrics,
    ):
        self._durable = durable
        self._pool = pool
        self._connections = connections
        self._metrics = metrics

    # ------------------------------------------------------------------
    # Coroutine ops (event loop, between their pool calls)
    # ------------------------------------------------------------------
    async def wal_tail(self, connection, frame: dict):
        result, payload = await self._pool.run_blocking(
            self._do_wal_tail, connection, frame
        )
        # Back on the loop, as for subscribe: a follower that vanished while
        # the worker attached it must not leave a listener behind.
        if connection not in self._connections:
            await self._pool.run_blocking(self.release_wal_tail, connection)
            raise ProtocolError("bad_request", "connection closed during wal_tail")
        connection.follower = result["follower"]
        connection.acked = result["cursor"]
        return result if payload is None else (result, payload)

    async def wal_ack(self, connection, frame: dict) -> dict:
        """Advance this follower's acknowledged cursor (never backwards)."""
        cursor = protocol.field(frame, "cursor", int)
        if connection.follower is None:
            raise ProtocolError("bad_request", "this connection is not tailing the WAL")
        connection.acked = max(connection.acked, cursor)
        return {"acked": cursor}

    def followers(self, last_seq: int) -> Dict[str, dict]:
        """The lag of each live tailing connection (event loop: it owns
        them); two tails under one name report the one further behind."""
        acked: Dict[str, int] = {}
        for connection in self._connections:
            if connection.follower is not None:
                held = acked.get(connection.follower, connection.acked)
                acked[connection.follower] = min(held, connection.acked)
        return {
            name: {"cursor": cursor, "frames_behind": max(0, last_seq - cursor)}
            for name, cursor in sorted(acked.items())
        }

    # ------------------------------------------------------------------
    # Worker-pool threads
    # ------------------------------------------------------------------
    def durable_store(self) -> DurableRecordStore:
        if self._durable is None:
            raise ProtocolError(
                "bad_request",
                "the table is not durable: checkpoints and WAL shipping need "
                "a write-ahead-logged table (DurableRecordStore)",
            )
        return self._durable

    def _do_wal_tail(self, connection, frame: dict):
        """The replication handshake — catch up, then tail — in one hold of
        the store lock: replay the committed batches past the follower's
        ``cursor`` as push frames, or put every shard (a snapshot frame with
        its version) on the response and move the cursor to the last commit
        when replay cannot bring the follower to this table — the WAL no
        longer holds those batches, the cursor is past the last commit, or
        the follower's ``uid`` (the identity its table holds; absent on a
        first attach) is another table's; then subscribe the connection
        (replacing a tail it already had).  No commit falls in between and
        the pool's outbox keeps post order, so the follower sees one gapless
        sequence.  Returns ``(result, payload or None)``."""
        cursor = protocol.field(frame, "cursor", int, 0)
        store = self.durable_store()
        follower = str(frame.get("follower") or f"follower-{connection.conn_id}")
        with store.lock:
            watermark = store.eviction_watermark
            result: Dict[str, object] = {
                "follower": follower,
                "last_seq": store.last_committed_seq,
                "uid": store.uid,
                "shard_seconds": store.shard_seconds,
                "watermark": watermark if watermark > float("-inf") else None,
            }
            uid = frame.get("uid")
            if (
                store.can_replay_from(cursor)
                and cursor <= store.last_committed_seq
                and uid in (None, store.uid)
            ):
                batches = store.committed_frames_after(cursor)
                for seq, frames in batches:
                    push = protocol.push_wal_frame(seq, frames)
                    self._pool.post(self._deliver_wal_push, connection, push)
                payload = None
                result.update(mode="replay", caught_up=len(batches))
            else:
                payload = store.snapshot_frames()
                cursor = store.last_committed_seq
                result.update(mode="snapshot", shards=store.shard_count)
            result["cursor"] = cursor
            self.release_wal_tail(connection)  # a re-handshake replaces its tail
            connection.wal_token = store.subscribe(
                lambda event: self._push_wal_event(connection, event)
            )
        return result, payload

    def release_wal_tail(self, connection) -> None:
        """Detach a departed follower (worker thread; takes the store lock)."""
        store = self.durable_store()
        with store.lock:
            if connection.wal_token is not None:
                store.unsubscribe(connection.wal_token)
                connection.wal_token = None

    # ------------------------------------------------------------------
    # Push (store listener on the mutating thread, posted to the loop)
    # ------------------------------------------------------------------
    def _push_wal_event(self, connection, event: object) -> None:
        """Store-listener hook: runs on the mutating thread, under the store
        lock, in commit order — post each event's frame to the loop."""
        if isinstance(event, IngestEvent):
            frame = protocol.push_wal_frame(event.seq, event.frames)
        elif isinstance(event, EvictionEvent):
            frame = protocol.push_wal_evict_frame(event.watermark)
        else:  # pragma: no cover - future event kinds are skipped, not fatal
            return
        self._pool.post(self._deliver_wal_push, connection, frame)

    def _deliver_wal_push(self, connection, frame: dict) -> None:
        if connection not in self._connections or connection.closing:
            return
        connection.send_frame(frame)
        self._metrics.note_wal_push()
