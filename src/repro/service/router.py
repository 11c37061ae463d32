"""Partition-aware router: one front door over a primary and its replicas.

The :class:`PartitionRouter` speaks the same NDJSON/binary wire protocol as
:class:`~repro.service.server.QueryService` — by construction: both are
:class:`~repro.service.stream.FrameServer` subclasses, so one reader frames
(and refuses) every line for both — and existing clients point at it
unchanged.  Behind it:

* **Writes** (``ingest_batch`` / ``evict_before`` / ``checkpoint``) fan in
  to the primary.  The commit sequence in each receipt becomes the router's
  **read-your-writes bound**: no read is served from a replica until that
  replica has applied at least the last routed write.
* **Reads** (``top_k`` / ``flow`` / ``flows`` / ``batch`` / ``subscribe``)
  are routed across the replicas by **time-partition affinity**: the query
  window's start shard (``floor(start / shard_seconds)``) picks the replica
  modulo the pool size.  Queries over the same time slice land on the same
  replica, so each replica's presence cache specialises on its slice of the
  keyspace — the pool's effective cache is the *sum* of the per-replica
  caches, not N copies of the same one.
* **Staleness** is bounded, not ignored: before serving a read, the router
  compares the target replica's applied sequence (cached, refreshed via
  ``replica_status``) against the read-your-writes bound, waiting briefly
  for the tail to catch up; if a replica cannot catch up inside
  ``freshness_timeout`` (or is down), the read falls back to the primary —
  correctness degrades to primary load, never to stale answers.
* **Subscriptions** are forwarded to the partition-owning replica with an
  id translation (router ids are globally unique; backend ids are only
  unique per backend) and pushes are relayed back over the subscribing
  client's connection.

Routed responses are **bit-identical** to single-server responses: the
router never rewrites result payloads, replicas apply the same commit
prefix through the same ingest path, and reads wait out any lag — which is
exactly what the replication benchmark asserts.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from . import protocol
from .client import ReconnectPolicy, ServiceClient, ServiceError
from .protocol import ProtocolError
from .stream import Connection, FrameServer

#: Operations the router forwards to the primary (fan-in).
WRITE_OPS = frozenset(protocol.MUTATING_OPS)
#: Operations routed across replicas by partition affinity.
PARTITIONED_READ_OPS = frozenset(("top_k", "flow", "flows", "batch"))


class PartitionRouter(FrameServer):
    """An asyncio front-end fanning one write stream and many read streams.

    Parameters
    ----------
    primary:
        ``(host, port)`` of the primary query service.
    replicas:
        ``(host, port)`` of each read replica (may be empty: every op then
        goes to the primary and the router is a transparent proxy).
    freshness_timeout:
        How long a partitioned read will wait for its replica to apply the
        read-your-writes bound before falling back to the primary.
    """

    def __init__(
        self,
        primary: Tuple[str, int],
        replicas: List[Tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        freshness_timeout: float = 5.0,
        reconnect: Optional[ReconnectPolicy] = None,
    ):
        super().__init__(host, port)
        self._primary_addr = primary
        self._replica_addrs = list(replicas)
        self.freshness_timeout = freshness_timeout
        self._reconnect = reconnect or ReconnectPolicy()
        self._primary: Optional[ServiceClient] = None
        self._replicas: List[ServiceClient] = []
        self.shard_seconds: Optional[float] = None
        #: The read-your-writes bound: the last commit seq routed through us.
        self.last_write_seq = 0
        #: Last known applied seq per replica (refreshed on demand).
        self._applied: List[int] = []
        self._stopped = False
        #: Router subscription id -> (replica index, backend sub id, conn);
        #: here and below a replica index of ``None`` is the primary.
        self._subscriptions: Dict[int, Tuple[Optional[int], int, Connection]] = {}
        #: (replica index, backend sub id) -> router subscription id.
        self._sub_by_backend: Dict[Tuple[Optional[int], int], int] = {}
        self._next_sub_id = 1
        self.stats: Dict[str, object] = {
            "writes": 0,
            "reads": 0,
            "reads_by_backend": [],
            "primary_fallbacks": 0,
            "stale_waits": 0,
            "pushes_relayed": 0,
            "subscriptions": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("router already started")
        self._primary = await ServiceClient.connect(
            *self._primary_addr, reconnect=self._reconnect
        )
        self._primary.on_push = lambda frame: self._relay_push(None, frame)
        status = await self._primary.replica_status()
        self.shard_seconds = float(status.get("shard_seconds") or 1.0)
        self.last_write_seq = int(status.get("last_seq") or 0)
        for index, address in enumerate(self._replica_addrs):
            client = await ServiceClient.connect(
                *address, reconnect=self._reconnect
            )
            client.on_push = lambda frame, i=index: self._relay_push(i, frame)
            self._replicas.append(client)
            self._applied.append(0)
        self.stats["reads_by_backend"] = [0] * (len(self._replicas) + 1)
        return await self._listen()

    async def stop(self) -> None:
        if self._stopped or self._server is None:
            return
        self._stopped = True
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._request_tasks):
            task.cancel()
        for connection in list(self._connections):
            self._connections.discard(connection)
            await connection.flush_and_close()
        for task in list(self._conn_tasks):
            task.cancel()
        await self._primary.close()
        for client in self._replicas:
            await client.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _release_connection(self, connection: Connection) -> None:
        owned = [
            router_id
            for router_id, (_index, _backend_id, owner) in self._subscriptions.items()
            if owner is connection
        ]
        for router_id in owned:
            try:
                await self._drop_subscription(router_id)
            except (ServiceError, ConnectionError):
                pass

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def _serve_request(self, connection: Connection, frame: dict) -> None:
        # Every routed op waits on a backend, so every request is a coroutine.
        self._spawn(self._answer(connection, frame))

    async def _answer(self, connection: Connection, frame: dict) -> None:
        request_id = frame.get("id")
        try:
            op = protocol.request_op(frame)
            result = await self._route(connection, op, frame)
            response = protocol.response_frame(request_id, result)
        except ProtocolError as error:
            response = protocol.error_frame(request_id, error.kind, str(error))
        except ServiceError as error:
            response = protocol.error_frame(
                request_id, error.kind, error.message, **error.details
            )
        except ConnectionError as error:
            response = protocol.error_frame(
                request_id, "unavailable", f"backend unreachable: {error}"
            )
        except Exception as error:  # noqa: BLE001 - the router must not die
            response = protocol.error_frame(request_id, "internal", str(error))
        connection.send_frame(response)

    def _forward_fields(self, frame: dict) -> dict:
        """The request fields to re-issue (correlation id and op stripped)."""
        return {
            key: value
            for key, value in frame.items()
            if key not in ("id", "op", protocol.BIN_LENGTH)
        }

    async def _route(self, connection: Connection, op: str, frame: dict):
        if op in WRITE_OPS:
            return await self._route_write(op, frame)
        if op in PARTITIONED_READ_OPS:
            return await self._route_read(op, frame)
        if op == "subscribe":
            return await self._route_subscribe(connection, frame)
        if op == "unsubscribe":
            return await self._drop_subscription(
                protocol.field(frame, "subscription", int)
            )
        if op == "ping":
            return {"pong": True, "role": "router"}
        if op == "stats" or op == "replica_status":
            return await self._router_status()
        raise ProtocolError(
            "bad_request", f"the router does not serve op {op!r}"
        )

    async def _route_write(self, op: str, frame: dict):
        result = await self._primary.request(op, **self._forward_fields(frame))
        self.stats["writes"] += 1
        if isinstance(result, dict) and "seq" in result:
            self.last_write_seq = max(self.last_write_seq, int(result["seq"]))
        return result

    # ------------------------------------------------------------------
    # Partitioned reads
    # ------------------------------------------------------------------
    def _partition_for(self, frame: dict) -> Optional[int]:
        """The replica index owning this query's time partition.

        ``None`` when there are no replicas (or no usable window): the
        primary serves it.
        """
        if not self._replicas:
            return None
        start = frame.get("start")
        if start is None:
            queries = frame.get("queries")
            if isinstance(queries, list) and queries:
                first = queries[0]
                if isinstance(first, dict):
                    start = first.get("start")
        try:
            start = float(start)
        except (TypeError, ValueError):
            return None
        shard = int(start // float(self.shard_seconds))
        return shard % len(self._replicas)

    def _backend(self, index: Optional[int]) -> ServiceClient:
        return self._primary if index is None else self._replicas[index]

    async def _route_read(self, op: str, frame: dict):
        index = self._partition_for(frame)
        if index is not None and not await self._ensure_fresh(index):
            self.stats["primary_fallbacks"] += 1
            index = None
        fields = self._forward_fields(frame)
        try:
            result = await self._backend(index).request(op, **fields)
        except (ServiceError, ConnectionError):
            if index is None:
                raise
            # A replica mid-restart (or freshly dead): the primary still
            # holds the full table — degrade to primary load, not to errors.
            self.stats["primary_fallbacks"] += 1
            index = None
            result = await self._primary.request(op, **fields)
        self.stats["reads"] += 1
        self.stats["reads_by_backend"][
            0 if index is None else index + 1
        ] += 1
        return result

    async def _ensure_fresh(self, index: int) -> bool:
        """Wait (bounded) until replica ``index`` has applied every write
        routed through us; ``False`` sends the read to the primary."""
        target = self.last_write_seq
        if self._applied[index] >= target:
            return True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.freshness_timeout
        waited = False
        while True:
            try:
                status = await self._replicas[index].replica_status()
            except (ServiceError, ConnectionError):
                return False
            applied = int(status.get("applied_seq") or 0)
            self._applied[index] = max(self._applied[index], applied)
            # The bound may have advanced while we polled; honour the
            # freshest one so a fallback decision is never optimistic.
            target = self.last_write_seq
            if self._applied[index] >= target:
                if waited:
                    self.stats["stale_waits"] += 1
                return True
            if loop.time() >= deadline:
                return False
            waited = True
            await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # Subscriptions (forwarded with id translation, pushes relayed)
    # ------------------------------------------------------------------
    async def _route_subscribe(self, connection: Connection, frame: dict):
        if "resume" in frame:
            raise ProtocolError(
                "bad_request",
                "resume is not routable: re-subscribe through the router",
            )
        index = self._partition_for(frame)
        if index is not None and not await self._ensure_fresh(index):
            self.stats["primary_fallbacks"] += 1
            index = None
        result = await self._backend(index).request(
            "subscribe", **self._forward_fields(frame)
        )
        backend_id = int(result["subscription"])
        router_id = self._next_sub_id
        self._next_sub_id += 1
        self._subscriptions[router_id] = (index, backend_id, connection)
        self._sub_by_backend[(index, backend_id)] = router_id
        self.stats["subscriptions"] += 1
        translated = dict(result)
        translated["subscription"] = router_id
        return translated

    async def _drop_subscription(self, router_id: int) -> dict:
        """Forget one routed subscription and unsubscribe it at its backend."""
        entry = self._subscriptions.pop(router_id, None)
        if entry is None:
            return {"unsubscribed": False}
        index, backend_id, _owner = entry
        self._sub_by_backend.pop((index, backend_id), None)
        return await self._backend(index).request(
            "unsubscribe", subscription=backend_id
        )

    def _relay_push(self, index: Optional[int], frame: dict) -> None:
        """Relay one backend push to the router client owning the
        subscription (runs on the event loop via the client read loop)."""
        backend_id = frame.get("subscription")
        if backend_id is None:
            return
        router_id = self._sub_by_backend.get((index, int(backend_id)))
        if router_id is None:
            return
        entry = self._subscriptions.get(router_id)
        if entry is None:
            return
        _index, _backend_id, connection = entry
        translated = dict(frame)
        translated["subscription"] = router_id
        connection.send_frame(translated)
        self.stats["pushes_relayed"] += 1

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    async def _router_status(self) -> dict:
        backends = []
        for index, client in enumerate([self._primary] + self._replicas):
            try:
                status = await client.request("replica_status")
            except (ServiceError, ConnectionError) as error:
                status = {"error": str(error)}
            backends.append(status)
        return {
            "role": "router",
            "shard_seconds": self.shard_seconds,
            "last_write_seq": self.last_write_seq,
            "replicas": len(self._replicas),
            "router": dict(self.stats),
            "backends": backends,
        }
