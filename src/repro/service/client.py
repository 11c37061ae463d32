"""The query service client: one asyncio connection to a service or router.

:class:`ServiceClient` is the client half of the wire protocol.  Its
connection is the same :class:`~repro.service.stream.Connection` the
listening roles accept — one decoder, fed as bytes arrive, hands it each
frame — and it adds, all from that one callback:

* request/response correlation (a fresh ``id`` and one future per in-flight
  request, so requests can be pipelined),
* push routing: ``update`` / ``evicted`` frames are delivered to the
  :class:`RemoteSubscription` they belong to — a subscriber receives
  refreshes triggered by *other* clients' ingestions without issuing any
  request,
* typed errors: a response with ``ok=false`` raises :class:`ServiceError`
  carrying the structured ``error.kind`` (``evicted_range``, ``overloaded``,
  ``bad_request``, …).

The convenience methods return the *wire* payloads (plain dicts/lists) —
deliberately, so callers can assert bit-identical equality against
:func:`repro.service.protocol.result_to_wire` of an in-process result, which
is exactly what the benchmark and the service tests do.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.records import PositioningRecord
from . import protocol
from .stream import Connection


class ServiceError(Exception):
    """A structured error response from the service."""

    def __init__(self, kind: str, message: str, details: Optional[dict] = None):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message
        self.details = details or {}

    @classmethod
    def from_error_payload(cls, payload: dict) -> "ServiceError":
        payload = dict(payload)
        kind = payload.pop("kind", "internal")
        message = payload.pop("message", "")
        return cls(kind, message, payload)


def unwrap(frame: dict):
    """The result payload of a response frame, or a :class:`ServiceError`.

    A binary response payload is merged into the result dict under
    :data:`protocol.BIN_PAYLOAD` (on a copy — the frame is untouched),
    so callers receive one self-contained value.
    """
    if frame.get("ok"):
        result = frame.get("result")
        if protocol.BIN_PAYLOAD in frame:
            result = dict(result) if isinstance(result, dict) else {"result": result}
            result[protocol.BIN_PAYLOAD] = frame[protocol.BIN_PAYLOAD]
        return result
    raise ServiceError.from_error_payload(frame.get("error") or {})


class RemoteSubscription:
    """A standing query held open over the wire.

    ``result`` tracks the latest known wire result (initial snapshot, then
    every push); ``updates`` buffers the raw push frames in arrival order.
    After an ``evicted`` push, :attr:`active` flips false and
    :attr:`eviction` carries the structured error payload.
    """

    def __init__(self, sub_id: int, kind: str, initial: object):
        self.sub_id = sub_id
        self.kind = kind
        self.result = initial
        self.updates: "asyncio.Queue[dict]" = asyncio.Queue()
        self.active = True
        self.eviction: Optional[dict] = None

    def _apply_push(self, frame: dict) -> None:
        if frame.get("push") == "update":
            self.result = frame.get("result")
        else:
            self.active = False
            self.eviction = frame.get("error")
        self.updates.put_nowait(frame)

    async def next_update(self, timeout: Optional[float] = None) -> dict:
        """Wait for the next push frame (update or eviction)."""
        if timeout is None:
            return await self.updates.get()
        return await asyncio.wait_for(self.updates.get(), timeout)


@dataclass(frozen=True)
class ReconnectPolicy:
    """Bounded reconnect-with-backoff for :meth:`ServiceClient.request`.

    On a :class:`ConnectionError`, the client re-dials up to ``max_retries``
    times, sleeping ``initial_backoff * multiplier**attempt`` (capped at
    ``max_backoff``) between attempts, then resends the request on the new
    connection.  Subscriptions and WAL tails do **not** survive a reconnect —
    they are live streams; callers re-subscribe / redo the WAL handshake.
    """

    max_retries: int = 3
    initial_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.initial_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        return min(self.initial_backoff * self.multiplier**attempt, self.max_backoff)


async def _dial(client: "ServiceClient", host: str, port: int) -> Connection:
    """A connection to ``host:port`` whose frames ``client`` receives."""
    _transport, connection = await asyncio.get_running_loop().create_connection(
        lambda: Connection(client), host, port
    )
    return connection


class ServiceClient:
    """One asyncio connection to a :class:`~repro.service.server.QueryService`."""

    def __init__(self, reconnect: Optional[ReconnectPolicy] = None):
        self._connection: Optional[Connection] = None
        self._ids = itertools.count(1)
        self._futures: Dict[object, asyncio.Future] = {}
        self._subscriptions: Dict[int, RemoteSubscription] = {}
        #: Pushes may outrun the subscribe response on a busy table; frames
        #: for a not-yet-materialised subscription buffer here.
        self._early_pushes: Dict[int, List[dict]] = {}
        self._closed = False
        #: WAL replication pushes (``push: wal`` / ``wal_evict``) land here
        #: in arrival order — the replica's apply loop consumes this queue.
        self.wal_frames: "asyncio.Queue[dict]" = asyncio.Queue()
        #: Optional hook receiving every push frame that matched no local
        #: subscription (the router uses it to relay pushes to its clients).
        self.on_push: Optional[Callable[[dict], None]] = None
        self._reconnect = reconnect
        self._endpoint: Optional[Tuple[str, int]] = None
        self.reconnects = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls, host: str, port: int, reconnect: Optional[ReconnectPolicy] = None
    ) -> "ServiceClient":
        client = cls(reconnect=reconnect)
        client._connection = await _dial(client, host, port)
        client._endpoint = (host, port)
        return client

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            await self._hang_up()

    async def _hang_up(self) -> None:
        """Close the transport; its pending requests fail."""
        await self._connection.flush_and_close()

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # What the connection delivers (on the event loop, as bytes arrive)
    # ------------------------------------------------------------------
    def _opened(self, connection: Connection) -> None:
        """A dialled connection is up (``_dial`` hands it over)."""

    def _receive(self, connection: Connection, frame: object) -> None:
        if type(frame) is not dict:
            if frame.fatal:  # the pending requests fail once it is gone
                connection.transport.close()
            return  # a garbled line is skipped, not answered
        if protocol.is_push_frame(frame):
            self._route_push(frame)
            return
        future = self._futures.pop(frame.get("id"), None)
        if future is not None and not future.done():
            future.set_result(frame)

    def _lost(self, connection: Connection) -> None:
        if connection is not self._connection:
            return  # a replaced connection: its requests failed with it
        broken = ConnectionError("connection to the query service closed")
        for future in self._futures.values():
            if not future.done():
                future.set_exception(broken)
        self._futures.clear()
        # Wake any WAL consumer blocked on the queue: the stream is
        # dead, and reconnecting is its decision to make.
        self.wal_frames.put_nowait(dict(protocol.WAL_CLOSED_FRAME))

    def _route_push(self, frame: dict) -> None:
        if protocol.is_wal_push_frame(frame):
            self.wal_frames.put_nowait(frame)
            return
        sub_id = frame.get("subscription")
        subscription = self._subscriptions.get(sub_id)
        if subscription is None:
            if self.on_push is not None:
                self.on_push(frame)
                return
            self._early_pushes.setdefault(sub_id, []).append(frame)
        else:
            subscription._apply_push(frame)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def request(self, op: str, **fields: object):
        """Issue one request and return its result payload.

        Raises :class:`ServiceError` on a structured error response and
        :class:`ConnectionError` if the connection dies while waiting.  With
        a :class:`ReconnectPolicy`, a connection failure instead re-dials
        (bounded retries, exponential backoff) and resends the request —
        safe for the read-only and idempotent operations the router issues;
        callers that must not double-apply a mutation should not set a
        policy on the connection carrying it.
        """
        return unwrap(await self.exchange(op, fields))

    async def exchange(self, op: str, fields: Dict[str, object]) -> dict:
        """:meth:`request`'s response frame itself (an error frame included)."""
        attempt = 0
        while True:
            try:
                if attempt:  # in the try: a refused dial spends one attempt, not all
                    await self._redial()
                reply = self.send(op, fields)
                await self._connection.writable()
                return await reply
            except ConnectionError:
                policy = self._reconnect
                if (
                    policy is None
                    or self._endpoint is None
                    or attempt >= policy.max_retries
                    or self._closed
                ):
                    raise
                await asyncio.sleep(policy.backoff(attempt))
                attempt += 1

    def send(self, op: str, fields: Dict[str, object]) -> asyncio.Future:
        """Write one request now; the future resolves to its response frame,
        or fails with :class:`ConnectionError` if the connection dies first.

        Raises :class:`ConnectionError` at once when the connection is gone
        (nothing re-dials here, and nothing waits for the transport to take
        the bytes: :meth:`exchange` does both).
        """
        if self._closed:
            raise ConnectionError("client is closed")
        if self._connection.transport.is_closing():
            # Nothing will ever resolve a future registered now, and writes
            # to the dead transport are dropped — fail fast instead.
            raise ConnectionError("connection to the query service closed")
        # A fresh correlation id per request; a BIN_PAYLOAD field rides
        # along as the binary payload (encode_frame emits the binary form).
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        self._connection.transport.write(
            protocol.encode_frame({"id": request_id, "op": op, **fields})
        )
        return future

    async def _redial(self) -> None:
        """Replace the dead transport with a fresh connection.

        Only the transport is replaced: pending futures on the old
        connection have already failed, and server-side per-connection state
        (subscriptions, WAL tails) is gone — callers re-establish it.
        """
        host, port = self._endpoint
        await self._hang_up()
        try:
            self._connection = await _dial(self, host, port)
        except OSError as error:
            raise ConnectionError(
                f"reconnect to {host}:{port} failed: {error}"
            ) from error
        self.reconnects += 1

    # ------------------------------------------------------------------
    # Convenience operations (wire payloads in, wire payloads out)
    # ------------------------------------------------------------------
    async def ping(self) -> dict:
        return await self.request("ping")

    async def top_k(
        self,
        q: Sequence[int],
        k: int,
        start: float,
        end: float,
        algorithm: Optional[str] = None,
    ) -> dict:
        """One TkPLQ; without ``algorithm`` the server answers with nested-loop.

        ``"naive"``, ``"nested-loop"`` and ``"best-first"`` rank the same;
        best-first's ``flows`` lists only the locations it resolved.
        """
        fields: Dict[str, object] = {"q": list(q), "k": k, "start": start, "end": end}
        if algorithm is not None:
            fields["algorithm"] = algorithm
        return await self.request("top_k", **fields)

    async def flow(self, sloc: int, start: float, end: float) -> dict:
        return await self.request("flow", sloc=sloc, start=start, end=end)

    async def flows(self, q: Sequence[int], start: float, end: float) -> dict:
        return await self.request("flows", q=list(q), start=start, end=end)

    async def batch(self, queries: Sequence[dict]) -> dict:
        """``queries``: dicts with ``q``/``k``/``start``/``end`` fields."""
        return await self.request("batch", queries=list(queries))

    async def ingest_batch(self, records: Iterable[PositioningRecord]) -> dict:
        """Ship a batch as one packed RPK1 binary frame."""
        payload = protocol.records_to_payload(list(records))
        return await self.request("ingest_batch", **{protocol.BIN_PAYLOAD: payload})

    async def evict_before(self, timestamp: float) -> dict:
        return await self.request("evict_before", timestamp=timestamp)

    async def checkpoint(self) -> dict:
        """Snapshot a durable store (``bad_request`` on volatile stores)."""
        return await self.request("checkpoint")

    async def stats(self) -> dict:
        return await self.request("stats")

    # ------------------------------------------------------------------
    # Replication (WAL shipping)
    # ------------------------------------------------------------------
    async def wal_tail(
        self, cursor: int, follower: Optional[str] = None, uid: object = None
    ) -> dict:
        """The replication handshake: catch up from ``cursor``, then tail.

        ``uid`` is the identity the follower's table holds (``None``, and not
        sent, on a first attach): the primary replays only onto its own
        table, up to its last commit.  In ``replay`` mode the batches past
        ``cursor`` arrive as pushes; in ``snapshot`` mode the result dict
        carries the packed-shard payload under :data:`protocol.BIN_PAYLOAD`,
        the primary's ``uid`` and the advanced ``cursor``.  Either way every
        later commit is pushed live; WAL pushes land on :attr:`wal_frames`
        (some may precede the response).
        """
        held = {} if uid is None else {"uid": uid}
        return await self.request("wal_tail", cursor=cursor, follower=follower, **held)

    async def wal_ack(self, cursor: int) -> dict:
        """Acknowledge the tail of this connection up to ``cursor``."""
        return await self.request("wal_ack", cursor=cursor)

    async def replica_status(self) -> dict:
        return await self.request("replica_status")

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    async def subscribe_top_k(
        self, q: Sequence[int], k: int, start: float, end: float
    ) -> RemoteSubscription:
        result = await self.request(
            "subscribe", kind="top_k", q=list(q), k=k, start=start, end=end
        )
        return self._materialise_subscription(result)

    async def subscribe_flows(
        self, q: Sequence[int], start: float, end: float
    ) -> RemoteSubscription:
        result = await self.request(
            "subscribe", kind="flows", q=list(q), start=start, end=end
        )
        return self._materialise_subscription(result)

    async def resume_subscription(self, sub_id: int) -> RemoteSubscription:
        """Re-attach to a standing subscription that survived a restart.

        The server restores standing queries from the durable table's
        control log on start; resuming returns the current maintained result
        and routes subsequent pushes to this connection.
        """
        result = await self.request("subscribe", resume=sub_id)
        return self._materialise_subscription(result)

    def _materialise_subscription(self, result: dict) -> RemoteSubscription:
        subscription = RemoteSubscription(
            result["subscription"], result["kind"], result["result"]
        )
        self._subscriptions[subscription.sub_id] = subscription
        for frame in self._early_pushes.pop(subscription.sub_id, []):
            subscription._apply_push(frame)
        return subscription

    async def unsubscribe(self, subscription: RemoteSubscription) -> bool:
        result = await self.request("unsubscribe", subscription=subscription.sub_id)
        # Per-connection frames are ordered: any push for this subscription
        # was delivered before the unsubscribe response, so dropping the
        # routing (and any stray early buffer) here cannot lose updates.
        self._subscriptions.pop(subscription.sub_id, None)
        self._early_pushes.pop(subscription.sub_id, None)
        subscription.active = False
        return bool(result.get("unsubscribed"))
