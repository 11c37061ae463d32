"""The asyncio query service: one shared engine behind a wire protocol.

:class:`QueryService` owns one :class:`~repro.engine.runtime.QueryEngine` and
one table (a :class:`~repro.storage.sharded.ShardedRecordStore`) and serves
them to many concurrent network clients over the newline-delimited JSON
protocol of :mod:`repro.service.protocol` (a ``top_k`` frame without an
``"algorithm"`` is answered by nested-loop, the engine's default; best-first
answers when the frame names it):

* the **event loop** only frames (in :mod:`repro.service.stream`, whose
  accept loop this class subclasses), parses, admits and answers: a
  connection's decoder hands each frame, as its bytes arrive, to
  :meth:`QueryService._serve_request`, which refuses or admits it on the
  spot, and one loop callback,
  :meth:`QueryService._finish`, returns the slot, builds the response (errors
  through the one mapping, :func:`_error_response`) and writes it straight
  to the connection's transport;
* the **pool** (:class:`~repro.service.pool.WorkerPool`) is
  ``query_workers`` threads draining one work queue: every CPU-bound or
  lock-taking call runs there, so a heavy query never stalls other
  connections' framing or pushes.  The seven handler ops cross each
  boundary once — queued as it is decoded, run on a worker, answered in the
  item's one completion on the loop — with no task and no future; the
  ops that touch connection state on the loop (subscriptions, ``wal_tail``,
  ``wal_ack``, ``stats``, ``replica_status``) await the same queue through
  :meth:`~repro.service.pool.WorkerPool.run_blocking`.  Thread-safety
  across the workers comes from the layers below: the presence store has
  its own lock, and every store mutation plus the standing-query refreshes
  it triggers runs under the store's re-entrant lock (one ingest = one
  atomic step);
* **standing subscriptions push**: ``subscribe`` registers a standing query
  with the shared :class:`~repro.engine.continuous.ContinuousQueryEngine`
  whose ``on_change`` hook fires on the mutating worker thread — the
  service posts each change to the pool's ordered outbox
  (:meth:`~repro.service.pool.WorkerPool.post`), which writes an ``update``
  (or ``evicted``) push frame to the subscribing connection right after the
  mutating request's own answer, so one client's ``ingest_batch`` is
  acknowledged first and then becomes push traffic to every other
  subscribed client, with no polling anywhere;
* **followers tail the write-ahead log**: ``wal_tail`` is the whole
  handshake (:class:`~repro.service.wal_tail.WalTail`), a commit's ``wal``
  push leaves through the same outbox (after the ingest's acknowledgement),
  and a follower's name and acknowledged cursor live on its connection,
  nowhere else;
* the :class:`~repro.service.admission.AdmissionController` gates every
  request (``max_inflight``, the one bound) and supports
  **graceful drain**: :meth:`QueryService.stop` refuses new requests,
  finishes and flushes the admitted ones, then tears connections down;
* errors are **structured**: malformed frames, invalid requests, windows
  reaching into evicted history, admission sheds and internal failures each
  map to a distinct ``error.kind`` the client can dispatch on.
"""

from __future__ import annotations

import asyncio
import dataclasses
from typing import Callable, Dict, Optional, Tuple

from ..codec import codec_info
from ..engine.continuous import FLOWS, Subscription, TOP_K
from ..engine.runtime import QueryEngine
from ..storage import DurableRecordStore, EvictedRangeError, ShardedRecordStore
from .admission import AdmissionController
from .metrics import ServiceMetrics
from .pool import WorkerPool
from . import protocol
from .protocol import ProtocolError
from .stream import Connection, FrameServer
from .wal_tail import WalTail


class _Connection(Connection):
    """Per-client state: the owned subscriptions and, on a follower, its tail."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, owner: "QueryService"):
        super().__init__(owner)
        self.conn_id = next(_Connection._ids)
        #: Wire subscription id -> engine subscription, owned by this client.
        self.subscriptions: Dict[int, Subscription] = {}
        #: Per-subscription push sequence numbers.
        self.push_seq: Dict[int, int] = {}
        #: Tombstones of unsubscribed ids: a refresh that fired before the
        #: unregistration took the store lock may still schedule a push;
        #: delivery drops it here instead of resurrecting state (sub ids are
        #: never reused, so membership is exact).
        self.unsubscribed: set = set()
        #: A follower's tail: its store-listener token (store lock), name and
        #: last acknowledged cursor (event loop) — the only follower ledger.
        self.wal_token: Optional[int] = None
        self.follower: Optional[str] = None
        self.acked = 0


@dataclasses.dataclass(slots=True)
class _Ticket:
    """One request from its frame being decoded to its answer being written."""

    connection: _Connection
    request_id: object
    began: float
    #: Doubles as a metrics key: a request refused before its op is known
    #: counts under "?", so no hostile frame can poison (or grow without
    #: bound) the sortable by-op counters.
    op: str = "?"
    #: Whether it holds an admission slot ``_finish`` must return.
    admitted: bool = False


def _error_response(request_id: object, error: BaseException) -> Tuple[str, dict]:
    """``(error.kind, error frame)`` for what a handler raised — the one
    mapping, shared by the pooled ops and the coroutine ops."""
    if isinstance(error, ProtocolError):
        kind, message = error.kind, error.message
    elif isinstance(error, EvictedRangeError):
        return "evicted_range", protocol.evicted_error_frame(request_id, error)
    elif isinstance(error, (ValueError, KeyError, TypeError, NotImplementedError)):
        kind, message = "bad_request", str(error)
    else:  # the wire must answer
        kind, message = "internal", f"{type(error).__name__}: {error}"
    return kind, protocol.error_frame(request_id, kind, message)


class QueryService(FrameServer):
    """Serve one engine + table to many clients over asyncio streams.

    Parameters
    ----------
    engine:
        The shared query engine; each request runs one query on one
        worker thread, and ``query_workers`` bounds how many whole requests
        execute concurrently.
    iupt:
        The served table.  ``ingest_batch`` / ``evict_before`` requests
        mutate it; standing subscriptions are maintained against it.
    host, port:
        Listen address; ``port=0`` (the default) picks a free port —
        read the bound address from :attr:`address` after :meth:`start`.
    max_inflight:
        Requests admitted at once (queued on the pool included); beyond it
        a request is shed with ``overloaded`` / ``capacity``.
    query_workers:
        Worker threads executing CPU-bound request work off the event loop.
    role:
        ``"primary"`` or ``"replica"`` (read-only: mutations are refused).
    """

    def __init__(
        self,
        engine: QueryEngine,
        iupt: ShardedRecordStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        query_workers: int = 4,
        role: str = "primary",
    ):
        self._pool = WorkerPool(query_workers)
        super().__init__(host, port)
        self.engine = engine
        self.iupt = iupt
        #: The served table when it is durable, else ``None`` — the one
        #: answer to "is there a log, something to flush or checkpoint?".
        #: (Compare with ``is not None``: an empty store is falsy.)
        self._durable: Optional[DurableRecordStore] = (
            iupt if isinstance(iupt, DurableRecordStore) else None
        )
        #: A replica's table is owned by its replication tail, not by clients.
        self.role = role
        self.read_only = role == "replica"
        #: Extra fields merged into ``replica_status`` responses; a replica
        #: process points this at its tailer so clients (and the router's
        #: stale-read bound) can observe the applied sequence.
        self.replication_extra: Optional[Callable[[], dict]] = None
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(max_inflight)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wal = WalTail(self._durable, self._pool, self._connections, self.metrics)
        #: Set by ``stop`` while it waits for the last admitted request.
        self._idle: Optional[asyncio.Future] = None
        #: The ops answered straight from a worker (handler(frame) -> result) …
        self._pooled_ops: Dict[str, Callable] = {
            "top_k": self._do_top_k,
            "flow": self._do_flow,
            "flows": self._do_flows,
            "batch": self._do_batch,
            "ingest_batch": self._do_ingest_batch,
            "evict_before": self._do_evict_before,
            "checkpoint": self._do_checkpoint,
        }
        #: … and the ones that touch connection state on the loop between
        #: their pool calls (coroutine(connection, frame) -> result, or
        #: ``(result, binary payload)``).
        self._loop_ops: Dict[str, Callable] = {
            "subscribe": self._subscribe,
            "unsubscribe": self._unsubscribe,
            "wal_tail": self._wal.wal_tail,
            "wal_ack": self._wal.wal_ack,
            "stats": self._stats,
            "replica_status": self._replica_status,
        }
        self.continuous = None  # set in start()
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind, attach the continuous engine, and begin accepting clients.

        This is also the recovery hook: every standing query the table keeps
        (a durable table's control log holds them; a volatile one keeps
        none) is re-registered with its original subscription id before the
        first client connects, so subscriptions survive a service restart —
        a reconnecting client re-attaches with ``subscribe {"resume": <id>}``.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._pool.start(self._loop)
        self.continuous = self.engine.continuous(self.iupt)
        try:
            # Registration recomputes each standing result (store lock).
            await self._pool.run_blocking(self.continuous.restore_subscriptions)
        except BaseException:
            # A kept entry that cannot be read refuses the start: nothing
            # listens, and nothing is left running.
            self.continuous.close()
            self._pool.stop()
            raise
        return await self._listen()

    @property
    def pool(self) -> WorkerPool:
        """The worker pool every blocking call of this service runs on; a
        replica's WAL tail applies its pushes here too."""
        return self._pool

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish admitted work, tear down.

        Sequence: stop accepting connections → admission begins draining
        (new requests get structured ``overloaded``/``draining`` errors) →
        every already-admitted request runs to completion and its response
        is flushed → connections close → the continuous engine detaches →
        the workers are joined.
        """
        if self._stopped or self._server is None:
            return
        self._stopped = True
        self._server.close()  # stops accepting; existing sockets stay open
        self.admission.begin_drain()
        # Detach every connection's standing subscriptions NOW, before the
        # first await: a client that disconnects while the drain waits on
        # in-flight requests must not unregister them (unregistration drops
        # durable subscriptions from the table's log, so they would miss the
        # restart a drain precedes).
        for connection in tuple(self._connections):
            self._detach_subscriptions(connection)
        if self._request_tasks:
            await asyncio.gather(*tuple(self._request_tasks), return_exceptions=True)
        # A pooled request is no task: it holds its admission slot until
        # _finish has written its answer, and the draining gate admits no more.
        if self.admission.inflight:
            self._idle = self._loop.create_future()
            await self._idle
        for connection in tuple(self._connections):
            await self._cleanup_connection(connection)
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        # Only wait for the listener after every connection is torn down:
        # since Python 3.12.1 Server.wait_closed() blocks until all active
        # connections finish, so awaiting it first would deadlock the drain.
        await self._server.wait_closed()
        if self.continuous is not None:
            self.continuous.close()
        # Flush-on-drain: a durable table's write-ahead log is fsynced after
        # the last admitted mutation completed, so everything a client got
        # an acknowledgement for survives the shutdown regardless of the
        # configured fsync policy.
        if self._durable is not None:
            await self._pool.run_blocking(self._durable.flush)
        self._pool.stop()

    async def __aenter__(self) -> "QueryService":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _accept(self) -> _Connection:
        self.metrics.note_connection_opened()
        return _Connection(self)

    def _count_refused(self, error: ProtocolError) -> None:
        # One answered request of no known op, as an undecodable line always was.
        self.metrics.observe_request("?", 0.0, error.kind)

    async def _release_connection(self, connection: _Connection) -> None:
        """Release everything a departing client held.

        A client that disconnects mid-subscription must not leave standing
        queries behind: every subscription it registered is unregistered
        from the continuous engine (stopping its maintenance work).

        During a **drain** the rule flips: connections are being closed by
        the server, not abandoned by their clients, so subscriptions are
        only detached (their push callbacks cleared) and stay registered —
        over a durable table that keeps them in its control log, and
        a restarted service restores them for clients to ``resume``.
        """
        if connection.wal_token is not None:
            # A departed follower stops consuming commits immediately.  (This
            # runs on drain too: WAL tails are live streams, not resumable
            # subscriptions; a reconnecting follower redoes the handshake.)
            await self._pool.run_blocking(self._wal.release_wal_tail, connection)
        if self._stopped or self.admission.draining:
            # A drain may also be started without stop() (an operator
            # quiescing the service ahead of a restart): the flipped rule
            # applies from the instant draining began, so a client that
            # disconnects mid-drain cannot drop its subscriptions from the
            # table's log.
            self._detach_subscriptions(connection)
        else:
            orphaned = list(connection.subscriptions.values())
            connection.subscriptions.clear()
            for subscription in orphaned:
                # Unregistration takes the store lock — off the loop, like
                # every other lock-taking call.
                await self._pool.run_blocking(self.continuous.unregister, subscription)
        self.metrics.note_connection_closed()

    def _detach_subscriptions(self, connection: _Connection) -> None:
        """Clear a connection's push hooks, keeping its subscriptions
        registered (and in a durable table's log) for a post-restart resume.

        Hook reads happen under the store lock at fire time; plain
        assignment is atomic and races at worst with one final push, which
        the closing connection drops anyway.
        """
        orphaned = list(connection.subscriptions.values())
        connection.subscriptions.clear()
        for subscription in orphaned:
            subscription.on_change = None

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _serve_request(self, connection: _Connection, frame: dict) -> None:
        """Refuse, admit and start one request as it is decoded."""
        ticket = _Ticket(connection, frame.get("id"), self._loop.time())
        try:
            op = ticket.op = protocol.request_op(frame)
            # Read-only introspection ops bypass admission entirely: they must
            # stay answerable while the service is shedding or draining —
            # they are how operators observe the drain.  tests/test_service.py
            # pins this for both capacity and drain shedding.
            if op not in protocol.READ_ONLY_OPS:
                if self.read_only and op in protocol.MUTATING_OPS:
                    raise ProtocolError(
                        "bad_request",
                        f"this service is a read-only {self.role}; {op!r} must go "
                        f"to the primary (the replication tail owns this table)",
                    )
                rejection = self.admission.admit()
                if rejection is not None:
                    reason, message = rejection
                    shed = protocol.error_frame(
                        ticket.request_id, "overloaded", message, reason=reason
                    )
                    # Answered and counted, but no error of the service's.
                    self._answer(ticket, shed, None)
                    return
                ticket.admitted = True
        except ProtocolError as error:
            self._finish(ticket, None, error)
            return
        handler = self._pooled_ops.get(op)
        if handler is not None:
            self._pool.submit(handler, (frame,), self._finish, ticket)
        elif op == "ping":
            self._finish(ticket, self._pong(), None)
        else:
            self._spawn(self._serve_on_loop(ticket, frame))

    async def _serve_on_loop(self, ticket: _Ticket, frame: dict) -> None:
        """Run one of the coroutine ops and finish it like a pooled one."""
        try:
            result = await self._loop_ops[ticket.op](ticket.connection, frame)
        except Exception as error:  # noqa: BLE001 - mapped by _finish
            self._finish(ticket, None, error)
        else:
            self._finish(ticket, result, None)

    def _finish(
        self, ticket: _Ticket, result: object, error: Optional[BaseException]
    ) -> None:
        """Answer one request (event loop; a worker's only way back to it)."""
        if ticket.admitted:
            self.admission.release()
            if self._idle is not None and not self.admission.inflight:
                # stop() resumes a loop iteration later: after the write below.
                self._idle.set_result(None)
        error_kind = None
        if error is not None:
            error_kind, response = _error_response(ticket.request_id, error)
        elif isinstance(result, tuple):
            # (payload_dict, binary_bytes): attach the blob to the frame.
            result, payload = result
            response = protocol.response_frame(ticket.request_id, result)
            response[protocol.BIN_PAYLOAD] = payload
        else:
            response = protocol.response_frame(ticket.request_id, result)
        self._answer(ticket, response, error_kind)

    def _answer(
        self, ticket: _Ticket, response: dict, error_kind: Optional[str]
    ) -> None:
        ticket.connection.send_frame(response)
        self.metrics.observe_request(
            ticket.op, self._loop.time() - ticket.began, error_kind
        )

    # ------------------------------------------------------------------
    # Coroutine ops (event loop, between their pool calls)
    # ------------------------------------------------------------------
    async def _unsubscribe(self, connection: _Connection, frame: dict) -> dict:
        # Connection bookkeeping on the loop (no lock, no race with
        # _cleanup_connection); the engine unregistration takes the store
        # lock, so it goes through the pool.
        sub_id = protocol.field(frame, "subscription", int)
        connection.push_seq.pop(sub_id, None)
        connection.unsubscribed.add(sub_id)
        subscription = connection.subscriptions.pop(sub_id, None)
        removed = (
            await self._pool.run_blocking(self.continuous.unregister, subscription)
            if subscription is not None
            else False
        )
        return {"unsubscribed": removed}

    async def _subscribe(self, connection: _Connection, frame: dict) -> dict:
        subscription, result = await self._pool.run_blocking(
            self._attach, connection, frame
        )
        # Back on the loop: only now may the subscription be tied to the
        # connection.  If the client vanished while the worker was
        # registering, unregister instead of leaking a standing query nobody
        # will ever read — except a RESUMED subscription, which predates this
        # connection and must survive it: only its just-attached hook is
        # detached, so the client's retry can resume it again.
        if connection not in self._connections:
            if result.get("resumed"):
                subscription.on_change = None
            else:
                await self._pool.run_blocking(self.continuous.unregister, subscription)
            raise ProtocolError("bad_request", "connection closed during subscribe")
        connection.subscriptions[subscription.sub_id] = subscription
        return result

    def _pong(self) -> dict:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "store": self.iupt.kind,
            "records": len(self.iupt),
        }

    async def _replica_status(self, _connection: _Connection, _frame: dict) -> dict:
        return await self._replication()

    async def _stats(self, _connection: _Connection, _frame: dict) -> dict:
        # The continuous summary takes the store lock (a worker may hold it
        # through a long ingest+refresh), so that part runs off the loop; the
        # metrics/admission counters are loop-owned and are snapshotted here,
        # on their owning thread.
        continuous_summary = await self._pool.run_blocking(self.continuous.describe)
        replication = await self._replication()
        snapshot = self.metrics.snapshot(
            cache_stats=self.engine.cache_stats(),
            continuous_summary=continuous_summary,
            admission=self.admission.as_dict(),
            replication=replication,
        )
        snapshot["codec"] = codec_info()
        return snapshot

    async def _replication(self) -> dict:
        """:meth:`replication_status` plus, on a durable primary, the lag of
        each live tailing connection, read on the loop that owns them (two
        tails under one name report the one further behind)."""
        status = await self._pool.run_blocking(self.replication_status)
        if self._durable is not None:
            status["followers"] = self._wal.followers(status["last_seq"])
        return status

    def replication_status(self) -> dict:
        """The replication view of this service (worker thread: takes locks).

        On a durable primary: the committed/replayable sequence range and the
        WAL inventory.  On a replica the tailer merges its applied sequence
        and primary address in through :attr:`replication_extra`.
        """
        status: Dict[str, object] = {
            "role": self.role,
            "read_only": self.read_only,
            "store": self.iupt.kind,
            "shard_seconds": self.iupt.shard_seconds,
            "records": len(self.iupt),
        }
        if self._durable is not None:
            status.update(
                last_seq=self._durable.last_committed_seq,
                base_seq=self._durable.wal_base_seq,
                wal=self._durable.wal_inventory(),
            )
        if self.replication_extra is not None:
            status.update(self.replication_extra())
        return status

    # ------------------------------------------------------------------
    # Handlers (worker-pool threads unless noted)
    # ------------------------------------------------------------------
    def _do_top_k(self, frame: dict) -> dict:
        query = protocol.query_from_wire(frame)
        algorithm = frame.get("algorithm", "nested-loop")
        result = self.engine.search(self.iupt, query, algorithm)
        return protocol.result_to_wire(result)

    def _do_flow(self, frame: dict) -> dict:
        start, end = protocol.window_from_wire(frame)
        sloc_id = protocol.field(frame, "sloc", int)
        result = self.engine.flow(self.iupt, sloc_id, start, end)
        return {"sloc": sloc_id, "flow": result.flow}

    def _do_flows(self, frame: dict) -> dict:
        start, end = protocol.window_from_wire(frame)
        sloc_ids = protocol.sloc_ids_from_wire(frame)
        flows = self.engine.flows(self.iupt, sloc_ids, start, end)
        return protocol.subscription_result_to_wire("flows", flows)

    def _do_batch(self, frame: dict) -> dict:
        payload = frame.get("queries")
        if not isinstance(payload, list) or not payload:
            raise ProtocolError(
                "bad_request", "'queries' must be a non-empty list of query objects"
            )
        queries = [protocol.query_from_wire(item) for item in payload]
        results = self.engine.batch_top_k(self.iupt, queries)
        return {"results": [protocol.result_to_wire(result) for result in results]}

    def _do_ingest_batch(self, frame: dict) -> dict:
        # The batch arrives as one packed RPK1 blob; a frame without one
        # (records spelled as JSON, say) is a bad_request.
        records = protocol.records_from_payload(protocol.frame_payload(frame))
        with self.iupt.lock:  # this commit's seq, not a later worker's
            receipt = self.iupt.ingest_batch(records)
            result = protocol.receipt_to_wire(receipt)
            if self._durable is not None:
                # The durable commit sequence: a router (or any read-your-writes
                # client) can hold reads until a replica has applied this far.
                result["seq"] = self._durable.last_committed_seq
        return result

    def _do_evict_before(self, frame: dict) -> dict:
        timestamp = protocol.field(frame, "timestamp", float)
        dropped = self.iupt.evict_before(timestamp)
        return {
            "records_dropped": dropped,
            "watermark": self.iupt.eviction_watermark,
        }

    def _do_checkpoint(self, _frame: dict) -> dict:
        """Snapshot the durable store so recovery skips WAL replay."""
        return self._wal.durable_store().checkpoint()

    def _attach(self, connection: _Connection, frame: dict):
        """Worker-pool half of ``subscribe``: register a standing query — or,
        with a ``resume`` field, claim one that survived a restart (restored
        from the durable table's log) or a drain — and tie its change
        hook to this connection.

        Returns ``(subscription, response_payload)``; the caller ties the
        subscription to the connection back on the event loop, so this
        function never mutates connection state.
        """
        resume = frame.get("resume")
        with self.iupt.lock:
            # Register (or claim) and attach in one hold of the store lock, so
            # no refresh can fire between them: the connection sees every
            # change from the first batch on, and a resume's claim check is
            # atomic with its attach.
            if resume is not None:
                sub_id = protocol.field(frame, "resume", int)
                subscription = self.continuous.subscription(sub_id)
                if subscription is None:
                    raise ProtocolError(
                        "bad_request",
                        f"unknown subscription {sub_id} (nothing to resume)",
                    )
                if subscription.on_change is not None:
                    raise ProtocolError(
                        "bad_request",
                        f"subscription {sub_id} is already attached to a connection",
                    )
            else:
                kind = frame.get("kind", TOP_K)
                if kind == TOP_K:
                    query = protocol.query_from_wire(frame)
                    subscription = self.continuous.register(query)
                elif kind == FLOWS:
                    start, end = protocol.window_from_wire(frame)
                    sloc_ids = protocol.sloc_ids_from_wire(frame)
                    subscription = self.continuous.register_flows(sloc_ids, start, end)
                else:
                    raise ProtocolError(
                        "bad_request",
                        f"unknown subscription kind {kind!r}; "
                        f"expected one of {(TOP_K, FLOWS)}",
                    )
            # Reading .result raises EvictedRangeError when retention killed a
            # resumed window while the service was down — surfaced as the
            # structured evicted_range error, exactly like a fresh register.
            result = subscription.result
            subscription.on_change = lambda changed: self._push(connection, changed)
        response = {
            "subscription": subscription.sub_id,
            "kind": subscription.kind,
            "result": protocol.subscription_result_to_wire(subscription.kind, result),
        }
        if resume is not None:
            response["resumed"] = True
        return subscription, response

    # ------------------------------------------------------------------
    # Push (called on mutating worker threads, posted to the loop)
    # ------------------------------------------------------------------
    def _push(self, connection: _Connection, subscription: Subscription) -> None:
        """A subscription's change as its push frame: the new result as an
        ``update``, the eviction that ended it as ``evicted``."""
        try:
            result = subscription.result
        except EvictedRangeError as error:
            frame = protocol.push_evicted_frame(subscription.sub_id, error)
        else:
            wire = protocol.subscription_result_to_wire(subscription.kind, result)
            # seq is 0 here; _deliver_push numbers the frame on the event
            # loop, where push_seq is touched by exactly one thread — a
            # worker-side counter would race with the subscribe path.
            frame = protocol.push_update_frame(
                subscription.sub_id, 0, subscription.kind, wire
            )
        self._pool.post(self._deliver_push, connection, frame)

    def _deliver_push(self, connection: _Connection, frame: dict) -> None:
        """Event-loop side of a push: number it, write it, count it.

        The pool's outbox runs posts in post order, and the refreshes post
        under the store lock that serialises them, so per-subscription
        sequence numbers assigned here are contiguous and in refresh order.
        """
        if connection not in self._connections or connection.closing:
            return
        sub_id = frame["subscription"]
        if sub_id in connection.unsubscribed:
            return
        evicted = frame["push"] == "evicted"
        if not evicted:
            seq = connection.push_seq.get(sub_id, 0) + 1
            connection.push_seq[sub_id] = seq
            frame["seq"] = seq
        connection.send_frame(frame)
        self.metrics.note_push(evicted=evicted)
