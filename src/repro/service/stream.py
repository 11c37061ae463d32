"""Frames on asyncio transports: one decoder, one connection, one accept loop.

:mod:`repro.service.protocol` says what a frame *is* (pure functions); this
module is the only place bytes become frames and the only place a listening
role writes one, so the query service, the router and the client frame — and
refuse — identically by construction.  Every role reads the way it writes,
from a callback: a :class:`Connection` is the ``asyncio.Protocol`` of one
socket, its ``data_received`` feeds one :class:`FrameDecoder`, and the
decoder hands each frame to the connection's owner in arrival order — no
stream buffer, no reader task.  A listening role subclasses
:class:`FrameServer` and implements "answer this decoded frame" and "release
what this client held"; it never sees a line, a length or a limit.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Callable, List, Optional, Set, Tuple

from . import protocol
from .protocol import ProtocolError


class FrameDecoder:
    """The wire's framing rules, applied to bytes as they arrive.

    :meth:`feed` takes whatever bytes a socket delivered and calls
    ``deliver`` once per outcome they complete, in arrival order: a decoded
    frame (a header line declaring ``{"bin": N}`` comes with its ``N`` raw
    bytes under :data:`protocol.BIN_PAYLOAD`) or a refused line, as a
    :class:`ProtocolError` (``bad_frame``) whose ``fatal`` attribute says
    whether the peer may be answered and read on (false) or must be answered
    and dropped (true).  Blank lines are skipped.  A line longer than
    ``limit`` bytes (terminator excluded; ``limit`` itself is accepted) is
    refused as soon as the bytes held prove it, and after a fatal refusal —
    or :meth:`feed_eof` — the decoder delivers nothing more.  At EOF an
    unterminated last line still counts, and a payload cut short is dropped.
    """

    __slots__ = ("_deliver", "_limit", "_parts", "_held", "_header", "_need", "done")

    def __init__(self, deliver: Callable[[object], None], limit: Optional[int] = None):
        self._deliver = deliver
        self._limit = protocol.MAX_FRAME_BYTES if limit is None else limit
        #: Bytes of an incomplete line or payload, and how many they are.
        self._parts: List[bytes] = []
        self._held = 0
        #: A header line waiting for its ``_need`` payload bytes.
        self._header: Optional[dict] = None
        self._need = 0
        self.done = False

    def feed(self, data: bytes) -> None:
        """Decode ``data``, the next bytes of the stream."""
        position, size = 0, len(data)
        while not self.done:
            if self._header is not None:
                end = position + self._need - self._held
                if end > size:
                    self._hold(data[position:])
                    return
                frame, self._header = self._header, None
                self._emit(frame, self._take(data[position:end]))
                position = end
                continue
            end = data.find(b"\n", position)
            if end < 0:
                if self._held + size - position > self._limit:
                    self._refuse_oversized()
                elif position < size:
                    self._hold(data[position:])
                return
            if self._held + end - position > self._limit:
                self._refuse_oversized()
                return
            line = self._take(data[position:end + 1])
            position = end + 1
            if not line.isspace():
                self._line(line)

    def feed_eof(self) -> None:
        """The stream ended: an unterminated last line still counts."""
        if not self.done and self._header is None and self._parts:
            line = self._take(b"")
            if not line.isspace():
                self._line(line)
        self.done = True

    def _hold(self, chunk: bytes) -> None:
        self._parts.append(chunk)
        self._held += len(chunk)

    def _take(self, tail: bytes) -> bytes:
        """The held bytes followed by ``tail``; nothing is held after."""
        if not self._parts:
            return tail
        self._parts.append(tail)
        whole = b"".join(self._parts)
        self._parts, self._held = [], 0
        return whole

    def _line(self, line: bytes) -> None:
        try:
            # An undecodable line cannot declare a payload, so the stream
            # position is still a line boundary: this refusal is not fatal.
            frame = protocol.decode_frame(line)
        except ProtocolError as error:
            self._deliver(error)
            return
        if protocol.BIN_LENGTH not in frame:
            self._emit(frame, None)
            return
        try:
            need = protocol.binary_length(frame, self._limit)
        except ProtocolError as error:
            # A lying length prefix cannot be resynchronised: the bytes
            # behind it are payload and must never be executed as frames.
            self._refuse(error)
            return
        if need:
            self._header, self._need = frame, need
        else:
            self._emit(frame, b"")

    def _emit(self, frame: dict, payload: Optional[bytes]) -> None:
        # The payload key exists in memory only.  A header line that spells
        # it would hand JSON to code expecting the raw bytes a length
        # declaration owns — a second wire form for records — so it is
        # refused, once any payload the same line declares has been consumed.
        if protocol.BIN_PAYLOAD in frame:
            self._deliver(ProtocolError(
                "bad_frame",
                f"{protocol.BIN_PAYLOAD!r} is reserved: a payload travels as raw "
                f"bytes behind a {protocol.BIN_LENGTH!r} length declaration",
            ))
            return
        if payload is not None:
            frame[protocol.BIN_PAYLOAD] = payload
        self._deliver(frame)

    def _refuse_oversized(self) -> None:
        # The stream is now mid-frame and cannot be resynchronised.
        self._refuse(ProtocolError(
            "bad_frame",
            f"frame exceeds the {self._limit}-byte limit; "
            f"split the request into smaller batches",
        ))

    def _refuse(self, error: ProtocolError) -> None:
        error.fatal = True
        self.done = True
        self._parts, self._held = [], 0
        self._deliver(error)


class Connection(asyncio.Protocol):
    """One peer: frames decoded as bytes arrive, whole frames written out.

    The ``owner`` — a :class:`FrameServer` or a client — hears of the
    connection three times: ``_opened(connection)`` once the transport
    exists, ``_receive(connection, outcome)`` per frame or refusal the
    decoder delivers, and ``_lost(connection)`` once the transport is gone.

    ``send_frame`` may only be called on the event loop that owns the
    transport.  One call is one ``write`` of one encoded frame (header line
    and any binary payload together) and the transport keeps writes in call
    order, so frames never interleave and a peer reads them in the order they
    were sent; a slow reader's backlog waits in its own transport buffer and
    delays nobody else.  A role subclasses it to hang per-client state on it.
    """

    def __init__(self, owner):
        self._owner = owner
        self._decoder = FrameDecoder(functools.partial(owner._receive, self))
        self.transport: Optional[asyncio.Transport] = None
        self.closing = False
        #: Resolved once the transport is gone.
        self._closed: asyncio.Future = asyncio.get_running_loop().create_future()
        #: While the transport holds too much unsent data: resolved when it
        #: takes more (see :meth:`writable`).
        self._resumed: Optional[asyncio.Future] = None

    # -- asyncio.Protocol ----------------------------------------------
    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._owner._opened(self)

    def data_received(self, data: bytes) -> None:
        self._decoder.feed(data)

    def eof_received(self) -> None:
        self._decoder.feed_eof()
        # Returning None closes the transport: no role half-closes, so a peer
        # that stops sending is done.

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # A reset drops any unterminated line; only a clean EOF reads it.
        self._decoder.done = True
        self._wake_writers()
        self._closed.set_result(None)
        self._owner._lost(self)

    def pause_writing(self) -> None:
        self._resumed = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        self._wake_writers()

    # -- the write side -------------------------------------------------
    def send_frame(self, frame: dict) -> None:
        """Write one frame (event-loop thread only); dropped once closing."""
        if not self.closing and not self.transport.is_closing():
            self.transport.write(protocol.encode_frame(frame))

    async def writable(self) -> None:
        """Return once the transport takes more bytes (at once unless a large
        backlog paused it) — a writer's flow control."""
        if self._resumed is not None:
            await asyncio.shield(self._resumed)

    def _wake_writers(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None:
            resumed.set_result(None)

    async def flush_and_close(self) -> None:
        """Stop accepting frames, flush the written ones, close the transport."""
        self.closing = True
        self.transport.close()
        await self._closed


class FrameServer:
    """The accept loop of a listening role.

    Owns the listener, the live :class:`Connection` set and the request and
    connection task sets (a role's ``stop`` waits for or cancels them as it
    sees fit), answers refused lines, and hands each decoded request to the
    role's synchronous ``_serve_request`` — which answers at once, from a
    callback, or from a coroutine it starts with :meth:`_spawn`.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[Connection] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        #: Departed clients whose release is still running.
        self._conn_tasks: Set[asyncio.Task] = set()

    async def _listen(self) -> Tuple[str, int]:
        """Bind and begin accepting clients; returns the bound address."""
        self._server = await asyncio.get_running_loop().create_server(
            self._accept, self._host, self._port
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once the role has started)."""
        if self._server is None:
            raise RuntimeError("not started")
        return self._server.sockets[0].getsockname()[:2]

    # -- what a role implements ----------------------------------------
    def _serve_request(self, connection: Connection, frame: dict) -> None:
        """See that one decoded frame is answered through
        ``connection.send_frame``; called as its bytes arrive, must not block."""
        raise NotImplementedError

    def _spawn(self, coroutine, tasks: Optional[Set[asyncio.Task]] = None) -> None:
        """Run a coroutine as a task held in ``tasks`` (``_request_tasks``
        unless told otherwise) until it is done."""
        tasks = self._request_tasks if tasks is None else tasks
        task = asyncio.ensure_future(coroutine)
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    async def _release_connection(self, connection: Connection) -> None:
        """Release everything a departing client held."""
        raise NotImplementedError

    def _accept(self) -> Connection:
        """The connection object of a newly accepted client."""
        return Connection(self)

    def _count_refused(self, error: ProtocolError) -> None:
        """A line was refused (and answered); a role may count it."""

    # -- the connection callbacks --------------------------------------
    def _opened(self, connection: Connection) -> None:
        self._connections.add(connection)

    def _receive(self, connection: Connection, outcome: object) -> None:
        if type(outcome) is dict:
            self._serve_request(connection, outcome)
            return
        connection.send_frame(protocol.error_frame(None, outcome.kind, outcome.message))
        self._count_refused(outcome)
        if outcome.fatal:
            self._spawn(self._cleanup_connection(connection), self._conn_tasks)

    def _lost(self, connection: Connection) -> None:
        if connection in self._connections:
            self._spawn(self._cleanup_connection(connection), self._conn_tasks)

    async def _cleanup_connection(self, connection: Connection) -> None:
        """Forget a connection, once: release its state, flush, close."""
        if connection not in self._connections:
            return
        self._connections.discard(connection)
        await self._release_connection(connection)
        await connection.flush_and_close()
