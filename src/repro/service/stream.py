"""Frames on asyncio streams: one reader, one connection, one accept loop.

:mod:`repro.service.protocol` says what a frame *is* (pure functions); this
module is the only place one is read off a stream and the only place a
listening role writes one, so the query service, the router and the client
frame — and refuse — identically by construction.  A listening role subclasses
:class:`FrameServer` and implements "answer this decoded frame" and "release
what this client held"; it never sees a line, a length or a limit.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set, Tuple

from . import protocol
from .protocol import ProtocolError


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, object]]:
    """The next frame on ``reader``; ``None`` at EOF, a reset, or a stream cut
    mid-payload.

    Blank lines are skipped, and a header line declaring ``{"bin": N}`` comes
    back with its ``N`` raw bytes under :data:`protocol.BIN_PAYLOAD`.  A
    refused line raises :class:`ProtocolError` (``bad_frame``); its ``fatal``
    attribute says whether the caller may answer and read on (false) or must
    answer and stop reading (true).
    """
    while True:
        try:
            line = await reader.readline()
        except ConnectionError:
            return None
        except ValueError:
            # readline raises ValueError when a line exceeds the stream limit;
            # the stream is now mid-frame and cannot be resynchronised.
            error = ProtocolError(
                "bad_frame",
                f"frame exceeds the {protocol.MAX_FRAME_BYTES}-byte limit; "
                f"split the request into smaller batches",
            )
            error.fatal = True
            raise error from None
        if not line:
            return None
        if line.strip():
            break
    # An undecodable line cannot declare a payload, so the stream position
    # is still a line boundary: this refusal is not fatal.
    frame = protocol.decode_frame(line)
    # The payload key exists in memory only.  A header line that spells it
    # would hand JSON to code expecting the raw bytes a length declaration
    # owns — a second wire form for records — so it is refused, once any
    # payload the same line declares has been consumed.
    reserved = protocol.BIN_PAYLOAD in frame
    if protocol.BIN_LENGTH in frame:
        try:
            need = protocol.binary_length(frame, protocol.MAX_FRAME_BYTES)
        except ProtocolError as error:
            # A lying length prefix cannot be resynchronised: the bytes
            # behind it are payload and must never be executed as frames.
            error.fatal = True
            raise
        try:
            frame[protocol.BIN_PAYLOAD] = await reader.readexactly(need)
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
    if reserved:
        raise ProtocolError(
            "bad_frame",
            f"{protocol.BIN_PAYLOAD!r} is reserved: a payload travels as raw "
            f"bytes behind a {protocol.BIN_LENGTH!r} length declaration",
        )
    return frame


class Connection:
    """One peer's write side: whole frames, written straight to the transport.

    ``send_frame`` may only be called on the event loop that owns the stream.
    One call is one ``write`` of one encoded frame (header line and any binary
    payload together) and the transport keeps writes in call order, so frames
    never interleave and a peer reads them in the order they were sent; a slow
    reader's backlog waits in its own transport buffer and delays nobody else.
    A role subclasses it to hang per-client state on it.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.closing = False

    def send_frame(self, frame: dict) -> None:
        """Write one frame (event-loop thread only); dropped once closing."""
        if not self.closing and not self.writer.is_closing():
            self.writer.write(protocol.encode_frame(frame))

    async def flush_and_close(self) -> None:
        """Stop accepting frames, flush the written ones, close the transport."""
        self.closing = True
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class FrameServer:
    """The accept loop of a listening role.

    Owns the listener, the live :class:`Connection` set and the request and
    connection task sets (a role's ``stop`` drains or cancels them as it sees
    fit), answers refused lines, and hands each decoded request to the role's
    synchronous ``_serve_request`` — which answers at once, from a callback, or
    from a coroutine it starts with :meth:`_spawn`.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[Connection] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        self._conn_tasks: Set[asyncio.Task] = set()

    async def _listen(self) -> Tuple[str, int]:
        """Bind and begin accepting clients; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=protocol.MAX_FRAME_BYTES,
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
        ``connection.send_frame``; called in the read loop, must not block."""
        raise NotImplementedError

    def _spawn(self, coroutine) -> None:
        """Run a request's coroutine as a task in ``_request_tasks``."""
        task = asyncio.ensure_future(coroutine)
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    async def _release_connection(self, connection: Connection) -> None:
        """Release everything a departing client held."""
        raise NotImplementedError

    def _accept(self, writer: asyncio.StreamWriter) -> Connection:
        """The connection object of a newly accepted client."""
        return Connection(writer)

    def _count_refused(self, error: ProtocolError) -> None:
        """A line was refused (and answered); a role may count it."""

    # -- the loop ------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = self._accept(writer)
        self._connections.add(connection)
        self._conn_tasks.add(asyncio.current_task())
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    connection.send_frame(
                        protocol.error_frame(None, error.kind, error.message)
                    )
                    self._count_refused(error)
                    if error.fatal:
                        break
                    continue
                if frame is None:
                    break
                self._serve_request(connection, frame)
        finally:
            await self._cleanup_connection(connection)
            self._conn_tasks.discard(asyncio.current_task())

    async def _cleanup_connection(self, connection: Connection) -> None:
        """Forget a connection, once: release its state, flush, close."""
        if connection not in self._connections:
            return
        self._connections.discard(connection)
        await self._release_connection(connection)
        await connection.flush_and_close()
