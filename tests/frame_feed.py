"""Drive the production frame reader without a socket.

:func:`repro.service.stream.read_frame` reads from an ``asyncio.StreamReader``;
these helpers fill one by hand (``feed_data`` / ``feed_eof``), so framing tests
run the reader every role runs, over exactly the bytes they choose.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, List

from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.stream import read_frame


def read_all(
    chunks: Iterable[bytes], limit: int = protocol.MAX_FRAME_BYTES
) -> List[object]:
    """Every outcome of reading a stream fed chunk by chunk and then closed.

    Decoded frames and raised :class:`ProtocolError` instances, in order.
    Reading stops — as every role must — at ``None`` or after a fatal error;
    any other exception escapes (and fails the test that called this).
    """

    async def run() -> List[object]:
        reader = asyncio.StreamReader(limit=limit)
        outcomes: List[object] = []

        async def drain() -> None:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    outcomes.append(error)
                    if error.fatal:
                        return
                    continue
                if frame is None:
                    return
                outcomes.append(frame)

        draining = asyncio.ensure_future(drain())
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)  # let the reader run between chunks
        reader.feed_eof()
        await draining
        return outcomes

    return asyncio.run(run())
