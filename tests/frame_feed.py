"""Drive the production frame decoder without a socket, or over a raw one.

:class:`repro.service.stream.FrameDecoder` is fed whatever bytes a socket
delivered; these helpers feed it by hand, so framing tests run the decoder
every role runs, over exactly the bytes they choose — and a raw-socket test
client reads its replies through it too.
"""

from __future__ import annotations

import asyncio
import collections
import weakref
from typing import Iterable, List

from repro.service import protocol
from repro.service.protocol import ProtocolError
from repro.service.stream import FrameDecoder


def read_all(
    chunks: Iterable[bytes], limit: int = protocol.MAX_FRAME_BYTES
) -> List[object]:
    """Every outcome of decoding a stream fed chunk by chunk and then closed.

    Decoded frames and :class:`ProtocolError` instances, in order.  The
    decoder delivers nothing after a fatal refusal, as every role stops
    reading there; any other exception escapes (and fails the test that
    called this).
    """
    outcomes: List[object] = []
    decoder = FrameDecoder(outcomes.append, limit)
    for chunk in chunks:
        decoder.feed(chunk)
    decoder.feed_eof()
    return outcomes


#: A raw test socket's decoder and the outcomes it has not handed out yet.
_DECODED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


async def next_frame(reader: asyncio.StreamReader):
    """The next frame a raw test socket received; ``None`` at EOF.

    A refused line raises its :class:`ProtocolError`.
    """
    if reader not in _DECODED:
        ready: collections.deque = collections.deque()
        _DECODED[reader] = (FrameDecoder(ready.append), ready)
    decoder, ready = _DECODED[reader]
    while not ready:
        data = await reader.read(1 << 16)
        if data:
            decoder.feed(data)
            continue
        decoder.feed_eof()
        if not ready:
            return None
    outcome = ready.popleft()
    if isinstance(outcome, ProtocolError):
        raise outcome
    return outcome
