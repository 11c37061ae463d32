"""The query service's wire protocol: newline-delimited JSON frames.

One frame is one JSON object on one line (UTF-8, ``\\n``-terminated).  The
protocol is deliberately dependency-free and transport-agnostic — every
function here is pure (bytes/dicts in, bytes/dicts out), so the same code
serves the asyncio server, the client library, and offline tests.

**Requests** (client → server) carry a client-chosen correlation ``id`` and
an ``op``::

    {"id": 1, "op": "top_k", "q": [3, 5, 9], "k": 2, "start": 0.0, "end": 60.0}
    {"id": 2, "op": "ingest_batch", "bin": 4096}       # + 4096 raw RPK1 bytes
    {"id": 3, "op": "subscribe", "kind": "top_k", "q": [3, 5], "k": 1,
     "start": 0.0, "end": 60.0}
    {"id": 4, "op": "subscribe", "resume": 3}          # re-attach after a restart
    {"id": 5, "op": "checkpoint"}                      # durable stores only
    {"id": 6, "op": "wal_tail", "cursor": 12, "follower": "r1", "uid": "9f2c..."}

``wal_tail`` is the replication handshake (``service/wal_tail.py``).  Its
optional ``uid`` is the identity the follower's table holds (absent on a
first attach): the primary replays the batches past ``cursor`` only when its
WAL still holds them, ``cursor`` is at most its last commit, and the ``uid``
is absent or its own; otherwise it answers with a ``snapshot`` of its table.

**Responses** (server → client) echo the ``id`` and carry either a result or
a structured error::

    {"id": 1, "ok": true, "result": {"ranking": [[5, 1.25], [3, 0.5]], ...}}
    {"id": 4, "ok": false, "error": {"kind": "evicted_range", "message": ...,
     "start": 0.0, "end": 60.0, "watermark": 120.0}}

**Push frames** (server → client, unsolicited) have no ``id``; they carry the
refreshed result of a standing subscription after another client's ingestion,
or the eviction notice that invalidated it::

    {"push": "update", "subscription": 2, "seq": 5, "kind": "top_k",
     "result": {...}}
    {"push": "evicted", "subscription": 2, "error": {...}}

Numeric fidelity: flows are IEEE-754 doubles and :mod:`json` round-trips them
exactly (``repr`` ↔ ``float``), so a result serialised here and decoded by
the client is *bit-identical* to the in-process result — ``bench/`` and
``tests/test_service.py`` assert exactly that against direct engine calls.
Flow mappings are serialised as ``[[sloc_id, flow], ...]`` pair lists (JSON
object keys are strings; int-keyed dicts would not round-trip).

**Records** have one wire form per direction, each riding as binary bytes
behind a header line that declares their length (``"bin"``); no record is
ever spelled as JSON.  A client's ``ingest_batch`` sends one packed ``RPK1``
blob (:mod:`repro.codec.packed`).  A follower receives the log's own
CRC-checked frames (:mod:`repro.storage.wal`): a ``wal`` push carries its
commit's ``RSG1`` segment frames, and a snapshot catch-up one base ``RSN1``
frame per shard, both read by :func:`repro.storage.wal.decode_wal_frames`.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..codec.packed import PackedRecordBatch, encode_batch
from ..core.query import TkPLQResult, TkPLQuery
from ..data.records import PositioningRecord
from ..storage import EvictedRangeError, IngestReceipt

PROTOCOL_VERSION = 5

#: Upper bound on one frame's wire size (the header line, and the payload it
#: may declare).  Every connection's :class:`repro.service.stream.FrameDecoder`
#: reads it when the connection opens; a line beyond it ends the connection
#: with a structured ``bad_frame`` error, sent as soon as the bytes held prove
#: the line too long.
#:
#: **Boundary contract**: the limit counts the bytes of the frame line with
#: the ``\n`` terminator *excluded*, and is inclusive — a frame of exactly
#: ``MAX_FRAME_BYTES`` bytes is the largest accepted, one byte more is
#: rejected.  The decoder enforces exactly this (it refuses a line only when
#: the terminator's offset, or the bytes held without one, *exceed* the
#: limit); ``tests/test_service.py`` pins both sides of the boundary.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Request operations the server understands.
OPS = (
    "ping",
    "top_k",
    "flow",
    "flows",
    "batch",
    "ingest_batch",
    "evict_before",
    "checkpoint",
    "subscribe",
    "unsubscribe",
    "stats",
    "wal_tail",
    "wal_ack",
    "replica_status",
)

#: Introspection ops that bypass admission control: they are how operators
#: observe a draining or overloaded service, so shedding them would blind
#: exactly the clients that need to watch the drain.  They take no store
#: mutation and no engine work, so admitting them is always safe.
#: ``replica_status`` joins them because the router polls it to bound
#: stale reads — shedding it under load would stall exactly the fail-over
#: logic that relieves the load.
READ_ONLY_OPS = ("ping", "stats", "replica_status")

#: Ops rejected by a read-only (replica) service.
MUTATING_OPS = ("ingest_batch", "evict_before", "checkpoint")

#: Wire field announcing a binary payload: ``{"bin": N}`` on a frame line
#: means exactly ``N`` raw bytes follow the line's ``\n`` terminator (no
#: trailing newline of their own).  In-memory the payload rides on the frame
#: dict under :data:`BIN_PAYLOAD`, which never appears on the wire as JSON:
#: :func:`encode_frame` strips it, and
#: :class:`repro.service.stream.FrameDecoder` refuses a header line that
#: spells it.
BIN_LENGTH = "bin"
BIN_PAYLOAD = "_bin"

#: Structured error kinds a response can carry.
ERROR_KINDS = (
    "bad_frame",      # the line was not a JSON object
    "bad_request",    # well-formed frame, invalid contents
    "unknown_op",     # unrecognised "op"
    "evicted_range",  # the window reaches into retention-evicted history
    "overloaded",     # shed by admission control (capacity / drain)
    "unavailable",    # a router's backend is unreachable
    "internal",       # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A frame that cannot be decoded or violates the protocol contract."""

    #: Set by :class:`repro.service.stream.FrameDecoder` alone: the refused
    #: line left the stream mid-frame, so nothing after it may be read.
    fatal = False

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
#: The one compact encoder every frame goes through (``json.dumps`` with
#: ``separators`` would build a new one per call).
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(frame: Mapping[str, object]) -> bytes:
    """Serialise one frame to its wire form (compact JSON + newline).

    A frame carrying a binary payload under :data:`BIN_PAYLOAD` becomes a
    header line declaring ``{"bin": N}`` followed by the ``N`` raw payload
    bytes — content-length framing carried alongside the NDJSON ops.
    """
    payload = frame.get(BIN_PAYLOAD)
    if payload is None:
        return _compact_json(frame).encode("utf-8") + b"\n"
    header = {
        key: value for key, value in frame.items() if key != BIN_PAYLOAD
    }
    header[BIN_LENGTH] = len(payload)
    return _compact_json(header).encode("utf-8") + b"\n" + bytes(payload)


def frame_payload(frame: Mapping[str, object]) -> bytes:
    """The binary payload a decoded frame carries (``bad_request`` if none)."""
    payload = frame.get(BIN_PAYLOAD)
    if payload is None:
        raise ProtocolError(
            "bad_request",
            'the frame carries no binary payload: records travel as one RPK1 '
            'blob, N raw bytes behind a header line declaring {"bin": N}',
        )
    return payload  # type: ignore[return-value]


def binary_length(frame: Mapping[str, object], limit: int) -> int:
    """Validate a decoded header line's ``bin`` declaration.

    Returns the payload byte count that must follow the line; raises
    :class:`ProtocolError` (kind ``bad_frame``) when the declaration is not
    a non-negative integer within ``limit`` — like an oversized line, the
    stream cannot be resynchronised past a lying length prefix, so callers
    fail the connection.
    """
    declared = frame.get(BIN_LENGTH)
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < 0:
        raise ProtocolError(
            "bad_frame", f"'bin' must be a non-negative integer, got {declared!r}"
        )
    if declared > limit:
        raise ProtocolError(
            "bad_frame",
            f"binary payload of {declared} bytes exceeds the {limit}-byte limit",
        )
    return declared


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (kind ``bad_frame``) on anything that is
    not a single JSON object — the server answers those with a structured
    error instead of dropping the connection.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad_frame", f"undecodable frame: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError(
            "bad_frame", f"a frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


def response_frame(request_id: object, result: object) -> Dict[str, object]:
    """A successful response echoing the request's correlation id."""
    return {"id": request_id, "ok": True, "result": result}


def error_frame(
    request_id: object, kind: str, message: str, **details: object
) -> Dict[str, object]:
    """A failed response with a structured, machine-readable error."""
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}; expected one of {ERROR_KINDS}")
    error: Dict[str, object] = {"kind": kind, "message": message}
    error.update(details)
    return {"id": request_id, "ok": False, "error": error}


def evicted_error_frame(
    request_id: object, error: EvictedRangeError
) -> Dict[str, object]:
    """The structured form of :class:`~repro.storage.base.EvictedRangeError`."""
    return error_frame(
        request_id,
        "evicted_range",
        str(error),
        start=error.start,
        end=error.end,
        watermark=error.watermark,
    )


def push_update_frame(
    subscription_id: int, seq: int, kind: str, result: object
) -> Dict[str, object]:
    """An unsolicited standing-query refresh pushed to a subscribed client."""
    return {
        "push": "update",
        "subscription": subscription_id,
        "seq": seq,
        "kind": kind,
        "result": result,
    }


def push_evicted_frame(
    subscription_id: int, error: EvictedRangeError
) -> Dict[str, object]:
    """An unsolicited notice that eviction invalidated a subscription."""
    return {
        "push": "evicted",
        "subscription": subscription_id,
        "error": evicted_error_frame(None, error)["error"],
    }


def push_wal_frame(seq: int, frames: bytes) -> Dict[str, object]:
    """One committed WAL batch shipped to a tailing follower.

    The payload is the commit's ``RSG1`` segment frames, one per shard
    slice, as the log holds them; the follower reads them with
    :func:`repro.storage.wal.decode_wal_frames`.
    """
    return {"push": "wal", "seq": seq, BIN_PAYLOAD: frames}


def push_wal_evict_frame(watermark: float) -> Dict[str, object]:
    """A committed retention eviction shipped to a tailing follower."""
    return {"push": "wal_evict", "watermark": watermark}


def is_push_frame(frame: Mapping[str, object]) -> bool:
    return "push" in frame


#: Synthesised locally by the client when its connection dies — never sent
#: on the wire.  A WAL consumer blocked on the queue wakes up and decides
#: whether to reconnect instead of waiting on a dead stream forever.
WAL_CLOSED_FRAME = {"push": "wal_closed"}


def is_wal_push_frame(frame: Mapping[str, object]) -> bool:
    return frame.get("push") in ("wal", "wal_evict", "wal_closed")


# ----------------------------------------------------------------------
# A client's record payload (the RPK1 columnar layout on the wire)
# ----------------------------------------------------------------------
def records_to_payload(records: Sequence[PositioningRecord]) -> bytes:
    """Pack a record batch into one ``RPK1`` blob for a binary frame."""
    return encode_batch(records)


def records_from_payload(payload: bytes) -> List[PositioningRecord]:
    """Decode a binary frame's ``RPK1`` blob back into records, bit-exactly."""
    try:
        return PackedRecordBatch.decode(payload).to_records()
    except (ValueError, struct.error) as error:
        raise ProtocolError(
            "bad_request", f"undecodable RPK1 record payload: {error}"
        ) from error


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def flows_to_wire(flows: Mapping[int, float]) -> List[List[object]]:
    """A ``{sloc_id: flow}`` mapping as sorted ``[sloc_id, flow]`` pairs."""
    return [[sloc_id, flows[sloc_id]] for sloc_id in sorted(flows)]


def flows_from_wire(pairs: Iterable[Sequence[object]]) -> Dict[int, float]:
    """Rebuild the ``{sloc_id: flow}`` mapping from its wire pairs."""
    return {int(sloc_id): float(flow) for sloc_id, flow in pairs}


def result_to_wire(result: TkPLQResult) -> Dict[str, object]:
    """Serialise a TkPLQ answer: the ranking in rank order plus its flows."""
    return {
        "ranking": [[entry.sloc_id, entry.flow] for entry in result.ranking],
        "flows": flows_to_wire(result.flows),
        "k": result.query.k,
        "window": [result.query.start, result.query.end],
        "algorithm": result.algorithm,
    }


def subscription_result_to_wire(kind: str, result: object) -> Dict[str, object]:
    """A standing query's result in the wire form of its kind: the ``top_k``
    answer as :func:`result_to_wire`, a ``flows`` mapping under ``"flows"``."""
    if kind == "top_k":
        return result_to_wire(result)  # type: ignore[arg-type]
    return {"flows": flows_to_wire(result)}  # type: ignore[arg-type]


def receipt_to_wire(receipt: IngestReceipt) -> Dict[str, object]:
    """Serialise an ingestion receipt (shard keys become strings as-is)."""
    return {
        "records_ingested": receipt.records_ingested,
        "shards_touched": list(receipt.shards_touched),
        "objects": len(receipt.object_spans),
    }


# ----------------------------------------------------------------------
# Request fields
# ----------------------------------------------------------------------
def request_op(frame: Mapping[str, object]) -> str:
    """A request's ``op``, one of :data:`OPS` (``unknown_op`` otherwise)."""
    op = frame.get("op", "?")
    if op not in OPS:
        raise ProtocolError("unknown_op", f"unknown op {op!r}; expected one of {OPS}")
    return op  # type: ignore[return-value]


def field(frame: Mapping[str, object], name: str, cast, *default: object):
    """``cast(frame[name])``, or ``default`` when one is given and the field
    is absent; any failure is a ``bad_request`` that names the field."""
    try:
        return cast(frame[name])
    except KeyError:
        if default:
            return default[0]
        raise ProtocolError("bad_request", f"missing field {name!r}") from None
    except (TypeError, ValueError) as error:
        raise ProtocolError("bad_request", f"field {name!r}: {error}") from error


def _sloc_ids(value: Iterable[object]) -> List[int]:
    return [int(sloc) for sloc in value]


def query_from_wire(frame: Mapping[str, object]) -> TkPLQuery:
    """Build a :class:`~repro.core.query.TkPLQuery` from request fields.

    Validation errors raised by the query constructor (empty ``q``, ``k`` out
    of range, inverted window) surface as ``bad_request`` protocol errors
    with the constructor's message, so clients see *why* the frame was bad.
    """
    fields = (
        field(frame, "q", _sloc_ids),
        field(frame, "k", int),
        field(frame, "start", float),
        field(frame, "end", float),
    )
    try:
        return TkPLQuery.build(*fields)
    except (TypeError, ValueError) as error:
        raise ProtocolError("bad_request", str(error)) from error


def window_from_wire(frame: Mapping[str, object]) -> Tuple[float, float]:
    """Extract and validate the ``start``/``end`` window of a request."""
    start = field(frame, "start", float)
    end = field(frame, "end", float)
    if start > end:
        raise ProtocolError(
            "bad_request", "the query interval start must not exceed its end"
        )
    return start, end


def sloc_ids_from_wire(frame: Mapping[str, object]) -> List[int]:
    """Extract the ``q`` S-location list of a request."""
    sloc_ids = field(frame, "q", _sloc_ids)
    if not sloc_ids:
        raise ProtocolError("bad_request", "'q' must not be empty")
    return sloc_ids
