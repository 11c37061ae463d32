"""The query service layer: the engine behind a wire protocol.

After PRs 1-3 every capability — the staged execution engine, the sharded
store, continuous queries — was only reachable in-process.  This package is
the network-facing layer a production deployment needs:

* :mod:`~repro.service.protocol` — the newline-delimited JSON wire protocol
  (requests, structured errors, subscription push frames, query/result
  serialisation with bit-exact float round-trips, a client's record batch as
  one binary ``RPK1`` payload): what a frame *is*, pure functions only;
* :mod:`~repro.service.stream` — frames on asyncio transports:
  ``FrameDecoder`` (the one reader of every role, client included, fed from
  the connection's ``data_received``), ``Connection`` (the ``asyncio.Protocol``
  of one peer: its decoder, and whole frames written straight to the
  transport) and ``FrameServer`` (the accept loop the server and the router
  both subclass);
* :mod:`~repro.service.server` — :class:`QueryService`, the asyncio server
  multiplexing many client connections onto one shared
  :class:`~repro.engine.runtime.QueryEngine` and pushing continuous-query
  refreshes to subscribed connections;
* :mod:`~repro.service.pool` — the service's ``WorkerPool``: threads
  draining one work queue, running CPU-bound work off the event loop;
* :mod:`~repro.service.wal_tail` — ``WalTail``: over a durable table, every
  commit pushed to the connections tailing its write-ahead log (a follower's
  name and lag live on its connection);
* :mod:`~repro.service.admission` — :class:`AdmissionController`, one
  in-flight bound (``max_inflight``) and graceful drain;
* :mod:`~repro.service.metrics` — :class:`ServiceMetrics`, per-op latency
  histograms and counters behind the ``stats`` operation;
* :mod:`~repro.service.client` — the asyncio :class:`ServiceClient` /
  :class:`RemoteSubscription`, with bounded reconnect-with-backoff
  (:class:`ReconnectPolicy`);
* :mod:`~repro.service.replica` — :class:`ReadReplica`, a WAL-shipping
  follower that attaches with one ``wal_tail`` request (the primary answers
  with a snapshot or replays, then pushes every commit as the log frames it
  appended) and serves reads from its own read-only service;
* :mod:`~repro.service.router` — :class:`PartitionRouter`, a front door
  fanning writes to the primary and routing reads across replicas by
  time-partition affinity with a read-your-writes staleness bound;
* :mod:`~repro.service.topology` — the CLI entrypoint running one topology
  role per process (``python -m repro.service.topology``); shard width,
  checkpoint cadence, re-dials and the freshness wait are its constants.

Everything is standard-library only (``asyncio``, ``json``, ``threading``).
"""

from .admission import (
    AdmissionController,
    AdmissionStats,
    REASON_CAPACITY,
    REASON_DRAINING,
)
from .client import (
    ReconnectPolicy,
    RemoteSubscription,
    ServiceClient,
    ServiceError,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .protocol import (
    ERROR_KINDS,
    MUTATING_OPS,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    READ_ONLY_OPS,
    decode_frame,
    encode_frame,
    error_frame,
    flows_from_wire,
    flows_to_wire,
    query_from_wire,
    receipt_to_wire,
    response_frame,
    result_to_wire,
)
from .replica import ReadReplica, ReplicaError
from .router import PartitionRouter
from .server import QueryService

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "ERROR_KINDS",
    "LatencyHistogram",
    "MUTATING_OPS",
    "OPS",
    "PROTOCOL_VERSION",
    "PartitionRouter",
    "ProtocolError",
    "QueryService",
    "READ_ONLY_OPS",
    "REASON_CAPACITY",
    "REASON_DRAINING",
    "ReadReplica",
    "ReconnectPolicy",
    "RemoteSubscription",
    "ReplicaError",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "flows_from_wire",
    "flows_to_wire",
    "query_from_wire",
    "receipt_to_wire",
    "response_frame",
    "result_to_wire",
]
