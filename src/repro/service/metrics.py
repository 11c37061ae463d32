"""Observability for the query service: latency histograms and counters.

One :class:`ServiceMetrics` registry per server aggregates everything a
``stats`` request reports:

* per-operation request/error counters and shed counts (from the admission
  controller),
* per-operation **latency histograms** (fixed log-spaced buckets, so
  recording is O(#buckets) scan-free and quantiles need no sample storage),
* push-frame and connection accounting, and
* the engine's :meth:`~repro.engine.runtime.QueryEngine.cache_stats` — the
  :class:`~repro.engine.cache.CacheStats` counters, all in per-object
  artefacts, with ``entries`` (artefacts held) and ``windows`` (the window
  entries holding them) — plus the continuous engine's per-subscription
  :class:`~repro.engine.continuous.SubscriptionStats` aggregates, folded in
  at snapshot time.

Like the admission controller, the registry is sans-I/O and only touched
from the event-loop thread.  A request's latency runs from its frame being
decoded, as its bytes arrive, to its response being handed to the transport — so
it includes the wait for a worker and the handler, which is what a client
experiences short of the wire itself.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

#: Histogram bucket upper bounds in seconds: 0.1 ms … 30 s, roughly
#: quarter-decade spacing — fine enough to tell a 5 ms query from a 50 ms
#: one, coarse enough to stay a handful of integers per operation.
LATENCY_BUCKET_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class LatencyHistogram:
    """Fixed-bucket latency accumulator with quantile estimates.

    Quantiles are reported as the upper bound of the bucket containing the
    requested rank (the usual Prometheus-style estimate), clamped to the
    largest observation: cheap, monotone, never above ``max_seconds`` and
    never under-reporting by more than one bucket width.
    """

    __slots__ = ("counts", "overflow", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self.counts = [0] * len(LATENCY_BUCKET_BOUNDS)
        self.overflow = 0
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        index = bisect_left(LATENCY_BUCKET_BOUNDS, seconds)
        if index < len(self.counts):
            self.counts[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile: its bucket's upper bound, at most ``max_seconds``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return min(LATENCY_BUCKET_BOUNDS[index], self.max_seconds)
        return self.max_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_seconds * 1000.0, 3),
            "p50_ms": round(self.quantile(0.50) * 1000.0, 3),
            "p95_ms": round(self.quantile(0.95) * 1000.0, 3),
            "p99_ms": round(self.quantile(0.99) * 1000.0, 3),
            "max_ms": round(self.max_seconds * 1000.0, 3),
        }


class ServiceMetrics:
    """The per-server metrics registry behind the ``stats`` operation."""

    def __init__(self) -> None:
        self.requests_by_op: Dict[str, int] = {}
        self.errors_by_kind: Dict[str, int] = {}
        self.latency_by_op: Dict[str, LatencyHistogram] = {}
        self.pushes_sent = 0
        self.push_evictions_sent = 0
        self.wal_pushes_sent = 0
        self.connections_opened = 0
        self.connections_closed = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe_request(
        self, op: str, seconds: float, error_kind: Optional[str] = None
    ) -> None:
        """Record one answered request (including error responses)."""
        self.requests_by_op[op] = self.requests_by_op.get(op, 0) + 1
        if error_kind is not None:
            self.errors_by_kind[error_kind] = (
                self.errors_by_kind.get(error_kind, 0) + 1
            )
        histogram = self.latency_by_op.get(op)
        if histogram is None:
            histogram = self.latency_by_op[op] = LatencyHistogram()
        histogram.observe(seconds)

    def note_push(self, evicted: bool = False) -> None:
        self.pushes_sent += 1
        if evicted:
            self.push_evictions_sent += 1

    def note_wal_push(self) -> None:
        """One WAL frame shipped to a tailing replication follower."""
        self.wal_pushes_sent += 1

    def note_connection_opened(self) -> None:
        self.connections_opened += 1

    def note_connection_closed(self) -> None:
        self.connections_closed += 1

    @property
    def connections_active(self) -> int:
        return self.connections_opened - self.connections_closed

    @property
    def requests_total(self) -> int:
        return sum(self.requests_by_op.values())

    @property
    def errors_total(self) -> int:
        return sum(self.errors_by_kind.values())

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(
        self,
        cache_stats: Optional[Dict[str, float]] = None,
        continuous_summary: Optional[Dict[str, object]] = None,
        admission: Optional[Dict[str, object]] = None,
        replication: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """The full observability payload served to a ``stats`` request."""
        payload: Dict[str, object] = {
            "requests": {
                "total": self.requests_total,
                "by_op": dict(sorted(self.requests_by_op.items())),
            },
            "errors": {
                "total": self.errors_total,
                "by_kind": dict(sorted(self.errors_by_kind.items())),
            },
            "latency_ms_by_op": {
                op: histogram.as_dict()
                for op, histogram in sorted(self.latency_by_op.items())
            },
            "pushes": {
                "sent": self.pushes_sent,
                "evictions": self.push_evictions_sent,
                "wal": self.wal_pushes_sent,
            },
            "connections": {
                "opened": self.connections_opened,
                "closed": self.connections_closed,
                "active": self.connections_active,
            },
        }
        if cache_stats is not None:
            payload["cache"] = cache_stats
        if continuous_summary is not None:
            payload["continuous"] = continuous_summary
        if admission is not None:
            payload["admission"] = admission
        if replication is not None:
            payload["replication"] = replication
        return payload
