"""Admission control for the query service: bounded concurrency, graceful drain.

A network-facing query engine dies by accepting work faster than it can
answer it — the event loop keeps reading frames while the worker pool's
backlog grows without bound.  The :class:`AdmissionController` is the
server's single gate: every request passes :meth:`AdmissionController.admit`
before any engine work is scheduled, and is shed with a structured
``overloaded`` error when

* the **in-flight bound** is reached (``max_inflight`` requests already
  executing or queued on the worker pool), or
* the service is **draining**: shutdown has begun, new work is refused, and
  the already-admitted requests run to completion.

The controller is deliberately sans-I/O and single-threaded: the server only
calls it from the event-loop thread, so plain counters suffice — no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: ``admit`` verdict: ``None`` means admitted (the caller owes a ``release``),
#: otherwise ``(reason, message)`` describing why the request was shed.
Rejection = Tuple[str, str]

REASON_CAPACITY = "capacity"
REASON_DRAINING = "draining"


@dataclass
class AdmissionStats:
    """Counters the metrics registry folds into the ``stats`` response."""

    admitted: int = 0
    shed_capacity: int = 0
    shed_draining: int = 0
    peak_inflight: int = 0

    @property
    def shed_total(self) -> int:
        return self.shed_capacity + self.shed_draining

    def as_dict(self) -> Dict[str, int]:
        return {
            "admitted": self.admitted,
            "shed_capacity": self.shed_capacity,
            "shed_draining": self.shed_draining,
            "shed_total": self.shed_total,
            "peak_inflight": self.peak_inflight,
        }


class AdmissionController:
    """The server's single admission gate (event-loop-thread only).

    ``max_inflight`` is the one bound: requests allowed to execute
    concurrently, queued on the worker pool included.  The default is
    deliberately small — the pool runs CPU-bound query work, so a deep
    backlog only adds latency.
    """

    def __init__(self, max_inflight: int = 64):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_inflight = max_inflight
        self.stats = AdmissionStats()
        self._inflight = 0
        self._draining = False

    # ------------------------------------------------------------------
    # The gate
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def admit(self) -> Optional[Rejection]:
        """Admit one request, or return the structured shed reason.

        An admitted request holds one in-flight slot until :meth:`release`.
        """
        if self._draining:
            self.stats.shed_draining += 1
            return (
                REASON_DRAINING,
                "service is draining: shutdown in progress, no new requests",
            )
        if self._inflight >= self.max_inflight:
            self.stats.shed_capacity += 1
            return (
                REASON_CAPACITY,
                f"too many requests in flight "
                f"({self._inflight}/{self.max_inflight}); retry later",
            )
        self._inflight += 1
        self.stats.admitted += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight, self._inflight)
        return None

    def release(self) -> None:
        """Return one in-flight slot (exactly once per successful admit)."""
        if self._inflight <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._inflight -= 1

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new requests; in-flight ones keep their slots until done."""
        self._draining = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "max_inflight": self.max_inflight,
            "inflight": self._inflight,
            "draining": self._draining,
            **self.stats.as_dict(),
        }
