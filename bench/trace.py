"""In-memory span recorder for the benchmark's own calls into each layer.

Spans are recorded from *outside* the program: the workloads wrap their calls
into a layer's public functions (``pipeline.fetch.run``, ``decode_batch``,
``client.request`` ...) in :meth:`Tracer.span`.  Each span carries a name, a
start and an end, the span that caused it, and a request identifier shared by
all spans of one request.  Spans stay in memory and are written out once, at
the end of the run; a disabled tracer costs one attribute test per span.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        return None


_NO_SPAN = _NoSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "_name", "_request", "_parent", "_began", "span_id")

    def __init__(self, tracer: "Tracer", name: str, request: Optional[int]):
        self._tracer = tracer
        self._name = name
        self._request = request

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self._parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        ended = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        tracer.spans.append(
            (self.span_id, self._name, self._began, ended, self._parent, self._request)
        )


class Tracer:
    """Records nested spans on one thread (the benchmark's driving thread)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1

    def span(self, name: str, request: Optional[int] = None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NO_SPAN
        return _LiveSpan(self, name, request)

    def record(
        self, name: str, began: float, ended: float, request: Optional[int] = None
    ) -> None:
        """Add a span timed by the caller (concurrent client requests)."""
        if not self.enabled:
            return
        self.spans.append((self._next_id, name, began, ended, None, request))
        self._next_id += 1

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (seconds)."""
        return sum(end - start for _i, n, start, end, _p, _r in self.spans if n == name)

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
            }
            for span_id, name, start, end, parent, request in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")
