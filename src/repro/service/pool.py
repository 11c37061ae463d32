"""The query service's worker pool: threads draining one work queue.

Every CPU-bound or lock-taking call the service makes runs here, so a heavy
query never stalls the event loop's framing or pushes.  An item is
``(fn, args, done, token)``; a worker runs ``fn(*args)`` and ends the item
with a single ``call_soon_threadsafe(done, token, result, error)`` — the one
way back to the loop.  A pooled request submits its handler with the
service's answering callback as ``done`` (no task, no future);
:meth:`WorkerPool.run_blocking` is the awaitable face of the same queue for
the coroutine ops.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from typing import Callable, List, Optional


def _resolve(
    future: asyncio.Future, result: object, error: Optional[BaseException]
) -> None:
    """The completion ``run_blocking`` submits: hand the outcome to its awaiter."""
    if future.cancelled():
        return
    if error is None:
        future.set_result(result)
    else:
        future.set_exception(error)


class WorkerPool:
    """``size`` worker threads draining one queue, answering on one loop."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("query_workers must be at least 1")
        self._size = size
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._work: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []

    @property
    def loop(self) -> Optional[asyncio.AbstractEventLoop]:
        """The loop every item is answered on (set by :meth:`start`)."""
        return self._loop

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start the workers; they answer on ``loop``."""
        self._loop = loop
        for index in range(self._size):
            name = f"repro-query_{index}"
            worker = threading.Thread(target=self._drain_work, name=name, daemon=True)
            worker.start()
            self._workers.append(worker)

    def stop(self) -> None:
        """Let every worker finish what it holds, then join them."""
        for _ in self._workers:
            self._work.put(None)
        for worker in self._workers:
            worker.join()

    def submit(self, fn: Callable, args: tuple, done: Callable, token: object) -> None:
        """Queue ``fn(*args)``, to end with ``done(token, result, error)`` on
        the loop."""
        self._work.put((fn, args, done, token))

    async def run_blocking(self, fn, *args):
        """Await one CPU-bound or lock-taking call run on the pool."""
        future = self._loop.create_future()
        self._work.put((fn, args, _resolve, future))
        return await future

    def _drain_work(self) -> None:
        """A worker thread: take ``(fn, args, done, token)`` items off the one
        queue until the ``None`` sentinel, ending each with a single
        ``call_soon_threadsafe(done, token, result, error)``."""
        while True:
            item = self._work.get()
            if item is None:
                return
            fn, args, done, token = item
            result = error = None
            try:
                result = fn(*args)
            except BaseException as raised:  # noqa: BLE001 - delivered to done
                error = raised
            try:
                self._loop.call_soon_threadsafe(done, token, result, error)
            except RuntimeError:
                pass  # the loop closed under us: nobody is left to answer
            del item, fn, args, done, token, result, error
