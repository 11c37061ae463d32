"""The query service's worker pool: threads draining one work queue.

Every CPU-bound or lock-taking call the service makes runs here, so a heavy
query never stalls the event loop's framing or pushes.  An item is
``(fn, args, done, token)``; a worker runs ``fn(*args)`` and ends the item
with a single ``call_soon_threadsafe``, which runs ``done(token, result,
error)`` on the loop and then the pool's outbox.  A pooled request submits
its handler with the service's answering callback as ``done`` (no task, no
future); :meth:`WorkerPool.run_blocking` is the awaitable face of the same
queue for the coroutine ops.

The outbox (:meth:`WorkerPool.post`) is every other way back to the loop:
pushes to subscribers and followers.  It is one ordered queue, so callbacks
run in the order they were posted, whichever item finishes first.  A post
made inside an item rides that item's completion — after its ``done``, so an
ingest's acknowledgement is written before the pushes its commit caused, and
the worker never wakes the loop in the middle of its commit; a post made on
any other thread wakes the loop itself.  This module is the only caller of
``call_soon_threadsafe`` — the one way back to the loop.
"""

from __future__ import annotations

import asyncio
import collections
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


class _Inside(threading.local):
    """Whether this thread is one of the pool's workers (its posts ride the
    item's completion instead of waking the loop)."""

    busy = False


class WorkerPool:
    """``size`` worker threads draining one queue, answering on one loop."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("query_workers must be at least 1")
        self._size = size
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._work: "queue.SimpleQueue[Optional[tuple]]" = queue.SimpleQueue()
        self._workers: List[threading.Thread] = []
        #: Posted ``(fn, args)`` callbacks, in post order (appended by any
        #: thread, drained on the loop only).
        self._outbox: "collections.deque[tuple]" = collections.deque()
        self._inside = _Inside()

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

    def post(self, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` on the loop, after every callback posted before
        it (any thread).  Inside a pool item it runs right after that item's
        ``done``; anywhere else it wakes the loop."""
        self._outbox.append((fn, args))
        if not self._inside.busy:
            self._wake(self._run_outbox)

    def _run_outbox(self) -> None:
        """Run every posted callback, oldest first (event loop).  One that
        raises goes to the loop's exception handler; the rest still run."""
        outbox = self._outbox
        while outbox:
            fn, args = outbox.popleft()
            try:
                fn(*args)
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                self._loop.call_exception_handler({
                    "message": f"posted callback {fn!r} failed",
                    "exception": error,
                })

    def _complete(
        self, done: Callable, token: object, result: object,
        error: Optional[BaseException],
    ) -> None:
        """End one item on the loop: its ``done``, then the outbox."""
        try:
            done(token, result, error)
        finally:
            self._run_outbox()

    def _wake(self, callback: Callable, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # the loop closed under us: nobody is left to answer

    def _drain_work(self) -> None:
        """A worker thread: take ``(fn, args, done, token)`` items off the one
        queue until the ``None`` sentinel, ending each with a single
        ``call_soon_threadsafe`` of :meth:`_complete`."""
        self._inside.busy = True
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
            self._wake(self._complete, done, token, result, error)
            del item, fn, args, done, token, result, error
