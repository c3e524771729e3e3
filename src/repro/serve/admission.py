"""Admission control: bounded worker pool, deadlines, RW-lock.

The serving tier must degrade predictably under overload.  Two rules:

* the dispatch queue is **bounded** — a request that cannot be queued is
  shed immediately with :class:`ServiceOverloadedError` (fail fast beats
  unbounded queueing, whose latency grows without limit);
* every request may carry a **deadline** — work whose deadline passed
  while it waited is dropped at dequeue with
  :class:`DeadlineExceededError` rather than executed uselessly.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from queue import Empty, Full, Queue
from typing import Any, Callable

from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)

_SHUTDOWN = object()


class ReadWriteLock:
    """Writer-preferring reader/writer lock.

    Queries (readers) share the system; ingest (the writer) gets
    exclusive access.  Waiting writers block new readers so a steady
    query stream cannot starve ingestion.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()

    class _Guard:
        def __init__(self, acquire: Callable[[], None],
                     release: Callable[[], None]) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, *exc_info: Any) -> None:
            self._release()

    def read_locked(self) -> "_Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def write_locked(self) -> "_Guard":
        return self._Guard(self.acquire_write, self.release_write)


class _Task:
    __slots__ = ("fn", "future", "deadline")

    def __init__(self, fn: Callable[[], Any], future: Future,
                 deadline: float | None) -> None:
        self.fn = fn
        self.future = future
        self.deadline = deadline


class WorkerPool:
    """Fixed thread pool behind a bounded admission queue.

    Unlike ``concurrent.futures.ThreadPoolExecutor`` (whose work queue
    is unbounded), :meth:`submit` refuses work the queue cannot hold:
    the caller gets :class:`ServiceOverloadedError` *now* instead of a
    future that languishes.
    """

    def __init__(self, num_workers: int = 4, max_queue: int = 64,
                 name: str = "serve") -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.num_workers = num_workers
        self.max_queue = max_queue
        self._queue: Queue[Any] = Queue(maxsize=max_queue)
        self._closed = False
        self._lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"{name}-worker-{i}", daemon=True)
            for i in range(num_workers)
        ]
        started: list[threading.Thread] = []
        try:
            for thread in self._threads:
                thread.start()
                started.append(thread)
        except BaseException:
            # Thread exhaustion partway through: the threads already
            # started are parked on the queue forever unless each gets
            # a shutdown sentinel — don't strand them behind the raise.
            self._closed = True
            for _ in started:
                self._queue.put(_SHUTDOWN)
            raise

    # -- submission -------------------------------------------------------

    def submit(self, fn: Callable[[], Any],
               deadline: float | None = None) -> Future:
        """Queue ``fn``; shed immediately when the queue is full.

        The closed-check and the enqueue happen under one lock:
        :meth:`shutdown` flips ``_closed`` under the same lock before it
        enqueues the shutdown sentinels, so any task this method admits
        is queued *ahead* of the sentinels and is guaranteed to be run
        (or failed by the shutdown drain) — a future returned here can
        never languish unsettled.
        """
        future: Future = Future()
        task = _Task(fn, future, deadline)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            try:
                self._queue.put_nowait(task)
            except Full:
                raise ServiceOverloadedError(
                    f"admission queue full ({self.max_queue} pending); "
                    "request shed"
                ) from None
        return future

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    # -- worker loop ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            task: _Task = item
            try:
                self._run_task(task)
            finally:
                self._queue.task_done()

    @staticmethod
    def _run_task(task: _Task) -> None:
        if task.deadline is not None \
                and time.monotonic() >= task.deadline:
            task.future.set_exception(DeadlineExceededError(
                "deadline passed while the request waited in the "
                "admission queue"
            ))
            return
        if not task.future.set_running_or_notify_cancel():
            return  # cancelled while queued
        try:
            task.future.set_result(task.fn())
        except BaseException as exc:  # noqa: BLE001 - future carries it
            task.future.set_exception(exc)

    # -- shutdown ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join()
            # Defensive: submit() enqueues under the lock ahead of the
            # sentinels, so nothing should be left; fail it if it is.
            while True:
                try:
                    item = self._queue.get_nowait()
                except Empty:
                    break
                if item is not _SHUTDOWN:
                    item.future.set_exception(
                        ServiceClosedError("worker pool shut down before "
                                           "the request ran")
                    )
                self._queue.task_done()
