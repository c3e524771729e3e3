"""Shared fan-out executor for multi-shard scatter-gather.

The paper's back end is a sharded MongoDB cluster whose router sends
per-shard work to every shard *concurrently* and merges the partial
results.  This module is the process-wide equivalent: one bounded
``ThreadPoolExecutor`` every multi-shard operation (``find``, ``count``,
``aggregate``, bulk writes, rebalancing) dispatches through.

Design rules:

* **Lazy init** — the pool is created on first parallel fan-out, never
  at import time, so single-shard workloads pay nothing.
* **Configurable width** — ``REPRO_EXECUTOR_WIDTH`` overrides the
  default (bounded by CPU count); width ``1`` forces the serial path,
  which the differential tests use as the reference implementation.
* **Serial fallback** — one task, width 1, or a *nested* fan-out (a
  task that itself scatters, e.g. an aggregation inside a serving-tier
  worker that is already running on the pool) runs inline on the
  calling thread.  Nested submissions to a bounded pool can deadlock;
  running them inline cannot.
* **Quiescent failure** — a fan-out that raises has *stopped*: every
  started task has finished and every unstarted task is cancelled
  before the first exception propagates, so shard writes never keep
  mutating behind a caller that already saw the error.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Sequence, TypeVar

from repro.analysis import racecheck

T = TypeVar("T")

#: Environment variable overriding the fan-out width.
WIDTH_ENV = "REPRO_EXECUTOR_WIDTH"

#: Default width: enough threads to cover a typical shard count without
#: oversubscribing small machines.
DEFAULT_WIDTH = max(2, min(16, os.cpu_count() or 4))

_lock = racecheck.make_lock("docstore.executor")
_executor: ThreadPoolExecutor | None = None
_executor_width = 0
_local = threading.local()


def executor_width() -> int:
    """The configured fan-out width (``REPRO_EXECUTOR_WIDTH`` or default).

    The override is interpreted explicitly rather than silently:

    * ``>= 1`` — that many pool threads (``1`` forces the serial path);
    * ``0`` — "auto": the built-in :data:`DEFAULT_WIDTH`;
    * negative — serial, same as ``1`` (a deliberate "no parallelism"
      request should not be promoted back to the default);
    * unparseable — :data:`DEFAULT_WIDTH`, so a broken environment never
      disables the store.
    """
    raw = os.environ.get(WIDTH_ENV)
    if raw:
        try:
            width = int(raw)
        except ValueError:
            return DEFAULT_WIDTH
        if width >= 1:
            return width
        if width < 0:
            return 1
    return DEFAULT_WIDTH


def get_executor() -> ThreadPoolExecutor:
    """The shared pool, (re)built lazily at the current width.

    On a width change the old pool reference is swapped out under the
    module lock but its ``shutdown`` runs *outside* it — the same rule
    :func:`shutdown_executor` follows.  Even ``wait=False`` takes the
    pool's internal locks and may wake worker threads that re-enter this
    module; holding our lock across that is a lock-order inversion.
    """
    global _executor, _executor_width
    width = executor_width()
    doomed: ThreadPoolExecutor | None = None
    with _lock:
        if _executor is None or _executor_width != width:
            doomed = _executor
            _executor = ThreadPoolExecutor(
                max_workers=width, thread_name_prefix="repro-shard"
            )
            _executor_width = width
        executor = _executor
    if doomed is not None:
        doomed.shutdown(wait=False)
    return executor


def shutdown_executor() -> None:
    """Tear down the shared pool (tests; safe to call when never built).

    The pool reference is swapped out under the lock but the blocking
    ``shutdown(wait=True)`` happens *outside* it: a worker thread that
    touches this module (e.g. a rebuilt :func:`get_executor`) must never
    find the lock held by a shutdown that is waiting for that very
    worker to finish.
    """
    global _executor, _executor_width
    with _lock:
        doomed = _executor
        _executor = None
        _executor_width = 0
    if doomed is not None:
        doomed.shutdown(wait=True)


# -- fan-out primitives ----------------------------------------------------

def _submit_task(executor: ThreadPoolExecutor,
                 task: Callable[[], T]) -> tuple[Any, ThreadPoolExecutor]:
    """Submit to the shared pool, riding over a concurrent retirement.

    Between a fan-out's ``get_executor()`` and its ``submit`` another
    thread may retire the pool (a width-change rebuild, or
    :func:`shutdown_executor`); the orphaned submit raises
    ``RuntimeError("cannot schedule new futures after shutdown")``.
    Re-fetching the current pool and retrying makes the fan-out immune
    to that window.  Futures already obtained from the retired pool
    stay valid — its queued work still runs to completion.
    """
    while True:
        try:
            return executor.submit(_worker, task), executor
        except RuntimeError:
            executor = get_executor()


def _in_fanout() -> bool:
    return bool(getattr(_local, "depth", 0))


def _worker(task: Callable[[], T]) -> T:
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        return task()
    finally:
        _local.depth -= 1


def scatter(tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Run every task, returning results in task order.

    Tasks run on the shared pool when a parallel fan-out is worthwhile;
    otherwise (single task, width 1, or already inside a fan-out) they
    run inline.

    On failure the fan-out *quiesces* before raising: every started
    task has finished and every unstarted one is cancelled, so no shard
    keeps mutating after the first exception propagates.
    """
    if len(tasks) > 1:
        racecheck.note_fanout("scatter")
    if len(tasks) <= 1 or executor_width() == 1 or _in_fanout():
        return [task() for task in tasks]
    return _gather(get_executor(), tasks)


def _gather(executor: ThreadPoolExecutor,
            tasks: Sequence[Callable[[], T]]) -> list[T]:
    """Submit everything at once; quiesce before raising."""
    futures = []
    for task in tasks:
        future, executor = _submit_task(executor, task)
        futures.append(future)
    done, pending = wait(futures, return_when=FIRST_EXCEPTION)
    for future in pending:
        future.cancel()
    if pending:
        wait(pending)  # started tasks must finish before we raise
    error: BaseException | None = None
    results: list[T] = []
    for future in futures:
        if future.cancelled():
            continue
        exc = future.exception()
        if exc is not None:
            error = error or exc
            continue
        results.append(future.result())
    if error is not None:
        raise error
    return results


def scatter_first(tasks: Sequence[Callable[[], T]],
                  accept: Callable[[T], bool]) -> T | None:
    """Run tasks, returning the first *accepted* result to complete.

    The parallel path consumes completions as they land — the first
    task whose result satisfies ``accept`` wins and every not-yet-
    started task is cancelled.  The serial path short-circuits in task
    order.  Returns ``None`` when no result is accepted.

    Acceptance is tracked with a flag, not the value's truthiness: an
    ``accept`` that embraces a falsy result (a legitimate ``None`` or
    empty sentinel) wins the race like any other, and never has its
    victory masked by an unrelated shard error.
    """
    if len(tasks) > 1:
        racecheck.note_fanout("scatter_first")
    if len(tasks) <= 1 or executor_width() == 1 or _in_fanout():
        for task in tasks:
            result = task()
            if accept(result):
                return result
        return None
    executor = get_executor()
    pending = set()
    for task in tasks:
        future, executor = _submit_task(executor, task)
        pending.add(future)
    winner: Any = None
    accepted = False
    error: BaseException | None = None
    try:
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                exc = future.exception()
                if exc is not None:
                    error = error or exc
                    continue
                result = future.result()
                if accept(result):
                    winner = result
                    accepted = True
                    raise _Found
    except _Found:
        pass
    finally:
        for future in pending:
            future.cancel()
    if not accepted and error is not None:
        raise error
    return winner


class _Found(Exception):
    """Internal control flow: a short-circuit result was accepted."""
