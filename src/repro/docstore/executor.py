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
* **Budgeted** — a :class:`FanoutBudget` (explicit argument or ambient
  via :func:`budget_scope`) caps how many of one request's tasks run
  concurrently, so a single expensive query cannot monopolize the
  shared pool.
* **Observable** — every fanned-out task's wall time is reported to
  registered observers, which is how the serving tier's per-shard
  fan-out latency histogram is fed without the docstore importing the
  metrics layer.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    wait,
)
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence, TypeVar

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

_observers: list[Callable[[float], None]] = []


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


# -- per-request budgets ---------------------------------------------------

class FanoutBudget:
    """Per-request cap on concurrently running fan-out tasks.

    The serving tier hands each request one of these (sized by the
    adaptive load controller); :meth:`grant` clamps a fan-out's
    parallelism to the budget and reports each clamp to ``on_clamp`` so
    the controller can count them.  Budgets are advisory per *request*
    — the shared pool's width still bounds the process as a whole.
    """

    __slots__ = ("limit", "clamps", "_on_clamp")

    def __init__(self, limit: int,
                 on_clamp: Callable[[int, int], None] | None = None) -> None:
        if limit < 1:
            raise ValueError("fan-out budget must be >= 1")
        self.limit = int(limit)
        self.clamps = 0
        self._on_clamp = on_clamp

    def grant(self, requested: int) -> int:
        """How many of ``requested`` tasks may run concurrently."""
        if requested <= self.limit:
            return requested
        self.clamps += 1
        if self._on_clamp is not None:
            try:
                self._on_clamp(requested, self.limit)
            except Exception:  # noqa: BLE001 - accounting must not break reads
                pass
        return self.limit


@contextmanager
def budget_scope(budget: FanoutBudget | None) -> Iterator[FanoutBudget | None]:
    """Make ``budget`` the ambient fan-out budget for this thread.

    Every :func:`scatter` call on the thread (however deep in the
    docstore) honours it without the intermediate layers threading the
    budget through by hand.  Scopes nest; ``None`` clears the budget.
    """
    previous = getattr(_local, "budget", None)
    _local.budget = budget
    try:
        yield budget
    finally:
        _local.budget = previous


def current_budget() -> FanoutBudget | None:
    """The ambient :class:`FanoutBudget` for this thread, if any."""
    return getattr(_local, "budget", None)


# -- observability ---------------------------------------------------------

def add_fanout_observer(observer: Callable[[float], None]) -> None:
    """Register a callback receiving each fanned-out task's seconds."""
    with _lock:
        if observer not in _observers:
            _observers.append(observer)


def remove_fanout_observer(observer: Callable[[float], None]) -> None:
    with _lock:
        if observer in _observers:
            _observers.remove(observer)


def _observed(task: Callable[[], T]) -> T:
    started = time.perf_counter()
    try:
        return task()
    finally:
        seconds = time.perf_counter() - started
        with _lock:
            observers = tuple(_observers)
        for observer in observers:
            try:
                observer(seconds)
            except Exception:  # noqa: BLE001 - observers must not break reads
                pass


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


def _run_serial(tasks: Sequence[Callable[[], T]]) -> list[T]:
    if len(tasks) > 1:
        return [_observed(task) for task in tasks]
    return [task() for task in tasks]


def _in_fanout() -> bool:
    return bool(getattr(_local, "depth", 0))


def _worker(task: Callable[[], T]) -> T:
    _local.depth = getattr(_local, "depth", 0) + 1
    try:
        return _observed(task)
    finally:
        _local.depth -= 1


def scatter(tasks: Sequence[Callable[[], T]],
            budget: FanoutBudget | None = None) -> list[T]:
    """Run every task, returning results in task order.

    Tasks run on the shared pool when a parallel fan-out is worthwhile;
    otherwise (single task, width 1, or already inside a fan-out) they
    run inline.  ``budget`` (or the ambient :func:`budget_scope` budget)
    caps how many tasks run concurrently.

    On failure the fan-out *quiesces* before raising: every started
    task has finished and every unstarted one is cancelled, so no shard
    keeps mutating after the first exception propagates.
    """
    if len(tasks) > 1:
        racecheck.note_fanout("scatter")
    if len(tasks) <= 1 or executor_width() == 1 or _in_fanout():
        return _run_serial(tasks)
    if budget is None:
        budget = current_budget()
    limit = len(tasks) if budget is None else budget.grant(len(tasks))
    if limit <= 1:
        return _run_serial(tasks)
    executor = get_executor()
    if limit < len(tasks):
        return _gather_windowed(executor, tasks, limit)
    return _gather(executor, tasks)


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


def _gather_windowed(executor: ThreadPoolExecutor,
                     tasks: Sequence[Callable[[], T]],
                     limit: int) -> list[T]:
    """Keep at most ``limit`` tasks in flight (per-request budget).

    Results come back in task order.  On failure no further tasks are
    submitted and the in-flight window drains before the first
    exception propagates — the same quiescence guarantee as the
    all-at-once path.
    """
    results: list[Any] = [None] * len(tasks)
    indices: dict[Any, int] = {}
    inflight: set[Any] = set()
    next_index = 0
    error: BaseException | None = None
    while inflight or (error is None and next_index < len(tasks)):
        while (error is None and next_index < len(tasks)
               and len(inflight) < limit):
            future, executor = _submit_task(executor, tasks[next_index])
            indices[future] = next_index
            inflight.add(future)
            next_index += 1
        if not inflight:
            break
        done, inflight = wait(inflight, return_when=FIRST_COMPLETED)
        for future in done:
            exc = future.exception()
            if exc is not None:
                error = error or exc
            else:
                results[indices[future]] = future.result()
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

    ``scatter_first`` ignores fan-out budgets deliberately: it serves
    racing point-reads (``find_one``) where the whole point is to hit
    every shard at once and cancel the losers.
    """
    if len(tasks) > 1:
        racecheck.note_fanout("scatter_first")
    if len(tasks) <= 1 or executor_width() == 1 or _in_fanout():
        for task in tasks:
            result = _observed(task) if len(tasks) > 1 else task()
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
