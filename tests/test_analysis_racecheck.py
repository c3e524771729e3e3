"""The runtime lock-order checker: cycles, fan-out hazards, wrappers."""

from __future__ import annotations

import threading

import pytest

from repro.analysis import racecheck
from repro.analysis.racecheck import (
    TrackedCondition,
    TrackedLock,
    TrackedRLock,
    make_condition,
    make_lock,
    make_rlock,
)


@pytest.fixture()
def checking():
    """Enable instrumentation for one test, restoring state afterwards."""
    previous = racecheck._enabled_override
    racecheck.enable()
    racecheck.reset()
    yield
    racecheck.reset()
    # Restore rather than disable(): under REPRO_RACECHECK=1 the rest of
    # the suite must keep instrumenting the production locks.
    racecheck._enabled_override = previous


def test_factories_return_plain_primitives_when_disabled():
    previous = racecheck._enabled_override
    racecheck.disable()
    try:
        assert isinstance(make_lock("x"), type(threading.Lock()))
        assert isinstance(make_rlock("x"), type(threading.RLock()))
        assert isinstance(make_condition("x"), threading.Condition)
    finally:
        racecheck._enabled_override = previous
        racecheck.reset()


def test_factories_return_tracked_wrappers_when_enabled(checking):
    assert isinstance(make_lock("a"), TrackedLock)
    assert isinstance(make_rlock("b"), TrackedRLock)
    assert isinstance(make_condition("c"), TrackedCondition)


def test_consistent_order_is_clean(checking):
    a, b = make_lock("A"), make_lock("B")
    for _ in range(3):
        with a:
            with b:
                pass
    report = racecheck.report()
    assert report.clean
    assert ("A", "B") in report.edges
    assert report.acquisitions == {"A": 3, "B": 3}


def test_abba_ordering_reports_a_cycle(checking):
    a, b = make_lock("A"), make_lock("B")

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    for target in (ab, ba):  # sequential: records edges, cannot deadlock
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
    report = racecheck.report()
    assert not report.clean
    assert sorted(report.cycles[0]) == ["A", "B"]
    assert "potential deadlock" in report.summary()


def test_three_lock_cycle_detected(checking):
    a, b, c = make_lock("A"), make_lock("B"), make_lock("C")
    for first, second in ((a, b), (b, c), (c, a)):
        with first:
            with second:
                pass
    report = racecheck.report()
    assert report.cycles
    assert sorted(report.cycles[0]) == ["A", "B", "C"]


def test_reacquiring_a_plain_lock_is_a_self_deadlock(checking):
    # Exercised via the bookkeeping hook: really acquiring twice would
    # hang the test, which is exactly what the checker is for.
    lock = make_lock("L")
    with lock:
        lock._before_acquire()
    report = racecheck.report()
    assert report.violations[0]["kind"] == "self_deadlock"
    assert report.violations[0]["lock"] == "L"


def test_rlock_reentry_is_not_a_violation(checking):
    lock = make_rlock("R")
    with lock:
        with lock:
            pass
    assert racecheck.report().clean


def test_condition_wait_releases_the_held_entry(checking):
    condition = make_condition("C")
    other = make_lock("O")
    hits = []

    def waiter():
        with condition:
            condition.wait(timeout=2.0)
            hits.append("woke")

    thread = threading.Thread(target=waiter)
    thread.start()
    # While the waiter sleeps inside wait(), this thread takes O then C:
    # if wait() left C on the waiter's held stack the graph would later
    # claim C is held across the notify, producing false edges.
    import time

    time.sleep(0.05)
    with other:
        with condition:
            condition.notify_all()
    thread.join()
    assert hits == ["woke"]
    report = racecheck.report()
    assert report.clean
    assert ("O", "C") in report.edges  # the true ordering was recorded


def test_wait_for_roundtrip(checking):
    condition = make_condition("C")
    ready = []

    def producer():
        with condition:
            ready.append(True)
            condition.notify_all()

    thread = threading.Thread(target=producer)
    with condition:
        thread.start()
        assert condition.wait_for(lambda: ready, timeout=2.0)
    thread.join()
    assert racecheck.report().clean


def test_report_as_dict_shape(checking):
    a, b = make_lock("A"), make_lock("B")
    with a:
        with b:
            pass
    payload = racecheck.report().as_dict()
    assert payload["clean"] is True
    assert payload["edges"] == [{"from": "A", "to": "B"}]
    assert payload["acquisitions"] == {"A": 1, "B": 1}


def test_reset_clears_the_graph(checking):
    a, b = make_lock("A"), make_lock("B")
    with a:
        with b:
            pass
    racecheck.reset()
    report = racecheck.report()
    assert report.edges == {} and report.acquisitions == {}


def test_tracked_lock_supports_locked_and_nonblocking_acquire(checking):
    lock = make_lock("L")
    assert lock.acquire(blocking=False)
    assert lock.locked()
    # A second thread's non-blocking attempt fails without recording a
    # self-deadlock (it is a different thread's held stack).
    results = []
    thread = threading.Thread(
        target=lambda: results.append(lock.acquire(blocking=False))
    )
    thread.start()
    thread.join()
    assert results == [False]
    lock.release()
    assert racecheck.report().clean
