"""Unit tests for admission control: pool, deadlines, RW-lock."""

import threading
import time

import pytest

from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.admission import ReadWriteLock, WorkerPool


class TestWorkerPool:
    def test_runs_submitted_work(self):
        pool = WorkerPool(num_workers=2, max_queue=32)
        try:
            futures = [pool.submit(lambda i=i: i * i) for i in range(10)]
            assert sorted(f.result(timeout=5) for f in futures) == \
                sorted(i * i for i in range(10))
        finally:
            pool.shutdown()

    def test_full_queue_sheds_with_typed_error(self):
        pool = WorkerPool(num_workers=1, max_queue=2)
        release = threading.Event()
        started = threading.Event()

        def occupy_worker():
            started.set()
            return release.wait()

        try:
            blocker = pool.submit(occupy_worker)
            assert started.wait(timeout=5)  # worker busy, queue empty
            admitted = [pool.submit(lambda: None) for _ in range(2)]
            with pytest.raises(ServiceOverloadedError):
                for _ in range(8):  # definitely beyond the bound
                    pool.submit(lambda: None)
        finally:
            release.set()
            pool.shutdown()
        assert blocker.result(timeout=5)
        for future in admitted:
            assert future.done()

    def test_deadline_enforced_at_dequeue(self):
        pool = WorkerPool(num_workers=1, max_queue=8)
        release = threading.Event()
        try:
            pool.submit(release.wait)
            doomed = pool.submit(lambda: "late",
                                 deadline=time.monotonic() + 0.02)
            time.sleep(0.1)  # deadline passes while queued
            release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=5)
        finally:
            release.set()
            pool.shutdown()

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(num_workers=1, max_queue=2)
        pool.shutdown()
        with pytest.raises(ServiceClosedError):
            pool.submit(lambda: None)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(num_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(max_queue=0)


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers inside at once

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                time.sleep(0.05)
                order.append("writer")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("reader")

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert order == ["writer", "reader"]
