"""Lock-order race checks on two-lock workloads, run through REP209.

Each workload is a small module whose threads take two locks; the
static lock-order graph must report the A/B inversion as a cycle and
stay quiet when every thread takes the locks in the same order.
"""

from __future__ import annotations

from repro.analysis.engine import analyze_paths


def _rep209(tmp_path, source: str) -> list[str]:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "work.py").write_text(source, encoding="utf-8")
    result = analyze_paths([tmp_path], root=tmp_path)
    return [f.message for f in result.findings if f.rule == "REP209"]


ABBA = """\
import threading

A = threading.Lock()
B = threading.Lock()


def a_then_b():
    with A:
        with B:
            pass


def b_then_a():
    with B:
        with A:
            pass


def run():
    threads = [threading.Thread(target=a_then_b),
               threading.Thread(target=b_then_a)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
"""


def test_abba_ordering_reports_a_cycle(tmp_path):
    (message,) = _rep209(tmp_path, ABBA)
    assert ("pkg.work.A -> pkg.work.B -> pkg.work.A" in message
            or "pkg.work.B -> pkg.work.A -> pkg.work.B" in message)
    assert "pkg.work:a_then_b" in message
    assert "pkg.work:b_then_a" in message


def test_consistent_order_is_clean(tmp_path):
    consistent = ABBA.replace(
        "    with B:\n        with A:", "    with A:\n        with B:")
    assert _rep209(tmp_path, consistent) == []
