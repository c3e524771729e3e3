"""Spans recorded from the benchmark's own files.

Nothing inside ``src/`` is instrumented (that is the follow-up observability
issue).  A span is ``{name, start, end, parent, request}``; ``Tracer.wrap``
replaces a layer's public function with a timing wrapper for the length of
the traced replay and puts the original back afterwards.  Spans are kept in
memory and written out once, when the run ends.

The replay sends one request at a time and the thread that issued it blocks
until the worker thread is done, so one shared stack nests correctly across
the ``QueryService`` thread hop.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.request: Any = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {"name": name, "start": time.perf_counter(), "end": 0.0,
                  "parent": self._stack[-1] if self._stack else None,
                  "request": self.request}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        # vars() keeps a class's plain function or an instance's own
        # attribute as it was, where getattr would hand back a bound method.
        self._patched.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, timed)

    def unwrap_all(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patched.clear()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def per_request(self, root: str
                    ) -> list[tuple[dict[str, Any], dict[str, float]]]:
        """Each ``root`` span with the seconds by span name underneath it
        (the root under its own name), plus ``self:<name>`` self times --
        a span's duration minus the part its children cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span["parent"] is not None:
                children[span["parent"]].append(index)
        rows = []
        for index, span in enumerate(self.spans):
            if span["name"] != root:
                continue
            row: dict[str, float] = defaultdict(float)
            pending = [index]
            while pending:
                current = pending.pop()
                record = self.spans[current]
                duration = record["end"] - record["start"]
                covered = sum(self.spans[child]["end"]
                              - self.spans[child]["start"]
                              for child in children[current])
                row[record["name"]] += duration
                row["self:" + record["name"]] += duration - covered
                pending.extend(children[current])
            rows.append((span, row))
        return rows


_ABSENT = object()
