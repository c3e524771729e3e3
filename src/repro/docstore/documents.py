"""Document primitives: ids, dotted-path access, deep copies.

Documents are plain JSON-compatible dicts.  Dotted paths (``"meta.title"``,
``"authors.0.name"``) address nested fields the way MongoDB queries and
projections do, including the implicit fan-out over arrays of sub-documents.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import threading
from typing import Any, Callable

from repro.errors import DocumentError

_MISSING = object()


class ObjectId:
    """A small monotonically-increasing document id.

    Real MongoDB ObjectIds embed a timestamp and machine id; here a
    process-wide counter is enough and keeps insertion order sortable and
    deterministic for tests.
    """

    _counter = itertools.count(1)
    _lock = threading.Lock()

    __slots__ = ("value",)

    def __init__(self, value: int | None = None) -> None:
        if value is None:
            with ObjectId._lock:
                value = next(ObjectId._counter)
        self.value = int(value)

    def __repr__(self) -> str:
        return f"ObjectId({self.value})"

    def __str__(self) -> str:
        return f"oid:{self.value:016d}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ObjectId):
            return self.value == other.value
        if isinstance(other, str):
            return str(self) == other
        return NotImplemented

    def __lt__(self, other: "ObjectId") -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("ObjectId", self.value))

    @classmethod
    def parse(cls, text: str) -> "ObjectId":
        """Parse the ``oid:...`` string form back into an ObjectId."""
        if not text.startswith("oid:"):
            raise DocumentError(f"not an ObjectId string: {text!r}")
        return cls(int(text[4:]))


def deep_copy_document(document: dict[str, Any]) -> dict[str, Any]:
    """Deep-copy a document so callers cannot mutate stored state."""
    return copy.deepcopy(document)


def _descend(value: Any, part: str) -> Any:
    if isinstance(value, dict):
        return value.get(part, _MISSING)
    if isinstance(value, list):
        if part.isdigit():
            index = int(part)
            if 0 <= index < len(value):
                return value[index]
            return _MISSING
        # MongoDB fans a field access out over array elements.
        results = [
            item[part]
            for item in value
            if isinstance(item, dict) and part in item
        ]
        return results if results else _MISSING
    return _MISSING


def _walk(parts: list[str], default: Any, document: Any) -> Any:
    value = document
    for part in parts:
        if isinstance(value, dict):
            value = value.get(part, _MISSING)
        else:
            value = _descend(value, part)
        if value is _MISSING:
            return default
    return value


def deep_get(document: Any, path: str, default: Any = None) -> Any:
    """Fetch the value at a dotted ``path``; ``default`` when absent.

    >>> deep_get({"meta": {"title": "x"}}, "meta.title")
    'x'
    >>> deep_get({"authors": [{"name": "a"}, {"name": "b"}]}, "authors.name")
    ['a', 'b']
    """
    return _walk(path.split("."), default, document)


def path_getter(path: str, default: Any = None) -> Callable[[Any], Any]:
    """``deep_get`` bound to one ``path``, split once for many documents.

    >>> get = path_getter("authors.name")
    >>> get({"authors": [{"name": "a"}, {"name": "b"}]}), get({})
    (['a', 'b'], None)
    """
    return functools.partial(_walk, path.split("."), default)


def deep_set(document: dict[str, Any], path: str, value: Any) -> None:
    """Set the value at a dotted ``path``, creating intermediate dicts.

    Numeric parts index into lists; other parts create/overwrite dict keys.
    """
    parts = path.split(".")
    target: Any = document
    for i, part in enumerate(parts[:-1]):
        next_part = parts[i + 1]
        if isinstance(target, list):
            if not part.isdigit():
                raise DocumentError(
                    f"cannot address list with non-numeric path part {part!r}"
                )
            index = int(part)
            while len(target) <= index:
                target.append({})
            if not isinstance(target[index], (dict, list)):
                target[index] = {}
            target = target[index]
            continue
        if part not in target or not isinstance(target[part], (dict, list)):
            target[part] = [] if next_part.isdigit() else {}
        target = target[part]
    last = parts[-1]
    if isinstance(target, list):
        if not last.isdigit():
            raise DocumentError(
                f"cannot address list with non-numeric path part {last!r}"
            )
        index = int(last)
        while len(target) <= index:
            target.append(None)
        target[index] = value
    else:
        target[last] = value


def document_bytes(document: dict[str, Any]) -> int:
    """Serialized size of a document, used for storage accounting (E11)."""
    return len(json.dumps(document, default=str, separators=(",", ":")))


def validate_document(document: Any) -> dict[str, Any]:
    """Check that ``document`` is a JSON-object-like dict with str keys."""
    if not isinstance(document, dict):
        raise DocumentError(f"documents must be dicts, got {type(document)}")
    for key in document:
        if not isinstance(key, str):
            raise DocumentError(f"document keys must be str, got {key!r}")
        if key.startswith("$"):
            raise DocumentError(f"field names may not start with '$': {key!r}")
    return document
