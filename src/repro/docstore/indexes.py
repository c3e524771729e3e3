"""Secondary indexes for collections.

:class:`FieldIndex` is a hash index from a field's value to document ids,
optionally unique.  Values must be hashable; list values index each
element (multikey, as in MongoDB).  The inverted text index the search
engines read is :mod:`repro.search.columnar`, not part of the store.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.docstore.documents import deep_get
from repro.errors import DuplicateKeyError

_MISSING = object()


def _freeze(value: Any) -> Any:
    """Make a field value hashable for index keys."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class FieldIndex:
    """Hash index over one dotted field path."""

    def __init__(self, path: str, unique: bool = False) -> None:
        self.path = path
        self.unique = unique
        self._buckets: dict[Any, set[Any]] = defaultdict(set)
        self._doc_keys: dict[Any, list[Any]] = {}

    def _keys_for(self, document: dict[str, Any]) -> list[Any]:
        value = deep_get(document, self.path, _MISSING)
        if value is _MISSING:
            return []
        if isinstance(value, list):
            return [_freeze(item) for item in value]
        return [_freeze(value)]

    def add(self, doc_id: Any, document: dict[str, Any]) -> None:
        keys = self._keys_for(document)
        if self.unique:
            for key in keys:
                if self._buckets.get(key):
                    raise DuplicateKeyError(
                        f"duplicate value {key!r} for unique index "
                        f"on {self.path!r}"
                    )
        for key in keys:
            self._buckets[key].add(doc_id)
        self._doc_keys[doc_id] = keys

    def remove(self, doc_id: Any) -> None:
        """Drop ``doc_id``'s keys: an insert that fails on a later unique
        index rolls back the entries it already added."""
        for key in self._doc_keys.pop(doc_id, []):
            bucket = self._buckets.get(key)
            if bucket:
                bucket.discard(doc_id)
                if not bucket:
                    del self._buckets[key]

    def lookup(self, *values: Any) -> set[Any]:
        """Document ids whose indexed field equals one of ``values``."""
        ids: set[Any] = set()
        for value in values:
            ids.update(self._buckets.get(_freeze(value), ()))
        return ids

    def __len__(self) -> int:
        return len(self._doc_keys)
