"""Sharding: hash shard-key routing over multiple collections.

The paper's back end is a *sharded* MongoDB cluster (Section 2, "Storage").
:class:`ShardedCollection` reproduces the behaviour the system depends on:

* deterministic shard-key routing for writes,
* targeted reads when a query pins the shard key, scatter-gather otherwise
  — the target shards are visited in a plain loop, in shard order, on
  the calling thread, and the partials merged in that order (the
  per-shard work is pure Python under the GIL; cores are spent on
  replica processes, not threads — EXPERIMENTS.md, "Trial: the docstore
  thread pool"),
* aggregation pipelines whose per-document prefix (``$match`` /
  ``$project`` / ``$function``) runs per shard, with ranked
  (``$sort`` + ``$limit``) results merged through a bounded heap instead
  of a full re-sort — the search engines' scalar pipeline runs here
  (:func:`repro.docstore.aggregation.aggregate` hands a sharded source
  to :meth:`ShardedCollection.aggregate`),
* per-shard storage accounting (the E11 experiment reports shard skew).

Like :class:`~repro.docstore.collection.Collection`, it is insert-only.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Iterable, Iterator, Sequence

from repro.docstore.aggregation import (
    AggregationPipeline,
    AggregationResult,
    StageStats,
    top_k_tagged,
)
from repro.docstore.collection import Collection, Cursor
from repro.docstore.documents import deep_get
from repro.docstore.matching import key_constraints
from repro.errors import ShardingError

_MISSING = object()

#: Stages operating on one document at a time — safe to push down to the
#: shards (the scatter half of scatter-gather).
_PER_DOCUMENT_STAGES = frozenset({"$match", "$project", "$function"})


class HashSharder:
    """Route documents to shards by a stable hash of the shard-key value."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ShardingError("need at least one shard")
        self.num_shards = num_shards

    def shard_for(self, key_value: Any) -> int:
        payload = json.dumps(key_value, default=str, sort_keys=True)
        digest = hashlib.sha1(payload.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.num_shards


class ShardedCollection:
    """A collection transparently partitioned over N shard collections."""

    def __init__(self, name: str, shard_key: str,
                 num_shards: int = 4) -> None:
        self.name = name
        self.shard_key = shard_key
        self.sharder = HashSharder(num_shards)
        self.shards: list[Collection] = [
            Collection(f"{name}.shard{i}") for i in range(num_shards)
        ]
        self._version = 0

    # -- versioning -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter across every shard: one step per
        document that lands in any shard, plus what
        :meth:`advance_version` (restore-from-disk) adds."""
        return self._version

    def advance_version(self, floor: int) -> None:
        """Raise the version to at least ``floor`` (never lowers it)."""
        self._version = max(self._version, floor)

    # -- routing ----------------------------------------------------------

    def _route(self, document: dict[str, Any]) -> Collection:
        key_value = deep_get(document, self.shard_key, _MISSING)
        if key_value is _MISSING:
            raise ShardingError(
                f"document missing shard key {self.shard_key!r}"
            )
        return self.shards[self.sharder.shard_for(key_value)]

    def _target_shards(self, query: dict[str, Any]) -> list[Collection]:
        """The shards owning a value the query pins the shard key to
        (a literal or ``$in``), in shard order; else all."""
        values = key_constraints(query).get(self.shard_key)
        if values is None:
            return self.shards
        owners = {self.sharder.shard_for(value) for value in values}
        return [shard for number, shard in enumerate(self.shards)
                if number in owners]

    # -- index management ----------------------------------------------------

    def create_index(self, path: str, unique: bool = False) -> None:
        """Create a hash index on every shard.

        Uniqueness is only enforced per shard unless the index is on the
        shard key itself — the same constraint real sharded MongoDB has.
        """
        if unique and path != self.shard_key and path != "_id":
            raise ShardingError(
                "unique indexes must include the shard key"
            )
        for shard in self.shards:
            shard.create_index(path, unique=unique)

    # -- writes -------------------------------------------------------------

    def insert_one(self, document: dict[str, Any]) -> Any:
        doc_id = self._route(document).insert_one(document)
        self._version += 1
        return doc_id

    def insert_many(self, documents: Iterable[dict[str, Any]]) -> list[Any]:
        """Route a batch by grouping per target shard, then bulk-insert.

        One ``Collection.insert_many`` per touched shard, in shard
        order, instead of one routed ``insert_one`` per document.
        A document missing the shard key keeps its per-document error
        semantics: every document *before* it in the batch is inserted,
        then :class:`ShardingError` is raised.  Returned ids are in the
        original batch order.
        """
        documents = list(documents)
        groups: dict[int, list[tuple[int, dict[str, Any]]]] = {}
        routing_error: ShardingError | None = None
        for position, document in enumerate(documents):
            key_value = deep_get(document, self.shard_key, _MISSING)
            if key_value is _MISSING:
                routing_error = ShardingError(
                    f"document missing shard key {self.shard_key!r}"
                )
                break
            shard_index = self.sharder.shard_for(key_value)
            groups.setdefault(shard_index, []).append((position, document))

        ids: dict[int, Any] = {}
        for shard_index, group in sorted(groups.items()):
            shard = self.shards[shard_index]
            before = shard.version
            try:
                doc_ids = shard.insert_many(
                    [document for _, document in group])
            finally:
                # Rows before a refused one stay stored, and count.
                self._version += shard.version - before
            for (position, _), doc_id in zip(group, doc_ids):
                ids[position] = doc_id
        if routing_error is not None:
            raise routing_error
        return [ids[position] for position in sorted(ids)]

    # -- reads -----------------------------------------------------------

    def scan(self, query: dict[str, Any] | None = None
             ) -> Iterator[dict[str, Any]]:
        """:meth:`Collection.scan` (stored rows, uncopied) shard by shard."""
        query = query or {}
        for shard in self._target_shards(query):
            yield from shard.scan(query)

    def rows(self, start: Sequence[int], stop: Sequence[int]
             ) -> list[dict[str, Any]]:
        """Shard ``i``'s stored rows ``start[i]:stop[i]``, shard by shard.

        Uncopied, like :meth:`scan`.  ``start`` / ``stop`` are
        :meth:`shard_sizes` readings, which name the same rows forever
        in an insert-only store.
        """
        return [row for shard, first, last in zip(self.shards, start, stop)
                for row in shard.rows(first, last)]

    def find(self, query: dict[str, Any] | None = None,
             projection: dict[str, int] | None = None) -> Cursor:
        """Scatter-gather (or targeted) find across shards.

        The target shards are scanned one after another and the
        partials concatenated in shard order.
        """
        query = query or {}
        documents = [
            document for shard in self._target_shards(query)
            for document in shard.find(query).to_list()
        ]
        cursor = Cursor(documents)
        if projection is not None:
            cursor.project(projection)
        return cursor

    def find_one(self, query: dict[str, Any] | None = None
                 ) -> dict[str, Any] | None:
        """First matching document, in shard order.

        A non-targeted lookup asks the shards one after another and
        stops at the first hit, so with matches on several shards the
        lowest-numbered shard's document is returned, every time.
        """
        for shard in self._target_shards(query or {}):
            document = shard.find_one(query)
            if document is not None:
                return document
        return None

    def count(self, query: dict[str, Any] | None = None) -> int:
        if not query:
            return sum(len(shard) for shard in self.shards)
        return sum(shard.count(query)
                   for shard in self._target_shards(query))

    # -- aggregation -----------------------------------------------------

    def aggregate(self, stages: list[dict[str, Any]]) -> AggregationResult:
        """Run an aggregation pipeline, its per-document prefix per shard.

        The pipeline is built (its filters compiled) once.  The leading
        run of per-document stages (``$match`` / ``$project`` /
        ``$function``) executes on each shard in turn — including the
        indexed ``$match`` pushdown each shard applies locally — and a
        leading ``$match`` that pins the shard key skips the shards
        owning none of its values.  When the remainder is a ranked page
        (``$sort`` then ``$limit``, optionally with a ``$skip``), the
        per-shard partials are reduced to bounded heaps of the top
        ``skip+limit`` candidates and one more bounded heap merges them
        and cuts the page (one ``$sort(top-k)`` stage), so no full sort
        of the match set ever happens; results are byte-identical to the
        serial pipeline (stable-sort tie order included).  Any other
        remainder runs serially on the gathered partials.
        """
        pipeline = AggregationPipeline(stages)
        split = 0
        while split < len(stages) \
                and next(iter(stages[split])) in _PER_DOCUMENT_STAGES:
            split += 1
        if not split:
            return pipeline.run(self.scan())

        sort_spec, skip, limit, consumed = self._ranked_page_plan(
            stages[split:])
        targets = self.shards
        if "$match" in stages[0]:
            # At least one shard runs, so every stage keeps its stats.
            targets = self._target_shards(stages[0]["$match"]) \
                or self.shards[:1]
        per_shard_stats: list[list[StageStats]] = []
        candidates: list[tuple[tuple[int, int], dict[str, Any]]] = []
        for shard_index, shard in enumerate(self.shards):
            if shard not in targets:
                continue
            partial = pipeline.run(shard, stop=split)
            tagged = [
                ((shard_index, position), document)
                for position, document in enumerate(partial.documents)
            ]
            if sort_spec is not None:
                # Per-shard bounded heap: only the shard's own top
                # skip+limit candidates survive to the merge.
                tagged = top_k_tagged(tagged, sort_spec, skip + limit)
            per_shard_stats.append(partial.stages)
            candidates.extend(tagged)
        stats = _merge_stage_stats(per_shard_stats)

        if sort_spec is None:
            page = [document for _, document in candidates]
        else:
            started = time.perf_counter()
            page = [
                document for _, document
                in top_k_tagged(candidates, sort_spec, skip + limit)[skip:]
            ]
            stats.append(StageStats(
                "$sort(top-k)", stats[-1].docs_out, len(page),
                time.perf_counter() - started,
            ))
            split += consumed
        if split == len(stages):
            return AggregationResult(page, stats)
        rest = pipeline.run(page, start=split)
        return AggregationResult(rest.documents, stats + rest.stages)

    @staticmethod
    def _ranked_page_plan(suffix: list[dict[str, Any]]
                          ) -> tuple[dict[str, int] | None, int, int, int]:
        """Detect a ``$sort [$skip] $limit`` head: the top-k merge plan.

        Returns ``(sort_spec, skip, limit, stages_consumed)``;
        ``(None, 0, 0, 0)`` when the suffix is not a ranked page.
        """
        if not suffix or "$sort" not in suffix[0]:
            return None, 0, 0, 0
        sort_spec = suffix[0]["$sort"]
        skip = 0
        cursor = 1
        if cursor < len(suffix) and "$skip" in suffix[cursor]:
            skip = max(0, int(suffix[cursor]["$skip"]))
            cursor += 1
        if cursor < len(suffix) and "$limit" in suffix[cursor]:
            limit = max(0, int(suffix[cursor]["$limit"]))
            return sort_spec, skip, limit, cursor + 1
        return None, 0, 0, 0

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # -- operations ------------------------------------------------------------

    def shard_sizes(self) -> list[int]:
        """Document count per shard — the E11 skew statistic."""
        return [len(shard) for shard in self.shards]

    def shard_storage_bytes(self) -> list[int]:
        """Serialized bytes per shard."""
        return [shard.storage_bytes() for shard in self.shards]

    def storage_bytes(self) -> int:
        return sum(self.shard_storage_bytes())


def _merge_stage_stats(per_shard: list[list[StageStats]]
                       ) -> list[StageStats]:
    """Fold per-shard prefix statistics into one entry per stage.

    Document counts and ``seconds`` both sum across shards: the shards
    are visited one after another, so a stage costs the sum of their
    times.
    """
    if not per_shard:
        return []
    merged: list[StageStats] = []
    for position, template in enumerate(per_shard[0]):
        stats = [shard_stats[position] for shard_stats in per_shard]
        merged.append(StageStats(
            template.stage,
            sum(stat.docs_in for stat in stats),
            sum(stat.docs_out for stat in stats),
            sum(stat.seconds for stat in stats),
        ))
    return merged
