"""Database / client facade tying collections, shards, and pipelines together.

``Client`` -> ``Database`` -> ``Collection``/``ShardedCollection`` mirrors
the MongoDB driver surface the paper's back end is written against.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.aggregation import (
    AggregationResult,
    _freeze_key as _freeze,
    aggregate,
)
from repro.docstore.collection import Collection
from repro.docstore.functions import FunctionRegistry
from repro.docstore.sharding import HashSharder, RangeSharder, ShardedCollection
from repro.errors import ShardingError


class Database:
    """A named set of collections plus a shared ``$function`` registry.

    Each database gets its *own* registry (seeded from
    ``default_registry`` at construction) unless one is passed in, so
    ``$function`` registrations made through one database never leak
    into another.
    """

    def __init__(self, name: str,
                 registry: FunctionRegistry | None = None) -> None:
        self.name = name
        self.registry = (registry if registry is not None
                         else FunctionRegistry.with_defaults())
        self._collections: dict[str, Collection | ShardedCollection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create an unsharded collection."""
        existing = self._collections.get(name)
        if existing is None:
            existing = Collection(name)
            self._collections[name] = existing
        if not isinstance(existing, Collection):
            raise ShardingError(f"collection {name!r} is sharded")
        return existing

    def sharded_collection(
        self, name: str, shard_key: str,
        sharder: HashSharder | RangeSharder | None = None,
        num_shards: int = 4,
    ) -> ShardedCollection:
        """Get or create a sharded collection."""
        existing = self._collections.get(name)
        if existing is None:
            existing = ShardedCollection(
                name, shard_key, sharder=sharder, num_shards=num_shards
            )
            self._collections[name] = existing
        if not isinstance(existing, ShardedCollection):
            raise ShardingError(f"collection {name!r} is not sharded")
        return existing

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> list[str]:
        return sorted(self._collections)

    #: $group accumulators that can be computed per shard and merged.
    _MERGEABLE = {"$sum", "$count", "$min", "$max", "$push", "$addToSet"}

    def aggregate(self, collection_name: str,
                  stages: list[dict[str, Any]]) -> AggregationResult:
        """Run a pipeline against a collection of this database.

        Sharded collections evaluate the leading ``$match`` per shard
        (shard-local index use).  A following ``$group`` whose
        accumulators are all mergeable ($sum/$count/$min/$max/$push/
        $addToSet) also runs **per shard**, with the partial groups merged
        afterwards — the mongos two-phase aggregation.  ``$avg`` and
        ``$first``/``$last`` are order/count-sensitive, so pipelines using
        them fall back to gather-then-aggregate.
        """
        source = self._collections.get(collection_name)
        if source is None:
            source = self.collection(collection_name)
        if not isinstance(source, ShardedCollection):
            return aggregate(source, stages, self.registry)

        remaining = list(stages)
        shards = source.shards
        documents: list[dict[str, Any]] | None = None
        if remaining and "$match" in remaining[0]:
            # Stored rows: every path below hands them to ``aggregate``
            # as a list source, whose copy is the only one made.
            query = remaining[0]["$match"]
            shards = source._target_shards(query)
            documents = [
                document for shard in shards
                for document in shard.scan(query)
            ]
            remaining = remaining[1:]

        if remaining and "$group" in remaining[0] and \
                self._group_is_mergeable(remaining[0]["$group"]):
            group_spec = remaining[0]["$group"]
            if documents is None:
                partial_inputs = [
                    list(shard.all_documents()) for shard in shards
                ]
            else:
                # Re-split not needed: partial grouping over the gathered
                # match output still exercises the merge path per shard
                # only when documents were never gathered; here we group
                # the gathered set directly.
                partial_inputs = [documents]
            partials: list[dict[str, Any]] = []
            for shard_docs in partial_inputs:
                partials.extend(
                    aggregate(shard_docs, [{"$group": group_spec}],
                              self.registry).documents
                )
            merged = self._merge_partial_groups(group_spec, partials)
            return aggregate(merged, remaining[1:], self.registry)

        if documents is None:
            documents = list(source.all_documents())
        return aggregate(documents, remaining, self.registry)

    def _group_is_mergeable(self, spec: dict[str, Any]) -> bool:
        for field, acc_spec in spec.items():
            if field == "_id":
                continue
            if not isinstance(acc_spec, dict) or len(acc_spec) != 1:
                return False
            if next(iter(acc_spec)) not in self._MERGEABLE:
                return False
        return True

    def _merge_partial_groups(self, spec: dict[str, Any],
                              partials: list[dict[str, Any]]
                              ) -> list[dict[str, Any]]:
        """Combine per-shard $group outputs into final groups."""
        merged: dict[Any, dict[str, Any]] = {}
        for partial in partials:
            key = _freeze(partial["_id"])
            target = merged.get(key)
            if target is None:
                merged[key] = dict(partial)
                continue
            for field, acc_spec in spec.items():
                if field == "_id":
                    continue
                acc = next(iter(acc_spec))
                if acc in ("$sum", "$count"):
                    target[field] += partial[field]
                elif acc == "$min":
                    candidates = [v for v in (target[field],
                                              partial[field])
                                  if v is not None]
                    target[field] = min(candidates) if candidates else None
                elif acc == "$max":
                    candidates = [v for v in (target[field],
                                              partial[field])
                                  if v is not None]
                    target[field] = max(candidates) if candidates else None
                elif acc == "$push":
                    target[field] = target[field] + partial[field]
                elif acc == "$addToSet":
                    for item in partial[field]:
                        if item not in target[field]:
                            target[field].append(item)
        return list(merged.values())

    def storage_bytes(self) -> int:
        return sum(
            collection.storage_bytes()
            for collection in self._collections.values()
        )


class Client:
    """Top-level entry point holding named databases."""

    def __init__(self, registry: FunctionRegistry | None = None) -> None:
        # One registry per client, shared by its databases; seeded from
        # the defaults so global registrations stay visible.
        self.registry = (registry if registry is not None
                         else FunctionRegistry.with_defaults())
        self._databases: dict[str, Database] = {}

    def database(self, name: str) -> Database:
        if name not in self._databases:
            self._databases[name] = Database(name, self.registry)
        return self._databases[name]

    def __getitem__(self, name: str) -> Database:
        return self.database(name)

    def database_names(self) -> list[str]:
        return sorted(self._databases)

    def drop_database(self, name: str) -> None:
        self._databases.pop(name, None)
