"""Sharded JSON document store — the MongoDB substitute.

COVIDKG.ORG stores its 450k parsed publications, trained models, and the
knowledge graph itself in a sharded MongoDB cluster and expresses its
search engines as aggregation pipelines (paper Section 2).  This package
reproduces the parts of that stack the system actually exercises:

* the MongoDB-style filter forms the system sends (literal, ``$in``,
  ``$regex``, ``$and``, ``$or``), compiled once per read
  (:mod:`repro.docstore.matching`),
* insert-only collections with indexed reads (:mod:`repro.docstore.collection`),
* hash secondary indexes (:mod:`repro.docstore.indexes`),
* hash sharding with a router (:mod:`repro.docstore.sharding`),
* the aggregation pipeline engine with the six stages the search
  engines run — ``$match``, ``$project``, ``$function`` (its scorer
  inline), ``$sort``, ``$skip``, ``$limit``
  (:mod:`repro.docstore.aggregation`),
* storage accounting (:mod:`repro.docstore.persistence`).

The inverted text index is :mod:`repro.search.columnar`; JSONL
persistence of the store is :func:`repro.api.persistence.save_system`.
"""

from repro.docstore.aggregation import AggregationPipeline, top_k_tagged
from repro.docstore.collection import Collection
from repro.docstore.documents import ObjectId, deep_get, deep_set
from repro.docstore.matching import matches
from repro.docstore.sharding import HashSharder, ShardedCollection

__all__ = [
    "AggregationPipeline",
    "Collection",
    "ObjectId",
    "deep_get",
    "deep_set",
    "matches",
    "HashSharder",
    "ShardedCollection",
    "top_k_tagged",
]
