"""The store is the one record of what was ingested.

``CovidKG.ingested_papers()`` reads the store's rows in insertion order;
``meta_profile()``, ``interrogate_bias()``, snapshot rollback and
``save_system`` all go through it, so a system that took a detour
(rollback, save + reload) audits exactly like one that never did.
``CovidKG.versions()`` is the one list of invalidation counters that
snapshots, ingest receipts and ``/v1/healthz`` report.
"""

import dataclasses
import json

import pytest

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.ingest.engine import IngestEngine
from repro.serve.service import QueryService


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(GeneratorConfig(
        seed=43, papers_per_week=20, tables_per_paper=(1, 2),
    )).papers(44)


def _system(papers):
    # Four shards: shard order differs from insertion order.
    system = CovidKG(CovidKGConfig(num_shards=4))
    system.ingest(papers)
    return system


def _audits(system):
    return (
        json.dumps(system.meta_profile().to_json()),
        json.dumps(dataclasses.asdict(system.interrogate_bias())),
    )


def test_rollback_and_reload_audit_like_a_reference(corpus, tmp_path):
    reference = _system(corpus[:38])
    system = _system(corpus[:30])
    with IngestEngine(system, tmp_path / "wal") as engine:
        for start, stop in ((30, 34), (34, 38), (38, 44)):
            engine.commit_batch(corpus[start:stop])
        snapshot = engine.rollback("batch-000002")
    assert snapshot.num_papers == len(system.store) == 38
    expected = _audits(reference)
    assert _audits(system) == expected
    reloaded = load_system(save_system(system, tmp_path / "saved"))
    assert _audits(reloaded) == expected


def test_ingested_papers_are_insertion_ordered_copies(corpus):
    system = _system(corpus[:12])
    papers = system.ingested_papers()
    assert [paper["paper_id"] for paper in papers] == \
        [paper["paper_id"] for paper in corpus[:12]]
    assert all("_id" not in paper for paper in papers)
    papers[0]["title"] = "mutated"
    assert system.ingested_papers()[0]["title"] == corpus[0]["title"]


def test_one_versions_dict_for_snapshot_receipt_and_healthz(corpus,
                                                            tmp_path):
    system = _system(corpus[:10])
    with IngestEngine(system, tmp_path) as engine, \
            QueryService(system) as service:
        service.attach_ingest(engine)
        receipt = engine.commit_batch(corpus[10:14])
        versions = system.versions()
        assert list(versions) == ["store", "kg", "corpus"]
        assert receipt.versions == versions
        assert engine.snapshots.latest().versions == versions
        assert service.health()["versions"] == versions
