"""The store is the one record of what was ingested.

``CovidKG.ingested_papers()`` reads the store's rows in insertion order;
``meta_profile()``, ``interrogate_bias()``, snapshot rollback and
``save_system`` all go through it, so a system that took a detour
(rollback, save + reload) audits exactly like one that never did.
``CovidKG.versions()`` is the one list of invalidation counters that
snapshots, ingest receipts, ``/v1/healthz``, ``/v1/stats`` and a save's
``versions.json`` report.  The store is also the only holder of paper
rows: its rows are the search documents every engine and every
columnar segment reads.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import IngestRejectedError
from repro.ingest.engine import IngestEngine
from repro.serve.service import ENGINES, QueryService


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
        assert list(versions) == ["store", "kg"]
        assert receipt.versions == versions
        assert engine.snapshots.latest().versions == versions
        assert service.health()["versions"] == versions


def test_versions_dict_is_read_not_rebuilt(corpus, tmp_path):
    """Stats, an engine-less ingest receipt and ``versions.json``."""
    system = _system(corpus[:10])
    with QueryService(system) as service:
        receipt = service.submit_ingest(corpus[10:12]).result().value
        versions = system.versions()
        assert receipt["versions"] == versions
        assert service.stats()["versions"] == versions
    saved = save_system(system, tmp_path / "saved")
    assert json.loads((saved / "versions.json").read_text()) == versions


def test_reload_never_repeats_a_cache_stamp(corpus, tmp_path):
    """A rollback shrinks the store; a reload must still move forward.

    The shared cache outlives replica restarts, so a stamp the reloaded
    system repeats could make a page cached for the undone batch read
    as fresh again.
    """
    system = _system(corpus[:16])
    with IngestEngine(system, tmp_path / "wal") as engine:
        engine.commit_batch(corpus[16:20])
        engine.rollback("base")
    with QueryService(system) as service:
        before = {name: service._versions(name) for name in ENGINES}
    reloaded = load_system(save_system(system, tmp_path / "saved"))
    with QueryService(reloaded) as service:
        after = {name: service._versions(name) for name in ENGINES}
    assert all(after[name] > before[name] for name in ENGINES), \
        (before, after)


def test_a_paper_is_held_once(corpus, tmp_path):
    system = _system(corpus[:12])
    with IngestEngine(system, tmp_path / "wal") as engine:
        system.search("vaccine")
        engine.commit_batch(corpus[12:16])  # a delta segment too
        system.search("vaccine")
    assert system.search_corpus.collection is system.store
    for engine in (system.all_fields, system.title_abstract, system.tables):
        assert engine.collection is system.store
    stored = {id(row) for row in system.store.scan()}
    held = [row for segment in system.search_corpus.columnar_index().segments
            for row in segment.documents]
    assert len(held) == len(stored) == 16
    assert all(id(row) in stored for row in held)
    row = system.store.find_one({"paper_id": corpus[0]["paper_id"]})
    assert set(row) >= {"search", "static_rank"}


def test_existence_checks_copy_no_rows(corpus, tmp_path, monkeypatch):
    import repro.docstore.collection as collection_module

    system = _system(corpus[:8])
    copied = []
    real_copy = collection_module.deep_copy_document
    monkeypatch.setattr(
        collection_module, "deep_copy_document",
        lambda document: copied.append(document) or real_copy(document),
    )
    report = system.ingest(corpus[:8], skip_duplicates=True)
    assert report.subtrees == 0
    with IngestEngine(system, tmp_path / "wal") as engine, \
            pytest.raises(IngestRejectedError, match="already exist"):
        engine.commit_batch(corpus[:2])
    assert copied == []


def test_saved_publications_are_the_papers_as_ingested(corpus, tmp_path):
    """The store's rows carry the search fields; the save does not.

    The digest is the file an earlier layout (a plain paper store beside
    a separate search collection) wrote for the same papers.
    """
    saved = save_system(_system(corpus[:30]), tmp_path / "saved")
    data = (saved / "publications.jsonl").read_bytes()
    assert b'"search"' not in data and b'"static_rank"' not in data
    assert hashlib.sha256(data).hexdigest() == (
        "e8330e3215092ea5062812092ce80f2a2dff7cb8112dcb3abd86736891ce553c")
