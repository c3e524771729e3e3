"""One ingest rule: a batch lands whole or not at all, on every path.

``CovidKG.ingest`` is the one statement of what a batch may add; the
engine, the serving tier and WAL replay build on it.  A refused batch
must leave the store, the graph and the counters exactly as they were,
or its valid papers would be stored without being fused: their facts
never reach the graph, and a redelivery is then refused as a duplicate.

The checkpoint tests hold the engine to the same standard across a
restart: after a checkpoint a rollback names only what a restart from
that checkpoint could rebuild, so the live state and the replayed one
agree.
"""

import hashlib
import json

import pytest

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import IngestRejectedError, SnapshotNotFoundError
from repro.ingest.engine import IngestEngine


def _corpus(count):
    return CorpusGenerator(GeneratorConfig(
        seed=3, papers_per_week=20, tables_per_paper=(1, 2),
    )).papers(count)


@pytest.fixture(scope="module")
def corpus():
    return _corpus(36)


def _graph_digest(system):
    text = json.dumps(system.graph.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _state(system):
    return ([paper["paper_id"] for paper in system.ingested_papers()],
            _graph_digest(system))


def _without_abstract(paper):
    invalid = dict(paper)
    invalid.pop("abstract")
    return invalid


#: A valid new paper first, then the one that fails the batch at index 1.
REFUSED_BATCHES = {
    "schema-invalid": lambda papers: [papers[2],
                                      _without_abstract(papers[3])],
    "one paper twice": lambda papers: [papers[2], papers[2]],
    "already stored": lambda papers: [papers[2], papers[0]],
}


@pytest.mark.parametrize("case", sorted(REFUSED_BATCHES))
def test_refused_library_batch_changes_nothing(corpus, case):
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(corpus[:2])
    stored, versions = len(system.store), system.versions()
    digest = _graph_digest(system)

    with pytest.raises(IngestRejectedError) as info:
        system.ingest(REFUSED_BATCHES[case](corpus))
    assert [reject["index"] for reject in info.value.rejects] == [1]
    assert len(system.store) == stored
    assert system.versions() == versions
    assert _graph_digest(system) == digest

    # The valid paper was not stranded: redelivered alone, it lands and
    # the graph cites it.
    paper_id = corpus[2]["paper_id"]
    report = system.ingest([corpus[2]])
    assert report.papers == 1
    assert len(system.store) == stored + 1
    assert any(paper_id in node.provenance
               for node in system.graph.walk() if node.is_leaf)


def test_empty_batch_is_a_library_no_op_and_an_engine_refusal(corpus,
                                                             tmp_path):
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(corpus[:2])
    versions = system.versions()
    assert system.ingest([]).papers == 0
    assert system.versions() == versions
    with IngestEngine(system, tmp_path) as engine:
        with pytest.raises(IngestRejectedError, match="empty"):
            engine.commit_batch([])
        assert engine.wal.segment_paths() == []


def _reloaded(papers, directory):
    system = CovidKG(CovidKGConfig(num_shards=2))
    system.ingest(papers)
    return load_system(save_system(system, directory))


def _restart(saved, wal_dir):
    restarted = load_system(saved)
    with IngestEngine(restarted, wal_dir) as engine:
        replayed = engine.replay()
    return restarted, replayed


@pytest.mark.parametrize("target, papers", [("batch-000002", 30),
                                            ("batch-000005", 36)])
def test_restart_after_checkpoint_keeps_a_later_rollback(
        corpus, tmp_path, target, papers):
    """Three 2-paper commits, a checkpoint, five more, a rollback: the
    restart lands where the live engine did.  (Before a checkpoint reset
    the engine's seq, ``batch-000002`` named a pre-checkpoint state live
    but the second post-checkpoint batch on replay.)"""
    saved, wal_dir = tmp_path / "saved", tmp_path / "ingest"
    system = _reloaded(corpus[:20], saved)
    with IngestEngine(system, wal_dir) as engine:
        for start in range(20, 26, 2):
            engine.commit_batch(corpus[start:start + 2])
        engine.checkpoint(saved)
        for start in range(26, 36, 2):
            engine.commit_batch(corpus[start:start + 2])
        engine.rollback(target)
        live = _state(system)
    assert len(live[0]) == papers
    restarted, _replayed = _restart(saved, wal_dir)
    assert _state(restarted) == live


def test_rollback_past_a_checkpoint_is_refused(corpus, tmp_path):
    """A checkpoint leaves one restore point; a name from before it is
    unknown, and the next boot replays the checkpointed state."""
    saved, wal_dir = tmp_path / "saved", tmp_path / "ingest"
    system = _reloaded(corpus[:20], saved)
    with IngestEngine(system, wal_dir) as engine:
        for start in range(20, 26, 2):
            engine.commit_batch(corpus[start:start + 2])
        engine.checkpoint(saved)
        with pytest.raises(SnapshotNotFoundError):
            engine.rollback("batch-000002")
        assert engine.snapshots.names() == ["base"]
        live = _state(system)
    restarted, replayed = _restart(saved, wal_dir)
    assert replayed == 0
    assert _state(restarted) == live
