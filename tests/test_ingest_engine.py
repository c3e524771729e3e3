"""IngestEngine: commit, quality gate, rollback, crash replay, merge.

The recurring assertion here is **byte identity**: after any recovery
path (rollback, crash replay, merge) the system must answer
queries with pages identical to a reference system that never took the
detour.
"""

import pytest

from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import (
    IngestRejectedError,
    SnapshotNotFoundError,
)
from repro.ingest.engine import IngestEngine

QUERIES = ["covid vaccine", "antibody response", "clinical trial",
           "side effects"]


def _corpus(count):
    return CorpusGenerator(GeneratorConfig(
        seed=41, papers_per_week=20, tables_per_paper=(1, 2),
    )).papers(count)


def _fresh_system(papers):
    system = CovidKG(CovidKGConfig(num_shards=2))
    if papers:
        system.ingest(papers)
    return system


def _pages(system):
    """Full result pages for every probe query — the identity probe."""
    pages = {}
    for query in QUERIES:
        results = system.search(query, page=1)
        pages[query] = [
            (hit.paper_id, hit.score, hit.title, tuple(
                sorted(hit.snippets.items())))
            for hit in results
        ] + [("total", results.total_matches)]
    pages["kg"] = [
        (hit.node.label, hit.score) for hit in
        system.search_graph("side effects", top_k=8)
    ]
    return pages


def _wal_bytes(engine):
    return sum(path.stat().st_size for path in engine.wal.segment_paths())


def _graph_holders(system):
    """``(holder class, graph)`` for every attribute, anywhere under
    ``vars(system)``, that holds a knowledge graph."""
    from repro.kg.graph import KnowledgeGraph

    holders, seen, frontier = [], set(), [system]
    while frontier:
        holder = frontier.pop()
        if id(holder) in seen:
            continue
        seen.add(id(holder))
        for value in vars(holder).values():
            if isinstance(value, KnowledgeGraph):
                holders.append((type(holder).__name__, value))
            elif type(value).__module__.startswith("repro.") \
                    and hasattr(value, "__dict__"):
                frontier.append(value)
    return holders


@pytest.fixture(scope="module")
def corpus():
    return _corpus(50)


class TestCommit:
    def test_receipt_and_visibility(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        before = system.search("covid", page=1).total_matches
        with IngestEngine(system, tmp_path) as engine:
            receipt = engine.commit_batch(corpus[30:40])
            assert receipt.accepted == 10
            assert receipt.seq == 1
            assert receipt.snapshot == "batch-000001"
            assert receipt.batch_id == "ingest-000001"
            assert receipt.versions == system.versions()
            after = system.search("covid", page=1).total_matches
            assert after >= before
            assert len(system.store) == 40

    def test_quality_gate_rejects_batch_atomically(self, corpus,
                                                   tmp_path):
        system = _fresh_system(corpus[:20])
        bad = dict(corpus[25])
        bad.pop("abstract")
        store, versions = system.store, system.versions()
        with IngestEngine(system, tmp_path) as engine:
            with pytest.raises(IngestRejectedError) as info:
                engine.commit_batch([corpus[20], bad, corpus[21]])
            rejects = info.value.rejects
            assert len(rejects) == 1
            assert rejects[0]["paper_id"] == bad["paper_id"]
            # All-or-nothing: the two valid papers did not land either.
            assert len(system.store) == 20
            assert engine.wal.segment_paths() == []
            # Refused, not failed: no snapshot restore rebuilt the store.
            assert system.store is store
            assert system.versions() == versions

    def test_malformed_table_rows_rejected(self, corpus, tmp_path):
        system = _fresh_system(corpus[:5])
        shapes = {
            "rows not a list": "not-a-list",
            "bare-list row": [["Vaccine", "Dose 1 (%)"], ["Pfizer", "12"]],
            "bare-string cell": [{"cells": ["Vaccine", "Dose 1 (%)"]}],
        }
        for shape, rows in shapes.items():
            bad = dict(corpus[10])
            bad["tables"] = [{"caption": "c", "rows": rows}]
            with IngestEngine(system, tmp_path / shape) as engine:
                with pytest.raises(IngestRejectedError):
                    engine.commit_batch([bad])
                assert engine.wal.replay().batches == [], shape
            # The library path refuses the same shape before storing it.
            with pytest.raises(IngestRejectedError):
                system.ingest([bad])
            assert len(system.store) == 5, shape

    def test_store_duplicates_preflighted(self, corpus, tmp_path):
        system = _fresh_system(corpus[:20])
        store, versions = system.store, system.versions()
        with IngestEngine(system, tmp_path) as engine:
            with pytest.raises(IngestRejectedError) as info:
                engine.commit_batch([corpus[19], corpus[20]])
            assert info.value.rejects[0]["paper_id"] == \
                corpus[19]["paper_id"]
            # The duplicate was caught before anything was logged or
            # applied: the valid paper did not sneak in.
            assert len(system.store) == 20
            assert engine.wal.replay().batches == []
            # Refused, not failed: no snapshot restore rebuilt the store.
            assert system.store is store
            assert system.versions() == versions

    def test_skip_duplicates_reports_actual_insertions(self, corpus,
                                                       tmp_path):
        system = _fresh_system(corpus[:20])
        with IngestEngine(system, tmp_path) as engine:
            receipt = engine.commit_batch(corpus[15:25],
                                          skip_duplicates=True)
            assert receipt.accepted == 5  # 5 were redeliveries
            assert len(system.store) == 25

    def test_a_batch_that_lands_nothing_commits_nothing(self, corpus,
                                                        tmp_path):
        system = _fresh_system(corpus[:20])
        with IngestEngine(system, tmp_path) as engine:
            first = engine.commit_batch(corpus[20:30],
                                        skip_duplicates=True)
            wal_bytes = _wal_bytes(engine)
            names = engine.snapshots.names()
            versions = system.versions()
            again = engine.commit_batch(corpus[20:30],
                                        skip_duplicates=True)
            assert (again.accepted, again.subtrees) == (0, 0)
            assert (again.seq, again.snapshot) == \
                (first.seq, first.snapshot) == (1, "batch-000001")
            assert again.versions == first.versions == versions
            assert _wal_bytes(engine) == wal_bytes
            assert engine.snapshots.names() == names
            assert system.versions() == versions
            reference = _pages(system)

        recovered = _fresh_system(corpus[:20])
        with IngestEngine(recovered, tmp_path) as engine:
            assert engine.replay() == 1
            assert _pages(recovered) == reference
            assert len(recovered.store) == 30
            assert engine.snapshots.names() == names
            receipt = engine.commit_batch(corpus[20:30],
                                          skip_duplicates=True)
            assert (receipt.accepted, receipt.seq) == (0, 1)


class TestRollback:
    def test_rollback_restores_byte_identical_pages(self, corpus,
                                                    tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            reference = _pages(system)
            engine.commit_batch(corpus[40:50])
            assert _pages(system) != reference  # the batch did change
            snapshot = engine.rollback("batch-000001")
            assert snapshot.seq == 1
            assert _pages(system) == reference
            assert len(system.store) == 40

    def test_rollback_after_folds_rebuilds_the_index(self, corpus,
                                                     tmp_path):
        system = _fresh_system(corpus[:30])
        system.search("covid")  # materialize the base columnar index
        base = system.search_corpus.columnar_index()
        with IngestEngine(system, tmp_path) as engine:
            for start in range(30, 46, 4):
                engine.commit_batch(corpus[start:start + 4])
                system.search("covid")
                if start == 34:
                    reference = _pages(system)
            folded = system.search_corpus.columnar_index()
            assert folded.segments[0] is base.segments[0]
            assert [s.num_rows for s in folded.segments] == [30, 16]
            engine.rollback("batch-000002")
            assert _pages(system) == reference
            rebuilt = system.search_corpus.columnar_index()
            assert [s.num_rows for s in rebuilt.segments] == [38]
            assert rebuilt.segments[0] is not base.segments[0]

    def test_rollback_to_base_empties_streamed_corpus(self, corpus,
                                                      tmp_path):
        system = _fresh_system(corpus[:30])
        reference = _pages(system)
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            engine.rollback("base")
            assert _pages(system) == reference
            assert len(system.store) == 30

    def test_version_counters_never_repeat(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            before = system.versions()
            engine.rollback("base")
            after = system.versions()
            for name, value in after.items():
                assert value > before[name], name

    def test_no_holder_keeps_a_replaced_graph(self, corpus, tmp_path):
        """After ``rollback`` and after ``load_system`` every graph
        consumer answers from (and fusion writes into) the one restored
        graph: the detoured system then tracks a reference that never
        took the detour through one more ingest."""
        from repro.api.persistence import load_system, save_system

        kgql = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e'

        def answers(system):
            result = system.query_graph(kgql)
            return (_pages(system), system.graph.statistics(),
                    result.total_matches,
                    [[row.bindings[var]["label"] for var in result.columns]
                     for row in result.rows])

        reference = _fresh_system(corpus[:40])
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path / "wal") as engine:
            engine.commit_batch(corpus[30:40])
            engine.commit_batch(corpus[40:50])
            discarded = system.graph
            engine.rollback("batch-000001")
        reloaded = load_system(save_system(reference, tmp_path / "saved"))
        for detoured in (system, reloaded):
            holders = _graph_holders(detoured)
            assert {name for name, _graph in holders} >= {
                "CovidKG", "NodeMatcher", "FusionEngine",
                "KGSearchEngine", "KGQLEngine"}
            assert all(graph is detoured.graph for _name, graph in holders)
            assert detoured.graph is not discarded
            assert answers(detoured) == answers(reference)
            label = next(node.label for node in detoured.graph.walk()
                         if node.provenance)
            assert detoured.matcher.match(label).node \
                is detoured.graph.find_by_label(label)[0]
        for each in (reference, system, reloaded):
            each.ingest(corpus[40:45])
        assert answers(system) == answers(reference)
        assert answers(reloaded) == answers(reference)

    def test_rollback_drops_newer_snapshots(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:35])
            engine.commit_batch(corpus[35:40])
            engine.rollback("batch-000001")
            assert "batch-000002" not in engine.snapshots
            with pytest.raises(SnapshotNotFoundError):
                engine.rollback("batch-000002")
            # The sequence resumes from the restore point.
            receipt = engine.commit_batch(corpus[35:40])
            assert receipt.seq == 2

    def test_unknown_snapshot_is_typed_error(self, corpus, tmp_path):
        system = _fresh_system(corpus[:5])
        with IngestEngine(system, tmp_path) as engine:
            with pytest.raises(SnapshotNotFoundError):
                engine.rollback("batch-999999")


class TestCrashReplay:
    def test_replay_reproduces_committed_state(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            engine.commit_batch(corpus[40:50])
            reference = _pages(system)

        # "Crash": a brand-new process builds the same base and replays.
        recovered = _fresh_system(corpus[:30])
        with IngestEngine(recovered, tmp_path) as engine:
            assert engine.replay() == 2
            assert _pages(recovered) == reference
            assert len(recovered.store) == 50
            # New batch ids continue past the replayed ones.
            receipt = engine.commit_batch(
                _corpus(55)[50:], skip_duplicates=True)
            assert receipt.batch_id == "ingest-000003"

    def test_replay_honours_logged_rollback(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            reference = _pages(system)
            engine.commit_batch(corpus[40:50])
            engine.rollback("batch-000001")

        recovered = _fresh_system(corpus[:30])
        with IngestEngine(recovered, tmp_path) as engine:
            assert engine.replay() == 1
            assert _pages(recovered) == reference

    def test_torn_batch_is_invisible_after_apply_failure(self, corpus,
                                                         tmp_path):
        system = _fresh_system(corpus[:30])
        engine = IngestEngine(system, tmp_path)
        reference = _pages(system)

        original = system.ingest

        def exploding_ingest(papers, skip_duplicates=False):
            # Apply half the batch, then die — the worst-case partial.
            original(papers[:3], skip_duplicates=skip_duplicates)
            raise RuntimeError("simulated crash mid-apply")

        system.ingest = exploding_ingest
        try:
            with pytest.raises(RuntimeError):
                engine.commit_batch(corpus[30:40])
        finally:
            system.ingest = original
            engine.close()
        # Memory was restored from the snapshot...
        assert _pages(system) == reference
        assert len(system.store) == 30
        # ...and the torn WAL batch replays to nothing.
        recovered = _fresh_system(corpus[:30])
        with IngestEngine(recovered, tmp_path) as engine:
            assert engine.replay() == 0
            assert _pages(recovered) == reference


class TestMergeAndCheckpoint:
    def test_merge_is_byte_identical_to_rebuild(self, corpus, tmp_path):
        streamed = _fresh_system(corpus[:30])
        _pages(streamed)  # materialize the base columnar index first
        with IngestEngine(streamed, tmp_path) as engine:
            engine.commit_batch(corpus[30:40])
            engine.commit_batch(corpus[40:50])
            with_deltas = _pages(streamed)
            assert streamed.search_corpus.delta_rows > 0
            assert engine.merge_now() >= 1
            assert streamed.search_corpus.delta_rows == 0
            assert _pages(streamed) == with_deltas
        # And both equal a system that indexed everything offline.
        offline = _fresh_system(corpus[:50])
        assert _pages(offline) == with_deltas

    def test_the_fold_alone_bounds_the_tier_past_256_documents(
            self, tmp_path):
        """70 four-paper commits, 280 documents: past the 256 at which a
        background thread used to re-analyse the whole corpus.  Nothing
        runs beside the caller, the fold keeps the delta tier
        logarithmic, and pages equal a one-shot build's and the scalar
        pipeline's."""
        import threading

        papers = _corpus(30 + 70 * 4)
        system = _fresh_system(papers[:30])
        system.search("covid")  # materialize the base columnar index
        with IngestEngine(system, tmp_path) as engine:
            for start in range(30, len(papers), 4):
                engine.commit_batch(papers[start:start + 4])
                system.search("covid")  # the refresh folds the new run
                stats = engine.stats()
                assert stats["delta_segments"] <= \
                    stats["delta_rows"]["all_fields"].bit_length()
            assert "ingest-merge" not in {
                thread.name for thread in threading.enumerate()}
            assert stats["delta_rows"]["all_fields"] == 280
            streamed = _pages(system)
        assert streamed == _pages(_fresh_system(papers))
        system.all_fields.use_columnar = False
        assert _pages(system) == streamed

    def test_checkpoint_persists_and_truncates(self, corpus, tmp_path):
        from repro.api.persistence import load_system

        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path / "ingest") as engine:
            engine.commit_batch(corpus[30:40])
            reference = _pages(system)
            engine.checkpoint(tmp_path / "saved")
            assert engine.wal.segment_paths() == []

        reloaded = load_system(tmp_path / "saved")
        assert _pages(reloaded) == reference

    def test_checkpoint_concurrent_with_commits_loses_nothing(
            self, corpus, tmp_path):
        """Every acknowledged batch survives a restart: it lands in the
        checkpoint or stays in the WAL, never in neither.  (checkpoint
        must hold the write lock across save + truncate, or a commit
        can slip between them and vanish.)"""
        import threading
        import time

        from repro.api.persistence import load_system

        system = _fresh_system(corpus[:10])
        wal_dir = tmp_path / "ingest"
        saved_dir = tmp_path / "saved"
        errors = []
        batches = [corpus[i:i + 2] for i in range(10, 50, 2)]

        def _committer(engine):
            try:
                for batch in batches:
                    engine.commit_batch(batch)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with IngestEngine(system, wal_dir) as engine:
            thread = threading.Thread(target=_committer, args=(engine,))
            thread.start()
            while thread.is_alive():
                engine.checkpoint(saved_dir)
                time.sleep(0.001)
            thread.join()
        assert not errors

        restarted = load_system(saved_dir)
        with IngestEngine(restarted, wal_dir) as recovered:
            recovered.replay()
        for paper in corpus[10:50]:
            assert restarted.store.find_one(
                {"paper_id": paper["paper_id"]}) is not None, (
                f"acknowledged paper {paper['paper_id']} lost across "
                "checkpoint + replay")

    def test_stats_shape(self, corpus, tmp_path):
        system = _fresh_system(corpus[:30])
        with IngestEngine(system, tmp_path) as engine:
            engine.commit_batch(corpus[30:35])
            stats = engine.stats()
            assert stats["seq"] == 1
            assert stats["snapshots"] == ["base", "batch-000001"]
            assert stats["wal_segments"] >= 1
            assert set(stats["delta_rows"]) == \
                {"all_fields", "title_abstract", "table"}
            assert stats["delta_segments"] == 0  # no index built yet
            system.search("covid")
            engine.commit_batch(corpus[35:40])
            engine.commit_batch(corpus[40:44])
            system.search("covid")
            stats = engine.stats()
            assert stats["delta_rows"]["all_fields"] == 9
            assert stats["delta_segments"] == 1  # the 4 folded the 5 in
