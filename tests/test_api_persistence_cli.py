"""Tests for system persistence, model serialization, and the CLI."""

import json

import numpy as np
import pytest

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.classify.dataset import MetadataDataset
from repro.classify.svm_model import SvmMetadataClassifier
from repro.cli import main
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.embeddings.word2vec import Word2Vec
from repro.errors import NotFittedError, PersistenceError
from repro.text.vocabulary import Vocabulary


@pytest.fixture(scope="module")
def corpus():
    return CorpusGenerator(GeneratorConfig(
        seed=51, tables_per_paper=(1, 2),
    )).papers(24)


@pytest.fixture(scope="module")
def built_system(corpus):
    system = CovidKG(CovidKGConfig(num_shards=2, vocabulary_size=10_000,
                                   wdc_training_tables=20, seed=5))
    system.train(corpus[:10], word2vec_epochs=1)
    system.ingest(corpus)
    return system


class TestVocabularySerialization:
    def test_roundtrip(self):
        vocab = Vocabulary.from_texts(["fever cough fever", "rash"],
                                      drop_stopwords=False)
        restored = Vocabulary.from_json(vocab.to_json())
        assert restored.terms == vocab.terms
        assert restored.count_of("fever") == 2


class TestWord2VecSerialization:
    def test_roundtrip(self, tmp_path):
        sentences = ["vaccine dose antibody"] * 20
        vocab = Vocabulary.from_texts(sentences, drop_stopwords=False)
        model = Word2Vec(vocab, dim=8, seed=1).fit(sentences, epochs=2)
        model.save(tmp_path / "w2v.npz")
        restored = Word2Vec.load(tmp_path / "w2v.npz")
        np.testing.assert_array_equal(
            restored.vector("vaccine"), model.vector("vaccine")
        )
        assert restored.dim == 8
        # Restored models can keep fine-tuning.
        restored.fit(sentences, epochs=1, fine_tune=True)

    def test_untrained_save_rejected(self, tmp_path):
        vocab = Vocabulary.from_texts(["a b"], drop_stopwords=False)
        with pytest.raises(NotFittedError):
            Word2Vec(vocab).save(tmp_path / "x.npz")


class TestClassifierSerialization:
    def test_roundtrip_predictions_identical(self, tmp_path):
        dataset = MetadataDataset.from_wdc(20, seed=7)
        model = SvmMetadataClassifier(seed=7).fit(dataset)
        model.save(tmp_path / "clf.npz")
        restored = SvmMetadataClassifier.load(tmp_path / "clf.npz")
        np.testing.assert_array_equal(
            restored.predict(dataset), model.predict(dataset)
        )

    def test_untrained_save_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            SvmMetadataClassifier().save(tmp_path / "x.npz")


class TestSystemPersistence:
    def test_roundtrip_preserves_queries(self, built_system, corpus,
                                         tmp_path):
        save_system(built_system, tmp_path / "sys")
        restored = load_system(tmp_path / "sys")

        assert len(restored.store) == len(built_system.store)
        original = built_system.search("vaccine")
        reloaded = restored.search("vaccine")
        assert reloaded.total_matches == original.total_matches
        # Scores must match exactly; ties may legally reorder after the
        # reload (fresh document ids), so compare (score, id) as sets.
        assert {
            (round(r.score, 9), r.paper_id) for r in reloaded
        } == {
            (round(r.score, 9), r.paper_id) for r in original
        }

    def test_roundtrip_preserves_graph(self, built_system, tmp_path):
        save_system(built_system, tmp_path / "sys2")
        restored = load_system(tmp_path / "sys2")
        assert restored.graph.statistics() == (
            built_system.graph.statistics()
        )
        hits = restored.search_graph("vaccines")
        assert hits and hits[0].rendered_path().startswith("COVID-19")

    def test_restored_models_registered(self, built_system, tmp_path):
        save_system(built_system, tmp_path / "sys3")
        restored = load_system(tmp_path / "sys3")
        assert "covidkg-word2vec" in restored.registry
        assert "covidkg-metadata-svm" in restored.registry
        assert restored.classifier is not None

    def test_restored_system_can_keep_ingesting(self, built_system,
                                                tmp_path):
        save_system(built_system, tmp_path / "sys4")
        restored = load_system(tmp_path / "sys4")
        extra = CorpusGenerator(GeneratorConfig(
            seed=99, tables_per_paper=(1, 1),
        )).papers(3)
        # Paper ids are a function of the index alone; disambiguate so
        # they do not collide with the already-ingested corpus.
        extra = [
            {**paper, "paper_id": f"extra-{paper['paper_id']}"}
            for paper in extra
        ]
        restored.ingest(extra)
        assert len(restored.store) == len(built_system.store) + 3

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_system(tmp_path / "nothing")

    @staticmethod
    def _patch_config(directory, **extra):
        path = directory / "config.json"
        saved = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**saved, **extra}), encoding="utf-8")

    def test_saves_with_retired_config_keys_still_load(self, built_system,
                                                       tmp_path):
        """Every save made before the keys were retired carries them."""
        directory = save_system(built_system, tmp_path / "old")
        self._patch_config(directory, search_shards=3, columnar=True,
                           validate_pipelines=True)
        restored = load_system(directory)
        for query in ("vaccine", "side effects", '"side effects"'):
            for page in (1, 2):
                assert [
                    (hit.paper_id, hit.score)
                    for hit in restored.search(query, page=page)
                ] == [
                    (hit.paper_id, hit.score)
                    for hit in built_system.search(query, page=page)
                ]

    def test_unknown_config_key_is_a_persistence_error(self, built_system,
                                                       tmp_path):
        directory = save_system(built_system, tmp_path / "bogus")
        self._patch_config(directory, bogus=1)
        with pytest.raises(PersistenceError, match="bogus"):
            load_system(directory)

    def test_corrupt_publications_line_is_a_persistence_error(
            self, built_system, tmp_path):
        directory = save_system(built_system, tmp_path / "torn")
        with open(directory / "publications.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write("not json at all\n")
        with pytest.raises(PersistenceError, match="line"):
            load_system(directory)

    def test_rows_saved_with_store_ids_still_load(self, built_system,
                                                  tmp_path):
        """Earlier saves wrote each row's ``_id``; it is ignored on load."""
        directory = save_system(built_system, tmp_path / "ids")
        path = directory / "publications.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps({**row, "_id": f"oid:{n:016d}"}) + "\n"
            for n, row in enumerate(rows, start=1)))
        restored = load_system(directory)
        assert restored.ingested_papers() == built_system.ingested_papers()


class TestCli:
    def test_generate_build_query_cycle(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.jsonl")
        system_path = str(tmp_path / "system")

        assert main(["generate", "--papers", "15", "--seed", "3",
                     "--out", corpus_path]) == 0
        assert main(["build", "--corpus", corpus_path,
                     "--out", system_path, "--shards", "2",
                     "--epochs", "1"]) == 0
        assert main(["search", "--system", system_path, "covid"]) == 0
        assert main(["kg", "--system", system_path, "vaccines"]) == 0
        assert main(["stats", "--system", system_path]) == 0
        assert main(["bias", "--system", system_path,
                     "--clusters", "3"]) == 0
        output = capsys.readouterr().out
        assert "matches" in output
        assert "COVID-19" in output
        assert "topic balance" in output

    def test_tables_command(self, tmp_path, capsys):
        corpus_path = str(tmp_path / "corpus.jsonl")
        system_path = str(tmp_path / "system")
        main(["generate", "--papers", "12", "--seed", "4",
              "--out", corpus_path])
        main(["build", "--corpus", corpus_path, "--out", system_path,
              "--epochs", "1"])
        assert main(["tables", "--system", system_path,
                     "efficacy"]) == 0

    def test_kg_no_hits_exits_nonzero(self, tmp_path):
        corpus_path = str(tmp_path / "corpus.jsonl")
        system_path = str(tmp_path / "system")
        main(["generate", "--papers", "10", "--out", corpus_path])
        main(["build", "--corpus", corpus_path, "--out", system_path,
              "--epochs", "1"])
        assert main(["kg", "--system", system_path,
                     "zzz-not-a-node"]) == 1

    def test_kg_query_explain_prints_the_plan(self, built_system, tmp_path,
                                              capsys):
        system_path = str(save_system(built_system, tmp_path / "system"))
        query = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e'
        assert main(["kg-query", "--system", system_path, "--explain",
                     query]) == 0
        assert capsys.readouterr().out == (
            f"query: {query}\n"
            "scan    v <- label 'Vaccines'\n"
            "expand  v -[parent_of*1..2]-> e\n"
            "project e\n"
        )


class TestDifferentialReload:
    """Pre/post-reload page identity — the staleness bugfix sweep.

    A reloaded system must answer every surface identically to the one
    that was saved: same ranker configuration (a BM25 system must not
    quietly come back as TF-IDF), same scores, and a KGQL tier that
    actually reads the restored graph (it used to keep answering from
    the empty seeded one).
    """

    QUERIES = ["vaccine", "covid trial", "antibody response"]

    def _pages(self, system):
        pages = {}
        for query in self.QUERIES:
            results = system.search(query)
            pages[query] = {
                (round(hit.score, 9), hit.paper_id)
                for hit in results
            } | {("total", results.total_matches)}
        return pages

    @pytest.mark.parametrize("ranker", ["tfidf", "bm25"])
    def test_ranker_pages_identical_after_reload(self, corpus,
                                                 tmp_path, ranker):
        system = CovidKG(CovidKGConfig(
            num_shards=2, ranker=ranker, bm25_k1=1.3, bm25_b=0.6,
        ))
        system.ingest(corpus)
        before = self._pages(system)
        save_system(system, tmp_path / ranker)

        restored = load_system(tmp_path / ranker)
        assert restored.config.ranker == ranker
        assert restored.config.bm25_k1 == pytest.approx(1.3)
        assert restored.config.bm25_b == pytest.approx(0.6)
        assert self._pages(restored) == before

    def test_rankers_actually_differ(self, corpus, tmp_path):
        """The identity test above has teeth only if the configs do."""
        tfidf = CovidKG(CovidKGConfig(num_shards=2, ranker="tfidf"))
        tfidf.ingest(corpus)
        bm25 = CovidKG(CovidKGConfig(num_shards=2, ranker="bm25"))
        bm25.ingest(corpus)
        assert any(
            {(round(h.score, 9), h.paper_id) for h in
             tfidf.search(q)} !=
            {(round(h.score, 9), h.paper_id) for h in bm25.search(q)}
            for q in self.QUERIES
        )

    def test_kgql_answers_from_restored_graph(self, built_system,
                                              tmp_path):
        """Regression: ``load_system`` used to leave ``kgql.graph``
        pointing at the discarded seed graph."""
        query = 'MATCH (v:"Vaccines")-[parent_of*1..2]->(e) RETURN e'
        before = built_system.query_graph(query)
        save_system(built_system, tmp_path / "kgql")
        restored = load_system(tmp_path / "kgql")
        assert restored.kgql.graph is restored.graph
        after = restored.query_graph(query)
        assert after.total_matches == before.total_matches
        assert [
            [row.bindings[var]["label"] for var in after.columns]
            for row in after.rows
        ] == [
            [row.bindings[var]["label"] for var in before.columns]
            for row in before.rows
        ]

    def test_matcher_cache_not_stale_after_reload(self, built_system,
                                                  tmp_path):
        # Warm the matcher cache against the pre-save graph, then make
        # sure a reload does not serve from it.
        built_system.search_graph("vaccines")
        save_system(built_system, tmp_path / "matcher")
        restored = load_system(tmp_path / "matcher")
        assert restored.matcher.graph is restored.graph
        hits = restored.search_graph("vaccines")
        assert hits
