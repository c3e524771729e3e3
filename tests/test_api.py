"""Integration tests for the CovidKG facade and the model registry."""

import pytest

from repro.api.registry import ModelRegistry
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import ModelError, RegistryError


@pytest.fixture(scope="module")
def corpus():
    config = GeneratorConfig(seed=21, papers_per_week=15,
                             tables_per_paper=(1, 2))
    return CorpusGenerator(config).papers(45)


@pytest.fixture(scope="module")
def system(corpus):
    kg = CovidKG(CovidKGConfig(num_shards=3, wdc_training_tables=30,
                               vocabulary_size=20_000, seed=2))
    kg.train(corpus[:20], word2vec_epochs=2)
    kg.ingest(corpus)
    return kg


class TestModelRegistry:
    def test_register_and_get(self):
        registry = ModelRegistry()
        registry.register("m1", "classifier", object(), f1=0.93)
        assert "m1" in registry
        assert registry.entry("m1").metadata["f1"] == 0.93

    def test_duplicate_rejected(self):
        registry = ModelRegistry()
        registry.register("m1", "classifier", object())
        with pytest.raises(RegistryError):
            registry.register("m1", "classifier", object())

    def test_unknown_rejected(self):
        with pytest.raises(RegistryError):
            ModelRegistry().get("ghost")

    def test_kind_filter(self):
        registry = ModelRegistry()
        registry.register("e1", "embedding", object())
        registry.register("c1", "classifier", object())
        assert registry.names("embedding") == ["e1"]

    def test_manifest_roundtrip(self, tmp_path):
        import json
        registry = ModelRegistry()
        registry.register("e1", "embedding", object(), dim=24)
        registry.save_manifest(tmp_path / "manifest.json")
        loaded = json.loads((tmp_path / "manifest.json").read_text())
        assert loaded[0]["name"] == "e1"
        assert loaded[0]["metadata"]["dim"] == 24


class TestCovidKGSystem:
    def test_train_registers_models(self, system):
        names = system.registry.names()
        assert "covidkg-word2vec" in names
        assert "covidkg-metadata-svm" in names
        assert "covidkg-vocabulary" in names

    def test_ingest_stores_all_papers(self, system, corpus):
        assert len(system.store) == len(corpus)
        stats = system.statistics()
        assert stats["publications"] == len(corpus)
        assert sum(stats["shard_sizes"]) == len(corpus)

    def test_duplicate_ingest_rejected(self, system, corpus):
        from repro.errors import DuplicateKeyError
        with pytest.raises(DuplicateKeyError):
            system.ingest([corpus[0]])

    def test_all_fields_search_works(self, system):
        results = system.search("vaccine")
        assert results.total_matches > 0
        assert results.results[0].title

    def test_table_search_works(self, system):
        results = system.search_tables("efficacy")
        if results.total_matches:
            assert results.results[0].extras["tables"]

    def test_field_search_works(self, system):
        results = system.search_fields(title="covid")
        assert results.total_matches >= 0  # shape check; may be empty

    def test_kg_search_highlights_path(self, system):
        hits = system.search_graph("vaccines")
        assert hits
        assert hits[0].rendered_path().startswith("COVID-19")

    def test_kg_grew_from_enrichment(self, system):
        # Seed graph has no provenance; ingest must have attached papers.
        assert system.graph.statistics()["papers"] > 0

    def test_classifier_labels_ingested_tables(self, system):
        stored = system.store.find({}).to_list()
        tables = [t for paper in stored for t in paper.get("tables", [])]
        assert tables
        labeled = [
            row
            for table in tables
            for row in table.get("rows", [])
            if "is_metadata" in row
        ]
        assert labeled
        assert any(row["is_metadata"] for row in labeled)

    def test_meta_profile_from_ingested(self, system):
        profile = system.meta_profile()
        assert profile.vaccines
        assert profile.num_sources > 0

    def test_meta_profile_requires_papers(self):
        with pytest.raises(ModelError):
            CovidKG().meta_profile()

    def test_statistics_shape(self, system):
        stats = system.statistics()
        assert set(stats) == {
            "publications", "kg", "storage_bytes", "shard_sizes",
            "ranker", "pending_reviews", "registered_models",
        }
        assert stats["storage_bytes"] > 0
        assert stats["ranker"] == "tfidf"

    def test_untrained_system_still_ingests(self, corpus):
        kg = CovidKG(CovidKGConfig(num_shards=2))
        report = kg.ingest(corpus[:3])
        assert len(kg.store) == 3
        assert report.subtrees >= 0


class TestBiGruFacade:
    def test_bigru_classifier_option(self, corpus):
        kg = CovidKG(CovidKGConfig(
            num_shards=2, wdc_training_tables=20,
            vocabulary_size=10_000, classifier="bigru",
            classifier_epochs=2, embedding_dim=12, seed=3,
        ))
        kg.train(corpus[:10], word2vec_epochs=1)
        assert "covidkg-metadata-bigru" in kg.registry
        report = kg.ingest(corpus[:5])
        assert len(kg.store) == 5
        assert report.subtrees >= 0
        # Ingested tables carry classifier-assigned labels.
        stored = kg.store.find({}).to_list()
        labeled = [
            row
            for paper in stored
            for table in paper.get("tables", [])
            for row in table.get("rows", [])
            if "is_metadata" in row
        ]
        assert labeled

    def test_unknown_classifier_rejected(self, corpus):
        from repro.errors import ModelError
        kg = CovidKG(CovidKGConfig(classifier="transformer"))
        with pytest.raises(ModelError):
            kg.train(corpus[:5], word2vec_epochs=1)
