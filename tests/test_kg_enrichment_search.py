"""Tests for enrichment, KG search, and meta-profiles."""

import pytest

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.errors import GraphError, QueryError
from repro.kg.enrichment import EnrichmentPipeline, document_vector
from repro.kg.fusion import FusionEngine
from repro.kg.matching import NodeMatcher
from repro.kg.metaprofile import (
    build_side_effect_profile,
    extract_side_effect_records,
)
from repro.kg.ontology import seed_covid_graph
from repro.kg.review import ExpertReviewQueue
from repro.kg.search import KGSearchEngine


@pytest.fixture(scope="module")
def papers():
    config = GeneratorConfig(seed=11, papers_per_week=20,
                             tables_per_paper=(1, 3))
    return CorpusGenerator(config).papers(60)


@pytest.fixture()
def pipeline():
    graph = seed_covid_graph()
    matcher = NodeMatcher(graph)  # term matching only (no embeddings)
    queue = ExpertReviewQueue()
    engine = FusionEngine(graph, matcher, review_queue=queue)
    return graph, EnrichmentPipeline(engine)


class TestExtraction:
    def test_extracts_subtrees_from_tables(self, papers, pipeline):
        _, enrichment = pipeline
        total = sum(
            len(enrichment.extract_subtrees(paper)) for paper in papers
        )
        assert total > 20

    def test_extraction_recovers_ground_truth_vaccines(self, papers,
                                                       pipeline):
        _, enrichment = pipeline
        for paper in papers:
            extracted_vaccines = {
                child.label
                for subtree in enrichment.extract_subtrees(paper)
                if subtree.category == "vaccines"
                for child in subtree.children
            }
            truth = set(paper["ground_truth"]["vaccines"])
            # Extraction is table+pattern based; everything it finds must
            # be a true mention.
            assert extracted_vaccines <= truth or not extracted_vaccines

    def test_extraction_never_reads_ground_truth(self, papers, pipeline):
        _, enrichment = pipeline
        stripped = {
            key: value
            for key, value in papers[0].items()
            if key != "ground_truth"
        }
        # Must not raise, and must extract the same subtrees.
        with_truth = enrichment.extract_subtrees(papers[0])
        without = enrichment.extract_subtrees(stripped)
        assert [s.to_json() for s in with_truth] == [
            s.to_json() for s in without
        ]


class TestEnrichment:
    def test_enrich_grows_graph(self, papers, pipeline):
        graph, enrichment = pipeline
        before = len(graph)
        report = enrichment.enrich(papers)
        assert report.subtrees > 0
        assert len(graph) >= before
        actions = report.actions()
        assert actions.get("merged", 0) > 0

    def test_enriched_nodes_carry_provenance(self, papers, pipeline):
        graph, enrichment = pipeline
        enrichment.enrich(papers)
        vaccines = graph.find_by_label("Vaccines")[0]
        papers_linked = graph.papers_for(vaccines.node_id)
        assert len(papers_linked) > 0

    def test_clustering_produces_requested_clusters(self, papers, pipeline):
        _, enrichment = pipeline
        clusters, assignments = enrichment.cluster_topics(
            papers, num_clusters=4, seed=1
        )
        assert len(clusters) == 4
        assert len(assignments) == len(papers)
        assert sum(len(c.paper_ids) for c in clusters) == len(papers)
        assert all(c.top_terms for c in clusters if c.paper_ids)

    def test_enrich_with_clusters(self, papers, pipeline):
        _, enrichment = pipeline
        report = enrichment.enrich(papers[:30], num_clusters=3)
        assert len(report.clusters) == 3


class TestDocumentVector:
    def test_unit_norm(self):
        import numpy as np
        vector = document_vector("masks and vaccines")
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_empty_text_is_zero(self):
        import numpy as np
        assert np.linalg.norm(document_vector("")) == 0.0

    def test_similar_texts_closer_than_different(self):
        import numpy as np
        a = document_vector("vaccine dose efficacy antibody")
        b = document_vector("vaccine dose antibody titer")
        c = document_vector("ventilator oxygen icu airway")
        assert float(a @ b) > float(a @ c)


class TestKGSearch:
    def test_search_finds_node_with_path(self):
        graph = seed_covid_graph()
        engine = KGSearchEngine(graph)
        hits = engine.search("pfizer")
        assert hits
        top = hits[0]
        assert top.node.label == "Pfizer"
        assert top.path_labels[0] == "COVID-19"
        assert top.rendered_path().endswith("[[Pfizer]]")

    def test_search_is_stemmed(self):
        graph = seed_covid_graph()
        hits = KGSearchEngine(graph).search("vaccinations")
        assert any(hit.node.label == "Vaccines" for hit in hits)

    def test_multi_term_coverage_ranking(self):
        graph = seed_covid_graph()
        hits = KGSearchEngine(graph).search("children side effects")
        assert hits[0].node.label == "Children side-effects"

    def test_search_returns_provenance_papers(self):
        graph = seed_covid_graph()
        vaccines = graph.find_by_label("Vaccines")[0]
        graph.node(vaccines.node_id).add_provenance("p77")
        hits = KGSearchEngine(graph).search("vaccines")
        assert "p77" in hits[0].papers

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            KGSearchEngine(seed_covid_graph()).search("  ")


class TestMetaProfile:
    def test_extract_records_from_generated_tables(self, papers):
        records = [
            record
            for paper in papers
            for record in extract_side_effect_records(paper)
        ]
        assert records
        assert all(record.dose in (1, 2) for record in records)
        assert all(0 <= record.rate <= 100 for record in records)

    def test_profile_layers_and_sources(self, papers):
        profile = build_side_effect_profile(papers)
        assert profile.layers == ("vaccine", "dosage", "paper")
        assert profile.num_sources >= len(profile.papers)
        grouped = profile.group()
        assert set(grouped) == set(profile.vaccines)

    def test_figure6_shape_three_papers(self, papers):
        # Figure 6: a profile from 3 papers summarizing 9 sources.
        with_tables = [
            paper for paper in papers
            if extract_side_effect_records(paper)
        ][:3]
        profile = build_side_effect_profile(with_tables)
        assert len(profile.papers) == len(with_tables)
        assert profile.num_sources >= 3

    def test_rate_queries(self, papers):
        profile = build_side_effect_profile(papers)
        vaccine = profile.vaccines[0]
        top = profile.top_effects(vaccine, top_k=3)
        assert top
        effect = top[0][0]
        assert profile.mean_rate(vaccine, effect) is not None
        assert profile.mean_rate(vaccine, "nonexistent effect") is None

    def test_no_side_effect_tables_raises(self):
        with pytest.raises(GraphError):
            build_side_effect_profile([{
                "paper_id": "x", "tables": [],
            }])

    def test_json_export(self, papers):
        profile = build_side_effect_profile(papers)
        data = profile.to_json()
        assert data["layers"] == ["vaccine", "dosage", "paper"]
        assert len(data["records"]) == len(profile.records)
