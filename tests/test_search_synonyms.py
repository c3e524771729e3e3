"""Tests for synonym expansion in matching and ranking."""

import pytest

from repro.embeddings.word2vec import Word2Vec
from repro.search.all_fields import AllFieldsEngine
from repro.search.columnar import MatchPlan
from repro.search.query import parse_query
from repro.search.ranking import RankingFunction
from repro.search.synonyms import (
    CURATED_WEIGHT,
    SynonymExpander,
)
from repro.docstore.matching import matches
from repro.text.stemmer import stem
from repro.text.tfidf import TfIdfModel
from repro.text.tokenizer import tokenize
from repro.text.vocabulary import Vocabulary


def make_paper(paper_id, title, abstract=""):
    return {
        "paper_id": paper_id, "title": title, "abstract": abstract,
        "authors": [{"first": "A", "last": "B"}],
        "publish_time": "2021-01-01", "journal": "JAMA",
        "body_text": [], "tables": [], "figures": [],
    }


class TestExpander:
    def test_curated_synonyms(self):
        expander = SynonymExpander()
        synonyms = dict(expander.expand("vaccine"))
        assert "immunization" in synonyms
        assert synonyms["immunization"] == CURATED_WEIGHT

    def test_term_never_expands_to_itself(self):
        expander = SynonymExpander()
        assert "vaccine" not in dict(expander.expand("vaccine"))

    def test_unknown_term_expands_to_nothing(self):
        assert SynonymExpander().expand("zygomorphic") == []

    def test_case_insensitive(self):
        assert SynonymExpander().expand("VACCINE")

    def test_symmetry_within_group(self):
        expander = SynonymExpander()
        assert "vaccine" in dict(expander.expand("immunization"))

    def test_custom_groups(self):
        expander = SynonymExpander(groups=(("alpha", "beta"),))
        assert dict(expander.expand("alpha")) == {"beta": CURATED_WEIGHT}
        assert expander.expand("vaccine") == []  # curated table replaced

    def test_embedding_neighbors_added(self):
        sentences = ["remdesivir antiviral drug treatment dosing"] * 30
        vocabulary = Vocabulary.from_texts(sentences,
                                           drop_stopwords=False)
        w2v = Word2Vec(vocabulary, dim=8, seed=1).fit(sentences, epochs=10)
        expander = SynonymExpander(word2vec=w2v,
                                   max_embedding_neighbors=2)
        expanded = expander.expand("remdesivir")
        # Embedding neighbours (if above the floor) never outweigh
        # curated synonyms.
        assert all(weight <= CURATED_WEIGHT for _, weight in expanded)


class TestSynonymMatching:
    DOC = {"search": {"title": "Immunization schedules for adults"}}

    def test_match_filter_without_expander_misses(self):
        parsed = parse_query("vaccine")
        filt = MatchPlan.terms_over_fields(
            parsed, ["search.title"]).match_document()
        assert not matches(self.DOC, filt)

    def test_match_filter_with_expander_hits(self):
        parsed = parse_query("vaccine")
        filt = MatchPlan.terms_over_fields(
            parsed, ["search.title"],
            expander=SynonymExpander()).match_document()
        assert matches(self.DOC, filt)

    def test_exact_terms_do_not_expand(self):
        parsed = parse_query('"vaccine"')
        filt = MatchPlan.terms_over_fields(
            parsed, ["search.title"],
            expander=SynonymExpander()).match_document()
        assert not matches(self.DOC, filt)


class TestSynonymRanking:
    def build_ranking(self, docs, expander=None):
        tfidf = TfIdfModel()
        for text in docs:
            tfidf.add_document_tokens(stem(t) for t in tokenize(text))
        return RankingFunction(tfidf, expander=expander)

    @staticmethod
    def title_scores(ranking, query, titles):
        """Full ranking scores of title-only documents; the last title
        matches nothing, so its score is the static features' alone."""
        rank = ranking.scorer(parse_query(query), ["search.title"])
        return [rank({"search": {"title": title}}) for title in titles]

    def test_synonym_contributes_below_literal(self):
        docs = ["vaccine trial results", "immunization trial results"]
        ranking = self.build_ranking(docs, expander=SynonymExpander())
        literal, synonym, static_only = self.title_scores(
            ranking, "vaccine", docs + ["ventilator"])
        assert literal > synonym > static_only

    def test_no_expander_means_no_synonym_score(self):
        docs = ["vaccine trial", "immunization trial"]
        ranking = self.build_ranking(docs)
        _literal, synonym, static_only = self.title_scores(
            ranking, "vaccine", docs + ["ventilator"])
        assert synonym == static_only


class TestEngineIntegration:
    @pytest.fixture()
    def engine(self):
        engine = AllFieldsEngine(expander=SynonymExpander())
        engine.add_papers([
            make_paper("p-lit", "Vaccine effectiveness in adults"),
            make_paper("p-syn", "Immunization effectiveness in adults"),
            make_paper("p-none", "Ventilator allocation policy"),
        ])
        return engine

    def test_synonym_widens_recall(self, engine):
        results = engine.search("vaccine")
        ids = {result.paper_id for result in results}
        assert ids == {"p-lit", "p-syn"}

    def test_literal_match_ranks_first(self, engine):
        results = engine.search("vaccine")
        assert results.results[0].paper_id == "p-lit"

    def test_plain_engine_unchanged(self):
        engine = AllFieldsEngine()
        engine.add_papers([
            make_paper("p-syn", "Immunization effectiveness"),
        ])
        assert engine.search("vaccine").total_matches == 0
