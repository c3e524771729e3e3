"""Tests for the TF-IDF model behind the ranking functions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NotFittedError
from repro.text.tfidf import TfIdfModel, tf_weight
from repro.text.tokenizer import tokenize

CORPUS = [
    "masks reduce covid transmission",
    "masks and respirators in hospitals",
    "vaccine efficacy against covid variants",
    "ventilators in intensive care units",
]


def _fit(documents):
    model = TfIdfModel()
    for document in documents:
        model.add_document_tokens(tokenize(document))
    return model


@pytest.fixture()
def model():
    return _fit(CORPUS)


class TestIdf:
    def test_rare_term_outweighs_common_term(self, model):
        assert model.idf("ventilators") > model.idf("masks")

    def test_unseen_term_gets_max_idf(self, model):
        unseen = model.idf("zzzunseen")
        assert unseen >= model.idf("ventilators")
        assert math.isfinite(unseen)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TfIdfModel().idf("masks")

    def test_document_frequency(self, model):
        assert model.document_frequency("masks") == 2
        assert model.document_frequency("covid") == 2
        assert model.document_frequency("absent") == 0

    def test_df_counts_documents_not_occurrences(self):
        model = _fit(["masks masks masks"])
        assert model.document_frequency("masks") == 1


class TestScoring:
    def test_repeated_term_scores_higher(self):
        assert tf_weight(2) > tf_weight(1) == 1.0


@given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=30),
                min_size=1, max_size=20))
def test_idf_monotone_in_document_frequency(docs):
    model = _fit(docs)
    terms = {t for doc in docs for t in tokenize(doc)}
    for term in terms:
        # More frequent terms never get a larger IDF than rarer ones.
        for other in terms:
            if model.document_frequency(term) > model.document_frequency(other):
                assert model.idf(term) <= model.idf(other)
