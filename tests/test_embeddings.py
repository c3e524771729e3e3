"""Tests for Word2Vec, tabular embeddings, and similarity utilities."""

import numpy as np
import pytest

from repro.embeddings.similarity import cosine_similarity, nearest_neighbors
from repro.embeddings.tabular import TabularEmbedder
from repro.embeddings.word2vec import Word2Vec
from repro.errors import ModelError, NotFittedError
from repro.text.vocabulary import UNKNOWN_INDEX, Vocabulary

# A tiny corpus with two clearly separated topics: vaccines and ventilation.
SENTENCES = (
    ["pfizer vaccine dose efficacy antibody",
     "moderna vaccine dose antibody response",
     "vaccine dose antibody efficacy pfizer",
     "moderna dose vaccine response antibody"] * 8
    + ["ventilator oxygen icu airway pressure",
       "icu ventilator airway oxygen support",
       "oxygen airway ventilator pressure icu",
       "ventilator icu pressure oxygen airway"] * 8
)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.from_texts(SENTENCES, drop_stopwords=False)


@pytest.fixture(scope="module")
def w2v(vocab):
    return Word2Vec(vocab, dim=16, window=2, seed=3).fit(
        SENTENCES, epochs=10
    )


class TestWord2Vec:
    def test_topic_terms_cluster(self, w2v):
        same_topic = cosine_similarity(
            w2v.vector("pfizer"), w2v.vector("moderna")
        )
        cross_topic = cosine_similarity(
            w2v.vector("pfizer"), w2v.vector("ventilator")
        )
        assert same_topic > cross_topic

    def test_most_similar_returns_topic_neighbors(self, w2v):
        neighbors = [term for term, _ in w2v.most_similar("vaccine", top_k=4)]
        vaccine_terms = {"pfizer", "moderna", "dose", "antibody",
                         "efficacy", "response"}
        assert len(set(neighbors) & vaccine_terms) >= 3

    def test_text_vector_is_token_mean(self, w2v):
        combined = w2v.text_vector("pfizer moderna")
        manual = (w2v.vector("pfizer") + w2v.vector("moderna")) / 2
        np.testing.assert_allclose(combined, manual)

    def test_text_vector_of_unknown_text_is_zero(self, w2v):
        np.testing.assert_array_equal(
            w2v.text_vector("zzz qqq"), np.zeros(w2v.dim)
        )

    def test_unfitted_raises(self, vocab):
        with pytest.raises(NotFittedError):
            Word2Vec(vocab).vector("vaccine")

    def test_double_fit_requires_fine_tune_flag(self, vocab):
        model = Word2Vec(vocab, dim=8, seed=0).fit(SENTENCES[:8], epochs=1)
        with pytest.raises(ModelError):
            model.fit(SENTENCES[:8], epochs=1)
        model.fit(SENTENCES[:8], epochs=1, fine_tune=True)  # allowed

    def test_fine_tune_moves_vectors(self, vocab):
        model = Word2Vec(vocab, dim=8, seed=1).fit(SENTENCES, epochs=2)
        before = model.vector("vaccine").copy()
        model.fit(["vaccine ventilator"] * 20, epochs=3, fine_tune=True)
        assert not np.allclose(before, model.vector("vaccine"))

    def test_invalid_construction(self, vocab):
        with pytest.raises(ModelError):
            Word2Vec(vocab, dim=0)
        with pytest.raises(ModelError):
            Word2Vec(vocab, window=0)

    def test_fit_rejects_fully_unknown_corpus(self, vocab):
        with pytest.raises(ModelError):
            Word2Vec(vocab, dim=4).fit(["zzz qqq xxx"], epochs=1)


class TestTabularEmbedder:
    def test_term_indices_padded(self, vocab):
        embedder = TabularEmbedder(vocab, max_terms=6, max_cells=3)
        indices = embedder.term_indices(["pfizer vaccine", "dose"])
        assert indices.shape == (6,)
        assert indices[0] == vocab.index_of("pfizer")
        assert indices[3] == UNKNOWN_INDEX  # padding

    def test_term_indices_truncated(self, vocab):
        embedder = TabularEmbedder(vocab, max_terms=2, max_cells=3)
        indices = embedder.term_indices(["pfizer vaccine dose efficacy"])
        assert indices.shape == (2,)

    def test_numeric_cells_normalized_before_lookup(self, vocab):
        vocab_with_num = Vocabulary.from_texts(
            ["INT RANGE pfizer"], drop_stopwords=False
        )
        embedder = TabularEmbedder(vocab_with_num, max_terms=4)
        indices = embedder.term_indices(["120", "5-10"])
        assert indices[0] == vocab_with_num.index_of("int")
        assert indices[1] == vocab_with_num.index_of("range")

    def test_cell_token_indices_one_per_cell(self, vocab):
        embedder = TabularEmbedder(vocab, max_cells=4)
        indices = embedder.cell_token_indices(
            ["pfizer vaccine", "zzz", "dose"]
        )
        assert indices.shape == (4,)
        assert indices[0] == vocab.index_of("pfizer")
        assert indices[1] == UNKNOWN_INDEX
        assert indices[2] == vocab.index_of("dose")

    def test_batch_shapes(self, vocab):
        embedder = TabularEmbedder(vocab, max_terms=5, max_cells=3)
        tuples = [["pfizer", "dose"], ["ventilator icu oxygen"]]
        assert embedder.batch_term_indices(tuples).shape == (2, 5)
        assert embedder.batch_cell_indices(tuples).shape == (2, 3)

    def test_invalid_lengths(self, vocab):
        with pytest.raises(ModelError):
            TabularEmbedder(vocab, max_terms=0)


class TestSimilarity:
    def test_cosine_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(0.0)

    def test_cosine_opposite(self):
        assert cosine_similarity(
            np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        ) == pytest.approx(-1.0)

    def test_zero_vector_yields_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ModelError):
            cosine_similarity(np.zeros(2), np.zeros(3))

    def test_nearest_neighbors_order(self):
        candidates = np.array([
            [1.0, 0.0],   # identical direction
            [0.7, 0.7],   # 45 degrees
            [0.0, 1.0],   # orthogonal
            [-1.0, 0.0],  # opposite
        ])
        result = nearest_neighbors(np.array([1.0, 0.0]), candidates, top_k=3)
        assert [index for index, _ in result] == [0, 1, 2]
        assert result[0][1] == pytest.approx(1.0)

    def test_nearest_neighbors_skips_zero_rows(self):
        candidates = np.array([[0.0, 0.0], [1.0, 0.0]])
        result = nearest_neighbors(np.array([1.0, 0.0]), candidates, top_k=2)
        assert [index for index, _ in result] == [1]

    def test_zero_query_returns_empty(self):
        assert nearest_neighbors(np.zeros(2), np.ones((3, 2))) == []


class TestWord2VecSubsampling:
    SENTENCES = (
        ["the the the the vaccine dose",
         "the the the the antibody titer"] * 20
    )

    def test_subsampling_trains_and_keeps_rare_signal(self):
        vocabulary = Vocabulary.from_texts(self.SENTENCES,
                                           drop_stopwords=False)
        model = Word2Vec(vocabulary, dim=8, seed=2,
                         subsample=1e-2).fit(self.SENTENCES, epochs=5)
        assert np.any(model.vector("vaccine"))

    def test_invalid_threshold(self):
        vocabulary = Vocabulary.from_texts(["a b"], drop_stopwords=False)
        with pytest.raises(ModelError):
            Word2Vec(vocabulary, subsample=0.0)

    def test_subsampling_reduces_frequent_word_updates(self):
        vocabulary = Vocabulary.from_texts(self.SENTENCES,
                                           drop_stopwords=False)
        plain = Word2Vec(vocabulary, dim=8, seed=3).fit(
            self.SENTENCES, epochs=3
        )
        subsampled = Word2Vec(vocabulary, dim=8, seed=3,
                              subsample=1e-3).fit(self.SENTENCES, epochs=3)
        # With aggressive subsampling, "the" moves less from its init.
        init = Word2Vec(vocabulary, dim=8, seed=3)
        the_index = vocabulary.index_of("the")
        plain_shift = np.linalg.norm(
            plain.in_vectors[the_index] - init.in_vectors[the_index]
        )
        sub_shift = np.linalg.norm(
            subsampled.in_vectors[the_index] - init.in_vectors[the_index]
        )
        assert sub_shift < plain_shift
