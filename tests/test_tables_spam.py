"""Tests for the web-table spam classifier and Word2Vec subsampling."""

import numpy as np
import pytest

from repro.corpus.wdc import WdcTableGenerator
from repro.embeddings.word2vec import Word2Vec
from repro.errors import ModelError
from repro.tables.model import Table
from repro.tables.spam import (
    FEATURE_NAMES,
    SpamTableClassifier,
    spam_features,
)
from repro.text.vocabulary import Vocabulary

CLEAN = Table.from_grid([
    ["Vaccine", "Doses", "Efficacy"],
    ["Pfizer", "2", "95"],
    ["Moderna", "2", "94"],
    ["Janssen", "1", "66"],
], header_rows=1)

PROMO_SPAM = Table.from_grid([
    ["BUY NOW cheap deals", "click here FREE", "www.spam.example"],
    ["discount sale offer", "subscribe now", "http://ads.example"],
])

KEYWORD_FARM = Table.from_grid([
    ["covid cure", "covid cure", "covid cure"],
    ["covid cure", "covid cure", "covid cure"],
    ["covid cure", "covid cure", "covid cure"],
])

LAYOUT_GRID = Table.from_grid([
    ["", "", "", ""],
    ["", "menu", "", ""],
    ["", "", "", ""],
])

NAV_STRIP = Table.from_grid([["Home", "About", "Contact", "Blog"]])


class TestSpamFeatures:
    def test_feature_vector_shape_and_range(self):
        for table in (CLEAN, PROMO_SPAM, KEYWORD_FARM, LAYOUT_GRID):
            features = spam_features(table)
            assert features.shape == (len(FEATURE_NAMES),)
            assert np.all((features >= 0.0) & (features <= 1.0))

    def test_clean_table_has_low_features(self):
        features = spam_features(CLEAN)
        assert features.max() < 0.5

    def test_promo_features_fire(self):
        features = dict(zip(FEATURE_NAMES, spam_features(PROMO_SPAM)))
        assert features["promo_fraction"] > 0.5
        assert features["url_fraction"] > 0.2

    def test_repetition_features_fire(self):
        features = dict(zip(FEATURE_NAMES, spam_features(KEYWORD_FARM)))
        assert features["duplicate_cell_fraction"] > 0.7
        assert features["duplicate_row_fraction"] > 0.5

    def test_layout_features_fire(self):
        features = dict(zip(FEATURE_NAMES, spam_features(LAYOUT_GRID)))
        assert features["empty_fraction"] > 0.8
        nav = dict(zip(FEATURE_NAMES, spam_features(NAV_STRIP)))
        assert nav["degenerate_shape"] == 1.0

    def test_empty_table(self):
        features = spam_features(Table())
        assert features[0] == 1.0  # all-empty


class TestHeuristicClassifier:
    def test_clean_passes_spam_caught(self):
        classifier = SpamTableClassifier()
        assert not classifier.is_spam(CLEAN)
        assert classifier.is_spam(PROMO_SPAM)
        assert classifier.is_spam(KEYWORD_FARM)
        assert classifier.is_spam(LAYOUT_GRID)

    def test_wdc_tables_pass(self):
        classifier = SpamTableClassifier()
        generator = WdcTableGenerator(seed=41)
        tables = [generator.generate(i).table for i in range(20)]
        assert not any(classifier.is_spam(table) for table in tables)


class TestTrainedClassifier:
    def test_svm_upgrade_learns(self):
        generator = WdcTableGenerator(seed=42)
        clean = [generator.generate(i).table for i in range(15)]
        spam = [PROMO_SPAM, KEYWORD_FARM, LAYOUT_GRID, NAV_STRIP] * 4
        classifier = SpamTableClassifier(seed=1).fit(
            clean + spam, [False] * len(clean) + [True] * len(spam)
        )
        assert not classifier.is_spam(clean[0])
        assert classifier.is_spam(PROMO_SPAM)


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
