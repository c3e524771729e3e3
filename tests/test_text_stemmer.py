"""Unit and property tests for the Porter stemmer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text.stemmer import PorterStemmer, stem

# Canonical examples from Porter's 1980 paper.
PORTER_PAPER_CASES = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


class TestPorterPaperExamples:
    def test_all_paper_cases(self):
        stemmer = PorterStemmer()
        failures = [
            (word, expected, stemmer.stem(word))
            for word, expected in PORTER_PAPER_CASES
            if stemmer.stem(word) != expected
        ]
        assert not failures, f"mis-stemmed: {failures}"


class TestDomainTerms:
    def test_medical_terms_share_stems(self):
        assert stem("vaccinations") == stem("vaccination")
        assert stem("infections") == stem("infection")
        assert stem("ventilators") == stem("ventilator")

    def test_short_words_untouched(self):
        assert stem("as") == "as"
        assert stem("a") == "a"
        assert stem("flu") == "flu"

    def test_stemming_is_case_insensitive(self):
        assert stem("Masks") == stem("masks")


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
               min_size=1, max_size=30))
def test_stemmer_is_idempotent_on_its_output_for_plurals(word):
    # Porter is not idempotent in general, but stems are never longer than
    # the input and always non-empty for non-empty input.
    result = stem(word)
    assert result
    assert len(result) <= len(word)


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122),
               min_size=1, max_size=30))
def test_stemmer_never_raises(word):
    stem(word)
    stem(word.upper())


class TestMemoizedStem:
    """``stem`` caches; ``PorterStemmer().stem`` is the reference."""

    @staticmethod
    def _vocabulary():
        from repro.corpus.generator import CorpusGenerator
        from repro.search.indexing import (
            ALL_SEARCH_FIELDS,
            build_search_document,
            field_text,
        )
        from repro.text.tokenizer import tokenize

        words = set()
        for paper in CorpusGenerator().papers(40):
            document = build_search_document(paper)
            for name in ALL_SEARCH_FIELDS:
                tokens = tokenize(field_text(document, name))
                words.update(tokens)
                words.update(token.upper() for token in tokens[:50])
        return sorted(words)

    def test_equals_reference_over_the_corpus_vocabulary(self):
        reference = PorterStemmer()
        vocabulary = self._vocabulary()
        assert len(vocabulary) > 500
        for _ in range(2):  # cold, then every word a cache hit
            assert [stem(word) for word in vocabulary] == \
                [reference.stem(word) for word in vocabulary]

    def test_eight_thread_hammer(self):
        import threading

        from repro.text.stemmer import STEM_CACHE_WORDS

        reference = PorterStemmer()
        vocabulary = self._vocabulary()
        expected = {word: reference.stem(word) for word in vocabulary}
        stem.cache_clear()
        wrong: list[tuple[str, str]] = []

        def hammer(offset):
            # Each thread walks the vocabulary from its own offset, plus
            # unique words so cache inserts interleave with hits.
            for step in range(3 * len(vocabulary)):
                word = vocabulary[(offset + step) % len(vocabulary)]
                if stem(word) != expected[word]:
                    wrong.append((word, stem(word)))
                stem(f"unique{offset}x{step}ing")

        threads = [threading.Thread(target=hammer, args=(k * 97,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not wrong
        assert stem.cache_info().currsize <= STEM_CACHE_WORDS
