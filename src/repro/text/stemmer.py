"""Porter stemming algorithm (Porter, 1980), implemented from scratch.

The search engines use "stemming match capability on a tokenized query"
(paper Section 2.1); this module provides the stemmer they share.  The
implementation follows the original five-step definition.
"""

from __future__ import annotations

import functools

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Classic Porter stemmer.

    >>> PorterStemmer().stem("vaccinations")
    'vaccin'
    >>> PorterStemmer().stem("caresses")
    'caress'
    """

    def stem(self, word: str) -> str:
        """Return the stem of ``word`` (lowercased)."""
        word = word.lower()
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- consonant/vowel machinery ------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        char = word[i]
        if char in _VOWELS:
            return False
        if char == "y":
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem: str) -> int:
        """The Porter measure m: number of VC sequences in the stem."""
        m = 0
        previous_was_vowel = False
        for i in range(len(stem)):
            is_vowel = not cls._is_consonant(stem, i)
            if previous_was_vowel and not is_vowel:
                m += 1
            previous_was_vowel = is_vowel
        return m

    @classmethod
    def _contains_vowel(cls, stem: str) -> bool:
        return any(not cls._is_consonant(stem, i) for i in range(len(stem)))

    @classmethod
    def _ends_double_consonant(cls, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and cls._is_consonant(word, len(word) - 1)
        )

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        """*o condition: stem ends cvc where the final c is not w, x or y."""
        if len(word) < 3:
            return False
        return (
            cls._is_consonant(word, len(word) - 3)
            and not cls._is_consonant(word, len(word) - 2)
            and cls._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    def _replace_if_m(self, word: str, suffix: str, replacement: str,
                      min_m: int) -> str | None:
        """Replace ``suffix`` with ``replacement`` when m(stem) > min_m."""
        if not word.endswith(suffix):
            return None
        stem = word[: len(word) - len(suffix)]
        if self._measure(stem) > min_m:
            return stem + replacement
        return word

    # -- the five steps ------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if self._measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"),
        ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
        ("iviti", "ive"), ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_SUFFIXES:
            result = self._replace_if_m(word, suffix, replacement, 0)
            if result is not None:
                return result
        return word

    _STEP3_SUFFIXES = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"),
        ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_SUFFIXES:
            result = self._replace_if_m(word, suffix, replacement, 0)
            if result is not None:
                return result
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
        "ement", "ment", "ent", "ou", "ism", "ate", "iti", "ous",
        "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        if word.endswith("ion") and len(word) > 3 and word[-4] in "st":
            stem = word[:-3]
            if self._measure(stem) > 1:
                return stem
            return word
        for suffix in self._STEP4_SUFFIXES:
            result = self._replace_if_m(word, suffix, "", 1)
            if result is not None:
                return result
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1 or (m == 1 and not self._ends_cvc(stem)):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (
            word.endswith("l")
            and self._ends_double_consonant(word)
            and self._measure(word) > 1
        ):
            return word[:-1]
        return word


_DEFAULT = PorterStemmer()

#: Distinct words remembered by :func:`stem`.  A corpus repeats a small
#: vocabulary (Zipf), so analysis costs one Porter run per distinct word
#: instead of one per token; the bound only keeps a hostile stream of
#: unique tokens from growing the process.
STEM_CACHE_WORDS = 1 << 16


@functools.lru_cache(maxsize=STEM_CACHE_WORDS)
def stem(word: str) -> str:
    """Stem ``word``; memoized (``lru_cache`` is thread-safe).

    ``PorterStemmer().stem`` is the uncached reference.
    """
    return _DEFAULT.stem(word)
