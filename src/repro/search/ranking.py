"""The ranking functions behind all three search engines.

"The ranking is an accumulation of various weighted features per document,
such as the number of matches, proximity between the matched terms and
which field the term was matched in.  Each term in the corpus has an
associated TF-IDF weight in order to reward more important terms."

Score per document =

    sum over fields f:  field_weight(f) * sum over terms t: word_score(t, f)
  + proximity_bonus  (1 / (min window covering all distinct terms), on the
                      best field; multi-term queries only)
  + static score     (publication-level features: recency, table count)

``word_score`` is pluggable: :class:`RankingFunction` uses the paper's
TF-IDF weighting, :class:`BM25RankingFunction` swaps in Okapi BM25 with
per-field length normalization (``CovidKGConfig.ranker = "bm25"``).  The
proximity and static terms are shared so the two rankers stay comparable.

Instances are registered as ``$function`` stages so engines invoke them
from inside the aggregation pipeline exactly as the paper's custom
JavaScript functions do.  ``scorer`` hoists every piece of query-side
state (term words, stems, IDFs, synonym expansions, per-field average
lengths) out of the per-document loop: the returned closure tokenizes and
stems each field exactly once per document and shares the token/stem
lists between TF counting and proximity-window extraction.  Document
tokens are stemmed with the memoized :func:`repro.text.stemmer.stem`,
like the query words and the index builders, so a word costs one
Porter pass per process, not one per occurrence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.docstore.documents import deep_get
from repro.search.indexing import FIELD_WEIGHTS
from repro.search.query import ParsedQuery
from repro.text.stemmer import stem
from repro.text.tfidf import TfIdfModel
from repro.text.tokenizer import tokenize

#: Weight of the proximity bonus relative to TF-IDF matter.
PROXIMITY_WEIGHT = 2.0
#: Weight of static (query-independent) document features.
STATIC_WEIGHT = 0.1

#: Okapi BM25 defaults (Robertson & Walker); tunable per system via
#: ``CovidKGConfig.bm25_k1`` / ``bm25_b``.
BM25_K1 = 1.5
BM25_B = 0.75


def min_window(positions_per_term: list[list[int]]) -> int | None:
    """Smallest token window covering one position of every term.

    Returns None when any term has no positions.
    """
    if not positions_per_term or any(not p for p in positions_per_term):
        return None
    if len(positions_per_term) == 1:
        return 1
    events = sorted(
        (position, term_index)
        for term_index, positions in enumerate(positions_per_term)
        for position in positions
    )
    counts = [0] * len(positions_per_term)
    covered = 0
    best: int | None = None
    left = 0
    for right, (right_pos, right_term) in enumerate(events):
        if counts[right_term] == 0:
            covered += 1
        counts[right_term] += 1
        while covered == len(counts):
            left_pos, left_term = events[left]
            window = right_pos - left_pos + 1
            if best is None or window < best:
                best = window
            counts[left_term] -= 1
            if counts[left_term] == 0:
                covered -= 1
            left += 1
    return best


def static_score(document: dict[str, Any]) -> float:
    """Query-independent document weight (recency + table richness).

    Module-level so the columnar index can precompute it per stored
    document with the exact arithmetic the scalar path uses.
    """
    year = deep_get(document, "static_rank.year", 2020) or 2020
    num_tables = deep_get(document, "static_rank.num_tables", 0) or 0
    recency = max(0, int(year) - 2019)
    return recency + 0.5 * min(num_tables, 4)


def bm25_idf(num_documents: int, document_frequency: int) -> float:
    """The non-negative ("plus one") BM25 IDF."""
    return math.log(
        1.0 + (num_documents - document_frequency + 0.5)
        / (document_frequency + 0.5)
    )


class FieldLengthStats:
    """Per-field token totals for BM25 average-length normalization.

    The owning engine observes every indexed document's per-field token
    count; ``average_length`` is then ``total_tokens / documents`` over
    the whole corpus (documents missing the field count as length 0,
    like any search over them would find).
    """

    __slots__ = ("_totals", "_documents")

    def __init__(self) -> None:
        self._totals: dict[str, int] = {}
        self._documents = 0

    def observe(self, field: str, num_tokens: int) -> None:
        self._totals[field] = self._totals.get(field, 0) + num_tokens

    def add_document(self) -> None:
        self._documents += 1

    @property
    def num_documents(self) -> int:
        return self._documents

    def average_length(self, field: str) -> float:
        if not self._documents:
            return 0.0
        return self._totals.get(field, 0) / self._documents


@dataclass(frozen=True)
class PlannedWord:
    """One scoring word with its query-time-constant state.

    ``weight`` is ``None`` for a literal query word and the synonym
    down-weight for an expansion.  ``idf`` is ``None`` only when the
    model has seen no documents — the per-document loop then defers to
    the model so an unfitted scorer still raises ``NotFittedError`` the
    moment a term actually occurs, exactly like the unhoisted code did.
    """

    stemmed: str
    idf: float | None
    weight: float | None = None


@dataclass(frozen=True)
class QueryPlan:
    """Everything about a query the per-document loop must not re-derive."""

    words: tuple[PlannedWord, ...]
    #: Per original term: ("loose", stem) or ("exact", lowercased words);
    #: ``None`` for single-term queries (no proximity bonus).
    proximity: tuple[tuple[str, Any], ...] | None


class RankingFunction:
    """TF-IDF + proximity + field-weight + static-feature ranking.

    With a :class:`~repro.search.synonyms.SynonymExpander` attached, each
    query term also contributes down-weighted TF-IDF mass for its
    synonyms ("the ranking function incorporates matching terms and
    synonyms") — a document saying "immunization" gains score for the
    query "vaccine", below what a literal match earns.
    """

    def __init__(self, tfidf: TfIdfModel,
                 field_weights: dict[str, float] | None = None,
                 expander=None) -> None:
        self.tfidf = tfidf
        self.field_weights = dict(field_weights or FIELD_WEIGHTS)
        self.expander = expander

    # -- per-field machinery ------------------------------------------------

    def _term_positions(self, parsed: ParsedQuery,
                        tokens: list[str]) -> list[list[int]]:
        stemmed_tokens = [stem(token) for token in tokens]
        return self._planned_positions(
            self._proximity_plan(parsed), tokens, stemmed_tokens
        )

    @staticmethod
    def _proximity_plan(parsed: ParsedQuery
                        ) -> tuple[tuple[str, Any], ...]:
        plan = []
        for term in parsed.terms:
            if term.exact:
                plan.append(
                    ("exact", tuple(w.lower() for w in term.text.split()))
                )
            else:
                plan.append(("loose", stem(term.text)))
        return tuple(plan)

    @staticmethod
    def _planned_positions(proximity: tuple[tuple[str, Any], ...],
                           tokens: list[str],
                           stemmed_tokens: list[str]) -> list[list[int]]:
        positions = []
        for kind, target in proximity:
            if kind == "exact":
                words = list(target)
                first = words[0] if words else ""
                hits = [
                    i for i, token in enumerate(tokens)
                    if token == first
                    and tokens[i:i + len(words)] == words
                ]
            else:
                hits = [
                    i for i, token_stem in enumerate(stemmed_tokens)
                    if token_stem == target
                ]
            positions.append(hits)
        return positions

    def field_score(self, parsed: ParsedQuery, text: str) -> float:
        """TF-IDF mass of the query terms inside one field's text.

        Quoted (exact) terms never expand to synonyms — the user asked
        for that literal phrase.  (Reference implementation; the hot
        path runs the hoisted closure from :meth:`scorer`.)
        """
        if not text:
            return 0.0
        stemmed_tokens = [stem(token) for token in tokenize(text)]
        score = 0.0
        # lint: allow=REP207 PAPER.md §1.8's reference ranker
        for term in parsed.terms:
            # lint: allow=REP207 PAPER.md §1.8's reference ranker
            for word in term.text.split():
                score += self.tfidf.tfidf(stem(word), stemmed_tokens)
            if self.expander is None or term.exact:
                continue
            # lint: allow=REP207 PAPER.md §1.8's reference ranker
            for synonym, weight in self.expander.expand(term.text):
                # lint: allow=REP207 PAPER.md §1.8's reference ranker
                for word in synonym.split():
                    score += weight * self.tfidf.tfidf(
                        stem(word), stemmed_tokens
                    )
        return score

    def proximity_bonus(self, parsed: ParsedQuery, text: str) -> float:
        """1/window bonus; 0 when not every term occurs in the text."""
        if len(parsed.terms) < 2 or not text:
            return 0.0
        tokens = tokenize(text)
        window = min_window(self._term_positions(parsed, tokens))
        if window is None:
            return 0.0
        return 1.0 / window

    def static_score(self, document: dict[str, Any]) -> float:
        """Query-independent document weight."""
        return static_score(document)

    # -- query-time planning ------------------------------------------------

    def _word_idf(self, stemmed: str) -> float | None:
        if self.tfidf.num_documents == 0:
            return None
        return self.tfidf.idf(stemmed)

    def query_plan(self, parsed: ParsedQuery) -> QueryPlan:
        """Hoist term/stem/IDF/synonym state out of the document loop."""
        words: list[PlannedWord] = []
        for term in parsed.terms:
            for word in term.text.split():
                stemmed = stem(word)
                words.append(PlannedWord(stemmed, self._word_idf(stemmed)))
            if self.expander is None or term.exact:
                continue
            for synonym, weight in self.expander.expand(term.text):
                for word in synonym.split():
                    stemmed = stem(word)
                    words.append(PlannedWord(
                        stemmed, self._word_idf(stemmed), weight
                    ))
        proximity = (
            self._proximity_plan(parsed) if len(parsed.terms) >= 2 else None
        )
        return QueryPlan(words=tuple(words), proximity=proximity)

    def _field_norm(self, field: str) -> float:
        """Per-field normalizer (BM25 average length; unused by TF-IDF)."""
        return 1.0

    def field_plan(self, fields: list[str]
                   ) -> list[tuple[str, float, float]]:
        """``(field, weight, avgdl)`` per ranked field, for both executors."""
        return [
            (name, self.field_weights.get(name, 1.0),
             self._field_norm(name))
            for name in fields
        ]

    def _word_score(self, tf: int, dl: int, avgdl: float,
                    planned: PlannedWord) -> float:
        """Score of one query word with term frequency ``tf > 0``."""
        idf = planned.idf
        if idf is None:  # unfitted model: preserve NotFittedError
            idf = self.tfidf.idf(planned.stemmed)
        return (1.0 + math.log(tf)) * idf

    # -- document-level score -----------------------------------------------

    def score(self, parsed: ParsedQuery, document: dict[str, Any],
              fields: list[str] | None = None) -> float:
        """The full ranking score of ``document`` for ``parsed``."""
        return self.scorer(parsed, fields)(document)

    def scorer(self, parsed: ParsedQuery,
               fields: list[str] | None = None):
        """A single-argument callable for ``$function`` registration.

        All query-side state is computed here, once; the closure only
        does per-document work (one tokenize + one stem pass per field,
        shared between TF counting and proximity extraction).
        """
        field_plan = self.field_plan(list(fields or self.field_weights))
        plan = self.query_plan(parsed)

        def rank(document: dict[str, Any]) -> float:
            total = 0.0
            best_proximity = 0.0
            # lint: allow=REP207 PAPER.md §1.8's reference ranker
            for field_name, weight, avgdl in field_plan:
                text = deep_get(document, field_name, "") or ""
                if isinstance(text, list):
                    text = " ".join(str(part) for part in text)
                if not text:
                    continue
                tokens = tokenize(text)
                stemmed_tokens = [stem(token) for token in tokens]
                counts = Counter(stemmed_tokens)
                dl = len(tokens)
                field_total = 0.0
                # lint: allow=REP207 PAPER.md §1.8's reference ranker
                for planned in plan.words:
                    tf = counts.get(planned.stemmed, 0)
                    if not tf:
                        continue
                    value = self._word_score(tf, dl, avgdl, planned)
                    if planned.weight is not None:
                        value = planned.weight * value
                    field_total += value
                total += weight * field_total
                if plan.proximity is not None:
                    window = min_window(self._planned_positions(
                        plan.proximity, tokens, stemmed_tokens
                    ))
                    if window is not None:
                        best_proximity = max(best_proximity, 1.0 / window)
            total += PROXIMITY_WEIGHT * best_proximity
            total += STATIC_WEIGHT * static_score(document)
            return total

        return rank


class BM25RankingFunction(RankingFunction):
    """Okapi BM25 word scoring under the shared ranking skeleton.

    Replaces the TF-IDF word score with

        idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl))

    where ``idf = log(1 + (N - df + 0.5) / (df + 0.5))`` and ``avgdl``
    is the corpus-average token length of the field being scored (from
    ``stats``; without stats the normalizer degrades to ``avgdl = 1``).
    Field weights, synonym expansion, the proximity bonus, and the
    static score are inherited unchanged so ``ranker="tfidf"`` and
    ``ranker="bm25"`` rank over identical feature sets.
    """

    def __init__(self, tfidf: TfIdfModel,
                 field_weights: dict[str, float] | None = None,
                 expander=None,
                 stats: FieldLengthStats | None = None,
                 k1: float = BM25_K1, b: float = BM25_B) -> None:
        super().__init__(tfidf, field_weights, expander)
        self.stats = stats
        self.k1 = float(k1)
        self.b = float(b)

    def _word_idf(self, stemmed: str) -> float | None:
        if self.tfidf.num_documents == 0:
            return None
        return bm25_idf(self.tfidf.num_documents,
                        self.tfidf.document_frequency(stemmed))

    def _field_norm(self, field: str) -> float:
        if self.stats is None:
            return 1.0
        return self.stats.average_length(field)

    def _word_score(self, tf: int, dl: int, avgdl: float,
                    planned: PlannedWord) -> float:
        idf = planned.idf
        if idf is None:  # unfitted model: preserve NotFittedError
            self.tfidf.idf(planned.stemmed)
            idf = 0.0
        norm = self.k1 * (1.0 - self.b + self.b * (dl / avgdl))
        return idf * (tf * (self.k1 + 1.0)) / (tf + norm)
