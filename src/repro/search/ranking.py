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

``word_score`` is the paper's TF-IDF weighting,
``tf_weight(tf) * idf`` with :func:`repro.text.tfidf.tf_weight`.

:meth:`RankingFunction.query_plan` is the one scoring spec: the words
with their stems, IDFs and synonym weights, the ``(field, weight)``
pairs, and the proximity targets.  Both executors read it — the scalar
closure from :meth:`RankingFunction.scorer`, the inline body of a
``$function`` stage so engines invoke it from inside the aggregation
pipeline exactly as the paper's custom JavaScript functions do, and the
columnar kernels (:mod:`repro.search.columnar`) over posting arrays.
The closure tokenizes and stems each field exactly once per document
and shares the token/stem lists between TF counting and
proximity-window extraction.  Document tokens are stemmed with the
memoized :func:`repro.text.stemmer.stem`, like the query words and the
index builders, so a word costs one Porter pass per process, not one
per occurrence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.docstore.documents import deep_get
from repro.search.indexing import FIELD_WEIGHTS, field_text
from repro.search.query import ParsedQuery
from repro.text.stemmer import stem
from repro.text.tfidf import TfIdfModel, tf_weight
from repro.text.tokenizer import tokenize

#: Weight of the proximity bonus relative to TF-IDF matter.
PROXIMITY_WEIGHT = 2.0
#: Weight of static (query-independent) document features.
STATIC_WEIGHT = 0.1


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


@dataclass(frozen=True)
class PlannedWord:
    """One scoring word with its query-time-constant state.

    ``weight`` is ``None`` for a literal query word and the synonym
    down-weight for an expansion.  ``idf`` is ``None`` only when the
    model has seen no documents — the per-document loop then defers to
    the model so an unfitted scorer still raises ``NotFittedError`` the
    moment a term actually occurs.
    """

    stemmed: str
    idf: float | None
    weight: float | None = None


@dataclass(frozen=True)
class QueryPlan:
    """The one scoring spec: everything about a query that the scalar
    closure and the columnar kernels read, and neither re-derives."""

    words: tuple[PlannedWord, ...]
    #: ``(field, weight)`` per ranked field, in accumulation order.
    fields: tuple[tuple[str, float], ...]
    #: Per original term: ("loose", stem) or ("exact", lowercased words);
    #: ``None`` for single-term queries (no proximity bonus).
    proximity: tuple[tuple[str, Any], ...] | None


class RankingFunction:
    """TF-IDF + proximity + field-weight + static-feature ranking.

    With a :class:`~repro.search.synonyms.SynonymExpander` attached, each
    query term also contributes down-weighted TF-IDF mass for its
    synonyms ("the ranking function incorporates matching terms and
    synonyms") — a document saying "immunization" gains score for the
    query "vaccine", below what a literal match earns.  Quoted (exact)
    terms never expand: the user asked for that literal phrase.
    """

    def __init__(self, tfidf: TfIdfModel, expander=None) -> None:
        self.tfidf = tfidf
        self.expander = expander

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

    # -- query-time planning ------------------------------------------------

    def _word_idf(self, stemmed: str) -> float | None:
        if self.tfidf.num_documents == 0:
            return None
        return self.tfidf.idf(stemmed)

    def query_plan(self, parsed: ParsedQuery,
                   fields: list[str] | None = None) -> QueryPlan:
        """Hoist term/stem/IDF/synonym/field state out of the document
        loop; ``fields`` defaults to every weighted search field."""
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
        return QueryPlan(
            words=tuple(words),
            fields=tuple((name, FIELD_WEIGHTS.get(name, 1.0))
                         for name in (fields or FIELD_WEIGHTS)),
            proximity=proximity,
        )

    def _word_score(self, tf: int, planned: PlannedWord) -> float:
        """Score of one query word with term frequency ``tf > 0``."""
        idf = planned.idf
        if idf is None:  # unfitted model: preserve NotFittedError
            idf = self.tfidf.idf(planned.stemmed)
        return tf_weight(tf) * idf

    # -- document-level score -----------------------------------------------

    def scorer(self, parsed: ParsedQuery,
               fields: list[str] | None = None):
        """A single-argument callable for ``$function`` registration.

        All query-side state is :meth:`query_plan`'s, computed once; the
        closure only does per-document work (one tokenize + one stem
        pass per field, shared between TF counting and proximity
        extraction).
        """
        plan = self.query_plan(parsed, fields)

        def rank(document: dict[str, Any]) -> float:
            total = 0.0
            best_proximity = 0.0
            # lint: allow=REP207 PAPER.md §1.8's reference ranker
            for field_name, weight in plan.fields:
                text = field_text(document, field_name)
                if not text:
                    continue
                tokens = tokenize(text)
                stemmed_tokens = [stem(token) for token in tokens]
                counts = Counter(stemmed_tokens)
                field_total = 0.0
                # lint: allow=REP207 PAPER.md §1.8's reference ranker
                for planned in plan.words:
                    tf = counts.get(planned.stemmed, 0)
                    if not tf:
                        continue
                    value = self._word_score(tf, planned)
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
