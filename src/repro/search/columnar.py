"""Columnar posting lists + numpy ranking kernels for the search hot path.

The scalar ranking path walks every matched document in Python: per
document, per field, tokenize + stem + count + window-scan.  Under the
GIL that work gains nothing from a thread fan-out.  This module trades
the per-document dict walking for contiguous per-segment arrays scored
with numpy batch operations:

* per segment and per field, a CSR layout of stem postings —
  ``(term-id, row, term-frequency)`` triples plus a flat positions array
  — built once from the stored documents with the exact tokenizer and
  stemmer the scalar scorer uses;
* per segment and per field, an *atom* dictionary (sorted unique ``\\w+``
  runs of the raw text, folded by :func:`fold` the way ``IGNORECASE``
  compares) that reproduces the ``$match`` regex semantics
  (``\\b(?:stem|word)\\w*``) as two binary searches per query term;
* per segment, the precomputed static scores, paper ids, and a table
  of :func:`~repro.text.tfidf.tf_weight` by integer tf, so kernel
  TF-IDF values are bit-identical to the scalar ``tf_weight(tf) * idf``;
* no scoring state of its own: kernels read the scalar scorer's
  :class:`~repro.search.ranking.QueryPlan`.

The kernel path only engages when it can reproduce the scalar reference
**byte-identically** (see :func:`build_query_spec`); everything else —
quoted phrases, synonym expansion, custom ``$function`` rankers,
non-alphanumeric terms — falls back to the scalar pipeline.  Ordering is
preserved exactly: score descending, ``paper_id`` ascending, then row,
the same composite the store's heap merge uses.  The fallback still
reads the atom dictionaries: :meth:`ColumnarIndex.candidate_ids` names
a superset of the rows its ``$match`` accepts (one prefix per atom,
:meth:`MatchPlan.prefix_clauses`), so the regexes run on those rows
only.

Segments hold the sharded store's own rows, uncopied, shard after
shard; the page does not depend on that order (the store's unique
``paper_id`` precedes the row in the merge key).  The index is
version-stamped like the KG derived indexes: it is invalidated
whenever ``(store.version, tfidf.num_documents)`` moves.
Invalidation is **incremental for append-only motion**: when the
stamp advanced by inserts alone (version and document count moved in
lockstep), the new rows land in a small *delta segment* appended to
the existing immutable base — queries score every segment in turn
and merge exactly; any other mutation triggers a full rebuild.  The
delta tier is size-tiered: the arriving rows first absorb every
trailing delta smaller than twice their number
(:meth:`ColumnarIndex.extend`), so a query visits at most
``⌊log2(delta rows)⌋ + 1`` deltas however many commits made them; that
fold is the only compaction that runs by itself.  An explicit merge
(``SearchCorpus.merge_segments``, which ``IngestEngine.merge_now``
calls) folds every delta back into one base segment; the merged index
is byte-identical to a from-scratch rebuild, so either generation may
answer a query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.docstore.sharding import ShardedCollection
from repro.search.indexing import field_text
from repro.search.query import ParsedQuery, QueryTerm, fold
from repro.search.ranking import (
    PROXIMITY_WEIGHT,
    STATIC_WEIGHT,
    QueryPlan,
    RankingFunction,
    min_window,
    static_score,
)
from repro.text.stemmer import stem
from repro.text.tfidf import tf_weight
from repro.text.tokenizer import tokenize

#: The ``$match`` regexes (``\b(?:root|word)\w*``) see every ``\w+`` run
#: of the raw text; the tokenizer does not (it splits on ``_`` and glues
#: ``covid-19``).  Atoms therefore get their own dictionary.
_ATOM_RE = re.compile(r"\w+")

#: The leading ASCII-alphanumeric run of a folded word: its atom prefix.
_ALNUM_HEAD_RE = re.compile(r"[a-z0-9]+")

#: ``(field, prefixes)`` atoms in CNF: a row needs, in every clause, an
#: atom whose field holds a folded ``\w+`` run starting with one of its
#: prefixes.  ``None`` prefixes admit every row.
PrefixClauses = tuple[tuple[tuple[str, tuple[str, ...] | None], ...], ...]


def atom_prefix(word: str) -> str | None:
    """What every atom a ``\\b``-anchored match of ``word`` lands on starts
    with, or ``None`` when no ASCII-alphanumeric prefix is safe.

    Matched ignoring case from a word boundary, the first ``\\w`` run of
    ``word`` starts a ``\\w+`` run of the text, so the folded run starts
    with the leading ``[a-z0-9]+`` of the folded ``word`` run.

    >>> atom_prefix("İnfluenza"), atom_prefix("sars-cov-2")
    ('influenza', 'sars')
    """
    run = _ATOM_RE.search(fold(word))
    head = _ALNUM_HEAD_RE.match(run.group()) if run else None
    return head.group() if head else None


def _term_prefixes(term: QueryTerm) -> tuple[str, ...] | None:
    """A term's atom prefixes: one per alternative of its pattern —
    ``\\b(?:root|word)\\w*`` for a loose term, ``\\b`` + the literal for a
    quoted one or a synonym."""
    words = (term.text,) if term.exact else (stem(term.text), term.text)
    prefixes = [atom_prefix(word) for word in words]
    if None in prefixes:
        return None
    return tuple(dict.fromkeys(prefixes))

# -- match plans ------------------------------------------------------------

@dataclass(frozen=True)
class MatchPlan:
    """What a query matches, stated once, as CNF: AND of clauses, OR of
    atoms inside.

    Each atom is ``(field, term)`` — "term's regex matches this field".
    Both engine shapes reduce to this: all-fields/table search ANDs
    per-term OR-over-fields clauses; title/abstract/caption ANDs
    per-field OR-over-terms clauses.  The kernel planner
    (:func:`build_query_spec`) and the scalar pipeline's ``$match``
    (:meth:`match_document`) both read the same clauses.
    """

    clauses: tuple[tuple[tuple[str, QueryTerm], ...], ...]

    @classmethod
    def terms_over_fields(cls, parsed: ParsedQuery, fields: Iterable[str],
                          expander=None) -> "MatchPlan":
        """AND over terms; each term may match any of ``fields``.

        With a :class:`~repro.search.synonyms.SynonymExpander`, a loose
        term is also satisfied by any of its synonyms (quoted terms stay
        literal), widening recall the way the ranking's synonym support
        widens scoring.
        """
        fields = tuple(fields)
        clauses = []
        for term in parsed.terms:
            alternatives = [term]
            if expander is not None and not term.exact:
                # ``exact``: matched by its own literal-prefix pattern,
                # never by a stem — which also keeps it off the kernels.
                alternatives.extend(
                    QueryTerm(text=synonym, exact=True,
                              pattern=r"\b" + re.escape(synonym) + r"\w*")
                    for synonym, _weight in expander.expand(term.text)
                )
            clauses.append(tuple(
                (field, alternative)
                for field in fields for alternative in alternatives
            ))
        return cls(tuple(clauses))

    @classmethod
    def fields_over_terms(
        cls, field_queries: Iterable[tuple[str, ParsedQuery]]
    ) -> "MatchPlan":
        """AND over searched fields; each needs at least one of its terms.

        This is the *inclusive field* semantics of Section 2.1.1: "if a
        user searches on a field there must be a document that matches at
        least one term in that field".
        """
        return cls(tuple(
            tuple((field, term) for term in parsed.terms)
            for field, parsed in field_queries
        ))

    def prefix_clauses(self) -> PrefixClauses:
        """The clauses as ``(field, prefixes)`` atoms for the atom
        dictionaries: every row the :meth:`match_document` accepts is
        one :func:`candidate_rows` admits."""
        # One derivation per term object, however many fields it spans.
        prefixes = {id(term): term for clause in self.clauses
                    for _field, term in clause}
        for key, term in prefixes.items():
            prefixes[key] = _term_prefixes(term)
        return tuple(
            tuple((field, prefixes[id(term)]) for field, term in clause)
            for clause in self.clauses
        )

    def match_document(self) -> dict[str, Any]:
        """The ``$match`` stage document the scalar pipeline runs."""
        clauses = []
        for clause in self.clauses:
            atoms = [{field: {"$regex": term.pattern, "$options": "i"}}
                     for field, term in clause]
            clauses.append(atoms[0] if len(atoms) == 1 else {"$or": atoms})
        return clauses[0] if len(clauses) == 1 else {"$and": clauses}


@dataclass(frozen=True)
class QuerySpec:
    """A fully-planned kernel query.

    ``clauses`` drive candidate selection (atoms as ``(field, (root,
    word))``, :meth:`MatchPlan.prefix_clauses`); ``plan`` is the scalar
    scorer's own query plan, which the kernels score from.
    """

    clauses: PrefixClauses
    plan: QueryPlan


def kernel_eligible(ranking: RankingFunction,
                    terms: Iterable[QueryTerm]) -> bool:
    """Whether the kernels can reproduce ``ranking`` over ``terms`` exactly.

    The one predicate the planner (:func:`build_query_spec`) applies:

    * the ranker must be exactly :class:`RankingFunction` (a subclass
      may override anything);
    * no synonym expander (expansion changes both match and score);
    * no quoted phrases (their regexes cross token boundaries);
    * every term must have :attr:`~repro.search.query.QueryTerm.prefixes`
      (its stem root *and* literal word pure lowercase ASCII
      alphanumerics), where regex-prefix == atom-prefix.
    """
    if type(ranking) is not RankingFunction:
        return False
    if ranking.expander is not None:
        return False
    return all(term.prefixes is not None for term in terms)


def build_query_spec(parsed: ParsedQuery, match_plan: MatchPlan,
                     rank_fields: list[str], ranking: RankingFunction,
                     indexed_fields: Iterable[str]) -> QuerySpec | None:
    """Plan a kernel query, or ``None`` when the kernel can't be exact.

    The kernel only runs when it provably reproduces the scalar path
    bit-for-bit; anything outside that envelope falls back: the query
    must be :func:`kernel_eligible`, the model fitted, and every
    matched/ranked field columnar-indexed.
    """
    if not kernel_eligible(ranking, parsed.terms):
        return None
    if ranking.tfidf.num_documents == 0:
        return None
    indexed = set(indexed_fields)
    if any(field not in indexed for field in rank_fields):
        return None
    if any(field not in indexed or term.exact
           for clause in match_plan.clauses for field, term in clause):
        return None
    # One query plan feeds both executors: eligibility rules out
    # synonyms (no weights) and phrases (every proximity entry is a
    # loose stem), and a fitted model leaves no IDF undefined.
    return QuerySpec(match_plan.prefix_clauses(),
                     ranking.query_plan(parsed, rank_fields))


# -- columnar storage -------------------------------------------------------

class FieldColumns:
    """One segment-field's postings in CSR numpy layout."""

    __slots__ = ("stem_index", "post_starts", "post_rows", "post_tfs",
                 "pos_starts", "positions",
                 "atoms", "atom_starts", "atom_rows", "max_atom_len")

    def __init__(self, texts: list[str]) -> None:
        postings: dict[str, list[tuple[int, list[int]]]] = {}
        atom_rows: dict[str, list[int]] = {}
        for row, text in enumerate(texts):
            occurrences: dict[str, list[int]] = {}
            for position, token in enumerate(tokenize(text)):
                occurrences.setdefault(stem(token), []).append(position)
            for stemmed, positions in occurrences.items():
                postings.setdefault(stemmed, []).append((row, positions))
            for atom in set(_ATOM_RE.findall(fold(text))):
                rows = atom_rows.setdefault(atom, [])
                if not rows or rows[-1] != row:
                    rows.append(row)
        self.stem_index = {s: i for i, s in enumerate(postings)}
        starts, rows, tfs, pos_starts, flat_positions = [0], [], [], [0], []
        for entries in postings.values():
            for row, positions in entries:
                rows.append(row)
                tfs.append(len(positions))
                flat_positions.extend(positions)
                pos_starts.append(len(flat_positions))
            starts.append(len(rows))
        self.post_starts = np.asarray(starts, dtype=np.int64)
        self.post_rows = np.asarray(rows, dtype=np.int64)
        self.post_tfs = np.asarray(tfs, dtype=np.int64)
        self.pos_starts = np.asarray(pos_starts, dtype=np.int64)
        self.positions = np.asarray(flat_positions, dtype=np.int64)
        sorted_atoms = sorted(atom_rows)
        self.max_atom_len = max((len(a) for a in sorted_atoms), default=0)
        self.atoms = np.asarray(sorted_atoms, dtype="<U1") \
            if not sorted_atoms else np.asarray(sorted_atoms)
        astarts, arows = [0], []
        for atom in sorted_atoms:
            arows.extend(atom_rows[atom])
            astarts.append(len(arows))
        self.atom_starts = np.asarray(astarts, dtype=np.int64)
        self.atom_rows = np.asarray(arows, dtype=np.int64)

    def prefix_rows(self, prefix: str) -> "np.ndarray":
        """Rows whose text has a ``\\w+`` run starting with ``prefix``."""
        if len(prefix) > self.max_atom_len or not len(self.atoms):
            return self.atom_rows[:0]
        lo = int(np.searchsorted(self.atoms, prefix, side="left"))
        # Successor string of the same length: prefix upper bound without
        # widening the array dtype (roots/words are ASCII alnum, so the
        # incremented code point stays in range).
        upper = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        hi = int(np.searchsorted(self.atoms, upper, side="left"))
        if lo >= hi:
            return self.atom_rows[:0]
        pieces = [
            self.atom_rows[self.atom_starts[a]:self.atom_starts[a + 1]]
            for a in range(lo, hi)
        ]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    def posting_slice(self, stemmed: str) -> tuple[int, int] | None:
        sid = self.stem_index.get(stemmed)
        if sid is None:
            return None
        return int(self.post_starts[sid]), int(self.post_starts[sid + 1])


class SegmentColumns:
    """All columnar state of one segment (no raw documents)."""

    __slots__ = ("num_rows", "fields", "paper_ids", "static", "tf_weights")

    def __init__(self, documents: list[dict[str, Any]],
                 field_names: Iterable[str]) -> None:
        self.num_rows = len(documents)
        self.fields = {
            name: FieldColumns([field_text(doc, name) for doc in documents])
            for name in field_names
        }
        self.paper_ids = (
            np.asarray([str(doc.get("paper_id", "")) for doc in documents])
            if documents else np.asarray([], dtype="<U1")
        )
        self.static = np.asarray(
            [static_score(doc) for doc in documents], dtype=np.float64
        )
        max_tf = max(
            (int(fc.post_tfs.max()) for fc in self.fields.values()
             if len(fc.post_tfs)),
            default=0,
        )
        # Bit-exact: tabulate the scalar path's own tf_weight by integer
        # tf instead of trusting np.log to agree to the ULP.
        self.tf_weights = np.asarray(
            [0.0] + [tf_weight(tf) for tf in range(1, max_tf + 1)],
            dtype=np.float64,
        )


# -- kernels ----------------------------------------------------------------

def candidate_rows(cols: SegmentColumns,
                   clauses: PrefixClauses) -> "np.ndarray":
    """Rows the CNF admits, in insertion (row) order.

    Exactly the ``$match`` rows for a kernel query; a superset for any
    other, whose clause is skipped when an atom has no prefix or no
    columns (it admits every row).
    """
    mask = np.ones(cols.num_rows, dtype=bool)
    for clause in clauses:
        if any(prefixes is None or field not in cols.fields
               for field, prefixes in clause):
            continue
        clause_mask = np.zeros(cols.num_rows, dtype=bool)
        for field, prefixes in clause:
            fc = cols.fields[field]
            for prefix in prefixes:
                rows = fc.prefix_rows(prefix)
                if len(rows):
                    clause_mask[rows] = True
        mask &= clause_mask
        if not mask.any():
            break
    return np.nonzero(mask)[0]


def _gather_tf(cols: SegmentColumns, fc: FieldColumns, stemmed: str,
               cand: "np.ndarray") -> "np.ndarray | None":
    span = fc.posting_slice(stemmed)
    if span is None:
        return None
    scratch = np.zeros(cols.num_rows, dtype=np.int64)
    scratch[fc.post_rows[span[0]:span[1]]] = fc.post_tfs[span[0]:span[1]]
    return scratch[cand]


def _field_word_scores(cols: SegmentColumns, fc: FieldColumns,
                       spec: QuerySpec, cand: "np.ndarray") -> "np.ndarray":
    """Σ over query words of ``tf_weight(tf) * idf``, in scalar order."""
    acc = np.zeros(len(cand), dtype=np.float64)
    for planned in spec.plan.words:
        tf = _gather_tf(cols, fc, planned.stemmed, cand)
        if tf is None:
            continue
        nz = tf > 0
        if not nz.any():
            continue
        contrib = np.zeros(len(cand), dtype=np.float64)
        contrib[nz] = cols.tf_weights[tf[nz]] * planned.idf
        acc = acc + contrib
    return acc


def _proximity_bonus(cols: SegmentColumns, spec: QuerySpec,
                     cand: "np.ndarray") -> "np.ndarray":
    """Best per-field 1/min-window bonus per candidate row."""
    best = np.zeros(len(cand), dtype=np.float64)
    for name, _weight in spec.plan.fields:
        fc = cols.fields.get(name)
        if fc is None:
            continue
        present = np.ones(len(cand), dtype=bool)
        term_postings = []
        for _kind, stemmed in spec.plan.proximity:
            span = fc.posting_slice(stemmed)
            if span is None:
                present[:] = False
                break
            scratch = np.full(cols.num_rows, -1, dtype=np.int64)
            scratch[fc.post_rows[span[0]:span[1]]] = np.arange(
                span[0], span[1], dtype=np.int64
            )
            gathered = scratch[cand]
            term_postings.append(gathered)
            present &= gathered >= 0
        if not present.any():
            continue
        # The window scan itself stays scalar: it only runs on the
        # (typically small) all-terms-present intersection, and must be
        # the very min_window the reference scorer uses.
        for j in np.nonzero(present)[0]:
            positions = [
                fc.positions[
                    fc.pos_starts[tp[j]]:fc.pos_starts[tp[j] + 1]
                ].tolist()
                for tp in term_postings
            ]
            window = min_window(positions)
            if window is not None:
                bonus = 1.0 / window
                if bonus > best[j]:
                    best[j] = bonus
    return best


def score_segment(cols: SegmentColumns, spec: QuerySpec, top_k: int
                  ) -> tuple[int, list[tuple[float, str, int]]]:
    """Match + score one segment; returns (candidates, top-k partials).

    Partials are ``(score, paper_id, row)`` in final page order — score
    descending, paper_id ascending, insertion (row) ascending — the
    exact composite the scalar heap merge sorts by.
    """
    cand = candidate_rows(cols, spec.clauses)
    total = int(cand.size)
    if not total:
        return 0, []
    scores = np.zeros(total, dtype=np.float64)
    # Per-field, not per-document: each iteration is one batch kernel.
    for name, weight in spec.plan.fields:  # lint: allow=REP207
        fc = cols.fields.get(name)
        if fc is None:
            continue
        scores = scores + weight * _field_word_scores(cols, fc, spec, cand)
    if spec.plan.proximity is not None:
        scores = scores + PROXIMITY_WEIGHT * _proximity_bonus(
            cols, spec, cand
        )
    scores = scores + STATIC_WEIGHT * cols.static[cand]
    paper_ids = cols.paper_ids[cand]
    order = np.lexsort((cand, paper_ids, -scores))[:top_k]
    return total, [
        (float(scores[i]), str(paper_ids[i]), int(cand[i])) for i in order
    ]


# -- the index --------------------------------------------------------------

class Segment:
    """One immutable run of rows: arrays + the store's rows they index.

    ``offset`` is the segment's first global row; local kernel rows map
    to global rows by addition.  Segments never mutate after
    construction — extending an index builds a *new* segment (over the
    appended rows and the small deltas they fold in), so a query
    holding an older index object keeps scoring a consistent snapshot.
    """

    __slots__ = ("cols", "documents", "offset")

    def __init__(self, documents: list[dict[str, Any]],
                 field_names: tuple[str, ...], offset: int) -> None:
        self.cols = SegmentColumns(documents, field_names)
        self.documents = documents
        self.offset = offset

    @property
    def num_rows(self) -> int:
        return self.cols.num_rows


class ColumnarIndex:
    """The segment list (base + deltas) + the stored rows for page fetch.

    A fresh build is one tokenize/stem pass over the corpus — about the
    cost of a single scalar query — amortized across every query until
    the next docstore mutation moves the stamp.  Append-only motion is
    much cheaper: :meth:`extend` tokenizes the new rows (and the
    smaller deltas they fold in) into one delta segment and shares the
    other arrays.  Index objects are
    immutable snapshots; extend/merge produce *new* objects, and the
    corpus swaps them in with a single atomic attribute assignment.
    """

    def __init__(self, stamp: Any, segments: list[Segment],
                 field_names: tuple[str, ...]) -> None:
        self.stamp = stamp
        self.segments = segments
        self.field_names = field_names

    @classmethod
    def build(cls, collection: ShardedCollection, field_names: Iterable[str],
              stamp: Any) -> "ColumnarIndex":
        field_names = tuple(field_names)
        rows = collection.rows([0] * len(stamp[2]), stamp[2])
        return cls(stamp, [Segment(rows, field_names, 0)], field_names)

    def extend(self, collection: ShardedCollection, stamp: Any
               ) -> "ColumnarIndex":
        """A new index covering the rows inserted between the two stamps.

        Only sound for append-only motion (the corpus checks the stamp
        arithmetic before calling).  The result shares this index's
        surviving segments — ``self`` stays fully usable by queries
        already holding it.

        The delta tier stays geometric (the logarithmic method): the
        appended run absorbs every trailing delta — never
        ``segments[0]``, the base — that has fewer than twice its rows,
        growing as it goes, and one new segment is built over the
        folded rows (the store's rows: no copy).  So for any
        sequence of batch sizes each older delta holds at least twice
        the rows of the next newer one, ``delta_segments ≤
        ⌊log2(delta_rows)⌋ + 1``, and a row is re-analysed at most that
        many times before the base merge takes it.
        """
        offset = self.num_rows
        segments = list(self.segments)
        run = collection.rows(self.stamp[2], stamp[2])
        if run:
            # Per-segment loop, bounded by the delta tier's depth.
            while (len(segments) > 1
                   and segments[-1].num_rows < 2 * len(run)):
                folded = segments.pop()
                run = folded.documents + run
                offset = folded.offset
            segments.append(Segment(run, self.field_names, offset))
        return type(self)(stamp, segments, self.field_names)

    @property
    def num_rows(self) -> int:
        return sum(segment.num_rows for segment in self.segments)

    @property
    def delta_segments(self) -> int:
        """Segments beyond the base (the merge debt)."""
        return len(self.segments) - 1

    @property
    def delta_rows(self) -> int:
        """Rows living outside the base segment."""
        return sum(segment.num_rows for segment in self.segments[1:])

    def rank(self, spec: QuerySpec, top_k: int
             ) -> tuple[int, list[tuple[float, str, int]]]:
        """Score every segment on the calling thread; merge in page order.

        Returns ``(total_matches, merged)`` with merged entries
        ``(score, paper_id, row)`` truncated to ``top_k`` — ``row`` is
        global (segment offset + local row), so the composite order is
        identical whether the rows live in one base segment or across
        deltas.  A plain loop: a small delta's kernel is ≈0.1 ms, less
        than handing it to another thread costs (EXPERIMENTS.md, "Trial:
        fan-out control on the search path").
        """
        total = 0
        merged: list[tuple[float, str, int]] = []
        # Per-segment loop, bounded by the merge debt — not per-document.
        for segment in self.segments:  # lint: allow=REP207
            if not segment.num_rows:
                continue
            matched, partial = score_segment(segment.cols, spec, top_k)
            total += matched
            merged.extend((score, paper_id, segment.offset + row)
                          for score, paper_id, row in partial)
        merged.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
        return total, merged[:top_k]

    def candidate_ids(self, clauses: PrefixClauses) -> list[Any] | None:
        """The ``paper_id`` of every row :func:`candidate_rows` admits,
        segment by segment, or ``None`` when that is every row."""
        ids = []
        for segment in self.segments:
            rows = candidate_rows(segment.cols, clauses)
            ids.extend(segment.documents[row]["paper_id"]
                       for row in rows.tolist())
        return None if len(ids) == self.num_rows else ids

    def _segment_for(self, row: int) -> Segment:
        for segment in reversed(self.segments):
            if row >= segment.offset:
                return segment
        raise IndexError(f"row {row} not in the index")

    def fetch(self, entries: list[tuple[float, str, int]],
              projection: dict[str, int]) -> list[dict[str, Any]]:
        """The page's rows: ``projection``'s top-level fields + ``score``.

        Each row is a fresh dict whose values *are* the segment's stored
        values — a read-only view, not the deep copy ``$project`` makes.
        Segment rows are immutable for the life of the segment, so
        callers must only read what they are handed: the engines'
        formatters build every string, list and dict of a
        ``SearchResult`` anew and never write into a row.
        """
        page = []
        for score, _paper_id, row in entries:
            segment = self._segment_for(row)
            stored = segment.documents[row - segment.offset]
            document = {name: stored[name] for name in projection
                        if name in stored}
            document["score"] = score
            page.append(document)
        return page


def stamp_for(collection: ShardedCollection, num_documents: int
              ) -> tuple[int, int, tuple[int, ...]]:
    """Docstore version + model document count + the rows it covers.

    The rows are named by the store's row count per shard (insert-only).
    """
    return (collection.version, num_documents,
            tuple(collection.shard_sizes()))


def build_index(collection: ShardedCollection, field_names: Iterable[str],
                stamp: Any) -> ColumnarIndex:
    """Convenience wrapper (import surface for the engines)."""
    return ColumnarIndex.build(collection, field_names, stamp)
