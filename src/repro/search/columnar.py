"""Columnar posting lists + numpy ranking kernels for the search hot path.

The scalar ranking path walks every matched document in Python: per
document, per field, tokenize + stem + count + window-scan.  Under the
GIL that work gains nothing from the thread fan-out (bench E16 measures
~1x).  This module trades the per-document dict walking for contiguous
per-shard arrays scored with numpy batch operations:

* per shard and per field, a CSR layout of stem postings —
  ``(term-id, row, term-frequency)`` triples plus a flat positions array
  — built once from the stored documents with the exact tokenizer and
  stemmer the scalar scorer uses;
* per shard and per field, an *atom* dictionary (sorted unique ``\\w+``
  runs of the raw text, case-folded) that reproduces the ``$match``
  regex semantics (``\\b(?:stem|word)\\w*``, ``IGNORECASE``) as two
  binary searches per query term;
* per shard, the precomputed static scores, paper ids, and a
  ``math.log`` lookup table so kernel TF-IDF values are bit-identical
  to the scalar ``(1 + log(tf)) * idf``.

The kernel path only engages when it can reproduce the scalar reference
**byte-identically** (see :func:`build_query_spec`); everything else —
quoted phrases, synonym expansion, custom ``$function`` rankers,
non-alphanumeric terms — falls back to the scalar pipeline.  Ordering is
preserved exactly: score descending, ``paper_id`` ascending, then shard
/ insertion order, the same composite the heap merge uses.

The index is version-stamped like the KG derived indexes: it is
invalidated whenever ``(collection.version, tfidf.num_documents)``
moves.  Invalidation is **incremental for append-only motion**: when the
stamp advanced by inserts alone (version and document count moved in
lockstep), the new rows land in small per-shard *delta segments*
appended to the existing immutable base — queries consult every segment
and merge exactly; any other mutation triggers a full rebuild.  A
background merge (the streaming-ingest tier's
``SearchCorpus.merge_segments``) periodically folds deltas back into
one base segment; the merged index is byte-identical to a from-scratch
rebuild, so either generation may answer a query.

With ``REPRO_EXECUTOR_KIND=process`` the per-segment kernels run on a
process pool (spawn context) behind the same thread-level ``scatter`` —
``FanoutBudget`` accounting, quiescence, and the fan-out observers all
apply unchanged.  Segment arrays are shipped to each worker process once
and cached there keyed by ``(index key, (shard, position), segment
id)``; a new segment at the same position evicts the previous
generation.  The caveats: spawn start-up costs ~100ms per worker once,
every worker eventually holds a copy of every segment it scored, and
results are identical to thread mode because the same arrays produce the
same kernels.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import time
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.docstore import executor as _executor
from repro.docstore.collection import Collection, apply_projection
from repro.docstore.documents import deep_set
from repro.docstore.sharding import ShardedCollection
from repro.search.indexing import field_text
from repro.search.query import ParsedQuery, QueryTerm
from repro.search.ranking import (
    PROXIMITY_WEIGHT,
    STATIC_WEIGHT,
    BM25RankingFunction,
    RankingFunction,
    min_window,
    static_score,
)
from repro.text.stemmer import stem
from repro.text.tokenizer import tokenize

#: The ``$match`` regexes (``\b(?:root|word)\w*``) see every ``\w+`` run
#: of the raw text; the tokenizer does not (it splits on ``_`` and glues
#: ``covid-19``).  Atoms therefore get their own dictionary.
_ATOM_RE = re.compile(r"\w+")

#: Kernel-eligible roots/words: pure lowercase ASCII alphanumerics, for
#: which "regex prefix match" and "atom prefix match" provably coincide.
_ALNUM_RE = re.compile(r"[a-z0-9]+\Z")

_INDEX_IDS = itertools.count(1)
_SEGMENT_IDS = itertools.count(1)


def new_index_key() -> str:
    """A worker-cache key prefix for one engine's index lineage.

    Engines mint one key at construction and reuse it across rebuilds
    and extends, so the process-pool worker cache's slot eviction
    (keyed on ``(index key, (shard, position))``) reclaims the previous
    generation instead of leaking it.
    """
    return f"columnar-{os.getpid()}-{next(_INDEX_IDS)}"


# -- match plans ------------------------------------------------------------

@dataclass(frozen=True)
class MatchPlan:
    """The ``$match`` stage as CNF: AND of clauses, OR of atoms inside.

    Each atom is ``(field, term)`` — "term's regex matches this field".
    Both engine shapes reduce to this: all-fields/table search ANDs
    per-term OR-over-fields clauses; title/abstract/caption ANDs
    per-field OR-over-terms clauses.
    """

    clauses: tuple[tuple[tuple[str, QueryTerm], ...], ...]

    @classmethod
    def terms_over_fields(cls, parsed: ParsedQuery,
                          fields: Iterable[str]) -> "MatchPlan":
        """AND over terms; each term may match any of ``fields``."""
        fields = tuple(fields)
        return cls(tuple(
            tuple((field, term) for field in fields)
            for term in parsed.terms
        ))

    @classmethod
    def fields_over_terms(
        cls, field_queries: Iterable[tuple[str, ParsedQuery]]
    ) -> "MatchPlan":
        """AND over searched fields; each needs at least one of its terms."""
        return cls(tuple(
            tuple((field, term) for term in parsed.terms)
            for field, parsed in field_queries
        ))


@dataclass(frozen=True)
class QuerySpec:
    """A fully-planned kernel query (picklable: plain strings/floats).

    ``clauses`` drive candidate selection (atoms as ``(field, root,
    word)``), ``words`` carry the scoring stems with their query-side
    IDFs in scalar accumulation order, ``fields`` the rank fields with
    weight and BM25 ``avgdl``, and ``prox_stems`` the per-term stems for
    the proximity window (``None`` for single-term queries).
    """

    clauses: tuple[tuple[tuple[str, str, str], ...], ...]
    words: tuple[tuple[str, float], ...]
    fields: tuple[tuple[str, float, float], ...]
    prox_stems: tuple[str, ...] | None
    ranker: str = "tfidf"
    k1: float = 1.5
    b: float = 0.75


def kernel_eligible(ranking: RankingFunction,
                    terms: Iterable[QueryTerm]) -> bool:
    """Whether the kernels can reproduce ``ranking`` over ``terms`` exactly.

    The one predicate the planner (:func:`build_query_spec`) and
    admission pricing (``SearchEngineBase.rank_cost_factor``) share:

    * the ranker must be exactly :class:`RankingFunction` or
      :class:`BM25RankingFunction` (a subclass may override anything);
    * no synonym expander (expansion changes both match and score);
    * no quoted phrases (their regexes cross token boundaries);
    * every term's stem root *and* literal word must be pure lowercase
      ASCII alphanumerics, where regex-prefix == atom-prefix.
    """
    if type(ranking) not in (RankingFunction, BM25RankingFunction):
        return False
    if ranking.expander is not None:
        return False
    return all(
        not term.exact and _ALNUM_RE.match(term.text)
        and _ALNUM_RE.match(stem(term.text))
        for term in terms
    )


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
    clauses = []
    for clause in match_plan.clauses:
        atoms = []
        for field, term in clause:
            if field not in indexed or term.exact:
                return None
            atoms.append((field, stem(term.text), term.text))
        clauses.append(tuple(atoms))
    words = []
    for term in parsed.terms:
        for word in term.text.split():
            stemmed = stem(word)
            idf = ranking._word_idf(stemmed)
            if idf is None:
                return None
            words.append((stemmed, idf))
    fields = tuple(
        (field, ranking.field_weights.get(field, 1.0),
         ranking._field_norm(field))
        for field in rank_fields
    )
    prox_stems = (
        tuple(stem(term.text) for term in parsed.terms)
        if len(parsed.terms) >= 2 else None
    )
    if isinstance(ranking, BM25RankingFunction):
        return QuerySpec(tuple(clauses), tuple(words), fields, prox_stems,
                         ranker="bm25", k1=ranking.k1, b=ranking.b)
    return QuerySpec(tuple(clauses), tuple(words), fields, prox_stems)


# -- columnar storage -------------------------------------------------------

class FieldColumns:
    """One shard-field's postings in CSR numpy layout."""

    __slots__ = ("stem_index", "post_starts", "post_rows", "post_tfs",
                 "pos_starts", "positions", "doc_lengths",
                 "atoms", "atom_starts", "atom_rows", "max_atom_len")

    def __init__(self, texts: list[str]) -> None:
        postings: dict[str, list[tuple[int, list[int]]]] = {}
        atom_rows: dict[str, list[int]] = {}
        doc_lengths = []
        for row, text in enumerate(texts):
            tokens = tokenize(text)
            doc_lengths.append(len(tokens))
            occurrences: dict[str, list[int]] = {}
            for position, token in enumerate(tokens):
                occurrences.setdefault(stem(token), []).append(position)
            for stemmed, positions in occurrences.items():
                postings.setdefault(stemmed, []).append((row, positions))
            for atom in set(_ATOM_RE.findall(text)):
                folded = atom.casefold()
                rows = atom_rows.setdefault(folded, [])
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
        self.doc_lengths = np.asarray(doc_lengths, dtype=np.int64)
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


class ShardColumns:
    """All columnar state of one shard (picklable; no raw documents)."""

    __slots__ = ("num_rows", "fields", "paper_ids", "static", "log_table")

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
        # Bit-exact (1 + log(tf)): index the scalar path's math.log by
        # integer tf instead of trusting np.log to agree to the ULP.
        self.log_table = np.asarray(
            [0.0] + [math.log(tf) for tf in range(1, max_tf + 1)],
            dtype=np.float64,
        )


# -- kernels ----------------------------------------------------------------

def _candidate_rows(cols: ShardColumns, spec: QuerySpec) -> "np.ndarray":
    """Rows satisfying the CNF match plan, in insertion (row) order."""
    mask = np.ones(cols.num_rows, dtype=bool)
    for clause in spec.clauses:
        clause_mask = np.zeros(cols.num_rows, dtype=bool)
        for field, root, word in clause:
            fc = cols.fields.get(field)
            if fc is None:
                continue
            for prefix in dict.fromkeys((root, word)):
                rows = fc.prefix_rows(prefix)
                if len(rows):
                    clause_mask[rows] = True
        mask &= clause_mask
        if not mask.any():
            break
    return np.nonzero(mask)[0]


def _gather_tf(cols: ShardColumns, fc: FieldColumns, stemmed: str,
               cand: "np.ndarray") -> "np.ndarray | None":
    span = fc.posting_slice(stemmed)
    if span is None:
        return None
    scratch = np.zeros(cols.num_rows, dtype=np.int64)
    scratch[fc.post_rows[span[0]:span[1]]] = fc.post_tfs[span[0]:span[1]]
    return scratch[cand]


def _field_word_scores(cols: ShardColumns, fc: FieldColumns,
                       spec: QuerySpec, cand: "np.ndarray",
                       avgdl: float) -> "np.ndarray":
    """Σ over query words of the word score, in scalar accumulation order."""
    acc = np.zeros(len(cand), dtype=np.float64)
    for stemmed, idf in spec.words:
        tf = _gather_tf(cols, fc, stemmed, cand)
        if tf is None:
            continue
        nz = tf > 0
        if not nz.any():
            continue
        contrib = np.zeros(len(cand), dtype=np.float64)
        if spec.ranker == "bm25":
            tf_nz = tf[nz].astype(np.float64)
            dl_nz = fc.doc_lengths[cand][nz].astype(np.float64)
            norm = spec.k1 * (1.0 - spec.b + spec.b * (dl_nz / avgdl))
            contrib[nz] = idf * (tf_nz * (spec.k1 + 1.0)) / (tf_nz + norm)
        else:
            contrib[nz] = (1.0 + cols.log_table[tf[nz]]) * idf
        acc = acc + contrib
    return acc


def _proximity_bonus(cols: ShardColumns, spec: QuerySpec,
                     cand: "np.ndarray") -> "np.ndarray":
    """Best per-field 1/min-window bonus per candidate row."""
    best = np.zeros(len(cand), dtype=np.float64)
    for name, _weight, _avgdl in spec.fields:
        fc = cols.fields.get(name)
        if fc is None:
            continue
        present = np.ones(len(cand), dtype=bool)
        term_postings = []
        for stemmed in spec.prox_stems:
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
        for j in np.nonzero(present)[0]:  # lint: allow=REP207
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


def score_shard(cols: ShardColumns, spec: QuerySpec,
                top_k: int) -> tuple[int, list[tuple[float, str, int]]]:
    """Match + score one shard; returns (candidates, top-k partials).

    Partials are ``(score, paper_id, row)`` in final page order — score
    descending, paper_id ascending, insertion (row) ascending — the
    exact composite the scalar heap merge sorts by.
    """
    cand = _candidate_rows(cols, spec)
    total = int(cand.size)
    if not total:
        return 0, []
    scores = np.zeros(total, dtype=np.float64)
    # Per-field, not per-document: each iteration is one batch kernel.
    for name, weight, avgdl in spec.fields:  # lint: allow=REP207
        fc = cols.fields.get(name)
        if fc is None:
            continue
        scores = scores + weight * _field_word_scores(
            cols, fc, spec, cand, avgdl
        )
    if spec.prox_stems is not None:
        scores = scores + PROXIMITY_WEIGHT * _proximity_bonus(
            cols, spec, cand
        )
    scores = scores + STATIC_WEIGHT * cols.static[cand]
    paper_ids = cols.paper_ids[cand]
    order = np.lexsort((cand, paper_ids, -scores))[:top_k]
    return total, [
        (float(scores[i]), str(paper_ids[i]), int(cand[i])) for i in order
    ]


# -- process-pool dispatch --------------------------------------------------

#: Worker-side segment cache:
#: ``(index_key, (shard, position), segment_id) -> ShardColumns``.
#: Payloads ship once per worker; a new segment id at the same
#: ``(index_key, (shard, position))`` slot evicts the old generation.
_WORKER_SHARDS: dict[tuple[str, Any, Any], ShardColumns] = {}


def _worker_rank(key: tuple[str, Any, Any],
                 payload: ShardColumns | None, spec: QuerySpec,
                 top_k: int) -> tuple[int, list] | None:
    """Runs in a worker process; ``None`` signals a cache miss."""
    cols = _WORKER_SHARDS.get(key)
    if cols is None:
        if payload is None:
            return None
        slot = key[:2]
        for stale in [k for k in _WORKER_SHARDS if k[:2] == slot]:
            del _WORKER_SHARDS[stale]
        _WORKER_SHARDS[key] = payload
        cols = payload
    return score_shard(cols, spec, top_k)


def _rank_via_process(key: tuple[str, Any, Any], cols: ShardColumns,
                      spec: QuerySpec, top_k: int
                      ) -> tuple[int, list[tuple[float, str, int]]]:
    """Probe the worker cache; resend the shard payload on a miss.

    Any process-pool failure (broken pool, mid-shutdown submit) degrades
    to scoring in-process — results are identical either way.
    """
    from concurrent.futures.process import BrokenProcessPool
    try:
        pool = _executor.get_process_executor()
        result = pool.submit(_worker_rank, key, None, spec, top_k).result()
        if result is None:
            result = pool.submit(
                _worker_rank, key, cols, spec, top_k
            ).result()
        return result
    except (BrokenProcessPool, RuntimeError, OSError):
        return score_shard(cols, spec, top_k)


# -- the index --------------------------------------------------------------

class Segment:
    """One immutable slice of a shard's rows: arrays + raw documents.

    ``offset`` is the segment's first global row; local kernel rows map
    to global rows by addition.  Segments never mutate after
    construction — extending an index appends *new* segments, so a query
    holding an older index object keeps scoring a consistent snapshot.
    """

    __slots__ = ("cols", "documents", "offset", "id")

    def __init__(self, documents: list[dict[str, Any]],
                 field_names: tuple[str, ...], offset: int) -> None:
        self.cols = ShardColumns(documents, field_names)
        self.documents = documents
        self.offset = offset
        self.id = next(_SEGMENT_IDS)

    @property
    def num_rows(self) -> int:
        return self.cols.num_rows


def _shard_sources(
        collection: Collection | ShardedCollection) -> list[Collection]:
    if isinstance(collection, ShardedCollection):
        return list(collection.shards)
    return [collection]


class ColumnarIndex:
    """Per-shard segment lists + the raw documents for page fetch.

    A fresh build is one tokenize/stem pass over the corpus — about the
    cost of a single scalar query — amortized across every query until
    the next docstore mutation moves the stamp.  Append-only motion is
    much cheaper: :meth:`extend` tokenizes only the new rows into delta
    segments (one per shard per extend) and shares the existing base
    arrays.  Index objects are immutable snapshots; extend/merge produce
    *new* objects, and the engines swap them in with a single atomic
    attribute assignment.
    """

    def __init__(self, stamp: Any, segments: list[list[Segment]],
                 field_names: tuple[str, ...],
                 key: str | None = None) -> None:
        self.stamp = stamp
        self.segments = segments
        self.field_names = field_names
        self.key = key or new_index_key()

    @classmethod
    def build(cls, collection: Collection | ShardedCollection,
              field_names: Iterable[str], stamp: Any,
              key: str | None = None) -> "ColumnarIndex":
        field_names = tuple(field_names)
        segments = [
            [Segment(source.find({}).to_list(), field_names, 0)]
            for source in _shard_sources(collection)
        ]
        return cls(stamp, segments, field_names, key=key)

    def extend(self, collection: Collection | ShardedCollection,
               stamp: Any) -> "ColumnarIndex":
        """A new index covering rows appended since this one was built.

        Only sound for append-only motion (the engine checks the stamp
        arithmetic before calling); shards whose row count did not move
        get no new segment.  The result shares this index's base/delta
        arrays and worker-cache key — ``self`` stays fully usable by
        queries already holding it.
        """
        sources = _shard_sources(collection)
        if len(sources) != len(self.segments):
            return type(self).build(collection, self.field_names, stamp,
                                    key=self.key)
        lists = []
        for shard_segments, source in zip(self.segments, sources):
            indexed = sum(seg.num_rows for seg in shard_segments)
            delta = source.find({}).to_list()[indexed:]
            if delta:
                shard_segments = shard_segments + [
                    Segment(delta, self.field_names, indexed)
                ]
            else:
                shard_segments = list(shard_segments)
            lists.append(shard_segments)
        return type(self)(stamp, lists, self.field_names, key=self.key)

    @property
    def num_rows(self) -> int:
        return sum(seg.num_rows
                   for shard in self.segments for seg in shard)

    @property
    def delta_segments(self) -> int:
        """Segments beyond each shard's base (the merge debt)."""
        return sum(max(0, len(shard) - 1) for shard in self.segments)

    @property
    def delta_rows(self) -> int:
        """Rows living outside the base segments."""
        return sum(seg.num_rows
                   for shard in self.segments for seg in shard[1:])

    def rank(self, spec: QuerySpec, top_k: int
             ) -> tuple[int, list[tuple[float, str, int, int]]]:
        """Scatter the kernel per segment; merge in exact page order.

        Returns ``(total_matches, merged)`` with merged entries
        ``(score, paper_id, shard, row)`` truncated to ``top_k`` —
        ``row`` is global (segment offset + local row), so the composite
        order is identical whether the rows live in one base segment or
        across deltas.  Thread tasks go through
        :func:`repro.docstore.executor.scatter`, so ambient
        ``FanoutBudget``s, quiescence-on-error, and fan-out observers
        behave exactly as on the scalar path; with
        ``REPRO_EXECUTOR_KIND=process`` each task round-trips its
        segment kernel through the process pool.
        """
        use_process = _executor.executor_kind() == "process"
        tasks = [
            (shard, position, segment)
            for shard, shard_segments in enumerate(self.segments)
            for position, segment in enumerate(shard_segments)
            if segment.num_rows
        ]

        def segment_task(shard: int, position: int, segment: Segment):
            if use_process:
                total, partial = _rank_via_process(
                    (self.key, (shard, position), segment.id),
                    segment.cols, spec, top_k,
                )
            else:
                total, partial = score_shard(segment.cols, spec, top_k)
            return total, [
                (score, paper_id, shard, segment.offset + row)
                for score, paper_id, row in partial
            ]

        partials = _executor.scatter([
            (lambda t=task: segment_task(*t)) for task in tasks
        ])
        total = sum(partial[0] for partial in partials)
        merged = [entry for partial in partials for entry in partial[1]]
        merged.sort(key=lambda entry: (-entry[0], entry[1], entry[2],
                                       entry[3]))
        return total, merged[:top_k]

    def _segment_for(self, shard: int, row: int) -> Segment:
        for segment in reversed(self.segments[shard]):
            if row >= segment.offset:
                return segment
        raise IndexError(f"row {row} not in shard {shard}")

    def fetch(self, entries: list[tuple[float, str, int, int]],
              projection: dict[str, int]) -> list[dict[str, Any]]:
        """Materialize page documents exactly like ``$project``+``$function``.

        ``apply_projection`` deep-copies the kept values, so returned
        pages never alias the index's snapshot.
        """
        page = []
        for score, _paper_id, shard, row in entries:
            segment = self._segment_for(shard, row)
            document = apply_projection(
                segment.documents[row - segment.offset], projection
            )
            deep_set(document, "score", score)
            page.append(document)
        return page


def stamp_for(collection: Collection | ShardedCollection,
              num_documents: int) -> tuple[int, int]:
    """The invalidation stamp: docstore version + model document count."""
    return (collection.version, num_documents)


def build_index(collection: Collection | ShardedCollection,
                field_names: Iterable[str], stamp: Any,
                key: str | None = None) -> ColumnarIndex:
    """Convenience wrapper (import surface for the engines)."""
    return ColumnarIndex.build(collection, field_names, stamp, key=key)
