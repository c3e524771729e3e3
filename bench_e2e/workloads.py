"""Seeded known-item request generator for the four bench_e2e workloads.

Every request is derived from a paper sampled out of the benchmark corpus
(a *known item*): its terms come from the field the target engine searches,
so the paper itself always matches and the empty-result path stays a small
minority.  Topic-vocabulary queries were tried first and matched nothing on
``table`` and ``title_abstract`` -- they would have measured the empty path.

The corpus is fixed (``CORPUS_SEED``); ``--seed`` drives everything the
program *receives*: which papers and terms are sampled, the zipf order, and
the ingest batches.  One seed gives a byte-identical request list
(``Workload.fingerprint``).
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import urlencode

import numpy as np

from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.text.tokenizer import tokenize

CORPUS_SEED = 11
#: Same growth rate the cluster runner's own generated corpus uses.
PAPERS_PER_WEEK = 25
PAPERS_PER_BATCH = 4

WORKLOADS = ("hot_read", "cold_search", "phrase_search", "mixed_ingest")

#: Columnar-kernel eligibility (repro.search.columnar): pure lowercase
#: ASCII alphanumerics.  Anything else silently takes the scalar path and
#: would turn a kernel workload into a pipeline workload.
_ELIGIBLE = re.compile(r"[a-z0-9]{3,}\Z")

#: A quoted phrase costs ~3 ms per matched document on the scalar pipeline,
#: and the vocabulary has three populations: numbers found in one paper,
#: topic terms found in 5-20% of the papers, template words found in nearly
#: all.  Quoting any term gave a two-humped cost distribution whose median
#: sat between the humps and moved 16% with the seed; quoting template
#: words costs two orders of magnitude more than the median.  So the quoted
#: term is a topic term (a share of the papers within this band) ...
PHRASE_DOC_SHARE = (0.05, 0.2)
#: ... and the loose term beside it is a template word (at least this share
#: of the papers): it makes the key distinct -- there are only ~100 topic
#: terms -- and adds the second term to match and rank, without shrinking
#: the match set.
COMMON_DOC_SHARE = 0.5


@dataclass(frozen=True)
class Request:
    """One generated request; ``target`` is already URL-encoded."""

    method: str
    target: str
    kind: str
    body: bytes = b""

    def to_json(self) -> list[str]:
        return [self.method, self.target, self.kind, self.body.decode("utf-8")]


@dataclass
class IngestBatch:
    papers: list[dict[str, Any]]
    #: Unique title token of ``papers[0]``; the read-your-write probe
    #: searches for it.
    marker: str
    marker_paper_id: str

    def request(self) -> Request:
        body = json.dumps({"papers": self.papers, "skip_duplicates": False},
                          sort_keys=True).encode("utf-8")
        return Request("POST", "/v1/ingest", "ingest", body)

    def probe(self) -> Request:
        return search_request("title_abstract", title=self.marker)


@dataclass
class Workload:
    name: str
    pool: list[Request]
    #: Indexes into ``pool`` in send order; client thread ``t`` of ``T``
    #: walks ``order[t::T]``.
    order: list[int]
    #: ``order`` never repeats a key: a client that runs out stops instead
    #: of wrapping around into cache hits.
    distinct: bool
    ingest: list[IngestBatch] = field(default_factory=list)

    def fingerprint(self) -> str:
        """Hash of the exact bytes the program would receive, in order."""
        digest = hashlib.sha256()
        digest.update(json.dumps(
            [request.to_json() for request in self.pool]).encode("utf-8"))
        digest.update(json.dumps(self.order).encode("utf-8"))
        for batch in self.ingest:
            digest.update(batch.request().body)
        return digest.hexdigest()


def search_request(engine: str, **params: Any) -> Request:
    return Request("GET", f"/v1/search/{engine}?{urlencode(params)}", engine)


class Corpus:
    """The benchmark corpus plus the per-paper term lists queries draw on."""

    def __init__(self, num_papers: int) -> None:
        self.papers = CorpusGenerator(GeneratorConfig(
            seed=CORPUS_SEED, papers_per_week=PAPERS_PER_WEEK,
        )).papers(num_papers)
        self.terms = [_paper_terms(paper) for paper in self.papers]
        self.with_tables = [index for index, terms in enumerate(self.terms)
                            if terms["table"]]
        #: Papers containing each term anywhere (exact token; the engines'
        #: stem-prefix match is a superset, so this is a lower bound).
        self.doc_freq: Counter[str] = Counter()
        for terms in self.terms:
            self.doc_freq.update(terms["any"])
        low, high = (share * num_papers for share in PHRASE_DOC_SHARE)
        for terms in self.terms:
            terms["topic"] = [term for term in terms["any"]
                              if low <= self.doc_freq[term] <= high]
            terms["common"] = [
                term for term in terms["any"]
                if self.doc_freq[term] >= COMMON_DOC_SHARE * num_papers]
        entities: set[str] = set()
        for paper in self.papers:
            truth = paper["ground_truth"]
            for key in ("vaccines", "side_effects", "strains"):
                entities.update(truth[key])
        self.entities = sorted(entities)

    def __len__(self) -> int:
        return len(self.papers)


def _eligible(text: str) -> list[str]:
    """The sorted distinct kernel-eligible tokens of ``text``."""
    return sorted({token for token in tokenize(text)
                   if _ELIGIBLE.match(token)})


def _paper_terms(paper: dict[str, Any]) -> dict[str, list[str]]:
    title = _eligible(paper["title"])
    abstract = _eligible(paper["abstract"])
    caption = _eligible(" ".join(
        table.get("caption", "") for table in paper["tables"]))
    cells = _eligible(" ".join(
        cell.get("text", "")
        for table in paper["tables"]
        for row in table.get("rows", [])
        for cell in row.get("cells", [])))
    body = _eligible(" ".join(
        section.get("text", "") for section in paper["body_text"]))
    figures = _eligible(" ".join(
        figure.get("caption", "") for figure in paper["figures"]))
    return {
        "title": title, "abstract": abstract, "caption": caption,
        "table": sorted({*caption, *cells}),
        "any": sorted({*title, *abstract, *caption, *cells, *body,
                       *figures}),
    }


def _pick(rng: np.random.Generator, terms: list[str], count: int) -> list[str]:
    """``count`` distinct terms (fewer when the field is that small)."""
    count = min(count, len(terms))
    picked: list[str] = []
    while len(picked) < count:
        term = terms[int(rng.integers(len(terms)))]
        if term not in picked:
            picked.append(term)
    return picked


def _page(rng: np.random.Generator, corpus: Corpus, terms: list[str]) -> int:
    """Page 2..3 for a tenth of the requests whose match set is deep enough.

    Every term being in > 30 papers does not prove 30 papers hold all of
    them, so some deep pages come back empty -- they are counted in
    ``loadgen.empty_result_share``.
    """
    if rng.random() < 0.1 and \
            min(corpus.doc_freq[term] for term in terms) > 30:
        return int(rng.integers(2, 4))
    return 1


def _all_fields(rng: np.random.Generator, corpus: Corpus) -> Request:
    paper = int(rng.integers(len(corpus)))
    terms = _pick(rng, corpus.terms[paper]["any"], int(rng.integers(1, 3)))
    return search_request("all_fields", query=" ".join(terms),
                          page=_page(rng, corpus, terms))


def _title_abstract(rng: np.random.Generator, corpus: Corpus) -> Request:
    paper = int(rng.integers(len(corpus)))
    terms = corpus.terms[paper]
    shape = rng.random()
    params: dict[str, Any] = {}
    if shape < 0.6 or (shape >= 0.9 and not terms["caption"]):
        params["title"] = _pick(rng, terms["title"], 1)[0]
        params["abstract"] = _pick(rng, terms["abstract"], 1)[0]
    elif shape < 0.75:
        params["title"] = " ".join(_pick(rng, terms["title"], 2))
    elif shape < 0.9:
        params["abstract"] = " ".join(_pick(rng, terms["abstract"], 2))
    else:
        params["caption"] = _pick(rng, terms["caption"], 1)[0]
    return search_request("title_abstract", **params)


def _table(rng: np.random.Generator, corpus: Corpus) -> Request:
    paper = corpus.with_tables[int(rng.integers(len(corpus.with_tables)))]
    terms = _pick(rng, corpus.terms[paper]["table"], int(rng.integers(1, 4)))
    return search_request("table", query=" ".join(terms),
                          page=_page(rng, corpus, terms))


def _phrase(rng: np.random.Generator, corpus: Corpus) -> Request:
    while True:
        terms = corpus.terms[int(rng.integers(len(corpus)))]
        if terms["topic"] and terms["common"]:
            break
    phrase = (f'"{_pick(rng, terms["topic"], 1)[0]}" '
              f'{_pick(rng, terms["common"], 1)[0]}')
    return Request("GET", "/v1/search/all_fields?" + urlencode(
        {"query": phrase}), "phrase")


def _kg_search(rng: np.random.Generator, corpus: Corpus) -> Request:
    entity = corpus.entities[int(rng.integers(len(corpus.entities)))]
    return Request("GET", "/v1/kg/search?" + urlencode({"query": entity}),
                   "kg")


def _kg_query(rng: np.random.Generator, corpus: Corpus) -> Request:
    entity = corpus.entities[int(rng.integers(len(corpus.entities)))]
    if rng.random() < 0.5:
        question = (f"side effects of {entity}", f"papers about {entity}",
                    f"what is above {entity}")[int(rng.integers(3))]
        params = {"query": question, "nl": "1"}
    else:
        kgql = (f'MATCH (x:"{entity}") RETURN x LIMIT 10',
                f'MATCH (x:"{entity}")-[child_of*1..5]->(p) RETURN p LIMIT 25',
                )[int(rng.integers(2))]
        params = {"query": kgql}
    return Request("GET", "/v1/kg/query?" + urlencode(params), "kg_query")


def _pool(rng: np.random.Generator, corpus: Corpus, count: int,
          mix: list[tuple[float, Any]], distinct: bool) -> list[Request]:
    """``count`` requests whose kinds follow ``mix`` in a fixed pattern.

    Position ``i`` gets the kind furthest below its share so far, whatever
    the seed.  Under a zipf order the position is the popularity rank, so
    the traffic-weighted mix is the same for every seed and only the
    content varies; drawing kinds at random let one seed put a phrase query
    (~100x a kernel query) at rank 3 and another at rank 300.

    ``distinct`` makes the targets pairwise different.  They are built from
    lowercase single-spaced terms, so distinct targets are distinct
    normalized cache keys.
    """
    made = [0] * len(mix)
    seen: set[str] = set()
    pool: list[Request] = []
    for position in range(count):
        kind = max(range(len(mix)),
                   key=lambda k: mix[k][0] * (position + 1) - made[k])
        made[kind] += 1
        for _ in range(500):
            request = mix[kind][1](rng, corpus)
            if not distinct or request.target not in seen:
                break
        else:
            raise RuntimeError(
                f"corpus too small for {count} distinct requests "
                f"(stuck at {position})")
        seen.add(request.target)
        pool.append(request)
    return pool


def _zipf_order(rng: np.random.Generator, pool_size: int, length: int,
                exponent: float) -> list[int]:
    weights = 1.0 / np.arange(1, pool_size + 1) ** exponent
    return rng.choice(pool_size, size=length,
                      p=weights / weights.sum()).tolist()


_KERNEL_MIX = [(0.5, _all_fields), (0.25, _title_abstract), (0.25, _table)]
#: One phrase query costs ~100 kernel queries, so 2% of requests is already
#: most of the read CPU.
_MIXED_MIX = [(0.42, _all_fields), (0.25, _title_abstract), (0.15, _table),
              (0.08, _kg_search), (0.08, _kg_query), (0.02, _phrase)]


def ingest_batches(seed: int, count: int,
                   first_number: int = 0) -> list[IngestBatch]:
    """``count`` write batches, numbered from ``first_number``; batches
    with different numbers never share a paper_id or a marker."""
    generator = CorpusGenerator(GeneratorConfig(
        seed=seed, papers_per_week=PAPERS_PER_WEEK))
    batches = []
    for number in range(first_number, first_number + count):
        # Far above any corpus index, so paper_ids are always fresh.
        first = 1_000_000 + number * PAPERS_PER_BATCH
        papers = [generator.paper(first + offset)
                  for offset in range(PAPERS_PER_BATCH)]
        marker = f"zq{seed}b{number}"
        papers[0]["title"] = f"{marker} {papers[0]['title']}"
        batches.append(IngestBatch(papers, marker, papers[0]["paper_id"]))
    return batches


def generate(name: str, seed: int, corpus: Corpus, *,
             scale: float = 1.0, write_batches: int = 0) -> Workload:
    """Build workload ``name`` from ``seed``.

    ``scale`` shrinks the generated counts for ``--smoke``;
    ``write_batches`` is how many write batches ``mixed_ingest`` may send.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "hot_read":
        pool = _pool(rng, corpus, 64, _KERNEL_MIX, distinct=True)
        order = _zipf_order(rng, len(pool), int(65536 * scale), 1.1)
        return Workload(name, pool, order, distinct=False)
    if name == "cold_search":
        pool = _pool(rng, corpus, int(8000 * scale), _KERNEL_MIX,
                     distinct=True)
        return Workload(name, pool, list(range(len(pool))), distinct=True)
    if name == "phrase_search":
        pool = _pool(rng, corpus, int(1600 * scale), [(1.0, _phrase)],
                     distinct=True)
        return Workload(name, pool, list(range(len(pool))), distinct=True)
    if name == "mixed_ingest":
        pool = _pool(rng, corpus, int(2000 * scale), _MIXED_MIX,
                     distinct=False)
        order = _zipf_order(rng, len(pool), int(32768 * scale), 1.0)
        return Workload(name, pool, order, distinct=False,
                        ingest=ingest_batches(seed, write_batches))
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
