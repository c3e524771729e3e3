"""The CovidKG system facade: the whole of Figure 1 behind one object.

Lifecycle:

1. ``CovidKG()`` seeds the knowledge graph from the expert layout (№1/№2)
   and opens the sharded publication store (№2/№3).
2. ``train(...)`` builds the vocabulary and Word2Vec embeddings
   (pre-trained on WDC + corpus sentences, №4), trains the metadata
   classifiers, and registers everything in the model registry (№11/№13).
3. ``ingest(papers)`` admits a whole batch or none of it (schema, no paper
   stored twice), then runs the non-stop pipeline per paper: re-parse raw
   HTML tables, classify table rows as metadata/data, store the enriched
   JSON in the sharded store as the search document all three engines
   read (one copy per paper), extract entity subtrees from that
   classified copy — its row labels say which cells are the header — and
   fuse them into the KG (№5/№6/№14).
4. Query surfaces: the three search engines (Section 2.1), KG search with
   path highlighting (Section 4.2), and meta-profiles (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.api.registry import ModelRegistry
from repro.classify.bigru_model import NeuralMetadataClassifier
from repro.classify.dataset import MetadataDataset
from repro.classify.svm_model import SvmMetadataClassifier
from repro.corpus.schema import full_text
from repro.docstore.documents import deep_copy_document
from repro.docstore.persistence import StorageReport, storage_report
from repro.docstore.sharding import ShardedCollection
from repro.embeddings.word2vec import Word2Vec
from repro.errors import IngestRejectedError, ModelError
from repro.ingest.quality_gate import gate_batch
from repro.kg.bias import BiasInterrogator, BiasReport
from repro.kg.enrichment import EnrichmentPipeline, EnrichmentReport
from repro.kg.fusion import FusionEngine
from repro.kg.graph import KnowledgeGraph
from repro.kg.matching import NodeMatcher
from repro.kg.metaprofile import MetaProfile, build_side_effect_profile
from repro.kg.ontology import seed_covid_graph
from repro.kg.review import ExpertReviewQueue
from repro.kg.search import KGSearchEngine, KGSearchHit
from repro.kgql import KGQLEngine, KGQLResult
from repro.search.all_fields import AllFieldsEngine
from repro.search.corpus import SearchCorpus
from repro.search.engine import SearchResults
from repro.search.table_search import TableSearchEngine
from repro.search.title_abstract import TitleAbstractCaptionEngine
from repro.tables.html_parser import parse_html_tables
from repro.text.vocabulary import Vocabulary


@dataclass
class CovidKGConfig:
    """System-level knobs.

    ``classifier`` selects the table-metadata model the ingest pipeline
    runs "non-stop": ``"svm"`` (fast, the default at laptop scale) or
    ``"bigru"`` (the Figure 3 ensemble, initialized from the pre-trained
    Word2Vec vectors and fine-tuned end to end).
    """

    num_shards: int = 4
    shard_key: str = "paper_id"
    vocabulary_size: int = 100_000
    embedding_dim: int = 24
    wdc_training_tables: int = 60
    classifier: str = "svm"
    classifier_epochs: int = 4
    seed: int = 0


class CovidKG:
    """The assembled COVIDKG.ORG system."""

    def __init__(self, config: CovidKGConfig | None = None) -> None:
        self.config = config or CovidKGConfig()
        # №2: the knowledge graph, expert-seeded.
        self.graph = seed_covid_graph()
        # №2/№3: sharded JSON publication storage, and the engines over it.
        self._open_store()
        # Section 4: matching/fusion/review/enrichment.
        self.review_queue = ExpertReviewQueue()
        self.matcher = NodeMatcher(self.graph)
        self.fusion = FusionEngine(self.graph, self.matcher,
                                   review_queue=self.review_queue)
        self.enrichment = EnrichmentPipeline(self.fusion)
        self.kg_search = KGSearchEngine(self.graph)
        # Declarative graph queries (KGQL + the NL template front end).
        self.kgql = KGQLEngine(self.graph)
        # №11/№13: released models.
        self.registry = ModelRegistry()
        self.vocabulary: Vocabulary | None = None
        self.word2vec: Word2Vec | None = None
        self.classifier: (
            SvmMetadataClassifier | NeuralMetadataClassifier | None
        ) = None

    def _open_store(self) -> None:
        """A fresh, empty store and the Section 2.1 engines over it.

        The store is the one holder of paper rows; all three engines
        read one :class:`SearchCorpus` over it (:attr:`search_corpus`).
        Used at construction and by :meth:`restore`.
        """
        self.store = ShardedCollection(
            "publications", shard_key=self.config.shard_key,
            num_shards=self.config.num_shards,
        )
        self.store.create_index("paper_id", unique=True)
        corpus = SearchCorpus(self.store)
        self.all_fields = AllFieldsEngine(corpus=corpus)
        self.title_abstract = TitleAbstractCaptionEngine(corpus=corpus)
        self.tables = TableSearchEngine(corpus=corpus)

    @property
    def search_corpus(self) -> SearchCorpus:
        """The analysed corpus the three search engines share."""
        return self.all_fields.corpus

    def adopt_graph(self, graph: KnowledgeGraph) -> None:
        """Answer from ``graph``: re-point the system and every consumer.

        The one place that lists the graph's holders (reload and
        snapshot rollback both swap the graph) — a holder missed here
        keeps answering from the replaced graph forever.
        """
        self.graph = graph
        self.matcher.graph = graph
        self.matcher.invalidate_cache()
        self.fusion.graph = graph
        self.kg_search.graph = graph
        self.kgql.graph = graph

    def restore(self, papers: Iterable[dict[str, Any]],
                graph: KnowledgeGraph, versions: dict[str, Any]) -> None:
        """Rebuild from ``papers`` that :meth:`ingest` admitted once.

        The one rebuild reload and snapshot rollback share: a fresh store
        refilled in order with the papers as stored (neither gated nor
        classified again), ``graph`` adopted, and each counter raised
        past its value in ``versions``, so no cached stamp reads as
        fresh.  The caller excludes readers.
        """
        self._open_store()
        for document in papers:
            self.search_corpus.add_paper(document)
        self.adopt_graph(graph)
        self.store.advance_version(int(versions.get("store", 0)) + 1)
        self.graph.advance_version(int(versions.get("kg", 0)) + 1)

    def ingested_papers(self) -> list[dict[str, Any]]:
        """Copies of the stored papers in insertion order.

        The store is the one record of what was ingested: its rows
        sorted by ``_id`` (ids increase with every insert) are the
        papers in the order they were stored, less the keys
        the store added (``_id``, ``search``, ``static_rank``).
        """
        derived = ("_id", "search", "static_rank")
        return [
            deep_copy_document({key: value for key, value in row.items()
                                if key not in derived})
            for row in sorted(self.store.scan(), key=lambda row: row["_id"])
        ]

    def versions(self) -> dict[str, int]:
        """Every invalidation counter a query result can depend on.

        Snapshots, ingest receipts, ``/v1/healthz``, ``/v1/stats`` and
        ``versions.json`` all report this.
        """
        return {"store": self.store.version, "kg": self.graph.version}

    # -- training (№4) ---------------------------------------------------------

    def train(self, papers: list[dict[str, Any]],
              word2vec_epochs: int = 3) -> None:
        """Build vocabulary + embeddings and train the metadata classifier.

        ``papers`` is the training slice of the corpus (embeddings
        pre-train on it plus WDC-style tables, mirroring the paper's
        WDC + CORD-19 recipe).
        """
        texts = [full_text(paper) for paper in papers]
        wdc = MetadataDataset.from_wdc(
            self.config.wdc_training_tables, seed=self.config.seed
        )
        texts.extend(wdc.texts())
        self.vocabulary = Vocabulary.from_texts(
            texts, max_terms=self.config.vocabulary_size,
            drop_stopwords=False,
        )
        self.word2vec = Word2Vec(
            self.vocabulary, dim=self.config.embedding_dim,
            seed=self.config.seed,
        ).fit(texts, epochs=word2vec_epochs)
        # The paper composes its training sets "from Web-scale datasets
        # such as WDC and CORD-19 respectively": merge both table sources.
        corpus_tables = MetadataDataset.from_papers(papers)
        training = wdc.merged_with(corpus_tables).shuffled(self.config.seed)
        if self.config.classifier == "bigru":
            model = NeuralMetadataClassifier(
                self.vocabulary,
                cell="gru",
                embed_dim=self.config.embedding_dim,
                seed=self.config.seed,
                pretrained_vectors=self.word2vec.matrix,
            )
            model.fit(training, epochs=self.config.classifier_epochs)
            self.classifier = model
        elif self.config.classifier == "svm":
            self.classifier = SvmMetadataClassifier(
                seed=self.config.seed
            ).fit(training)
        else:
            raise ModelError(
                f"unknown classifier {self.config.classifier!r}; "
                "use 'svm' or 'bigru'"
            )
        # Swap the matcher to embedding-aware matching now vectors exist.
        self.matcher.word2vec = self.word2vec
        self.matcher.invalidate_cache()

        self.registry.register(
            "covidkg-vocabulary", "vocabulary", self.vocabulary,
            size=len(self.vocabulary),
        )
        self.registry.register(
            "covidkg-word2vec", "embedding", self.word2vec,
            dim=self.config.embedding_dim,
            pretraining="WDC+CORD19-style",
        )
        self.registry.register(
            f"covidkg-metadata-{self.config.classifier}", "classifier",
            self.classifier,
            architecture=self.config.classifier,
        )

    # -- ingest (№3/№5/№6, non-stop classification) ------------------------

    def ingest(self, papers: list[dict[str, Any]],
               skip_duplicates: bool = False) -> EnrichmentReport:
        """Run the full pipeline over a whole batch, or none of it.

        The one rule for what a batch may add, which the ingest engine,
        the serving tier and WAL replay all apply: the batch passes
        :func:`~repro.ingest.quality_gate.gate_batch` and holds no
        stored paper, or :class:`IngestRejectedError` lists each failing
        paper and nothing changes.  ``skip_duplicates`` drops stored
        papers instead (feeds redeliver; weekly CORD-19 drops overlap).
        An empty list is a no-op; the report counts the papers landed.
        """
        if isinstance(papers, list) and not papers:
            return self.enrichment.enrich([])
        fresh, rejects = [], []
        for index, paper in enumerate(gate_batch(papers)):
            if not self.store.count({"paper_id": paper["paper_id"]}):
                fresh.append(paper)
            elif not skip_duplicates:
                rejects.append({
                    "index": index, "paper_id": paper["paper_id"],
                    "error": "paper_id already ingested (set "
                             "skip_duplicates to ignore redeliveries)",
                })
        if rejects:
            raise IngestRejectedError(
                f"{len(rejects)} of {len(papers)} paper(s) already "
                "exist; nothing was ingested", rejects=rejects)
        accepted = [self._classify_tables(paper) for paper in fresh]
        for classified in accepted:
            self.search_corpus.add_paper(classified)
        return self.enrichment.enrich(accepted)

    def _classify_tables(self, paper: dict[str, Any]) -> dict[str, Any]:
        """Re-parse raw HTML tables and classify rows as metadata/data.

        When a table ships raw HTML (as CORD-19 fragments do), the HTML
        parser output replaces the pre-parsed rows, and the trained
        classifier assigns ``is_metadata`` to every row; structural labels
        (``<th>`` rows) act as the fallback when no model is trained.
        """
        paper = dict(paper)
        new_tables = []
        for table_json in paper.get("tables", []):
            html = table_json.get("html")
            if not html:
                new_tables.append(table_json)
                continue
            parsed = parse_html_tables(html, paper_id=paper["paper_id"])[0]
            parsed.table_id = table_json.get("table_id", parsed.table_id)
            if self.classifier is not None:
                dataset = self._table_as_dataset(parsed)
                predictions = self.classifier.predict(dataset)
                for row, label in zip(parsed.rows, predictions):
                    row.is_metadata = bool(label)
            merged = dict(table_json)
            merged.update(parsed.to_json())
            new_tables.append(merged)
        paper["tables"] = new_tables
        return paper

    @staticmethod
    def _table_as_dataset(table) -> MetadataDataset:
        for row in table.rows:
            if row.is_metadata is None:
                row.is_metadata = False  # placeholder label for featurizing
        return MetadataDataset.from_table(table)

    # -- queries --------------------------------------------------------------

    def search(self, query: str, page: int = 1) -> SearchResults:
        """The default (all-fields) search engine."""
        return self.all_fields.search(query, page=page)

    def search_tables(self, query: str, page: int = 1) -> SearchResults:
        return self.tables.search(query, page=page)

    def search_fields(self, title: str | None = None,
                      abstract: str | None = None,
                      caption: str | None = None,
                      page: int = 1) -> SearchResults:
        return self.title_abstract.search(
            title=title, abstract=abstract, caption=caption, page=page
        )

    def search_graph(self, query: str, top_k: int = 10
                     ) -> list[KGSearchHit]:
        return self.kg_search.search(query, top_k=top_k)

    def query_graph(self, query: str, nl: bool = False) -> KGQLResult:
        """Run a declarative KGQL query (or, with ``nl=True``, a
        natural-language question) over the knowledge graph.

        Every result row carries provenance: the supporting paper ids
        and the rendered root path per returned node.
        """
        return self.kgql.query(query, nl=nl)

    def explain_graph_query(self, query: str,
                            nl: bool = False) -> dict[str, Any]:
        """The KGQL logical plan, without executing."""
        return self.kgql.explain(query, nl=nl)

    def meta_profile(self, papers: list[dict[str, Any]] | None = None
                     ) -> MetaProfile:
        """Figure 6's vaccine x dosage x paper side-effect profile."""
        source = papers if papers is not None else self.ingested_papers()
        if not source:
            raise ModelError("no papers ingested yet")
        return build_side_effect_profile(source)

    def serve(self, config: "ServeConfig | None" = None) -> "QueryService":
        """Wrap this system in the concurrent query-serving tier.

        Returns a :class:`~repro.serve.service.QueryService` with result
        caching, bounded admission, and request metrics — the layer the
        covidkg.org front end would talk to.
        """
        from repro.serve.service import QueryService  # noqa: PLC0415

        return QueryService(self, config)

    def interrogate_bias(self, num_clusters: int = 8,
                         seed: int = 0) -> BiasReport:
        """Audit the ingested corpus + KG for bias (the title's promise).

        Checks topical balance (via the learned clustering), journal
        concentration, thin KG provenance, and contested numeric claims;
        see :mod:`repro.kg.bias`.
        """
        papers = self.ingested_papers()
        if not papers:
            raise ModelError("no papers ingested yet")
        return BiasInterrogator().interrogate(
            papers, graph=self.graph,
            pipeline=self.enrichment, num_clusters=num_clusters,
            seed=seed,
        )

    # -- operations -------------------------------------------------------

    def storage(self) -> StorageReport:
        return storage_report(self.store)

    def statistics(self) -> dict[str, Any]:
        """One-call system dashboard."""
        return {
            "publications": len(self.store),
            "kg": self.graph.statistics(),
            "storage_bytes": self.storage().total_bytes,
            "shard_sizes": self.store.shard_sizes(),
            "pending_reviews": len(self.review_queue.pending()),
            "registered_models": len(self.registry),
        }
