"""The CovidKG system facade: the whole of Figure 1 behind one object.

Lifecycle:

1. ``CovidKG()`` seeds the knowledge graph from the expert layout (№1/№2)
   and opens the sharded publication store (№2/№3).
2. ``train(...)`` builds the vocabulary and Word2Vec embeddings
   (pre-trained on WDC + corpus sentences, №4), trains the metadata
   classifiers, and registers everything in the model registry (№11/№13).
3. ``ingest(papers)`` runs the full non-stop pipeline per paper: validate,
   re-parse raw HTML tables, classify table rows as metadata/data, store
   the enriched JSON in the sharded store, index it in all three search
   engines, extract entity subtrees, and fuse them into the KG (№5/№6/№14).
4. Query surfaces: the three search engines (Section 2.1), KG search with
   path highlighting (Section 4.2), and meta-profiles (Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.api.registry import ModelRegistry
from repro.classify.bigru_model import NeuralMetadataClassifier
from repro.classify.dataset import MetadataDataset
from repro.classify.svm_model import SvmMetadataClassifier
from repro.corpus.schema import full_text, validate_paper
from repro.docstore.functions import FunctionRegistry
from repro.docstore.persistence import StorageReport, storage_report
from repro.docstore.sharding import ShardedCollection
from repro.embeddings.word2vec import Word2Vec
from repro.errors import ModelError
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
    #: Ranking function for the three search engines: ``"tfidf"`` (the
    #: paper's TF-IDF + proximity + static scorer) or ``"bm25"``
    #: (Okapi BM25 with per-field length normalization, tuned by
    #: ``bm25_k1``/``bm25_b``).  Either runs on the columnar kernels.
    ranker: str = "tfidf"
    bm25_k1: float = 1.5
    bm25_b: float = 0.75


class CovidKG:
    """The assembled COVIDKG.ORG system."""

    def __init__(self, config: CovidKGConfig | None = None) -> None:
        self.config = config or CovidKGConfig()
        # №2: the knowledge graph, expert-seeded.
        self.graph = seed_covid_graph()
        # №2/№3: sharded JSON publication storage.
        self.store = ShardedCollection(
            "publications", shard_key=self.config.shard_key,
            num_shards=self.config.num_shards,
        )
        self.store.create_index("paper_id", unique=True)
        # Section 2.1: the three search engines, sharing one per-system
        # $function registry (seeded from the global defaults) so ranking
        # functions registered here never leak into another system.
        self.functions = FunctionRegistry.with_defaults()
        engines = self._build_search_engines()
        self.all_fields = engines["all_fields"]
        self.title_abstract = engines["title_abstract"]
        self.tables = engines["table"]
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

    def _build_search_engines(self) -> dict[str, Any]:
        """Fresh Section 2.1 engines configured exactly per the config.

        All three read one fresh :class:`SearchCorpus`, so every writer
        analyses a paper once (:attr:`search_corpus`).

        Used at construction *and* by snapshot rollback
        (:mod:`repro.ingest.snapshots`), so a rolled-back system keeps
        its ranker (BM25 ``k1``/``b``, field-length stats rebuilt from
        the retained documents).
        """
        shared: dict[str, Any] = {
            "registry": self.functions,
            "corpus": SearchCorpus(),
            "ranker": self.config.ranker,
            "bm25_k1": self.config.bm25_k1,
            "bm25_b": self.config.bm25_b,
        }
        return {
            "all_fields": AllFieldsEngine(**shared),
            "title_abstract": TitleAbstractCaptionEngine(**shared),
            "table": TableSearchEngine(**shared),
        }

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

    def _retain(self, enriched: dict[str, Any]) -> None:
        """Keep one enriched paper: store it and index it."""
        self.store.insert_one(enriched)
        self.search_corpus.add_paper(enriched)

    def ingested_papers(self) -> list[dict[str, Any]]:
        """Copies of the stored papers in insertion order, ``_id`` dropped.

        The store is the one record of what was ingested: its rows
        sorted by ``_id`` (ids increase with every insert) are the
        papers in the order :meth:`_retain` kept them.
        """
        rows = sorted(self.store.all_documents(), key=lambda row: row["_id"])
        for row in rows:
            del row["_id"]
        return rows

    def versions(self) -> dict[str, int]:
        """Every invalidation counter a query result can depend on.

        Snapshots, ingest receipts and ``/v1/healthz`` all report this.
        """
        return {
            "store": self.store.version,
            "kg": self.graph.version,
            "all_fields": self.all_fields.collection.version,
            "title_abstract": self.title_abstract.collection.version,
            "table": self.tables.collection.version,
        }

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
        """Run the full pipeline over a batch of new publications.

        ``skip_duplicates`` makes re-delivered papers (same ``paper_id``)
        a no-op instead of an error — streaming feeds redeliver, and the
        weekly CORD-19 drops overlap.
        """
        accepted = []
        for paper in papers:
            paper = validate_paper(paper)
            if skip_duplicates and self.store.find_one(
                {"paper_id": paper["paper_id"]}
            ) is not None:
                continue
            self._retain(self._classify_tables(paper))
            accepted.append(paper)
        report = EnrichmentReport()
        for paper in accepted:
            for subtree in self.enrichment.extract_subtrees(paper):
                report.subtrees += 1
                report.fusion_results.append(self.fusion.fuse(subtree))
        return report

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
            "ranker": self.config.ranker,
            "pending_reviews": len(self.review_queue.pending()),
            "registered_models": len(self.registry),
        }
