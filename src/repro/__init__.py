"""repro — a reproduction of COVIDKG.ORG (EDBT 2023).

COVIDKG.ORG is a web-scale, interactive COVID-19 knowledge graph built
from the CORD-19 literature, served through three advanced aggregation-
pipeline search engines, and kept current by deep-learning table-metadata
classifiers and an embedding-driven fusion module.

Quick start::

    from repro import CovidKG, CorpusGenerator

    corpus = CorpusGenerator().papers(100)
    system = CovidKG()
    system.train(corpus[:40])
    system.ingest(corpus)
    for hit in system.search("vaccine side effects"):
        print(hit.title)

Subpackages: :mod:`repro.docstore` (sharded JSON store + aggregation
pipelines), :mod:`repro.text` (tokenizer/stemmer/TF-IDF/normalizer),
:mod:`repro.tables` (HTML table parser + positional features),
:mod:`repro.corpus` (synthetic CORD-19/WDC generators),
:mod:`repro.neural` (numpy DL framework: GRU/LSTM/BiRNN),
:mod:`repro.ml` (SVM, k-means, cross-validation),
:mod:`repro.embeddings` (Word2Vec + tabular embeddings),
:mod:`repro.classify` (the Figure 3 BiGRU ensemble + SVM),
:mod:`repro.search` (the three engines), :mod:`repro.kg` (the knowledge
graph, fusion, meta-profiles), :mod:`repro.api` (the system facade),
:mod:`repro.serve` (the concurrent query-serving tier).

The names in ``__all__`` are imported on first access
(:mod:`repro._lazy`): ``import repro`` itself loads no subpackage, so a
process that only routes, coordinates or lints — the cluster router,
the cache server, ``repro-covidkg analyze`` — never pays for numpy and
the engines it does not run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.api.system import CovidKG, CovidKGConfig
    from repro.corpus.generator import CorpusGenerator, GeneratorConfig
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.ontology import seed_covid_graph
    from repro.serve.service import QueryService, ServeConfig

__version__ = "1.0.0"

__all__ = [
    "CovidKG",
    "CovidKGConfig",
    "CorpusGenerator",
    "GeneratorConfig",
    "KnowledgeGraph",
    "QueryService",
    "ServeConfig",
    "seed_covid_graph",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api.system": ("CovidKG", "CovidKGConfig"),
    "repro.corpus.generator": ("CorpusGenerator", "GeneratorConfig"),
    "repro.kg.graph": ("KnowledgeGraph",),
    "repro.kg.ontology": ("seed_covid_graph",),
    "repro.serve.service": ("QueryService", "ServeConfig"),
})
