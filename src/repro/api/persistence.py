"""Whole-system persistence: save/load a built CovidKG to a directory.

Layout of a saved system:

.. code-block:: text

    <directory>/
        config.json          CovidKGConfig fields
        kg.json              the knowledge graph
        publications.jsonl   the (enriched) publications, insertion order,
                             without the store's derived search fields
        word2vec.npz         trained embeddings + vocabulary (if trained)
        classifier.npz       trained metadata SVM (if trained)
        manifest.json        model-registry index
        versions.json        docstore/KG mutation counters at save time

``load_system`` re-attaches the trained models, then hands the saved
publications, graph and counters to :meth:`CovidKG.restore
<repro.api.system.CovidKG.restore>` — the rebuild snapshot rollback
uses too — which refills the sharded store (the search documents all
three engines read) without gating or classifying the papers again, so
a reloaded system answers queries identically to the one that was saved.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Iterator

from repro.api.system import CovidKG, CovidKGConfig
from repro.classify.svm_model import SvmMetadataClassifier
from repro.embeddings.word2vec import Word2Vec
from repro.errors import PersistenceError
from repro.kg.graph import KnowledgeGraph

#: Config keys older saves carry that no longer exist.  Pages were
#: byte-identical at any value of each, so they are ignored on load.
#: (The two ranker parameters only ever tuned the retired ranker, and a
#: save that selected it is refused; see :func:`_load_config`.)
RETIRED_CONFIG_KEYS = ("search_shards", "columnar", "validate_pipelines",
                       "bm25_k1", "bm25_b")


def _read_object(path: Path) -> dict[str, Any]:
    """The JSON object saved in ``path``; ``PersistenceError`` otherwise."""
    with open(path, encoding="utf-8") as handle:
        try:
            value = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise PersistenceError(f"corrupt {path}: {exc}") from exc
    if not isinstance(value, dict):
        raise PersistenceError(
            f"corrupt {path}: expected a JSON object, "
            f"found {type(value).__name__}"
        )
    return value


def _load_config(config_path: Path) -> CovidKGConfig:
    """The saved :class:`CovidKGConfig`, retired keys dropped."""
    saved = _read_object(config_path)
    for key in RETIRED_CONFIG_KEYS:
        saved.pop(key, None)
    # Saves made while the ranker was selectable name it.  TF-IDF is the
    # one ranker left, so such a save loads as it was; any other ranker
    # would not answer with the pages that were saved.
    ranker = saved.pop("ranker", "tfidf")
    if ranker != "tfidf":
        raise PersistenceError(
            f"{config_path} selects ranker {ranker!r}; only the TF-IDF "
            f"ranker remains (BM25 was retired), so its pages would differ"
        )
    unknown = sorted(set(saved) - {f.name for f in fields(CovidKGConfig)})
    if unknown:
        raise PersistenceError(
            f"unknown config key(s) in {config_path}: {', '.join(unknown)}"
        )
    return CovidKGConfig(**saved)


def save_system(system: CovidKG, directory: str | Path) -> Path:
    """Persist ``system`` under ``directory``; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "config.json", "w", encoding="utf-8") as handle:
        json.dump(asdict(system.config), handle, indent=2)

    system.graph.save(directory / "kg.json")

    # Insertion order, so a reloaded system re-ingests the papers in the
    # order the saved one did (meta_profile / interrogate_bias depend on
    # it); the store's ``_id`` is not written.
    with open(directory / "publications.jsonl", "w",
              encoding="utf-8") as handle:
        for document in system.ingested_papers():
            handle.write(json.dumps(document, separators=(",", ":")))
            handle.write("\n")

    if system.word2vec is not None:
        system.word2vec.save(directory / "word2vec.npz")
    if isinstance(system.classifier, SvmMetadataClassifier):
        # Only the linear classifier is saved.  A reloaded ``bigru``
        # system has no classifier, so ingest labels rows by the
        # structural ``<th>`` fallback.
        system.classifier.save(directory / "classifier.npz")
    system.registry.save_manifest(directory / "manifest.json")

    # Record the mutation counters so a reloaded system resumes *past*
    # them: a result cache keyed against the saved system's snapshots can
    # then never alias a post-reload state (see repro.serve).
    with open(directory / "versions.json", "w",
              encoding="utf-8") as handle:
        json.dump(system.versions(), handle, indent=2)
    return directory


def load_system(directory: str | Path) -> CovidKG:
    """Rebuild a system saved with :func:`save_system`."""
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.exists():
        raise PersistenceError(f"no saved system at {directory}")
    system = CovidKG(_load_config(config_path))

    w2v_path = directory / "word2vec.npz"
    if w2v_path.exists():
        system.word2vec = Word2Vec.load(w2v_path)
        system.vocabulary = system.word2vec.vocabulary
        system.matcher.word2vec = system.word2vec
        system.registry.register(
            "covidkg-word2vec", "embedding", system.word2vec,
            dim=system.word2vec.dim, restored=True,
        )
        system.registry.register(
            "covidkg-vocabulary", "vocabulary", system.vocabulary,
            size=len(system.vocabulary), restored=True,
        )

    classifier_path = directory / "classifier.npz"
    if classifier_path.exists():
        system.classifier = SvmMetadataClassifier.load(classifier_path)
        system.registry.register(
            "covidkg-metadata-svm", "classifier", system.classifier,
            restored=True,
        )

    kg_path = directory / "kg.json"
    versions_path = directory / "versions.json"
    system.restore(
        _saved_papers(directory / "publications.jsonl"),
        KnowledgeGraph.load(kg_path) if kg_path.exists() else system.graph,
        # Past the saved counters: no cache entry from the previous
        # process can ever read as fresh.
        _read_object(versions_path) if versions_path.exists() else {})
    return system


def _saved_papers(path: Path) -> Iterator[dict[str, Any]]:
    """The papers of a ``publications.jsonl``, one line at a time."""
    if not path.exists():
        return
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PersistenceError(
                    f"corrupt publications file at line {line_number}: "
                    f"{exc}"
                ) from exc
            # Older saves wrote the stored ``_id``; the store assigns
            # fresh ids either way.
            document.pop("_id", None)
            yield document
