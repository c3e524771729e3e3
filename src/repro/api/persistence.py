"""Whole-system persistence: save/load a built CovidKG to a directory.

Layout of a saved system:

.. code-block:: text

    <directory>/
        config.json          CovidKGConfig fields
        kg.json              the knowledge graph
        publications.jsonl   the (enriched) publications, insertion order
        word2vec.npz         trained embeddings + vocabulary (if trained)
        classifier.npz       trained metadata SVM (if trained)
        manifest.json        model-registry index
        versions.json        docstore/KG mutation counters at save time

``load_system`` rebuilds the sharded store, re-indexes all three search
engines from the stored publications, and re-attaches the trained models,
so a reloaded system answers queries identically to the one that was
saved.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

from repro.api.system import CovidKG, CovidKGConfig
from repro.classify.svm_model import SvmMetadataClassifier
from repro.embeddings.word2vec import Word2Vec
from repro.errors import PersistenceError

#: Config keys older saves carry that no longer exist.  Pages were
#: byte-identical at any value of each, so they are ignored on load.
RETIRED_CONFIG_KEYS = ("search_shards", "columnar", "validate_pipelines")


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
        # Only the linear classifier is serializable today; a BiGRU
        # classifier is retrained from the saved embeddings on reload.
        system.classifier.save(directory / "classifier.npz")
    system.registry.save_manifest(directory / "manifest.json")

    # Record the mutation counters so a reloaded system resumes *past*
    # them: a result cache keyed against the saved system's snapshots can
    # then never alias a post-reload state (see repro.serve).
    with open(directory / "versions.json", "w",
              encoding="utf-8") as handle:
        json.dump({
            "store": system.store.version,
            "kg": system.graph.version,
        }, handle, indent=2)
    return directory


def load_system(directory: str | Path) -> CovidKG:
    """Rebuild a system saved with :func:`save_system`."""
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.exists():
        raise PersistenceError(f"no saved system at {directory}")
    with open(config_path, encoding="utf-8") as handle:
        saved = json.load(handle)
    for key in RETIRED_CONFIG_KEYS:
        saved.pop(key, None)
    unknown = sorted(set(saved) - {f.name for f in fields(CovidKGConfig)})
    if unknown:
        raise PersistenceError(
            f"unknown config key(s) in {config_path}: {', '.join(unknown)}"
        )
    config = CovidKGConfig(**saved)

    system = CovidKG(config)

    kg_path = directory / "kg.json"
    if kg_path.exists():
        from repro.kg.graph import KnowledgeGraph

        system.adopt_graph(KnowledgeGraph.load(kg_path))

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

    publications_path = directory / "publications.jsonl"
    if publications_path.exists():
        with open(publications_path, encoding="utf-8") as handle:
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
                # Older saves wrote the stored ``_id``; the store
                # assigns fresh ids either way.
                document.pop("_id", None)
                system._retain(document)

    versions_path = directory / "versions.json"
    if versions_path.exists():
        with open(versions_path, encoding="utf-8") as handle:
            try:
                versions = json.load(handle)
            except json.JSONDecodeError as exc:
                raise PersistenceError(
                    f"corrupt versions file: {exc}"
                ) from exc
        # The rebuild above re-ran every insert, so the counters already
        # moved; advance to at least one past the saved values so no
        # cache entry from the previous process can ever read as fresh.
        system.store.advance_version(int(versions.get("store", 0)) + 1)
        system.graph.advance_version(int(versions.get("kg", 0)) + 1)
    return system
