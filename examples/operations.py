#!/usr/bin/env python3
"""Operating a live COVIDKG: freshness, bias, browsing, provenance.

The paper sells COVIDKG on *trustworthiness*: the graph is built from
vetted sources, kept fresh non-stop, and interrogated for bias.  This
walkthrough is the curator's day: ingest several weeks of publications,
audit freshness and bias, browse the graph with KGQL (the same queries
``/v1/kg/query`` serves), drill into a node's provenance, and persist
the system for the next shift.

Run:  python examples/operations.py
"""

import tempfile
from pathlib import Path

from repro.api.persistence import load_system, save_system
from repro.api.system import CovidKG, CovidKGConfig
from repro.corpus.generator import CorpusGenerator, GeneratorConfig
from repro.kg.freshness import audit_freshness


def main() -> None:
    generator = CorpusGenerator(GeneratorConfig(
        seed=23, papers_per_week=20, tables_per_paper=(1, 2),
    ))
    system = CovidKG(CovidKGConfig(num_shards=3, vocabulary_size=20_000,
                                   wdc_training_tables=30, seed=23))
    print("training models on the first batch ...")
    warmup = generator.papers(20)
    system.train(warmup, word2vec_epochs=2)

    print("ingesting 6 weekly batches ...")
    all_papers = []
    for week, batch in enumerate(generator.weekly_batches(6), start=1):
        report = system.ingest(batch) if week > 1 else system.ingest(
            [paper for paper in batch if paper not in warmup]
        )
        all_papers.extend(batch)
        print(f"  week {week}: +{len(batch)} papers, "
              f"{report.subtrees} subtrees fused")

    print("\n--- freshness audit (35-day window) ---")
    freshness = audit_freshness(system.graph, all_papers, window_days=35)
    print(freshness.summary())
    for category, entry in sorted(freshness.by_category().items()):
        print(f"  {category}: {entry['nodes']} nodes, "
              f"{entry['stale']} stale, newest {entry['newest']}")

    print("\n--- bias interrogation ---")
    bias = system.interrogate_bias(num_clusters=6)
    print(f"topic balance {bias.topic_balance:.2f}, "
          f"source balance {bias.source_balance:.2f}")
    for flag in bias.worst(3):
        print(f"  {flag}")

    print("\n--- browsing the graph (№9/№10) ---")
    under = system.query_graph("what is under Vaccines", nl=True)
    print(f"{under.query}: {under.total_matches} nodes")
    for row in under.rows[:6]:
        node = row.bindings["c"]
        print(f"  {node['rendered_path']}  ({len(node['papers'])} papers)")
    # Clicking a node: its children are one parent_of hop from its id.
    hit = system.search_graph("side effects", top_k=1)[0]
    children = system.query_graph(
        f'MATCH (x)-[parent_of]->(c) WHERE x.id = "{hit.node.node_id}" '
        'RETURN c')
    print(f"clicked {hit.rendered_path()}: "
          f"{', '.join(row.bindings['c']['label'] for row in children.rows)}")

    print("\n--- provenance drill-down ---")
    row = system.query_graph(
        f'MATCH (v) WHERE v.id = "{hit.node.node_id}" RETURN v').rows[0]
    print(f"{len(row.papers)} papers support "
          f"{' > '.join(row.bindings['v']['path'])}")
    for paper_id in row.papers[:3]:
        paper = system.store.find_one({"paper_id": paper_id})
        print(f"  {paper_id} ({paper['publish_time']}, "
              f"{paper['journal']}): {paper['title'][:60]}")

    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "covidkg"
        print(f"\nsaving the system to {target} ...")
        save_system(system, target)
        restored = load_system(target)
        print(f"restored: {restored.statistics()['publications']} "
              "publications, search still answers:")
        for result in list(restored.search("vaccine"))[:2]:
            print(f"  [{result.score:6.2f}] {result.title}")


if __name__ == "__main__":
    main()
