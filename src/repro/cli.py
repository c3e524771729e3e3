"""Command-line interface for building and querying a CovidKG system.

Subcommands:

* ``generate``  — write a synthetic CORD-19-style corpus to JSONL
* ``build``     — train + ingest a corpus and save the system
* ``search``    — all-fields search against a saved system
* ``tables``    — table search against a saved system
* ``kg``          — knowledge-graph search with path highlighting
* ``kg-query``    — declarative KGQL / natural-language graph queries
* ``stats``       — system dashboard
* ``bias``        — run the bias interrogation
* ``serve-stats`` — drive queries through the serving tier, print metrics
                    (or fetch ``/v1/stats`` from a live gateway with
                    ``--url``)
* ``gateway``     — serve the system over HTTP (asyncio front end)
* ``ingest``      — stream a JSONL batch into a live gateway (``--url``)
                    or commit it through a local WAL (``--system``)
* ``analyze``     — run the repo's static analysis (concurrency lints)

Example session::

    repro-covidkg generate --papers 200 --out corpus.jsonl
    repro-covidkg build --corpus corpus.jsonl --out ./kgdata
    repro-covidkg search --system ./kgdata "vaccine side effects"
    repro-covidkg kg --system ./kgdata "side effects"
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.api.system import CovidKG

#: When this module was imported — first thing ``python -m repro.cli``
#: does after interpreter start-up, before any command's own imports —
#: so a process can report how long its boot took.
_IMPORTED_AT = time.monotonic()


def _load_system(path: str) -> CovidKG:
    from repro.api.persistence import load_system

    return load_system(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.corpus.generator import CorpusGenerator, GeneratorConfig
    from repro.corpus.loader import save_papers_jsonl

    generator = CorpusGenerator(GeneratorConfig(
        seed=args.seed, papers_per_week=args.papers_per_week,
    ))
    papers = generator.papers(args.papers)
    count = save_papers_jsonl(papers, args.out)
    print(f"wrote {count} papers to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.api.persistence import save_system
    from repro.api.system import CovidKG, CovidKGConfig
    from repro.corpus.loader import load_papers_jsonl

    papers = load_papers_jsonl(args.corpus)
    system = CovidKG(CovidKGConfig(num_shards=args.shards,
                                   seed=args.seed,
                                   ranker=args.ranker,
                                   bm25_k1=args.bm25_k1,
                                   bm25_b=args.bm25_b))
    training = papers[: max(1, len(papers) // 3)]
    print(f"training on {len(training)} papers ...")
    system.train(training, word2vec_epochs=args.epochs)
    print(f"ingesting {len(papers)} papers ...")
    report = system.ingest(papers)
    print(f"fused {report.subtrees} subtrees: {report.actions()}")
    save_system(system, args.out)
    print(f"system saved to {args.out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    results = system.search(args.query, page=args.page)
    print(f"{results.total_matches} matches "
          f"(page {results.page}/{max(1, results.num_pages)}, "
          f"{results.seconds * 1000:.1f} ms)")
    for result in results:
        print(f"  [{result.score:7.2f}] {result.paper_id}  {result.title}")
        for field_name, excerpt in list(result.snippets.items())[:2]:
            print(f"      {field_name}: {excerpt[:100]}")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    results = system.search_tables(args.query, page=args.page)
    print(f"{results.total_matches} papers with matching tables")
    for result in results:
        print(f"  [{result.score:7.2f}] {result.title}")
        for table in result.extras["tables"][:1]:
            print(f"      {table['caption'][:100]}")
    return 0


def _cmd_kg(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    hits = system.search_graph(args.query, top_k=args.top)
    if not hits:
        print("no matching knowledge-graph nodes")
        return 1
    for hit in hits:
        papers = f" ({len(hit.papers)} papers)" if hit.papers else ""
        print(f"  {hit.rendered_path()}{papers}")
    return 0


def _cmd_kg_query(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    if args.explain:
        explained = system.explain_graph_query(args.query, nl=args.nl)
        print(f"query: {explained['query']}")
        print(explained["plan"])
        return 0
    result = system.query_graph(args.query, nl=args.nl)
    if args.nl:
        print(f"kgql: {result.query}")
    shown = len(result.rows)
    print(f"{result.total_matches} matches "
          f"(showing {shown}, {result.seconds * 1000:.1f} ms)")
    for row in result.rows:
        for var in result.columns:
            node = row.bindings[var]
            print(f"  {var}: {node['rendered_path']}")
        if row.papers:
            print(f"      papers: {', '.join(row.papers)}")
    return 0 if result.rows else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    for key, value in system.statistics().items():
        print(f"{key}: {value}")
    return 0


def _flatten_stats(stats: dict, prefix: str = "") -> list[tuple[str, object]]:
    lines: list[tuple[str, object]] = []
    for key, value in stats.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            lines.extend(_flatten_stats(value, path))
        else:
            lines.append((path, value))
    return lines


def _print_flat_stats(stats: dict) -> None:
    """Shared rendering for in-process and over-the-wire stats."""
    for path, value in _flatten_stats(stats):
        if isinstance(value, float):
            print(f"{path}: {value:.3f}")
        else:
            print(f"{path}: {value}")


def _cmd_serve_stats(args: argparse.Namespace) -> int:
    from concurrent.futures import wait

    from repro.serve.service import QueryService, ServeConfig

    if args.url:
        # A live gateway already has the serving tier warmed up; fetch
        # its /v1/stats instead of standing up an in-process service.
        from repro.gateway.client import GatewayClient

        with GatewayClient.from_url(args.url) as client:
            _print_flat_stats(client.stats())
        return 0
    if not args.system:
        print("serve-stats needs --system PATH or --url http://host:port")
        return 2
    system = _load_system(args.system)
    config = ServeConfig(num_workers=args.workers)
    with QueryService(system, config) as service:
        # Warm the cache once so the concurrent burst below exercises
        # hits; firing all requests cold would just stampede misses.
        service.query("all_fields", query=args.query, page=1)
        futures = [
            service.submit("all_fields", query=args.query, page=1)
            for _ in range(args.requests)
        ]
        wait(futures)  # quiesce: settle every request before reporting
        for future in futures:
            future.result()
        served = service.query("all_fields", query=args.query, page=1)
        print(f"{served.value.total_matches} matches for {args.query!r} "
              f"({'cached' if served.cached else 'cold'}, "
              f"{served.seconds * 1000:.2f} ms)")
        _print_flat_stats(service.stats())
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Serve a system over HTTP until SIGTERM/SIGINT, then drain."""
    import logging

    from repro.gateway.server import run_gateway
    from repro.serve.service import (
        GatewayConfig,
        QueryService,
        ServeConfig,
    )

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
    )
    load_started = time.monotonic()
    if args.system:
        system = _load_system(args.system)
    else:
        # No saved system: build a synthetic one in-process so smoke
        # tests and demos can start a gateway with zero setup.
        from repro.api.system import CovidKG, CovidKGConfig
        from repro.corpus.generator import CorpusGenerator, GeneratorConfig

        print(f"no --system given; generating {args.generate} synthetic "
              f"papers across {args.shards} shard(s) ...", flush=True)
        system = CovidKG(CovidKGConfig(num_shards=args.shards))
        papers = CorpusGenerator(GeneratorConfig(
            seed=args.seed, papers_per_week=25,
        )).papers(args.generate)
        system.ingest(papers)
    load_seconds = time.monotonic() - load_started
    gateway_config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        drain_seconds=args.drain_seconds,
    )
    config = ServeConfig(
        num_workers=args.workers,
        max_queue=args.max_queue,
        gateway=gateway_config,
        shared_cache=getattr(args, "shared_cache", None),
    )
    # /v1/ingest is always live: a persistent --ingest-dir carries the
    # WAL and snapshots across restarts (committed batches are replayed
    # on boot); without one, a temporary directory scopes them to this
    # process.
    import tempfile

    from repro.ingest.engine import IngestEngine

    scratch = None
    if args.ingest_dir:
        ingest_dir = args.ingest_dir
    else:
        scratch = tempfile.TemporaryDirectory(prefix="covidkg-ingest-")
        ingest_dir = scratch.name
    engine = IngestEngine(system, ingest_dir)
    replica_id = getattr(args, "replica_id", None)
    try:
        replay_started = time.monotonic()
        replayed = engine.replay()
        replay_seconds = time.monotonic() - replay_started
        if replayed:
            print(f"replayed {replayed} committed ingest batch(es) "
                  f"from {ingest_dir}", flush=True)
        with QueryService(system, config) as service:
            service.attach_ingest(engine)

            def _announce(port: int) -> None:
                # Cluster mode: tell the coordinator (the shared cache
                # server) where this replica's socket landed.
                if service.shared_cache is not None and replica_id:
                    service.shared_cache.register(
                        replica_id, args.host, port, pid=os.getpid())
                # process_time() counts from process start, so it holds
                # the import chain a slow boot is usually made of.
                logging.getLogger("repro.gateway").info(
                    "gateway ready in %.3f s wall, %.3f s cpu since "
                    "process start (load %.3f s, replay %.3f s)",
                    time.monotonic() - _IMPORTED_AT, time.process_time(),
                    load_seconds, replay_seconds)

            try:
                return run_gateway(service, gateway_config,
                                   ready=_announce)
            finally:
                if service.shared_cache is not None and replica_id:
                    service.shared_cache.deregister(replica_id)
    finally:
        engine.close()
        if scratch is not None:
            scratch.cleanup()


def _cmd_cache_server(args: argparse.Namespace) -> int:
    """Serve the cluster's shared result cache until SIGTERM/SIGINT."""
    import logging

    from repro.cluster.cacheserver import run_cache_server

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
    )
    return run_cache_server(args.host, args.port)


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Boot cache server + N replicas + router; serve until SIGTERM."""
    import logging

    from repro.cluster.runner import ClusterConfig, run_cluster

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
    )
    return run_cluster(ClusterConfig(
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        system_dir=args.system,
        generate=args.generate,
        shards=args.shards,
        seed=args.seed,
        workers=args.workers,
        probe_interval=args.probe_interval,
        fail_threshold=args.fail_threshold,
        log_dir=args.log_dir,
    ))


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Commit batches of papers: over HTTP (--url) or locally (--system)."""
    from repro.corpus.loader import load_papers_jsonl
    from repro.errors import ReproError

    papers = load_papers_jsonl(args.corpus)
    size = args.batch_size if args.batch_size > 0 else len(papers)
    batches = [papers[start:start + size]
               for start in range(0, len(papers), size)]
    receipts: list[dict] = []

    def _print_receipt(receipt: dict) -> None:
        print(f"committed batch {receipt['batch_id']} "
              f"(seq {receipt['seq']}, snapshot {receipt['snapshot']}): "
              f"{receipt['accepted']} papers, {receipt['subtrees']} "
              f"fused subtrees in {receipt['seconds'] * 1000:.1f} ms")

    try:
        if args.url:
            from repro.gateway.client import GatewayClient

            with GatewayClient.from_url(args.url) as client:
                for batch in batches:
                    response = client.ingest(
                        batch, skip_duplicates=args.skip_duplicates)
                    payload = response.json()
                    if response.status != 200:
                        error = payload.get("error", {})
                        print(f"ingest failed ({response.status} "
                              f"{error.get('code', '?')}): "
                              f"{error.get('message', '')}")
                        if receipts:
                            # Earlier batches committed durably; the
                            # WAL keeps them across this failure.
                            print(f"{len(receipts)} earlier batch(es) "
                                  "remain committed")
                        return 1
                    receipts.append(payload["value"])
                    _print_receipt(receipts[-1])
        elif args.system:
            from pathlib import Path

            from repro.ingest.engine import IngestEngine

            system = _load_system(args.system)
            wal_dir = args.ingest_dir or str(Path(args.system) / "ingest")
            with IngestEngine(system, wal_dir) as engine:
                replayed = engine.replay()
                if replayed:
                    print(f"replayed {replayed} committed batch(es) "
                          f"from {wal_dir}")
                for batch in batches:
                    receipts.append(engine.commit_batch(
                        batch,
                        skip_duplicates=args.skip_duplicates).to_json())
                    _print_receipt(receipts[-1])
                if args.checkpoint:
                    engine.checkpoint(args.system)
                    print(f"checkpointed system to {args.system} "
                          f"(WAL truncated)")
        else:
            print("ingest needs --system PATH or --url http://host:port")
            return 2
    except ReproError as exc:
        print(f"ingest failed: {exc}")
        if receipts:
            print(f"{len(receipts)} earlier batch(es) remain committed")
        return 1
    accepted = sum(receipt["accepted"] for receipt in receipts)
    if len(receipts) != 1:
        print(f"committed {len(receipts)} batch(es): "
              f"{accepted} papers total")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run the full analysis; any finding fails the run."""
    from repro.analysis.engine import analyze_paths
    from repro.analysis.lint import format_findings

    result = analyze_paths(args.paths)
    if result.findings:
        print(format_findings(result.findings))
    verdict = f"{len(result.findings)} finding(s)" \
        if result.findings else "clean"
    print(f"analyze: {verdict} ({result.census()})")
    return 1 if result.findings else 0


def _cmd_bias(args: argparse.Namespace) -> int:
    system = _load_system(args.system)
    report = system.interrogate_bias(num_clusters=args.clusters)
    print(f"topic balance:  {report.topic_balance:.3f}")
    print(f"source balance: {report.source_balance:.3f}")
    for flag in report.worst(args.top):
        print(f"  {flag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-covidkg",
        description="Build and query a COVIDKG.ORG-style knowledge graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="write a synthetic corpus")
    generate.add_argument("--papers", type=int, default=100)
    generate.add_argument("--papers-per-week", type=int, default=50)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="train + ingest + save a system")
    build.add_argument("--corpus", required=True)
    build.add_argument("--out", required=True)
    build.add_argument("--shards", type=int, default=4)
    build.add_argument("--epochs", type=int, default=2)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--ranker", choices=("tfidf", "bm25"),
                       default="tfidf",
                       help="search ranking function (default: the "
                            "paper's TF-IDF+proximity scorer)")
    build.add_argument("--bm25-k1", type=float, default=1.5,
                       help="BM25 term-frequency saturation (k1)")
    build.add_argument("--bm25-b", type=float, default=0.75,
                       help="BM25 length-normalization strength (b)")
    build.set_defaults(func=_cmd_build)

    for name, func, help_text in (
        ("search", _cmd_search, "all-fields search"),
        ("tables", _cmd_tables, "table search"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--system", required=True)
        cmd.add_argument("--page", type=int, default=1)
        cmd.add_argument("query")
        cmd.set_defaults(func=func)

    kg = sub.add_parser("kg", help="knowledge-graph search")
    kg.add_argument("--system", required=True)
    kg.add_argument("--top", type=int, default=10)
    kg.add_argument("query")
    kg.set_defaults(func=_cmd_kg)

    kg_query = sub.add_parser(
        "kg-query",
        help="declarative KGQL (or natural-language, --nl) graph query",
    )
    kg_query.add_argument("--system", required=True)
    kg_query.add_argument("--nl", action="store_true",
                          help="translate a natural-language question "
                               "through the template front end first")
    kg_query.add_argument("--explain", action="store_true",
                          help="print the logical plan without "
                               "executing")
    kg_query.add_argument("query")
    kg_query.set_defaults(func=_cmd_kg_query)

    stats = sub.add_parser("stats", help="system dashboard")
    stats.add_argument("--system", required=True)
    stats.set_defaults(func=_cmd_stats)

    bias = sub.add_parser("bias", help="bias interrogation")
    bias.add_argument("--system", required=True)
    bias.add_argument("--clusters", type=int, default=8)
    bias.add_argument("--top", type=int, default=10)
    bias.set_defaults(func=_cmd_bias)

    serve_stats = sub.add_parser(
        "serve-stats",
        help="run queries through the serving tier and print its "
             "metrics, or fetch /v1/stats from a live gateway (--url)",
    )
    serve_stats.add_argument("--system", default=None)
    serve_stats.add_argument("--url", default=None,
                             help="fetch stats from a running gateway "
                                  "(http://host:port) instead of "
                                  "standing up an in-process service")
    serve_stats.add_argument("--requests", type=int, default=50,
                             help="number of requests to issue")
    serve_stats.add_argument("--workers", type=int, default=4)
    serve_stats.add_argument("query", nargs="?", default="covid")
    serve_stats.set_defaults(func=_cmd_serve_stats)

    gateway = sub.add_parser(
        "gateway",
        help="serve the system as JSON over HTTP (asyncio front end); "
             "SIGTERM/SIGINT drains gracefully",
    )
    gateway.add_argument("--system", default=None,
                         help="saved system directory (omit to serve a "
                              "generated synthetic corpus)")
    gateway.add_argument("--generate", type=int, default=60,
                         help="synthetic papers to build when no "
                              "--system is given")
    gateway.add_argument("--shards", type=int, default=4,
                         help="shard count for the generated system")
    gateway.add_argument("--seed", type=int, default=0)
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8080,
                         help="0 binds an ephemeral port")
    gateway.add_argument("--workers", type=int, default=4)
    gateway.add_argument("--max-queue", type=int, default=64)
    gateway.add_argument("--max-connections", type=int, default=1024)
    gateway.add_argument("--drain-seconds", type=float, default=5.0)
    gateway.add_argument("--ingest-dir", default=None,
                         help="directory for the ingest WAL + snapshots "
                              "(committed batches replay on restart; "
                              "default: a per-process temp dir)")
    gateway.add_argument("--shared-cache", default=None,
                         metavar="HOST:PORT",
                         help="address of a cluster shared result "
                              "cache (repro-covidkg cache-server)")
    gateway.add_argument("--replica-id", default=None,
                         help="register under this id with the cluster "
                              "coordinator once the socket is bound")
    gateway.set_defaults(func=_cmd_gateway)

    cache_server = sub.add_parser(
        "cache-server",
        help="serve the cluster's shared result cache + replica "
             "coordinator on one TCP port",
    )
    cache_server.add_argument("--host", default="127.0.0.1")
    cache_server.add_argument("--port", type=int, default=8200,
                              help="0 binds an ephemeral port")
    cache_server.set_defaults(func=_cmd_cache_server)

    cluster = sub.add_parser(
        "cluster",
        help="boot a full serving cluster: shared cache + N gateway "
             "replicas + consistent-hash router on one port",
    )
    cluster.add_argument("--replicas", type=int, default=2)
    cluster.add_argument("--system", default=None,
                         help="saved system directory every replica "
                              "serves (omit to generate one synthetic "
                              "corpus shared by all replicas)")
    cluster.add_argument("--generate", type=int, default=60,
                         help="synthetic papers to build when no "
                              "--system is given")
    cluster.add_argument("--shards", type=int, default=4)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=8080,
                         help="router (client-facing) port; 0 binds an "
                              "ephemeral one")
    cluster.add_argument("--workers", type=int, default=4,
                         help="worker threads per replica")
    cluster.add_argument("--probe-interval", type=float, default=0.25,
                         help="seconds between replica health probes")
    cluster.add_argument("--fail-threshold", type=int, default=3,
                         help="consecutive failed probes before a "
                              "replica is ejected from the ring")
    cluster.add_argument("--log-dir", default=None,
                         help="directory for per-replica logs "
                              "(default: a per-cluster temp dir)")
    cluster.set_defaults(func=_cmd_cluster)

    ingest = sub.add_parser(
        "ingest",
        help="commit a JSONL batch of papers: POST to a live gateway "
             "(--url) or apply locally through a WAL (--system)",
    )
    ingest.add_argument("--corpus", required=True,
                        help="JSONL file of papers to commit")
    ingest.add_argument("--batch-size", type=int, default=10,
                        help="papers per committed batch; the default "
                             "keeps each POST under the gateway's "
                             "64 KiB body cap (0 = one batch)")
    ingest.add_argument("--url", default=None,
                        help="POST the batch to a running gateway "
                             "(http://host:port)")
    ingest.add_argument("--system", default=None,
                        help="saved system directory to apply the batch "
                             "to locally")
    ingest.add_argument("--ingest-dir", default=None,
                        help="WAL directory for local mode "
                             "(default: <system>/ingest)")
    ingest.add_argument("--skip-duplicates", action="store_true",
                        help="silently drop already-ingested paper_ids "
                             "instead of rejecting the batch")
    ingest.add_argument("--checkpoint", action="store_true",
                        help="after committing, save the system back "
                             "and truncate the WAL")
    ingest.set_defaults(func=_cmd_ingest)

    analyze = sub.add_parser(
        "analyze",
        help="run the custom concurrency lints (exit 1 on any finding "
             "without an inline '# lint: allow=' excuse)",
    )
    analyze.add_argument("--paths", nargs="+",
                         default=["src/repro", "benchmarks"],
                         help="files/directories to lint")
    analyze.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
