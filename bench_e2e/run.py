"""bench_e2e: one cluster-level benchmark for the serving fleet.

    python3 bench_e2e/run.py --workload hot_read --seed 11 --seconds 10 --trace 0

boots the real fleet (``python -m repro.cli cluster``) as its own process
group, drives it through the router in a closed loop, checks answers against
a single-process reference, prints every metric by name with its unit, and
prints one JSON result object as the last line.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  README.md in this
directory defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any

# The program under test is this checkout's src/; without it the imports
# below fail and the run exits non-zero before printing any result.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from harness import metric  # noqa: E402
from loadgen import Driver, Window, percentile  # noqa: E402
from workloads import WORKLOADS, Corpus, generate  # noqa: E402

#: Corpus size.  The driver allows ~37 s per run and set-up is paid three
#: times in it, so the corpus is what fits: load_system costs ~8 ms/paper
#: and each lazy columnar build ~4 ms/paper/engine, in every replica.
PAPERS = 100
SMOKE_PAPERS = 40
WARMUP_SECONDS = 2.0
#: Boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: On ``mixed_ingest`` the writing client uploads one 4-paper batch after
#: every this many of its reads: about one commit a second.
READS_PER_WRITE = 150
WRITE_BATCHES = 40
#: One workload's run must end within the driver's 180 s.
DEADLINE_SECONDS = 170

END_TO_END_UNITS = {
    "throughput_rps": "1/s", "latency_p50_ms": "ms",
    "cpu_ms_per_request": "ms", "rss_mb": "MiB", "setup_s": "s",
}


def _delta(after: dict[str, Any], before: dict[str, Any],
           *path: str) -> float:
    """Sum over replicas of one ``/v1/stats`` counter's growth."""
    def dig(stats: dict[str, Any]) -> float:
        value: Any = stats
        for key in path:
            value = value.get(key, 0) if isinstance(value, dict) else 0
        return float(value or 0)

    return sum(dig(after["replicas"][replica]) - dig(stats)
               for replica, stats in before["replicas"].items())


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_metrics(window: Window, before: dict[str, Any], after: dict[str, Any],
                    mismatched: int, speed: float
                    ) -> dict[str, dict[str, Any]]:
    """The per-layer metrics that come from scraped counters and the
    generator's own clock (marked with a dagger in README.md)."""
    hits = _delta(after, before, "cache", "hits")
    misses = _delta(after, before, "cache", "misses")
    shared_hits = _delta(after, before, "cache", "shared", "hits")
    shared_misses = _delta(after, before, "cache", "shared", "misses")
    cpu = {name: after["cpu_seconds"][name] - seconds
           for name, seconds in before["cpu_seconds"].items()}
    replica_cpu = sum(seconds for name, seconds in cpu.items()
                      if name != "router")
    states = after["cluster"]["replicas"]
    router = after["cluster"]["stats"]
    router_before = before["cluster"]["stats"]
    ordered = sorted(window.latencies_ms)
    delta_rows = sum(
        sum(stats["ingest"].get("delta_rows", {}).values())
        for stats in after["replicas"].values())
    return {
        # The four demoted end-to-end metrics (README.md); times scaled to
        # reference machine speed like the end-to-end ones.
        "error_share": metric(
            _ratio(window.failed + mismatched, window.attempted), "ratio"),
        "latency_p95_ms": metric(percentile(ordered, 0.95) * speed, "ms"),
        "ingest_ack_p50_ms": metric(
            percentile(sorted(window.ingest_ack_ms), 0.5) * speed, "ms"),
        "ingest_visible_p50_ms": metric(
            percentile(sorted(window.ingest_visible_ms), 0.5) * speed, "ms"),
        "cluster.shared_hit_ratio": metric(
            _ratio(shared_hits, shared_hits + shared_misses), "ratio"),
        "cluster.failovers": metric(
            router["failovers"] - router_before["failovers"], "count"),
        "cluster.ejected": metric(
            sum(1 for state in states if state["ejected"]), "count"),
        "cluster.diverged": metric(
            sum(1 for state in states if state["diverged"]), "count"),
        "serve.l1_hit_ratio": metric(_ratio(hits, hits + misses), "ratio"),
        "serve.collapsed": metric(
            _delta(after, before, "collapsed_misses"), "count"),
        "serve.shed": metric(_delta(after, before, "shed"), "count"),
        "serve.negative_hits": metric(
            _delta(after, before, "negative_hits"), "count"),
        "ingest.delta_rows_end": metric(delta_rows, "count"),
        "ingest.batches": metric(
            _delta(after, before, "ingest", "seq") / len(states), "count"),
        "replica.cpu_ms_per_req": metric(
            _ratio(replica_cpu * 1e3, window.ok), "ms"),
        "router.cpu_ms_per_req": metric(
            _ratio(cpu["router"] * 1e3, window.ok), "ms"),
        # The end-to-end times are these, scaled by speed_factor.
        "loadgen.speed_factor": metric(speed, "ratio"),
        "loadgen.raw_throughput_rps": metric(
            _ratio(window.ok, window.seconds), "1/s"),
        "loadgen.raw_latency_p50_ms": metric(
            percentile(ordered, 0.5), "ms"),
        "loadgen.busy_share": metric(
            _ratio(window.generator_cpu_seconds, window.seconds), "ratio"),
        "loadgen.p99_ms": metric(
            percentile(ordered, 0.99), "ms"),
        "loadgen.samples": metric(len(ordered), "count"),
        "loadgen.empty_result_share": metric(
            _ratio(window.empty, window.ok), "ratio"),
    }


def end_to_end_metrics(window: Window, before: dict[str, Any], after: dict[str, Any],
                       rss_mib: float, setups: list[float], speed: float
                       ) -> dict[str, dict[str, Any]]:
    """The metrics the driver bounds.

    Times are reported at reference machine speed -- multiplied by
    ``speed``, the window's ``SpeedMeter.factor`` -- because raw timings of
    identical runs on this host spread 20-35% with its neighbours' load.
    ``setups`` are already scaled, each by the factor of its own boot.
    """
    ordered = sorted(window.latencies_ms)
    cpu = sum(after["cpu_seconds"][name] - seconds
              for name, seconds in before["cpu_seconds"].items())
    values = {
        "throughput_rps": _ratio(window.ok, window.seconds) / speed,
        "latency_p50_ms": percentile(ordered, 0.5) * speed,
        "cpu_ms_per_request": _ratio(cpu * 1e3, window.ok) * speed,
        "rss_mb": rss_mib,
        "setup_s": statistics.median(setups),
    }
    return {name: metric(value, END_TO_END_UNITS[name])
            for name, value in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, meter: harness.SpeedMeter) -> dict[str, Any]:
    """One full run of one workload; returns the result-file payload."""
    corpus = Corpus(SMOKE_PAPERS if smoke else PAPERS)
    system_dir = harness.ensure_system(corpus.papers)
    warmup = min(WARMUP_SECONDS, seconds)
    workload = generate(name, seed, corpus, scale=0.1 if smoke else 1.0,
                        write_batches=WRITE_BATCHES)
    # setup_s is an end-to-end metric only; the traced run boots once.
    boots = 1 if trace or smoke else SETUP_BOOTS
    setups = []

    def booted(cluster: harness.Cluster) -> None:
        setups.append(cluster.setup_seconds * meter.factor(
            cluster.started_at,
            cluster.started_at + cluster.setup_seconds))

    for _ in range(boots - 1):
        with harness.Cluster(system_dir) as cluster:
            booted(cluster)
    with harness.Cluster(system_dir) as cluster:
        booted(cluster)
        driver = Driver(cluster.host, cluster.router_port, workload,
                        threads=os.cpu_count() or 2,
                        reads_per_write=READS_PER_WRITE)
        try:
            driver.run(warmup)
            before = cluster.scrape()
            window = driver.run(seconds)
            after = cluster.scrape()
            rss_mib = sum(harness.peak_rss_mib(pid)
                          for pid in cluster.pids().values())
        finally:
            driver.close()
        reference = oracle.Reference(system_dir)
        try:
            reference.apply(driver.sent_batches())
            sampled = oracle.sample(
                [workload.pool[index]
                 for lane, cursor in zip(driver.lanes, driver.cursors)
                 for index in lane[:cursor]], seed)
            wrong = oracle.mismatches(reference, cluster.host,
                                      cluster.router_port, sampled)
            wrong += oracle.fleet_disagreements(cluster.scrape())
            per_layer: dict[str, dict[str, Any]] = {}
            if trace:
                per_layer = layers.measure(
                    cluster, reference.service.system, corpus, workload,
                    seed, smoke)
        finally:
            reference.close()

    failures = window.failures + wrong
    if window.exhausted:
        failures.append(f"{name} ran out of distinct requests after "
                        f"{window.seconds:.1f} s; generate more")
    speed = meter.factor(window.started_at, window.ended_at)
    per_layer.update(
        counter_metrics(window, before, after, len(wrong), speed))
    end_to_end = end_to_end_metrics(window, before, after, rss_mib, setups,
                                    speed)
    if window.loadavg_at_start > 0.5:
        print(f"warning: 1-min loadavg {window.loadavg_at_start:.2f} at "
              "window start; the box is not idle", file=sys.stderr)
    return {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "fingerprint": workload.fingerprint(),
        "environment": {**harness.environment(seed),
                        "loadavg_at_window_start": window.loadavg_at_start},
        "setup_boots_s": setups,
        "failures": failures[:20],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "result": {
            "correct": not failures,
            "attempted": window.attempted + len(sampled),
            "failed": window.failed + len(wrong),
            "metrics": per_layer if trace else end_to_end,
        },
    }


def report(payload: dict[str, Any]) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    print(f"== {payload['workload']} (seed "
          f"{payload['environment']['seed']}, {payload['seconds']:g} s "
          f"window, trace {payload['trace']}) ==")
    for group in ("end_to_end", "per_layer"):
        for name, entry in payload[group].items():
            print(f"{name:36s} {entry['value']:14.4f} {entry['unit']}")
    for failure in payload["failures"]:
        print(f"FAILED {failure}")
    harness.write_json(
        harness.OUT_DIR / (f"{payload['workload']}-seed"
                           f"{payload['environment']['seed']}"
                           f"-trace{payload['trace']}.json"), payload)
    print(json.dumps(payload["result"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, one boot; pair with --seconds 1")
    args = parser.parse_args(argv)

    harness.install_cleanup()
    started = time.perf_counter()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    with harness.SpeedMeter() as meter:
        for name in names:
            signal.alarm(DEADLINE_SECONDS)
            report(run_workload(name, args.seed, args.seconds,
                                bool(args.trace), args.smoke, meter))
    print(f"bench_e2e: {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
