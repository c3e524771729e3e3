"""Compare two sets of bench_e2e result files, one row per (workload, metric).

    python3 bench_e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<N>-trace0.json`` files that
``run.py`` writes to ``bench_e2e/out/``; copy them aside after each set of
runs.  Runs are paired by (workload, seed).  This is the tool for the
same-code-twice acceptance check and for every later performance claim.

Verdict, from the choosing-metrics guide section 8 and the bounds in
``BENCHMARK.json``:

* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the distance between
  the parent's own quartiles;
* ``unresolved``: otherwise, when the parent's quartile distance is wider
  than the metric's bound -- the runs cannot tell ``same`` from ``worse``;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``same``: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[tuple[str, int], dict[str, float]]:
    """(workload, seed) -> {metric: value} of every untraced result file."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        payload = json.loads(path.read_text())
        runs[payload["workload"], payload["environment"]["seed"]] = {
            name: entry["value"]
            for name, entry in payload["end_to_end"].items()}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(parent: list[float], change: list[float], *, lower: bool,
            bound: float) -> tuple[str, float]:
    """The verdict for paired runs, and the change's share of wins."""
    sign = 1.0 if lower else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    losses = sum(1 for a, b in zip(parent, change) if sign * (a - b) < 0)
    win_share = wins / max(1, wins + losses)
    low, median, high = quartiles(parent)
    # > 0 when the change's median is worse than the parent's.
    worsening = sign * (quartiles(change)[1] - median)
    if win_share >= 0.9 and -worsening > high - low:
        return "better", win_share
    if high - low > bound * abs(median):
        return "unresolved", win_share
    if worsening > bound * abs(median):
        return "worse", win_share
    return "same", win_share


def compare(parent_dir: Path, change_dir: Path,
            benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        seeds = sorted(seed for name, seed in parent_runs
                       if name == workload and (name, seed) in change_runs)
        if not seeds:
            continue
        for metric in benchmark["end_to_end"]:
            parent = [parent_runs[workload, seed][metric["name"]]
                      for seed in seeds]
            change = [change_runs[workload, seed][metric["name"]]
                      for seed in seeds]
            result, win_share = verdict(
                parent, change, lower=metric["better"] == "lower",
                bound=metric["bound"])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "pairs": len(seeds),
                "parent": quartiles(parent), "change": quartiles(change),
                "win_share": win_share, "bound": metric["bound"],
                "verdict": result,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]),
                   json.loads(BENCHMARK.read_text()))
    if not rows:
        print("no (workload, seed) pair is present in both directories",
              file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':20s} {'unit':5s} {'pairs':>5s}  "
          f"{'parent q1/median/q3':>32s}  {'change q1/median/q3':>32s}  "
          f"{'wins':>5s} {'bound':>5s}  verdict")
    for row in rows:
        parent = "/".join(f"{value:.4g}" for value in row["parent"])
        change = "/".join(f"{value:.4g}" for value in row["change"])
        print(f"{row['workload']:14s} {row['metric']:20s} {row['unit']:5s} "
              f"{row['pairs']:5d}  {parent:>32s}  {change:>32s}  "
              f"{row['win_share']:5.2f} {row['bound']:5.2f}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
