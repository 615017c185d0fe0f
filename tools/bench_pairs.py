#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and a changed one, in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json [--pairs 10]

Each checkout is a full source tree of one commit, for example made with
``git archive <commit> | tar -x -C DIR``.  Every run is that tree's own
``perfbench/run.py --trace 0``, started from the tree's root.  Pair k runs
every workload on both sides with seed k + 1; the parent goes first in even
pairs and the change in odd ones, so slow drift of the machine falls on both
sides alike.

Before the first run, ``python -m compileall -q src perfbench`` runs in both
trees, so both start with the same bytecode state: ``__pycache__`` left in
only one tree lowers its ``setup_s`` and ``peak_rss_mb``.

Workloads, metrics, bounds and the run length come from the change's
``BENCHMARK.json``.  The output file holds, for every workload and
end-to-end metric, each side's samples, median and quartiles, the pairs the
change wins, ties and loses, and whether the median gain exceeds the
distance between the parent's quartiles.  It is rewritten after every pair,
so an interrupted session keeps the pairs already run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; returns the run's info line and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[0][2:]), "result": json.loads(lines[-1])}


def summarise(samples: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                      else samples * 3)
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Per-pair wins of the change and the median gain against the parent's spread."""
    sign = 1 if metric["better"] == "lower" else -1
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    p, c = summarise(parent), summarise(change)
    gain = sign * (p["median"] - c["median"])
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": p, "change": c,
            "change_wins": sum(g > 0 for g in gains), "ties": sum(g == 0 for g in gains),
            "change_losses": sum(g < 0 for g in gains),
            "median_gain_share": gain / p["median"] if p["median"] else None,
            "gain_exceeds_parent_quartile_spread": gain > p["q3"] - p["q1"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, check=True)

    runs: dict[str, dict[str, list[dict]]] = {w: {s: [] for s in SIDES} for w in workloads}
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                runs[w][side].append(run_benchmark(trees[side], w, k + 1, seconds))
                print(f"pair {k + 1} {w} {side}: " + json.dumps(
                    {m: runs[w][side][-1]["result"]["metrics"][m]["value"] for m in metrics}),
                      flush=True)
        write_summary(args.out, runs, metrics, seconds)
    return 0


def write_summary(out: Path, runs: dict, metrics: dict, seconds: float) -> None:
    first = next(iter(runs.values()))
    summary = {
        "seconds": seconds,
        "pairs": len(first["parent"]),
        "first_side": ["parent" if k % 2 == 0 else "change" for k in range(len(first["parent"]))],
        "sides": {s: {"git_sha": first[s][0]["info"]["git_sha"],
                      "python": first[s][0]["info"]["python"],
                      "nproc": first[s][0]["info"]["nproc"]} for s in SIDES},
        "workloads": {},
    }
    for w, sides in runs.items():
        values = {s: {m: [r["result"]["metrics"][m]["value"] for r in sides[s]]
                      for m in metrics} for s in SIDES}
        summary["workloads"][w] = {
            "failed": {s: [r["result"]["failed"] for r in sides[s]] for s in SIDES},
            "correct": all(r["result"]["correct"] for s in SIDES for r in sides[s]),
            "metrics": {m: compare(metrics[m], values["parent"][m], values["change"][m])
                        for m in metrics},
        }
    out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
