#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and a changed one, in alternating pairs.

    python3 tools/bench_pairs.py --parent REV|DIR --change REV|DIR --out BENCH_<n>.json [--pairs 10]

Each side is a git revision of the repository holding this tool or a
directory holding a full source tree.  A revision is resolved to its sha
with git and then exported with ``git archive`` into a temporary directory.
A directory is copied into a temporary directory too, leaving out ``.git``,
``__pycache__``, ``.pytest_cache`` and ``.hypothesis``, so that both sides
run from fresh copies in the same place; its sha is read with git from the
original path when that is the top of a git checkout, with ``-dirty``
appended when its files differ from that commit, and is ``unknown``
otherwise.  Both shas go into the output file.

Every run is the tree's own ``perfbench/run.py --trace 0``, started from the
tree's root.  Pair k runs every workload on both sides with seed k + 1; the
parent goes first in even pairs and the change in odd ones, so slow drift of
the machine falls on both sides alike.

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
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
REPO = Path(__file__).resolve().parents[1]


def git(cwd: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


# left out of a copied directory side: what git, bytecode and test runs leave behind
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def source_tree(side: str, tree: Path) -> tuple[Path, str]:
    """One side's source tree, copied fresh into ``tree``, and the sha of the
    commit it holds."""
    path = Path(side)
    if path.is_dir():
        path = path.resolve()
        if git(path, "rev-parse", "--show-toplevel") != str(path):
            sha = "unknown"
        else:
            dirty = git(path, "status", "--porcelain")
            sha = git(path, "rev-parse", "HEAD") + ("-dirty" if dirty else "")
        shutil.copytree(path, tree, ignore=SKIPPED)
        return tree, sha
    sha = git(REPO, "rev-parse", "--verify", "--quiet", f"{side}^{{commit}}")
    if sha is None:
        raise SystemExit(f"{side}: neither a directory nor a git revision")
    tree.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=REPO, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree, sha


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
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        return run_pairs(args, {s: source_tree(getattr(args, s), Path(tmp) / s) for s in SIDES})


def run_pairs(args, sides: dict[str, tuple[Path, str]]) -> int:
    trees = {s: tree for s, (tree, _) in sides.items()}
    shas = {s: sha for s, (_, sha) in sides.items()}
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
        write_summary(args.out, runs, metrics, seconds, shas)
    return 0


def write_summary(out: Path, runs: dict, metrics: dict, seconds: float,
                  shas: dict[str, str]) -> None:
    first = next(iter(runs.values()))
    summary = {
        "seconds": seconds,
        "pairs": len(first["parent"]),
        "first_side": ["parent" if k % 2 == 0 else "change" for k in range(len(first["parent"]))],
        "sides": {s: {"git_sha": shas[s],
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
