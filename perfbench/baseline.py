"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/baseline.py [--out FILE]

Runs every workload of ``BENCHMARK.json`` for ``run_seconds``, in two sets of
ten untraced runs (set k uses seeds 10k+1 .. 10k+10), and reports, per
end-to-end metric and for the wall-time medians ``pass_wall_s`` and
``setup_wall_s``, the median, the quartiles and the spread: the distance
between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  It also reports how far the second
set's median moved from the first set's.  Then one traced run per workload
gives the per-layer numbers.  With ``--out`` the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10       # runs per set, one seed each
SETS = 2        # the second set checks that the medians repeat
WALL = ("pass_wall_s", "setup_wall_s")   # unscaled wall-time medians, unbounded


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[0][2:])
    result = json.loads(lines[-1])
    return {"info": info, "result": result}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    summary: dict = {"runs": RUNS, "seconds": seconds, "bounds": bounds,
                     "sets": [], "per_layer": {}}
    for k in range(SETS):
        entries = {}
        for workload in workloads:
            runs = [run_once(workload, seed, seconds, 0)
                    for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
            entry = {"provenance": {key: runs[0]["info"][key]
                                    for key in ("python", "git_sha", "nproc")},
                     "seeds": [r["info"]["seed"] for r in runs],
                     "passes_per_median": [r["info"]["pass_samples"] for r in runs],
                     "correct": all(r["result"]["correct"] for r in runs),
                     "failed": sum(r["result"]["failed"] for r in runs),
                     "attempted": sum(r["result"]["attempted"] for r in runs),
                     "end_to_end": {}, "wall": {}}
            for name in [*bounds, *WALL]:
                values = ([r["info"][name] for r in runs] if name in WALL else
                          [r["result"]["metrics"][name]["value"] for r in runs])
                group = "wall" if name in WALL else "end_to_end"
                s = entry[group][name] = spread(values)
                if k:
                    first = summary["sets"][0][workload][group][name]["median"]
                    s["moved"] = (s["median"] - first) / first
                print(f"set {k} {workload:14s} {name:12s} median {s['median']:.4f} "
                      f"spread {s['spread']:.3f} moved {s.get('moved', 0.0):+.3f} "
                      f"(bound {bounds.get(name, '-')})", flush=True)
            entries[workload] = entry
        summary["sets"].append(entries)
    for workload in workloads:
        traced = run_once(workload, 1, seconds, 1)
        summary["per_layer"][workload] = {key: m["value"] for key, m
                                          in traced["result"]["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
