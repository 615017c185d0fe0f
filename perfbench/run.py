"""Benchmark of the spets library; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipeline, verify_cyclic, groups, cli_cold (see perfbench/README.md).
Each workload runs in its own fresh worker process (``worker.py``).  With
``--trace 0`` the result holds the end-to-end metrics ``pass_s``,
``setup_s`` and ``peak_rss_mb``; the two times are medians in seconds at the
reference speed of ``speed.py``, and the wall-time medians are printed as
``pass_wall_s`` and ``setup_wall_s``.  With ``--trace 1`` the result holds the
per-layer metrics, with the wall time of the untraced reference pass as
``pass_wall_s`` and the wall-time median of the set-ups as ``setup_wall_s``.  The last line of stdout is the JSON result; the lines
before it repeat every metric by name (``failed_share`` too) with the run's
provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = workloads.ROOT
SETUP_SAMPLES = 11
DEADLINE_S = 170.0
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or ".op_us." in name:
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    return "conductor" if name.endswith("max_conductor") else "count"


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Children:
    """Starts each child as a process-group leader and always reaps it."""

    def __init__(self, start: float):
        self.start = start

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise TimeoutError("benchmark deadline passed")
        proc = subprocess.Popen(argv, cwd=ROOT, env=workloads.child_env(),
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=left)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        return subprocess.CompletedProcess(argv, proc.returncode, out)


def main() -> int:
    start = time.perf_counter()
    # SIGTERM unwinds through Children.run, which kills the worker's group.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "spets" / "__init__.py").is_file():
        print(f"no spets package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    children = Children(start)
    setup_wall, setup_ref = [], []
    for _ in range(SETUP_SAMPLES):
        speed = SpeedProbe()
        speed.edge()
        t0 = time.perf_counter()
        done = children.run(worker + ["--setup-only"])
        setup_wall.append(time.perf_counter() - t0)
        speed.edge()
        setup_ref.append(speed.scale(setup_wall[-1]))
        if done.returncode != 0:
            print("set-up failed", file=sys.stderr)
            return 3
    done = children.run(worker + ["--trace", str(args.trace)])
    if done.returncode != 0:
        print(f"worker exited with {done.returncode}", file=sys.stderr)
        return 3
    res = json.loads(done.stdout.decode().strip().splitlines()[-1])

    if args.trace:
        imports = [float(children.run([sys.executable, str(HERE / "cli_child.py"),
                                       "--import-only"]).stdout)
                   for _ in range(3)]
        values = dict(res["layers"], **{"cli.import_s": statistics.median(imports),
                                        "pass_wall_s": res["untraced_pass_s"],
                                        "setup_wall_s": statistics.median(setup_wall)})
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
        extra = {"traced_pass_s": res["traced_pass_s"]}
    else:
        values = {"pass_s": statistics.median(res["pass_ref"]),
                  "setup_s": statistics.median(setup_ref),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        extra = {"pass_samples": len(res["pass_wall"]),
                 "pass_wall_s": statistics.median(res["pass_wall"]),
                 "setup_wall_s": statistics.median(setup_wall),
                 "pass_wall_all": res["pass_wall"], "pass_ref_all": res["pass_ref"],
                 "setup_wall_all": setup_wall, "setup_ref_all": setup_ref}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "git_sha": git_sha(),
            "nproc": os.cpu_count(), **extra,
            "failed_share": res["failed"] / res["attempted"]}
    print("# " + json.dumps(info))
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    for name in ("pass_wall_s", "setup_wall_s"):
        if name in extra:
            print(f"# {name} {extra[name]} s")
    print(f"# failed_share {info['failed_share']} ratio")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
