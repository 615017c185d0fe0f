"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. For every workload, two traced runs with the same seed give identical
   per-layer counts (every metric that is not a time), and each traced run
   finds its traced and untraced task outputs identical (the run's
   ``correct`` is true).
2. A corrupted temporary copy of the shipped G4 reference table, passed in
   through ``SPETS_DATA``, makes ``pipeline`` and ``cli_cold`` report failed
   checks.

Exits 0 when every check holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from baseline import ROOT, run_once  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A degree term of phi_{2,1} in the shipped uch_g4.txt, and a wrong one.
GOOD, BAD = "(1/3-1/3*E(3,1))*x^5 + x^3", "(1/3-1/3*E(3,1))*x^5 + x^2"
TIME_UNITS = ("s", "us")


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] not in TIME_UNITS and k != "trace.overhead_ratio"}


def check_traced(workload: str) -> list[str]:
    a, b = (run_once(workload, 1, 1, 1)["result"] for _ in range(2))
    problems = [f"{workload}: traced run not correct: {r}"
                for r in (a, b) if not r["correct"]]
    ca, cb = counts(a), counts(b)
    problems += [f"{workload}: {k} differs between traced runs: {ca[k]} != {cb[k]}"
                 for k in ca if ca[k] != cb.get(k)]
    print(f"{workload}: {len(ca)} per-layer counts compared", flush=True)
    return problems


def check_corrupt_reference() -> list[str]:
    problems = []
    with tempfile.TemporaryDirectory(prefix=".perfbench_tmp", dir=ROOT) as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(ROOT / "src" / "spets" / "data", data)
        ref = data / "uch_g4.txt"
        text = ref.read_text()
        if GOOD not in text:
            return ["uch_g4.txt no longer holds the term the check corrupts"]
        ref.write_text(text.replace(GOOD, BAD, 1))
        old = os.environ.get("SPETS_DATA")
        os.environ["SPETS_DATA"] = str(data)
        try:
            for workload in ("pipeline", "cli_cold"):
                res = run_once(workload, 1, 1, 0)["result"]
                share = res["failed"] / res["attempted"]
                print(f"{workload}: failed_share {share:.3f} with a corrupted reference",
                      flush=True)
                if res["correct"] or share <= 0:
                    problems.append(f"{workload}: corrupted reference not detected")
        finally:
            if old is None:
                del os.environ["SPETS_DATA"]
            else:
                os.environ["SPETS_DATA"] = old
    return problems


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        problems += check_traced(workload)
    problems += check_corrupt_reference()
    for p in problems:
        print("SELFCHECK FAILED:", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
