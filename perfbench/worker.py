"""One workload in one fresh process; started by ``run.py``.

Untraced (``--trace 0``): a warm workload runs one discarded warm-up pass,
then timed passes until ``--seconds`` have passed since the warm-up began
(at least one timed pass).  ``cli_cold`` times every pass, each task in a
fresh interpreter.  Each timed pass is reported as wall seconds and as
seconds at the reference speed of ``speed.py``.  Traced (``--trace 1``): a warm-up pass for the warm
workloads, one untraced reference pass, then the tracer is installed and one
traced pass runs; their outputs must be identical.

Every task is checked after every pass; a failed check is counted, never
retried.  The last line of stdout is one JSON object for ``run.py``.
``--setup-only`` stops once the inputs are ready (``run.py`` times it).
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics, merge_states  # noqa: E402


class Run:
    """Checks attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.extend(fails)


def setup(workload: str, seed: int):
    """Import every layer and build the inputs; this is what ``setup_s`` times."""
    spets = SimpleNamespace(**{layer: importlib.import_module(f"spets.{layer}")
                               for layer in LAYERS})
    data = spets.tabledata.data_dir()
    if workload == "cli_cold":
        tasks = [(name, (workloads.EXPECTED / f"{name}.txt").read_bytes())
                 for name in workloads.CLI_COMMANDS]
    else:
        tasks = workloads.make_tasks(workload, spets)
    return spets, data, tasks, random.Random(seed)


def warm_pass(tasks, rng, run: Run, probe: SpeedProbe | None = None,
              tracer: Tracer | None = None):
    """One pass in task order drawn from ``rng``; returns (seconds, outputs).

    With ``probe``, speed samples are taken while each task runs and their
    time is left out of the pass time.
    """
    total = 0.0
    outputs = {}
    for task in rng.sample(tasks, len(tasks)):
        if tracer:
            tracer.active = True
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        try:
            with probe.sampling() if probe else nullcontext():
                result, error = task.run(), None
        except Exception as exc:  # a task that raises is a failed task
            result, error = None, f"{task.name}: {type(exc).__name__}: {exc}"
        total += time.perf_counter() - t0 - ((probe.spent - spent) if probe else 0.0)
        if tracer:
            tracer.active = False
        if error:
            fails, text = [error], error
        else:
            fails, text = task.check(result)
        run.record(fails)
        outputs[task.name] = text
    return total, outputs


def cli_pass(tasks, rng, run: Run, data: Path, traced: bool, states: list | None = None,
             probe: SpeedProbe | None = None):
    """One pass of cold CLI commands; returns (seconds, stdout of each).

    With ``probe``, speed samples are taken just before and after each
    command, and while it runs.  The child is not paused by the samples taken
    meanwhile in this process, so their time stays in the command's time.
    """
    total = 0.0
    outputs = {}
    for name, expected in rng.sample(tasks, len(tasks)):
        if probe:
            probe.edge()
        t0 = time.perf_counter()
        with probe.sampling() if probe else nullcontext():
            proc = workloads.run_cli(name, data, traced)
        total += time.perf_counter() - t0
        if probe:
            probe.edge()
        fails = workloads.cli_result(proc.stdout, proc.returncode, expected, name)
        if traced:
            try:
                states.append(json.loads(proc.stderr.splitlines()[-1]))
            except (IndexError, ValueError):
                fails.append(f"{name}: no trace state from the traced child")
        run.record(fails)
        outputs[name] = proc.stdout
    return total, outputs


def compare_outputs(ref: dict, traced: dict, run: Run) -> None:
    """One more check per task: tracing must not change its output."""
    for name in ref:
        run.record([] if ref[name] == traced.get(name)
                   else [f"{name}: traced output differs from untraced"])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    spets, data, tasks, rng = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    run = Run()
    cold = args.workload == "cli_cold"
    out: dict = {}

    if args.trace:
        if cold:
            ref_s, ref_out = cli_pass(tasks, rng, run, data, traced=False)
            states: list = []
            tr_s, tr_out = cli_pass(tasks, rng, run, data, traced=True, states=states)
            state = merge_states(states)
        else:
            warm_pass(tasks, rng, run)
            ref_s, ref_out = warm_pass(tasks, rng, run)
            tracer = Tracer()
            tracer.install()
            tr_s, tr_out = warm_pass(tasks, rng, run, tracer=tracer)
            state = tracer.state()
        compare_outputs(ref_out, tr_out, run)
        metrics = layer_metrics(state)
        metrics["trace.overhead_ratio"] = tr_s / ref_s
        out.update(layers=metrics, untraced_pass_s=ref_s, traced_pass_s=tr_s)
    else:
        start = time.perf_counter()
        if not cold:
            warm_pass(tasks, rng, run)
        wall, ref = [], []
        while not wall or time.perf_counter() - start < args.seconds:
            probe = SpeedProbe()
            if cold:
                secs, _ = cli_pass(tasks, rng, run, data, traced=False, probe=probe)
            else:
                secs, _ = warm_pass(tasks, rng, run, probe)
            wall.append(secs)
            ref.append(probe.scale(secs))
        out.update(pass_wall=wall, pass_ref=ref)

    # The CLI children run one at a time, and they are this process's only
    # children, so RUSAGE_CHILDREN's maximum is the largest of them (0 if none).
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kib / 1024
    out.update(attempted=run.attempted, failed=run.failed, failures=run.failures[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
