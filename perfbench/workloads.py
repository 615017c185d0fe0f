"""The benchmark's workloads: their tasks and the independent checks on them.

A task is a named unit of work.  ``run()`` is the timed call into the
library; ``check(result)`` returns the list of failed checks and a canonical
text of the output (compared between traced and untraced passes).  Checks
run outside the timed region.

The expected values come from outside the code under test: the shipped
reference tables, the literature orders and degrees, the golden strings of
the acceptance tests, and the CLI output of the seed commit kept in
``expected/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

# The first three reuse one warm interpreter; cli_cold starts one per task.
WORKLOADS = ("pipeline", "verify_cyclic", "groups", "cli_cold")

G4_SPEC_Z4 = "H_{Z_4}((E(4,1))*x^3, (E(4,1)), (E(4,1))*x, (-E(4,1)))"

# Order, degrees, codegrees and number of conjugacy classes from the
# literature (Shephard-Todd; Lehrer-Taylor, Unitary Reflection Groups).
GROUP_FACTS = {
    "G4": {"order": 24, "degrees": (4, 6), "codegrees": (0, 2), "classes": 7},
    "G(3,1,2)": {"order": 18, "degrees": (3, 6), "codegrees": (0, 3), "classes": 9},
}
REFERENCE = {"G4": "uch_g4.txt", "G(3,1,2)": "uch_g312.txt"}

# CLI commands of cli_cold; "{ref}" is the shipped G4 reference table.
CLI_COMMANDS = {
    "verify_g4": ["verify", "G4", "--ref", "{ref}"],
    "analyze_g312": ["analyze", "G(3,1,2)"],
    "uch_cyclic6": ["uch", "--cyclic", "6"],
    "factors21": ["factors", "21", "--field", "Q(sqrt5,zeta3)"],
    "factors24": ["factors", "24", "--field", "Q(sqrt-2,zeta3)"],
}


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], str]]


def child_env() -> dict[str, str]:
    """Environment of every benchmark child: the checkout's ``src`` first and
    a fixed hash seed, so that traced counts repeat across processes."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def springer_regular(degrees, codegrees) -> set[int]:
    """Regular numbers: d is regular iff as many degrees as codegrees are
    divisible by d (Springer; Lehrer-Springer)."""
    return {d for d in range(1, max(degrees) + 1)
            if sum(g % d == 0 for g in degrees) == sum(c % d == 0 for c in codegrees)
            and any(g % d == 0 for g in degrees)}


# -- warm workloads ------------------------------------------------------------


def pipeline_tasks(spets) -> list[Task]:
    refs = {g: spets.tabledata.load_reference(f) for g, f in REFERENCE.items()}

    def make(group: str) -> Task:
        def check(res):
            fails = []
            diff = spets.tabledata.diff_tables(res.table, refs[group])
            if not diff.empty or diff.renames:
                fails.append(f"{group}: differs from {REFERENCE[group]}: {diff.summary()}")
            specs = {k: v.spec.serialize() for k, v in sorted(res.specs.items())}
            if group == "G4" and specs.get((4, 1)) != G4_SPEC_Z4:
                fails.append(f"G4: zeta_4 series spec {specs.get((4, 1))!r}")
            return fails, spets.tabledata.emit_uch(res.table) + repr(specs)
        return Task(f"construct_uch {group}",
                    lambda: spets.tabledata.construct_uch(group), check)

    return [make(g) for g in REFERENCE]


def verify_cyclic_tasks(spets) -> list[Task]:
    uch, reflection = spets.uch, spets.reflection

    def make(e: int) -> Task:
        def run():
            table = uch.cyclic_uch(e)
            report = uch.verify_axioms(table, reflection.build_group(f"Z_{e}"),
                                       uch._cyclic_feg_map(e))
            return table, report

        def check(out):
            table, report = out
            fails = []
            if len(table.rows) != 1 + e * (e - 1) // 2:
                fails.append(f"Z_{e}: {len(table.rows)} rows")
            if not report.passed:
                fails.append(f"Z_{e}: axioms fail: {report.summary()}")
            return fails, spets.tabledata.emit_uch(table) + report.summary()
        return Task(f"verify_axioms Z_{e}", run, check)

    return [make(8), make(12)]


def groups_tasks(spets) -> list[Task]:
    reflection, orders, uch = spets.reflection, spets.orders, spets.uch

    def make(group: str) -> Task:
        facts = GROUP_FACTS[group]

        def run():
            G = reflection.build_group(group)
            return (G, G.classes, G.degrees, orders.all_sylow_congruences(G),
                    uch.regular_eigenvalues(G))

        def check(out):
            G, classes, degrees, sylow, regular = out
            fails = []
            if G.order != facts["order"]:
                fails.append(f"{group}: order {G.order}")
            if tuple(d for d, _ in degrees) != facts["degrees"]:
                fails.append(f"{group}: degrees {degrees}")
            if len(classes) != facts["classes"]:
                fails.append(f"{group}: {len(classes)} classes")
            if not sylow or not all(ok for _, ok in sylow):
                fails.append(f"{group}: Sylow congruences {sylow}")
            want = {(d, a) for d in springer_regular(facts["degrees"], facts["codegrees"])
                    for a in range(d) if gcd(a, d) == 1}
            got = [z.root_of_unity_order() for z in regular]
            if len(got) != len(want) or set(got) != want:
                fails.append(f"{group}: regular eigenvalues {got}")
            text = repr((G.order, [(c.rep_word, c.size) for c in classes],
                         [(d, z.serialize()) for d, z in degrees],
                         [(p.poly.serialize(), ok) for p, ok in sylow],
                         [z.serialize() for z in regular]))
            return fails, text
        return Task(f"groups {group}", run, check)

    return [make(g) for g in GROUP_FACTS]


# -- cold CLI workload ---------------------------------------------------------


def cli_result(stdout: bytes, returncode: int, expected: bytes, name: str) -> list[str]:
    """Checks on one CLI command: exit code, stdout byte for byte against the
    seed output, and for two commands an independent count or golden list."""
    fails = []
    if returncode != 0:
        fails.append(f"{name}: exit code {returncode}")
    if stdout != expected:
        fails.append(f"{name}: stdout differs from expected/{name}.txt")
    text = stdout.decode("utf-8", "replace")
    if name == "uch_cyclic6":
        rows = sum(1 for line in text.splitlines() if line.count(" | ") == 3)
        if rows != 1 + 6 * 5 // 2:
            fails.append(f"{name}: {rows} rows")
    if name == "factors24":
        golden = set((EXPECTED / "ac5_sqrtm2_zeta3_phi24.txt").read_text().splitlines())
        got = {line.split(" = ", 1)[1] for line in text.splitlines() if " = " in line}
        if got != golden:
            fails.append(f"{name}: factor list differs from the AC5 golden list")
    return fails


def run_cli(name: str, data: Path, traced: bool) -> subprocess.CompletedProcess:
    """Run one CLI command in a fresh interpreter and wait for it to end.

    Traced, the command runs under ``cli_child.py``, which prints its trace
    state as the last line of stderr.
    """
    args = [a.replace("{ref}", str(data / "uch_g4.txt")) for a in CLI_COMMANDS[name]]
    if traced:
        argv = [sys.executable, str(HERE / "cli_child.py"), "--", *args]
    else:
        argv = [sys.executable, "-m", "spets.cli", *args]
    return subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if traced else None)


def make_tasks(workload: str, spets) -> list[Task]:
    return {"pipeline": pipeline_tasks, "verify_cyclic": verify_cyclic_tasks,
            "groups": groups_tasks}[workload](spets)
