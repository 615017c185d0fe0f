"""Layer tracing of the ``spets`` package, installed from outside.

``Tracer.install()`` wraps, in place, the public functions and methods of
every ``spets`` layer module plus the arithmetic operators of their classes,
and the private module-level functions of every layer but ``cyclotomic``
(whose private helpers are its hot inner loop), so that a helper called from
another layer is charged to the layer that defines it.  Each wrapped function
is rebound in every module that imported it by name.  The library source is
not edited.

Every wrapped call is counted.  A call that crosses from one layer into
another opens a span; a nested call inside the same layer is counted but not
timed again.  A span's self time is its duration minus the spans it caused.
Cyclotomic operators entered from another layer are also recorded by the
layer that issued them and by the field degree phi of the lcm of their
operands' conductors.

Tracing state is plain counters and sums, so the state of several processes
(the cold CLI children) merges by addition, see ``merge_states``.
"""

from __future__ import annotations

import importlib
import time
from functools import cached_property, update_wrapper
from math import gcd
from types import FunctionType

LAYERS = ("cyclotomic", "laurent", "reflection", "orders", "chartables",
          "hecke", "uch", "tabledata", "cli")

# Operator dunders wrapped besides the public methods.  ``__init__`` is left
# alone on purpose: ``Cyclo.__init__`` runs ~10^5 times per pass.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__matmul__",
    "__post_init__",
})

# Cyclo operators whose spans are bucketed by conductor.
CYCLO_OPS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse", "galois",
    "conjugate",
})

# Functions whose outermost calls are timed inclusively (for ``*_s``/``*_us``).
TIMED = frozenset({
    "reflection.build_group", "reflection.ReflectionCoset.classes",
    "uch.determine_parameters", "uch.verify_axioms",
    "tabledata.construct_uch", "laurent.LaurentPoly.exact_div",
    "laurent.LaurentPoly.evaluate",
})

PHI_BUCKETS = ("phi2", "phi4", "phi8", "phi_gt8")


def _bucket(phi: int) -> int:
    return 0 if phi <= 2 else 1 if phi <= 4 else 2 if phi <= 8 else 3


class Tracer:
    """Counters and span timers for one process."""

    def __init__(self):
        self.active = False
        self.top = "bench"          # layer of the innermost open span
        self.child = 0.0            # time of spans caused by the open span
        self.calls: dict[str, list[int]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.raised = {layer: 0 for layer in LAYERS}
        self.op_s = [0.0] * len(PHI_BUCKETS)
        self.op_n = [0] * len(PHI_BUCKETS)
        self.ops_from: dict[str, int] = {}
        self.max_conductor = 1
        self.timed: dict[str, list[float]] = {}   # key -> [seconds, outer calls]
        self.spetsial_passed = 0
        self._phi: dict[int, int] = {}

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer module of the importable ``spets``; counting starts
        when ``active`` is set."""
        modules = {layer: importlib.import_module(f"spets.{layer}")
                   for layer in LAYERS}
        self._cyclo = modules["cyclotomic"].Cyclo
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not name.startswith("_"):
                        self._patch_class(layer, obj)
                elif name.startswith("_") and (layer == "cyclotomic"
                                               or name.startswith("__")):
                    continue
                elif isinstance(obj, FunctionType) or hasattr(obj, "__wrapped__"):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
        # Rebind functions everywhere they were imported by name or alias.
        for mod in [importlib.import_module("spets"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and not isinstance(obj, type):
                    setattr(mod, name, replaced[id(obj)])

    def _patch_class(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, FunctionType):
                setattr(cls, name, self._wrap(attr, layer, key))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, key)))
            elif isinstance(attr, cached_property):
                prop = cached_property(self._wrap(attr.func, layer, key))
                prop.__set_name__(cls, name)
                setattr(cls, name, prop)
            # plain properties are attribute reads and stay unwrapped

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, fn, layer: str, key: str):
        tr = self
        cell = self.calls.setdefault(key, [0])
        self_s, raised = self.self_s, self.raised
        perf = time.perf_counter
        is_op = layer == "cyclotomic" and key.rsplit(".", 1)[1] in CYCLO_OPS

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            cell[0] += 1
            if tr.top == layer:
                return fn(*args, **kwargs)
            caller, outer_child = tr.top, tr.child
            tr.top, tr.child = layer, 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[layer] += 1
                raise
            finally:
                dt = perf() - t0
                own = dt - tr.child
                self_s[layer] += own
                tr.top, tr.child = caller, outer_child + dt
                if is_op:
                    tr._record_op(caller, args, own)

        update_wrapper(wrapper, fn)
        if key in TIMED:
            wrapper = self._timed(wrapper, key)
        if key == "hecke.check_spetsial":
            wrapper = self._count_passed(wrapper)
        return wrapper

    def _timed(self, inner, key: str):
        tr = self
        acc = self.timed.setdefault(key, [0.0, 0])
        depth = [0]
        perf = time.perf_counter

        def timed(*args, **kwargs):
            if not tr.active or depth[0]:
                return inner(*args, **kwargs)
            depth[0] += 1
            t0 = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                acc[0] += perf() - t0
                acc[1] += 1
                depth[0] -= 1

        return update_wrapper(timed, inner)

    def _count_passed(self, inner):
        tr = self

        def counted(*args, **kwargs):
            report = inner(*args, **kwargs)
            if tr.active and all(report.conditions.values()):
                tr.spetsial_passed += 1
            return report

        return update_wrapper(counted, inner)

    def _record_op(self, caller: str, args, seconds: float) -> None:
        n = args[0].n
        if len(args) > 1 and isinstance(args[1], self._cyclo):
            m = args[1].n
            n = n * m // gcd(n, m)
        phi = self._phi.get(n)
        if phi is None:
            phi = self._phi[n] = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        b = _bucket(phi)
        self.op_s[b] += seconds
        self.op_n[b] += 1
        self.ops_from[caller] = self.ops_from.get(caller, 0) + 1
        if n > self.max_conductor:
            self.max_conductor = n

    # -- results --------------------------------------------------------------
    def state(self) -> dict:
        """Raw counters and sums, JSON-serialisable and mergeable."""
        return {
            "calls": {k: c[0] for k, c in self.calls.items()},
            "self_s": dict(self.self_s),
            "raised": dict(self.raised),
            "op_s": list(self.op_s),
            "op_n": list(self.op_n),
            "ops_from": dict(self.ops_from),
            "max_conductor": self.max_conductor,
            "timed": {k: list(v) for k, v in self.timed.items()},
            "spetsial_passed": self.spetsial_passed,
        }


def merge_states(states: list[dict]) -> dict:
    """Sum the raw states of several processes (max for the conductor)."""
    out = {"calls": {}, "self_s": {}, "raised": {}, "op_s": [0.0] * 4,
           "op_n": [0] * 4, "ops_from": {}, "max_conductor": 1, "timed": {},
           "spetsial_passed": 0}
    for st in states:
        for field in ("calls", "self_s", "raised", "ops_from"):
            for k, v in st[field].items():
                out[field][k] = out[field].get(k, 0) + v
        for k, (s, n) in st["timed"].items():
            prev = out["timed"].get(k, [0.0, 0])
            out["timed"][k] = [prev[0] + s, prev[1] + n]
        out["op_s"] = [a + b for a, b in zip(out["op_s"], st["op_s"])]
        out["op_n"] = [a + b for a, b in zip(out["op_n"], st["op_n"])]
        out["max_conductor"] = max(out["max_conductor"], st["max_conductor"])
        out["spetsial_passed"] += st["spetsial_passed"]
    return out


def layer_metrics(st: dict) -> dict[str, float]:
    """Per-layer metric values, by the names in ``BENCHMARK.json``."""
    calls = st["calls"]

    def n(*keys: str) -> int:
        return sum(calls.get(k, 0) for k in keys)

    def secs(key: str) -> float:
        return st["timed"].get(key, [0.0, 0])[0]

    def mean_us(key: str) -> float:
        s, outer = st["timed"].get(key, [0.0, 0])
        return 1e6 * s / outer if outer else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(v for k, v in calls.items()
                                    if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = st["self_s"].get(layer, 0.0)
        out[f"{layer}.raised"] = st["raised"].get(layer, 0)
    cy = "cyclotomic.Cyclo."
    out["cyclotomic.mul.calls"] = n(cy + "__mul__", cy + "__rmul__")
    out["cyclotomic.add.calls"] = n(cy + "__add__", cy + "__radd__")
    out["cyclotomic.inverse.calls"] = n(cy + "inverse")
    out["cyclotomic.galois.calls"] = n(cy + "galois")
    for b, name in enumerate(PHI_BUCKETS):
        ops = st["op_n"][b]
        out[f"cyclotomic.op_us.{name}"] = 1e6 * st["op_s"][b] / ops if ops else 0.0
    out["cyclotomic.max_conductor"] = st["max_conductor"]
    for layer in LAYERS[1:-1]:
        out[f"cyclotomic.ops.from_{layer}"] = st["ops_from"].get(layer, 0)
    out["reflection.matmul.calls"] = n("reflection.Matrix.__matmul__")
    out["reflection.eigenvalues.calls"] = n("reflection.Matrix.eigenvalues")
    out["reflection.centralizer.calls"] = n("reflection.ReflectionCoset.centralizer")
    out["reflection.classes_s"] = secs("reflection.ReflectionCoset.classes")
    out["reflection.build_group_s"] = secs("reflection.build_group")
    out["orders.sylow_congruence.calls"] = n("orders.sylow_congruence")
    out["orders.order_poly.calls"] = n("orders.order_poly")
    checks = n("hecke.check_spetsial")
    out["hecke.spec.created"] = n("hecke.SpetsialAlgebraSpec.__post_init__")
    out["hecke.check_spetsial.calls"] = checks
    out["hecke.check_spetsial.pass_ratio"] = st["spetsial_passed"] / checks if checks else 0.0
    out["hecke.schur_cyclic.calls"] = n("hecke.schur_cyclic")
    out["uch.determine_parameters_s"] = secs("uch.determine_parameters")
    out["laurent.exact_div.calls"] = n("laurent.LaurentPoly.exact_div")
    out["laurent.exact_div_us"] = mean_us("laurent.LaurentPoly.exact_div")
    out["tabledata.construct_uch_s"] = secs("tabledata.construct_uch")
    out["laurent.evaluate.calls"] = n("laurent.LaurentPoly.evaluate")
    out["laurent.evaluate_us"] = mean_us("laurent.LaurentPoly.evaluate")
    out["laurent.mul.calls"] = n("laurent.LaurentPoly.__mul__", "laurent.LaurentPoly.__rmul__")
    out["uch.verify_axioms_s"] = secs("uch.verify_axioms")
    return out
