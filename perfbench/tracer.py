"""Span tracing of the housealloc layers from outside the package.

The traced run replaces chosen public functions of the package modules with
wrappers that open a span on entry and close it on exit.  Replacement is by
identity: every ``housealloc.*`` module attribute that holds the original
function object is swapped, so ``from .matching import ...`` bindings in
other modules are covered too.  The wrappers always call the original, so
the program's behaviour is unchanged; a function that no longer exists is
reported as absent and traced nowhere.

Spans (name, start, end, parent span, op id) are kept in flat arrays while
the run lasts and written out when it ends.  ``summarize`` turns them into
per-group busy time (outermost spans of the group only, so nesting within a
group is not counted twice), call counts and self time (a span minus its
direct children).
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

# (module, function, group).  A group's layer is the text before the dot.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("fileio", "loads_instance", "fileio.parse"),
    ("fileio", "loads_allocation", "fileio.parse"),
    ("fileio", "dumps_instance", "fileio.dump"),
    ("fileio", "dumps_allocation", "fileio.dump"),
    ("fileio", "report_to_doc", "fileio.dump"),
    ("fileio", "witness_to_doc", "fileio.dump"),
    ("model", "validate_instance", "model.validate"),
    ("model", "validate_allocation", "model.validate"),
    ("model", "welfare", "model.welfare"),
    ("gen", "random_instance", "gen.instance"),
    ("gen", "trial_params", "gen.instance"),
    ("mechanisms", "run_mechanism", "mechanisms.run"),
    ("mechanisms", "build_msir_graph", "mechanisms.build"),
    ("mechanisms", "build_mir_graph", "mechanisms.build"),
    ("mechanisms", "serial_refinement", "mechanisms.refine"),
    ("matching", "max_weight_perfect_matching", "matching.solve"),
    ("oracles", "welfare_maxima", "oracles.welfare_maxima"),
    ("oracles", "check_strategyproofness", "oracles.sp"),
    ("oracles", "is_core_stable", "oracles.core"),
    ("oracles", "is_strict_core_stable", "oracles.core"),
    ("oracles", "is_pareto_optimal", "oracles.po"),
    ("oracles", "max_welfare", "oracles.maxw"),
    ("oracles", "max_welfare_allocation", "oracles.maxw"),
    ("oracles", "sir_violation", "oracles.rationality"),
    ("oracles", "ir_violation", "oracles.rationality"),
    ("oracles", "evaluate_properties", "oracles.evaluate"),
)

LAYERS = ("cli", "fileio", "model", "gen", "mechanisms", "matching", "oracles")


class Tracer:
    """In-memory span recorder plus the counters read from traced results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.uninspectable: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[str, object, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping --------------------------------------------------------

    def prepare(self, package: str = "housealloc") -> None:
        """Build one wrapper per listed function that exists in ``package``."""
        self._wrappers = []
        self.absent = []
        for module_name, func_name, group in WRAPPED:
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            inspect = _INSPECTORS.get(group)
            wrapper = self._wrap(original, self.name_id(group), inspect, group)
            self._wrappers.append((package, original, wrapper))

    def install(self) -> None:
        """Swap every module attribute bound to a wrapped function."""
        if self._installed:
            return
        for package, original, wrapper in self._wrappers:
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (
                    mod_name == package or mod_name.startswith(package + ".")
                ):
                    continue
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        namespace[attr] = wrapper
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            vars(module)[attr] = original
        self._installed = []

    def _wrap(
        self,
        original: Callable,
        name_id: int,
        inspect: Callable | None,
        group: str,
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if inspect is not None:
                try:
                    inspect(tracer, args, kwargs, result)
                except Exception:  # a changed result shape must not stop the op
                    tracer.uninspectable.add(group)
            return result

        return wrapper

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [
                ["parent", self.parent.typecode],
                ["name", self.name.typecode],
                ["op", self.op.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.parent, self.name, self.op, self.start, self.end):
                arr.tofile(fh)


def _inspect_run(tracer: Tracer, args, kwargs, result) -> None:
    instance = args[0] if args else kwargs["instance"]
    trace = result.trace
    rounds = trace.rounds
    tracer.count("runs")
    tracer.count("n", instance.num_agents)
    tracer.count("m", instance.num_houses)
    tracer.count("W", trace.initial_weight)
    tracer.count("rounds", len(rounds))
    tracer.count("accepted", sum(1 for r in rounds if r.accepted))


def _inspect_build(tracer: Tracer, args, kwargs, result) -> None:
    weights = getattr(result, "_weights", None)
    edges = len(weights) if weights is not None else len(result.edges())
    tracer.count("graphs")
    tracer.count("graph_edges", edges)


def _inspect_parse(tracer: Tracer, args, kwargs, result) -> None:
    if isinstance(result, tuple):  # loads_allocation: (allocation, welfare, trace)
        tracer.count("parsed_allocations")
        tracer.count("parsed_W", result[1])
    else:
        tracer.count("parsed_instances")
        tracer.count("parsed_n", result.num_agents)
        tracer.count("parsed_m", result.num_houses)


_INSPECTORS: dict[str, Callable] = {
    "mechanisms.run": _inspect_run,
    "mechanisms.build": _inspect_build,
    "fileio.parse": _inspect_parse,
}


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are numbered in the order they opened, so a parent always has a
    smaller index than its children.
    """
    own = [e - s for s, e in zip(start, end)]
    for sid, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[sid] - start[sid]
    return own


def summarize(
    tracer: Tracer, nested: tuple[tuple[str, str], ...] = ()
) -> tuple[dict[str, dict[str, float]], dict[tuple[str, str], int]]:
    """Per span name: calls, outermost calls, busy s and self s.

    Busy time sums only the outermost spans of a name, so a name nested in
    itself is not counted twice.  ``nested`` lists (inner, outer) name pairs
    whose inner spans are also counted when they run inside an outer span,
    for example solves inside refinement.
    """
    names = tracer.names
    parent, start, end, name = tracer.parent, tracer.start, tracer.end, tracer.name
    own = self_times(parent, start, end)
    bits = [1 << i for i in range(len(names))]
    ids = {n: i for i, n in enumerate(names)}
    pairs = [
        ((inner, outer), ids[inner], bits[ids[outer]])
        for inner, outer in nested
        if inner in ids and outer in ids
    ]
    ancestors = [0] * len(start)
    stats = {n: {"calls": 0, "outer_calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in names}
    inside = {pair: 0 for pair in nested}
    for sid in range(len(start)):
        p = parent[sid]
        mask = (ancestors[p] | bits[name[p]]) if p >= 0 else 0
        ancestors[sid] = mask
        nid = name[sid]
        entry = stats[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        if not mask & bits[nid]:
            entry["outer_calls"] += 1
            entry["busy_s"] += end[sid] - start[sid]
        for pair, inner_id, outer_bit in pairs:
            if nid == inner_id and mask & outer_bit:
                inside[pair] += 1
    return stats, inside
