"""Per-layer tracing by wrapping the program's public functions from outside.

Every wrapped call is a span (name, start, end, parent span, operation id).
Self time is a span's duration minus the time of the wrapped spans it
directly encloses.  Aggregates (calls, inclusive and self time, extra
counts) are exact; span records are kept in memory up to a cap and written
out when the run ends, with the number dropped past the cap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

# module.function, wrapped in every zspersuasion namespace that holds it
TARGETS = (
    "geometry.solve_unique",
    "geometry.polytope_vertices",
    "geometry.closure_vertices",
    "geometry.cell_is_nonempty",
    "geometry.strictly_feasible_point",
    "geometry.piece_regions",
    "geometry.overlay_regions",
    "experiments.product",
    "experiments.conditional_dist",
    "beliefs.combine",
    "utilities.conditional_payoff_against",
    "utilities.conditional_payoff",
    "utilities.edge_restriction",
    "utilities.check_zero_sum",
    "analysis.strict_surplus_sufficiency",
    "analysis.minimal_subsets",
    "analysis.classify_full_revelation",
    "analysis.condition1_report",
    "analysis.is_zero_on_subsimplex",
    "equilibrium.synthesize_exploit",
    "equilibrium.verify_profile",
    "oracle.enumerate_grid_strategies",
    "oracle.full_revelation_scan",
    "scenario.load_scenario",
    "cli.main",
)
UTILITY_CALL = "utilities.utility_call"  # PiecewiseAffineUtility.__call__
GENERATORS = {"geometry.overlay_regions"}

# the layer a span's self time is charged to, by name prefix
LAYERS = {
    "geometry": "geometry",
    "experiments": "posterior",
    "beliefs": "posterior",
    "utilities": "utilities",
    "analysis": "classifiers",
    "equilibrium": "equilibrium",
    "oracle": "oracle",
    "scenario": "scenario+cli",
    "cli": "scenario+cli",
}


SPAN_CAP = 100_000  # span records kept in memory; aggregates count them all


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []  # open spans per name
        self.counts: dict[str, int] = {}
        self._distinct: dict[str, set] = {}
        self.distinct_total: dict[str, int] = {}
        # open frames: [name id, start, child time, span index]
        self.stack: list[list] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.dropped = 0
        self.op = -1

    # -- bookkeeping ------------------------------------------------------

    def _id(self, name: str) -> int:
        self.names.append(name)
        for column in (self.calls, self.active):
            column.append(0)
        for column in (self.total, self.self_time):
            column.append(0.0)
        return len(self.names) - 1

    def _enter(self, k: int) -> list:
        if len(self.span_start) < SPAN_CAP:
            index = len(self.span_start)
            self.span_name.append(k)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self.stack[-1][3] if self.stack else -1)
            self.span_op.append(self.op)
        else:
            index = -1
            self.dropped += 1
        self.active[k] += 1
        frame = [k, 0.0, 0.0, index]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        k, start, child, index = frame
        elapsed = end - start
        self.stack.pop()
        self.active[k] -= 1
        self.calls[k] += 1
        self.total[k] += elapsed
        self.self_time[k] += elapsed - child
        if self.stack:
            self.stack[-1][2] += elapsed
        if index >= 0:
            self.span_start[index] = start
            self.span_end[index] = end

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def note_distinct(self, name: str, key) -> None:
        self._distinct.setdefault(name, set()).add(key)

    def begin_operation(self, op: int) -> None:
        self.op = op

    def end_operation(self) -> None:
        """Closes frames a timed-out call left open and folds this
        operation's distinct-argument sets into the totals."""
        while self.stack:
            self._exit(self.stack[-1])
        for name, keys in self._distinct.items():
            self.distinct_total[name] = self.distinct_total.get(name, 0) + len(keys)
        self._distinct.clear()

    def is_active(self, name_id: int) -> bool:
        return self.active[name_id] > 0

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        k = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, result)
            return result

        return k, wrapper

    def wrap_generator(self, name: str, fn, after_item=None):
        """Each resumption of the generator is one span."""
        k = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(k)
            try:
                gen = fn(*args, **kwargs)
            finally:
                exit_(frame)
            while True:
                frame = enter(k)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                if after_item is not None:
                    after_item(item)
                yield item

        return k, wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "spans": list(zip(self.span_name, self.span_start, self.span_end,
                                      self.span_parent, self.span_op)),
                    "dropped": self.dropped,
                },
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wraps every target in every zspersuasion module namespace that holds
    it (``from .x import f`` copies the binding into the importer)."""
    import zspersuasion.cli  # noqa: F401  (imports every module it uses)
    from zspersuasion import utilities

    modules = [m for name, m in sys.modules.items()
               if name == "zspersuasion" or name.startswith("zspersuasion.")]

    ids: dict[str, int] = {}

    def nonempty(args, result):
        if result:
            tracer.count("geometry.cell_is_nonempty.nonempty")

    def pieces_seen(args, result):
        tracer.note_distinct("geometry.piece_regions", args[0])

    def product_seen(args, result):
        experiments = args[0]
        experiments = getattr(experiments, "experiments", experiments)
        experiments = tuple(experiments)
        tuples = 1
        for e in experiments:
            tuples *= len(e.atoms)
        tracer.count("experiments.product.tuples", tuples)
        tracer.note_distinct("experiments.product", experiments)

    def candidate(args, result):
        if tracer.is_active(ids["equilibrium.synthesize_exploit"]):
            tracer.count("equilibrium.synthesize_exploit.candidates")

    def grid_check(args, result):
        if tracer.is_active(ids["equilibrium.verify_profile"]):
            tracer.count("equilibrium.verify_profile.grid_checks")

    def strategies(args, result):
        tracer.count("oracle.enumerate_grid_strategies.strategies", len(result))

    def cell(item):
        tracer.count("geometry.overlay_regions.cells")

    after = {
        "geometry.cell_is_nonempty": nonempty,
        "geometry.piece_regions": pieces_seen,
        "experiments.product": product_seen,
        "utilities.conditional_payoff_against": candidate,
        "utilities.conditional_payoff": grid_check,
        "oracle.enumerate_grid_strategies": strategies,
    }
    for name in TARGETS:
        module_name, attr = name.split(".")
        original = getattr(sys.modules[f"zspersuasion.{module_name}"], attr)
        if name in GENERATORS:
            ids[name], wrapped = tracer.wrap_generator(name, original, cell)
        else:
            ids[name], wrapped = tracer.wrap(name, original, after.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    cls = utilities.PiecewiseAffineUtility
    ids[UTILITY_CALL], wrapped = tracer.wrap(UTILITY_CALL, cls.__call__)
    cls.__call__ = wrapped


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Every per-layer metric, per round of the workload's operations."""
    by_name = {name: k for k, name in enumerate(tracer.names)}

    def calls(name):
        return tracer.calls[by_name[name]] / rounds

    def self_s(name):
        return tracer.self_time[by_name[name]] / rounds

    def total_s(name):
        return tracer.total[by_name[name]] / rounds

    def count(name):
        return tracer.counts.get(name, 0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("geometry.solve_unique", "geometry.polytope_vertices",
                 "geometry.cell_is_nonempty", "geometry.strictly_feasible_point",
                 "experiments.product", "beliefs.combine", "experiments.conditional_dist",
                 "utilities.conditional_payoff_against", UTILITY_CALL,
                 "utilities.edge_restriction"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["geometry.cell_is_nonempty.nonempty_ratio"] = ratio(
        count("geometry.cell_is_nonempty.nonempty"), calls("geometry.cell_is_nonempty"))
    m["geometry.closure_vertices.calls"] = calls("geometry.closure_vertices")
    m["geometry.overlay_regions.s"] = total_s("geometry.overlay_regions")
    m["geometry.overlay_regions.cells"] = count("geometry.overlay_regions.cells")
    m["geometry.piece_regions.calls"] = calls("geometry.piece_regions")
    m["geometry.piece_regions.s"] = total_s("geometry.piece_regions")
    m["geometry.piece_regions.distinct_ratio"] = ratio(
        tracer.distinct_total.get("geometry.piece_regions", 0) / rounds,
        calls("geometry.piece_regions"))
    m["experiments.product.tuples"] = count("experiments.product.tuples")
    m["experiments.product.distinct_ratio"] = ratio(
        tracer.distinct_total.get("experiments.product", 0) / rounds,
        calls("experiments.product"))
    m["utilities.check_zero_sum.s"] = total_s("utilities.check_zero_sum")
    for name in ("analysis.strict_surplus_sufficiency", "analysis.minimal_subsets",
                 "analysis.classify_full_revelation", "analysis.condition1_report"):
        m[f"{name}.s"] = total_s(name)
    m["analysis.is_zero_on_subsimplex.calls"] = calls("analysis.is_zero_on_subsimplex")
    m["equilibrium.synthesize_exploit.s"] = total_s("equilibrium.synthesize_exploit")
    m["equilibrium.synthesize_exploit.candidates"] = count("equilibrium.synthesize_exploit.candidates")
    m["equilibrium.verify_profile.s"] = total_s("equilibrium.verify_profile")
    m["equilibrium.verify_profile.grid_checks"] = count("equilibrium.verify_profile.grid_checks")
    m["oracle.enumerate_grid_strategies.s"] = total_s("oracle.enumerate_grid_strategies")
    m["oracle.enumerate_grid_strategies.strategies"] = count("oracle.enumerate_grid_strategies.strategies")
    m["oracle.full_revelation_scan.s"] = total_s("oracle.full_revelation_scan")
    m["scenario.load_scenario.s"] = total_s("scenario.load_scenario")
    m["cli.main.self_s"] = self_s("cli.main")
    return m


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of the summed self time of all spans."""
    totals: dict[str, float] = {}
    for name, t in zip(tracer.names, tracer.self_time):
        layer = LAYERS[name.split(".")[0]]
        totals[layer] = totals.get(layer, 0.0) + t
    whole = sum(totals.values()) or 1.0
    return {layer: t / whole for layer, t in sorted(totals.items())}
