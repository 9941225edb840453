"""Span tracing of crystal_grid's layers, installed from outside the package.

``Tracer.install`` wraps the public functions of every layer module and
rebinds each reference to them: module attributes, names bound by
``from ... import`` in other modules, and dispatch dicts such as
``g22._STEP_FUNCTIONS`` or ``suites.SUITES``.  ``uninstall`` puts the
originals back, so an untraced run never sees a wrapper.

Spans are not stored one by one (a pass makes millions of calls, which would
distort the memory metric); each wrapper adds its call into an aggregate per
(span, parent) and computes self time online: a span's duration minus the
durations of the spans it directly caused.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "suites", "cartan", "g22", "an", "binfty", "oracle", "reps", "linalg",
          "modules22")

# Public functions too small to trace: the wrapper would cost more than the call.
TINY = frozenset({"g22.ranks_valid", "g22.describe", "g22.format_component_data",
                  "cartan.pairing", "oracle.corner_vertex", "modules22.normalize_multiset"})

ROOT_SPAN = "harness"

G22_OPS = ("g22.apply_e", "g22.apply_f", "g22.apply_e_star", "g22.apply_f_star")

# Families of spans whose inclusive time one metric reports.  Calls nested
# inside another member of the same family are not counted twice.
FAMILIES = {
    "g22.op": G22_OPS,
    "g22.stat": ("g22.epsilon", "g22.phi", "g22.epsilon_star", "g22.phi_star",
                 "g22.epsilon_prime", "g22.phi_prime", "g22.epsilon_star_prime",
                 "g22.phi_star_prime", "g22.invariant", "g22.weight"),
    "g22.enum": ("g22.iter_components", "g22.enumerate_components", "g22.fragment",
                 "g22.relabeled_fragment"),
    "g22.dual": ("g22.dual",),
    "an.op": ("an.apply_e", "an.apply_f", "an.apply_e_star", "an.apply_f_star"),
    "binfty.op": ("binfty.apply_op",),
    "binfty.stat": ("binfty.epsilon", "binfty.phi", "binfty.weight"),
    "binfty.reach": ("binfty.reachable_elements",),
    "linalg.rank": ("linalg.rank",),
    "linalg.inverse": ("linalg.inverse",),
    "linalg.mul": ("linalg.mul",),
    "linalg.rref": ("linalg.rref",),
    "reps.make": ("reps.make_representation", "reps.zero_representation",
                  "reps.direct_sum", "reps.dual_representation", "reps.g22_representation"),
    "oracle.sample": ("oracle.sample_component_point",),
    "oracle.stat": ("oracle.epsilon_of_rep", "oracle.epsilon_star_of_rep"),
    "oracle.certify": ("oracle.certify_decomposition",),
    "modules22.profile_solve": ("modules22.multiplicities_from_profile",),
    "modules22.rank_profile": ("modules22.rank_profile",),
    "modules22.generic": ("modules22.generic_decomposition",),
    "modules22.ext": ("modules22.ext1_table", "modules22.ext1_dim", "modules22.ext2_dim"),
}

_RAISED = object()


class Tracer:
    """Aggregates of wrapped calls: agg[(span, parent)] = [calls, total_s, self_s, nones, raised]."""

    def __init__(self, seed: int):
        self.seed = seed
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.counters = defaultdict(int)
        self.sampled = set()
        self.stack = [[ROOT_SPAN, 0.0]]
        self._patched = []
        self._hooks = {
            "cartan.check_crystal_axioms": self._count_axiom_checks,
            "cartan.build_crystal_graph": self._count_graph_nodes,
            "oracle.sample_component_point": self._count_sample,
            "linalg.random_invertible": self._count_invertible,
        }

    # -- hooks: counts that need a call's arguments or result -----------------

    def _count_axiom_checks(self, args, result):
        frag = args[0]
        self.counters["cartan.axiom_checks"] += len(frag.elements) * len(frag.colors)

    def _count_graph_nodes(self, args, result):
        self.counters["cartan.graph_nodes"] += len(result.nodes)

    def _count_sample(self, args, result):
        c, cfg = args[0], args[1]
        self.sampled.add((self.stack[-1][0], c))
        if cfg.seed != self.seed:
            self.counters["oracle.retries"] += 1

    def _count_invertible(self, args, result):
        if args[1] > 0:
            self.counters["linalg.invertible_results"] += 1

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        hook = self._hooks.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                # One span per resumption: the generator's body runs only then.
                it = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        parent = stack[-1]
                        parent[1] += dt
                        rec = agg[(name, parent[0])]
                        rec[0] += 1
                        rec[1] += dt
                        rec[2] += dt - frame[1]
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            result = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = agg[(name, parent[0])]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if result is None:
                    rec[3] += 1
                elif result is _RAISED:
                    rec[4] += 1
                elif hook is not None:
                    hook(args, result)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"crystal_grid.{layer}")
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(value, types.FunctionType) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in TINY):
                    wrapped[id(value)] = (value, self._wrap(name, value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crystal_grid" and not mod_name.startswith("crystal_grid."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrapped:
                    self._patch(namespace, attr, wrapped[id(value)])
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)])

    def _patch(self, container, key, pair):
        original, wrapper = pair
        self._patched.append((container, key, original))
        container[key] = wrapper

    def uninstall(self) -> None:
        while self._patched:
            container, key, original = self._patched.pop()
            container[key] = original

    def take(self) -> dict:
        """Hand over the aggregates gathered so far and start afresh."""
        data = {
            "agg": {key: list(rec) for key, rec in self.agg.items()},
            "counters": dict(self.counters),
            "sampled": len(self.sampled),
            "root_child_s": self.stack[0][1],
        }
        self.agg.clear()
        self.counters.clear()
        self.sampled.clear()
        self.stack[0][1] = 0.0
        return data


def family(agg: dict, names) -> tuple:
    """(calls, inclusive seconds) of the outermost spans in a family."""
    calls, total = 0, 0.0
    for (name, parent), rec in agg.items():
        if name in names and parent not in names:
            calls += rec[0]
            total += rec[1]
    return calls, total


def _per_pass(count, passes):
    value = count / passes
    return int(value) if value == int(value) else value


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(setup: dict, passes: dict, traced, untraced) -> dict:
    """Per-layer metrics from a traced set-up and the traced passes.

    ``traced`` and ``untraced`` hold (seconds, reference units) per pass.
    Counts are per pass; ``*_share`` values are shares of the traced pass
    wall time; ``*_setup_s`` values are seconds of the traced cache fill.
    """
    agg, counters = passes["agg"], passes["counters"]
    n = len(traced)
    wall = sum(seconds for seconds, _ in traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def fam_calls(key):
        return _per_pass(family(agg, FAMILIES[key])[0], n)

    def fam_share(key):
        return _share(family(agg, FAMILIES[key])[1], wall)

    def self_share(*names):
        return _share(sum(rec[2] for (name, _), rec in agg.items() if name in names), wall)

    put("untraced.wall_s", statistics.median(seconds for seconds, _ in untraced), "s")
    put("trace.wall_s", statistics.median(seconds for seconds, _ in traced), "s")
    put("trace.overhead", statistics.median(ref for _, ref in traced)
        / statistics.median(ref for _, ref in untraced), "ratio")
    put("harness.self_share", _share(wall - passes["root_child_s"], wall), "share")
    for layer in LAYERS:
        put(f"{layer}.self_share", _share(
            sum(rec[2] for (name, _), rec in agg.items() if name.startswith(layer + ".")), wall),
            "share")

    op_calls = family(agg, FAMILIES["g22.op"])[0]
    op_nones = sum(rec[3] for (name, _), rec in agg.items() if name in G22_OPS)
    put("g22.op_calls", fam_calls("g22.op"), "count")
    put("g22.op_vanished_share", _share(op_nones, op_calls), "share")
    put("g22.op_share", fam_share("g22.op"), "share")
    put("g22.stat_calls", fam_calls("g22.stat"), "count")
    put("g22.stat_share", fam_share("g22.stat"), "share")
    put("g22.enum_share", fam_share("g22.enum"), "share")
    put("g22.dual_share", fam_share("g22.dual"), "share")

    put("an.op_calls", fam_calls("an.op"), "count")
    an_names = {name for (name, _) in agg if name.startswith("an.")}
    put("an.share", _share(family(agg, an_names)[1], wall), "share")

    put("cartan.axiom_checks", _per_pass(counters.get("cartan.axiom_checks", 0), n), "count")
    put("cartan.check_self_share", self_share("cartan.check_crystal_axioms"), "share")
    put("cartan.morphism_self_share", self_share("cartan.check_strict_morphism"), "share")
    put("cartan.graph_nodes", _per_pass(counters.get("cartan.graph_nodes", 0), n), "count")
    put("cartan.graph_self_share",
        self_share("cartan.build_crystal_graph", "cartan.is_connected_within"), "share")

    put("binfty.op_calls", fam_calls("binfty.op"), "count")
    put("binfty.op_share", fam_share("binfty.op"), "share")
    put("binfty.stat_calls", fam_calls("binfty.stat"), "count")
    put("binfty.stat_share", fam_share("binfty.stat"), "share")
    put("binfty.reach_share", fam_share("binfty.reach"), "share")
    put("binfty.truncations", _per_pass(
        sum(rec[4] for (name, _), rec in agg.items() if name == "binfty.apply_op"), n), "count")

    attempts = agg.get(("linalg.random_matrix", "linalg.random_invertible"), [0])[0]
    put("linalg.rank_calls", fam_calls("linalg.rank"), "count")
    put("linalg.rank_share", fam_share("linalg.rank"), "share")
    put("linalg.inverse_calls", fam_calls("linalg.inverse"), "count")
    put("linalg.inverse_share", fam_share("linalg.inverse"), "share")
    put("linalg.mul_share", fam_share("linalg.mul"), "share")
    put("linalg.invertible_yield",
        _share(counters.get("linalg.invertible_results", 0), attempts), "ratio")
    put("linalg.rref_setup_s", family(setup["agg"], FAMILIES["linalg.rref"])[1], "s")

    put("reps.make_calls", fam_calls("reps.make"), "count")
    put("reps.make_share", fam_share("reps.make"), "share")

    samples = family(agg, FAMILIES["oracle.sample"])[0]
    put("oracle.samples", _per_pass(samples, n), "count")
    put("oracle.samples_per_component", _share(samples / n, passes["sampled"]), "ratio")
    put("oracle.retries", _per_pass(counters.get("oracle.retries", 0), n), "count")
    put("oracle.sample_share", fam_share("oracle.sample"), "share")
    put("oracle.stat_share", fam_share("oracle.stat"), "share")
    put("oracle.certify_share", fam_share("oracle.certify"), "share")

    put("modules22.profile_solve_calls", fam_calls("modules22.profile_solve"), "count")
    put("modules22.profile_solve_share", fam_share("modules22.profile_solve"), "share")
    put("modules22.rank_profile_share", fam_share("modules22.rank_profile"), "share")
    put("modules22.generic_share", fam_share("modules22.generic"), "share")
    put("modules22.ext_setup_s", family(setup["agg"], FAMILIES["modules22.ext"])[1], "s")
    return out
