"""Per-layer tracing from outside the package.

A layer is a module of ``cubefree``.  ``Tracer.install`` wraps every public
function a layer defines, in every module namespace that bound it at import
(``search.is_cube_free``, ``cli.max_cube_free_exact``, ``verify``'s
``detection.*`` lookups and so on), so calls between layers pass through the
wrappers.  Spans are aggregated per (function, caller function): a count,
the inclusive time and the self time, which is the inclusive time less the
time of the child spans.  The stored state therefore stays bounded however
hot a function is.

``groups`` is not wrapped: ``shift_mask`` and ``mask_members`` run per
residue inside counting and detection, so a wrapper would cost more than
the work.  Their time lands in the self time of their callers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from importlib import import_module

LAYERS = ("sumsets", "construction", "detection", "counting", "oracle", "search",
          "verify", "cli")
ROOT = ("bench", "loop")


def _count_constraints(counters, result, bound):
    ctx, d = bound.arguments["ctx"], bound.arguments["d"]
    counters["constraints_kept"] += len(result)
    counters["multisets_enumerated"] += math.comb(ctx.modulus + d - 1, d)


def _count_bnb_nodes(counters, result, bound):
    if result.mode == "branch_and_bound":
        counters["bnb_nodes"] += result.explored


def _count_unions(counters, result, bound):
    counters["unions_examined"] += result.explored


def _count_collections(counters, result, bound):
    counters["collections_checked"] += result.checked


# counts read off the results of a few calls: (layer, function) -> observer
OBSERVERS = {
    ("search", "cube_constraint_masks"): _count_constraints,
    ("search", "max_cube_free_exact"): _count_bnb_nodes,
    ("search", "max_cube_free_layer_unions"): _count_unions,
    ("oracle", "verify_zero_sum_dichotomy"): _count_collections,
}


class Tracer:
    def __init__(self):
        self.active = False
        # ((layer, fn), (parent layer, parent fn)) -> [calls, inclusive s, self s]
        self.spans: dict[tuple, list] = {}
        self.counters = dict.fromkeys(
            ("constraints_kept", "multisets_enumerated", "bnb_nodes",
             "unions_examined", "collections_checked"), 0)
        self._stack = [[ROOT, 0.0]]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = import_module(f"cubefree.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(fn, (layer, name), OBSERVERS.get((layer, name)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "cubefree" and not module_name.startswith("cubefree."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, key, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                span = spans.get((key, parent[0]))
                if span is None:
                    span = spans[(key, parent[0])] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
            if observe is not None:
                observe(self.counters, result, signature.bind(*args, **kwargs))
            return result

        return traced

    def wrapper_cost(self, calls: int = 200_000) -> float:
        """Seconds a wrapper adds to one call, timed on a no-op function."""
        def noop():
            return None

        traced = self._wrap(noop, ("bench", "noop"), None)
        clock = time.perf_counter
        self.active = True
        start = clock()
        for _ in range(calls):
            traced()
        wrapped = clock() - start
        self.active = False
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        return max(wrapped - bare, 0.0) / calls

    def dump(self) -> dict:
        """JSON-able spans and counters, and the cost of one wrapper."""
        return {
            "spans": [[*key, *parent, *span] for (key, parent), span in self.spans.items()],
            "counters": dict(self.counters),
            "wrapper_cost_s": Tracer().wrapper_cost(),
        }


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer figures from one traced pass (see ``Tracer.dump``).

    A layer's calls and busy time count the calls entering it from another
    layer or from the benchmark loop; its self time sums the self time of
    all its functions.  ``search.constraints_s`` is the inclusive time of
    ``cube_constraint_masks`` (enumeration, with ``cube_mask`` inside it, and
    the dominance filter); ``search.bnb_s`` is the self time of
    ``max_cube_free_exact``, which is branch and bound plus incumbent set-up.
    ``trace.overhead_s`` is the wrapped call count times the measured cost
    of one wrapper.  Subtracting an untraced pass's wall time would not
    measure it: passes of the same inputs differ by up to a quarter in wall
    time on a shared 2-CPU host, more than the tracing costs.
    """
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    fn_calls: dict[str, int] = {}
    fn_incl: dict[str, float] = {}
    fn_busy: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    for layer, fn, parent_layer, _parent_fn, n, incl, own in dump["spans"]:
        name = f"{layer}.{fn}"
        self_s[layer] += own
        fn_calls[name] = fn_calls.get(name, 0) + n
        fn_incl[name] = fn_incl.get(name, 0.0) + incl
        fn_self[name] = fn_self.get(name, 0.0) + own
        if parent_layer != layer:
            calls[layer] += n
            busy[layer] += incl
            fn_busy[name] = fn_busy.get(name, 0.0) + incl
    c = dump["counters"]
    bnb_s = fn_self.get("search.max_cube_free_exact", 0.0)
    schur_s = fn_busy.get("counting.count_schur_triples", 0.0)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out.update({
        "search.constraints_s": fn_incl.get("search.cube_constraint_masks", 0.0),
        "search.constraints_kept": c["constraints_kept"],
        "search.constraints_kept_ratio": _ratio(c["constraints_kept"], c["multisets_enumerated"]),
        "search.bnb_s": bnb_s,
        "search.bnb_nodes": c["bnb_nodes"],
        "search.bnb_nodes_per_s": _ratio(c["bnb_nodes"], bnb_s),
        "search.union_calls": fn_calls.get("search.union_max_dimension", 0),
        "search.unions_examined": c["unions_examined"],
        "sumsets.cube_mask_calls": fn_calls.get("sumsets.cube_mask", 0),
        "counting.sets_per_s": _ratio(fn_calls.get("counting.count_schur_triples", 0), schur_s),
        "oracle.disjoint_s": fn_busy.get("oracle.max_disjoint_zero_sets", 0.0)
        + fn_busy.get("oracle.disjoint_zero_sets", 0.0),
        "oracle.dichotomy_s": fn_busy.get("oracle.verify_zero_sum_dichotomy", 0.0),
        "oracle.collections_checked": c["collections_checked"],
        "trace.wrapped_calls": sum(fn_calls.values()),
        "trace.overhead_s": sum(fn_calls.values()) * dump["wrapper_cost_s"],
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
