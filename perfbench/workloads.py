"""The benchmark's workloads: seeded inputs, the timed calls and their answer checks.

Each workload is a fixed list of operations built from the seed before any
timing starts, so the program under test receives only the generated
inputs.  An operation carries the call to time and a check that runs after
the timed loop: the check compares the answer with truth known without the
engine under test and re-checks every witness against the real predicate
(``cube_mask`` containment or ``is_cube_free``).  It returns a JSON summary
of the answer, which the traced and untraced passes must reproduce exactly.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from cubefree import cli, construction, detection, search, verify
from cubefree.groups import GroupContext, ResidueSet, layer_set
from cubefree.sumsets import cube_mask

WORKLOADS = ("layer-sweep", "frontier-search", "verify-desk", "cube-queries")

# typical seconds per pass on a 2-vCPU Xeon VM; a run makes
# max(1, round(--seconds / PASS_SECONDS)) passes, so the pass count, which
# decides how many samples each operation's fastest time is taken over,
# never depends on how fast the host happened to be
PASS_SECONDS = {"layer-sweep": 25, "frontier-search": 15, "verify-desk": 25,
                "cube-queries": 6}

# max-search --symmetry instances and their proved optima
FRONTIER = ((6, 3, 40), (5, 4, 24), (5, 5, 26))

# cube-queries: cube-free proofs are asked only where they take milliseconds;
# at (7, 4) and (8, 4) the construction sits in layers 1-2, where the
# zero-sum cap answers at once, so those groups get cube-found queries only.
FREE_GROUPS = ((6, 5), (8, 3))
CUBE_GROUPS = ((6, 5), (7, 4), (8, 3), (8, 4))
QUERY_BLOCKS = 150  # each block: 6 cube-free queries and 2 cube-found ones
DENSITY_RANGE = (0.55, 0.9)  # kept share of the construction in cube-free queries


class WrongAnswer(Exception):
    """An operation's answer disagrees with the known truth."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]  # raises WrongAnswer; returns a JSON summary


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    op_s: list[float]
    summaries: list[Any]
    failures: list[str]


def run_ops(ops: list[Op], tracer=None) -> PassResult:
    """Run the operations in a closed loop, then check every answer untimed."""
    answers: list[Any] = []
    op_s: list[float] = []
    if tracer is not None:
        tracer.active = True
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        try:
            answer = op.call()
        except Exception as exc:  # counted as a failed operation below
            answer = exc
        op_s.append(time.perf_counter() - start)
        answers.append(answer)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.active = False
    summaries: list[Any] = []
    failures: list[str] = []
    for op, answer in zip(ops, answers):
        if isinstance(answer, Exception):
            summaries.append(["raised", type(answer).__name__, str(answer)])
            failures.append(f"{op.label}: raised {type(answer).__name__}: {answer}")
            continue
        try:
            summaries.append(op.check(answer))
        except WrongAnswer as exc:
            summaries.append(["wrong", str(exc)])
            failures.append(f"{op.label}: {exc}")
    return PassResult(wall, cpu, op_s, summaries, failures)


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed)


def _layer_sweep(seed: int) -> list[Op]:
    """Every sweep 1 <= d <= n <= 10 in a fixed order from a cold memo.

    The seed does not change the inputs: the order decides how much of the
    shared detection memo each sweep reuses, so it stays fixed.
    """
    ops = []
    for n in range(1, 11):
        ctx = GroupContext(n)
        for d in range(1, n + 1):
            ops.append(Op(f"layer-sweep n={n} d={d}",
                          _bind(search.max_cube_free_layer_unions, ctx, d),
                          _layer_check(ctx, d)))
    return ops


def _layer_check(ctx: GroupContext, d: int):
    def check(cert):
        expected = construction.construction_size(d, ctx)
        if cert.optimum != expected:
            raise WrongAnswer(f"optimum {cert.optimum} != construction size {expected}")
        if len(cert.witness) != cert.optimum:
            raise WrongAnswer("witness size differs from the optimum")
        layers = [i for i in range(1, ctx.n + 2) if cert.witness.mask & layer_set(i, ctx).mask]
        if sum(len(layer_set(i, ctx)) for i in layers) != cert.optimum:
            raise WrongAnswer("witness is not a union of layers")
        # a union with top layer L_t has the same cubes in Z_{2^t} as in Z_{2^n}
        # (see search.union_max_dimension); checking there reuses the sweep's memo
        small = GroupContext(max(layers)) if layers and max(layers) <= ctx.n else ctx
        union = ResidueSet.empty(small)
        for i in layers:
            union = union | layer_set(i, small)
        if not detection.is_cube_free(union, d, scale_invariant=True):
            raise WrongAnswer("witness contains a cube")
        return [cert.optimum, cert.witness.mask, cert.explored]
    return check


def _frontier_search(seed: int) -> list[Op]:
    """The three max-search instances through the CLI.

    The seed does not change the inputs: the order of the instances moved
    the worker's peak memory by 2%, so it stays fixed.
    """
    return [
        Op(f"max-search n={n} d={d}",
           _bind(cli.run, ["max-search", "--n", str(n), "--d", str(d), "--symmetry"]),
           _frontier_check(n, d, optimum))
        for n, d, optimum in FRONTIER
    ]


def _frontier_check(n: int, d: int, optimum: int):
    ctx = GroupContext(n)

    def check(outcome):
        code, report = outcome
        if code != 0 or report is None or report.status != cli.STATUS_OK:
            raise WrongAnswer(f"exit code {code}")
        result = report.result
        if result["optimum"] != optimum:
            raise WrongAnswer(f"optimum {result['optimum']} != {optimum}")
        witness = ResidueSet.from_members(ctx, result["witness"])
        if len(witness) != optimum or not detection.is_cube_free(witness, d):
            raise WrongAnswer("witness is not a cube-free set of the optimum's size")
        return [code, result["optimum"], result["explored"], witness.mask]
    return check


def _verify_desk(seed: int) -> list[Op]:
    """Each desk check but layer_union_optimum (that is layer-sweep).

    The checks get the suite's default seed, as in the tier-1 tests and a
    plain ``verify-claims``, not the workload seed: the work of
    compression_properties depends on its seed, and its time varied fourfold
    (7 s to 29 s) over six seeds, far more than any bound on wall time.
    """
    return [
        Op(f"verify-claims {name}",
           _bind(cli.run, ["verify-claims", "--level", "desk",
                           "--seed", str(verify.DEFAULT_SEED), "--checks", name]),
           _verify_check(name))
        for name in verify.CHECKS
        if name != "layer_union_optimum"
    ]


def _verify_check(name: str):
    def check(outcome):
        code, report = outcome
        if report is None:
            raise WrongAnswer(f"exit code {code} without a report")
        [entry] = report.result["checks"]
        if code != 0 or entry["name"] != name or not entry["ok"]:
            raise WrongAnswer(f"exit code {code}, failures {entry['failures'][:3]}")
        return [code, entry["name"], entry["details"]]
    return check


def _cube_queries(seed: int) -> list[Op]:
    """One-shot find_cube / is_cube_free queries with known answers.

    Odd-scaled random subsets of the layered construction are cube-free.
    The full construction plus one outside residue contains a cube, since
    the construction is maximal in these groups.  The counts per group,
    density band and query kind are fixed; the seed picks the sets, the
    scalings and the order.
    """
    rng = random.Random(seed)
    queries = []  # (n, d, member list, expect_free)
    per_group = 6 * QUERY_BLOCKS // len(FREE_GROUPS)
    lo, hi = DENSITY_RANGE
    for n, d in FREE_GROUPS:
        members = _construction_members(n, d)
        for k in range(per_group):
            keep = lo + (hi - lo) * (k + rng.random()) / per_group
            lam = rng.randrange(1, 1 << n, 2)
            queries.append((n, d, [lam * x for x in members if rng.random() < keep], True))
    per_group = 2 * QUERY_BLOCKS // len(CUBE_GROUPS)
    for n, d in CUBE_GROUPS:
        members = _construction_members(n, d)
        outside = ResidueSet.from_members(GroupContext(n), members).complement().members()
        for _ in range(per_group):
            lam = rng.randrange(1, 1 << n, 2)
            extra = rng.choice(outside)
            queries.append((n, d, [lam * x for x in members + [extra]], False))
    rng.shuffle(queries)
    ops = []
    for i, (n, d, members, expect_free) in enumerate(queries):
        A = ResidueSet.from_members(GroupContext(n), members)
        kind = "free" if expect_free else "cube"
        if i % 2:
            ops.append(Op(f"is_cube_free n={n} d={d} ({kind}) mask={A.mask:#x}",
                          _bind(detection.is_cube_free, A, d), _free_check(expect_free)))
        else:
            ops.append(Op(f"find_cube n={n} d={d} ({kind}) mask={A.mask:#x}",
                          _bind(detection.find_cube, A, d), _find_check(A, d, expect_free)))
    return ops


def _construction_members(n: int, d: int) -> list[int]:
    return construction.layered_construction(d, GroupContext(n)).members()


def _free_check(expect_free: bool):
    def check(answer):
        if answer is not expect_free:
            raise WrongAnswer(f"is_cube_free returned {answer!r}, expected {expect_free}")
        return answer
    return check


def _find_check(A: ResidueSet, d: int, expect_free: bool):
    def check(witness):
        if witness is None:
            if expect_free:
                return None
            raise WrongAnswer("no cube found in a set that contains one")
        if expect_free:
            raise WrongAnswer("a cube was reported in a cube-free set")
        gens = witness.generators.elements
        if len(gens) != d or cube_mask(gens, A.ctx) & ~A.mask:
            raise WrongAnswer(f"witness {gens} is not a {d}-cube inside the set")
        return list(gens)
    return check


def _bind(fn, *args):
    # look the function up at call time, so a patched module attribute is used
    module = sys.modules[fn.__module__]
    name = fn.__name__
    return lambda: getattr(module, name)(*args)


_BUILDERS = {
    "layer-sweep": _layer_sweep,
    "frontier-search": _frontier_search,
    "verify-desk": _verify_desk,
    "cube-queries": _cube_queries,
}
