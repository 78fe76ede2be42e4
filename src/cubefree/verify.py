"""Verification harness: every acceptance check, runnable at two scales.

Each check replays one exactly-stated claim about the package's subject
matter (construction tables, extremal values, threshold statements,
zero-sum dichotomies, compression laws, counting bounds) against
independent computation: brute-force enumeration, exhaustive sweeps, or
frozen expected values.  ``desk`` runs the full stated ranges; ``smoke``
shrinks them to a few seconds total.

Checks look functions up through their modules so that fault-injection
tests (and future instrumentation) can monkeypatch the implementations.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement

from . import construction, counting, detection, oracle, search
from .groups import GroupContext, ResidueSet, centred_set, layer_range_set, shift_mask, subset_sums

DEFAULT_SEED = 20260810

TABLE_ROWS = {
    2: (1,),
    3: (1, 3),
    4: (1, 2),
    5: (1, 2, 4),
    6: (1, 2, 4, 6),
    7: (1, 2, 4, 5),
    8: (1, 2, 3),
    9: (1, 2, 3, 5),
    26: (1, 2, 3, 4, 6, 7, 8, 10, 11),
}


@dataclass
class CheckResult:
    name: str
    ok: bool
    elapsed_ms: float
    details: str
    failures: list[str] = field(default_factory=list)


def _result(name: str, start: float, failures: list[str], details: str) -> CheckResult:
    return CheckResult(
        name=name,
        ok=not failures,
        elapsed_ms=(time.perf_counter() - start) * 1000.0,
        details=details,
        failures=failures[:20],
    )


def _naive_contains_cube(A: ResidueSet, d: int) -> bool:
    """Test oracle: generator multisets drawn from A, walked without ``detection``.

    A prefix's cube lies in every extension's cube, so one leaving A is not extended.
    """
    outside = ~A.mask
    ctx = A.ctx
    members = A.members()
    stack = [(0, 0, 0)]  # (generators so far, index of the last one, their cube)
    while stack:
        depth, start, cm = stack.pop()
        if depth == d:
            return True
        for i, a in enumerate(members[start:], start):
            grown = cm | shift_mask(cm, a, ctx) | 1 << a
            if not grown & outside:
                stack.append((depth + 1, i, grown))
    return False


def check_construction_table(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    ctx = GroupContext(12)
    failures = []
    for d, layers in TABLE_ROWS.items():
        built = construction.layered_construction(d, ctx)
        expected = ResidueSet.empty(ctx)
        for i in layers:
            expected = expected | layer_range_set(i, i, ctx)
        if built.mask != expected.mask:
            failures.append(f"d={d}: construction differs from the tabled layers {layers}")
        if construction.construction_layers(d) != layers:
            failures.append(f"d={d}: layer indices {construction.construction_layers(d)}")
    if construction.block_vector(26) != (5, 4, 3):
        failures.append("block vector of d=26")
    return _result("construction_table", start, failures,
                   f"{len(TABLE_ROWS)} tabled rows compared at n=12")


def check_max_cube_free_d2(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    cases = [(3, 4)] if level == "smoke" else [(3, 4), (4, 8)]
    for n, expected in cases:
        cert = search.max_cube_free_exact(GroupContext(n), 2)
        if cert.optimum != expected:
            failures.append(f"n={n}: optimum {cert.optimum} != {expected}")
    return _result("max_cube_free_d2", start, failures,
                   f"exhaustive 2-cube-free maxima at n in {[c[0] for c in cases]}")


def _dense_sets(n: int, threshold: int):
    size = 1 << n
    for m in range(threshold + 1, size + 1):
        yield from combinations(range(size), m)


def check_homogeneous_threshold(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    exhaustive = [(3, 1)] if level == "smoke" else [(3, 1), (4, 1), (4, 2)]
    checked = 0
    for n, ell in exhaustive:
        ctx = GroupContext(n)
        threshold = (1 - 2 ** -ell) * ctx.modulus
        for members in _dense_sets(n, int(threshold)):
            A = ResidueSet.from_members(ctx, members)
            checked += 1
            if detection.find_homogeneous_cube(A, ell) is None:
                failures.append(f"n={n} ell={ell} A={list(members)}")
    samples = 1000 if level == "smoke" else 10000
    ctx = GroupContext(5)
    threshold = int((1 - 2 ** -2) * 32)  # 24
    universe = list(range(32))
    for _ in range(samples):
        m = rng.randint(threshold + 1, 32)
        A = ResidueSet.from_members(ctx, rng.sample(universe, m))
        checked += 1
        if detection.find_homogeneous_cube(A, 2) is None:
            failures.append(f"n=5 ell=2 A={A.members()}")
    return _result("homogeneous_threshold", start, failures,
                   f"{checked} dense sets all contain a homogeneous cube")


def check_multiple_run_threshold(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    checked = 0
    top_n = 3 if level == "smoke" else 4
    for n in range(1, top_n + 1):
        ctx = GroupContext(n)
        size = ctx.modulus
        for ell in (1, 2):
            m = (1 << ell) - 1
            threshold = (1 - 1 / m) * size if m > 1 else 0
            if ell == 1:
                # every nonempty set admits a length-1 run
                for mask in range(1, 1 << size):
                    checked += 1
                    if detection.find_multiple_run(ResidueSet(ctx, mask), 1) is None:
                        failures.append(f"n={n} ell=1 mask={mask}")
            else:
                for members in _dense_sets(n, int(threshold)):
                    A = ResidueSet.from_members(ctx, members)
                    checked += 1
                    if detection.find_multiple_run(A, m) is None:
                        failures.append(f"n={n} ell={ell} A={list(members)}")
    return _result("multiple_run_threshold", start, failures,
                   f"{checked} dense sets all contain a multiple run")


def _construction_failures(d: int, ctx: GroupContext) -> list[str]:
    """Why the d-construction of ``ctx`` is not d-cube-free and maximal ([] if it is).

    Odd scaling fixes a union of layers and maps x = 2^v u, u odd, onto 2^v,
    so 0 and 2^(i-1) for each missing layer L_i stand for the complement.
    """
    cd = construction.layered_construction(d, ctx)
    if not detection.is_cube_free(cd, d):
        return [f"d={d} n={ctx.n}: construction contains a {d}-cube"]
    return [f"d={d} n={ctx.n}: adding {r} stays {d}-cube-free"
            for r in (0, *(1 << v for v in range(ctx.n)))
            if r not in cd and detection.is_cube_free(cd.with_member(r), d)]


def check_construction_free_and_maximal(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    max_d, max_n = (3, 5) if level == "smoke" else (5, 7)
    cases = 0
    for d in range(1, max_d + 1):
        layers = construction.construction_layers(d)
        for n in range(max(layers, default=1), max_n + 1):
            cases += 1
            failures += _construction_failures(d, GroupContext(n))
    return _result("construction_free_and_maximal", start, failures,
                   f"{cases} (d, n) pairs: cube-free and maximal")


def check_layer_union_optimum(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    top_n = 6 if level == "smoke" else 10
    runs = 0
    for n in range(1, top_n + 1):
        ctx = GroupContext(n)
        for d in range(1, n + 1):
            cert = search.max_cube_free_layer_unions(ctx, d)
            expected = construction.construction_size(d, ctx)
            runs += 1
            if cert.optimum != expected:
                failures.append(f"n={n} d={d}: optimum {cert.optimum} != {expected}")
    return _result("layer_union_optimum", start, failures,
                   f"{runs} (n, d) layer-union optima")


def check_min_schur(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    cases = [(3, 5, 12, 56)] if level == "smoke" else \
        [(3, 5, 12, 56), (4, 9, 24, 11440)]
    for n, m, expected, space in cases:
        ctx = GroupContext(n)
        cert = search.min_schur_exhaustive(ctx, m)
        if cert.optimum != expected:
            failures.append(f"n={n} M={m}: minimum {cert.optimum} != {expected}")
        if cert.explored != space:
            failures.append(f"n={n} M={m}: swept {cert.explored} sets, not {space}")
        centred = centred_set(m, ctx)
        if counting.count_schur_triples(centred) != expected:
            failures.append(f"n={n} M={m}: centred set misses the minimum")
    return _result("min_schur", start, failures,
                   f"exhaustive minima over sets of size 2^(n-1)+1 at n in {[c[0] for c in cases]}")


def check_max_cube_free_d3(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    cases = [(3, 5), (4, 10)] if level == "smoke" else [(3, 5), (4, 10), (5, 20)]
    for n, expected in cases:
        cert = search.max_cube_free_exact(GroupContext(n), 3, symmetry=(n >= 5))
        if cert.optimum != expected:
            failures.append(f"n={n}: optimum {cert.optimum} != {expected}")
    return _result("max_cube_free_d3", start, failures,
                   f"3-cube-free maxima at n in {[c[0] for c in cases]} equal 5/8 of the group")


def check_zero_sum_dichotomy(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    cases = [(1, 0), (1, 1), (2, 0), (2, 1)] if level == "smoke" else \
        [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
    checked = 0
    for k, x in cases:
        report = oracle.verify_zero_sum_dichotomy(k, x)
        checked += report.checked
        if report.counterexamples:
            failures.append(f"k={k} x={x}: {report.counterexamples[0]}")
    return _result("zero_sum_dichotomy", start, failures,
                   f"{checked} collections, all split into half-sum or disjoint zero parts")


def check_full_collection_half_sum(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    k = 2
    size = 1 << (k + 1)
    target = 1 << (1 << k)
    checked = 0
    for combo in combinations_with_replacement(range(1, size), size - 1):
        checked += 1
        if not subset_sums(combo, size) & target:
            failures.append(f"collection {combo}")
    return _result("full_collection_half_sum", start, failures,
                   f"{checked} collections of size 2^(k+1)-1 at k=2 all reach the half sum")


def _random_no_half_sum_collection(k: int, rng: random.Random) -> oracle.ResidueCollection | None:
    mod = 1 << (k + 1)
    half = 1 << k
    units = rng.randint(1, half - 1)
    items = []
    for _ in range(units):
        items.append(1 if rng.random() < 0.7 else mod - 1)
    palette = [2, 3, mod - 2, mod - 3, half - 1, half - 2, mod - (half - 1) % mod,
               half + 1, half + 2]
    for _ in range(rng.randint(0, 3)):
        items.append(palette[rng.randrange(len(palette))] % mod or 1)
    if subset_sums(items, mod) >> half & 1:
        return None
    return oracle.ResidueCollection.of(k, items)


def _compression_sites(C: oracle.ResidueCollection) -> list[tuple[str, dict[str, int]]]:
    """(kind, site) pairs; a site holds the keyword arguments of ``oracle.compress``."""
    mod = C.modulus
    half = C.half
    counts = [0] * mod
    for e in C.elements:
        counts[e] += 1
    units = counts[1] + counts[mod - 1]
    sites = []
    for t in set(C.elements):
        at = min(t, mod - t)
        if 1 < at <= units + 1:
            sites.append(("type1", {"t": t}))
    for t in range(1, mod):
        if counts[mod - t] and counts[(half - t) % mod] >= 2:
            sites.append(("type2", {"t": t}))
    if C.k >= 2 and units >= half // 2:
        lo, hi = 3 * (1 << (C.k - 2)), half - 1
        in_range = sorted({e for e in C.elements if lo <= e <= hi})
        for i, u in enumerate(in_range):
            for v in in_range[i:]:
                if u == v and counts[u] < 2:
                    continue
                sites.append(("type3", {"u": u, "v": v}))
    return sites


def check_compression_properties(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    target_sites = 1000 if level == "smoke" else 10000
    transfer_every = 10 if level == "smoke" else 5
    checked = 0
    transfers = 0
    while checked < target_sites:
        k = rng.choice((2, 2, 3, 3, 4))
        C = _random_no_half_sum_collection(k, rng)
        if C is None:
            continue
        sites = _compression_sites(C)
        if not sites:
            continue
        kind, site = sites[rng.randrange(len(sites))]
        out = oracle.compress(C, kind, **site)
        checked += 1
        before = C.sumset_mask()
        after = out.sumset_mask()
        if kind == "type1" and after != before:
            failures.append(f"type1 changed the sumset: {C.elements} at {site}")
        if kind in ("type2", "type3") and after & ~before:
            failures.append(f"{kind} enlarged the sumset: {C.elements} at {site}")
        if k <= 3 and checked % transfer_every == 0 and len(out.elements) <= 16:
            transfers += 1
            m_out = oracle.max_disjoint_zero_sets(out)
            m_in = oracle.max_disjoint_zero_sets(C)
            if kind == "type1":
                shift = min(site["t"], C.modulus - site["t"]) - 1
                if m_in < m_out - shift:
                    failures.append(f"type1 transfer: {C.elements} at {site}")
            elif m_in < m_out:
                failures.append(f"{kind} transfer: {C.elements} at {site}")
    return _result("compression_properties", start, failures,
                   f"{checked} random valid sites checked, {transfers} with zero-part transfer")


def check_detector_vs_enumeration(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    checked = 0
    ctx = GroupContext(3)
    for mask in range(1 << 8):
        A = ResidueSet(ctx, mask)
        for d in (1, 2, 3):
            checked += 1
            witness = detection.find_cube(A, d)
            if (witness is not None) != _naive_contains_cube(A, d):
                failures.append(f"n=3 mask={mask} d={d}")
    if level != "smoke":
        ctx = GroupContext(5)
        for _ in range(1000):
            A = ResidueSet(ctx, rng.getrandbits(32))
            for d in (1, 2, 3, 4):
                checked += 1
                witness = detection.find_cube(A, d)
                if (witness is not None) != _naive_contains_cube(A, d):
                    failures.append(f"n=5 mask={A.mask} d={d}")
    return _result("detector_vs_enumeration", start, failures,
                   f"{checked} (set, d) cases agree with multiset enumeration")


def check_schur_lower_bound(level: str, rng: random.Random) -> CheckResult:
    start = time.perf_counter()
    failures = []
    checked = 0
    top_n = 3 if level == "smoke" else 4
    for n in range(1, top_n + 1):
        ctx = GroupContext(n)
        for mask in range(1 << ctx.modulus):
            A = ResidueSet(ctx, mask)
            checked += 1
            st = counting.count_schur_triples(A)
            bound = counting.schur_lower_bound(counting.layer_profile(A), ctx)
            if st < bound:
                failures.append(f"n={n} mask={mask}: ST={st} < bound={bound}")
    ctx = GroupContext(8)
    samples = 1000 if level == "smoke" else 100000
    for _ in range(samples):
        A = ResidueSet(ctx, rng.getrandbits(256))
        checked += 1
        st = counting.count_schur_triples(A)
        bound = counting.schur_lower_bound(counting.layer_profile(A), ctx)
        if st < bound:
            failures.append(f"n=8 mask={A.mask}: ST={st} < bound={bound}")
    return _result("schur_lower_bound", start, failures,
                   f"{checked} sets satisfy ST >= profile bound")


CHECKS = {
    "construction_table": check_construction_table,
    "max_cube_free_d2": check_max_cube_free_d2,
    "homogeneous_threshold": check_homogeneous_threshold,
    "multiple_run_threshold": check_multiple_run_threshold,
    "construction_free_and_maximal": check_construction_free_and_maximal,
    "layer_union_optimum": check_layer_union_optimum,
    "min_schur": check_min_schur,
    "max_cube_free_d3": check_max_cube_free_d3,
    "zero_sum_dichotomy": check_zero_sum_dichotomy,
    "full_collection_half_sum": check_full_collection_half_sum,
    "compression_properties": check_compression_properties,
    "detector_vs_enumeration": check_detector_vs_enumeration,
    "schur_lower_bound": check_schur_lower_bound,
}


def run_checks(level: str = "desk", seed: int = DEFAULT_SEED,
               names: list[str] | None = None) -> list[CheckResult]:
    if level not in ("smoke", "desk"):
        raise ValueError(f"unknown level {level!r}")
    selected = list(CHECKS) if names is None else names
    unknown = [n for n in selected if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    results = []
    for name in selected:
        rng = random.Random(seed)
        results.append(CHECKS[name](level, rng))
    return results
