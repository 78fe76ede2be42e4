"""Self-test of the benchmark's answer checks and tracer.

    python3 perfbench/selftest.py

Run from the repository root (well under a minute).  It checks that

* a detector patched to give wrong answers, or to raise, makes operations
  fail instead of passing unnoticed;
* a traced pass reproduces the untraced pass's answers on every workload,
  the wrappers come off again, and the layers' self times add up to the
  traced wall time.

Each workload is cut to its cheap operations here; the timed runs use all
of them.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubefree import detection, search  # noqa: E402
from cubefree.groups import GeneratorMultiset, ResidueSet  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5
CHEAP_CHECKS = ("construction_table", "max_cube_free_d2", "multiple_run_threshold",
                "min_schur", "max_cube_free_d3", "full_collection_half_sum")


def cheap_ops(workload: str) -> list[workloads.Op]:
    ops = workloads.build(workload, SEED)
    if workload == "layer-sweep":
        return [op for op in ops if int(op.label.split("n=")[1].split()[0]) <= 8]
    if workload == "frontier-search":
        return [op for op in ops if "n=5 d=4" in op.label]
    if workload == "verify-desk":
        return [op for op in ops if op.label.split()[-1] in CHEAP_CHECKS]
    return ops[:200]


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def test_wrong_detector_fails_ops() -> None:
    ops = cheap_ops("cube-queries")
    clean = workloads.run_ops(ops)
    expect(not clean.failures, f"{len(ops)} cube queries pass with the real detector")
    real_free, real_find = detection.is_cube_free, detection.find_cube

    def wrong_free(A, d, scale_invariant=False):
        return not real_free(A, d, scale_invariant)

    def raising_find(A, d):
        raise RuntimeError("injected fault")

    detection.is_cube_free, detection.find_cube = wrong_free, raising_find
    try:
        broken = workloads.run_ops(ops)
    finally:
        detection.is_cube_free, detection.find_cube = real_free, real_find
    expect(len(broken.failures) == len(ops),
           f"a negated is_cube_free and a raising find_cube fail all {len(ops)} ops")

    def forged_find(A, d):
        # d copies of a residue outside A: their cube is not inside A
        outside = A.complement().members()[0]
        gens = GeneratorMultiset.of(A.ctx, (outside,) * d)
        return detection.CubeWitness(gens, ResidueSet(A.ctx, 1 << outside))

    detection.find_cube = forged_find
    try:
        forged = workloads.run_ops(ops)
    finally:
        detection.find_cube = real_find
    finds = sum(1 for op in ops if op.label.startswith("find_cube"))
    expect(len(forged.failures) == finds,
           f"a find_cube returning forged witnesses fails all {finds} find_cube ops")


def test_trace_reproduces_answers() -> None:
    real_free = detection.is_cube_free
    for workload in workloads.WORKLOADS:
        ops = cheap_ops(workload)
        detection.clear_detection_cache()
        plain = workloads.run_ops(ops)
        detection.clear_detection_cache()
        t = tracer.Tracer()
        t.install()
        try:
            expect(getattr(search.is_cube_free, "__wrapped__", None) is real_free,
                   f"{workload}: wrappers installed")
            traced = workloads.run_ops(ops, t)
        finally:
            t.uninstall()
        expect(not plain.failures and not traced.failures, f"{workload}: {len(ops)} ops pass")
        expect(traced.summaries == plain.summaries,
               f"{workload}: traced answers equal untraced ones")
        expect(search.is_cube_free is real_free and detection.is_cube_free is real_free,
               f"{workload}: wrappers removed")
        metrics = tracer.layer_metrics(t.dump())
        attributed = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        expect(0 <= traced.wall_s - attributed < 0.02 * traced.wall_s + 0.01,
               f"{workload}: layer self times {attributed:.3f} s of traced wall "
               f"{traced.wall_s:.3f} s")


def main() -> int:
    test_wrong_detector_fails_ops()
    test_trace_reproduces_answers()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
