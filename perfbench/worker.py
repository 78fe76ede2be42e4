"""One workload pass in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Run from the repository root with ``src`` on ``PYTHONPATH``.  The process
imports ``cubefree``, builds the seeded inputs and prints ``ready``; that
point ends set-up.  It then runs the operations once in a closed loop,
checks the answers untimed and prints one JSON line with the pass results.
With ``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys

import workloads  # imports cubefree, which is part of set-up


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = workloads.run_ops(ops, tracer)
    digest = hashlib.sha256(json.dumps(result.summaries).encode()).hexdigest()
    record = {
        "wall_s": result.wall_s,
        "cpu_s": result.cpu_s,
        "op_s": result.op_s,
        "attempted": len(ops),
        "failures": result.failures,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
