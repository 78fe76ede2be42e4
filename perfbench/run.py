"""cubefree benchmark: one workload per run, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``, so
nothing needs building.  Workloads (see ``workloads.py``): layer-sweep,
frontier-search, verify-desk, cube-queries.

Every pass runs in a fresh, single-threaded worker process (``worker.py``):
one caller, closed loop, the seeded operations run once, and the answers
are checked after the timed loop.  A run makes as many passes as
``--seconds`` holds at the workload's typical pass time (at least one); the
count does not depend on the host's speed during the run.  Set-up is timed
from spawning a worker until it reports ready, on extra set-up-only workers
as well as on every pass.

With ``--trace 0`` the last stdout line reports setup_s (median over the
set-up samples), peak_rss_mb (median over the passes' workers) and wall_s:
the time of one pass with every operation at its fastest over the run's
passes.  With one pass that is the pass's wall time.  On a 2-vCPU Xeon VM
whose cores other guests share, a 40 ms loop ran anywhere from 36 to 67 ms,
and the mean over 15 s windows moved by 14% (interquartile range over
median) while the fastest sample in each window moved by 4%.  Operations of
a few milliseconds, as in cube-queries, thus get a contention-robust time
from a few passes; operations of seconds cannot, and report the pass as
timed.  With
``--trace 1`` every pass is traced and the line reports the per-layer
figures (``tracer.py``), averaged over the passes, with process.wait_s
(wall minus CPU time).  The line before it records the machine, the commit,
the seed, the sample counts, and the p50 and p90 latency of the operations
of all passes.  The latency percentiles are not end-to-end metrics: only
cube-queries has enough alike operations for them to be steady, and every
run must report every end-to-end metric.  Any failed or wrong operation
makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # set-up-only workers per run, after one warm-up
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cubefree" / "__init__.py").is_file():
        print(f"error: no cubefree package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        setup_s, passes = _measure(args, workloads.PASS_SECONDS[args.workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [f for p in passes for f in p["failures"]]
    op_ms = [t * 1000.0 for p in passes for t in p["op_s"]]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    if args.trace:
        layers = [tracer.layer_metrics(p["trace"]) for p in passes]
        metrics = {name: statistics.fmean(m[name] for m in layers) for name in layers[0]}
        metrics["trace.wall_s"] = statistics.fmean(p["wall_s"] for p in passes)
        metrics["trace.unattributed_s"] = metrics["trace.wall_s"] - sum(
            metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        metrics["process.wait_s"] = statistics.fmean(p["wall_s"] - p["cpu_s"] for p in passes)
        units = {name: _unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": sum(map(min, zip(*(p["op_s"] for p in passes)))),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples": len(setup_s),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "op_samples": len(op_ms),
        "op_samples_above_p90": sum(1 for t in op_ms if t > deciles[8]),
        "failures": failures[:10],
    }
    print(json.dumps({"record": record}))
    result = {
        # every pass runs the same inputs, so their answers must agree
        "correct": not failures and len({p["digest"] for p in passes}) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _measure(args, pass_seconds: float) -> tuple[list[float], list[dict]]:
    """Spawn set-up samples, then the run's passes."""
    count = max(1, round(args.seconds / pass_seconds))
    begin = time.perf_counter()
    setup_s: list[float] = []
    if not args.trace:
        _spawn(args, begin, setup_only=True)  # warm-up: writes the bytecode cache
        for _ in range(SETUP_SAMPLES):
            setup_s.append(_spawn(args, begin, setup_only=True)[0])
    passes: list[dict] = []
    for _ in range(count):
        setup, record = _spawn(args, begin, trace=bool(args.trace))
        setup_s.append(setup)
        passes.append(record)
    return setup_s, passes


def _spawn(args, begin: float, setup_only: bool = False, trace: bool = False):
    """Run one worker; return its set-up time and its pass record."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # set-up as users of an installed package see it: bytecode is cached
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    remaining = RUN_LIMIT_S - (time.perf_counter() - begin)
    if remaining <= 0:
        raise BenchError("out of time before the first pass ended")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with code {code}")
    if setup_only:
        return setup, None
    return setup, json.loads(out)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
