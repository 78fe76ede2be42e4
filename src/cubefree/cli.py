"""Command-line interface: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 for a clean run, 1 when a verification check found a
counterexample, 2 for usage or capacity errors and for any other failure,
which prints one ``error: <Type>: <message>`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from . import verify
from .construction import block_vector, construction_layers, layered_construction
from .counting import count_triples_by_layer, layer_profile, schur_lower_bound
from .detection import find_cube
from .errors import CapacityError, RangeError
from .groups import GroupContext, ResidueSet, layer_set
from .oracle import verify_zero_sum_dichotomy
from .search import (
    export_cnf,
    export_lp,
    max_cube_free_exact,
    max_cube_free_layer_unions,
    min_schur_exhaustive,
    validate_assignment,
)

STATUS_OK = "ok"
STATUS_COUNTEREXAMPLE = "counterexample"
STATUS_BUDGET = "budget_exceeded"

_INLINE_SET = re.compile(r"[0-9,\s-]*")


@dataclass
class RunReport:
    command: str
    parameters: dict[str, Any]
    result: Any
    status: str
    elapsed_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _parse_set(spec: str, ctx: GroupContext) -> ResidueSet:
    """Inline comma list, or a path to a JSON array of residues.

    A spec of digits, commas, minus signs and whitespace alone is an inline
    list; it is never looked up as a path, which may be too long to name.
    """
    if _INLINE_SET.fullmatch(spec) or not Path(spec).exists():
        members = [int(tok) for tok in spec.split(",") if tok.strip()]
    else:
        members = json.loads(Path(spec).read_text())
        if not isinstance(members, list):
            raise ValueError(f"{spec}: expected a JSON array of residues")
        for x in members:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{spec}: residues must be integers, got {x!r}")
    return ResidueSet.from_members(ctx, members)


def _cmd_construct(args, budget) -> tuple[Any, str]:
    ctx = GroupContext(args.n)
    built = layered_construction(args.d, ctx)
    vector = list(block_vector(args.d)) if args.d >= 2 else []
    return {
        "set": built.members(),
        "block_vector": vector,
        "layers": list(construction_layers(args.d)),
        "size": len(built),
    }, STATUS_OK


def _cmd_find_cube(args, budget) -> tuple[Any, str]:
    ctx = GroupContext(args.n)
    A = _parse_set(args.set, ctx)
    witness = find_cube(A, args.d)
    if witness is None:
        return {"found": False, "generators": None, "cube": None}, STATUS_OK
    return {
        "found": True,
        "generators": list(witness.generators.elements),
        "cube": witness.cube.members(),
    }, STATUS_OK


def _cmd_count_st(args, budget) -> tuple[Any, str]:
    ctx = GroupContext(args.n)
    A = _parse_set(args.set, ctx)
    table = count_triples_by_layer(A)
    by_layer = {
        str(a): {
            "sum_above": c.sum_above,
            "middle_above": c.middle_above,
            "first_above": c.first_above,
        }
        for a, c in table.items()
        if c.total
    }
    return {
        "st": sum(c.total for c in table.values()) + (A.mask & 1),
        "by_layer": by_layer,
        "f_lower_bound": schur_lower_bound(layer_profile(A), ctx),
    }, STATUS_OK


def _cmd_min_schur(args, budget) -> tuple[Any, str]:
    ctx = GroupContext(args.n)
    cert = min_schur_exhaustive(ctx, args.m, symmetry=args.symmetry,
                                combo_budget=budget)
    return {
        "mode": cert.mode,
        "minimum": cert.optimum,
        "witness": cert.witness.members(),
        "explored": cert.explored,
    }, STATUS_OK


def _cmd_max_search(args, budget) -> tuple[Any, str]:
    ctx = GroupContext(args.n)
    if args.mode in ("exact", "layers"):
        cert = (max_cube_free_exact(ctx, args.d, symmetry=args.symmetry, budget=budget)
                if args.mode == "exact"
                else max_cube_free_layer_unions(ctx, args.d, budget=budget))
        result = {"mode": cert.mode, "optimum": cert.optimum, "explored": cert.explored}
        if args.mode == "exact":
            result.update(witness=cert.witness.members(), constraints=cert.constraints)
        else:  # the union's layers name it; its members run to 2^(n-1) and more
            result["layers"] = [i for i in range(1, ctx.n + 1)
                                if cert.witness.mask & layer_set(i, ctx).mask]
        return result, STATUS_OK
    if args.mode == "lp":
        model = export_lp(ctx, args.d, patterns=args.patterns, budget=budget)
        return _emit_model(model, args), STATUS_OK
    if args.mode == "cnf":
        if args.target is None:
            raise ValueError("--target is required for --mode cnf")
        model = export_cnf(ctx, args.d, args.target, patterns=args.patterns,
                           budget=budget)
        return _emit_model(model, args), STATUS_OK
    if args.mode == "validate":
        if args.solution is None:
            raise ValueError("--solution is required for --mode validate")
        text = Path(args.solution).read_text()
        report = validate_assignment(ctx, args.d, text, patterns=args.patterns, budget=budget)
        return report, STATUS_OK
    raise ValueError(f"unknown mode {args.mode!r}")


def _emit_model(model: str, args) -> dict[str, Any]:
    if args.out:
        Path(args.out).write_text(model)
        return {"path": args.out, "bytes": len(model)}
    return {"model": model}


def _cmd_verify_lemma(args, budget) -> tuple[Any, str]:
    kwargs = {} if budget is None else {"budget": budget}
    report = verify_zero_sum_dichotomy(args.k, args.x, **kwargs)
    result = {
        "space_size": report.space_size,
        "checked": report.checked,
        "half_sum": report.half_sum_count,
        "disjoint_zero": report.disjoint_zero_count,
        "counterexamples": [list(c) for c in report.counterexamples],
    }
    status = STATUS_OK if report.ok else STATUS_COUNTEREXAMPLE
    return result, status


def _cmd_verify_claims(args, budget) -> tuple[Any, str]:
    names = args.checks.split(",") if args.checks else None
    results = verify.run_checks(level=args.level, seed=args.seed, names=names)
    payload = {
        "level": args.level,
        "seed": args.seed,
        "checks": [
            {
                "name": r.name,
                "ok": r.ok,
                "elapsed_ms": round(r.elapsed_ms, 1),
                "details": r.details,
                "failures": r.failures,
            }
            for r in sorted(results, key=lambda r: r.name)
        ],
    }
    status = STATUS_OK if all(r.ok for r in results) else STATUS_COUNTEREXAMPLE
    return payload, status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefree",
        description="Exact search and verification toolkit for projective-cube-free "
                    "subsets of Z_{2^n}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the layered cube-free construction")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("find-cube", help="find the smallest d-cube witness in a set")
    p.add_argument("--set", required=True, help="comma list of residues or JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("count-st", help="count Schur triples and the layer bound")
    p.add_argument("--set", required=True, help="comma list of residues or JSON file")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("min-schur", help="exhaustive minimum Schur-triple count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True, help="set size")
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("max-search", help="maximum cube-free set search / model export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "layers", "lp", "cnf", "validate"],
                   default="exact")
    p.add_argument("--target", type=int, default=None, help="cardinality for cnf mode")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--patterns", choices=["all", "degenerate"], default="all")
    p.add_argument("--out", default=None, help="write the model to a file")
    p.add_argument("--solution", default=None, help="assignment file for validate mode")

    p = sub.add_parser("verify-lemma", help="exhaust the zero-sum dichotomy")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify-claims", help="run the verification suite")
    p.add_argument("--level", choices=["smoke", "desk"], default="desk")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--checks", default=None, help="comma list of check names")
    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "find-cube": _cmd_find_cube,
    "count-st": _cmd_count_st,
    "min-schur": _cmd_min_schur,
    "max-search": _cmd_max_search,
    "verify-lemma": _cmd_verify_lemma,
    "verify-claims": _cmd_verify_claims,
}


def run(argv: list[str] | None = None) -> tuple[int, RunReport | None]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (int(exc.code or 0), None)
    start = time.perf_counter()
    parameters = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        result, status = _HANDLERS[args.command](args, getattr(args, "budget", None))
    except CapacityError as exc:
        report = RunReport(args.command, parameters,
                           {"error": str(exc), "space_size": exc.space_size},
                           STATUS_BUDGET, (time.perf_counter() - start) * 1000.0)
        return 2, report
    except (RangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2, None
    except Exception as exc:  # the CLI boundary: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2, None
    report = RunReport(args.command, parameters, result, status,
                       (time.perf_counter() - start) * 1000.0)
    exit_code = 0 if status == STATUS_OK else 1
    return exit_code, report


def main(argv: list[str] | None = None) -> int:
    code, report = run(argv)
    if report is not None:
        try:
            print(report.to_json(), flush=True)
        except BrokenPipeError:
            # the reader closed stdout early; send the exit-time flush to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
