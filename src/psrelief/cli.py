"""Command line front end.

Subcommands: solve (float iteration), oracle (integer-quantized iteration),
simulate (build and execute the membrane system), build (emit the generated
system as .psys), compare (percent-error statistics between two tables),
trace (engine run with the observer dump).

Exit status: 0 success, 1 non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from psrelief import builder, dsl, io as pio, relief, stats, trace as ptrace
from psrelief.engine import DETERMINISTIC, SEEDED_RANDOM, run


def _emit(args, payload_json: dict, matrix: np.ndarray,
          instance: relief.ReliefInstance | None = None) -> None:
    # the settings the run used; one the command does not take is null
    manifest = {
        "command": args.cmd,
        "instance_path": getattr(args, "instance", None),
        "variant": getattr(args, "variant", None),
        "p": getattr(args, "p", None),
        "tol": getattr(args, "tol", None),
        "max_iter": getattr(args, "max_iter", None),
        "timestamp": args.timestamp or datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if args.format == "json":
        doc = {"manifest": manifest, "result": payload_json}
        if instance is not None:
            doc["instance"] = instance.to_dict()
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        comments = [f"manifest: {json.dumps(manifest, sort_keys=True)}"]
        comments += [f"{k}: {v}" for k, v in sorted(payload_json.items())
                     if not isinstance(v, (list, dict))]
        text = pio.format_matrix_csv(matrix, comments)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_payload(report: relief.EquilibriumReport) -> dict:
    return {
        "q": report.q_star.tolist(),
        "lam": report.lam.tolist(),
        "lam1": report.lam1.tolist(),
        "lam2": report.lam2.tolist(),
        "iterations": report.iterations,
        "converged": report.converged,
        "variant": report.variant,
        "max_feasibility_residual": float(
            max(float(np.max(v)) if v.size else 0.0 for v in report.feasibility_residuals.values())
        ),
    }


def _check_max_iter(args) -> None:
    """Reject an iteration limit below 1 before the instance is read."""
    if args.max_iter < 1:
        raise ValueError("max_iter must be positive")


def cmd_solve(args) -> int:
    _check_max_iter(args)
    inst = pio.load_instance(args.instance)
    report = relief.solve(inst, variant=args.variant, tol=getattr(args, "tol", None),
                          max_iter=args.max_iter, p=getattr(args, "p", None))
    _emit(args, _report_payload(report), report.q_star, instance=inst)
    return 0 if report.converged else 1


def cmd_simulate(args) -> int:
    _check_max_iter(args)
    inst = pio.load_instance(args.instance)
    gen = builder.build(builder.BuildParams(instance=inst, p=args.p))
    result = ptrace.run_generated(gen, max_iterations=args.max_iter)
    if not result.halted:
        sys.stderr.write(
            f"simulation did not halt within {args.max_iter} iterations\n")
        return 1
    q = builder.decode_output(result.report.final, gen)
    payload = {
        "q": q.tolist(),
        "iterations": len(result.q_trajectory) - 1,
        "engine_steps": result.report.steps,
        "converged": True,
        "variant": "psystem",
    }
    _emit(args, payload, q, instance=inst)
    return 0


def cmd_build(args) -> int:
    inst = pio.load_instance(args.instance)
    gen = builder.build(builder.BuildParams(instance=inst, p=args.p))
    text = dsl.serialize(gen.definition)
    Path(args.emit).write_text(text, encoding="utf-8")
    sys.stdout.write(
        f"wrote {args.emit}: {len(gen.definition.parent)} membranes, "
        f"{len(gen.definition.rules)} rules, {len(gen.definition.priorities)} priority pairs\n")
    return 0


def cmd_compare(args) -> int:
    candidate = pio.load_matrix_csv(args.candidate)
    reference = pio.load_matrix_csv(args.reference)
    try:
        result = stats.compare(candidate, reference)
    except ValueError as exc:
        raise pio.InputError(str(exc)) from exc
    payload = {
        "average": result.average,
        "median": result.median,
        "max": result.max,
        "cells": result.scored_cells,
        "excluded_zero_reference": [list(c) for c in result.excluded_zero_reference],
        "per_cell": [[None if np.isnan(v) else v for v in row] for row in result.per_cell],
    }
    _emit(args, payload, result.per_cell)
    return 0


def cmd_trace(args) -> int:
    # every check before --out is opened and truncated
    if args.psys is not None and args.instance is not None:
        raise ValueError("trace takes --psys FILE or --instance FILE, not both")
    if args.p is not None and args.instance is None:
        raise ValueError("trace takes --p only with --instance FILE")
    if args.seed is not None and args.policy != SEEDED_RANDOM:
        raise ValueError(f"trace takes --seed only with --policy {SEEDED_RANDOM}")
    if args.max_steps < 1:
        raise ValueError("max_steps must be positive")
    if args.psys:
        parsed = dsl.parse(dsl.SourceDocument(text=pio.read_text(args.psys), origin=args.psys))
        if not parsed.ok:
            for diag in parsed.diagnostics:
                sys.stderr.write(f"{args.psys}:{diag}\n")
            return 2
        definition = parsed.definition
    else:
        if not args.instance or args.p is None:
            sys.stderr.write("trace needs --psys FILE or --instance FILE with --p\n")
            return 2
        inst = pio.load_instance(args.instance)
        definition = builder.build(builder.BuildParams(instance=inst, p=args.p)).definition
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = ptrace.TraceWriter(definition, out)
        report = run(definition, policy=args.policy, seed=args.seed or 0,
                     max_steps=args.max_steps, observer=writer)
    finally:
        if args.out:
            out.close()
    return 0 if report.halted else 1


def _add_export(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--timestamp", default=None,
                   help="manifest timestamp override (for reproducible exports)")


def _add_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--max-iter", type=int, default=100_000, dest="max_iter")
    _add_export(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psrelief", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="floating point projected iteration")
    _add_run(p)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--variant", choices=[relief.FULL, relief.SIMPLIFIED],
                   default=relief.SIMPLIFIED)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("oracle", help="integer-quantized iteration")
    _add_run(p)
    p.add_argument("--p", type=int, required=True, help="precision exponent (scale 10^p)")
    p.set_defaults(fn=cmd_solve, variant=relief.QUANTIZED)

    p = sub.add_parser("simulate", help="build and run the membrane system")
    _add_run(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=cmd_simulate, variant="psystem")

    p = sub.add_parser("build", help="emit the generated system as .psys")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--emit", required=True, help="output .psys path")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("compare", help="percent-error statistics of two tables")
    _add_export(p)
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("trace", help="engine run with observer dump")
    p.add_argument("--instance", help="instance JSON file")
    p.add_argument("--seed", type=int, default=None, help=f"seed of --policy {SEEDED_RANDOM} (default 0)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--psys", help="trace a .psys system instead of a built instance")
    p.add_argument("--max-steps", type=int, default=10_000, dest="max_steps")
    p.add_argument("--policy", choices=[DETERMINISTIC, SEEDED_RANDOM], default=DETERMINISTIC)
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
