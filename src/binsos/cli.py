"""Batch command line interface.

Subcommands: ``run`` one execution and write its trace, ``replay`` a trace
file, ``check`` one (algorithm, n, t, timing) cell, ``table`` the whole
characterization matrix, ``witness`` a crash-schedule counterexample, and
``conditions`` the machine-readable condition table.  Each job has one
subcommand: only ``replay`` re-executes a trace, only ``conditions`` writes
the condition table.

Exit codes partition outcomes: 0 success, 1 verdict failure, 2 usage or
precondition rejection, 3 completeness not witnessed within budget, 4
horizon exhaustion.  The BINSOS_BUDGET environment variable overrides the
sampled-run budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import checker
from .algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from .outputsets import SystemConfig, Timing, condition_table, line_members
from .patterns import NO_CRASHES, SYNC_CANONICAL, DelayPattern, FailurePattern
from .program import SeededChoices
from .simkernel import (
    HORIZON,
    ExecutionTrace,
    PreconditionError,
    replay,
    run,
)

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_HORIZON = 4

_ALG_ALIASES = {
    "all_output": AlgorithmKind.ALL_OUTPUT,
    "single_output": AlgorithmKind.SINGLE_OUTPUT,
    "timing_adaptive": AlgorithmKind.TIMING_ADAPTIVE,
    "async_disagreement": AlgorithmKind.ASYNC_DISAGREEMENT,
    "sync_disagreement": AlgorithmKind.SYNC_DISAGREEMENT,
    "sync_consensus": AlgorithmKind.SYNC_CONSENSUS,
    # Short numbered aliases, in presentation order of the algorithms.
    "alg1": AlgorithmKind.ASYNC_DISAGREEMENT,
    "alg2": AlgorithmKind.SYNC_DISAGREEMENT,
    "alg3": AlgorithmKind.ALL_OUTPUT,
    "alg4": AlgorithmKind.SINGLE_OUTPUT,
    "alg5": AlgorithmKind.TIMING_ADAPTIVE,
    "alg6": AlgorithmKind.SYNC_CONSENSUS,
}

_VALUE_TOKENS = {"0": 0, "1": 1, "bot": None, "none": None, "null": None, "⊥": None}
_PARAM_NAMES = ("no_out", "default_value", "values")


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PRECONDITION):
        super().__init__(message)
        self.code = code


def _parse_params(text: Optional[str]) -> Dict[str, object]:
    """Parse ``k=v,k=v`` or JSON parameter strings."""
    if not text:
        return {}
    text = text.strip()
    if text.startswith("{"):
        params = json.loads(text)
        unknown = sorted(set(params) - set(_PARAM_NAMES))
        if unknown:
            raise CliError(f"unknown parameter {unknown[0]!r}")
        return params
    params: Dict[str, object] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        key, _, raw = part.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in ("no_out",):
            params[key] = raw.lower() in ("1", "true", "yes")
        elif key in ("v", "default_value"):
            params["default_value"] = int(raw)
        elif key in ("V", "values"):
            tokens = [tok for tok in raw.split("|") if tok]
            unknown = [tok for tok in tokens if tok.lower() not in _VALUE_TOKENS]
            if unknown:
                raise CliError(f"parameter {key}: unknown value {unknown[0]!r}")
            params["values"] = tuple(_VALUE_TOKENS[tok.lower()] for tok in tokens)
        else:
            raise CliError(f"unknown parameter {key!r}")
    return params


def _load_literal(text: Optional[str]) -> Optional[dict]:
    """A JSON literal or an @file reference."""
    if text is None:
        return None
    if text.startswith("@"):
        return json.loads(_read_text(text[1:]))
    return json.loads(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None


def _timing(value: str) -> Timing:
    try:
        return Timing(value)
    except ValueError:
        raise CliError(f"timing must be 'async' or 'sync', got {value!r}") from None


def _build_instance(args) -> AlgorithmInstance:
    if args.line is not None:
        return instance_for_line(args.line, _timing(args.timing))
    if args.alg is None:
        raise CliError("one of --alg or --line is required")
    try:
        kind = _ALG_ALIASES[args.alg]
    except KeyError:
        raise CliError(f"unknown algorithm {args.alg!r}") from None
    params = _parse_params(args.params)
    if kind is AlgorithmKind.ALL_OUTPUT and "values" not in params:
        raise CliError("all_output needs --params V=...")
    if (
        kind
        in (
            AlgorithmKind.SINGLE_OUTPUT,
            AlgorithmKind.TIMING_ADAPTIVE,
            AlgorithmKind.ASYNC_DISAGREEMENT,
            AlgorithmKind.SYNC_DISAGREEMENT,
        )
        and "no_out" not in params
    ):
        raise CliError(f"{kind.value} needs --params no_out=true|false")
    if kind is AlgorithmKind.TIMING_ADAPTIVE and "default_value" not in params:
        raise CliError("timing_adaptive needs --params v=0|1")
    return AlgorithmInstance(kind=kind, timing=_timing(args.timing), **params)


def _budget(args) -> checker.ExplorationBudget:
    budget = checker.ExplorationBudget.default()
    if getattr(args, "budget", None) is not None:
        budget.sample_runs = args.budget
        budget.size_cap = max(budget.size_cap, args.budget)
    if getattr(args, "horizon", None) is not None:
        budget.horizon = args.horizon
    return budget


def _write_out(path: Optional[str], text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_run(args) -> int:
    instance = _build_instance(args)
    cfg = SystemConfig(args.n, args.t, _timing(args.timing))
    bound = instance.bind(cfg.n, cfg.t, permissive=args.permissive)
    choices = SeededChoices(args.seed)
    fp_literal = _load_literal(args.fp)
    fp = NO_CRASHES if fp_literal is None else FailurePattern.from_descriptor(fp_literal)
    dp_literal = _load_literal(args.dp)
    dp = SYNC_CANONICAL if dp_literal is None else DelayPattern.from_descriptor(dp_literal)
    trace = run(bound, cfg, choices, fp, dp, horizon=args.horizon)
    _write_out(args.out, trace.to_jsonl())
    summary = {
        "output_set": str(trace.output_set()),
        "outputs": list(trace.outputs),
        "termination": trace.termination,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_HORIZON if trace.termination == HORIZON else EXIT_OK


def cmd_replay(args) -> int:
    text = _read_text(args.trace)
    original = ExecutionTrace.parse(text)
    rerun = replay(text)
    identical = rerun.to_jsonl() == text
    summary = {
        "output_set": str(rerun.output_set()),
        "termination": rerun.termination,
        "identical": identical,
    }
    print(json.dumps(summary, sort_keys=True))
    if not identical:
        print("replay diverged from recorded trace", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_HORIZON if original.termination == HORIZON else EXIT_OK


_STATUS_EXIT = {
    "ok": EXIT_OK,
    "unsafe": EXIT_VERDICT,
    "incomplete": EXIT_VERDICT,
    "not_witnessed_within_budget": EXIT_BUDGET,
    "horizon": EXIT_HORIZON,
}


def cmd_check(args) -> int:
    instance = _build_instance(args)
    cfg = SystemConfig(args.n, args.t, _timing(args.timing))
    bound = instance.bind(cfg.n, cfg.t)
    target = line_members(args.line) if args.line is not None else bound.target_members()
    if target is None:
        raise CliError("no target family known; use --line")
    ok, reason = checker.bounds_screen(target, cfg)
    if not ok:
        raise CliError(f"bounds screen failed: {reason}")
    verdict = checker.explore(bound, cfg, _budget(args), target=target)
    print(json.dumps(verdict.summary(), sort_keys=True))
    return _STATUS_EXIT[verdict.status]


def cmd_table(args) -> int:
    if args.n_max < 2:
        raise CliError(f"--n-max must be >= 2, got {args.n_max}")
    report = checker.check_table(args.n_max, _budget(args))
    lines = [json.dumps(row, sort_keys=True) for row in report.rows()]
    lines.append(
        json.dumps(
            {
                "kind": "summary",
                "cells": len(report.cells),
                "passed": report.passed,
                "failures": len(report.failures()),
            },
            sort_keys=True,
        )
    )
    _write_out(args.out, "\n".join(lines) + "\n")
    if args.out:
        print(f"{len(report.cells)} cells, passed={report.passed}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def cmd_witness(args) -> int:
    cfg = SystemConfig(args.n, args.t, _timing(args.timing))
    if args.kind == checker.LONE_SURVIVOR:
        result = checker.witness_lone_survivor(cfg, no_out=args.no_out)
    else:
        result = checker.witness_split_crash(cfg)
    _write_out(args.out, result.trace.to_jsonl())
    summary = {
        "construction": result.schedule.construction,
        "output_set": str(result.output_set),
        "notes": result.schedule.notes,
        "fp": result.schedule.fp.describe(),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_conditions(args) -> int:
    doc = "\n".join(json.dumps(r, sort_keys=True) for r in condition_table())
    _write_out(args.out, doc + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing.


def _add_system_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="number of processes")
    p.add_argument("-t", type=int, required=True, help="crash bound")
    p.add_argument(
        "--timing", default="async", choices=["async", "sync"], help="timing model"
    )


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alg", help="algorithm name or algN alias")
    p.add_argument(
        "--params", help="instantiation parameters, k=v,... (V uses | between values)"
    )
    p.add_argument(
        "--line", type=int, help="build the instance mandated for a table line"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsos",
        description="Simulator and solvability checker for binary-output tasks "
        "under crash faults.",
    )
    parser.add_argument(
        "--config", help="JSON file of defaults merged under the command flags"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one execution and write its trace")
    _add_instance_flags(p)
    _add_system_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fp", help="failure pattern JSON literal or @file")
    p.add_argument("--dp", help="delay pattern JSON literal or @file")
    p.add_argument("--horizon", type=int)
    p.add_argument("--permissive", action="store_true",
                   help="skip the tight-condition screen (witness experiments)")
    p.add_argument("--out", help="trace file path (default: stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("replay", help="re-execute a trace from its header")
    p.add_argument("trace", help="trace file produced by run/witness")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("check", help="explore one cell and print the verdict")
    _add_instance_flags(p)
    _add_system_flags(p)
    p.add_argument("--budget", type=int, help="sampled-run budget override")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="reproduce the characterization matrix")
    p.add_argument("--n-max", type=int, dest="n_max", required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", help="report file path (default: stdout)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "witness", help="produce a crash-schedule counterexample trace"
    )
    p.add_argument(
        "kind", choices=[checker.LONE_SURVIVOR, checker.SPLIT_CRASH]
    )
    _add_system_flags(p)
    p.add_argument("--no-out", dest="no_out", action="store_true",
                   help="use the variant that may output nothing")
    p.add_argument("--out", help="trace file path (default: stdout)")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("conditions", help="write the machine-readable condition table")
    p.add_argument("--out", help="file path (default: stdout)")
    p.set_defaults(func=cmd_conditions)

    return parser


def _merge_config(argv: List[str]) -> List[str]:
    """Prepend flag defaults from --config FILE (flags on the line win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise CliError("--config needs a file path")
    defaults = json.loads(_read_text(argv[idx + 1]))
    if not isinstance(defaults, dict):
        raise CliError("--config file must hold a JSON object of flag defaults")
    rest = argv[:idx] + argv[idx + 2 :]
    command = rest[0] if rest else None
    injected: List[str] = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if any(a == flag for a in rest):
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected.extend([flag, str(value)])
    return [command] + injected + rest[1:] if command else rest


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except checker.WitnessSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
