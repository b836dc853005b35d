"""Batch command line interface.

Subcommands: ``run`` one execution and write its trace, ``replay`` a trace
file, ``check`` one (algorithm, n, t, timing) cell, ``table`` the whole
characterization matrix, ``witness`` a counterexample read from ``explore``
(a run of the line-7 or line-8 algorithm outside its condition whose output
set holds one value, with the cell's verdict), and ``conditions`` the
machine-readable condition table.  Each job has one subcommand: only
``replay`` re-executes a trace, only ``conditions`` writes the condition
table.

Exit codes partition outcomes: 0 success, 1 verdict failure, 2 usage or
precondition rejection, 3 completeness not witnessed within budget (or no
singleton output set found by ``witness``), 141 stdout closed by its reader
before the output was written (as in ``binsos run ... | head -1``), with no
traceback.
``--budget N`` (N >= 0) sets ``checker.ExplorationBudget.sample_runs``,
whose docstring states when a cell is sampled or its search stops short.

``--schedule`` is the moves of an asynchronous ``run``, a JSON list (or
``@file`` holding one) of ``[receiver, [[sender, index], ...]]``; with none
given, every item lands at the deadline step, and a synchronous run takes
only the empty one.  A malformed move, or one that is not enabled when the
run reaches it, exits 2 naming the move's number and the reason.

``--params`` is a JSON object, or ``@file`` holding one, in the form of a
trace header's ``alg``.  It gives an algorithm exactly the parameters it
takes: ``values`` (all_output), ``no_out`` (single_output and both
disagreement algorithms), ``no_out`` and ``default_value`` (timing_adaptive),
none (sync_consensus).  A missing or an extra parameter is rejected with its
name.

``--alg`` and ``--line`` exclude each other, and ``--params`` needs ``--alg``.

Every JSON input is read strictly: a repeated key, one its reader does not
take, or nesting too deep to read is rejected.  A ``--config``
key is the name of a flag of the subcommand (a one-letter key is its short
flag) and a boolean is given exactly to its switches; flags are never
abbreviated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import checker
from .algorithms import PARAM_NAMES, AlgorithmInstance, AlgorithmKind, instance_for_line
from .outputsets import SystemConfig, Timing, _read_json, condition_table
from .patterns import NO_CRASHES, FailurePattern
from .program import ChoiceNeeded, SeededChoices
from .simkernel import ExecutionTrace, PreconditionError, replay, run

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a reader gone early

#: The algorithms in presentation order; the short alias algN names the N-th.
_ALG_ORDER = (
    AlgorithmKind.ASYNC_DISAGREEMENT,
    AlgorithmKind.SYNC_DISAGREEMENT,
    AlgorithmKind.ALL_OUTPUT,
    AlgorithmKind.SINGLE_OUTPUT,
    AlgorithmKind.TIMING_ADAPTIVE,
    AlgorithmKind.SYNC_CONSENSUS,
)
_ALG_ALIASES = {
    **{kind.value: kind for kind in AlgorithmKind},
    **{f"alg{k}": kind for k, kind in enumerate(_ALG_ORDER, start=1)},
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_PRECONDITION):
        super().__init__(message)
        self.code = code


def _parse_params(text: Optional[str]) -> Dict[str, object]:
    """The JSON object of ``--params``; every key a parameter name."""
    if text is None:
        return {}
    params = _load_literal(text, "--params")
    if not isinstance(params, dict):
        raise CliError("--params must be a JSON object of parameters")
    unknown = sorted(set(params) - set(PARAM_NAMES))
    if unknown:
        raise CliError(f"unknown parameter {unknown[0]!r}")
    return params


def _load_literal(text: str, flag: str) -> object:
    """The JSON value of ``flag``: a literal or an @file reference."""
    if text.startswith("@"):
        return _read_json(_read_text(text[1:]), f"{flag} file {text[1:]}")
    return _read_json(text, flag)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None


def _build_instance(args) -> AlgorithmInstance:
    if args.params is not None and args.alg is None:
        raise CliError("--params needs --alg")
    if args.line is not None:
        return instance_for_line(args.line, Timing(args.timing))
    if args.alg is None:
        raise CliError("one of --alg or --line is required")
    try:
        kind = _ALG_ALIASES[args.alg]
    except KeyError:
        raise CliError(f"unknown algorithm {args.alg!r}") from None
    # The instance checks that the kind takes exactly these parameters.
    params = _parse_params(args.params)
    return AlgorithmInstance(kind=kind, timing=Timing(args.timing), **params)


def _budget(args) -> checker.ExplorationBudget:
    runs = {} if args.budget is None else {"sample_runs": args.budget}
    return checker.ExplorationBudget(**runs)


def _system(args) -> SystemConfig:
    return SystemConfig(args.n, args.t, Timing(args.timing))


def _write_out(path: Optional[str], text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_run(args) -> int:
    instance = _build_instance(args)
    cfg = _system(args)
    bound = instance.bind(cfg.n, cfg.t, permissive=args.permissive)
    choices = SeededChoices(args.seed)
    fp = (NO_CRASHES if args.fp is None
          else FailurePattern.from_descriptor(_load_literal(args.fp, "--fp")))
    schedule = None if args.schedule is None else _load_literal(args.schedule, "--schedule")
    trace = run(bound, cfg, choices, fp, schedule)
    _write_out(args.out, trace.to_jsonl())
    summary = {
        "output_set": str(trace.output_set()),
        "outputs": list(trace.outputs),
        "termination": trace.termination,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_replay(args) -> int:
    text = _read_text(args.trace)
    ExecutionTrace.parse(text)  # rejects a malformed event line or final record
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
    return EXIT_OK


_STATUS_EXIT = {
    "ok": EXIT_OK,
    "unsafe": EXIT_VERDICT,
    "incomplete": EXIT_VERDICT,
    "not_witnessed_within_budget": EXIT_BUDGET,
}


def cmd_check(args) -> int:
    instance = _build_instance(args)
    cfg = _system(args)
    # bind rejects a cell outside the line's tight condition, and every
    # condition implies its line's counting bounds (``bounds_screen``).
    verdict = checker.explore(instance.bind(cfg.n, cfg.t), cfg, _budget(args))
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
    result = checker.witness(_system(args), no_out=args.no_out)
    _write_out(args.out, result.trace.to_jsonl())
    summary = {
        "output_set": str(result.output_set),
        "fp": result.trace.header["fp"],
        "verdict": result.verdict.summary(),
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
    either = p.add_mutually_exclusive_group()
    either.add_argument("--alg", help="algorithm name or algN alias")
    either.add_argument(
        "--line", type=int, help="build the instance mandated for a table line"
    )
    p.add_argument(
        "--params", help="instantiation parameters for --alg: JSON object literal or @file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsos",
        allow_abbrev=False,
        description="Simulator and solvability checker for binary-output tasks "
        "under crash faults.",
    )
    parser.add_argument(
        "--config", help="JSON file of defaults merged under the command flags"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_command("run", help="run one execution and write its trace")
    _add_instance_flags(p)
    _add_system_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fp", help="failure pattern JSON literal or @file")
    p.add_argument("--schedule", help="async moves [[receiver, [[sender, index], ...]], ...]: "
                   "JSON literal or @file")
    p.add_argument("--permissive", action="store_true",
                   help="skip the tight-condition screen (witness experiments)")
    p.add_argument("--out", help="trace file path (default: stdout)")
    p.set_defaults(func=cmd_run)

    p = add_command("replay", help="re-execute a trace from its header")
    p.add_argument("trace", help="trace file produced by run/witness")
    p.set_defaults(func=cmd_replay)

    p = add_command("check", help="explore one cell and print the verdict")
    _add_instance_flags(p)
    _add_system_flags(p)
    p.add_argument("--budget", type=int, help="sampled-run budget override")
    p.set_defaults(func=cmd_check)

    p = add_command("table", help="reproduce the characterization matrix")
    p.add_argument("--n-max", type=int, dest="n_max", required=True)
    p.add_argument("--budget", type=int, help="sampled-run budget override")
    p.add_argument("--out", help="report file path (default: stdout)")
    p.set_defaults(func=cmd_table)

    p = add_command(
        "witness",
        help="search a line-7/8 cell outside its condition for a singleton output set",
    )
    _add_system_flags(p)
    p.add_argument("--no-out", dest="no_out", action="store_true",
                   help="line 7, whose algorithm may output nothing (default: line 8)")
    p.add_argument("--out", help="trace file path (default: stdout)")
    p.set_defaults(func=cmd_witness)

    p = add_command("conditions", help="write the machine-readable condition table")
    p.add_argument("--out", help="file path (default: stdout)")
    p.set_defaults(func=cmd_conditions)

    return parser


def _merge_config(argv: List[str], parser: argparse.ArgumentParser) -> List[str]:
    """Prepend flag defaults from --config FILE or --config=FILE (flags on the
    line win, and --alg or --params on the line drops the default of --line,
    as --line drops theirs).  A key names a flag of the subcommand: ``-k`` for
    a one-letter key, else ``--key`` with ``_`` as ``-``.  A switch (a flag
    the subcommand's parser reads without a value) takes exactly ``true``,
    which sets it, or ``false``, which leaves it unset; any other flag takes
    no boolean.  An object or list is passed on as JSON text."""
    found = [i for i, a in enumerate(argv) if a == "--config" or a.startswith("--config=")]
    if not found:
        return argv
    if len(found) > 1:
        raise CliError("--config is given more than once")
    idx = found[0]
    _, joined, path = argv[idx].partition("=")
    rest = argv[:idx] + argv[idx + 1 :]
    if not joined:
        if idx == len(rest):
            raise CliError("--config needs a file path")
        path = rest.pop(idx)
    defaults = _read_json(_read_text(path), f"--config file {path}")
    if not isinstance(defaults, dict):
        raise CliError("--config file must hold a JSON object of flag defaults")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if not rest or rest[0] not in sub.choices:
        return rest  # the parser rejects the missing or unknown command
    actions = sub.choices[rest[0]]._actions
    switches = {flag for a in actions if a.nargs == 0 for flag in a.option_strings}
    # A default yields to its flag on the line; --alg (with --params) and
    # --line are alternatives, so each also yields to the other side.
    given = {a.partition("=")[0] for a in rest[1:]}
    alg_side, line_side = {"--alg", "--params"}, {"--line"}
    if given & alg_side:
        given |= line_side
    if given & line_side:
        given |= alg_side
    injected: List[str] = []
    for key, value in defaults.items():
        if not re.fullmatch(r"[a-z][a-z0-9_-]*", key) or key in ("h", "help"):
            raise CliError(f"--config key {key!r} is not the name of a flag")
        if value is None:
            raise CliError(f"--config key {key!r} has no value")
        flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
        if isinstance(value, bool) != (flag in switches):
            what = "a switch: give true or false" if flag in switches else "no switch"
            raise CliError(
                f"--config key {key!r} is {json.dumps(value)}, but {flag} is {what}"
            )
        if flag in given:
            continue
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, (dict, list)):
            injected.extend([flag, json.dumps(value)])
        else:
            injected.extend([flag, str(value)])
    return [rest[0]] + injected + rest[1:]


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv, parser)
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's last flush of
        # what the pipe refused succeeds silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except checker.WitnessSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PreconditionError, ValueError, ChoiceNeeded) as exc:
        # ChoiceNeeded: a replayed trace's choice script lacks a pick it meets.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
