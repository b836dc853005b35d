"""The benchmark's four fixed workloads, built on the public binsos API.

Each workload binds its instances for a seed and returns cells.  A cell is
the unit that is timed and gated: one ``explore`` or oracle call for the
table workloads, one instance group's traces or one witness for the audit.
A cell's operation returns how many operations it attempted and a
description of each wrong result; an empty list means all were correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from binsos.algorithms import instance_for_line
from binsos.checker import (
    ExplorationBudget,
    explore,
    sample_traces,
    witness_lone_survivor,
    witness_split_crash,
)
from binsos.oracle import observed_output_sets
from binsos.outputsets import OutputSet, SystemConfig, Timing, line_members, sos_str, tight_condition
from binsos.simkernel import PreconditionError, medium_check, replay

Outcome = Tuple[int, List[str]]

N_MAX = 4
ASYNC_T_MAX = 2  # the t = 3, 4 timing-adaptive cells cost ~40 s per pass
# The two timing-adaptive cells at n = 4, t = 2 cost 5.6 s of a 9.6 s pass;
# with them a 30 s run holds two passes and its spread exceeds any bound.
ADAPTIVE_LINES = (3, 5)
AUDIT_N = 5
AUDIT_PER_ALGORITHM = 1000
REPLAY_EVERY = 10
SINGLETONS = (OutputSet.ZERO, OutputSet.ONE)

# The acceptance-4 instance groups: one per algorithm, split across the
# timing models each algorithm admits.
AUDIT_GROUPS = (
    ((1, Timing.ASYNC), (1, Timing.SYNC)),  # all-output
    ((9, Timing.ASYNC), (9, Timing.SYNC)),  # single-output
    ((3, Timing.ASYNC), (3, Timing.SYNC)),  # timing-adaptive
    ((7, Timing.ASYNC),),  # asynchronous disagreement
    ((7, Timing.SYNC), (8, Timing.SYNC)),  # synchronous disagreement
    ((10, Timing.SYNC),),  # synchronous consensus
)


@dataclass
class Cell:
    id: str
    op: Callable[[], Outcome]


def cell_id(line: int, timing: Timing, n: int, t: int) -> str:
    return f"L{line}/{timing.value}/n{n}/t{t}"


def _solvable(timings, t_max: int):
    for line in range(1, 17):
        for timing in timings:
            condition = tight_condition(line, timing)
            for n in range(N_MAX + 1):
                for t in range(min(n, t_max) + 1):
                    if condition.holds(n, t):
                        yield line, timing, n, t


def _bound(line: int, timing: Timing, n: int, t: int):
    instance = instance_for_line(line, timing).bind(n, t)
    instance.programs()
    return instance, SystemConfig(n, t, timing)


def _explore_cell(line, timing, n, t, budget: ExplorationBudget) -> Cell:
    instance, cfg = _bound(line, timing, n, t)
    members = line_members(line)
    cid = cell_id(line, timing, n, t)

    def op() -> Outcome:
        verdict = explore(instance, cfg, budget)
        if verdict.status != "ok" or verdict.observed != members:
            return 1, [f"{cid}: {verdict.status}, observed {sos_str(verdict.observed)}"]
        return 1, []

    return Cell(cid, op)


def _oracle_cell(line, timing, n, t) -> Cell:
    instance, cfg = _bound(line, timing, n, t)
    members = line_members(line)
    cid = cell_id(line, timing, n, t)

    def op() -> Outcome:
        family = observed_output_sets(instance, cfg)
        if family != members:
            return 1, [f"{cid}: oracle family {sos_str(family)}"]
        return 1, []

    return Cell(cid, op)


def _audit_cell(line: int, timing: Timing, count: int, meta_seed: int) -> Cell:
    condition = tight_condition(line, timing)
    t = max(t for t in range(AUDIT_N + 1) if condition.holds(AUDIT_N, t))
    instance, cfg = _bound(line, timing, AUDIT_N, t)
    members = line_members(line)
    cid = cell_id(line, timing, AUDIT_N, t)

    def op() -> Outcome:
        attempted, problems = 0, []
        traces = sample_traces(instance, cfg, count, meta_seed=meta_seed, record=True)
        for k, trace in enumerate(traces):
            attempted += 1
            text = trace.to_jsonl()
            try:
                violations = medium_check(trace)
            except PreconditionError as exc:
                violations = [str(exc)]
            if violations or trace.output_set() not in members:
                problems.append(f"{cid} trace {k}: {trace.output_set()} {violations[:1]}")
            if k % REPLAY_EVERY == REPLAY_EVERY - 1:
                attempted += 1
                if replay(text).to_jsonl() != text:
                    problems.append(f"{cid} trace {k}: replay differs")
        return attempted, problems

    return Cell(cid, op)


def _witness_cell(name: str, construct: Callable) -> Cell:
    def op() -> Outcome:
        result = construct()
        text = result.trace.to_jsonl()
        problems = []
        if result.output_set not in SINGLETONS:
            problems.append(f"{name}: output set {result.output_set}")
        if replay(text).to_jsonl() != text:
            problems.append(f"{name}: replay differs")
        return 2, problems

    return Cell(name, op)


def sync_table_n4(seed: int) -> List[Cell]:
    budget = ExplorationBudget()
    return [_explore_cell(*c, budget) for c in _solvable((Timing.SYNC,), N_MAX)]


def async_table_t2(seed: int) -> List[Cell]:
    budget = ExplorationBudget(sample_seed=seed)
    return [
        _explore_cell(line, timing, n, t, budget)
        for line, timing, n, t in _solvable((Timing.ASYNC,), ASYNC_T_MAX)
        if not (line in ADAPTIVE_LINES and n == N_MAX and t == ASYNC_T_MAX)
    ]


def audit_n5(seed: int) -> List[Cell]:
    cells = []
    for group in AUDIT_GROUPS:
        for line, timing in group:
            cells.append(_audit_cell(line, timing, AUDIT_PER_ALGORITHM // len(group), seed))
    cells += [
        _witness_cell("lone_survivor/async/n2/t1",
                      lambda: witness_lone_survivor(SystemConfig(2, 1, Timing.ASYNC))),
        _witness_cell("lone_survivor/sync/n2/t1",
                      lambda: witness_lone_survivor(SystemConfig(2, 1, Timing.SYNC))),
        _witness_cell("split_crash/async/n4/t2",
                      lambda: witness_split_crash(SystemConfig(4, 2, Timing.ASYNC))),
    ]
    return cells


def oracle_n4(seed: int) -> List[Cell]:
    return [_oracle_cell(*c) for c in _solvable((Timing.ASYNC, Timing.SYNC), N_MAX)]


# Workloads that take no seed are exhaustive: every seed gives the same work.
WORKLOADS: Dict[str, Callable[[int], List[Cell]]] = {
    "sync_table_n4": sync_table_n4,
    "async_table_t2": async_table_t2,
    "audit_n5": audit_n5,
    "oracle_n4": oracle_n4,
}
