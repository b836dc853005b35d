"""Safety/completeness verdicts over explored executions.

``explore`` runs an algorithm instance over a budgeted product of pick
outcomes, failure patterns and delay patterns, and compares the union of
observed output sets against a target family: safety holds when nothing
outside the target was ever produced, completeness when every member of the
target has a stored witness trace.  ``check_table`` reproduces the whole
characterization table at desk scale.

The witness constructors re-enact the crash schedules from the necessity
arguments as counterexample demonstrations against the shipped algorithms
run outside their validity envelope.  They are demonstrations, not general
impossibility proofs: testing cannot quantify over all algorithms.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from .outputsets import (
    OutputSet,
    SetOfOutputSets,
    SystemConfig,
    Timing,
    observation1_bounds,
    sos_mask,
    sos_str,
    tight_condition,
)
from .patterns import (
    ALL_IMMEDIATE,
    NO_CRASHES,
    SYNC_CANONICAL,
    DelayPattern,
    FailurePattern,
    all_latest,
    enum_delay_patterns,
    enum_failure_patterns,
    sample_delay_pattern,
    sample_failure_pattern,
)
from .program import ChoiceNeeded, ScriptedChoices, SeededChoices
from .simkernel import (
    HORIZON,
    ExecutionTrace,
    PreconditionError,
    default_horizon,
    run,
    validate_delay_pattern,
)

BUDGET_ENV_VAR = "BINSOS_BUDGET"
#: Failure patterns explored per cell before the search stops being exhaustive.
MAX_FAILURE_PATTERNS = 50_000


class WitnessSearchError(Exception):
    """The witness construction could not be completed within budget."""


@dataclass
class ExplorationBudget:
    """Caps on the explored product space.

    In exhaustive mode picks are enumerated by branching over all choice
    outcomes; otherwise ``sample_runs`` random (seed, fp, dp) triples are
    drawn (always preceded by the extreme-delay probes).  ``exhaustive=None``
    auto-selects exhaustive mode whenever the estimated product is within
    ``size_cap``.
    """

    max_delay_patterns: int = 12
    horizon: Optional[int] = None
    exhaustive: Optional[bool] = None
    size_cap: int = 1_000_000
    sample_runs: int = 10_000
    sample_seed: int = 0

    @staticmethod
    def default() -> "ExplorationBudget":
        budget = ExplorationBudget()
        env = os.environ.get(BUDGET_ENV_VAR)
        if env:
            budget.sample_runs = int(env)
        return budget


@dataclass
class Verdict:
    """Outcome of exploring one instance against a target family."""

    target: SetOfOutputSets
    observed: SetOfOutputSets = frozenset()
    violations: List[Tuple[ExecutionTrace, OutputSet]] = field(default_factory=list)
    witnesses: Dict[OutputSet, ExecutionTrace] = field(default_factory=dict)
    horizon_hits: int = 0
    executions: int = 0
    exhaustive: bool = False

    @property
    def safety_ok(self) -> bool:
        return not self.violations and self.horizon_hits == 0

    @property
    def completeness_ok(self) -> bool:
        return self.target <= self.observed

    @property
    def missing(self) -> SetOfOutputSets:
        return self.target - self.observed

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.completeness_ok

    @property
    def status(self) -> str:
        if self.horizon_hits:
            return "horizon"
        if self.violations:
            return "unsafe"
        if self.missing:
            # A member not seen under an exhaustive budget is a refutation;
            # under sampling it only means the existential was not witnessed.
            return "incomplete" if self.exhaustive else "not_witnessed_within_budget"
        return "ok"

    def summary(self) -> Dict[str, object]:
        return {
            "target": sos_str(self.target),
            "observed": sos_str(self.observed),
            "observed_mask": sos_mask(self.observed),
            "safety": self.safety_ok,
            "completeness": self.completeness_ok,
            "status": self.status,
            "horizon_hits": self.horizon_hits,
            "executions": self.executions,
            "exhaustive": self.exhaustive,
            "witness_refs": sorted(str(m) for m in self.witnesses),
        }


def potential_emissions(instance: AlgorithmInstance) -> List[Tuple[int, int]]:
    """Every (sender, emission ordinal) the instance's programs can produce."""
    slots = []
    for pid, program in enumerate(instance.programs(), start=1):
        slots.extend((pid, k) for k in range(program.communicate_count))
    return slots


def _choice_bound(instance: AlgorithmInstance) -> int:
    from .program import Pick

    bound = 1
    for program in instance.programs():
        for stmt in program.statements:
            if isinstance(stmt, Pick):
                bound *= len(stmt.candidates)
    return bound


def branch_choices(run_one) -> Iterator[Tuple[Dict, object]]:
    """Enumerate all pick outcomes by forking scripts on demand.

    ``run_one`` takes a ChoiceStream and returns a result; whenever an
    unscripted pick site is reached the script forks once per candidate, so
    the leaves cover exactly the reachable choice combinations.
    """
    stack: List[Dict] = [{}]
    while stack:
        picks = stack.pop()
        try:
            yield picks, run_one(ScriptedChoices(picks))
        except ChoiceNeeded as need:
            for value in need.candidates:
                forked = dict(picks)
                forked[(need.pid, need.counter)] = value
                stack.append(forked)


def _bind(instance: AlgorithmInstance, cfg: SystemConfig) -> AlgorithmInstance:
    if instance.bound:
        if instance.n != cfg.n or instance.t != cfg.t:
            raise PreconditionError("instance bound to a different configuration")
        return instance
    return instance.bind(cfg.n, cfg.t)


def explore(
    instance: AlgorithmInstance,
    cfg: SystemConfig,
    budget: Optional[ExplorationBudget] = None,
    target: Optional[SetOfOutputSets] = None,
) -> Verdict:
    """Explore executions and judge safety/completeness against ``target``.

    Synchronous configurations use the single canonical delay pattern;
    asynchronous ones range over the bounded delay family.  Horizon-truncated
    executions have no defined output set and are counted as conservative
    safety failures, never ignored.
    """
    budget = budget or ExplorationBudget.default()
    instance = _bind(instance, cfg)
    if target is None:
        target = instance.target_members()
    if target is None:
        raise ValueError("no target family: pass target= or use a table instance")
    if cfg.timing is not instance.timing:
        raise PreconditionError(
            f"{instance.kind.value} instance is built for {instance.timing}"
        )

    horizon = budget.horizon or default_horizon(cfg.n)
    slot_counts = [p.slot_count for p in instance.programs()]

    fps: List[FailurePattern] = []
    fps_truncated = False
    for fp in enum_failure_patterns(cfg.n, cfg.t, slot_counts):
        if len(fps) >= MAX_FAILURE_PATTERNS:
            fps_truncated = True
            break
        fps.append(fp)

    if cfg.timing is Timing.SYNC:
        dps = [SYNC_CANONICAL]
        dp_exhaustive = True
    else:
        emissions = potential_emissions(instance)
        dps = enum_delay_patterns(
            emissions, cfg.n, horizon, budget.max_delay_patterns, budget.sample_seed
        )
        edges = len(emissions) * cfg.n
        dp_exhaustive = edges == 0 or 3 ** edges <= budget.max_delay_patterns
        for dp in dps:
            validate_delay_pattern(instance, cfg, dp, horizon)

    estimate = _choice_bound(instance) * len(fps) * len(dps)
    exhaust = (
        budget.exhaustive
        if budget.exhaustive is not None
        else estimate <= budget.size_cap
    )

    verdict = Verdict(target=target)
    observed = set()

    def record(trace: ExecutionTrace, rerun) -> None:
        verdict.executions += 1
        if trace.termination == HORIZON:
            verdict.horizon_hits += 1
            return
        os_ = trace.output_set()
        if os_ in observed:
            return
        observed.add(os_)
        full = rerun()
        if os_ not in target:
            verdict.violations.append((full, os_))
        else:
            verdict.witnesses[os_] = full

    if exhaust:
        for fp in fps:
            for dp in dps:

                def run_one(choices, fp=fp, dp=dp):
                    return run(
                        instance, cfg, choices, fp, dp, horizon=horizon,
                        record=False, validate=False,
                    )

                for picks, trace in branch_choices(run_one):
                    script = dict(picks)
                    record(
                        trace,
                        lambda s=script, fp=fp, dp=dp: run(
                            instance, cfg, ScriptedChoices(s), fp, dp, horizon=horizon
                        ),
                    )
        verdict.exhaustive = not fps_truncated and dp_exhaustive
    else:
        if cfg.timing is Timing.SYNC:
            probes = [(0, NO_CRASHES, SYNC_CANONICAL), (1, NO_CRASHES, SYNC_CANONICAL)]
        else:
            probes = [(0, NO_CRASHES, ALL_IMMEDIATE), (0, NO_CRASHES, all_latest(horizon))]
        draws = itertools.islice(
            _draws(instance, cfg, horizon, budget.sample_seed), budget.sample_runs
        )
        for seed, fp, dp in itertools.chain(probes, draws):
            trace = run(
                instance, cfg, SeededChoices(seed), fp, dp, horizon=horizon,
                record=False, validate=False,
            )
            record(
                trace,
                lambda s=seed, fp=fp, dp=dp: run(
                    instance, cfg, SeededChoices(s), fp, dp, horizon=horizon
                ),
            )
        verdict.exhaustive = False

    verdict.observed = frozenset(observed)
    return verdict


def _draws(
    instance: AlgorithmInstance, cfg: SystemConfig, horizon: int, meta_seed: int
) -> Iterator[Tuple[int, FailurePattern, DelayPattern]]:
    """Endless seeded random (choice seed, fp, dp) triples for a bound instance."""
    rng = random.Random(meta_seed)
    slot_counts = [p.slot_count for p in instance.programs()]
    emissions = potential_emissions(instance)
    while True:
        seed = rng.getrandbits(48)
        fp = sample_failure_pattern(rng, cfg.n, cfg.t, slot_counts)
        if cfg.timing is Timing.SYNC:
            dp = SYNC_CANONICAL
        else:
            dp = sample_delay_pattern(rng, emissions, cfg.n, horizon)
        yield seed, fp, dp


def sample_traces(
    instance: AlgorithmInstance,
    cfg: SystemConfig,
    count: int,
    meta_seed: int = 0,
    record: bool = False,
    horizon: Optional[int] = None,
) -> Iterator[ExecutionTrace]:
    """Randomized (seed, fp, dp) runs for safety audits and medium checks."""
    instance = _bind(instance, cfg)
    horizon = horizon or default_horizon(cfg.n)
    for seed, fp, dp in itertools.islice(
        _draws(instance, cfg, horizon, meta_seed), count
    ):
        yield run(
            instance, cfg, SeededChoices(seed), fp, dp, horizon=horizon, record=record
        )


# ---------------------------------------------------------------------------
# Table reproduction.


@dataclass
class CellReport:
    line: int
    timing: Timing
    n: int
    t: int
    condition: str
    verdict: Verdict

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    def row(self) -> Dict[str, object]:
        return {
            "line": self.line,
            "timing": self.timing.value,
            "n": self.n,
            "t": self.t,
            "condition_holds": True,
            "condition": self.condition,
            **self.verdict.summary(),
        }


@dataclass
class TableReport:
    n_max: int
    cells: List[CellReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failures(self) -> List[CellReport]:
        return [cell for cell in self.cells if not cell.ok]

    def rows(self) -> List[Dict[str, object]]:
        return [cell.row() for cell in self.cells]


def check_table(
    n_max: int,
    budget: Optional[ExplorationBudget] = None,
    lines: Optional[Sequence[int]] = None,
) -> TableReport:
    """Explore every solvable (line, timing, n, t) cell with n <= n_max.

    Line 16's condition is always false, so it contributes no cells; the
    report passes iff every explored cell is safe and complete.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    budget = budget or ExplorationBudget.default()
    report = TableReport(n_max=n_max)
    for line in lines if lines is not None else range(1, 17):
        for timing in (Timing.ASYNC, Timing.SYNC):
            condition = tight_condition(line, timing)
            for n in range(0, n_max + 1):
                for t in range(0, n + 1):
                    if not condition.holds(n, t):
                        continue
                    instance = instance_for_line(line, timing).bind(n, t)
                    cfg = SystemConfig(n, t, timing)
                    verdict = explore(instance, cfg, budget)
                    report.cells.append(
                        CellReport(line, timing, n, t, str(condition), verdict)
                    )
    return report


def bounds_screen(o: SetOfOutputSets, cfg: SystemConfig) -> Tuple[bool, str]:
    """Fail fast, before any exploration, on the counting bounds."""
    need_n, need_correct = observation1_bounds(o)
    if cfg.n < need_n:
        return False, f"n >= {need_n} required to produce {sos_str(o)}, have n={cfg.n}"
    if cfg.n - cfg.t < need_correct:
        return (
            False,
            f"n - t >= {need_correct} required to produce {sos_str(o)}, "
            f"have n - t = {cfg.n - cfg.t}",
        )
    return True, "bounds satisfied"


# ---------------------------------------------------------------------------
# Counterexample witnesses outside the tight region.

LONE_SURVIVOR = "lone_survivor"
SPLIT_CRASH = "split_crash"


@dataclass
class WitnessSchedule:
    """A concrete (choices, fp, dp) re-enacting a crash construction."""

    construction: str
    choices: Dict[str, object]
    fp: FailurePattern
    dp: DelayPattern
    expected: OutputSet
    notes: str = ""


@dataclass
class WitnessResult:
    schedule: WitnessSchedule
    trace: ExecutionTrace

    @property
    def output_set(self) -> OutputSet:
        return self.trace.output_set()


def _statement_position(trace: ExecutionTrace, pid: int) -> int:
    """Crash slot equivalent to 'where this process currently stands'."""
    stmts = [e["stmt"] for e in trace.events if e["pid"] == pid and "stmt" in e]
    return max(stmts) + 1 if stmts else 0


def _output_events(trace: ExecutionTrace) -> List[Dict[str, object]]:
    return [e for e in trace.events if e["kind"] == "output"]


def _pre_output_crashes(
    trace: ExecutionTrace, pids: Sequence[int]
) -> Dict[int, int]:
    """Slots crashing each pid just before its output (or where it stands)."""
    crashes: Dict[int, int] = {}
    outputs = {e["pid"]: e for e in _output_events(trace)}
    for pid in pids:
        if pid in outputs:
            crashes[pid] = outputs[pid]["stmt"]
        else:
            crashes[pid] = _statement_position(trace, pid)
    return crashes


def _find_both_execution(
    instance: AlgorithmInstance,
    cfg: SystemConfig,
    fp: FailurePattern,
    dp: DelayPattern,
    horizon: int,
) -> Tuple[Dict, ExecutionTrace]:
    for picks, trace in branch_choices(
        lambda choices: run(instance, cfg, choices, fp, dp, horizon=horizon)
    ):
        if trace.output_set() is OutputSet.BOTH:
            return picks, trace
    raise WitnessSearchError(
        "no completing execution with both values found within budget"
    )


def witness_lone_survivor(
    cfg: SystemConfig, no_out: bool = False
) -> WitnessResult:
    """Crash everyone but the first outputter; requires n - t < 2.

    Finds a completing execution producing both values, then re-runs it with
    every process except the first outputter crashing before it outputs
    anything.  The result is a singleton output set: a safety violation for
    any target whose only non-empty member is the two-valued set.
    """
    if cfg.n - cfg.t >= 2:
        raise PreconditionError(
            f"construction needs n - t < 2, have n - t = {cfg.n - cfg.t}"
        )
    if cfg.n < 2:
        raise PreconditionError("need at least two processes")
    kind = (
        AlgorithmKind.ASYNC_DISAGREEMENT
        if cfg.timing is Timing.ASYNC
        else AlgorithmKind.SYNC_DISAGREEMENT
    )
    instance = AlgorithmInstance(kind=kind, timing=cfg.timing, no_out=no_out).bind(
        cfg.n, cfg.t, permissive=True
    )
    horizon = default_horizon(cfg.n)
    dp = ALL_IMMEDIATE if cfg.timing is Timing.ASYNC else SYNC_CANONICAL
    picks, base = _find_both_execution(instance, cfg, NO_CRASHES, dp, horizon)
    first = min(_output_events(base), key=lambda e: e["seq"])
    survivor, value = first["pid"], first["value"]
    others = [pid for pid in range(1, cfg.n + 1) if pid != survivor]
    fp = FailurePattern.of(_pre_output_crashes(base, others))
    trace = run(instance, cfg, ScriptedChoices(picks), fp, dp, horizon=horizon)
    expected = OutputSet.ZERO if value == 0 else OutputSet.ONE
    if trace.output_set() is not expected:
        raise WitnessSearchError(
            f"construction produced {trace.output_set()} instead of {expected}"
        )
    schedule = WitnessSchedule(
        construction=LONE_SURVIVOR,
        choices=ScriptedChoices(picks).describe(),
        fp=fp,
        dp=dp,
        expected=expected,
        notes=f"survivor p{survivor} outputs {value}; all others crash pre-output",
    )
    return WitnessResult(schedule=schedule, trace=trace)


def _delayed_after_output_dp(
    instance: AlgorithmInstance, pids: Sequence[int], horizon: int
) -> DelayPattern:
    """All-immediate, except everything ``pids`` communicate after their
    output statement is delayed to the horizon (for every receiver)."""
    from .program import Communicate, Output

    entries: Dict[Tuple[int, int, int], int] = {}
    programs = instance.programs()
    for pid in pids:
        program = programs[pid - 1]
        output_at = next(
            i for i, s in enumerate(program.statements) if isinstance(s, Output)
        )
        ordinal = 0
        for i, stmt in enumerate(program.statements):
            if isinstance(stmt, Communicate):
                if i > output_at:
                    for receiver in range(1, instance.n + 1):
                        entries[(pid, ordinal, receiver)] = horizon
                ordinal += 1
    return DelayPattern.of(entries, default=0)


def witness_split_crash(cfg: SystemConfig) -> WitnessResult:
    """Staged crash schedule against the asynchronous disagreement algorithm
    run outside its envelope (2n <= 3t+2, t >= 1).

    Stage by stage: crash the first outputter right after its output, then
    crash each successive second outputter just before its output.  If some
    stage already yields a singleton output set, that execution is the
    witness.  Otherwise the crash-free variant with delayed post-output
    communication is built, the first t+1 outputters are split by output
    value, and the minority side plus all remaining processes crash before
    their outputs, leaving the majority to output one single value.

    The staged schedule assumes the algorithm keeps producing a second
    outputter while crashes remain; if it stops doing so without producing a
    singleton, the construction reports inapplicability rather than passing.
    """
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("construction applies to asynchronous systems")
    if cfg.t < 1:
        raise PreconditionError("construction needs t >= 1 (no crashes available)")
    if 2 * cfg.n > 3 * cfg.t + 2:
        raise PreconditionError(
            f"condition satisfied at n={cfg.n}, t={cfg.t} (2n > 3t+2); "
            f"nothing to witness"
        )
    instance = AlgorithmInstance(
        kind=AlgorithmKind.ASYNC_DISAGREEMENT, timing=Timing.ASYNC, no_out=False
    ).bind(cfg.n, cfg.t, permissive=True)
    horizon = default_horizon(cfg.n)
    choices = ScriptedChoices({})  # no_out=False programs consume no picks

    def rerun(fp: FailurePattern, dp: DelayPattern) -> ExecutionTrace:
        return run(instance, cfg, choices, fp, dp, horizon=horizon)

    base = rerun(NO_CRASHES, ALL_IMMEDIATE)
    if base.output_set() is not OutputSet.BOTH:
        raise WitnessSearchError("no crash-free execution producing both values")

    def finish(trace, fp, dp, stage) -> WitnessResult:
        expected = trace.output_set()
        schedule = WitnessSchedule(
            construction=SPLIT_CRASH,
            choices=choices.describe(),
            fp=fp,
            dp=dp,
            expected=expected,
            notes=stage,
        )
        return WitnessResult(schedule=schedule, trace=trace)

    outputs = sorted(_output_events(base), key=lambda e: e["seq"])
    first = outputs[0]
    crashes = {first["pid"]: first["stmt"] + 1}  # right after its output
    current = rerun(FailurePattern.of(crashes), ALL_IMMEDIATE)
    for stage in range(2, cfg.t + 1):
        if current.output_set() in (OutputSet.ZERO, OutputSet.ONE):
            return finish(
                current, FailurePattern.of(crashes), ALL_IMMEDIATE, f"stage {stage - 1}"
            )
        events = sorted(_output_events(current), key=lambda e: e["seq"])
        seconds = [e for e in events if e["pid"] not in crashes and e["pid"] != first["pid"]]
        if not seconds:
            raise WitnessSearchError(
                f"stage {stage}: no second outputter; construction inapplicable"
            )
        second = seconds[0]
        crashes[second["pid"]] = second["stmt"]  # just before its output
        current = rerun(FailurePattern.of(crashes), ALL_IMMEDIATE)

    if current.output_set() in (OutputSet.ZERO, OutputSet.ONE):
        return finish(current, FailurePattern.of(crashes), ALL_IMMEDIATE, f"stage {cfg.t}")

    events = sorted(_output_events(current), key=lambda e: e["seq"])
    non_crashed = [e for e in events if e["pid"] not in crashes]
    if not non_crashed:
        raise WitnessSearchError("no further outputter; construction inapplicable")

    # Crash-free variant: previously crashed processes stay up, but whatever
    # they communicate after their outputs arrives only at the horizon.
    delayed = _delayed_after_output_dp(instance, sorted(crashes), horizon)
    free = rerun(NO_CRASHES, delayed)
    ordered = sorted(_output_events(free), key=lambda e: e["seq"])
    leaders = []
    for event in ordered:
        if event["pid"] not in [e["pid"] for e in leaders]:
            leaders.append(event)
        if len(leaders) == cfg.t + 1:
            break
    if len(leaders) < cfg.t + 1:
        raise WitnessSearchError("fewer than t+1 outputters; construction inapplicable")
    zeros = [e["pid"] for e in leaders if e["value"] == 0]
    ones = [e["pid"] for e in leaders if e["value"] == 1]
    minority, majority = (zeros, ones) if len(zeros) <= len(ones) else (ones, zeros)
    rest = [
        pid
        for pid in range(1, cfg.n + 1)
        if pid not in [e["pid"] for e in leaders]
    ]
    if len(minority) + len(rest) > cfg.t:
        raise WitnessSearchError("minority plus remainder exceeds crash budget")
    fp = FailurePattern.of(_pre_output_crashes(free, minority + rest))
    final = rerun(fp, delayed)
    if final.output_set() not in (OutputSet.ZERO, OutputSet.ONE):
        raise WitnessSearchError(
            f"final execution produced {final.output_set()}, not a singleton"
        )
    return finish(final, fp, delayed, "majority-only stage")
