"""Safety/completeness verdicts over explored executions.

``explore`` runs an algorithm instance under every failure pattern, up to
the symmetry of processes with equal programs and to where a crash can be
seen, and every pick outcome -- an asynchronous cell by one
``simkernel.search_async``, whose crash moves cover every failure pattern
and whose landings cover every schedule, and a synchronous one by a
kernel run per pick outcome under one pattern per orbit, with the first
picks of interchangeable processes taken once per multiset, or under seeded
draws when those runs exceed its budget (``ExplorationBudget``) -- and
compares the union of observed output sets against the family of the
instance's line: safety holds when nothing outside the family was ever
produced, completeness when every member of it has a stored witness trace.
Each member's trace is a recorded kernel run (an asynchronous one under
the schedule of the search path that reached it), so it replays byte for
byte.  ``sample_traces`` draws seeded runs for audits, an asynchronous one
as a seeded walk over the enabled moves.
``exhaustive: true`` means every failure pattern and pick outcome was
covered up to the proven reductions: crashing only at
``Program.crash_slots``; one pattern per orbit, or (async) states up to the
same relabellings; and (sync) a block's first picks once per multiset (see
``explore``).  ``failure_patterns`` counts every failure pattern of the
cell, at every slot, ``failure_pattern_orbits`` the orbits over the crash
slots, which a synchronous cell runs one by one, and ``states`` the
asynchronous search's visited states.  ``check_table`` reproduces the whole
characterization table at desk scale.

``witness`` reads a counterexample from ``explore``: a run of a shipped
disagreement algorithm (line 7 or 8), bound outside its line's tight
condition, whose output set holds one value.  It refutes that algorithm
there; it is not a general impossibility proof, since testing cannot
quantify over all algorithms.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algorithms import AlgorithmInstance, instance_for_line
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
    FailurePattern,
    count_failure_pattern_orbits,
    count_failure_patterns,
    enum_failure_pattern_orbits,
    sample_failure_pattern,
)
from .program import ChoiceNeeded, Pick, ScriptedChoices, SeededChoices
from .simkernel import (
    ExecutionTrace,
    KernelError,
    PreconditionError,
    run,
    search_async,
)

#: The least bound on an exhaustive exploration (see ``ExplorationBudget``).
SIZE_CAP = 1_000_000


class WitnessSearchError(Exception):
    """``explore`` found no run with a singleton output set."""


@dataclass
class ExplorationBudget:
    """What a caller may set about one exploration, and the one statement of
    what ``explore`` does with a cell over its budget.

    Let the bound be ``max(SIZE_CAP, sample_runs)``.  ``explore`` searches
    every asynchronous cell in one search, and stops, reporting
    ``exhaustive: false``, once it would visit more states than the bound;
    ``states`` counts those it visited.  It covers a synchronous cell whole
    when its pick outcomes times orbits are at most the bound, or else a
    bound that counts each block's first picks as multisets
    (``_block_run_bound``).  Orbits are counted over the crash slots others
    can tell apart (``Program.crash_slots``), and whole means every failure
    pattern up to the symmetry of processes with equal programs and to
    those slots; ``executions`` then counts terminal search states (async),
    or (sync) completed kernel runs: one per pick outcome under each orbit's
    pattern, with each block's first picks taken once per multiset (see
    ``explore``), and none for a run a pick forks.  Only a larger
    synchronous cell is sampled: it runs exactly ``sample_runs`` random
    (seed, fp) pairs drawn from ``sample_seed`` over every failure pattern
    at every slot, and ``executions`` counts those runs.
    """

    sample_runs: int = 10_000
    sample_seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_runs < 0:
            raise ValueError(f"sample_runs (--budget) must be at least 0, got {self.sample_runs}")


@dataclass
class Verdict:
    """Outcome of exploring one instance against a target family."""

    target: SetOfOutputSets
    violations: List[ExecutionTrace] = field(default_factory=list)
    witnesses: Dict[OutputSet, ExecutionTrace] = field(default_factory=dict)
    executions: int = 0
    exhaustive: bool = False
    failure_patterns: int = 0  # the cell's failure patterns, at every slot
    failure_pattern_orbits: int = 0  # orbits at crash slots: what exhaustive mode explores
    states: Optional[int] = None  # the async search's visited states; None for a sync cell

    @property
    def observed(self) -> SetOfOutputSets:
        """Every output set reached: ``explore`` keeps one evidence trace
        for each."""
        return frozenset(self.witnesses).union(t.output_set() for t in self.violations)

    @property
    def safety_ok(self) -> bool:
        return not self.violations

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
            "executions": self.executions,
            "exhaustive": self.exhaustive,
            "failure_patterns": self.failure_patterns,
            "failure_pattern_orbits": self.failure_pattern_orbits,
            "states": self.states,
            "witness_refs": sorted(str(m) for m in self.witnesses),
        }


def _choice_bound(instance: AlgorithmInstance) -> int:
    bound = 1
    for program in instance.programs():
        for stmt in program.statements:
            if isinstance(stmt, Pick):
                bound *= len(stmt.candidates)
    return bound


def _block_bound(program, members: int) -> int:
    """A bound on the pick outcomes of a block of ``members`` processes that
    run ``program``, its first picks taken once per multiset: the block's
    first pick may be any of the program's picks, and each member makes
    every other pick at most once."""
    sizes = [len(stmt.candidates) for stmt in program.statements if isinstance(stmt, Pick)]
    whole = math.prod(sizes)
    return max([math.comb(size + members - 1, members) * (whole // size) ** members
                for size in sizes], default=1)


def _block_run_bound(programs: Sequence, cfg: SystemConfig, cap: float) -> int:
    """A bound on the completed runs of a synchronous cell's exhaustive
    enumeration (``branch_choices`` with ``_blocks`` under each orbit's
    pattern): the sum over the orbits' patterns of the product of
    ``_block_bound`` over their blocks, given up once it passes ``cap``."""
    total, bounds = 0, {}
    for fp in enum_failure_pattern_orbits(cfg.n, cfg.t, programs):
        runs = 1
        for block in _blocks(programs, fp):
            shape = (programs[block[0] - 1], len(block))
            if shape not in bounds:
                bounds[shape] = _block_bound(*shape)
            runs *= bounds[shape]
        total += runs
        if total > cap:
            break
    return total


def branch_choices(
    run_one, blocks: Sequence[Sequence[int]] = ()
) -> Iterator[Tuple[Dict, object]]:
    """Enumerate pick outcomes by forking scripts on demand.

    ``run_one`` takes a ChoiceStream and returns a result; whenever an
    unscripted pick site is reached the script forks once per candidate, so
    the leaves cover exactly the reachable choice combinations.  ``blocks``
    holds runs of pids in ascending order: when a block's lowest pid needs
    its first pick (counter 0), the script forks once per non-decreasing
    tuple of candidates instead, one value per member in pid order, so the
    leaves cover every outcome up to permutations within blocks (``explore``
    says when that reaches every output set).  With no blocks, every
    outcome.
    """
    firsts = {block[0]: block for block in blocks}
    stack: List[Dict] = [{}]
    while stack:
        picks = stack.pop()
        try:
            yield picks, run_one(ScriptedChoices(picks))
        except ChoiceNeeded as need:
            pids = firsts.get(need.pid, (need.pid,)) if need.counter == 0 else (need.pid,)
            for values in itertools.combinations_with_replacement(need.candidates, len(pids)):
                forked = dict(picks)
                forked.update(((pid, need.counter), value) for pid, value in zip(pids, values))
                stack.append(forked)


def _blocks(programs: Sequence, fp: FailurePattern) -> List[List[int]]:
    """The pids of each class of equal programs that ``fp`` crashes at one
    slot or leaves uncrashed, in ascending order."""
    blocks: Dict[tuple, List[int]] = {}
    for pid, program in enumerate(programs, 1):
        blocks.setdefault((program, fp.slot_of(pid)), []).append(pid)
    return list(blocks.values())


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
) -> Verdict:
    """Explore executions and judge safety/completeness against the family
    of the instance's own line (``instance.target_members()``).

    A synchronous cell runs every pick outcome under every failure pattern.
    An asynchronous cell is one search of the kernel's state graph
    (``search_async``), which covers every schedule and pick outcome, and
    every failure pattern as crash moves.  "Every failure pattern" is up to
    two reductions.  Crashes are placed only at ``Program.crash_slots``,
    where other processes can tell them apart.  Processes with equal bound programs are
    interchangeable: a synchronous cell runs one pattern per orbit under
    permutations of them (``enum_failure_pattern_orbits``), and the
    asynchronous search keys its states up to those permutations.  Under
    each orbit's pattern a synchronous cell also runs the first picks of a
    block (``_blocks``) once per multiset of values (``branch_choices``).  A
    synchronous cell over its budget is sampled instead, and an
    asynchronous search over it stops short; ``ExplorationBudget`` says
    when.

    Why crashing only at the crash slots reaches every output set, for any
    program under either timing: call an ``Output`` or a ``Communicate`` an
    effect.  Another process reads a process only through the items it
    emits, and the output set reads only its output.

    - Between effects: let no effect lie in statements k..k'-1 of process
      p's program.  With everything else fixed (choice stream, schedule,
      the other crashes), crashing p at slot k or at slot k' gives runs
      with the same emissions, at the same moves, and the same output of
      p.  What p runs in between are picks, local writes and waits: its
      picks are keyed by its own pid, its locals and the items delivered to
      it reach no one else, and a wait only stops it earlier.  So every
      choice stream and schedule reaches the same output set in both
      runs, and a crash may move to the first slot of its stretch: slot 0,
      or the slot right after an effect.
    - After the last effect: by the same argument a crash there is the
      same as no crash, and that pattern, with one crash fewer, is already
      enumerated.

    Why one pattern per orbit, or one state per relabelling class, reaches
    every output set, for any program under either timing: let a
    permutation of processes with equal programs relabel a failure pattern
    (equal programs have equal crash slots), or a search state.  The
    output set holds values and no pid, so it suffices that the relabelled
    runs, picks keyed by the relabelled pids, reach the same output sets.
    A process reads only its own program, locals, output, picks and
    observations, and observations only as (tag, value) pairs: guards test
    them, and a binding wait takes its tag's first value.  Items landing
    together (at a sync barrier, in one async move or at the deadline step)
    land in value order (``InfoItem.sort_key``), so a tag's first item among
    them carries its least value, and no sender id reaches any process.  A
    crash offer reads only the process's own pc and how many have crashed.
    So relabelling commutes with every kernel step and search move, and the
    relabelled run gives each process the state of its preimage.

    Why a block's first picks need be taken once per multiset, under a
    synchronous cell's pattern: call a block the pids of one class of equal
    programs that the pattern crashes at one slot, or leaves uncrashed.
    Until its first pick, a member's state follows from its program, its
    crash slot and what it observes, and each round barrier delivers the
    same items to every live process.  So the members run in lock step: they
    reach their first pick at the same statement of the same phase, with the
    same candidates, lowest pid first, since a phase runs processes in pid
    order and no pick is seen by another process before the next barrier
    (or they all crash before it, and none picks).  A permutation within
    blocks fixes the pattern, so by the relabelling argument it maps each
    run to a run with the same output set, and the permutation that sorts
    each block's first picks in pid order maps every pick outcome to one
    whose first picks are non-decreasing there.  A process crashed at
    another slot, or not at all, may tell the members apart, so it is in
    another block.  Later picks are taken one by one: after the first, the
    members' states may differ.
    """
    budget = budget or ExplorationBudget()
    instance = _bind(instance, cfg)
    target = instance.target_members()
    if cfg.timing is not instance.timing:
        raise PreconditionError(
            f"{instance.kind.value} instance is built for {instance.timing}"
        )

    # One search (async); or, when the runs fit the cap, every pick outcome
    # under one failure pattern per orbit (sync); otherwise sample_runs
    # seeded draws.
    programs = instance.programs()
    orbits = count_failure_pattern_orbits(cfg.n, cfg.t, programs)
    cap = max(SIZE_CAP, budget.sample_runs)
    verdict = Verdict(
        target=target,
        failure_patterns=count_failure_patterns(
            cfg.n, cfg.t, [p.slot_count for p in programs]
        ),
        failure_pattern_orbits=orbits,
    )

    def unrecorded(choices, fp):
        trace = run(instance, cfg, choices, fp, record=False)
        verdict.executions += 1
        return choices, fp, (), trace.output_set()

    if cfg.timing is Timing.ASYNC:
        outcome = search_async(instance, cfg, cap)
        verdict.exhaustive = outcome.complete
        verdict.states = outcome.states
        verdict.executions = outcome.terminals
        found = (
            (choices, fp, schedule, reached)
            for reached, (choices, fp, schedule) in outcome.found.items()
        )
    elif _choice_bound(instance) * orbits <= cap or (
        # Only a block of two or more takes first picks as multisets.
        len(set(programs)) < len(programs) and _block_run_bound(programs, cfg, cap) <= cap
    ):
        verdict.exhaustive = True
        found = (
            leaf
            for fp in enum_failure_pattern_orbits(cfg.n, cfg.t, programs)
            for _, leaf in branch_choices(
                functools.partial(unrecorded, fp=fp), _blocks(programs, fp)
            )
        )
    else:
        rng = random.Random(budget.sample_seed)
        draws = itertools.islice(_draws(instance, cfg, rng), budget.sample_runs)
        found = (unrecorded(SeededChoices(seed), fp) for seed, fp in draws)

    observed = set()
    for choices, fp, schedule, reached in found:
        if reached in observed:
            continue
        observed.add(reached)
        full = run(instance, cfg, choices, fp, schedule)
        if full.output_set() is not reached:
            raise KernelError(
                f"recorded run under {fp.describe()} gave {full.output_set()}, not {reached}"
            )
        if reached in target:
            verdict.witnesses[reached] = full
        else:
            verdict.violations.append(full)
    return verdict


def _draws(
    instance: AlgorithmInstance, cfg: SystemConfig, rng: random.Random
) -> Iterator[Tuple[int, FailurePattern]]:
    """Endless random (choice seed, fp) pairs for a bound instance, drawn
    from ``rng``."""
    slot_counts = [p.slot_count for p in instance.programs()]
    while True:
        yield rng.getrandbits(48), sample_failure_pattern(rng, cfg.n, cfg.t, slot_counts)


def sample_traces(
    instance: AlgorithmInstance,
    cfg: SystemConfig,
    count: int,
    meta_seed: int = 0,
    record: bool = False,
) -> Iterator[ExecutionTrace]:
    """Seeded random runs for safety audits and medium checks: each a
    choice seed and a failure pattern drawn from ``meta_seed``, and under
    asynchrony a walk over the enabled moves drawn from the same stream,
    which the trace records as its schedule."""
    instance = _bind(instance, cfg)
    rng = random.Random(meta_seed)
    walk = rng if cfg.timing is Timing.ASYNC else None
    for seed, fp in itertools.islice(_draws(instance, cfg, rng), count):
        yield run(instance, cfg, SeededChoices(seed), fp, walk, record=record)


# ---------------------------------------------------------------------------
# Table reproduction.


@dataclass
class CellReport:
    line: int
    timing: Timing
    n: int
    t: int
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
            "condition": str(tight_condition(self.line, self.timing)),
            **self.verdict.summary(),
        }


@dataclass
class TableReport:
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
) -> TableReport:
    """Explore every solvable (line, timing, n, t) cell with n <= n_max.

    Line 16's condition is always false, so it contributes no cells; the
    report passes iff every explored cell is safe and complete.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    report = TableReport()
    for line in range(1, 17):
        for timing in (Timing.ASYNC, Timing.SYNC):
            condition = tight_condition(line, timing)
            for n in range(0, n_max + 1):
                for t in range(0, n + 1):
                    if not condition.holds(n, t):
                        continue
                    instance = instance_for_line(line, timing).bind(n, t)
                    cfg = SystemConfig(n, t, timing)
                    verdict = explore(instance, cfg, budget)
                    report.cells.append(CellReport(line, timing, n, t, verdict))
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


@dataclass
class WitnessResult:
    """A singleton violation of a line-7/8 cell outside its condition, and the
    cell's verdict; the trace's header holds the choices, fp and schedule."""

    trace: ExecutionTrace
    verdict: Verdict

    @property
    def output_set(self) -> OutputSet:
        return self.trace.output_set()


def witness(cfg: SystemConfig, no_out: bool = False) -> WitnessResult:
    """A run of line 7's (``no_out``) or line 8's disagreement algorithm,
    bound permissively at a cell outside the line's tight condition, that
    outputs one value only: the first such violation ``explore`` finds.
    """
    line = 7 if no_out else 8
    condition = tight_condition(line, cfg.timing)
    if condition.holds(cfg.n, cfg.t):
        raise PreconditionError(
            f"condition satisfied at n={cfg.n}, t={cfg.t} ({condition}) for line "
            f"{line} under {cfg.timing.value}; nothing to witness"
        )
    instance = instance_for_line(line, cfg.timing).bind(cfg.n, cfg.t, permissive=True)
    verdict = explore(instance, cfg)
    for trace in verdict.violations:
        if trace.output_set() in (OutputSet.ZERO, OutputSet.ONE):
            return WitnessResult(trace, verdict)
    violating = sos_str(verdict.observed - verdict.target)
    raise WitnessSearchError(f"no singleton output set among the violations {violating}")


# The names bench/workloads.py imports; the benchmark revision removes them.
witness_lone_survivor = witness_split_crash = witness
