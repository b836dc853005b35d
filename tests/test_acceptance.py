"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is exact (set equality, zero
violations); there are no numeric tolerances anywhere in the artifact.
"""

import time

from conftest import ACCEPTANCE_LINES

from binsos.algorithms import instance_for_line
from binsos.checker import (
    branch_choices,
    sample_traces,
    witness,
)
from binsos.oracle import observed_output_sets
from binsos.outputsets import (
    OutputSet,
    SystemConfig,
    Timing,
    line_members,
    tight_condition,
)
from binsos.patterns import enum_failure_patterns
from binsos.simkernel import medium_check, replay, run

TIMINGS = (Timing.ASYNC, Timing.SYNC)


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, detail


def test_criterion_1_table_matrix_at_desk_scale(table_n4):
    """Every solvable cell with n <= 4 is explored exhaustively and is safe
    and complete over what explore covers: a sync cell's every pick outcome
    under every failure pattern, and an async cell's every reachable kernel
    state under every failure pattern, which spans every pick outcome and
    delay pattern; every failure pattern up to the symmetry of processes
    with equal programs and to the crash slots others can tell apart."""
    report, elapsed = table_n4
    bad = [c.row() for c in report.failures()]
    sampled = [c.row() for c in report.cells if not c.verdict.exhaustive]
    _report(
        "1 table-matrix",
        report.passed and len(report.cells) > 0 and not sampled,
        f"{len(report.cells)} cells explored exhaustively in {elapsed:.0f}s; "
        f"failures: {bad}; not exhaustive: {sampled}",
    )


def test_criterion_2_oracle_equivalence(table_n4):
    """The explorer and the full-interleaving interpreter agree on every
    solvable cell with n <= 4."""
    report, _ = table_n4
    mismatches = []
    start = time.process_time()
    for cell in report.cells:
        inst = instance_for_line(cell.line, cell.timing).bind(cell.n, cell.t)
        cfg = SystemConfig(cell.n, cell.t, cell.timing)
        if cell.verdict.observed != observed_output_sets(inst, cfg):
            mismatches.append((cell.line, cell.timing.value, cell.n, cell.t))
    seconds = time.process_time() - start
    cells = len(report.cells)
    _report(
        "2 oracle-equivalence",
        cells > 0 and not mismatches,
        f"{cells - len(mismatches)}/{cells} cells agree in {seconds:.1f}s oracle CPU; "
        f"mismatches: {mismatches}",
    )


def test_criterion_3_safety_is_budget_independent():
    """10,000 random triples per line at n=5 never leave the allowed family."""
    runs_per_line = 10_000
    total = 0
    escapes = []
    for line in range(1, 16):
        members = line_members(line)
        instances = []
        for timing in TIMINGS:
            condition = tight_condition(line, timing)
            valid_t = [t for t in range(0, 6) if condition.holds(5, t)]
            if valid_t:
                instances.append((timing, max(valid_t)))
        share = runs_per_line // len(instances)
        for timing, t in instances:
            inst = instance_for_line(line, timing)
            cfg = SystemConfig(5, t, timing)
            for trace in sample_traces(inst, cfg, share, meta_seed=line * 31 + t):
                total += 1
                if trace.output_set() not in members:
                    escapes.append((line, timing.value, t, trace.output_set()))
    _report(
        "3 safety-under-sampling",
        total >= 15 * runs_per_line and not escapes,
        f"{total} randomized executions at n=5, 0 tolerated, found {len(escapes)}",
    )


def _audit_instances():
    # 10,000 randomized triples per algorithm at n = 5, split across the
    # timing models each algorithm admits.
    per_algorithm = 10_000
    groups = [
        [(1, Timing.ASYNC), (1, Timing.SYNC)],    # all-output
        [(9, Timing.ASYNC), (9, Timing.SYNC)],    # single-output
        [(3, Timing.ASYNC), (3, Timing.SYNC)],    # timing-adaptive
        [(7, Timing.ASYNC)],                      # asynchronous disagreement
        [(7, Timing.SYNC), (8, Timing.SYNC)],     # synchronous disagreement
        [(10, Timing.SYNC)],                      # synchronous consensus
    ]
    for group in groups:
        share = per_algorithm // len(group)
        for line, timing in group:
            condition = tight_condition(line, timing)
            n = 5
            t = max(t for t in range(0, n + 1) if condition.holds(n, t))
            yield instance_for_line(line, timing), SystemConfig(n, t, timing), share


def test_criterion_4_medium_property_audit():
    """Zero violations of the four medium properties, 10,000 randomized
    traces per algorithm, both timing models covered."""
    audited = 0
    kinds = set()
    dirty = []
    for inst, cfg, share in _audit_instances():
        kinds.add(inst.kind)
        for trace in sample_traces(inst, cfg, share, meta_seed=97, record=True):
            violations = medium_check(trace)
            audited += 1
            if violations:
                dirty.append((inst.kind.value, cfg.timing.value, violations[:2]))
    _report(
        "4 medium-audit",
        audited >= 60_000 and len(kinds) == 6 and not dirty,
        f"{audited} traces audited across all six algorithms, violations: {dirty}",
    )


def test_criterion_5_necessity_witnesses():
    """``explore`` breaks both disagreement algorithms outside the tight
    region: ``witness`` reads from it a run whose output set holds one value,
    and its trace replays byte for byte.

    These are counterexamples against the shipped algorithms, not general
    impossibility proofs.
    """
    singletons = (OutputSet.ZERO, OutputSet.ONE)
    cells = (
        SystemConfig(2, 1, Timing.ASYNC),
        SystemConfig(2, 1, Timing.SYNC),
        SystemConfig(4, 2, Timing.ASYNC),
    )
    problems = []
    for cfg in cells:
        name = f"{cfg.timing.value} ({cfg.n},{cfg.t})"
        result = witness(cfg)
        if result.output_set not in singletons:
            problems.append(f"{name}: produced {result.output_set}")
            continue
        text = result.trace.to_jsonl()
        again = replay(text)
        if again.to_jsonl() != text or again.output_set() is not result.output_set:
            problems.append(f"{name}: witness does not replay")
    _report(
        "5 necessity-witnesses",
        not problems,
        f"{len(cells)} cells outside the condition, each with a replayable "
        f"singleton violation; problems: {problems}",
    )


def test_criterion_6_determinism_and_replay():
    """100 randomly selected traces replay byte-identically from headers."""
    cases = [
        (instance_for_line(7, Timing.ASYNC), SystemConfig(5, 2, Timing.ASYNC)),
        (instance_for_line(8, Timing.SYNC), SystemConfig(4, 2, Timing.SYNC)),
        (instance_for_line(10, Timing.SYNC), SystemConfig(3, 2, Timing.SYNC)),
        (instance_for_line(5, Timing.ASYNC), SystemConfig(4, 4, Timing.ASYNC)),
        (instance_for_line(2, Timing.SYNC), SystemConfig(3, 2, Timing.SYNC)),
    ]
    total = mismatched = 0
    for inst, cfg in cases:
        for trace in sample_traces(inst, cfg, 20, meta_seed=13, record=True):
            total += 1
            text = trace.to_jsonl()
            if replay(text).to_jsonl() != text:
                mismatched += 1
    _report(
        "6 determinism-replay",
        total == 100 and mismatched == 0,
        f"{total} traces, {mismatched} replay mismatches",
    )


def test_criterion_7_sync_consensus_behavior():
    """Exhaustively at n in {1,2,3}, t < n: every execution agrees on one
    value and the observed family is exactly {{0},{1}}."""
    problems = []
    cells = 0
    for n in (1, 2, 3):
        for t in range(0, n):
            cells += 1
            inst = instance_for_line(10, Timing.SYNC).bind(n, t)
            cfg = SystemConfig(n, t, Timing.SYNC)
            observed = set()
            slot_counts = [p.slot_count for p in inst.programs()]
            for fp in enum_failure_patterns(n, t, slot_counts):
                for picks, trace in branch_choices(
                    lambda c, fp=fp: run(inst, cfg, c, fp)
                ):
                    decided = {v for v in trace.outputs if v is not None}
                    if len(decided) != 1:
                        problems.append((n, t, dict(picks), trace.outputs))
                    observed.add(trace.output_set())
            if observed != {OutputSet.ZERO, OutputSet.ONE}:
                problems.append((n, t, "observed", observed))
    _report(
        "7 sync-consensus",
        cells == 6 and not problems,
        f"{cells} (n,t) cells exhaustively enumerated; problems: {problems}",
    )


def test_criterion_8_table_at_n5(table_n5):
    """Every solvable cell with n <= 5 is explored exhaustively, and each
    observed family is exactly its line's."""
    report, seconds = table_n5
    bad = [
        (c.line, c.timing.value, c.n, c.t, c.verdict.status)
        for c in report.cells
        if not (c.ok and c.verdict.exhaustive and c.verdict.observed == line_members(c.line))
    ]
    _report(
        "8 table-n5",
        len(report.cells) == 470 and not bad,
        f"{len(report.cells)} cells explored exhaustively in {seconds:.1f}s CPU; "
        f"failures or not exhaustive: {bad}",
    )


def test_criterion_9_oracle_at_n5(table_n5):
    """The explorer and the full-interleaving interpreter agree on every
    solvable cell with n = 5."""
    report, _ = table_n5
    cells = [c for c in report.cells if c.n == 5]
    mismatches = []
    start = time.process_time()
    for cell in cells:
        inst = instance_for_line(cell.line, cell.timing).bind(cell.n, cell.t)
        cfg = SystemConfig(cell.n, cell.t, cell.timing)
        if cell.verdict.observed != observed_output_sets(inst, cfg):
            mismatches.append((cell.line, cell.timing.value, cell.n, cell.t))
    seconds = time.process_time() - start
    _report(
        "9 oracle-n5",
        len(cells) == 154 and not mismatches,
        f"{len(cells) - len(mismatches)}/{len(cells)} cells agree in {seconds:.1f}s oracle CPU; "
        f"mismatches: {mismatches}",
    )
