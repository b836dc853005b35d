"""Verdict engine: exploration, table cells, bounds screen, witnesses."""

import dataclasses
import hashlib

import pytest
from conftest import audit_instances

from binsos.algorithms import instance_for_line
from binsos.checker import (
    SIZE_CAP,
    ExplorationBudget,
    TableReport,
    _choice_bound,
    bounds_screen,
    check_table,
    explore,
    sample_traces,
    witness,
)
from binsos.outputsets import OutputSet, SystemConfig, Timing, line_members, sos, tight_condition
from binsos.patterns import count_failure_pattern_orbits
from binsos.simkernel import PreconditionError, medium_check, replay


SMALL = ExplorationBudget()


def test_sampled_audit_traces_are_pinned():
    # The recorded bytes of 50 sampled traces per acceptance-4 group at
    # meta-seed 5: the draws, the walks, the runs and their encoding cannot
    # drift.
    digest = hashlib.sha256()
    count = 0
    for inst, cfg, share in audit_instances(per_algorithm=50):
        for trace in sample_traces(inst, cfg, share, meta_seed=5, record=True):
            digest.update(trace.to_jsonl().encode())
            count += 1
    assert count == 300
    assert digest.hexdigest() == (
        "339c1374aef280c4fae23703275b6e05ace063d24c0943cee4a4e6cc0a5235c4"
    )


@pytest.mark.parametrize(
    "line, t, count", [(1, 5, 500), (9, 5, 500), (3, 5, 500), (7, 2, 1000)]
)
def test_sampled_walks_reach_every_member(line, t, count):
    # The four async audit cells at n = 5: the first draws of meta-seed 0
    # reach every member of the line's family, so the walk over enabled
    # moves does not collapse onto the deadline step.
    cfg = SystemConfig(5, t, Timing.ASYNC)
    traces = sample_traces(instance_for_line(line, Timing.ASYNC), cfg, count)
    reached = {trace.output_set() for trace in traces}
    assert reached == line_members(line)


class TestExplore:
    def test_silent_alphabet_cell(self):
        inst = instance_for_line(15, Timing.ASYNC).bind(1, 1)
        verdict = explore(inst, SystemConfig(1, 1, Timing.ASYNC), SMALL)
        assert verdict.observed == sos(OutputSet.EMPTY)
        assert verdict.ok and verdict.exhaustive

    def test_sync_consensus_cell(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        verdict = explore(inst, SystemConfig(2, 1, Timing.SYNC), SMALL)
        assert verdict.observed == line_members(10)
        assert OutputSet.BOTH not in verdict.observed
        assert OutputSet.EMPTY not in verdict.observed
        assert verdict.ok

    def test_async_disagreement_cell(self):
        inst = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        verdict = explore(inst, SystemConfig(5, 2, Timing.ASYNC), SMALL)
        assert verdict.observed == line_members(7)
        assert verdict.ok

    def test_wrong_target_is_reported_unsafe(self):
        # Line 8 sync needs n >= t+2, so its family {{0,1}} is the wrong
        # target at n=2, t=1: crashing one process leaves a singleton.
        inst = instance_for_line(8, Timing.SYNC).bind(2, 1, permissive=True)
        verdict = explore(inst, SystemConfig(2, 1, Timing.SYNC), SMALL)
        assert not verdict.safety_ok
        assert verdict.status == "unsafe"
        assert {trace.output_set() for trace in verdict.violations} == {
            OutputSet.ZERO, OutputSet.ONE,
        }
        for trace in verdict.violations:
            assert replay(trace.header).to_jsonl() == trace.to_jsonl()

    def test_completeness_witnesses_replay(self):
        inst = instance_for_line(9, Timing.ASYNC).bind(2, 1)
        verdict = explore(inst, SystemConfig(2, 1, Timing.ASYNC), SMALL)
        assert verdict.ok
        for member, trace in verdict.witnesses.items():
            again = replay(trace.header)
            assert again.output_set() is member
            assert again.to_jsonl() == trace.to_jsonl()

    def test_sampled_mode_reports_budget_distinctly(self):
        # Every process of this cell has its own program, so no symmetry
        # merges its failure patterns, and even over the crash slots alone
        # orbits times pick outcomes exceed SIZE_CAP: it is sampled.
        inst = instance_for_line(7, Timing.SYNC).bind(8, 6)
        orbits = count_failure_pattern_orbits(8, 6, inst.programs())
        assert orbits == 18_015
        assert _choice_bound(inst) * orbits == 2_305_920 > SIZE_CAP
        budget = ExplorationBudget(sample_runs=3)
        verdict = explore(inst, SystemConfig(8, 6, Timing.SYNC), budget)
        # Exactly the seeded draws ran, and every evidence trace is one.
        assert verdict.executions == 3
        evidence = [*verdict.witnesses.values(), *verdict.violations]
        assert evidence
        assert all(trace.header["choices"]["mode"] == "seed" for trace in evidence)
        assert not verdict.exhaustive
        if verdict.missing:
            assert verdict.status == "not_witnessed_within_budget"
        assert verdict.safety_ok

    def test_budget_cannot_set_the_horizon(self):
        assert [f.name for f in dataclasses.fields(ExplorationBudget)] == [
            "sample_runs", "sample_seed",
        ]

    def test_timing_mismatch_rejected(self):
        inst = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        with pytest.raises(PreconditionError):
            explore(inst, SystemConfig(5, 2, Timing.SYNC), SMALL)


def _line_report(table_n4, line, n_max=4):
    """The cells of one line with n <= n_max from the shared n <= 4 table."""
    report, _ = table_n4
    cells = [c for c in report.cells if c.line == line and c.n <= n_max]
    return TableReport(cells)


class TestCheckTable:
    def test_consensus_line_cells(self, table_n4):
        report = _line_report(table_n4, 10)
        async_cells = {(c.n, c.t) for c in report.cells if c.timing is Timing.ASYNC}
        assert async_cells == {(1, 0), (2, 0), (3, 0), (4, 0)}
        sync_cells = {(c.n, c.t) for c in report.cells if c.timing is Timing.SYNC}
        assert sync_cells == {
            (n, t) for n in range(1, 5) for t in range(n)
        }
        assert report.passed

    def test_async_disagreement_cells_follow_the_predicate(self, table_n4):
        report = _line_report(table_n4, 8)
        async_cells = {(c.n, c.t) for c in report.cells if c.timing is Timing.ASYNC}
        expected = {
            (n, t)
            for n in range(0, 5)
            for t in range(n + 1)
            if 2 * n > 3 * t + 2 and n >= 2
        }
        assert async_cells == expected == {(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)}

    def test_unsolvable_line_contributes_no_cells(self, table_n4):
        report = _line_report(table_n4, 16)
        assert report.cells == []
        assert report.passed  # vacuously

    def test_row_serialization(self, table_n4):
        report = _line_report(table_n4, 12, n_max=2)
        rows = report.rows()
        assert rows and all(row["condition_holds"] for row in rows)
        assert {"line", "timing", "n", "t", "observed_mask", "safety",
                "completeness", "status", "executions", "exhaustive"} <= set(rows[0])
        # Both processes run one program with a single effect, its output,
        # so of the 1 + 3 + 3 failure patterns of n=2, t=1 only a crash at
        # slot 0 can be seen: 1 + 1 orbits.
        counts = {
            (row["timing"], row["n"], row["t"]):
            (row["failure_patterns"], row["failure_pattern_orbits"])
            for row in rows
        }
        assert counts[("async", 2, 1)] == counts[("sync", 2, 1)] == (7, 2)
        assert counts[("async", 1, 0)] == counts[("sync", 2, 0)] == (1, 1)

    def test_n_max_guard(self):
        with pytest.raises(ValueError):
            check_table(1, SMALL)


class TestBoundsScreen:
    def test_not_enough_processes(self):
        ok, reason = bounds_screen(sos(OutputSet.BOTH), SystemConfig(1, 0, Timing.ASYNC))
        assert not ok and "n >= 2" in reason

    def test_empty_only_needs_nothing(self):
        ok, _ = bounds_screen(sos(OutputSet.EMPTY), SystemConfig(0, 0, Timing.SYNC))
        assert ok

    def test_not_enough_guaranteed_correct(self):
        ok, reason = bounds_screen(
            sos(OutputSet.ZERO, OutputSet.ONE), SystemConfig(3, 3, Timing.SYNC)
        )
        assert not ok and "n - t >= 1" in reason

    def test_every_tight_condition_implies_the_counting_bounds(self):
        # So a cell that binds never fails the screen.
        for line in range(1, 16):
            for timing in Timing:
                condition = tight_condition(line, timing)
                for n in range(9):
                    for t in range(n + 1):
                        if condition.holds(n, t):
                            cfg = SystemConfig(n, t, timing)
                            assert bounds_screen(line_members(line), cfg)[0], (line, cfg)


def _singleton_replays(result):
    text = result.trace.to_jsonl()
    return (
        result.output_set in (OutputSet.ZERO, OutputSet.ONE)
        and result.verdict.exhaustive
        and medium_check(result.trace) == []
        and replay(text).to_jsonl() == text
    )


class TestWitnessSweep:
    CELLS = [
        (SystemConfig(n, t, timing), no_out)
        for timing in Timing
        for no_out in (False, True)
        for n in range(2, 5)
        for t in range(n + 1)
        if not tight_condition(7 if no_out else 8, timing).holds(n, t)
    ]

    def test_cells_outside_the_condition(self):
        assert len(self.CELLS) == 26

    @pytest.mark.parametrize("cfg,no_out", CELLS)
    def test_every_cell_gives_a_replayable_singleton(self, cfg, no_out):
        result = witness(cfg, no_out)
        assert _singleton_replays(result), (cfg, no_out)
        assert result.verdict.status == "unsafe"
        assert result.trace in result.verdict.violations


class TestLoneSurvivorWitness:
    """Cells where at most one process is sure to be correct (n - t < 2)."""

    def test_sync_two_processes(self):
        result = witness(SystemConfig(2, 1, Timing.SYNC))
        assert result.output_set in (OutputSet.ZERO, OutputSet.ONE)
        assert result.trace.header["alg"]["line"] == 8

    def test_async_three_processes(self):
        result = witness(SystemConfig(3, 2, Timing.ASYNC))
        assert result.output_set in (OutputSet.ZERO, OutputSet.ONE)

    def test_survivor_is_the_only_outputter(self):
        result = witness(SystemConfig(2, 1, Timing.ASYNC))
        non_none = [v for v in result.trace.outputs if v is not None]
        assert len(non_none) == 1

    def test_gate_variant_also_breaks(self):
        result = witness(SystemConfig(2, 1, Timing.SYNC), no_out=True)
        assert result.output_set in (OutputSet.ZERO, OutputSet.ONE)
        assert result.trace.header["alg"]["line"] == 7

    def test_rejects_condition_satisfying_configs(self):
        with pytest.raises(PreconditionError, match="condition satisfied"):
            witness(SystemConfig(3, 1, Timing.SYNC))

    def test_witness_trace_replays(self):
        for timing in (Timing.SYNC, Timing.ASYNC):
            for no_out in (False, True):
                assert _singleton_replays(witness(SystemConfig(2, 1, timing), no_out=no_out))


class TestSplitCrashWitness:
    """Asynchronous line-8 cells with n - t >= 2 and 2n <= 3t+2."""

    def test_boundary_configuration(self):
        result = witness(SystemConfig(4, 2, Timing.ASYNC))
        assert result.output_set in (OutputSet.ZERO, OutputSet.ONE)
        assert len(result.trace.header["fp"]["crashes"]) <= 2

    def test_larger_configuration(self):
        result = witness(SystemConfig(5, 3, Timing.ASYNC))
        assert result.output_set in (OutputSet.ZERO, OutputSet.ONE)

    def test_rejects_satisfied_condition(self):
        with pytest.raises(PreconditionError, match="condition satisfied"):
            witness(SystemConfig(5, 2, Timing.ASYNC))

    def test_rejects_no_crash_budget(self):
        # With no crash, every line-7/8 cell with n >= 2 meets its condition.
        for timing in Timing:
            for no_out in (False, True):
                with pytest.raises(PreconditionError, match="condition satisfied"):
                    witness(SystemConfig(2, 0, timing), no_out)

    def test_rejects_synchronous_systems(self):
        # Sync (4, 2) meets n >= t+2, where async (4, 2) misses 2n > 3t+2.
        with pytest.raises(PreconditionError, match="condition satisfied"):
            witness(SystemConfig(4, 2, Timing.SYNC))

    def test_witness_trace_replays(self):
        for n, t in ((4, 2), (2, 1)):
            assert _singleton_replays(witness(SystemConfig(n, t, Timing.ASYNC)))

    def test_rejects_a_single_process(self):
        with pytest.raises(PreconditionError, match="at least 2 processes"):
            witness(SystemConfig(1, 1, Timing.ASYNC))


class TestOracleAgreement:
    # Full-interleaving enumeration against the budgeted explorer; the
    # acceptance suite runs the complete grid, this is the smoke version.
    CELLS = [
        (7, Timing.ASYNC, 3, 1),
        (8, Timing.ASYNC, 3, 1),
        (4, Timing.ASYNC, 2, 1),
        (9, Timing.ASYNC, 3, 1),
        (7, Timing.SYNC, 3, 1),
        (10, Timing.SYNC, 2, 1),
        (1, Timing.SYNC, 2, 1),
    ]

    def test_observed_sets_match(self):
        from binsos.oracle import observed_output_sets

        for line, timing, n, t in self.CELLS:
            inst = instance_for_line(line, timing).bind(n, t)
            cfg = SystemConfig(n, t, timing)
            assert observed_output_sets(inst, cfg) == explore(
                inst, cfg, SMALL
            ).observed, (line, timing, n, t)
