"""Asynchronous state-graph search: its reductions, its bound, and that every
kernel run lies inside the family it finds."""

from binsos import algorithms
from binsos.algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from binsos.checker import explore, sample_traces
from binsos.outputsets import OutputSet, SystemConfig, Timing, sos
from binsos.patterns import NO_CRASHES, FailurePattern, all_latest, enum_failure_patterns
from binsos.program import (
    INIT,
    OUTPUT,
    Communicate,
    LocalRef,
    Observed,
    Output,
    Pick,
    Program,
    ScriptedChoices,
    Wait,
)
from binsos.simkernel import (
    _SearchState,
    default_horizon,
    relevant_tags,
    replay,
    run,
    search_async,
)


def _bound(line, n, t):
    return instance_for_line(line, Timing.ASYNC).bind(n, t), SystemConfig(n, t, Timing.ASYNC)


def _root(inst, cfg, picks):
    """The settled root state whose script holds ``picks``."""
    (state,) = [
        s for s in _SearchState(inst, cfg, NO_CRASHES).after(())
        if s.choices.picks == picks
    ]
    return state


def _order(delivery):
    """The kernel's delivery order."""
    receiver, item = delivery
    return (receiver,) + item.sort_key


class TestReductions:
    def test_same_step_batch_to_two_receivers_equals_one_at_a_time(self):
        # L7 at n=4, t=1: p1, p2 form the 0-group, p3 the 1-group, p4 flips;
        # p1 and p2 are the init group.  With both gates 0, both INITs are
        # pending for p1, p2 and p3, which wait for one.
        inst, cfg = _bound(7, 4, 1)
        state = _root(inst, cfg, {(1, 0): 0, (2, 0): 0})
        pending = state.pending[default_horizon(cfg.n)]
        to_p1 = tuple(sorted((d for d in pending if d[0] == 1), key=_order))
        to_p3 = tuple(sorted((d for d in pending if d[0] == 3), key=_order))
        assert len(to_p1) == len(to_p3) == 2
        together = state.after(tuple(sorted(to_p1 + to_p3, key=_order)))
        apart = [s for first in state.after(to_p1) for s in first.after(to_p3)]
        assert [s.key() for s in together] == [s.key() for s in apart]
        # Both receivers ran: p1 output 0 and p3 output 1, and their OUTPUT
        # items now wait for the flip process p4 beside p2's INITs.
        (after,) = together
        assert after.procs[0].output == 0 and after.procs[2].output == 1
        pending = after.pending[default_horizon(cfg.n)]
        assert {(r, item.tag) for r, item in pending} == {(2, INIT), (4, OUTPUT)}

    def test_deadline_step_wakes_waiters_before_landing(self):
        # L4 at n=2, t=0: the designated p1 waits for the deadline; p2
        # outputs 1 and communicates OUTPUT(1), which is still pending at H.
        inst, cfg = _bound(4, 2, 0)
        root = _root(inst, cfg, {})
        pending = root.pending[default_horizon(cfg.n)]
        assert [(r, item.tag, item.value) for r, item in pending] == [(1, OUTPUT, 1)]
        leaves = root.after(None)
        # p1 woke and saw no OUTPUT(1), so it output w = 1 without picking.
        assert [(s.choices.picks, tuple(p.output for p in s.procs)) for s in leaves] == [
            ({}, (1, 1))
        ]
        latest = all_latest(default_horizon(cfg.n))
        assert run(inst, cfg, ScriptedChoices(), NO_CRASHES, latest).outputs == (1, 1)

    def test_relevant_tags_of_the_async_disagreement_programs(self):
        for line, n, t in ((7, 4, 1), (8, 4, 1), (7, 5, 2)):
            inst, _ = _bound(line, n, t)
            programs = inst.programs()
            for pid in inst.roles.flip_group:
                # A flip process reads OUTPUT at its wait and nothing after it.
                table = relevant_tags(programs[pid - 1])
                wait = len(programs[pid - 1].statements) - 2
                assert table[wait] == {OUTPUT}
                assert all(tags == frozenset() for tags in table[wait + 1:])
            for pid in inst.roles.zero_group + inst.roles.one_group:
                table = relevant_tags(programs[pid - 1])
                assert OUTPUT not in frozenset().union(*table)
                assert (INIT in table[0]) == (line == 7)

    def test_pending_items_are_part_of_the_state(self, monkeypatch):
        # p1 picks v, communicates FOO(v) and is done, so its own state no
        # longer shows v; only the pending item does.  p2 outputs the FOO
        # value it observes.
        timing, params, _ = algorithms._KINDS[AlgorithmKind.SINGLE_OUTPUT]

        def build(instance, pid):
            if pid == 1:
                return Program((Pick("v", (0, 1)), Communicate("FOO", LocalRef("v"))))
            return Program((Wait(Observed("FOO"), dest="x"), Output(LocalRef("x"))))

        kinds = algorithms._KINDS
        monkeypatch.setitem(kinds, AlgorithmKind.SINGLE_OUTPUT, (timing, params, build))
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        cfg = SystemConfig(2, 0, Timing.ASYNC)
        verdict = explore(inst.bind(2, 0), cfg)
        assert verdict.exhaustive
        assert verdict.observed == sos(OutputSet.ZERO, OutputSet.ONE)

    def test_crashed_receiver_gets_no_pending_items(self):
        # p3 crashes before its wait, so no INIT is pending for it.
        inst, cfg = _bound(7, 4, 1)
        fp = FailurePattern.of({3: 0})
        (state,) = [
            s for s in _SearchState(inst, cfg, fp).after(())
            if s.choices.picks == {(1, 0): 0, (2, 0): 0}
        ]
        assert {r for r, _ in state.pending[default_horizon(cfg.n)]} == {1, 2}


class TestBound:
    def test_state_bound_stops_the_search(self):
        inst, cfg = _bound(7, 4, 1)
        whole = search_async(inst, cfg, NO_CRASHES, 10**6)
        assert whole.complete and whole.states > 3
        cut = search_async(inst, cfg, NO_CRASHES, 3)
        assert not cut.complete and cut.states == 3

    def test_executions_count_terminal_states(self):
        inst, cfg = _bound(9, 2, 1)
        verdict = explore(inst, cfg)
        slot_counts = [p.slot_count for p in inst.programs()]
        terminals = sum(
            search_async(inst, cfg, fp, 10**6).terminals
            for fp in enum_failure_patterns(2, 1, slot_counts)
        )
        assert verdict.exhaustive and verdict.executions == terminals


class TestCoverage:
    def test_every_kernel_run_lies_inside_the_search_family(self, table_n4):
        report, _ = table_n4
        escapes = []
        cells = [c for c in report.cells if c.timing is Timing.ASYNC and c.t <= 2]
        assert len(cells) == 128
        for cell in cells:
            inst, cfg = _bound(cell.line, cell.n, cell.t)
            for trace in sample_traces(inst, cfg, 200, meta_seed=cell.line * 31 + cell.t):
                if trace.output_set() not in cell.verdict.observed:
                    escapes.append((cell.line, cell.n, cell.t, trace.output_set()))
        assert escapes == []

    def test_every_async_table_trace_replays(self, table_n4):
        report, _ = table_n4
        traces = [
            trace
            for cell in report.cells
            if cell.timing is Timing.ASYNC
            for trace in list(cell.verdict.witnesses.values()) + cell.verdict.violations
        ]
        # One trace per observed member.
        assert len(traces) == sum(
            len(c.verdict.observed) for c in report.cells if c.timing is Timing.ASYNC
        )
        for trace in traces:
            assert replay(trace.header).to_jsonl() == trace.to_jsonl()
