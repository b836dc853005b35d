"""Asynchronous state-graph search: its reductions, its root composed
from each process's outcomes, its bound, that its states share processes
safely and skip the deadline step only where it moves nothing, that every
kernel run lies inside the family it finds, and that ``explore`` (one
search per async cell, with crash moves at the crash slots and states up
to class symmetry; one pattern per orbit for a sync cell, with each
block's first picks once per multiset) finds the family of every failure
pattern."""

import math
import random

import pytest
from conftest import stretch_representative

from binsos import checker
from binsos.algorithms import AlgorithmInstance, AlgorithmKind, RoleError, instance_for_line
from binsos.checker import ExplorationBudget, branch_choices, explore, sample_traces
from binsos.oracle import observed_output_sets
from binsos.outputsets import OutputSet, SystemConfig, Timing, sos, tight_condition
from binsos.patterns import (
    NO_CRASHES,
    FailurePattern,
    count_failure_pattern_orbits,
    enum_failure_patterns,
)
from binsos.program import (
    COMM,
    COMP,
    INIT,
    OUTPUT,
    Communicate,
    Deadline,
    Flip,
    HasOutput,
    LocalIs,
    LocalRef,
    Observed,
    Output,
    Pick,
    Program,
    ScriptedChoices,
    SetLocal,
    Wait,
)
from binsos.simkernel import (
    _BLOCKED,
    _CRASHED,
    _RUNNING,
    InfoItem,
    KernelError,
    _Kernel,
    _SearchState,
    medium_check,
    replay,
    run,
    search_async,
)


class _PatternState(_SearchState):
    """A search state whose crash offers follow one fixed failure pattern:
    a process crashes at its slot in ``fp``, and nowhere else.  Its search
    is the per-pattern reference that ``explore``'s crash moves replace."""

    def __init__(self, inst, cfg, fp):
        super().__init__(inst, cfg)
        for proc in self.procs:
            slot = fp.slot_of(proc.pid)
            proc.crash_slot = -1 if slot is None else slot

    def _crash(self, proc):
        _Kernel._crash(self, proc)


def _bound(line, n, t):
    return instance_for_line(line, Timing.ASYNC).bind(n, t), SystemConfig(n, t, Timing.ASYNC)


def _root(inst, cfg, picks):
    """The settled failure-free root state whose script holds ``picks``."""
    (state,) = [
        s for s in _PatternState(inst, cfg, NO_CRASHES).after(())
        if s.choices.picks == picks
    ]
    return state


def _pending(state, receiver):
    """The landing move of every pair pending to ``receiver``: the receiver
    and, one per pair, the items it lands, in ``sort_key`` order."""
    items = [state.sent[pair] for pair in state.inbox[receiver - 1]]
    return receiver, tuple(sorted(items, key=lambda item: item.sort_key))


class TestReductions:
    def test_landings_on_two_receivers_commute(self):
        # L7 at n=4, t=1: p1, p2 form the 0-group, p3 the 1-group, p4 flips;
        # p1 and p2 are the init group.  With both gates 0, both INITs are
        # emitted for p1, p2 and p3, which wait for one; they carry one
        # pair, (INIT, None), so each receiver has one delivery pending.
        inst, cfg = _bound(7, 4, 1)
        state = _root(inst, cfg, {(1, 0): 0, (2, 0): 0})
        to_p1, to_p3 = _pending(state, 1), _pending(state, 3)
        assert [(r, item.tag, item.value) for r, items in (to_p1, to_p3) for item in items] == [
            (1, INIT, None), (3, INIT, None)
        ]
        first_p1 = [s for first in state.after(to_p1) for s in first.after(to_p3)]
        first_p3 = [s for first in state.after(to_p3) for s in first.after(to_p1)]
        assert [s.key() for s in first_p1] == [s.key() for s in first_p3]
        # Both receivers ran: p1 output 0 and p3 output 1, and their OUTPUT
        # items now wait for the flip process p4 beside p2's INIT.
        (after,) = first_p1
        assert after.procs[0].output == 0 and after.procs[2].output == 1
        pending = [(r, *pair) for r, pairs in enumerate(after.inbox, 1) for pair in pairs]
        assert sorted(pending, key=str) == [(2, INIT, None), (4, OUTPUT, 0), (4, OUTPUT, 1)]

    def test_deadline_step_wakes_waiters_before_landing(self):
        # L4 at n=2, t=0: the designated p1 waits for the deadline; p2
        # outputs 1 and communicates OUTPUT(1), which is still pending to p1.
        inst, cfg = _bound(4, 2, 0)
        root = _root(inst, cfg, {})
        receiver, items = _pending(root, 1)
        assert [(receiver, item.tag, item.value) for item in items] == [(1, OUTPUT, 1)]
        assert not any(root.inbox[1:])
        leaves = root.after(None)
        # p1 woke and saw no OUTPUT(1), so it output w = 1 without picking.
        assert [(s.choices.picks, tuple(p.output for p in s.procs)) for s in leaves] == [
            ({}, (1, 1))
        ]
        # So does the kernel run under the empty schedule.
        assert run(inst, cfg, ScriptedChoices(), NO_CRASHES).outputs == (1, 1)

    def test_relevant_tags_of_the_async_disagreement_programs(self):
        for line, n, t in ((7, 4, 1), (8, 4, 1), (7, 5, 2)):
            inst, _ = _bound(line, n, t)
            programs = inst.programs()
            for pid in inst.roles.flip_group:
                # A flip process reads OUTPUT at its wait and nothing after it.
                table = programs[pid - 1].relevant_tags
                wait = len(programs[pid - 1].statements) - 2
                assert table[wait] == {OUTPUT}
                assert all(tags == frozenset() for tags in table[wait + 1:])
            for pid in inst.roles.zero_group + inst.roles.one_group:
                table = programs[pid - 1].relevant_tags
                assert OUTPUT not in frozenset().union(*table)
                assert (INIT in table[0]) == (line == 7)

    def test_pending_items_are_part_of_the_state(self, patch_builder):
        # p1 picks v, communicates FOO(v) and is done, so its own state no
        # longer shows v; only the pending item does.  p2 outputs the FOO
        # value it observes.
        def build(instance, pid):
            if pid == 1:
                return Program((Pick("v", (0, 1)), Communicate("FOO", LocalRef("v"))))
            return Program((Wait(Observed("FOO"), dest="x"), Output(LocalRef("x"))))

        patch_builder(AlgorithmKind.SINGLE_OUTPUT, build)
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        cfg = SystemConfig(2, 0, Timing.ASYNC)
        verdict = explore(inst.bind(2, 0), cfg)
        assert verdict.exhaustive
        assert verdict.observed == sos(OutputSet.ZERO, OutputSet.ONE)

    def test_crashed_receiver_gets_no_pending_items(self):
        # p3 takes the crash offer at its slot 0, before its wait, so no
        # INIT is pending for it.
        inst, cfg = _bound(7, 4, 1)
        (state,) = [
            s for s in _SearchState(inst, cfg).after(())
            if s.choices.picks == {(1, 0): 0, (2, 0): 0}
            and [p.status == _CRASHED for p in s.procs] == [False, False, True, False]
        ]
        assert state.procs[2].pc == 0 and _inputs(state)[1] == FailurePattern.of({3: 0})
        assert {r for r, pairs in enumerate(state.inbox, 1) if pairs} == {1, 2}


class TestLongPaths:
    def test_a_path_of_more_than_4n_moves_runs_and_replays(self, patch_builder):
        # p1 and p2 hand off five times, each on a tag of its own: p1 sends
        # A1, p2 answers B1 once A1 has landed, and so on up to A5.  p2
        # outputs 1 if A5 lands before the deadline step and 0 if the
        # deadline step lands it, so {1} needs a path of nine landings, more
        # than 4n = 8 moves.
        p1, p2 = [], []
        for k in range(1, 6):
            p1.append(Communicate(f"A{k}", 0))
            p2.append(Wait(Observed(f"A{k}")))
            if k < 5:
                p1.append(Wait(Observed(f"B{k}")))
                p2.append(Communicate(f"B{k}", 0))
        p2 += [Output(1, guard=(Deadline(negate=True),)), Output(0, guard=(Deadline(),))]
        programs = (Program(tuple(p1)), Program(tuple(p2)))
        patch_builder(AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: programs[pid - 1])
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        inst, cfg = inst.bind(2, 0), SystemConfig(2, 0, Timing.ASYNC)
        verdict = explore(inst, cfg)
        assert verdict.exhaustive and verdict.observed == sos(OutputSet.ZERO, OutputSet.ONE)
        (trace,) = [t for t in [*verdict.witnesses.values(), *verdict.violations]
                    if t.output_set() is OutputSet.ONE]
        schedule = trace.header["schedule"]
        assert len(schedule) == 9 > 4 * cfg.n
        assert [receiver for receiver, _ in schedule] == [2, 1] * 4 + [2]
        again = replay(trace.to_jsonl())
        assert (again.outputs, again.termination) == ((None, 1), "ALL_DONE")
        assert again.to_jsonl() == trace.to_jsonl() and medium_check(trace) == []


class TestBound:
    def test_state_bound_stops_the_search(self):
        inst, cfg = _bound(7, 4, 1)
        whole = search_async(inst, cfg, 10**6)
        assert whole.complete and whole.states > 3
        cut = search_async(inst, cfg, 3)
        assert not cut.complete and cut.states == 3

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_state_bound_stops_explore(self, monkeypatch, cap):
        # One search of 12 states: a cap below that cuts it short.
        inst, cfg = _bound(7, 4, 0)
        assert search_async(inst, cfg, 10**6).states == 12
        monkeypatch.setattr(checker, "SIZE_CAP", cap)
        verdict = explore(inst, cfg, ExplorationBudget(sample_runs=0))
        assert not verdict.exhaustive
        assert verdict.status != "incomplete"
        evidence = [*verdict.witnesses.values(), *verdict.violations]
        assert evidence
        for trace in evidence:
            assert replay(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()

    def test_more_orbits_than_the_bound_are_searched_not_sampled(self, monkeypatch):
        # An async cell is one search whatever its orbit count, so the state
        # bound alone cuts a cell with more orbits than the bound short.
        inst, cfg = _bound(9, 2, 1)
        assert count_failure_pattern_orbits(2, 1, inst.programs()) == 2
        monkeypatch.setattr(checker, "SIZE_CAP", 1)
        verdict = explore(inst, cfg, ExplorationBudget(sample_runs=0))
        assert not verdict.exhaustive and verdict.states == 1
        assert verdict.executions == 1 and verdict.observed == {OutputSet.ZERO}

    def test_executions_count_terminal_states(self):
        inst, cfg = _bound(9, 2, 1)
        verdict = explore(inst, cfg)
        outcome = search_async(inst, cfg, 10**6)
        assert verdict.exhaustive and verdict.executions == outcome.terminals
        assert verdict.states == outcome.states


def _settled_states(inst, cfg):
    """Every distinct settled state of the cell's search, each yielded
    before the walk takes its landing moves."""
    seen = set()
    todo = _SearchState(inst, cfg).after(())
    while todo:
        state = todo.pop()
        key = state.key()
        if key in seen:
            continue
        seen.add(key)
        yield state
        todo.extend(s for b in state.batches() for s in state.after(b))


def _every_async_search(n_max):
    """(instance, cfg) of every solvable async cell with n <= n_max."""
    for line in range(1, 17):
        condition = tight_condition(line, Timing.ASYNC)
        for n in range(n_max + 1):
            for t in range(n + 1):
                if condition.holds(n, t):
                    yield _bound(line, n, t)


def _contents(state):
    """What a state holds, read afresh from its processes, inboxes, pending
    list, crash count and picks."""
    procs = [
        (p.pc, p.status, p.crash_slot, p.output, dict(p.locals),
         p.seen, dict(p.first),
         p.pick_counter, p.emission_counter)
        for p in state.procs
    ]
    pending = [dict(box) for box in state.pending]
    return (procs, list(state.inbox), dict(state.sent), pending, state.crashed,
            dict(state.choices.picks), state.schedule)


def _outputs(state):
    return tuple(p.output for p in state.procs)


def _inputs(state):
    """The picks, failure pattern and schedule of the kernel run along the
    state's path, as ``search_async`` stores them for an output set."""
    crashed = {p.pid: p.pc for p in state.procs if p.status == _CRASHED}
    return state.choices.picks, FailurePattern.of(crashed), state.schedule


class TestSearchStates:
    def test_moves_leave_the_state_they_start_from_unchanged(self):
        # States share processes copy-on-write: a move that wrote to a
        # shared process would change the state it started from.
        checked = 0
        for inst, cfg in _every_async_search(4):
            for state in _settled_states(inst, cfg):
                key, before = state.key(), _contents(state)
                for batch in [*state.batches(), None]:
                    state.after(batch)
                assert state.key() == key and _contents(state) == before
                checked += 1
        assert checked == 1_666

    def test_own_clones_a_shared_process_once_and_clears_its_key_part(self):
        inst, cfg = _bound(7, 4, 1)
        root = _root(inst, cfg, {(1, 0): 0, (2, 0): 0})
        state = root.fork()
        assert state.procs == root.procs
        proc = state.own(1)
        original = root.procs[0]
        assert proc is not original and state.procs[1:] == root.procs[1:]
        # A fresh clone shares the observations; a delivery replaces them.
        assert proc.seen is original.seen and proc.first is original.first
        seen, first = original.seen, dict(original.first)
        state.deliver(proc, InfoItem(2, 9, "NEW", 1))
        assert original.seen == seen and original.first == first
        assert {("NEW", 1), ("NEW", None)} <= proc.seen and proc.first["NEW"] == 1
        state.key()
        assert proc.key is not None
        assert state.own(1) is proc and proc.key is None

    def test_deadline_shortcut_gives_what_the_deadline_step_gives(self):
        # Where nothing is pending and no blocked process awaits Deadline(),
        # after(None) returns the state itself as its one leaf; taking the
        # deadline step in full gives the same outputs and run inputs.
        applied = skipped = 0
        for inst, cfg in _every_async_search(4):
            for state in _settled_states(inst, cfg):
                if any(state.inbox) or any(
                    p.status == _BLOCKED
                    and isinstance(p.program.statements[p.pc].until, Deadline)
                    for p in state.procs
                ):
                    skipped += 1
                    continue
                applied += 1
                (leaf,) = state.after(None)
                full = state.fork()
                for p in full.procs:
                    full.own(p.pid)
                full._deadline_step()
                for other in (state, full):
                    assert _outputs(leaf) == _outputs(other)
                    assert _inputs(leaf) == _inputs(other)
        assert (applied, skipped) == (1_092, 574)

    def test_root_settles_one_process_at_a_time(self):
        # L5 at n=7, t=7: seven processes with one program, each offered
        # crashes and forking at its picks.  Each process is settled once,
        # on its own, and the six members of the larger block take their
        # outcomes as multisets, so the root holds one state per key, not
        # the product of every process's forks.
        inst, cfg = _bound(5, 7, 7)
        root = _SearchState(inst, cfg).after(())
        assert len({state.key() for state in root}) == len(root) == 252

    @pytest.mark.parametrize(
        "line, n, t, states, terminals",
        [(7, 4, 1, 73, 103), (3, 3, 2, 31, 50), (5, 4, 1, 31, 48), (7, 5, 2, 259, 487),
         (4, 2, 0, 2, 3)],
    )
    def test_state_graph_counts(self, line, n, t, states, terminals):
        # The cell's one search; a cheaper state must be the same state
        # graph.
        inst, cfg = _bound(line, n, t)
        outcome = search_async(inst, cfg, 10**6)
        assert outcome.complete
        assert (outcome.states, outcome.terminals) == (states, terminals)


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


def _one_at_a_time(root):
    """The root settle as a frontier: each running process settled in pid
    order in every state the earlier ones left, a repeated key dropped after
    each.  The reference for the composed root."""
    frontier = [root.fork()]
    for p in root.procs:
        if p.status == _RUNNING:
            unique = {}
            for state in frontier:
                for settled in state._settle(p.pid):
                    unique.setdefault(settled.key(), settled)
            frontier = list(unique.values())
    return frontier


def _root_differs(root):
    """Whether the root settle of ``root`` holds a repeated key, or a set of
    keys other than the frontier reference's."""
    keys = [state.key() for state in root.after(())]
    return len(set(keys)) != len(keys) or set(keys) != {s.key() for s in _one_at_a_time(root)}


class TestRootSettle:
    """At the root nothing lands and ``Deadline()`` does not hold, so each
    process is settled once, alone, and the outcomes are composed, a
    block's as multisets (``search_async`` point 5); a frontier settled one
    process at a time across every state reaches the same keys."""

    def test_the_algorithms_compose_the_frontiers_root(self):
        cells = list(_every_async_search(6))
        assert len(cells) == 316
        assert [cfg for inst, cfg in cells if _root_differs(_SearchState(inst, cfg))] == []

    def test_random_programs_compose_the_frontiers_root(self, p_p_q):
        rng = random.Random(6)
        differ = []
        for k in range(500):
            p, q = _random_program(rng), _random_program(rng)
            t = k % 3
            if _root_differs(_SearchState(p_p_q(p, q, t), SystemConfig(3, t, Timing.ASYNC))):
                differ.append((p, q, t))
        assert differ == []

    def test_a_fixed_failure_pattern_splits_a_block_by_crash_slot(self, p_p_q):
        # Under a fixed pattern, processes with one program but different
        # crash slots reach different outcomes, so they are in different
        # blocks: every pattern at n = 3, t = 2 crashes p1 and p2 at their
        # own slots, or one of them.
        rng = random.Random(7)
        cfg = SystemConfig(3, 2, Timing.ASYNC)
        checked, differ = 0, []
        for _ in range(150):
            p, q = _random_program(rng), _random_program(rng)
            inst = p_p_q(p, q, 2)
            slot_counts = [program.slot_count for program in inst.programs()]
            for fp in enum_failure_patterns(3, 2, slot_counts):
                checked += 1
                if _root_differs(_PatternState(inst, cfg, fp)):
                    differ.append((p, q, fp.crashes))
        assert checked > 5_000 and differ == []


def _pattern_family(inst, cfg, fp):
    """The output sets one failure pattern reaches: by the search whose
    crashes follow ``fp`` for an async cell, and by running every pick
    outcome for a sync cell."""
    if cfg.timing is Timing.ASYNC:
        return frozenset(_PatternState(inst, cfg, fp).search(10**6).found)
    return frozenset(
        trace.output_set()
        for _, trace in branch_choices(
            lambda choices: run(inst, cfg, choices, fp, record=False)
        )
    )


def _every_pattern_family(inst, cfg):
    """The union of the families of every failure pattern, each found on its
    own."""
    slot_counts = [p.slot_count for p in inst.programs()]
    family = set()
    for fp in enum_failure_patterns(cfg.n, cfg.t, slot_counts):
        family |= _pattern_family(inst, cfg, fp)
    return family


def _families_differ(cells):
    """The (line, timing, n, t) cells whose explored family is not the
    union of every failure pattern's family."""
    differ = []
    for line, timing, n, t, observed in cells:
        inst = instance_for_line(line, timing).bind(n, t, permissive=True)
        if _every_pattern_family(inst, SystemConfig(n, t, timing)) != observed:
            differ.append((line, timing.value, n, t))
    return differ


class TestSymmetry:
    def test_one_pattern_per_orbit_finds_every_patterns_family(self, table_n4):
        report, _ = table_n4
        assert len(report.cells) == 316
        cells = [(c.line, c.timing, c.n, c.t, c.verdict.observed) for c in report.cells]
        assert _families_differ(cells) == []

    def test_one_pattern_per_orbit_outside_the_tight_conditions(self):
        # Outside its condition (bound permissively, n = 2, 3) an algorithm
        # breaks under some crashes, so there the failure patterns reach
        # different families; a reduction that missed an orbit would show.
        cells = []
        for line in range(1, 16):
            for timing in Timing:
                for n in (2, 3):
                    for t in range(n + 1):
                        if not tight_condition(line, timing).holds(n, t):
                            inst = instance_for_line(line, timing).bind(n, t, permissive=True)
                            observed = explore(inst, SystemConfig(n, t, timing)).observed
                            cells.append((line, timing, n, t, observed))
        assert len(cells) == 43
        assert _families_differ(cells) == []

    def test_relabelled_patterns_reach_the_same_output_sets(self, p_p_q):
        # p1 and p2 pick v, communicate T(v) and output v; p3 binds the first
        # T value it observes and then reads T again.  A batch landing both T
        # items binds the least value, whoever sent it, so crashing p1 or p2
        # before its output, two relabellings of one orbit, reach the same
        # output sets.
        p = Program((Pick("v", (0, 1)), Communicate("T", LocalRef("v")), Output(LocalRef("v"))))
        both = (Observed("T", 0), Observed("T", 1))
        q = Program((Wait(Observed("T"), dest="x"), Output(Flip("x"), guard=both)))
        first, second = _crash_p1_or_p2(p_p_q(p, q), 2)
        assert first == second and OutputSet.BOTH in first

    def test_relabelled_patterns_reach_the_same_output_sets_on_random_programs(self, p_p_q):
        rng = random.Random(1)
        for _ in range(2_500):
            p, q = _random_program(rng), _random_program(rng)
            inst = p_p_q(p, q)
            for slot in p.crash_slots:
                first, second = _crash_p1_or_p2(inst, slot)
                assert first == second, (p, q, slot)

    def test_class_key_reaches_what_singleton_classes_reach(self, p_p_q):
        # The search's key sorts the ids of each class of processes with
        # equal programs.  An unused initial local that differs per pid
        # makes every class a singleton, so no state is merged with its
        # relabelling; the family must not change.
        rng = random.Random(2)
        cfgs = {t: SystemConfig(3, t, Timing.ASYNC) for t in (0, 1)}
        merged = 0
        for k in range(2_500):
            p, q = _random_program(rng), _random_program(rng)
            t = k % 2
            classes = p_p_q(p, q, t)
            singletons = p_p_q(p, q, t, singletons=True)
            assert singletons.programs()[0] != singletons.programs()[1]
            first = search_async(classes, cfgs[t], 10**6)
            second = search_async(singletons, cfgs[t], 10**6)
            assert set(first.found) == set(second.found), (p, q, t)
            merged += first.states < second.states
        assert merged > 0

    def test_class_key_keeps_members_of_different_classes_apart(self, patch_builder):
        # p1 outputs its pick at the deadline, p2 the complement of its own.
        # The settled states (v1, v2) = (0, 1) and (1, 0) hold the same two
        # key parts (blocked at the deadline wait, v = 0 and v = 1), each in
        # the other class, and they reach {0} and {1}.  A key that merged
        # members of different classes would keep only one of them.
        waits = (Pick("v", (0, 1)), Wait(Deadline()))
        programs = (
            Program(waits + (Output(LocalRef("v")),)),
            Program(waits + (Output(Flip("v")),)),
        )
        patch_builder(AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: programs[pid - 1])
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        cfg = SystemConfig(2, 0, Timing.ASYNC)
        verdict = explore(inst.bind(2, 0), cfg)
        assert verdict.exhaustive
        assert verdict.observed == sos(OutputSet.ZERO, OutputSet.ONE, OutputSet.BOTH)
        assert verdict.observed == observed_output_sets(inst.bind(2, 0), cfg)

    def test_crash_slot_of_a_key_part_follows_from_program_pc_and_t(self):
        # _SearchState.key keeps each live process's next crash slot; in
        # every settled state it is the first crash slot after the pc, or -1
        # (none left, or t = 0), so it merges no states the pc keeps apart.
        checked = sum(_blocked_crash_slots(inst, cfg) for inst, cfg in _every_async_search(5))
        assert checked > 1_000

    def test_crash_slot_of_a_key_part_on_random_programs(self, p_p_q):
        rng = random.Random(4)
        checked = 0
        for k in range(300):
            t = k % 2
            inst = p_p_q(_random_program(rng), _random_program(rng), t)
            checked += _blocked_crash_slots(inst, SystemConfig(3, t, Timing.ASYNC))
        assert checked > 1_000


def _blocked_crash_slots(inst, cfg):
    """How many blocked processes the settled states of the cell's search
    hold, each checked to keep as its crash slot the first of its
    program's crash slots after its pc, or -1 for none or t = 0."""
    checked = 0
    for state in _settled_states(inst, cfg):
        for p in state.procs:
            if p.status == _BLOCKED:
                later = [s for s in p.program.crash_slots if s > p.pc]
                assert p.crash_slot == (later[0] if later and cfg.t else -1)
                checked += 1
    return checked


def _crash_p1_or_p2(inst, slot):
    """The output sets reached when process 1 crashes at ``slot``, and when
    process 2 does, at async n = 3, t = 1."""
    cfg = SystemConfig(3, 1, Timing.ASYNC)
    return [
        set(_PatternState(inst, cfg, FailurePattern.of({pid: slot})).search(10**6).found)
        for pid in (1, 2)
    ]


@pytest.fixture
def p_p_q(patch_builder):
    """Binds programs P and Q to an async instance at n = 3 (t = 1 unless
    given) whose processes 1 and 2 run P and whose process 3 runs Q.  With
    ``singletons``, each process also gets an initial local ``pid`` that no
    statement reads, holding its pid, so no two programs are equal."""
    drawn, unused = [], []

    def build(instance, pid):
        program = drawn[pid > 2]
        return Program(program.statements, (("pid", pid),)) if unused else program

    patch_builder(AlgorithmKind.SINGLE_OUTPUT, build)

    def bind(p, q, t=1, singletons=False):
        drawn[:], unused[:] = [p, q], [True] * singletons
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        return inst.bind(3, t, permissive=True)

    return bind


def _random_guard(rng):
    """Up to two ``Observed`` atoms on tag A, valued or not, some negated."""
    return tuple(
        Observed("A", rng.choice((None, 0, 1)), negate=rng.random() < 0.3)
        for _ in range(rng.choice((0, 0, 1, 2)))
    )


def _random_program(rng):
    """Two to five statements on tag A: picks of v, guarded communicates of
    a bit, guarded waits on ``Observed`` atoms, at most one binding wait
    (into x) and at most one guarded output of v, x or Flip(x), each after
    what it reads.  No ``Deadline()``.  Picks and the binding wait are
    unguarded, so v and x hold bits once read."""
    statements, picked, bound, output = [], False, False, False
    for _ in range(rng.randint(2, 5)):
        kinds = ["pick", "communicate", "wait"]
        if not bound:
            kinds.append("bind")
        if not output and (picked or bound):
            kinds.append("output")
        kind = rng.choice(kinds)
        if kind == "pick":
            statements.append(Pick("v", (0, 1)))
            picked = True
        elif kind == "communicate":
            value = rng.choice((0, 1, LocalRef("v")) if picked else (0, 1))
            statements.append(Communicate("A", value, _random_guard(rng)))
        elif kind == "wait":
            until = Observed("A", rng.choice((None, 0, 1)))
            statements.append(Wait(until, guard=_random_guard(rng)))
        elif kind == "bind":
            statements.append(Wait(Observed("A"), dest="x"))
            bound = True
        else:
            values = [LocalRef("v")] * picked + [LocalRef("x"), Flip("x")] * bound
            statements.append(Output(rng.choice(values), _random_guard(rng)))
            output = True
    return Program(tuple(statements))


class TestCrashSlots:
    def test_stored_facts_equal_their_formulas(self, patch_builder):
        # A program's crash slots are computed once, when it is built; a
        # bound instance holds one object per distinct program, here with
        # each process's program built afresh.
        rng = random.Random(5)
        drawn = []
        patch_builder(
            AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: Program(drawn[pid > 2].statements)
        )
        inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
        for _ in range(250):
            drawn[:] = [_random_program(rng), _random_program(rng)]
            for program in drawn:
                effects = [
                    k for k, s in enumerate(program.statements)
                    if isinstance(s, (Output, Communicate))
                ]
                slots = tuple([0] + [k + 1 for k in effects[:-1]]) if effects else ()
                assert program.crash_slots == slots
            p1, p2, p3 = inst.bind(3, 1, permissive=True).programs()
            assert p1 is p2 and p1 == drawn[0]
            assert (p3 is p1) == (drawn[0] == drawn[1])

    def test_every_pattern_reaches_what_its_representative_reaches(self):
        # The lemma behind Program.crash_slots, pattern by pattern, on every
        # line in both timings, inside and outside its condition: moving each
        # crash to the first slot of its stretch of statements with no output
        # or communicate, and dropping a crash after the last one, keeps the
        # family.
        checked = 0
        mismatches = []
        for line in range(1, 16):
            for timing in Timing:
                for n in range(1, 4):
                    for t in range(n + 1):
                        try:
                            inst = instance_for_line(line, timing).bind(n, t, permissive=True)
                            programs = inst.programs()
                        except RoleError:
                            continue
                        cfg = SystemConfig(n, t, timing)
                        families = {}

                        def family(fp):
                            if fp not in families:
                                families[fp] = _pattern_family(inst, cfg, fp)
                            return families[fp]

                        slot_counts = [p.slot_count for p in programs]
                        for fp in enum_failure_patterns(n, t, slot_counts):
                            checked += 1
                            if family(fp) != family(stretch_representative(fp, programs)):
                                mismatches.append((line, timing.value, n, t, fp.crashes))
        assert checked == 6_112
        assert mismatches == []


def _sync_instance(patch_builder, programs, t):
    """A sync instance whose process pid runs ``programs[pid - 1]``, bound
    permissively at n = len(programs) and ``t``."""
    patch_builder(AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: programs[pid - 1])
    inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.SYNC, no_out=False)
    n = len(programs)
    return inst.bind(n, t, permissive=True), SystemConfig(n, t, Timing.SYNC)


def _random_sync_guard(rng):
    """Up to two atoms: observations of tag A or B, valued or not, the local
    v, or the process's own output; some negated."""
    atoms = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        kind = rng.choice(("observed", "local", "output"))
        negate = rng.random() < 0.3
        if kind == "observed":
            atoms.append(Observed(rng.choice("AB"), rng.choice((None, 0, 1)), negate))
        elif kind == "local":
            atoms.append(LocalIs("v", rng.choice((0, 1)), negate))
        else:
            atoms.append(HasOutput(negate))
    return tuple(atoms)


def _random_sync_program(rng):
    """Two to four statements over rounds 1 and 2, in (round, phase) order:
    at most two picks of v, guarded communicates (in a communication step)
    on tags A and B, guarded set-locals of v and guarded outputs.  v starts
    at 0, and a value is a bit, v or Flip(v), so the one output a process
    may make is a bit; a second output is refused, and the caller skips
    that draw."""
    slots = sorted((rng.randint(1, 2), rng.choice((COMM, COMP))) for _ in range(rng.randint(2, 4)))
    statements, picks = [], 0
    for at in slots:
        kinds = ["set", "output"] + ["pick"] * (picks < 2) + ["communicate"] * 2 * (at[1] == COMM)
        kind = rng.choice(kinds)
        value = rng.choice((0, 1, LocalRef("v"), Flip("v")))
        if kind == "pick":
            statements.append(Pick("v", (0, 1), at=at))
            picks += 1
        elif kind == "communicate":
            statements.append(Communicate(rng.choice("AB"), value, _random_sync_guard(rng), at))
        elif kind == "set":
            statements.append(SetLocal("v", value, _random_sync_guard(rng), at))
        else:
            statements.append(Output(value, _random_sync_guard(rng), at))
    return Program(tuple(statements), (("v", 0),))


class TestFirstPickBlocks:
    """A synchronous cell runs each block's first picks once per multiset:
    a block is the pids of one class of equal programs that the orbit's
    pattern crashes at one slot, or leaves uncrashed (see ``explore``)."""

    def test_a_class_split_by_its_crash_slots_keeps_every_family(self, patch_builder):
        # Both processes pick v and communicate A(v); each outputs 0 if it
        # saw A(1) and picked 0, or 1 if it picked 1.  {0} needs a process
        # that picked 1 to crash after its communicate and before its
        # outputs (crash slot 2): p1, the one the orbit's pattern crashes,
        # holding the larger pick.  A block holding both processes, crashed
        # or not, would give p1 the smaller pick only and miss {0}.
        program = Program((
            Pick("v", (0, 1), at=(1, COMM)),
            Communicate("A", LocalRef("v"), at=(1, COMM)),
            Output(0, guard=(Observed("A", 1), LocalIs("v", 0)), at=(1, COMP)),
            Output(1, guard=(LocalIs("v", 1),), at=(1, COMP)),
        ))
        inst, cfg = _sync_instance(patch_builder, (program, program), 1)
        verdict = explore(inst, cfg)
        everything = sos(OutputSet.EMPTY, OutputSet.ZERO, OutputSet.ONE, OutputSet.BOTH)
        assert verdict.exhaustive and verdict.observed == everything
        assert _every_pattern_family(inst, cfg) == everything
        trace = {t.output_set(): t for t in [*verdict.witnesses.values(), *verdict.violations]}[
            OutputSet.ZERO
        ]
        assert trace.header["fp"] == {"crashes": [[1, 2]]}
        assert trace.header["choices"]["picks"] == [[1, 0, 1], [2, 0, 0]]
        assert replay(trace.to_jsonl()).to_jsonl() == trace.to_jsonl()

    def test_random_sync_programs_reach_every_patterns_family(self, patch_builder):
        # Each draw: two to four processes, each running one of two random
        # programs (or all one), at a random t.  explore's family must be
        # the union over every failure pattern of every pick outcome.
        rng = random.Random(1)
        mismatches, skipped, ran = [], {}, 0
        for _ in range(400):
            p, q = _random_sync_program(rng), _random_sync_program(rng)
            n = rng.randint(2, 4)
            programs = tuple(rng.choice((p, q)) for _ in range(n))
            t = rng.randint(0, min(n, 2))
            try:
                inst, cfg = _sync_instance(patch_builder, programs, t)
                observed = explore(inst, cfg).observed
                family = _every_pattern_family(inst, cfg)
            except (KernelError, ValueError) as refused:
                kind = type(refused).__name__
                skipped[kind] = skipped.get(kind, 0) + 1
                continue
            ran += 1
            if observed != family:
                mismatches.append((programs, t))
        assert mismatches == []
        # The draws that ran, and those skipped because the kernel refused
        # a run (a second output).
        assert (ran, skipped) == (342, {"KernelError": 58})

    def test_executions_stay_within_the_block_bound(self, patch_builder):
        # The bound explore checks against its cap, once pick outcomes times
        # orbits pass it, must bound the completed runs it then makes.
        rng = random.Random(8)
        ran = 0
        for _ in range(300):
            p, q = _random_sync_program(rng), _random_sync_program(rng)
            n = rng.randint(2, 5)
            programs = tuple(rng.choice((p, q)) for _ in range(n))
            t = rng.randint(0, min(n, 3))
            try:
                inst, cfg = _sync_instance(patch_builder, programs, t)
                verdict = explore(inst, cfg)
            except (KernelError, ValueError):
                continue  # the kernel refused a run (a second output)
            ran += 1
            bound = checker._block_run_bound(inst.programs(), cfg, math.inf)
            assert verdict.exhaustive
            product = checker._choice_bound(inst) * verdict.failure_pattern_orbits
            assert verdict.executions <= bound <= product, (programs, t)
        assert ran > 200

    def test_a_cell_over_the_product_bound_runs_whole_under_the_block_bound(self):
        # L1 at sync n = 11, t = 11: 3^11 pick outcomes times 12 orbits pass
        # the cap, but one block of eleven takes its first picks as
        # multisets, so the cell is run whole.
        inst = instance_for_line(1, Timing.SYNC).bind(11, 11)
        cfg = SystemConfig(11, 11, Timing.SYNC)
        assert checker._choice_bound(inst) * 12 > checker.SIZE_CAP
        assert checker._block_run_bound(inst.programs(), cfg, math.inf) <= checker.SIZE_CAP
        verdict = explore(inst, cfg)
        assert verdict.exhaustive and verdict.status == "ok"
        assert (verdict.failure_pattern_orbits, verdict.executions) == (12, 364)

    @pytest.mark.parametrize(
        "line, n, t, executions",
        [(10, 4, 3, 140), (1, 4, 4, 35), (3, 4, 4, 205), (7, 4, 2, 230)],
    )
    def test_sync_executions(self, line, n, t, executions):
        # Kernel runs that complete, over every orbit's pattern.  Line 7
        # gives every process a program of its own, so it has no block of
        # two and runs every pick outcome.
        inst = instance_for_line(line, Timing.SYNC).bind(n, t)
        verdict = explore(inst, SystemConfig(n, t, Timing.SYNC))
        assert verdict.exhaustive and verdict.status == "ok"
        assert verdict.executions == executions
