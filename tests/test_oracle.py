"""The interleaving interpreter itself: sanity on hand-checkable cases."""

from dataclasses import replace

import pytest

from binsos.algorithms import AlgorithmInstance, AlgorithmKind, RoleError, instance_for_line
from binsos.checker import explore
from binsos.oracle import _B, _BD, _C, _D, _Cell, observed_output_sets
from binsos.outputsets import OutputSet, SystemConfig, Timing, sos, tight_condition
from binsos.patterns import NO_CRASHES
from binsos.program import (
    COMP,
    INIT,
    OUTPUT,
    PROPOSE,
    Communicate,
    Deadline,
    Flip,
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
from binsos.simkernel import KernelError, run


def test_silent_alphabet_is_always_empty():
    inst = instance_for_line(15, Timing.ASYNC).bind(2, 1)
    assert observed_output_sets(inst, SystemConfig(2, 1, Timing.ASYNC)) == sos(
        OutputSet.EMPTY
    )


def test_single_output_without_gate_and_no_crashes():
    inst = instance_for_line(10, Timing.ASYNC).bind(2, 0)
    assert observed_output_sets(inst, SystemConfig(2, 0, Timing.ASYNC)) == sos(
        OutputSet.ZERO, OutputSet.ONE
    )


def test_single_output_with_crashes_can_stay_silent():
    inst = instance_for_line(9, Timing.ASYNC).bind(2, 1)
    assert observed_output_sets(inst, SystemConfig(2, 1, Timing.ASYNC)) == sos(
        OutputSet.EMPTY, OutputSet.ZERO, OutputSet.ONE
    )


def test_sync_consensus_single_process():
    inst = instance_for_line(10, Timing.SYNC).bind(1, 0)
    assert observed_output_sets(inst, SystemConfig(1, 0, Timing.SYNC)) == sos(
        OutputSet.ZERO, OutputSet.ONE
    )


def test_disagreement_never_reaches_singletons():
    inst = instance_for_line(8, Timing.ASYNC).bind(3, 1)
    sets = observed_output_sets(inst, SystemConfig(3, 1, Timing.ASYNC))
    assert sets == sos(OutputSet.BOTH)


def test_disagreement_outside_envelope_breaks():
    # The same algorithm bound permissively where the condition fails does
    # produce singleton output sets; the oracle finds them.
    inst = AlgorithmInstance(
        kind=AlgorithmKind.ASYNC_DISAGREEMENT, timing=Timing.ASYNC, no_out=False
    ).bind(3, 2, permissive=True)
    sets = observed_output_sets(inst, SystemConfig(3, 2, Timing.ASYNC))
    assert sets & {OutputSet.ZERO, OutputSet.ONE}


def test_timing_adaptive_covers_all_three_members():
    inst = instance_for_line(3, Timing.ASYNC).bind(2, 2)
    assert observed_output_sets(inst, SystemConfig(2, 2, Timing.ASYNC)) == sos(
        OutputSet.EMPTY, OutputSet.ONE, OutputSet.BOTH
    )


def test_zero_process_system():
    inst = instance_for_line(15, Timing.ASYNC).bind(0, 0)
    assert observed_output_sets(inst, SystemConfig(0, 0, Timing.ASYNC)) == sos(
        OutputSet.EMPTY
    )


def test_oracle_refuses_large_systems():
    inst = instance_for_line(1, Timing.ASYNC).bind(6, 0)
    with pytest.raises(ValueError):
        observed_output_sets(inst, SystemConfig(6, 0, Timing.ASYNC))


def test_any_tag_is_modelled(foo_instance):
    # Like the kernel, the oracle reads a tag no algorithm uses, here by a
    # binding wait on it.
    inst, cfg = foo_instance
    assert observed_output_sets(inst, cfg) == explore(inst, cfg).observed


def _everyone_runs(patch_builder, program, timing=Timing.ASYNC):
    """An instance whose every process runs ``program``."""
    patch_builder(AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: program)
    return AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, timing, no_out=False)


# Programs outside the six algorithms' vocabulary, each of which reads its
# observations in a way the shipped programs never do.
UNSHIPPED = {
    "valued INIT guard": Program((
        Pick("v", (0, 1)),
        Communicate(INIT, LocalRef("v")),
        Wait(Observed(INIT)),
        Output(1, guard=(Observed(INIT, 1),)),
        Output(0, guard=(Observed(INIT, 1, negate=True),)),
    )),
    # A binding wait takes the least PROPOSE value of the first batch to
    # land on it: items landing together land in value order.
    "binding wait on PROPOSE": Program((
        Pick("v", (0, 1)),
        Communicate(PROPOSE, LocalRef("v")),
        Wait(Observed(PROPOSE), dest="x"),
        Output(LocalRef("x")),
    )),
    "OUTPUT item without a value": Program((
        Pick("v", (0, 1)),
        Communicate(OUTPUT, guard=(LocalIs("v", 0),)),
        Communicate(OUTPUT, 1, guard=(LocalIs("v", 1),)),
        Wait(Observed(OUTPUT)),
        Output(1, guard=(Observed(OUTPUT, 1),)),
        Output(0, guard=(Observed(OUTPUT, 1, negate=True),)),
    )),
}


@pytest.mark.parametrize("n, t", [(2, 0), (2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("name", UNSHIPPED)
def test_unshipped_programs_match_explore(patch_builder, name, n, t):
    inst = _everyone_runs(patch_builder, UNSHIPPED[name]).bind(n, t, permissive=True)
    cfg = SystemConfig(n, t, Timing.ASYNC)
    assert observed_output_sets(inst, cfg) == explore(inst, cfg).observed


def test_deadline_in_a_guard_rejected(patch_builder):
    # Only a plain wait on Deadline() is modelled; what a deadline means
    # anywhere else is left open.
    program = Program((Output(0, guard=(Deadline(),)),))
    inst = _everyone_runs(patch_builder, program).bind(2, 0, permissive=True)
    with pytest.raises(TypeError, match=r"Deadline\(negate=False\)"):
        observed_output_sets(inst, SystemConfig(2, 0, Timing.ASYNC))


# Programs the kernel refuses with KernelError, each with the message the
# oracle's ValueError must match: it names the process and the value.
REFUSED = {
    "second Output": ((Output(0), Output(1)), r"process 1 outputs 1 after 0"),
    "Output of an unset local": ((Output(LocalRef("x")),), r"process 1 outputs non-bit None"),
    "Flip of an unset local": ((SetLocal("y", Flip("x")),), r"process 1 flips non-bit local x=None"),
}


@pytest.mark.parametrize("timing", [Timing.ASYNC, Timing.SYNC])
@pytest.mark.parametrize("name", REFUSED)
def test_what_the_kernel_refuses_is_refused(patch_builder, name, timing):
    statements, message = REFUSED[name]
    if timing is Timing.SYNC:
        statements = tuple(replace(s, at=(1, COMP)) for s in statements)
    inst = _everyone_runs(patch_builder, Program(statements), timing).bind(2, 0, permissive=True)
    cfg = SystemConfig(2, 0, timing)
    with pytest.raises(KernelError):
        run(inst, cfg, ScriptedChoices(), NO_CRASHES)
    with pytest.raises(ValueError, match=message):
        observed_output_sets(inst, cfg)


def _outside_the_conditions(ns):
    """Every line and timing bound permissively at each n in ``ns`` and each
    t the line's tight condition rejects, where the roles can be built."""
    for line in range(1, 16):
        for timing in (Timing.SYNC, Timing.ASYNC):
            for n in ns:
                for t in range(n + 1):
                    if tight_condition(line, timing).holds(n, t):
                        continue
                    try:
                        inst = instance_for_line(line, timing).bind(n, t, permissive=True)
                        inst.programs()
                    except RoleError:
                        continue
                    yield inst, SystemConfig(n, t, timing)


def test_crash_moves_match_explore_outside_the_conditions():
    # Outside its condition an algorithm's family depends on where crashes
    # land, so these cells pin the oracle's crash moves against the
    # explorer's failure patterns, which the solvable table cannot.  L8
    # async at n=4, t=2 is a cheap cell whose family also depends on
    # crashes after a process's first statement.
    cells = list(_outside_the_conditions((2, 3)))
    assert len(cells) == 43
    inst = instance_for_line(8, Timing.ASYNC).bind(4, 2, permissive=True)
    cells.append((inst, SystemConfig(4, 2, Timing.ASYNC)))
    mismatches = [
        (inst.line, cfg)
        for inst, cfg in cells
        if observed_output_sets(inst, cfg) != explore(inst, cfg).observed
    ]
    assert not mismatches


# The number of visited states of five cells which together cover both
# timings, picks, blocking and deadline waits, and crashes.  A faster
# search must visit exactly these states: it may cache moves, not skip them.
VISITED = {
    (7, Timing.ASYNC, 4, 1): 5157,
    (3, Timing.ASYNC, 4, 4): 5174,
    (1, Timing.ASYNC, 4, 4): 2401,
    (10, Timing.SYNC, 4, 3): 4160,
    (3, Timing.SYNC, 4, 4): 3468,
}


@pytest.fixture(scope="module")
def searched():
    """Each cell of ``VISITED`` after a full oracle search."""
    cells = {}
    for line, timing, n, t in VISITED:
        cell = _Cell(instance_for_line(line, timing).bind(n, t).programs(), t)
        (cell.search_sync if timing is Timing.SYNC else cell.search_async)()
        cells[line, timing, n, t] = cell
    return cells


def test_visited_states_are_pinned(searched):
    assert {key: len(cell.visited) for key, cell in searched.items()} == VISITED


def test_interned_processes_are_never_changed(searched):
    # Every move reads its process from the table and interns a changed
    # copy; a write to an interned process would leave its key elsewhere.
    for cell in searched.values():
        assert len(cell.ids) == len(cell.table)
        assert all(cell.ids[proc.key()] == i for i, proc in enumerate(cell.table))
    statuses = {proc.status for cell in searched.values() for proc in cell.table}
    assert {_B, _BD, _D, _C} <= statuses


def test_per_id_tables_agree_with_the_interned_processes(searched):
    # The search reads a process's status and output from the flat tables,
    # never from the process itself, so each table must match ``table``.
    for cell in searched.values():
        assert cell.status == [proc.status for proc in cell.table]
        assert cell.out == [0 if p.output is None else 1 << p.output for p in cell.table]
    bits = {bit for cell in searched.values() for bit in cell.out}
    assert bits == {0, 1, 2}


# ROADMAP item 3: the kernel lands several items on a process before it
# runs, at a batch landing and at the one global deadline step, where the
# oracle lands one item and runs its receiver.  Each test asserts the
# agreement that one item per landing and a deadline per process restore.
SPLIT = "the kernel lands several items on a process before it runs it"


@pytest.mark.xfail(strict=True, reason=SPLIT)
def test_one_deadline_for_all_matches_the_oracle(patch_builder):
    """Every process picks v, communicates PROPOSE(v), waits for the
    deadline, communicates OUTPUT(1), waits for an OUTPUT item and outputs
    0 if it has seen PROPOSE(0), else 1.  With picks 0 and 1, the oracle
    lets p2 pass its deadline and see its own OUTPUT(1) before PROPOSE(0)
    lands on it, so p2 outputs 1 and p1 outputs 0: {0,1}.  No schedule
    splits them in the kernel: under every one, and the empty one ``[]``
    is the plainest, the deadline step lands PROPOSE(0) on p2 in the batch
    that holds its OUTPUT items, so the kernel reaches only {{0}, {1}}."""
    program = Program((
        Pick("v", (0, 1)),
        Communicate(PROPOSE, LocalRef("v")),
        Wait(Deadline()),
        Communicate(OUTPUT, 1),
        Wait(Observed(OUTPUT)),
        Output(0, guard=(Observed(PROPOSE, 0),)),
        Output(1, guard=(Observed(PROPOSE, 0, negate=True),)),
    ))
    inst = _everyone_runs(patch_builder, program).bind(2, 1, permissive=True)
    cfg = SystemConfig(2, 1, Timing.ASYNC)
    assert explore(inst, cfg).observed == observed_output_sets(inst, cfg)


@pytest.mark.xfail(strict=True, reason=SPLIT)
@pytest.mark.parametrize("t", [0, 1])
def test_binding_wait_on_a_batch_matches_the_oracle(patch_builder, t):
    """p1 and p2 pick v and communicate A(v); p3 binds x to the first A
    value it observes and outputs x if it has seen A(1).  With picks 0 and
    1, the schedule ``[[3, [[1, 0], [2, 0]]]]``, one move landing both A
    items on p3, binds x to 0 with A(1) already seen, so the kernel reaches
    {0}; the oracle lands one item before p3 runs, and binds x to 1 when
    A(1) comes first, so it reaches {{}, {1}} only."""
    p = Program((Pick("v", (0, 1)), Communicate("A", LocalRef("v"))))
    q = Program((Wait(Observed("A"), dest="x"), Output(LocalRef("x"), guard=(Observed("A", 1),))))
    patch_builder(AlgorithmKind.SINGLE_OUTPUT, lambda instance, pid: (p, p, q)[pid - 1])
    inst = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
    inst = inst.bind(3, t, permissive=True)
    cfg = SystemConfig(3, t, Timing.ASYNC)
    assert explore(inst, cfg).observed == observed_output_sets(inst, cfg)
