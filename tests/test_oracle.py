"""The interleaving interpreter itself: sanity on hand-checkable cases."""

import pytest

from binsos.algorithms import AlgorithmInstance, AlgorithmKind, RoleError, instance_for_line
from binsos.checker import explore
from binsos.oracle import observed_output_sets
from binsos.outputsets import OutputSet, SystemConfig, Timing, sos, tight_condition


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
    inst = instance_for_line(1, Timing.ASYNC).bind(5, 0)
    with pytest.raises(ValueError):
        observed_output_sets(inst, SystemConfig(5, 0, Timing.ASYNC))


def test_unmodelled_tag_rejected(foo_instance):
    # The kernel observes any tag; the oracle models only INIT, OUTPUT and
    # PROPOSE, and refuses the rest rather than misreading it.
    inst, cfg = foo_instance
    with pytest.raises(TypeError, match="FOO"):
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
        (inst.effective_line, cfg)
        for inst, cfg in cells
        if observed_output_sets(inst, cfg) != explore(inst, cfg).observed
    ]
    assert not mismatches
