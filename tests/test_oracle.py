"""The interleaving interpreter itself: sanity on hand-checkable cases."""

import pytest

from binsos.algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from binsos.oracle import observed_output_sets
from binsos.outputsets import OutputSet, SystemConfig, Timing, sos


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
