"""Role assignment, line-to-instance mapping, program shapes, and the
behavioral guarantees each algorithm's correctness argument claims."""

import pytest

from binsos.algorithms import (
    AlgorithmKind,
    RoleError,
    instance_for_line,
    instance_from_descriptor,
    make_roles,
    step_program,
)
from binsos.checker import branch_choices, sample_traces
from binsos.outputsets import OutputSet, SystemConfig, Timing
from binsos.patterns import ALL_IMMEDIATE, NO_CRASHES, enum_failure_patterns
from binsos.program import Communicate, Output, Pick, ScriptedChoices, Wait
from binsos.simkernel import PreconditionError, run, run_sync


class TestMakeRoles:
    def test_async_disagreement_sizing_even_t(self):
        roles = make_roles(AlgorithmKind.ASYNC_DISAGREEMENT, 5, 2)
        assert roles.zero_group == (1, 2)
        assert roles.one_group == (3,)
        assert roles.flip_group == (4, 5)
        assert roles.init_group == (1, 2, 3)

    def test_async_disagreement_sizing_odd_t(self):
        roles = make_roles(AlgorithmKind.ASYNC_DISAGREEMENT, 4, 1)
        assert len(roles.zero_group) == 2  # minimum 1 plus the surplus process
        assert len(roles.one_group) == 1
        assert len(roles.flip_group) == 1
        assert roles.init_group == (1, 2)

    def test_async_disagreement_rejects_outside_envelope(self):
        with pytest.raises(RoleError):
            make_roles(AlgorithmKind.ASYNC_DISAGREEMENT, 4, 2)  # 8 <= 3*2+2

    def test_sync_disagreement_sequences(self):
        roles = make_roles(AlgorithmKind.SYNC_DISAGREEMENT, 3, 1)
        assert len(roles.seq_zero) == 1
        assert len(roles.seq_one) == 2
        assert len(roles.init_group) == 2
        assert sorted(roles.seq_zero + roles.seq_one) == [1, 2, 3]

    def test_sequences_partition_for_all_n(self):
        for n in range(1, 9):
            roles = make_roles(AlgorithmKind.SYNC_DISAGREEMENT, n, 0)
            assert len(roles.seq_zero) == n // 2
            assert len(roles.seq_one) == (n + 1) // 2
            assert sorted(roles.seq_zero + roles.seq_one) == list(range(1, n + 1))

    def test_designated_process(self):
        assert make_roles(AlgorithmKind.SINGLE_OUTPUT, 1, 0).designated == 1
        assert make_roles(AlgorithmKind.TIMING_ADAPTIVE, 4, 2).designated == 1

    def test_permissive_relaxation(self):
        roles = make_roles(AlgorithmKind.ASYNC_DISAGREEMENT, 4, 2, permissive=True)
        assert roles.zero_group and roles.one_group
        assert len(roles.zero_group + roles.one_group + roles.flip_group) == 4


class TestInstanceForLine:
    def test_mandated_instances(self):
        assert instance_for_line(10, Timing.SYNC).kind is AlgorithmKind.SYNC_CONSENSUS
        async8 = instance_for_line(8, Timing.ASYNC)
        assert async8.kind is AlgorithmKind.ASYNC_DISAGREEMENT
        assert async8.no_out is False
        line15 = instance_for_line(15, Timing.SYNC)
        assert line15.kind is AlgorithmKind.ALL_OUTPUT
        assert line15.values == (None,)

    def test_full_mapping(self):
        expect = {
            1: (AlgorithmKind.ALL_OUTPUT, (0, 1, None)),
            2: (AlgorithmKind.ALL_OUTPUT, (0, 1)),
            11: (AlgorithmKind.ALL_OUTPUT, (1, None)),
            12: (AlgorithmKind.ALL_OUTPUT, (1,)),
            13: (AlgorithmKind.ALL_OUTPUT, (0, None)),
            14: (AlgorithmKind.ALL_OUTPUT, (0,)),
        }
        for line, (kind, values) in expect.items():
            for timing in (Timing.ASYNC, Timing.SYNC):
                inst = instance_for_line(line, timing)
                assert inst.kind is kind and inst.values == values
        for line, (value, gate) in {3: (1, True), 4: (1, False),
                                    5: (0, True), 6: (0, False)}.items():
            inst = instance_for_line(line, Timing.ASYNC)
            assert inst.kind is AlgorithmKind.TIMING_ADAPTIVE
            assert (inst.default_value, inst.no_out) == (value, gate)
        assert instance_for_line(9, Timing.SYNC).no_out is True
        assert instance_for_line(10, Timing.ASYNC).kind is AlgorithmKind.SINGLE_OUTPUT
        assert instance_for_line(10, Timing.ASYNC).no_out is False
        assert instance_for_line(7, Timing.SYNC).kind is AlgorithmKind.SYNC_DISAGREEMENT

    def test_line_16_rejected(self):
        with pytest.raises(PreconditionError):
            instance_for_line(16, Timing.ASYNC)

    def test_bind_names_violated_condition(self):
        with pytest.raises(PreconditionError, match="n>=t\\+2"):
            instance_for_line(7, Timing.SYNC).bind(2, 1)
        with pytest.raises(PreconditionError, match="t=0"):
            instance_for_line(10, Timing.ASYNC).bind(3, 1)

    def test_descriptor_roundtrip(self):
        inst = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        again = instance_from_descriptor(inst.describe())
        assert again == inst
        assert again.programs() == inst.programs()


class TestProgramShapes:
    def test_no_output_alphabet_is_a_noop(self):
        inst = instance_for_line(15, Timing.ASYNC).bind(2, 2)
        cfg = SystemConfig(2, 2, Timing.ASYNC)
        for fp in enum_failure_patterns(2, 2, 3):
            for picks, trace in branch_choices(
                lambda c, fp=fp: run(inst, cfg, c, fp, ALL_IMMEDIATE)
            ):
                assert trace.output_set() is OutputSet.EMPTY

    def test_disagreement_wait_elided_without_gate(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        program = step_program(inst, 1)  # a zero-group member
        kinds = [type(s) for s in program.statements]
        assert kinds == [Output, Communicate]
        gated = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        kinds = [type(s) for s in step_program(gated, 1).statements]
        assert kinds == [Pick, Communicate, Wait, Output, Communicate]

    def test_flip_group_program(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        program = step_program(inst, 5)
        assert [type(s) for s in program.statements] == [Wait, Output]

    def test_non_participants_have_empty_programs(self):
        inst = instance_for_line(9, Timing.SYNC).bind(3, 1)
        assert len(step_program(inst, 2).statements) == 0
        assert len(step_program(inst, 1).statements) == 2

    def test_staggered_sequences_round_tags(self):
        inst = instance_for_line(8, Timing.SYNC).bind(4, 2)
        # p1 leads the 1-sequence: decides in round 1, advertises in round 2.
        tags = [s.at for s in step_program(inst, 1).statements]
        assert tags == [(1, 1), (1, 1), (1, 1), (2, 0)]
        # p4 closes the 0-sequence: decides in the final round, never advertises.
        tags = [s.at for s in step_program(inst, 4).statements]
        assert tags == [(2, 1), (2, 1), (2, 1)]

    def test_pid_out_of_range(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        with pytest.raises(ValueError):
            step_program(inst, 3)


def _explored_sets(inst, cfg, runs=400, seed=0):
    seen = set()
    for trace in sample_traces(inst, cfg, runs, meta_seed=seed):
        seen.add(trace.output_set())
    return seen


class TestBehavioralGuarantees:
    def test_disagreement_never_settles_on_one_value(self):
        cases = [
            (instance_for_line(7, Timing.ASYNC), SystemConfig(5, 2, Timing.ASYNC)),
            (instance_for_line(8, Timing.ASYNC), SystemConfig(4, 1, Timing.ASYNC)),
            (instance_for_line(7, Timing.SYNC), SystemConfig(4, 2, Timing.SYNC)),
            (instance_for_line(8, Timing.SYNC), SystemConfig(5, 3, Timing.SYNC)),
        ]
        for inst, cfg in cases:
            seen = _explored_sets(inst, cfg)
            assert OutputSet.ZERO not in seen and OutputSet.ONE not in seen

    def test_consensus_agreement_and_termination(self):
        cfg = SystemConfig(4, 3, Timing.SYNC)
        inst = instance_for_line(10, Timing.SYNC)
        for trace in sample_traces(inst, cfg, 500, meta_seed=5):
            decided = {v for v in trace.outputs if v is not None}
            assert len(decided) == 1  # nonempty and agreeing

    def test_default_value_always_accompanies_its_complement(self):
        for line, value in ((3, 1), (4, 1), (5, 0), (6, 0)):
            for timing in (Timing.ASYNC, Timing.SYNC):
                inst = instance_for_line(line, timing)
                cfg = SystemConfig(4, 2, timing)
                for trace in sample_traces(inst, cfg, 300, meta_seed=line):
                    values = {v for v in trace.outputs if v is not None}
                    if (1 ^ value) in values:
                        assert value in values

    def test_alphabet_is_respected(self):
        for line, allowed in ((11, {1}), (13, {0}), (1, {0, 1})):
            inst = instance_for_line(line, Timing.ASYNC)
            cfg = SystemConfig(4, 4, Timing.ASYNC)
            for trace in sample_traces(inst, cfg, 200, meta_seed=line):
                assert {v for v in trace.outputs if v is not None} <= allowed

    def test_mandatory_output_when_gate_disabled(self):
        # With the no-output branch disabled and a correct process around,
        # the empty output set must not occur under the line's condition.
        cases = [
            (instance_for_line(2, Timing.ASYNC), SystemConfig(4, 3, Timing.ASYNC)),
            (instance_for_line(6, Timing.SYNC), SystemConfig(4, 3, Timing.SYNC)),
            (instance_for_line(8, Timing.SYNC), SystemConfig(4, 2, Timing.SYNC)),
            (instance_for_line(10, Timing.ASYNC), SystemConfig(4, 0, Timing.ASYNC)),
        ]
        for inst, cfg in cases:
            assert OutputSet.EMPTY not in _explored_sets(inst, cfg)

    def test_sync_disagreement_no_go_round_trip(self):
        # All init picks closed: nobody ever passes the decision gate.
        inst = instance_for_line(7, Timing.SYNC).bind(4, 2)
        cfg = SystemConfig(4, 2, Timing.SYNC)
        closed = ScriptedChoices({(1, 0): 1, (2, 0): 1, (3, 0): 1})
        trace = run_sync(inst, cfg, closed, NO_CRASHES)
        assert trace.output_set() is OutputSet.EMPTY
        assert trace.termination == "ALL_DONE"
