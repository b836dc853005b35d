"""Role assignment, line-to-instance mapping, program shapes, and the
behavioral guarantees each algorithm's correctness argument claims."""

import itertools

import pytest
from conftest import event_dicts

from binsos import algorithms
from binsos.algorithms import (
    AlgorithmKind,
    RoleError,
    instance_for_line,
    instance_from_descriptor,
    make_roles,
)
from binsos.checker import branch_choices, sample_traces
from binsos.outputsets import OutputSet, SystemConfig, Timing, line_members, tight_condition
from binsos.patterns import NO_CRASHES, enum_failure_patterns
from binsos.program import COMP, Communicate, Output, Pick, Program, ScriptedChoices, Wait
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

    def test_effective_line_of_every_accepted_parameter_set(self):
        # An instance derives its line from the line table; values are
        # compared as a set, so order and repeats do not matter.
        cases = [
            (AlgorithmKind.ALL_OUTPUT, {"values": (0, 1, None)}, 1),
            (AlgorithmKind.ALL_OUTPUT, {"values": (1, 0)}, 2),
            (AlgorithmKind.ALL_OUTPUT, {"values": (None, 1)}, 11),
            (AlgorithmKind.ALL_OUTPUT, {"values": (1,)}, 12),
            (AlgorithmKind.ALL_OUTPUT, {"values": (0, None, 0)}, 13),
            (AlgorithmKind.ALL_OUTPUT, {"values": (0, 0)}, 14),
            (AlgorithmKind.ALL_OUTPUT, {"values": (None,)}, 15),
            (AlgorithmKind.SINGLE_OUTPUT, {"no_out": True}, 9),
            (AlgorithmKind.SINGLE_OUTPUT, {"no_out": False}, 10),
            (AlgorithmKind.TIMING_ADAPTIVE, {"no_out": True, "default_value": 1}, 3),
            (AlgorithmKind.TIMING_ADAPTIVE, {"no_out": False, "default_value": 1}, 4),
            (AlgorithmKind.TIMING_ADAPTIVE, {"no_out": True, "default_value": 0}, 5),
            (AlgorithmKind.TIMING_ADAPTIVE, {"no_out": False, "default_value": 0}, 6),
            (AlgorithmKind.ASYNC_DISAGREEMENT, {"no_out": True}, 7),
            (AlgorithmKind.ASYNC_DISAGREEMENT, {"no_out": False}, 8),
            (AlgorithmKind.SYNC_DISAGREEMENT, {"no_out": True}, 7),
            (AlgorithmKind.SYNC_DISAGREEMENT, {"no_out": False}, 8),
            (AlgorithmKind.SYNC_CONSENSUS, {}, 10),
        ]
        for kind, params, line in cases:
            only = algorithms._KINDS[kind][0]
            for timing in [only] if only else Timing:
                inst = algorithms.AlgorithmInstance(kind=kind, timing=timing, **params)
                assert inst.line == line, (kind, timing, params)

    def test_line_lookup_equals_a_search_of_the_line_table(self):
        # Every parameter set each kind takes, values in any order and with
        # repeats, against the one line (under either timing) whose mandated
        # instance has the same kind and parameters; and the same instance
        # described and read back, its descriptor's line equal to that line.
        def params(inst):
            values = None if inst.values is None else frozenset(inst.values)
            return inst.kind, inst.no_out, inst.default_value, values

        def searched(inst):
            (line,) = {line for line in range(1, 16) for timing in Timing
                       if params(instance_for_line(line, timing)) == params(inst)}
            return line

        choices = {
            "values": [vs for size in (1, 2, 3)
                       for vs in itertools.product((0, 1, None), repeat=size)],
            "no_out": [False, True],
            "default_value": [0, 1],
        }
        checked = set()
        for kind, (only, names, _) in algorithms._KINDS.items():
            for timing in [only] if only else Timing:
                for combo in itertools.product(*(choices[name] for name in names)):
                    inst = algorithms.AlgorithmInstance(
                        kind=kind, timing=timing, **dict(zip(names, combo))
                    )
                    line = searched(inst)
                    assert algorithms._infer_line(inst) == inst.line == line
                    cond = tight_condition(line, timing)
                    n, t = next((n, t) for n in range(6) for t in range(n + 1)
                                if cond.holds(n, t))
                    described = inst.bind(n, t).describe()
                    assert described["line"] == line
                    assert instance_from_descriptor(described).line == line
                    checked.add((kind, timing, line))
        assert {line for _, _, line in checked} == set(range(1, 16))

    def test_line_is_derived_never_given(self):
        # A line given beside the kind and parameters could name another
        # line's family, and explore would judge the instance against it.
        with pytest.raises(TypeError, match="line"):
            algorithms.AlgorithmInstance(
                kind=AlgorithmKind.ALL_OUTPUT, timing=Timing.ASYNC, values=(0, 1), line=7
            )
        inst = algorithms.AlgorithmInstance(
            kind=AlgorithmKind.ALL_OUTPUT, timing=Timing.ASYNC, values=(0, 1)
        ).bind(3, 1)
        assert inst.line == 2
        assert inst.target_members() == line_members(2)
        described = dict(inst.describe(), line=7)
        with pytest.raises(ValueError, match="algorithm line 7 is not 2"):
            instance_from_descriptor(described)
        with pytest.raises(ValueError, match="algorithm line None must be int"):
            instance_from_descriptor(dict(described, line=None))

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
        # Every line's instance describes a line that its kind and
        # parameters give back, so it reads back too.
        for line in range(1, 16):
            for timing in Timing:
                cond = tight_condition(line, timing)
                cells = ((n, t) for n in range(6) for t in range(n + 1))
                n, t = next(cell for cell in cells if cond.holds(*cell))
                inst = instance_for_line(line, timing).bind(n, t)
                assert instance_from_descriptor(inst.describe()) == inst

    def test_descriptor_checks_run_with_the_bind_cached(self):
        # instance_from_descriptor reuses the bound instance of an equal
        # (instance, n, t, permissive); every field, line and roles check
        # still runs on every call.
        inst = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        described = inst.describe()
        assert instance_from_descriptor(described) is instance_from_descriptor(described)
        roles = dict(described["roles"], zero_group=[2, 1])
        with pytest.raises(ValueError, match="algorithm roles .* are not those of n=5, t=2"):
            instance_from_descriptor(dict(described, roles=roles))
        with pytest.raises(ValueError, match="algorithm line 8 is not 7"):
            instance_from_descriptor(dict(described, line=8))
        with pytest.raises(ValueError, match="algorithm n 5.0 must be int"):
            instance_from_descriptor(dict(described, n=5.0))
        # (4, 2) lies outside line 7's condition: bound permissively it is
        # cached, and the same cell unpermitted is still rejected.
        loose = instance_for_line(7, Timing.ASYNC).bind(4, 2, permissive=True).describe()
        assert instance_from_descriptor(loose) is instance_from_descriptor(loose)
        with pytest.raises(PreconditionError, match=r"\(n=4, t=2\) violates condition"):
            instance_from_descriptor(dict(loose, permissive=False))

    def test_programs_are_built_once_at_bind(self, patch_builder):
        inst = instance_for_line(8, Timing.SYNC).bind(4, 2)

        def rebuild(instance, pid):
            raise AssertionError("programs rebuilt after bind")

        patch_builder(AlgorithmKind.SYNC_DISAGREEMENT, rebuild)
        assert inst.programs() is inst.programs()

    def test_sync_statement_runs_in_the_round_its_tag_names(self, patch_builder):
        def late(instance, pid):  # an output in round 2 of a one-round kind
            return Program((Output(0, at=(2, COMP)),))

        patch_builder(AlgorithmKind.SYNC_CONSENSUS, late)
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        trace = run_sync(inst, SystemConfig(2, 1, Timing.SYNC), ScriptedChoices(), NO_CRASHES)
        # Round 2's computation step is tick 2 * (2 - 1) + 1.
        assert [(e["pid"], e["t"]) for e in event_dicts(trace)] == [(1, 3), (2, 3)]
        assert trace.output_set() is OutputSet.ZERO

    def test_untagged_program_in_a_sync_instance_rejected_at_bind(self, patch_builder):
        def untagged(instance, pid):
            return Program((Output(0),))

        patch_builder(AlgorithmKind.SYNC_CONSENSUS, untagged)
        with pytest.raises(ValueError, match="process 1 is not tagged with rounds"):
            instance_for_line(10, Timing.SYNC).bind(2, 1)


class TestProgramShapes:
    def test_no_output_alphabet_is_a_noop(self):
        inst = instance_for_line(15, Timing.ASYNC).bind(2, 2)
        cfg = SystemConfig(2, 2, Timing.ASYNC)
        for fp in enum_failure_patterns(2, 2, [3, 3]):
            for picks, trace in branch_choices(
                lambda c, fp=fp: run(inst, cfg, c, fp)
            ):
                assert trace.output_set() is OutputSet.EMPTY

    def test_disagreement_wait_elided_without_gate(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        program = inst.programs()[0]  # p1, a zero-group member
        kinds = [type(s) for s in program.statements]
        assert kinds == [Output, Communicate]
        gated = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        kinds = [type(s) for s in gated.programs()[0].statements]
        assert kinds == [Pick, Communicate, Wait, Output, Communicate]

    def test_flip_group_program(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        program = inst.programs()[4]
        assert [type(s) for s in program.statements] == [Wait, Output]

    def test_non_participants_have_empty_programs(self):
        inst = instance_for_line(9, Timing.SYNC).bind(3, 1)
        assert len(inst.programs()[1].statements) == 0
        assert len(inst.programs()[0].statements) == 2

    def test_staggered_sequences_round_tags(self):
        inst = instance_for_line(8, Timing.SYNC).bind(4, 2)
        # p1 leads the 1-sequence: decides in round 1, advertises in round 2.
        tags = [s.at for s in inst.programs()[0].statements]
        assert tags == [(1, 1), (1, 1), (1, 1), (2, 0)]
        # p4 closes the 0-sequence: decides in the final round, never advertises.
        tags = [s.at for s in inst.programs()[3].statements]
        assert tags == [(2, 1), (2, 1), (2, 1)]

    def test_one_program_per_process(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        assert len(inst.programs()) == 2


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
