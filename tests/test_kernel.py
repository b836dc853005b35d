"""Execution kernel: lock-step rounds, delivery steps, audit, replay."""

import json

import pytest

from binsos.algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from binsos.checker import sample_traces
from binsos.outputsets import OutputSet, SystemConfig, Timing
from binsos.patterns import (
    ALL_IMMEDIATE,
    NO_CRASHES,
    SYNC_CANONICAL,
    DelayPattern,
    FailurePattern,
    all_latest,
)
from binsos.program import ScriptedChoices, SeededChoices
from binsos.simkernel import (
    TRACE_VERSION,
    ExecutionTrace,
    PreconditionError,
    medium_check,
    replay,
    run_async,
    run_sync,
)

SYNC2 = SystemConfig(2, 1, Timing.SYNC)


def find_seed(predicate, limit=2000):
    for seed in range(limit):
        if predicate(SeededChoices(seed)):
            return seed
    raise AssertionError("no seed found")


class TestSyncConsensusRuns:
    def test_both_pick_one(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        seed = find_seed(
            lambda c: c.pick(1, 0, (0, 1)) == 1 and c.pick(2, 0, (0, 1)) == 1
        )
        trace = run_sync(inst, SYNC2, SeededChoices(seed), NO_CRASHES)
        assert trace.termination == "ALL_DONE"
        assert trace.outputs == (1, 1)

    def test_split_picks_decide_zero(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        trace = run_sync(
            inst, SYNC2, ScriptedChoices({(1, 0): 0, (2, 0): 1}), NO_CRASHES
        )
        assert trace.outputs == (0, 0)

    def test_single_process_observes_itself(self):
        inst = instance_for_line(10, Timing.SYNC).bind(1, 0)
        cfg = SystemConfig(1, 0, Timing.SYNC)
        trace = run_sync(inst, cfg, ScriptedChoices({(1, 0): 0}), NO_CRASHES)
        assert trace.outputs == (0,)
        observed = [e for e in trace.events if e["kind"] == "observe"]
        assert observed and observed[0]["pid"] == 1 and observed[0]["sender"] == 1

    def test_crash_after_propose_still_delivers(self):
        # The medium never suppresses an already-emitted item.
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        fp = FailurePattern.of({1: 2})  # after pick+communicate, before output
        trace = run_sync(inst, SYNC2, ScriptedChoices({(1, 0): 0, (2, 0): 1}), fp)
        assert trace.outputs == (None, 0)
        assert medium_check(trace) == []


class TestAsyncDisagreementRuns:
    def test_immediate_delivery_all_output(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        trace = run_async(
            inst, cfg, SeededChoices(0), NO_CRASHES, ALL_IMMEDIATE
        )
        assert trace.termination == "ALL_DONE"
        # Value-group members output their group value; the flip group echoes
        # the complement of the first output item it observed.
        roles = inst.roles
        for pid in roles.zero_group:
            assert trace.outputs[pid - 1] == 0
        for pid in roles.one_group:
            assert trace.outputs[pid - 1] == 1
        for pid in roles.flip_group:
            first = next(
                e
                for e in trace.events
                if e["kind"] == "observe" and e["pid"] == pid and e["tag"] == "OUTPUT"
            )
            assert trace.outputs[pid - 1] == 1 ^ first["value"]

    def test_no_go_signal_quiesces_empty(self):
        inst = instance_for_line(7, Timing.ASYNC).bind(5, 2)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        gates_closed = ScriptedChoices({(1, 0): 1, (2, 0): 1, (3, 0): 1})
        for dp in (ALL_IMMEDIATE, all_latest(20), SYNC_CANONICAL):
            trace = run_async(inst, cfg, gates_closed, NO_CRASHES, dp)
            assert trace.termination == "QUIESCENT"
            assert trace.output_set() is OutputSet.EMPTY

    def test_communication_less_run_ignores_delays(self):
        inst = instance_for_line(1, Timing.ASYNC).bind(3, 1)
        cfg = SystemConfig(3, 1, Timing.ASYNC)
        runs = [
            run_async(inst, cfg, SeededChoices(5), NO_CRASHES, dp)
            for dp in (ALL_IMMEDIATE, all_latest(12))
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].events == runs[1].events


class TestDeadlineSemantics:
    def test_latest_delivery_misses_the_deadline(self):
        # The designated process re-checks its observations when its deadline
        # fires, before that step's deliveries land.
        inst = instance_for_line(4, Timing.ASYNC).bind(2, 1)
        cfg = SystemConfig(2, 1, Timing.ASYNC)
        trace = run_async(inst, cfg, SeededChoices(0), NO_CRASHES, all_latest(8))
        assert trace.outputs[0] == 1  # default value, nothing observed in time
        assert trace.outputs == (1, 1)

    def test_immediate_delivery_is_seen(self):
        inst = instance_for_line(4, Timing.ASYNC).bind(2, 1)
        cfg = SystemConfig(2, 1, Timing.ASYNC)
        saw_flip = False
        for seed in range(40):
            trace = run_async(
                inst, cfg, SeededChoices(seed), NO_CRASHES, ALL_IMMEDIATE
            )
            assert trace.outputs[1] == 1
            if trace.outputs[0] == 0:
                saw_flip = True
        assert saw_flip  # some pick makes the designated process flip


class TestDeterminismAndReplay:
    CASES = [
        (instance_for_line(10, Timing.SYNC), SystemConfig(3, 1, Timing.SYNC)),
        (instance_for_line(7, Timing.ASYNC), SystemConfig(5, 2, Timing.ASYNC)),
        (instance_for_line(3, Timing.ASYNC), SystemConfig(3, 2, Timing.ASYNC)),
        (instance_for_line(9, Timing.SYNC), SystemConfig(2, 1, Timing.SYNC)),
    ]

    def test_repeat_runs_are_byte_identical(self):
        for inst, cfg in self.CASES:
            for trace_a, trace_b in zip(
                sample_traces(inst, cfg, 40, meta_seed=1, record=True),
                sample_traces(inst, cfg, 40, meta_seed=1, record=True),
            ):
                assert trace_a.to_jsonl() == trace_b.to_jsonl()

    def test_replay_from_header_only(self):
        for inst, cfg in self.CASES:
            for trace in sample_traces(inst, cfg, 25, meta_seed=2, record=True):
                text = trace.to_jsonl()
                again = replay(text)
                assert again.to_jsonl() == text

    def test_parse_roundtrip(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        trace = run_sync(inst, SYNC2, SeededChoices(3), NO_CRASHES)
        parsed = ExecutionTrace.parse(trace.to_jsonl())
        assert parsed.outputs == trace.outputs
        assert parsed.events == trace.events
        assert parsed.header == trace.header

    def test_parse_and_replay_check_the_trace_version(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        trace = run_sync(inst, SYNC2, SeededChoices(3), NO_CRASHES)
        header = dict(trace.header, version=TRACE_VERSION + 1)
        body = trace.to_jsonl().split("\n", 1)[1]
        text = json.dumps(header) + "\n" + body
        for read in (ExecutionTrace.parse, replay):
            with pytest.raises(PreconditionError, match="version"):
                read(text)
        with pytest.raises(PreconditionError, match="version"):
            replay(header)


class TestTraceInvariants:
    def traces(self):
        for inst, cfg in TestDeterminismAndReplay.CASES:
            yield from sample_traces(inst, cfg, 120, meta_seed=3, record=True)

    def test_at_most_one_output_per_process(self):
        for trace in self.traces():
            for pid in range(1, trace.n + 1):
                outputs = [
                    e for e in trace.events if e["kind"] == "output" and e["pid"] == pid
                ]
                assert len(outputs) <= 1

    def test_no_events_after_crash(self):
        for trace in self.traces():
            for pid in range(1, trace.n + 1):
                seqs = [e["seq"] for e in trace.events if e["pid"] == pid]
                crashes = [
                    e["seq"]
                    for e in trace.events
                    if e["pid"] == pid and e["kind"] == "crash"
                ]
                if crashes:
                    assert max(seqs) == crashes[0]

    def test_medium_audit_clean(self):
        for trace in self.traces():
            assert medium_check(trace) == []

    def test_quiescent_runs_have_all_items_delivered(self):
        inst = instance_for_line(7, Timing.ASYNC)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        quiescent = [
            t
            for t in sample_traces(inst, cfg, 300, meta_seed=4, record=True)
            if t.termination == "QUIESCENT"
        ]
        assert quiescent, "expected some quiescent executions"
        for trace in quiescent:
            communicated = {
                (e["pid"], e["index"])
                for e in trace.events
                if e["kind"] == "communicate"
            }
            for key in communicated:
                observers = {
                    e["pid"]
                    for e in trace.events
                    if e["kind"] == "observe" and (e["sender"], e["index"]) == key
                }
                assert trace.correct_pids() <= observers


class TestForgedTraces:
    def forged(self, events, timing=Timing.SYNC, n=2):
        header = {"cfg": {"n": n, "t": 0, "timing": timing.value}}
        return ExecutionTrace(header, events, (None,) * n, "ALL_DONE")

    def test_observe_without_communicate(self):
        events = [
            {"seq": 0, "t": 0, "pid": 1, "kind": "observe", "sender": 2, "index": 0,
             "tag": "OUTPUT", "value": 1},
        ]
        violations = medium_check(self.forged(events))
        assert any("C-Validity" in v for v in violations)

    def test_late_delivery_breaks_synchrony(self):
        events = [
            {"seq": 0, "t": 0, "pid": 1, "kind": "communicate", "index": 0,
             "tag": "PROPOSE", "value": 0, "stmt": 0},
            {"seq": 1, "t": 0, "pid": 1, "kind": "observe", "sender": 1, "index": 0,
             "tag": "PROPOSE", "value": 0},
            {"seq": 2, "t": 2, "pid": 2, "kind": "observe", "sender": 1, "index": 0,
             "tag": "PROPOSE", "value": 0},
        ]
        violations = medium_check(self.forged(events))
        assert any("C-Synchrony" in v for v in violations)

    def test_partial_observation_breaks_global_termination(self):
        events = [
            {"seq": 0, "t": 0, "pid": 1, "kind": "communicate", "index": 0,
             "tag": "OUTPUT", "value": 1, "stmt": 0},
            {"seq": 1, "t": 0, "pid": 1, "kind": "observe", "sender": 1, "index": 0,
             "tag": "OUTPUT", "value": 1},
        ]
        violations = medium_check(self.forged(events))
        assert any("C-Global-Termination" in v for v in violations)

    def test_unobserved_item_breaks_local_termination(self):
        events = [
            {"seq": 0, "t": 0, "pid": 1, "kind": "communicate", "index": 0,
             "tag": "OUTPUT", "value": 1, "stmt": 0},
        ]
        violations = medium_check(self.forged(events))
        assert any("C-Local-Termination" in v for v in violations)


class TestRejections:
    def test_too_many_crashes(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        fp = FailurePattern.of({1: 0, 2: 0})
        with pytest.raises(PreconditionError):
            run_sync(inst, SYNC2, SeededChoices(0), fp)

    def test_wrong_timing_model(self):
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        with pytest.raises(PreconditionError):
            run_async(
                inst,
                SystemConfig(2, 1, Timing.ASYNC),
                SeededChoices(0),
                NO_CRASHES,
                ALL_IMMEDIATE,
            )

    def test_sync_only_algorithm_rejected_async(self):
        inst = AlgorithmInstance(
            kind=AlgorithmKind.SYNC_DISAGREEMENT, timing=Timing.SYNC, no_out=False
        ).bind(4, 2)
        with pytest.raises(PreconditionError):
            run_async(
                inst,
                SystemConfig(4, 2, Timing.ASYNC),
                SeededChoices(0),
                NO_CRASHES,
                ALL_IMMEDIATE,
            )

    def test_delay_pattern_for_impossible_item(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        bogus = DelayPattern.of({(4, 7, 1): 0}, default=0)  # p4 never emits 8 items
        with pytest.raises(PreconditionError):
            run_async(inst, cfg, SeededChoices(0), NO_CRASHES, bogus)

    def test_delay_pattern_omitting_a_receiver(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        partial = DelayPattern.of({(1, 0, 1): 0}, default=None)
        with pytest.raises(PreconditionError):
            run_async(inst, cfg, SeededChoices(0), NO_CRASHES, partial)

    def test_delivery_beyond_horizon(self):
        inst = instance_for_line(8, Timing.ASYNC).bind(5, 2)
        cfg = SystemConfig(5, 2, Timing.ASYNC)
        late = DelayPattern.of({(1, 0, 1): 99}, default=0)
        with pytest.raises(PreconditionError):
            run_async(inst, cfg, SeededChoices(0), NO_CRASHES, late, horizon=20)


def test_zero_process_system():
    inst = instance_for_line(15, Timing.SYNC).bind(0, 0)
    cfg = SystemConfig(0, 0, Timing.SYNC)
    trace = run_sync(inst, cfg, SeededChoices(0), NO_CRASHES)
    assert trace.outputs == ()
    assert trace.output_set() is OutputSet.EMPTY
    assert trace.termination == "ALL_DONE"
