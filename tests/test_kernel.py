"""Execution kernel: lock-step rounds, schedules of moves, audit, replay."""

import json
import re

import pytest
from conftest import run_eager

from binsos.algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from binsos.checker import sample_traces, witness
from binsos.outputsets import OutputSet, SystemConfig, Timing, tight_condition
from binsos.patterns import NO_CRASHES, FailurePattern
from binsos.program import ScriptedChoices, SeededChoices
from binsos.simkernel import (
    EVENT_FIELDS,
    TRACE_VERSION,
    ExecutionTrace,
    PreconditionError,
    medium_check,
    read_schedule,
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
        trace = run_eager(inst, cfg, SeededChoices(0))
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
        for trace in (run_eager(inst, cfg, gates_closed),
                      run_async(inst, cfg, gates_closed, NO_CRASHES)):
            assert trace.termination == "QUIESCENT"
            assert trace.output_set() is OutputSet.EMPTY

    def test_communication_less_run_ignores_delays(self):
        inst = instance_for_line(1, Timing.ASYNC).bind(3, 1)
        cfg = SystemConfig(3, 1, Timing.ASYNC)
        runs = [
            run_eager(inst, cfg, SeededChoices(5)),
            run_async(inst, cfg, SeededChoices(5), NO_CRASHES),
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].events == runs[1].events


class TestDeadlineSemantics:
    def test_latest_delivery_misses_the_deadline(self):
        # The designated process re-checks its observations when its deadline
        # fires, before that step's deliveries land.
        inst = instance_for_line(4, Timing.ASYNC).bind(2, 1)
        cfg = SystemConfig(2, 1, Timing.ASYNC)
        trace = run_async(inst, cfg, SeededChoices(0), NO_CRASHES, ())
        assert trace.outputs[0] == 1  # default value, nothing observed in time
        assert trace.outputs == (1, 1)

    def test_immediate_delivery_is_seen(self):
        inst = instance_for_line(4, Timing.ASYNC).bind(2, 1)
        cfg = SystemConfig(2, 1, Timing.ASYNC)
        saw_flip = False
        for seed in range(40):
            trace = run_eager(inst, cfg, SeededChoices(seed))
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

    def test_every_trace_line_is_its_sorted_compact_json(self):
        # One recorded trace of each of the six algorithms, with crashes.
        cells = [(1, Timing.ASYNC), (9, Timing.SYNC), (3, Timing.ASYNC),
                 (7, Timing.ASYNC), (8, Timing.SYNC), (10, Timing.SYNC)]
        kinds = set()
        for line, timing in cells:
            inst = instance_for_line(line, timing)
            kinds.add(inst.kind)
            cfg = SystemConfig(5, 1, timing)
            trace = next(
                trace for trace in sample_traces(inst, cfg, 50, meta_seed=5, record=True)
                if any(e["kind"] == "crash" for e in trace.events)
            )
            final = {"kind": "final", "outputs": list(trace.outputs),
                     "termination": trace.termination}
            expected = [
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                for record in [trace.header, *trace.events, final]
            ]
            assert trace.to_jsonl().split("\n") == expected + [""]
        assert len(kinds) == 6

    def test_line_formatters_write_what_json_dumps_writes(self):
        # Every line of every recorded trace is its sorted compact JSON, and
        # parsing the text gives it back: a few seeded traces of each line's
        # instance at each n <= 5 under both timings, and the violations of
        # permissively bound line-7/8 instances outside their conditions.
        traces = []
        for line in range(1, 16):
            for timing in Timing:
                condition = tight_condition(line, timing)
                for n in range(1, 6):
                    ts = [t for t in range(n + 1) if condition.holds(n, t)]
                    if ts:
                        inst = instance_for_line(line, timing)
                        cfg = SystemConfig(n, ts[-1], timing)
                        traces += sample_traces(inst, cfg, 4, meta_seed=n, record=True)
        for cfg, no_out in [(SystemConfig(2, 1, Timing.SYNC), False),
                            (SystemConfig(2, 1, Timing.ASYNC), False),
                            (SystemConfig(4, 2, Timing.ASYNC), True),
                            (SystemConfig(3, 2, Timing.SYNC), True)]:
            traces += witness(cfg, no_out).verdict.violations
        seen = set()
        for trace in traces:
            final = {"kind": "final", "outputs": list(trace.outputs),
                     "termination": trace.termination}
            text = trace.to_jsonl()
            assert text.split("\n") == [
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                for record in [trace.header, *trace.events, final]
            ] + [""]
            parsed = ExecutionTrace.parse(text)
            assert parsed.events == trace.events and parsed.to_jsonl() == text
            seen.add((trace.header["alg"]["kind"], trace.timing))
            seen.update(e["kind"] for e in trace.events)
            seen.update(("pick", e["value"]) for e in trace.events if e["kind"] == "pick")
        runs = {(kind.value, timing) for kind in AlgorithmKind for timing in Timing}
        assert len(seen & runs) == 9  # each algorithm under each timing it admits
        assert set(EVENT_FIELDS) | {("pick", None)} <= seen

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

    @staticmethod
    def clock_faults(trace):
        """Events of ``trace`` that break the kernel's clock: a step below
        the one before it along ``seq``, or an observe at a step before its
        item's communicate."""
        faults, last, sent = [], 0, {}
        for event in trace.events:
            if event["t"] < last:
                faults.append(event)
            last = event["t"]
            if event["kind"] == "communicate":
                sent[(event["pid"], event["index"])] = event["t"]
            elif event["kind"] == "observe":
                if event["t"] < sent[(event["sender"], event["index"])]:
                    faults.append(event)
        return faults

    def test_steps_never_run_backwards(self, table_n4):
        report, _ = table_n4
        traces = [
            trace for cell in report.cells
            for trace in [*cell.verdict.witnesses.values(), *cell.verdict.violations]
        ]
        for line in (1, 3, 7, 8, 9, 10):
            for timing in (Timing.ASYNC, Timing.SYNC):
                condition = tight_condition(line, timing)
                t = max((t for t in range(6) if condition.holds(5, t)), default=None)
                if t is not None:
                    cfg = SystemConfig(5, t, timing)
                    inst = instance_for_line(line, timing).bind(5, t)
                    traces.extend(sample_traces(inst, cfg, 300, record=True))
        assert len(traces) > 4000
        for trace in traces:
            assert self.clock_faults(trace) == [], trace.header

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
                crashed = {e["pid"] for e in trace.events if e["kind"] == "crash"}
                assert set(range(1, trace.n + 1)) - crashed <= observers


class TestForgedTraces:
    def forged(self, events, timing=Timing.SYNC, n=2):
        header = {"alg": {"n": n, "t": 0, "timing": timing.value}}
        return ExecutionTrace(header, events, (None,) * n, "ALL_DONE")

    def test_observe_without_communicate(self):
        events = [
            {"seq": 0, "t": 0, "pid": 1, "kind": "observe", "sender": 2, "index": 0,
             "tag": "OUTPUT", "value": 1},
        ]
        violations = medium_check(self.forged(events))
        assert any("C-Validity" in v for v in violations)

    @staticmethod
    def recorded_sync_run():
        inst = instance_for_line(10, Timing.SYNC).bind(2, 1)
        return run_sync(inst, SYNC2, ScriptedChoices({(1, 0): 0, (2, 0): 1}), NO_CRASHES)

    def test_corrupted_payload_breaks_validity(self):
        trace = self.recorded_sync_run()
        assert medium_check(trace) == []
        obs = next(e for e in trace.events if e["kind"] == "observe")
        obs["value"] = 1 - obs["value"]
        assert medium_check(trace) == [
            f"C-Validity: item {(obs['sender'], obs['index'])} observed by {obs['pid']} "
            f"with corrupted payload {obs['tag']}({obs['value']})"
        ]

    def test_communicate_at_a_computation_tick_breaks_synchrony(self):
        trace = self.recorded_sync_run()
        comm = next(e for e in trace.events if e["kind"] == "communicate")
        key = (comm["pid"], comm["index"])
        # Move the item and its observations together, so that only the
        # tick's parity is wrong.
        for event in trace.events:
            if event is comm or (
                event["kind"] == "observe" and (event["sender"], event["index"]) == key
            ):
                event["t"] += 1
        assert medium_check(trace) == [
            f"C-Synchrony: item {key} communicated outside a communication step "
            f"(tick {comm['t']})"
        ]

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
            run_async(inst, SystemConfig(2, 1, Timing.ASYNC), SeededChoices(0), NO_CRASHES)

    def test_sync_only_algorithm_rejected_async(self):
        inst = AlgorithmInstance(
            kind=AlgorithmKind.SYNC_DISAGREEMENT, timing=Timing.SYNC, no_out=False
        ).bind(4, 2)
        with pytest.raises(PreconditionError):
            run_async(inst, SystemConfig(4, 2, Timing.ASYNC), SeededChoices(0), NO_CRASHES)

    # L8 async at n=5, t=2: p1 and p2 (the 0-group) output 0 and communicate
    # OUTPUT(0) at the root settle, p3 and p4 (the 1-group) OUTPUT(1), and
    # the flip process p5 waits for an OUTPUT item.
    L8 = instance_for_line(8, Timing.ASYNC).bind(5, 2), SystemConfig(5, 2, Timing.ASYNC)

    def rejected(self, schedule, fp=NO_CRASHES):
        with pytest.raises(PreconditionError) as info:
            run_async(*self.L8, SeededChoices(0), fp, schedule)
        return str(info.value)

    def test_schedule_move_that_is_not_a_list(self):
        for doc, named in [
            ({"moves": []}, "schedule {'moves': []} must be a list of moves"),
            ([[5, [[1, 0]]], 5], "schedule move 2 is 5, not [receiver, [[sender, index], ...]]"),
            ([[5, [1, 0]]], "schedule move 1 item 1 must be [sender, index]"),
            ([[True, [[1, 0]]]], "schedule move 1 is [True, [[1, 0]]], not [receiver"),
        ]:
            with pytest.raises(ValueError) as info:
                read_schedule(doc)
            assert named in str(info.value)

    def test_schedule_receiver_unknown_or_crashed(self):
        assert self.rejected([(5, [(1, 0)]), (6, [(1, 0)])]) == (
            "schedule move 2: receiver 6 is not a process"
        )
        assert self.rejected([(0, [(1, 0)])]) == "schedule move 1: receiver 0 is not a process"
        # p5 crashes at slot 0, at the root settle.
        assert self.rejected([(5, [(1, 0)])], FailurePattern.of({5: 0})) == (
            "schedule move 1: receiver 5 has crashed"
        )

    def test_schedule_item_never_emitted(self):
        # p4 emits one item.
        assert self.rejected([(5, [(4, 7)])]) == "schedule move 1: item (4, 7) was never emitted"

    def test_schedule_item_of_negative_index(self):
        assert self.rejected([(5, [(1, -1)])]) == (
            "schedule move 1: item (1, -1) was never emitted"
        )

    def test_schedule_item_not_pending(self):
        assert self.rejected([(5, [(1, 0)]), (1, [(2, 0)]), (5, [(2, 0), (1, 0)])]) == (
            "schedule move 3: item (1, 0) is not pending to process 5"
        )

    def test_schedule_move_empty_or_repeating_an_item(self):
        for doc, named in [
            ([[5, [[1, 0]]], [5, []]], "schedule move 2 lands no item"),
            ([[5, [[1, 0], [3, 0], [1, 0]]]], "schedule move 1 lands item (1, 0) twice"),
        ]:
            with pytest.raises(ValueError, match=re.escape(named)):
                read_schedule(doc)


def test_zero_process_system():
    inst = instance_for_line(15, Timing.SYNC).bind(0, 0)
    cfg = SystemConfig(0, 0, Timing.SYNC)
    trace = run_sync(inst, cfg, SeededChoices(0), NO_CRASHES)
    assert trace.outputs == ()
    assert trace.output_set() is OutputSet.EMPTY
    assert trace.termination == "ALL_DONE"


def test_any_tag_is_observed_and_bound(foo_instance):
    # The kernel knows no tag: a wait on "FOO" blocks until the item lands,
    # then binds its value.
    inst, cfg = foo_instance
    for trace in (run_eager(inst, cfg, ScriptedChoices()),
                  run_async(inst, cfg, ScriptedChoices(), NO_CRASHES)):
        assert trace.termination == "ALL_DONE"
        assert trace.outputs == (None, 1)
        assert medium_check(trace) == []
