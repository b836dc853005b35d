"""Command line surface: flags, files, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from binsos import checker, cli


def invoke(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag the way the process exits
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


#: JSON nested past the reader's recursion limit.
DEEP = "[" * 3000 + "]" * 3000


class TestRunCommand:
    def test_run_consensus_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "alg6.trace"
        code, stdout, _ = invoke(
            capsys, "run", "--alg", "alg6", "-n", "2", "-t", "1",
            "--timing", "sync", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["output_set"] in ("{0}", "{1}")
        # Pin the concrete outcome of seed 7: a change means the choice
        # mixer is no longer stable across versions.
        assert summary["output_set"] == "{1}"
        assert summary["termination"] == "ALL_DONE"
        assert out.read_text().startswith('{"alg"')

    def test_run_silent_alphabet(self, capsys, tmp_path):
        out = tmp_path / "t.trace"
        code, stdout, _ = invoke(
            capsys, "run", "--alg", "all_output", "--params", '{"values":[null]}',
            "-n", "1", "-t", "1", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["output_set"] == "{}"

    def test_run_rejects_violated_condition(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--alg", "sync_disagreement", "--params", '{"no_out":false}',
            "-n", "1", "-t", "0", "--timing", "sync",
        )
        assert code == cli.EXIT_PRECONDITION
        assert "n>=t+2" in err

    @pytest.mark.parametrize("seed", [str(2**64 + 7), "-1", str(2**64 - 1 + 2**64)])
    def test_run_rejects_a_seed_outside_64_bits(self, capsys, seed):
        code, stdout, err = invoke(
            capsys, "run", "--alg", "alg6", "-n", "3", "-t", "1", "--timing", "sync",
            "--seed", seed,
        )
        assert code == cli.EXIT_PRECONDITION
        assert f"choice seed {seed} is outside 0..2**64-1" in err and stdout == ""

    def test_run_takes_the_largest_64_bit_seed(self, capsys):
        code, _, _ = invoke(
            capsys, "run", "--alg", "alg6", "-n", "3", "-t", "1", "--timing", "sync",
            "--seed", str(2**64 - 1),
        )
        assert code == cli.EXIT_OK

    def test_run_rejects_t_above_n(self, capsys):
        code, _, err = invoke(
            capsys, "run", "--alg", "alg6", "-n", "2", "-t", "3", "--timing", "sync"
        )
        assert code == cli.EXIT_PRECONDITION

    def test_run_with_line_selector_and_patterns(self, tmp_path, capsys):
        fp = tmp_path / "fp.json"
        fp.write_text(json.dumps({"crashes": [[1, 0]]}))
        out = tmp_path / "t.trace"
        code, stdout, _ = invoke(
            capsys, "run", "--line", "9", "-n", "2", "-t", "1",
            "--fp", f"@{fp}", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["output_set"] == "{}"

    def test_one_run_writes_one_trace(self, tmp_path, capsys):
        # A line and the algorithm with its parameters name the same
        # instance; an async run given no --schedule takes the empty one.
        by_line, by_alg = tmp_path / "line.trace", tmp_path / "alg.trace"
        for out, flags in (
            (by_line, ["--line", "10"]),
            (by_alg, ["--alg", "single_output", "--params", '{"no_out":false}']),
        ):
            code, _, err = invoke(
                capsys, "run", *flags, "-n", "2", "-t", "0", "--out", str(out)
            )
            assert code == cli.EXIT_OK, err
        assert by_line.read_bytes() == by_alg.read_bytes()
        header = json.loads(by_line.read_text().splitlines()[0])
        assert header["alg"]["line"] == 10
        assert header["schedule"] == []

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--line", "9", "--schedule", '["bogus"]'], "'bogus'"),
            (["--line", "9", "--fp", '{"crash":[]}'], "'crashes'"),
            (["--line", "9", "--fp", "[1]"], "'crashes'"),
            (["--alg", "single_output", "--params", "no_out=false"], "--params"),
            (["--alg", "alg6", "--timing", "sync", "--params", '{"bogus":1}'], "'bogus'"),
            (["--line", "9", "--config"], "--config"),
            (
                ["--alg", "alg6", "--timing", "sync", "--fp", '{"crashes":[[1,0],[1,2]]}'],
                "process 1 twice",
            ),
            (
                ["--line", "9", "--timing", "sync", "--schedule", "[[1,[[1,0]]]]"],
                "a SYNC run takes no schedule",
            ),
            # Nothing sets the horizon: argparse rejects the unknown flag.
            (["--line", "9", "--timing", "sync", "--horizon", "3"], "--horizon"),
            (["--alg", "all_output", "--params", '{"values":5}'], "values"),
            (["--alg", "single_output", "--params", '{"no_out":"x"}'], "no_out"),
            (["--alg", "single_output", "--params", '{"no_out":1}'], "no_out"),
            (
                ["--alg", "alg5", "--params", '{"no_out":false,"default_value":"1"}'],
                "default_value",
            ),
            (
                ["--line", "9", "--schedule", "[[-1,[[1,0]]]]"],
                "schedule move 1: receiver -1 is not a process",
            ),
            (["--alg", "all_output", "--params", "[0]"], "--params"),
            (["--alg", "all_output", "--params", '{"values":[0,1],"values":[1]}'], "'values'"),
            (
                ["--alg", "single_output", "--params", '{"no_out":false,"values":[0]}'],
                "values",
            ),
            (["--alg", "alg6", "--timing", "sync", "--params", '{"no_out":true}'], "no_out"),
            (["--alg", "alg6", "--timing", "sync", "--fp", "{"], "--fp"),
            (["--alg", "alg6", "--timing", "sync", "--fp", '{"crashes":[[1,99]]}'], "slot 99"),
            (["--alg", "alg6", "--tim", "sync"], "unrecognized arguments: --tim sync"),
            (["--alg", "alg6", "--timing", "sync", "--fp", "null"], "failure pattern"),
            (["--alg", "alg6", "--timing", "sync", "--params", "null"], "--params"),
            (["--line", "9", "--fp", "@no-such-fp.json"], "cannot read no-such-fp.json"),
            # A descriptor takes no key it does not read.
            (
                ["--line", "1", "--fp", '{"crashes": [], "crashez": [[1,0]]}'],
                "failure pattern has the undeclared key 'crashez'",
            ),
            (
                ["--line", "9", "--schedule", '{"kind":"map","moves":[]}'],
                "schedule {'kind': 'map', 'moves': []} must be a list of moves",
            ),
            (
                ["--line", "9", "--schedule", "[[2,[[1,0],[1,0]]]]"],
                "schedule move 1 lands item (1, 0) twice",
            ),
            (["--line", "1", "--fp", DEEP], "error: --fp is nested too deeply"),
            (["--line", "1", "--schedule", DEEP], "error: --schedule is nested too deeply"),
            (["--alg", "alg3", "--params", DEEP], "error: --params is nested too deeply"),
        ],
    )
    def test_bad_input_is_rejected_with_its_field_named(self, tmp_path, capsys, flags, named):
        out = tmp_path / "t.trace"
        code, stdout, err = invoke(capsys, "run", "-n", "2", "-t", "1", "--out", str(out), *flags)
        assert code == cli.EXIT_PRECONDITION
        assert named in err and stdout == ""
        assert not out.exists()

    def test_params_from_a_file(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"no_out": true, "default_value": 1}')
        code, stdout, _ = invoke(
            capsys, "run", "--alg", "timing_adaptive", "--params", f"@{params}",
            "-n", "3", "-t", "1",
        )
        assert code == cli.EXIT_OK
        assert last_json(stdout)["termination"] == "ALL_DONE"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--line", "9", "-n", "2", "-t", "1", "--out", "{missing}/x.trace"],
            ["conditions", "--out", "{dir}"],
        ],
    )
    def test_unwritable_out_is_rejected_with_its_path(self, tmp_path, capsys, argv):
        argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
        code, stdout, err = invoke(capsys, *argv)
        assert code == cli.EXIT_PRECONDITION
        assert f"cannot write {argv[-1]}" in err and stdout == ""

    def test_deeply_nested_config_rejected_with_its_path_named(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"fp": %s}' % DEEP)
        code, stdout, err = invoke(
            capsys, "--config", str(config), "run", "--line", "1", "-n", "2", "-t", "1"
        )
        assert code == cli.EXIT_PRECONDITION
        assert f"error: --config file {config} is nested too deeply" in err and stdout == ""

    def test_json_params_take_a_values_list(self, capsys):
        code, stdout, _ = invoke(
            capsys, "run", "--alg", "all_output", "--params", '{"values":[0,1]}',
            "-n", "2", "-t", "1",
        )
        assert code == 0
        assert last_json(stdout)["termination"] == "ALL_DONE"


class TestReplayCommand:
    def make_trace(self, tmp_path, capsys, *flags):
        out = tmp_path / "run.trace"
        invoke(
            capsys, "run", *(flags or ("--alg", "alg6", "--timing", "sync")),
            "-n", "2", "-t", "1", "--seed", "3", "--out", str(out),
        )
        return out

    def edit_header(self, out, edit):
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")

    def test_replay_reproduces_summary(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        code, stdout, _ = invoke(capsys, "replay", str(out))
        assert code == 0
        assert last_json(stdout)["identical"] is True

    def test_tampered_trace_detected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        final = json.loads(lines[-1])
        final["outputs"] = [0, 0] if final["outputs"] != [0, 0] else [1, 1]
        lines[-1] = json.dumps(final, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        code, stdout, _ = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_VERDICT
        assert last_json(stdout)["identical"] is False

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda header: header.update(version=99), "version 99"),
            (lambda header: header.update(version=1), "trace version 1 is not supported"),
            (lambda header: header.update(version=2), "trace version 2 is not supported"),
            # alg holds n, t and timing; a leftover copy under cfg is rejected.
            (lambda header: header.update(cfg={"n": 2, "t": 1, "timing": "sync"}), "cfg"),
            (lambda header: header["alg"].pop("n"), "algorithm lacks 'n'"),
            (lambda header: header.update(choices={}), "choices lacks 'mode'"),
            (lambda header: header.update(alg={}), "algorithm lacks 'kind'"),
            (lambda header: header["alg"].update(no_out=True), "no_out"),
            (lambda header: header.update(note=1), "trace header has the undeclared key 'note'"),
            (
                lambda header: header["alg"].update(rounds=1),
                "algorithm has the undeclared key 'rounds'",
            ),
            (
                lambda header: header["alg"].update(permissive=None),
                "algorithm permissive None must be bool",
            ),
            (
                lambda header: header["fp"].update(crashez=[[1, 0]]),
                "failure pattern has the undeclared key 'crashez'",
            ),
            (
                lambda header: header["choices"].update(picks=[]),
                "choices has the undeclared key 'picks'",
            ),
            (
                lambda header: header.update(
                    choices={"mode": "script", "picks": [[1, 0, 0], [2, 0, 0], [1, 0, 1]]}
                ),
                "choices picks repeat (pid=1, counter=0)",
            ),
            (
                lambda header: header["choices"].update(seed=2**64 + 3),
                "choice seed 18446744073709551619 is outside 0..2**64-1",
            ),
            (lambda header: header.update(version=3), "trace version 3 is not supported"),
            (
                lambda header: header["choices"].update(seed=-1),
                "choice seed -1 is outside 0..2**64-1",
            ),
        ],
    )
    def test_unreadable_header_rejected(self, tmp_path, capsys, edit, named):
        out = self.make_trace(tmp_path, capsys)
        self.edit_header(out, edit)
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert named in err and stdout == ""

    def test_header_lacking_a_parameter_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys, "--line", "4")
        assert invoke(capsys, "replay", str(out))[0] == cli.EXIT_OK
        self.edit_header(out, lambda header: header["alg"].update(no_out=None))
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "no_out" in err and stdout == ""

    def test_header_repeating_a_key_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        text = out.read_text()
        out.write_text('{"schedule":[],' + text[1:])
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "trace header repeats the key 'schedule'" in err and stdout == ""

    @pytest.mark.parametrize("flags, horizon", [((), 3), (("--line", "4"), 4 * 2 + 1)])
    def test_header_of_a_horizon_rejected(self, tmp_path, capsys, flags, horizon):
        # Version 4 dropped the horizon: a version-4 header that records one
        # is rejected for the key, and one edited back to version 3 for its
        # version.
        out = self.make_trace(tmp_path, capsys, *flags)
        assert "horizon" not in json.loads(out.read_text().splitlines()[0])
        self.edit_header(out, lambda header: header.update(horizon=horizon))
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "trace header has the undeclared key 'horizon'" in err and stdout == ""
        self.edit_header(out, lambda header: header.update(version=3))
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "trace version 3 is not supported (expected 4)" in err and stdout == ""

    def test_header_permissive_false_outside_the_condition_rejected(self, tmp_path, capsys):
        out = tmp_path / "run.trace"
        argv = ["run", "--line", "4", "-n", "2", "-t", "2", "--permissive", "--out", str(out)]
        assert invoke(capsys, *argv)[0] == cli.EXIT_OK
        self.edit_header(out, lambda header: header["alg"].update(permissive=False))
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "violates condition 'n>t and n>=2'" in err and stdout == ""

    def test_header_line_other_than_its_parameters_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys, "--line", "4")
        self.edit_header(out, lambda header: header["alg"].update(line=3))
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "line 3 is not 4" in err and stdout == ""

    def test_malformed_final_record_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:-1] + ["[1]"]) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "final record" in err and stdout == ""

    def test_final_record_with_an_undeclared_key_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        final = json.loads(lines[-1])
        final["note"] = 1
        out.write_text("\n".join(lines[:-1] + [json.dumps(final)]) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "trace final record has the undeclared key 'note'" in err and stdout == ""

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda final: final.update(outputs=[2, 1]),
             "trace final record outputs entry 2 must be 0, 1 or null"),
            (lambda final: final.update(outputs=[True, 1]),
             "trace final record outputs entry True must be 0, 1 or null"),
            (lambda final: final.update(outputs=["x", None]),
             "trace final record outputs entry 'x' must be 0, 1 or null"),
            (lambda final: final.update(outputs=[1, 1, 1]),
             "trace final record outputs has 3 entries, not alg.n = 2"),
            (lambda final: final.update(termination="DONE"),
             "trace final record termination 'DONE' must be 'ALL_DONE' or 'QUIESCENT'"),
        ],
        ids=["outputs-2", "outputs-bool", "outputs-str", "outputs-length", "termination"],
    )
    def test_final_record_the_kernel_never_writes_rejected(self, tmp_path, capsys, edit, named):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        final = json.loads(lines[-1])
        edit(final)
        lines[-1] = json.dumps(final, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert named in err and stdout == ""

    @pytest.mark.parametrize(
        "kind, edit, named",
        [
            ("pick", lambda e: e.update(kind="decide"), ": kind 'decide' is not an event kind"),
            ("observe", lambda e: e.pop("sender"), " (observe event) lacks 'sender'"),
            ("output", lambda e: e.pop("value"), " (output event) lacks 'value'"),
            ("output", lambda e: e.update(note=1),
             " (output event) has the undeclared key 'note'"),
            ("communicate", lambda e: e.update(index=True),
             " (communicate event) index True must be int"),
            ("observe", lambda e: e.update(seq=1.0), " (observe event) seq 1.0 must be int"),
            ("pick", lambda e: e.update(value=2),
             " (pick event) value 2 must be 0, 1 or null"),
            ("pick", lambda e: e.update(value=False),
             " (pick event) value False must be 0, 1 or null"),
            ("observe", lambda e: e.update(tag=0), " (observe event) tag 0 must be str"),
        ],
        ids=["unknown-kind", "missing-field", "missing-value", "extra-field", "bool-int",
             "float-int", "value-2", "value-bool", "int-tag"],
    )
    def test_event_the_kernel_never_writes_rejected(self, tmp_path, capsys, kind, edit, named):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        number = next(k for k, line in enumerate(lines, 1) if f'"kind":"{kind}"' in line)
        event = json.loads(lines[number - 1])
        edit(event)
        lines[number - 1] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert f"trace line {number}{named}" in err and stdout == ""

    @pytest.mark.parametrize(
        "index, named",
        [(0, "trace header"), (1, "trace line 2"), (-1, "trace final record")],
        ids=["header", "event", "final"],
    )
    def test_deeply_nested_line_rejected_with_it_named(self, tmp_path, capsys, index, named):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        lines[index] = DEEP
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert f"error: {named} is nested too deeply" in err and stdout == ""

    def test_event_line_that_is_no_object_rejected(self, tmp_path, capsys):
        out = self.make_trace(tmp_path, capsys)
        lines = out.read_text().splitlines()
        lines[1] = "[1]"
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
        assert code == cli.EXIT_PRECONDITION
        assert "trace line 2 is not a JSON object" in err and stdout == ""


# L7 async at n=3, t=1, seed 0, with p3 crashed at slot 0: at the root p1
# picks 0 and communicates INIT, item (1, 0), and p2 picks 1 and emits
# nothing.  Each schedule below has one fault, named with its move.
SCHEDULE_FAULTS = [
    ([[1, [[1, 0]]], 5], "schedule move 2 is 5, not [receiver, [[sender, index], ...]]"),
    ([[1, [[1, 0]]], [1, [1, 0]]], "schedule move 2 item 1 must be [sender, index]"),
    ([[4, [[1, 0]]]], "schedule move 1: receiver 4 is not a process"),
    ([[3, [[1, 0]]]], "schedule move 1: receiver 3 has crashed"),
    ([[1, [[2, 0]]]], "schedule move 1: item (2, 0) was never emitted"),
    ([[1, [[1, 0]]], [1, [[1, 0]]]], "schedule move 2: item (1, 0) is not pending to process 1"),
    ([[1, []]], "schedule move 1 lands no item"),
    ([[2, [[1, 0], [1, 0]]]], "schedule move 1 lands item (1, 0) twice"),
    ("[[1,", "schedule '[[1,' must be"),
]
SCHEDULE_RUN = ["--line", "7", "-n", "3", "-t", "1", "--fp", '{"crashes":[[3,0]]}']


@pytest.mark.parametrize("source", ["flag", "header"])
@pytest.mark.parametrize("schedule, named", SCHEDULE_FAULTS)
def test_schedule_fault_rejected_by_name(tmp_path, capsys, source, schedule, named):
    out = tmp_path / "run.trace"
    if source == "flag":
        # A literal that is no JSON at all is named as the flag.
        text = schedule if isinstance(schedule, str) else json.dumps(schedule)
        if isinstance(schedule, str):
            named = "--schedule is not JSON"
        code, stdout, err = invoke(capsys, "run", *SCHEDULE_RUN, "--schedule", text,
                                   "--out", str(out))
        assert not out.exists()
    else:
        assert invoke(capsys, "run", *SCHEDULE_RUN, "--out", str(out))[0] == cli.EXIT_OK
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        header["schedule"] = schedule
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = invoke(capsys, "replay", str(out))
    assert code == cli.EXIT_PRECONDITION
    assert named in err and stdout == ""


class TestCheckCommand:
    def test_single_cell_verdict(self, capsys):
        code, stdout, _ = invoke(
            capsys, "check", "--line", "10", "--timing", "sync", "-n", "2", "-t", "1"
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["status"] == "ok"
        assert summary["observed"] == "{{0}, {1}}"
        assert summary["states"] is None  # a sync cell has no state search

    def test_async_verdict_reports_its_search_states(self, capsys):
        code, stdout, _ = invoke(
            capsys, "check", "--line", "9", "--timing", "async", "-n", "2", "-t", "1"
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["exhaustive"] is True and summary["states"] == 4

    def test_neither_alg_nor_line_rejected(self, capsys):
        code, stdout, err = invoke(capsys, "check", "-n", "2", "-t", "1")
        assert code == cli.EXIT_PRECONDITION
        assert "one of --alg or --line is required" in err and stdout == ""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_alg_and_line_exclude_each_other(self, capsys, command):
        code, stdout, err = invoke(
            capsys, command, "--line", "10", "--alg", "alg1", "--timing", "sync",
            "-n", "3", "-t", "1",
        )
        assert code == cli.EXIT_PRECONDITION
        assert "argument --alg: not allowed with argument --line" in err and stdout == ""

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_params_without_alg_rejected(self, capsys, command):
        code, stdout, err = invoke(
            capsys, command, "--line", "1", "--params", '{"bogus": 1}', "--timing", "sync",
            "-n", "2", "-t", "1",
        )
        assert code == cli.EXIT_PRECONDITION
        assert "--params needs --alg" in err and stdout == ""

    def test_cell_outside_the_condition_rejected_at_bind(self, capsys):
        code, _, err = invoke(
            capsys, "check", "--line", "8", "--timing", "sync", "-n", "2", "-t", "0"
        )
        assert code == 0  # (2,0) satisfies the sync condition
        code, _, err = invoke(
            capsys, "check", "--line", "8", "--timing", "async", "-n", "2", "-t", "1"
        )
        assert code == cli.EXIT_PRECONDITION
        assert "violates condition" in err

    def test_horizon_rejected_under_sync(self, capsys):
        # No timing takes --horizon; argparse rejects it as an unknown flag.
        code, stdout, err = invoke(
            capsys, "check", "--line", "10", "--timing", "sync", "-n", "2", "-t", "1",
            "--horizon", "3",
        )
        assert code == cli.EXIT_PRECONDITION
        assert "unrecognized arguments: --horizon 3" in err and stdout == ""


# The --horizon cases pin that the flag is unknown to check and table.
@pytest.mark.parametrize(
    "argv, named",
    [
        (["check", "--line", "7", "-n", "3", "-t", "0", "--horizon", "0"], "--horizon"),
        (
            ["check", "--line", "10", "--timing", "sync", "-n", "2", "-t", "1", "--budget", "-5"],
            "--budget",
        ),
        (["check", "--line", "3", "-n", "5", "-t", "4", "--budget", "-5"], "--budget"),
        (["table", "--n-max", "2", "--horizon", "0"], "--horizon"),
        (["table", "--n-max", "2", "--budget", "-1"], "--budget"),
    ],
)
def test_budget_flags_out_of_range_rejected(capsys, argv, named):
    code, stdout, err = invoke(capsys, *argv)
    assert code == cli.EXIT_PRECONDITION
    assert named in err and stdout == ""


class TestTableCommand:
    def test_small_matrix_passes(self, tmp_path, capsys):
        report = tmp_path / "table.jsonl"
        code, stdout, _ = invoke(
            capsys, "table", "--n-max", "2", "--out", str(report)
        )
        assert code == 0
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        summary = rows[-1]
        assert summary["kind"] == "summary" and summary["passed"] is True
        assert all(
            (r["states"] is None) == (r["timing"] == "sync") for r in rows[:-1]
        )
        sync78 = [
            r for r in rows[:-1] if r.get("line") in (7, 8) and r["timing"] == "sync"
        ]
        assert {(r["n"], r["t"]) for r in sync78} == {(2, 0)}

    def test_usage_error_on_small_n_max(self, capsys):
        code, _, err = invoke(capsys, "table", "--n-max", "1")
        assert code == cli.EXIT_PRECONDITION
        assert "n-max" in err


class TestWitnessCommand:
    def test_lone_survivor(self, tmp_path, capsys):
        out = tmp_path / "w.trace"
        code, stdout, _ = invoke(
            capsys, "witness", "-n", "2", "-t", "1",
            "--timing", "sync", "--out", str(out),
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["output_set"] in ("{0}", "{1}")
        assert summary["fp"] == json.loads(out.read_text().splitlines()[0])["fp"]
        assert summary["verdict"]["status"] == "unsafe"
        assert summary["verdict"]["exhaustive"] is True
        replay_code, replay_out, _ = invoke(capsys, "replay", str(out))
        assert replay_code == 0 and last_json(replay_out)["identical"] is True

    def test_split_crash(self, tmp_path, capsys):
        out = tmp_path / "w.trace"
        code, stdout, _ = invoke(
            capsys, "witness", "-n", "4", "-t", "2", "--no-out", "--out", str(out),
        )
        assert code == 0
        summary = last_json(stdout)
        assert summary["output_set"] in ("{0}", "{1}")
        assert summary["verdict"]["target"] == "{{}, {0,1}}"

    def test_split_crash_condition_satisfied(self, capsys):
        code, _, err = invoke(capsys, "witness", "-n", "5", "-t", "2")
        assert code == cli.EXIT_PRECONDITION
        assert "condition satisfied" in err

    def test_no_singleton_violation_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(checker, "explore", lambda inst, cfg: checker.Verdict(frozenset()))
        code, stdout, err = invoke(capsys, "witness", "-n", "2", "-t", "1")
        assert code == cli.EXIT_BUDGET and stdout == ""
        assert "no singleton output set among the violations {}" in err

    def test_kind_positional_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["witness", "lone_survivor", "-n", "2", "-t", "1"])
        assert exc.value.code == 2


class TestConditionsCommand:
    def test_stdout_document(self, capsys):
        code, stdout, _ = invoke(capsys, "conditions")
        rows = [json.loads(line) for line in stdout.strip().splitlines()]
        assert code == 0 and len(rows) == 32


class TestPlumbing:
    def test_exit_codes_partition_outcomes(self):
        codes = {
            cli.EXIT_OK,
            cli.EXIT_VERDICT,
            cli.EXIT_PRECONDITION,
            cli.EXIT_BUDGET,
        }
        assert codes == {0, 1, 2, 3}

    def test_reader_closing_the_pipe_early_is_no_traceback(self):
        # As in ``binsos run ... | head -1``: the reader is gone before the
        # trace is written.
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "binsos.cli", "run", "--line", "1", "-n", "2",
             "-t", "1", "--timing", "sync"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == cli.EXIT_PIPE
        assert err == b""

    def test_config_file_defaults(self, tmp_path, capsys):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"timing": "sync", "seed": 7}))
        out = tmp_path / "t.trace"
        code, stdout, _ = invoke(
            capsys, "--config", str(config), "run", "--alg", "alg6",
            "-n", "2", "-t", "1", "--out", str(out),
        )
        assert code == 0
        assert last_json(stdout)["termination"] == "ALL_DONE"

    def test_config_key_loses_to_the_command_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 7, "t": 0}))
        out = tmp_path / "t.trace"
        code, _, err = invoke(
            capsys, "--config", str(config), "run", "--alg", "alg6", "--timing", "sync",
            "-n", "2", "-t", "1", "--seed", "3", "--out", str(out),
        )
        assert code == cli.EXIT_OK, err
        header = json.loads(out.read_text().splitlines()[0])
        assert header["choices"] == {"mode": "seed", "seed": 3}
        assert header["alg"]["t"] == 1

    @pytest.mark.parametrize("alg", [["--alg", "alg6"], ["--alg=alg6"]])
    def test_config_line_yields_to_alg_on_the_command_line(self, tmp_path, capsys, alg):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"line": 1}))
        out = tmp_path / "t.trace"
        code, _, err = invoke(
            capsys, "--config", str(config), "run", *alg, "--timing", "sync",
            "-n", "2", "-t", "1", "--out", str(out),
        )
        assert code == cli.EXIT_OK, err
        header = json.loads(out.read_text().splitlines()[0])
        assert header["alg"]["kind"] == "sync_consensus"

    def test_config_alg_and_params_yield_to_line_on_the_command_line(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alg": "alg3", "params": {"values": [0, 1]}}))
        out = tmp_path / "t.trace"
        code, _, err = invoke(
            capsys, "--config", str(config), "run", "--line", "10", "--timing", "sync",
            "-n", "2", "-t", "1", "--out", str(out),
        )
        assert code == cli.EXIT_OK, err
        header = json.loads(out.read_text().splitlines()[0])
        assert (header["alg"]["kind"], header["alg"]["line"]) == ("sync_consensus", 10)

    def test_config_giving_alg_and_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alg": "alg6", "line": 1}))
        code, stdout, err = invoke(
            capsys, "--config", str(config), "run", "--timing", "sync", "-n", "2", "-t", "1"
        )
        assert code == cli.EXIT_PRECONDITION
        assert "not allowed with argument" in err and stdout == ""

    def test_config_given_with_an_equals_sign(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"budget": -5}))
        code, stdout, err = invoke(
            capsys, f"--config={config}", "check", "--line", "10", "--timing", "sync",
            "-n", "2", "-t", "1",
        )
        assert code == cli.EXIT_PRECONDITION
        assert "--budget" in err and stdout == ""

    def test_config_object_default_reaches_its_flag(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"fp": {"crashes": [[1, 0]]}}))
        out = tmp_path / "t.trace"
        code, _, err = invoke(
            capsys, "--config", str(config), "run", "--alg", "alg6", "-n", "2", "-t", "1",
            "--timing", "sync", "--out", str(out),
        )
        assert code == cli.EXIT_OK, err
        header = json.loads(out.read_text().splitlines()[0])
        assert header["fp"] == {"crashes": [[1, 0]]}

    def test_config_supplies_the_short_flags(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 2, "t": 1}))
        out = tmp_path / "t.trace"
        code, _, err = invoke(
            capsys, "--config", str(config), "run", "--alg", "alg6", "--timing", "sync",
            "--out", str(out),
        )
        assert code == cli.EXIT_OK, err
        header = json.loads(out.read_text().splitlines()[0])
        assert (header["alg"]["n"], header["alg"]["t"]) == (2, 1)

    @pytest.mark.parametrize(
        "config, argv, named",
        [
            ({"n": 3}, ["table"], "required: --n-max"),
            ({"n": 3}, ["table", "--n-max", "2"], "unrecognized arguments: -n 3"),
            ({"n_m": 3}, ["table", "--n-max", "2"], "unrecognized arguments: --n-m 3"),
            ({"seed=3": True}, ["conditions"], "'seed=3'"),
            ({"help": True}, ["conditions"], "'help'"),
            ({"out": None}, ["conditions"], "'out'"),
        ],
    )
    def test_config_key_that_is_not_a_flag_rejected(self, tmp_path, capsys, config, argv, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, stdout, err = invoke(capsys, "--config", str(path), *argv)
        assert code == cli.EXIT_PRECONDITION
        assert named in err and stdout == ""

    def test_config_boolean_given_only_to_a_switch(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        argv = ["--config", str(path), "run", "--line", "4", "-n", "2", "-t", "2",
                "--out", str(tmp_path / "t.trace")]
        for config, named in [
            ({"seed": False}, "'seed' is false, but --seed is no switch"),
            ({"seed": True}, "'seed' is true, but --seed is no switch"),
            ({"permissive": 1}, "'permissive' is 1, but --permissive is a switch"),
            # false leaves the switch unset, so the condition is screened.
            ({"permissive": False}, "violates condition"),
        ]:
            path.write_text(json.dumps(config))
            code, stdout, err = invoke(capsys, *argv)
            assert code == cli.EXIT_PRECONDITION
            assert named in err and stdout == ""
        path.write_text('{"permissive": true}')
        assert invoke(capsys, *argv)[0] == cli.EXIT_OK

    def test_config_given_twice_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        code, stdout, err = invoke(capsys, "--config", str(path), "--config", str(path), "conditions")
        assert code == cli.EXIT_PRECONDITION
        assert "--config" in err and stdout == ""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["table", "--n-m", "4"], "required: --n-max"),
            (["table", "--n-max", "2", "--bud", "9"], "unrecognized arguments: --bud 9"),
            (["--conf=cfg.json", "conditions"], "unrecognized arguments: --conf=cfg.json"),
        ],
    )
    def test_abbreviated_flag_rejected(self, capsys, argv, named):
        code, stdout, err = invoke(capsys, *argv)
        assert code == cli.EXIT_PRECONDITION
        assert named in err and stdout == ""

    def test_unknown_algorithm(self, capsys):
        code, _, err = invoke(capsys, "run", "--alg", "nope", "-n", "1", "-t", "0")
        assert code == cli.EXIT_PRECONDITION
        assert "unknown algorithm" in err


README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(
        r"```sh\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S
    )
    for line in block.splitlines()
    if line.startswith("binsos ")
]


def test_readme_lists_every_command():
    assert {argv[0] for argv in README_COMMANDS} == {
        "run", "replay", "check", "table", "conditions", "witness"
    }


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in README_COMMANDS:
        code, stdout, err = invoke(capsys, *argv)
        assert code == cli.EXIT_OK, (argv, err)
        if argv[0] == "replay":
            assert last_json(stdout)["identical"] is True
