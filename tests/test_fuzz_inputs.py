"""Fuzzed external inputs: every mutated --fp, --schedule or --params literal,
--config object, trace header, trace event and trace final record ends in an
exit code, never in a traceback."""

import copy
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from binsos import cli
from binsos.simkernel import ALL_DONE, EVENT_FIELDS, QUIESCENT

EXIT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_VERDICT,
    cli.EXIT_PRECONDITION,
    cli.EXIT_BUDGET,
}
DELETE = object()

# Small JSON values, nested a little, with the keys the descriptors use.
KEYS = st.sampled_from(
    ["kind", "n", "t", "mode", "seed", "picks", "crashes", "entries", "default",
     "values", "no_out", "zero_group", "designated", "x"]
)
SCALARS = st.none() | st.booleans() | st.integers(-2, 9) | st.sampled_from(["", "x", "map"])
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)

# (flags, flag whose JSON literal is mutated, the valid literal); n <= 3.
LITERALS = [
    (["--line", "9", "-n", "2", "-t", "1"], "--fp", {"crashes": [[1, 0]]}),
    (
        ["--line", "7", "-n", "3", "-t", "0"],
        "--schedule",
        [[1, [[1, 0]]], [3, [[1, 1], [1, 0]]]],
    ),
    (["--alg", "all_output", "-n", "2", "-t", "1"], "--params", {"values": [0, 1]}),
    (["--alg", "single_output", "-n", "2", "-t", "1"], "--params", {"no_out": False}),
    (
        ["--alg", "timing_adaptive", "-n", "3", "-t", "1"],
        "--params",
        {"no_out": True, "default_value": 1},
    ),
]

# A valid --config object for run, and keys to put in it: flags of run and of
# other subcommands, the help flags and names that are no flag at all.
RUN_CONFIG = {
    "alg": "alg6", "n": 2, "t": 1, "timing": "sync", "seed": 3,
    "fp": {"crashes": [[1, 0]]},
}
CONFIG_KEYS = st.sampled_from(
    ["alg", "line", "params", "n", "t", "timing", "seed", "fp", "schedule", "horizon",
     "permissive", "out", "budget", "n_max", "no_out", "config", "h", "help",
     "n-m", "tim", "seed=3", "N", ""]
) | st.text(max_size=4)

# Commands whose traces cover seeded and scripted choices, roles, sync and
# async, and schedules empty and not.
TRACE_COMMANDS = [
    ["run", "--alg", "alg6", "-n", "2", "-t", "1", "--timing", "sync", "--seed", "3"],
    ["run", "--line", "5", "-n", "3", "-t", "1", "--seed", "1"],
    ["run", "--line", "7", "-n", "3", "-t", "0"],
    ["run", "--line", "7", "-n", "3", "-t", "0", "--schedule", "[[1,[[1,0]]],[3,[[1,1],[1,0]]]]"],
    ["witness", "-n", "3", "-t", "2"],
]


def _paths(doc, prefix=()):
    """Every path into a JSON document, the document itself included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced (or deleted)."""
    if not path:
        return {} if value is DELETE else value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _mutated(data, doc):
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(st.just(DELETE) | JSON, label="value")
    return _mutate(doc, path, value)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.sampled_from(LITERALS))
def test_mutated_literals_exit_cleanly(data, case):
    flags, flag, literal = case
    text = json.dumps(_mutated(data, literal))
    assert cli.main(["run", *flags, flag, text]) in EXIT_CODES


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(TRACE_COMMANDS))
def test_mutated_trace_headers_exit_cleanly(tmp_path_factory, data, command):
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    assert cli.main([*command, "--out", str(path)]) == cli.EXIT_OK
    lines = path.read_text().splitlines()
    header = _mutated(data, json.loads(lines[0]))
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", str(path)]) in EXIT_CODES


def _fits_the_event_table(event):
    """Whether ``event`` has exactly the fields of its kind, each of the type
    the kernel writes: a string kind and tag, a value of 0, 1 or null, ints
    elsewhere."""
    if not isinstance(event, dict) or not isinstance(event.get("kind"), str):
        return False
    fields = EVENT_FIELDS.get(event["kind"])
    return fields is not None and sorted(event) == list(fields) and all(
        type(v) is str if k in ("kind", "tag")
        else v is None or (type(v) is int and v in (0, 1)) if k == "value"
        else type(v) is int
        for k, v in event.items()
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(TRACE_COMMANDS))
def test_mutated_trace_events_exit_cleanly(tmp_path_factory, data, command):
    # An event line the kernel never writes is rejected (2); any other edit
    # that changes the text makes the replay diverge (1).
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    assert cli.main([*command, "--out", str(path)]) == cli.EXIT_OK
    lines = path.read_text().splitlines()
    k = data.draw(st.integers(1, len(lines) - 2), label="event line")
    event = _mutated(data, json.loads(lines[k]))
    edited = json.dumps(event, sort_keys=True, separators=(",", ":"))
    if edited == lines[k]:
        expected = cli.EXIT_OK
    else:
        expected = cli.EXIT_VERDICT if _fits_the_event_table(event) else cli.EXIT_PRECONDITION
    lines[k] = edited
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", str(path)]) == expected


def _fits_the_final_record(final, n):
    """Whether ``final`` is a final record the kernel could write for ``n``
    processes: n outputs of 0, 1 or null and a termination it names."""
    return (
        isinstance(final, dict)
        and sorted(final) == ["kind", "outputs", "termination"]
        and final["kind"] == "final"
        and type(final["outputs"]) is list
        and len(final["outputs"]) == n
        and all(v is None or (type(v) is int and v in (0, 1)) for v in final["outputs"])
        and final["termination"] in (ALL_DONE, QUIESCENT)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(TRACE_COMMANDS))
def test_mutated_trace_final_record_exits_cleanly(tmp_path_factory, data, command):
    # A final record the kernel never writes is rejected (2); any other edit
    # that changes the text makes the replay diverge (1).
    path = tmp_path_factory.mktemp("trace") / "t.trace"
    assert cli.main([*command, "--out", str(path)]) == cli.EXIT_OK
    lines = path.read_text().splitlines()
    final = _mutated(data, json.loads(lines[-1]))
    edited = json.dumps(final, sort_keys=True, separators=(",", ":"))
    if edited == lines[-1]:
        expected = cli.EXIT_OK
    else:
        n = json.loads(lines[0])["alg"]["n"]
        expected = cli.EXIT_VERDICT if _fits_the_final_record(final, n) else cli.EXIT_PRECONDITION
    lines[-1] = edited
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["replay", str(path)]) == expected


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_config_exits_cleanly(tmp_path_factory, data):
    config = _mutated(data, RUN_CONFIG)
    if isinstance(config, dict):
        # Rename one key, or add one.
        key = data.draw(CONFIG_KEYS, label="key")
        old = data.draw(st.sampled_from([None, *config]), label="renamed")
        config[key] = config.pop(old) if old is not None else data.draw(JSON, label="value")
    workdir = tmp_path_factory.mktemp("config")
    path = workdir / "cfg.json"
    path.write_text(json.dumps(config))
    cwd = os.getcwd()
    os.chdir(workdir)  # an "out" key writes here (contextlib.chdir needs 3.11)
    try:
        code = cli.main(["--config", str(path), "run"])
    except SystemExit as exc:  # argparse's rejection of a flag
        assert exc.code == 2
    else:
        assert code in EXIT_CODES
    finally:
        os.chdir(cwd)
