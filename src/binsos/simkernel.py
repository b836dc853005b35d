"""Deterministic execution kernel for the communicate/observe medium.

An execution is a pure function of (algorithm instance, choice stream,
failure pattern, schedule): replaying the same inputs reproduces the
identical event log byte for byte.

Synchronous runs proceed in lock-step rounds, each statement in the round its
tag names, until no process is left running; all items communicated during a
round's communication step are observed, by every process not yet crashed, at
that round's delivery barrier, before the computation step begins.

An asynchronous run is a sequence of moves.  It starts with the root
settle, which runs every process until it blocks; every item a process
emits is then pending to every process.  Its schedule lists the moves
that follow, each ``[receiver, [[sender, index], ...]]``: land those
pending items on that receiver, in ``InfoItem.sort_key`` order, and run it
until it blocks.  The run ends with the one deadline step: processes
blocked on ``Deadline()`` wake first, re-checking their observations
once, then everything still pending lands, receiver by receiver, and so
does anything emitted meanwhile, until nothing is pending.  Every item
thus reaches every process not crashed, so the medium's termination
properties hold by construction; ``medium_check`` audits them
independently from the event log.  ``read_schedule`` checks a schedule's
shape, and a move that is not enabled (an unknown or crashed receiver, an
item not emitted or not pending to it) is rejected when the run reaches
it, naming the move.  A seeded ``random.Random`` in place of the schedule
draws the moves as the run goes, and the trace records them.

Crashes are positional: a process with crash slot k halts when about to
execute statement k, or after its last statement when k is its statement
count; a larger slot is rejected.  Items it already emitted are still
delivered (the medium never suppresses information).

A recorded run logs one event per delivery and per statement executed, of
the six kinds in ``EVENT_FIELDS``, the one event table.  Each kind has a
fixed set of fields: ``kind`` its name, ``tag`` a string, ``value`` 0, 1
or None, and every other field an int.  ``seq`` numbers the events from 0,
``t`` is the move (0 for the root settle, j for the j-th move of the
schedule and one more for the deadline step; under synchrony 2(r-1) for
round r's communication step and one more for its computation step),
``pid`` the acting process, ``stmt`` its statement index, ``slot`` the
statement it crashes before, ``ctr`` its pick counter, and ``sender`` and
``index`` name an item by its emitter and emission ordinal.
``ExecutionTrace.to_jsonl`` writes each event with its kind's line
formatter, and ``ExecutionTrace.parse`` rejects an event line the table
does not allow, and a final record whose outputs or termination the
kernel never writes.

``search_async`` explores the same interpreter as a state graph, one
search per cell: it forks the kernel at each pick, each crash offer and
each choice of what lands next, instead of fixing choices, crashes and
moves up front, and stores for every output set it reaches the choices,
failure pattern and schedule of the path that reached it.  Its states
share processes copy-on-write and are keyed up to the symmetry of
processes with equal programs.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .algorithms import instance_from_descriptor
from .outputsets import (
    OutputSet, SystemConfig, Timing, Value, _descriptor_fields, _read_json, output_set,
)
from .patterns import FailurePattern, _classes
from .program import (
    COMM,
    COMP,
    ChoiceNeeded,
    ChoiceStream,
    Communicate,
    Deadline,
    Flip,
    Guard,
    HasOutput,
    LocalIs,
    LocalRef,
    Observed,
    Output,
    Pick,
    PreconditionError,
    Program,
    ScriptedChoices,
    SetLocal,
    Wait,
    choices_from_descriptor,
)

ALL_DONE = "ALL_DONE"
QUIESCENT = "QUIESCENT"

_RUNNING = 0
_BLOCKED = 1
_DONE = 2
_CRASHED = 3

TRACE_FORMAT = "binsos-trace"
TRACE_VERSION = 4

#: The one event table: each kind of event the kernel logs, with its fields
#: in sorted order.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "observe": ("index", "kind", "pid", "sender", "seq", "t", "tag", "value"),
    "communicate": ("index", "kind", "pid", "seq", "stmt", "t", "tag", "value"),
    "pick": ("ctr", "kind", "pid", "seq", "stmt", "t", "value"),
    "output": ("kind", "pid", "seq", "stmt", "t", "value"),
    "crash": ("kind", "pid", "seq", "slot", "t"),
    "step": ("kind", "pid", "seq", "stmt", "t"),
}


class KernelError(Exception):
    """Internal invariant broken while interpreting a program."""


@dataclass(frozen=True)
class InfoItem:
    """One communicated piece of information, identified by (sender, index)."""

    sender: int
    index: int
    tag: str
    value: Value

    @property
    def sort_key(self) -> Tuple[int, int, int]:
        """The delivery order of items landing together.  The value comes
        first, so a tag's first item in a batch carries its least value and
        no sender id decides what a binding wait takes."""
        bit = -1 if self.value is None else int(self.value)
        return (bit, self.sender, self.index)


_SORT_KEY = operator.attrgetter("sort_key")

#: One move of an asynchronous schedule: the receiver, and the (sender,
#: index) of each pending item it lands.
Move = Tuple[int, Tuple[Tuple[int, int], ...]]


def read_schedule(doc: object) -> Tuple[Move, ...]:
    """The moves of a schedule, a list of ``[receiver, [[sender, index],
    ...]]`` as JSON gives it (tuples for lists will do), checked for shape
    only: a ValueError names the move's number (from 1) and the fault.
    Whether a move is enabled is checked when the run reaches it."""
    sequence = (list, tuple)
    if not isinstance(doc, sequence):
        raise ValueError(f"schedule {doc!r} must be a list of moves")
    moves = []
    for number, move in enumerate(doc, 1):
        where = f"schedule move {number}"
        if not (isinstance(move, sequence) and len(move) == 2
                and type(move[0]) is int and isinstance(move[1], sequence)):
            raise ValueError(f"{where} is {move!r}, not [receiver, [[sender, index], ...]]")
        for item in move[1]:
            if not (isinstance(item, sequence) and len(item) == 2
                    and all(type(x) is int for x in item)):
                raise ValueError(f"{where} item {item!r} must be [sender, index]")
        items = tuple([tuple(item) for item in move[1]])
        if not items:
            raise ValueError(f"{where} lands no item")
        repeated = [item for item in items if items.count(item) > 1]
        if repeated:
            raise ValueError(f"{where} lands item {repeated[0]} twice")
        moves.append((move[0], items))
    return tuple(moves)


@dataclass
class ExecutionTrace:
    """Full record of one execution, sufficient to replay it bit-exactly."""

    header: Optional[Dict[str, object]]
    events: List[Dict[str, object]]
    outputs: Tuple[Value, ...]
    termination: str

    @property
    def recorded(self) -> bool:
        """Whether the run kept its header and event log (an unrecorded
        run's outputs are all that is read)."""
        return self.header is not None

    def output_set(self) -> OutputSet:
        return output_set(self.outputs)

    @property
    def n(self) -> int:
        return int(self.header["alg"]["n"])  # type: ignore[index]

    @property
    def timing(self) -> Timing:
        return Timing(self.header["alg"]["timing"])  # type: ignore[index]

    def to_jsonl(self) -> str:
        if not self.recorded:
            raise ValueError("trace was produced without event recording")
        lines = [_dumps(self.header)]
        lines.extend([_LINE[e["kind"]](e) for e in self.events])
        lines.append(
            _dumps(
                {
                    "kind": "final",
                    "outputs": list(self.outputs),
                    "termination": self.termination,
                }
            )
        )
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "ExecutionTrace":
        lines = [(number, line) for number, line in enumerate(text.splitlines(), 1)
                 if line.strip()]
        if not lines:
            raise ValueError("empty trace")
        header = _read_header(lines[0][1])
        final = _descriptor_fields(
            _read_json(lines[-1][1], "trace final record"), "trace final record",
            kind=str, outputs=list, termination=str,
        )
        if final["kind"] != "final":
            raise ValueError("trace missing final record")
        outputs = tuple(final["outputs"])
        n = instance_from_descriptor(header["alg"]).n
        if len(outputs) != n:
            raise ValueError(
                f"trace final record outputs has {len(outputs)} entries, not alg.n = {n}"
            )
        for value in outputs:
            _check_value(value, "trace final record outputs entry")
        if final["termination"] not in (ALL_DONE, QUIESCENT):
            raise ValueError(
                f"trace final record termination {final['termination']!r} must be "
                f"{ALL_DONE!r} or {QUIESCENT!r}"
            )
        events = [_read_event(line, number) for number, line in lines[1:-1]]
        return ExecutionTrace(header, events, outputs, final["termination"])


#: The encoder of the header and the final record: sorted keys, no spaces.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_VALUE_JSON = {0: "0", 1: "1", None: "null"}


def _line_formatter(kind: str, fields: Tuple[str, ...]):
    """The function that writes an event of ``kind`` as ``_dumps`` would:
    its int fields through ``%d``, then ``tag`` and ``value``, which sort
    after every int field."""
    ints = [name for name in fields if name not in ("kind", "tag", "value")]
    spec = dict.fromkeys(ints, "%d")
    spec.update(kind=f'"{kind}"', tag="%s", value="%s")
    template = "{" + ",".join(f'"{name}":{spec[name]}' for name in fields) + "}"
    get_ints = operator.itemgetter(*ints)
    quote = json.encoder.encode_basestring_ascii
    if "tag" in fields:
        return lambda e: template % (*get_ints(e), quote(e["tag"]), _VALUE_JSON[e["value"]])
    if "value" in fields:
        return lambda e: template % (*get_ints(e), _VALUE_JSON[e["value"]])
    return lambda e: template % get_ints(e)


_LINE = {kind: _line_formatter(kind, fields) for kind, fields in EVENT_FIELDS.items()}


def _read_event(line: str, number: int) -> Dict[str, object]:
    """The event on trace line ``number`` (1-based), if the event table
    allows it; otherwise a ValueError naming the line and the field."""
    event = _read_json(line, f"trace line {number}")
    if not isinstance(event, dict):
        raise ValueError(f"trace line {number} is not a JSON object")
    kind = event.get("kind")
    if not isinstance(kind, str) or kind not in EVENT_FIELDS:
        raise ValueError(f"trace line {number}: kind {kind!r} is not an event kind")
    what = f"trace line {number} ({kind} event)"
    fields = EVENT_FIELDS[kind]
    _descriptor_fields(event, what, **{
        name: None if name == "value" else str if name in ("kind", "tag") else int
        for name in fields
    })
    if "value" in fields:
        if "value" not in event:
            raise ValueError(f"{what} lacks 'value'")
        _check_value(event["value"], f"{what} value")
    return event


def _check_value(value: object, what: str) -> None:
    """A ValueError naming ``what`` unless ``value`` is 0, 1 or None (a
    ``bool`` is no value)."""
    if value is not None and not (type(value) is int and value in (0, 1)):
        raise ValueError(f"{what} {value!r} must be 0, 1 or null")


def _read_header(header) -> Dict[str, object]:
    """Check a trace header, given as a dict or as trace text (whose first
    line alone is parsed), against the format, version and fields this kernel
    writes."""
    if isinstance(header, str):
        header = _read_json(header.partition("\n")[0], "trace header")
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise PreconditionError(f"not a trace: header format is not {TRACE_FORMAT!r}")
    if header.get("version") != TRACE_VERSION:
        version = header.get("version")
        raise PreconditionError(
            f"trace version {version!r} is not supported (expected {TRACE_VERSION})"
        )
    return _descriptor_fields(
        header, "trace header", format=str, version=int,
        alg=dict, choices=dict, fp=dict, schedule=list,
    )


class _Proc:
    __slots__ = (
        "pid",
        "program",
        "pc",
        "locals",
        "status",
        "output",
        "seen",
        "first",
        "crash_slot",
        "pick_counter",
        "emission_counter",
        "key",
    )

    def __init__(self, pid: int, program: Program, crash_slot: Optional[int]):
        self.pid = pid
        self.program = program
        self.pc = 0
        self.locals: Dict[str, Value] = dict(program.initial_locals)
        self.status = _RUNNING
        self.output: Value = None
        self.seen: FrozenSet[Tuple[str, Value]] = frozenset()  # (tag, value); (tag, None) per tag
        self.first: Dict[str, Value] = {}  # tag -> the value first observed with it
        if crash_slot is not None and crash_slot > len(program.statements):
            raise PreconditionError(
                f"failure pattern crashes process {pid} at slot {crash_slot}, "
                f"outside its slots 0..{len(program.statements)}"
            )
        self.crash_slot = -1 if crash_slot is None else crash_slot
        self.pick_counter = 0
        self.emission_counter = 0
        self.key: Optional[tuple] = None  # this process's part of a search key

    def clone(self) -> "_Proc":
        other = _Proc.__new__(_Proc)
        other.pid = self.pid
        other.program = self.program
        other.pc = self.pc
        other.locals = dict(self.locals)
        other.status = self.status
        other.output = self.output
        # seen and first are replaced on write, never changed in place.
        other.seen = self.seen
        other.first = self.first
        other.crash_slot = self.crash_slot
        other.pick_counter = self.pick_counter
        other.emission_counter = self.emission_counter
        other.key = None
        return other


class _Kernel:
    """Shared interpreter state for one execution."""

    def __init__(
        self,
        instance,
        cfg: SystemConfig,
        choices: ChoiceStream,
        fp: FailurePattern,
        record: bool,
    ):
        self.cfg = cfg
        self.choices = choices
        # Deadline() holds once the deadline step begins; always under sync.
        self.deadline = cfg.timing is Timing.SYNC
        self.record = record
        self.events: List[Dict[str, object]] = []  # each a row of EVENT_FIELDS
        self.now = 0
        programs = instance.programs()
        self.procs = [
            _Proc(pid, programs[pid - 1], fp.slot_of(pid))
            for pid in range(1, cfg.n + 1)
        ]
        if record:
            self.header = {
                "format": TRACE_FORMAT,
                "version": TRACE_VERSION,
                "alg": instance.describe(),
                "choices": choices.describe(),
                "fp": fp.describe(),
                "schedule": [],  # the moves, as the run lands them
            }
        else:
            # Unrecorded traces are throwaway runs: their outputs are all
            # that is read, so they carry no header.
            self.header = None
        for proc in self.procs:
            self._maybe_finish(proc)

    # -- guard and expression evaluation -------------------------------------

    def _expr(self, proc: _Proc, expr) -> Value:
        if isinstance(expr, LocalRef):
            return proc.locals.get(expr.name)
        if isinstance(expr, Flip):
            v = proc.locals.get(expr.name)
            if v not in (0, 1):
                raise KernelError(f"flip of non-bit local {expr.name}={v!r}")
            return 1 ^ v
        return expr

    def _guard(self, proc: _Proc, guard: Guard) -> bool:
        for atom in guard:
            if isinstance(atom, LocalIs):
                truth = proc.locals.get(atom.name) == atom.value
            elif isinstance(atom, Observed):
                truth = (atom.tag, atom.value) in proc.seen
            elif isinstance(atom, HasOutput):
                truth = proc.output is not None
            elif isinstance(atom, Deadline):
                truth = self.deadline
            else:
                raise KernelError(f"unknown guard atom {atom!r}")
            if truth == atom.negate:
                return False
        return True

    # -- statement execution --------------------------------------------------

    def _crash(self, proc: _Proc) -> None:
        proc.status = _CRASHED
        if self.record:
            self.events.append({"kind": "crash", "pid": proc.pid, "seq": len(self.events),
                                "slot": proc.pc, "t": self.now})

    def _maybe_finish(self, proc: _Proc) -> None:
        if proc.pc >= len(proc.program.statements):
            if proc.pc == proc.crash_slot:
                self._crash(proc)
            else:
                proc.status = _DONE

    def step_proc(self, proc: _Proc) -> bool:
        """Execute one statement if possible; True when progress was made."""
        if proc.status == _BLOCKED:
            if not self._guard(proc, (proc.program.statements[proc.pc].until,)):
                return False
            proc.status = _RUNNING
        if proc.status != _RUNNING:
            return False
        if proc.pc == proc.crash_slot:
            self._crash(proc)
            return True
        stmt = proc.program.statements[proc.pc]
        if not self._guard(proc, stmt.guard):
            proc.pc += 1
            self._maybe_finish(proc)
            return True
        if isinstance(stmt, Wait):
            if not self._guard(proc, (stmt.until,)):
                proc.status = _BLOCKED
                return False
        self._execute(proc, stmt)
        proc.pc += 1
        self._maybe_finish(proc)
        return True

    def _execute(self, proc: _Proc, stmt) -> None:
        if isinstance(stmt, Pick):
            value = self.choices.pick(proc.pid, proc.pick_counter, stmt.candidates)
            if self.record:
                self.events.append({"ctr": proc.pick_counter, "kind": "pick", "pid": proc.pid,
                                    "seq": len(self.events), "stmt": proc.pc, "t": self.now,
                                    "value": value})
            proc.pick_counter += 1
            proc.locals[stmt.dest] = value
        elif isinstance(stmt, SetLocal):
            proc.locals[stmt.dest] = self._expr(proc, stmt.value)
            self._log_step(proc)
        elif isinstance(stmt, Output):
            value = self._expr(proc, stmt.value)
            if value not in (0, 1):
                raise KernelError(f"process {proc.pid} output non-bit {value!r}")
            if proc.output is not None:
                raise KernelError(f"process {proc.pid} output twice")
            proc.output = value
            if self.record:
                self.events.append({"kind": "output", "pid": proc.pid, "seq": len(self.events),
                                    "stmt": proc.pc, "t": self.now, "value": value})
        elif isinstance(stmt, Communicate):
            item = InfoItem(
                proc.pid, proc.emission_counter, stmt.tag, self._expr(proc, stmt.value)
            )
            proc.emission_counter += 1
            if self.record:
                self.events.append({"index": item.index, "kind": "communicate",
                                    "pid": proc.pid, "seq": len(self.events), "stmt": proc.pc,
                                    "t": self.now, "tag": item.tag, "value": item.value})
            self.emit(item)
        elif isinstance(stmt, Wait):
            # The awaited atom holds; a binding wait takes the value first
            # observed with its tag (arrival order).
            if stmt.dest is not None:
                proc.locals[stmt.dest] = proc.first.get(stmt.until.tag)
            self._log_step(proc)
        else:
            raise KernelError(f"unknown statement {stmt!r}")

    def _log_step(self, proc: _Proc) -> None:
        if self.record:
            self.events.append({"kind": "step", "pid": proc.pid, "seq": len(self.events),
                                "stmt": proc.pc, "t": self.now})

    def deliver(self, proc: _Proc, item: InfoItem) -> None:
        pair = (item.tag, item.value)
        if pair not in proc.seen:
            if item.tag not in proc.first:
                proc.first = {**proc.first, item.tag: item.value}
            proc.seen |= {pair, (item.tag, None)}
        if self.record:
            self.events.append({"index": item.index, "kind": "observe", "pid": proc.pid,
                                "sender": item.sender, "seq": len(self.events), "t": self.now,
                                "tag": item.tag, "value": item.value})

    def finalize(self, termination: str) -> ExecutionTrace:
        outputs = tuple(p.output for p in self.procs)
        return ExecutionTrace(self.header, self.events, outputs, termination)


class _SyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, record):
        super().__init__(instance, cfg, choices, fp, record)
        self.round_items: List[InfoItem] = []

    def emit(self, item: InfoItem) -> None:
        self.round_items.append(item)

    def _advance_phase(self, limit: Tuple[int, int]) -> None:
        for proc in self.procs:
            statements = proc.program.statements
            while proc.status == _RUNNING and statements[proc.pc].at <= limit:
                self.step_proc(proc)

    def run(self) -> ExecutionTrace:
        # A statement runs in the round its tag names, so the run lasts until
        # every process has run its last statement or crashed.
        rnd = 0
        while any(p.status == _RUNNING for p in self.procs):
            rnd += 1
            self.now = 2 * (rnd - 1)
            self.round_items = []
            self._advance_phase((rnd, COMM))
            # Delivery barrier: everything communicated this round is observed
            # within the same communication step by every not-yet-crashed
            # process, before the computation step begins.
            for item in sorted(self.round_items, key=_SORT_KEY):
                for proc in self.procs:
                    if proc.status != _CRASHED:
                        self.deliver(proc, item)
            self.now = 2 * (rnd - 1) + 1
            self._advance_phase((rnd, COMP))
        return self.finalize(ALL_DONE)


class _AsyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, record):
        super().__init__(instance, cfg, choices, fp, record)
        # Per receiver, its pending items by (sender, index).
        self.pending: List[Dict[Tuple[int, int], InfoItem]] = [{} for _ in self.procs]

    def emit(self, item: InfoItem) -> None:
        key = (item.sender, item.index)
        for box in self.pending:
            box[key] = item

    def _advance_all(self) -> None:
        for proc in self.procs:
            while self.step_proc(proc):
                pass

    def land(self, receiver: int, keys: Sequence[Tuple[int, int]]) -> None:
        """The next move: land the pending items ``keys`` names on
        ``receiver``, in ``sort_key`` order, and run it until it blocks; a
        move that is not enabled is rejected, naming it."""
        self.now += 1
        where = f"schedule move {self.now}"
        if not 1 <= receiver <= self.cfg.n:
            raise PreconditionError(f"{where}: receiver {receiver} is not a process")
        proc = self.procs[receiver - 1]
        if proc.status == _CRASHED:
            raise PreconditionError(f"{where}: receiver {receiver} has crashed")
        box = self.pending[receiver - 1]
        for sender, index in keys:
            if (sender, index) not in box:
                emitted = 1 <= sender <= self.cfg.n and (
                    0 <= index < self.procs[sender - 1].emission_counter
                )
                fault = f"is not pending to process {receiver}" if emitted else "was never emitted"
                raise PreconditionError(f"{where}: item ({sender}, {index}) {fault}")
        items = sorted([box.pop(key) for key in keys], key=_SORT_KEY)
        if self.record:
            self.header["schedule"].append(
                [receiver, [[item.sender, item.index] for item in items]]
            )
        for item in items:
            self.deliver(proc, item)
        while self.step_proc(proc):
            pass

    def _deadline_step(self) -> None:
        """Deadline waiters wake first, re-checking their observations
        before anything more lands; then everything pending lands, receiver
        by receiver in ``sort_key`` order, on every receiver not crashed,
        and every process runs until it blocks, until nothing is pending.
        Every delivery precedes the runs that may fork a search state, so a
        fork taking the step again from its start lands nothing twice."""
        self.now += 1
        self.deadline = True
        self._advance_all()
        while any(self.pending):
            boxes, self.pending = self.pending, [{} for _ in self.procs]
            for proc, box in zip(self.procs, boxes):
                if box and proc.status != _CRASHED:
                    for item in sorted(box.values(), key=_SORT_KEY):
                        self.deliver(proc, item)
            self._advance_all()

    def run(self, moves: Iterable[Move]) -> ExecutionTrace:
        self._advance_all()
        for receiver, keys in moves:
            self.land(receiver, keys)
        self._deadline_step()
        done = all(p.status in (_DONE, _CRASHED) for p in self.procs)
        return self.finalize(ALL_DONE if done else QUIESCENT)


def _walk(kernel: _AsyncKernel, rng: random.Random) -> Iterable[Move]:
    """Moves drawn as the run goes, two numbers each: one of the blocked
    receivers with pending items, or the deadline step, which ends the walk,
    uniformly; then a nonzero bitmask over that receiver's pending items."""
    while True:
        pending = kernel.pending
        enabled = [p.pid for p in kernel.procs if p.status == _BLOCKED and pending[p.pid - 1]]
        pick = rng.randrange(len(enabled) + 1)
        if pick == len(enabled):
            return
        receiver = enabled[pick]
        keys = list(pending[receiver - 1])
        mask = rng.randrange(1, 1 << len(keys))
        yield receiver, [key for bit, key in enumerate(keys) if mask >> bit & 1]


def _validate_common(instance, cfg: SystemConfig, fp: FailurePattern) -> None:
    if getattr(instance, "n", None) != cfg.n or getattr(instance, "t", None) != cfg.t:
        raise PreconditionError(
            f"instance bound to (n={getattr(instance, 'n', None)}, "
            f"t={getattr(instance, 't', None)}) but cfg is (n={cfg.n}, t={cfg.t})"
        )
    if fp.f > cfg.t:
        raise PreconditionError(f"failure pattern crashes {fp.f} > t={cfg.t}")
    for pid, _slot in fp.crashes:
        if not 1 <= pid <= cfg.n:
            raise PreconditionError(f"failure pattern names unknown process {pid}")
    if cfg.timing is not instance.timing:
        raise PreconditionError(
            f"algorithm {instance.kind.value} does not run under {cfg.timing}"
        )


def run_sync(
    instance,
    cfg: SystemConfig,
    choices: ChoiceStream,
    fp: FailurePattern,
    record: bool = True,
) -> ExecutionTrace:
    """Execute one synchronous run over lock-step rounds."""
    if cfg.timing is not Timing.SYNC:
        raise PreconditionError("run_sync requires a SYNC configuration")
    _validate_common(instance, cfg, fp)
    return _SyncKernel(instance, cfg, choices, fp, record).run()


def run_async(
    instance,
    cfg: SystemConfig,
    choices: ChoiceStream,
    fp: FailurePattern,
    schedule=(),
    record: bool = True,
) -> ExecutionTrace:
    """Execute one asynchronous run: the root settle, the moves of
    ``schedule`` (``read_schedule`` checks it), then the deadline step.  A
    ``random.Random`` in place of the schedule draws a walk over the
    enabled moves instead (``_walk``)."""
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("run_async requires an ASYNC configuration")
    _validate_common(instance, cfg, fp)
    kernel = _AsyncKernel(instance, cfg, choices, fp, record)
    if isinstance(schedule, random.Random):
        return kernel.run(_walk(kernel, schedule))
    return kernel.run(read_schedule(schedule))


def run(instance, cfg, choices, fp, schedule=None, record=True) -> ExecutionTrace:
    """Dispatch on the configuration's timing model.

    An ASYNC run given no schedule takes the empty one, so every item
    lands at the deadline step.  A SYNC run takes none: its round barrier
    lands every item in the round it is sent.
    """
    if cfg.timing is Timing.SYNC:
        if schedule:
            raise PreconditionError(
                "a SYNC run takes no schedule: its round barrier lands every item"
            )
        return run_sync(instance, cfg, choices, fp, record=record)
    return run_async(instance, cfg, choices, fp, schedule or (), record=record)


def replay(source) -> ExecutionTrace:
    """Re-execute a trace from its header alone (trace text or header dict)."""
    header = _read_header(source)
    inst = instance_from_descriptor(header["alg"])
    return run(
        inst,
        SystemConfig(inst.n, inst.t, inst.timing),
        choices_from_descriptor(header["choices"]),
        FailurePattern.from_descriptor(header["fp"]),
        header["schedule"],
    )


# ---------------------------------------------------------------------------
# Asynchronous state-graph search.


@dataclass
class SearchOutcome:
    """What ``search_async`` found in one cell.

    ``found`` maps each output set reached to the run inputs (choices,
    failure pattern and schedule) of the first terminal state that reached
    it.
    """

    states: int = 0  # distinct quiescent states visited, up to class symmetry
    terminals: int = 0  # terminal states reached: one per deadline step, pick and crash outcome
    complete: bool = True  # False when the state bound stopped the search
    found: Dict[OutputSet, Tuple[ScriptedChoices, FailurePattern, Tuple[Move, ...]]] = field(
        default_factory=dict
    )


class _CrashOffer(Exception):
    """Raised by a search state when a live process reaches its next crash
    slot while fewer than t processes have crashed."""

    def __init__(self, pid: int):
        super().__init__(f"crash offer to process {pid}")
        self.pid = pid


def _next_crash_slot(proc: _Proc) -> int:
    """The first of ``proc``'s crash slots after its pc, or -1."""
    return next((slot for slot in proc.program.crash_slots if slot > proc.pc), -1)


class _SearchState(_AsyncKernel):
    """One node of the search: an unrecorded asynchronous kernel whose
    pending deliveries are kept, until the deadline step, as one inbox per
    receiver, a frozenset of (tag, value) pairs, and ``sent`` maps each
    pair to the first item emitted with it, the item a landing lands.  A
    live process's ``crash_slot`` is the next crash slot it will be offered
    (-1 for none).  States share their processes copy-on-write: ``fork``
    copies the lists of processes and inboxes, and ``own`` clones a shared
    process just before it changes.  Forks share their script of picks too,
    until a pick fork extends a copy, and one intern table of key parts.
    ``schedule`` holds the moves landed so far."""

    def __init__(self, instance, cfg: SystemConfig):
        super().__init__(instance, cfg, ScriptedChoices(), FailurePattern(), record=False)
        for proc in self.procs:
            slots = proc.program.crash_slots
            proc.crash_slot = slots[0] if slots and cfg.t else -1
        self.inbox: List[FrozenSet[Tuple[str, Value]]] = [frozenset()] * cfg.n
        self.sent: Dict[Tuple[str, Value], InfoItem] = {}  # replaced on write
        self.crashed = 0
        self.classes = [tuple(pid - 1 for pid in pids)
                        for pids, _ in _classes(cfg.n, instance.programs())]
        self.parts: Dict[tuple, int] = {}  # a process's key part -> its id
        self.members: Dict[tuple, int] = {}  # (part id, inbox) -> its id
        self.schedule: Tuple[Move, ...] = ()
        self.owned = 0  # bit pid: procs[pid - 1] is referenced by no other state

    def _relevant(self, proc: _Proc, pair: Tuple[str, Value]) -> bool:
        return (
            proc.status != _CRASHED
            and pair[0] in proc.program.relevant_tags[proc.pc]
            and pair not in proc.seen
        )

    def emit(self, item: InfoItem) -> None:
        pair = (item.tag, item.value)
        if self.deadline:  # the deadline step lands it
            for proc in self.procs:
                if self._relevant(proc, pair):
                    self.pending[proc.pid - 1][(item.sender, item.index)] = item
            return
        if pair not in self.sent:
            self.sent = {**self.sent, pair: item}
        inbox = self.inbox
        for proc in self.procs:
            if self._relevant(proc, pair) and pair not in inbox[proc.pid - 1]:
                inbox[proc.pid - 1] |= {pair}

    def _crash(self, proc: _Proc) -> None:
        """Offer a crash at the slot ``proc`` has reached, or, with t
        crashes made, move on to its next slot."""
        if self.crashed < self.cfg.t:
            raise _CrashOffer(proc.pid)
        proc.crash_slot = _next_crash_slot(proc)  # no crash left to offer

    def fork(self) -> "_SearchState":
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.procs = list(self.procs)
        other.inbox = list(self.inbox)
        other.owned = self.owned = 0
        if self.deadline:  # pending items exist only in the deadline step
            other.pending = [dict(box) for box in self.pending]
        return other

    def own(self, pid: int) -> _Proc:
        """Process ``pid``, cloned first if shared, about to be changed."""
        proc = self.procs[pid - 1]
        if self.owned >> pid & 1:
            proc.key = None
        else:
            proc = self.procs[pid - 1] = proc.clone()
            self.owned |= 1 << pid
        return proc

    def _forks(self, fork: Exception) -> List["_SearchState"]:
        """The states that replace this one, the last of them this one
        itself, at a pick or a crash offer.  Either raised before changing
        anything, so each resumes where this state stopped."""
        if isinstance(fork, ChoiceNeeded):
            values = fork.candidates[::-1]
            children = [self.fork() for _ in values[1:]] + [self]
            picks = self.choices.picks
            for child, value in zip(children, values):
                child.choices = ScriptedChoices(picks)
                child.choices.picks[(fork.pid, fork.counter)] = value
            return children
        crashed = self.fork()
        crashed.own(fork.pid).status = _CRASHED
        crashed.crashed += 1
        proc = self.own(fork.pid)
        proc.crash_slot = _next_crash_slot(proc)
        return [crashed, self]

    def after(self, move: Optional[tuple]) -> List["_SearchState"]:
        """The quiescent states reached by the landing ``move``, a receiver
        and the items it lands, one per outcome of the picks and crash
        offers met on the way, up to class symmetry.  An empty ``move`` is
        the root settle, whose processes are independent: each is settled
        once and the outcomes composed (``_roots``).  ``None`` takes the
        deadline step instead, and a state the deadline step cannot change
        is its own terminal."""
        if move is None:
            return self._deadline_leaves()
        if not move:
            return self._roots()
        state = self.fork()
        receiver, items = move
        proc = state.own(receiver)
        for item in items:
            state.deliver(proc, item)
        state.inbox[receiver - 1] -= {(item.tag, item.value) for item in items}
        state.schedule = self.schedule + (
            (receiver, tuple([(item.sender, item.index) for item in items])),
        )
        # Before the deadline only a landing can wake a blocked process.
        return state._settle(receiver)

    def _roots(self) -> List["_SearchState"]:
        """The root states (``search_async`` point 5).  The running
        processes are settled in pid order, each once: in place while each
        has one outcome, and from the first with several outcomes on, each
        alone from the state before that first one.  Their outcomes are then
        composed (``_compose``)."""
        running = [p for p in self.procs if p.status == _RUNNING]
        base = self.fork()
        rows: List[Tuple[_Proc, List[_SearchState]]] = []  # each process's outcomes
        for k, p in enumerate(running):
            if rows:
                rows.append((p, base.fork()._settle(p.pid)))
                continue
            i = p.pid - 1
            before = base.procs[i], base.sent, list(base.inbox), base.choices
            outcomes = base._settle(p.pid)
            if len(outcomes) == 1:
                base = outcomes[0]
            elif k + 1 == len(running):
                return outcomes
            else:
                rows.append((p, outcomes))
                base = base.fork()
                base.procs[i], base.sent, base.inbox, base.choices = before
        return base._compose(rows) if rows else [base]

    def _compose(self, rows: List[Tuple[_Proc, List["_SearchState"]]]) -> List["_SearchState"]:
        """The states that take one outcome of each process of ``rows``,
        whose outcomes were each settled alone from this state.  The members
        of a block take outcomes of non-decreasing rank by pid, at most t
        processes crash, and one state per key is kept."""
        combos: List[Tuple[Tuple[int, ...], int]] = [((), 0)]  # ranks taken, crashes
        last: Dict[tuple, int] = {}  # per block, the row of its last member so far
        for row, (p, outcomes) in enumerate(rows):
            block = (p.program, p.crash_slot)
            place = last.get(block, -1)
            last[block] = row
            combos = [
                (ranks + (rank,), crashed + outcomes[rank].crashed)
                for ranks, crashed in combos
                for rank in range(ranks[place] if place >= 0 else 0, len(outcomes))
                if crashed + outcomes[rank].crashed <= self.cfg.t
            ]
        roots: Dict[tuple, _SearchState] = {}
        boxes: Dict[tuple, FrozenSet[Tuple[str, Value]]] = {}
        for ranks, crashed in combos:
            state = self.fork()
            procs, picks, sent = state.procs, {}, {}
            for (p, outcomes), rank in zip(rows[::-1], ranks[::-1]):  # the lowest pid's items stay
                solo = outcomes[rank]
                procs[p.pid - 1] = solo.procs[p.pid - 1]
                picks.update(solo.choices.picks)
                sent.update(solo.sent)
            state.choices = ScriptedChoices(picks)
            state.sent = sent
            state.crashed = crashed
            pairs = frozenset(sent)
            inbox = []
            for q in procs:
                # Nothing lands at the root, so a live process reads the
                # pairs whose tags a statement from its pc on reads.
                tags = frozenset() if q.status == _CRASHED else q.program.relevant_tags[q.pc]
                box = boxes.get((tags, pairs))
                if box is None:
                    box = boxes[tags, pairs] = frozenset([x for x in pairs if x[0] in tags])
                inbox.append(box)
            state.inbox = inbox
            roots.setdefault(state.key(), state)
        return list(roots.values())

    def _settle(self, pid: int) -> List["_SearchState"]:
        """This state with process ``pid`` run until it blocks, forked at
        each pick and crash offer, each fork without the pending pairs
        ``pid`` no longer reads, less every fork whose key an earlier one
        has."""
        settled, todo = [], [self]
        while todo:
            state = todo.pop()
            proc = state.own(pid)
            try:
                while state.step_proc(proc):
                    pass
            except (ChoiceNeeded, _CrashOffer) as fork:
                todo.extend(state._forks(fork))
                continue
            pairs = state.inbox[pid - 1]
            if pairs:
                state.inbox[pid - 1] = frozenset(p for p in pairs if state._relevant(proc, p))
            settled.append(state)
        if len(settled) < 2:
            return settled
        unique: Dict[tuple, _SearchState] = {}
        for state in settled:
            unique.setdefault(state.key(), state)
        return list(unique.values())

    def _deadline_leaves(self) -> List["_SearchState"]:
        if not any(self.inbox) and not any(
            p.status == _BLOCKED and isinstance(p.program.statements[p.pc].until, Deadline)
            for p in self.procs
        ):
            # The deadline step would land nothing and wake no process.
            return [self]
        state = self.fork()
        sent = state.sent
        state.pending = [
            {(item.sender, item.index): item for item in map(sent.__getitem__, pairs)}
            for pairs in state.inbox
        ]
        leaves, todo = [], [state]
        while todo:
            state = todo.pop()
            try:
                for proc in state.procs:
                    if proc.status in (_RUNNING, _BLOCKED):
                        state.own(proc.pid)
                state._deadline_step()
            except (ChoiceNeeded, _CrashOffer) as fork:
                todo.extend(state._forks(fork))
                continue
            leaves.append(state)
        return leaves

    def batches(self) -> List[tuple]:
        """Every landing move: a receiver and a nonempty subset of its
        pending pairs, each as the item ``sent`` holds for it, in
        ``sort_key`` order."""
        moves = []
        for pid, pairs in enumerate(self.inbox, 1):
            if pairs:
                items = sorted([self.sent[pair] for pair in pairs], key=_SORT_KEY)
                for size in range(1, len(items) + 1):
                    moves.extend((pid, combo) for combo in itertools.combinations(items, size))
        return moves

    def key(self) -> tuple:
        """Per class of processes with equal programs, the sorted ids of its
        members, each member's id naming its key part and its inbox.

        A live process's ``crash_slot`` in its part adds nothing the
        program, the status, the pc and t do not fix.  With t = 0 it is -1.
        Otherwise a process not yet run (at the root) keeps its first slot,
        and a process that has run keeps the first of its crash slots after
        its pc, or -1: it was set so when the pc last reached a slot (taken
        crash offer or not, ``_crash`` and ``_forks`` move it on), and the pc
        meets every slot on its way, since the offer comes before the
        statement and its guard.  A blocked process has met the slot at its
        pc before its wait."""
        parts, members = self.parts, self.members
        ids = []
        for p, pairs in zip(self.procs, self.inbox):
            part = p.key
            if part is None:
                if p.status in (_DONE, _CRASHED):
                    state = (p.status, p.output)
                else:
                    tags = p.program.relevant_tags[p.pc]
                    state = (
                        p.status, p.pc, p.crash_slot, p.output, frozenset(p.locals.items()),
                        p.pick_counter, p.emission_counter,
                        frozenset(pair for pair in p.seen if pair[0] in tags),
                        tuple(p.first.get(tag) for tag in tags),
                    )
                part = p.key = parts.setdefault(state, len(parts))
            ids.append(members.setdefault((part, pairs), len(members)))
        return tuple([tuple(sorted([ids[i] for i in cls])) for cls in self.classes])

    def search(self, max_states: int) -> SearchOutcome:
        """The search from this state as its root (see ``search_async``)."""
        outcome = SearchOutcome()
        visited = set()
        moves = [(self, ())]
        while moves:
            parent, move = moves.pop()
            for state in parent.after(move):
                seen = len(visited)
                visited.add(state.key())  # one hash of the key, not two
                if len(visited) == seen:
                    continue
                if outcome.states == max_states:
                    outcome.complete = False
                    return outcome
                outcome.states += 1
                for leaf in state.after(None):
                    outcome.terminals += 1
                    reached = output_set(tuple(p.output for p in leaf.procs))
                    if reached not in outcome.found:
                        outcome.found[reached] = (
                            ScriptedChoices(leaf.choices.picks),
                            FailurePattern.of(
                                {p.pid: p.pc for p in leaf.procs if p.status == _CRASHED}
                            ),
                            leaf.schedule,
                        )
                moves.extend((state, move) for move in reversed(state.batches()))
        return outcome


def search_async(instance, cfg: SystemConfig, max_states: int) -> SearchOutcome:
    """Every output set the asynchronous kernel produces under every failure
    pattern with at most t crashes, by one depth-first search over its
    quiescent states, visiting at most ``max_states`` of them.

    A state is a kernel in which every process is blocked, done or crashed,
    with each receiver's pending deliveries as a set of (tag, value) pairs.
    A state has two kinds of move, generated lazily: land a nonempty subset
    of one receiver's pending pairs, in ``sort_key`` order, and run that
    receiver until it blocks, since nothing else can wake before the
    deadline step; or take the deadline step
    (``_AsyncKernel._deadline_step``, shared with ``run``), whose result is
    terminal.  Where nothing is pending and no
    blocked process awaits ``Deadline()``, the deadline step moves nothing,
    so the state is its own terminal and the step is not taken.  A pick met
    on the way forks the state once per candidate, and a crash offer forks
    it in two.  Forked states share their processes until one changes
    (``own`` clones it first), and each process caches the id of its part
    of the key until then.  Visited states are deduplicated by key in one
    set, freed on return.

    Why this reaches exactly the output sets of the kernel's runs under
    every failure pattern at the crash slots with at most t crashes, for
    every choice stream and schedule (``explore`` says why the crash slots
    suffice):

    1. Runs are paths.  A kernel move lands items on one receiver and runs
       only it: before the deadline step a process's run reads only its own
       locals, its own observations and, at a crash slot, its failure
       pattern, and it only adds what it emits to the pending items.  By
       point 2 the move does what landing its relevant new pairs does,
       which is a landing move of the search, or nothing when there are
       none; and the deadline step is the search's.  So every kernel run
       is a path of moves.
    2. Pairs and relevance.  Landing an item changes its receiver only
       through its (tag, value) pair: ``deliver`` adds the pair to ``seen``
       and, for a new tag, the value to ``first``.  So two pending items
       with one pair to one receiver have one effect, and once one lands
       the other changes nothing: a receiver's pending deliveries are a set
       of pairs, each landed as the first item emitted with it.  That item
       was pending to every receiver that has the pair pending, since a
       crash, the pc and ``seen`` only grow and a receiver's tags read from
       its pc on only shrink.  A pending pair is dropped when its receiver
       has crashed, when no statement of its receiver from the receiver's
       pc on reads its tag, or when it is already in the receiver's
       ``seen``; landing it then changes nothing the receiver reads, and
       this stays true.  Such a pair is no branch point and no part of the
       key; the kernel lands its items at the deadline step at the latest.
    3. Crash moves.  When a live process reaches one of its crash slots
       (``Program.crash_slots``) while fewer than t processes have crashed,
       the state forks: in one branch it crashes there, as a failure
       pattern naming that slot makes it, and in the other it runs on and
       is next offered its following slot.  A kernel run under a failure
       pattern at the crash slots with f <= t crashes makes, at each offer,
       the choice its pattern names; each of its processes that crashes
       does so while fewer than f others have.  So the paths of the search
       are the runs of every such pattern, and a crashed process's pc is
       its slot.
    4. Deduplication.  A process's key part holds all that its future
       reads: of a blocked or running one its status, pc, next crash slot,
       output, locals, pick and emission counters and its ``seen`` pairs
       and ``first`` values of the tags it still reads; of a done or
       crashed one its status and output.  Each member's key part and
       pending pairs are interned as one id, and the key holds, per class
       of processes with equal bound programs, the sorted ids of its
       members.  Members of a class have equal programs, crash slots and
       failure budget, so a state and its image under a permutation within
       classes reach the same output sets (``explore``'s relabelling
       argument), and the crash count is the number of crashed members.
       Every later pick has a new (pid, counter), so the picks made so far
       do not matter.  States with one key have one future.
    5. The root.  Nothing has landed at the root and ``Deadline()`` does
       not hold there, so by point 1 a process's run there reads only its
       own state and, at a crash offer, the crash count: the processes are
       independent.  Each running process is settled once, in pid order,
       forked at its picks and crash offers, and of its forks with one key
       only the first is kept.  While each has one outcome, a process is
       settled in place; from the first with several on, each is settled
       alone from the state before that one.  A root state takes one
       outcome of each process, with at most t crashes among them, checked
       as outcomes are combined.  Each process is as its outcome left it,
       with its picks, crash and emitted items; the first item of a pair is
       the lowest emitter's, as in a run that settles the processes in pid
       order; and each receiver's pending pairs are those it still reads.
       Two outcomes of one process with one key give root states with one
       key, since a receiver settled later reads fewer pairs (point 2).
       Call a block the processes with equal programs, crash slots and
       status.  Its members run the same statements from equal states.
       Members settled in place have one outcome each, and so has every
       later member, which settles where fewer pairs are read; the others
       all settle from one state.  As the key is class-symmetric, the
       members' outcome lists are equal up to pid and come in one order.
       A choice that gives the members some order of one multiset of
       outcomes is a relabelling, within a class, of the choice that gives
       them in rank order, and has its key (point 4).  So a block takes its
       outcomes as multisets, of non-decreasing rank by pid, and one state
       per key is kept.
    6. Back to a run.  A path's landing moves, each as its receiver and
       the (sender, index) of the items it lands, are a schedule
       (``_SearchState.schedule``).  Each of those items was emitted before
       its move and is pending to its receiver until then, so the kernel
       run under that schedule, with the path's picks scripted and the
       failure pattern that crashes each crashed process at its pc, lands
       the same items on the same receivers, runs only them, passes
       through the path's states and ends with the same deadline step.
       The items the search drops as irrelevant stay pending in the run
       and land at the deadline step, where they change nothing read, so
       ``medium_check`` still sees every delivery.  A schedule has no
       length bound.
    """
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("search_async requires an ASYNC configuration")
    _validate_common(instance, cfg, FailurePattern())
    return _SearchState(instance, cfg).search(max_states)


# ---------------------------------------------------------------------------
# Medium property audit.


def medium_check(trace: ExecutionTrace) -> List[str]:
    """Scan an event log for violations of the four medium properties.

    The kernel enforces the properties by construction; this is the
    independent auditor.  Violations are returned as data, one description
    per finding.
    """
    if not trace.recorded:
        raise PreconditionError("cannot audit a trace without an event log")
    violations: List[str] = []
    communicated: Dict[Tuple[int, int], Dict[str, object]] = {}
    observed_by: Dict[Tuple[int, int], Dict[int, Dict[str, object]]] = {}
    crashed = set()
    for event in trace.events:
        kind = event["kind"]
        if kind == "communicate":
            communicated[(event["pid"], event["index"])] = event
        elif kind == "observe":
            key = (event["sender"], event["index"])
            observed_by.setdefault(key, {})[event["pid"]] = event
        elif kind == "crash":
            crashed.add(event["pid"])
    correct = set(range(1, trace.n + 1)) - crashed

    for key, receivers in sorted(observed_by.items()):
        comm = communicated.get(key)
        for pid, obs in sorted(receivers.items()):
            if comm is None or comm["seq"] > obs["seq"]:
                violations.append(
                    f"C-Validity: process {pid} observed item {key} "
                    f"never previously communicated"
                )
            elif (comm["tag"], comm["value"]) != (obs["tag"], obs["value"]):
                violations.append(
                    f"C-Validity: item {key} observed by {pid} with corrupted "
                    f"payload {obs['tag']}({obs['value']})"
                )

    if correct:
        for key, comm in sorted(communicated.items()):
            if comm["pid"] not in correct:
                continue
            receivers = observed_by.get(key, {})
            if not (set(receivers) & correct):
                violations.append(
                    f"C-Local-Termination: item {key} communicated by correct "
                    f"process {comm['pid']} observed by no correct process"
                )

    for key, receivers in sorted(observed_by.items()):
        missing = correct - set(receivers)
        if missing:
            violations.append(
                f"C-Global-Termination: item {key} observed by "
                f"{sorted(receivers)} but not by correct {sorted(missing)}"
            )

    if trace.timing is Timing.SYNC:
        for key, receivers in sorted(observed_by.items()):
            comm = communicated.get(key)
            if comm is None:
                continue  # already a C-Validity violation
            if comm["t"] % 2 != COMM:
                violations.append(
                    f"C-Synchrony: item {key} communicated outside a "
                    f"communication step (tick {comm['t']})"
                )
            for pid, obs in sorted(receivers.items()):
                if obs["t"] != comm["t"]:
                    violations.append(
                        f"C-Synchrony: item {key} communicated at tick "
                        f"{comm['t']} but observed by {pid} at tick {obs['t']}"
                    )
    return violations
