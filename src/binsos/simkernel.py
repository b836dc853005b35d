"""Deterministic execution kernel for the communicate/observe medium.

An execution is a pure function of (algorithm instance, choice stream,
failure pattern, delay pattern): replaying the same inputs reproduces the
identical event log byte for byte.

Synchronous runs proceed in lock-step rounds, each statement in the round its
tag names, until no process is left running; all items communicated during a
round's communication step are observed, by every process not yet crashed, at
that round's delivery barrier, before the computation step begins.

Asynchronous runs advance in discrete delivery steps 0..H.  At each step
the step's deliveries land, then every runnable process executes statements
until it blocks or finishes.  The horizon H = max(1, 4n) (0 in a sync
trace) is the one deadline: at step H, processes blocked on it wake first,
re-checking their observations once, before that step's deliveries.
Emitted items are delivered to all processes by the horizon, so the medium's
termination properties hold by construction; ``medium_check`` audits them
independently from the event log.

Crashes are positional: a process with crash slot k halts when about to
execute statement k, or after its last statement when k is its statement
count; a larger slot is rejected.  Items it already emitted are still
delivered (the medium never suppresses information).

A recorded run logs one event per delivery and per statement executed, of
the six kinds in ``EVENT_FIELDS``, the one event table.  Each kind has a
fixed set of fields: ``kind`` its name, ``tag`` a string, ``value`` 0, 1
or None, and every other field an int.  ``seq`` numbers the events from 0,
``t`` is the delivery step (under synchrony 2(r-1) for round r's
communication step and one more for its computation step), ``pid`` the
acting process, ``stmt`` its statement index, ``slot`` the statement it
crashes before, ``ctr`` its pick counter, and ``sender`` and ``index`` name
an item by its emitter and emission ordinal.  ``ExecutionTrace.to_jsonl``
writes each event with its kind's line formatter, and
``ExecutionTrace.parse`` rejects an event line the table does not allow, and
a final record whose outputs or termination the kernel never writes.

``search_async`` explores the same interpreter as a state graph: it forks
the kernel at each pick and each choice of what lands next, instead of
fixing choices and delays up front, and maps every output set it reaches
back to the choices and delay pattern of one kernel run.  Its states share
processes copy-on-write.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .algorithms import instance_from_descriptor
from .outputsets import (
    OutputSet, SystemConfig, Timing, Value, _descriptor_fields, _read_json, output_set,
)
from .patterns import ALL_IMMEDIATE, SYNC_CANONICAL, DelayPattern, FailurePattern
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
TRACE_VERSION = 1

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


def default_horizon(n: int) -> int:
    """The last delivery step of an asynchronous n-process run."""
    return max(1, 4 * n)


@dataclass(frozen=True)
class InfoItem:
    """One communicated piece of information, identified by (sender, index)."""

    sender: int
    index: int
    tag: str
    value: Value

    @property
    def sort_key(self) -> Tuple[int, int, int]:
        bit = -1 if self.value is None else int(self.value)
        return (self.sender, bit, self.index)


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
        return int(self.header["cfg"]["n"])  # type: ignore[index]

    @property
    def timing(self) -> Timing:
        return Timing(self.header["cfg"]["timing"])  # type: ignore[index]

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
        n = SystemConfig.from_descriptor(header["cfg"]).n
        if len(outputs) != n:
            raise ValueError(
                f"trace final record outputs has {len(outputs)} entries, not cfg.n = {n}"
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
        alg=dict, cfg=dict, choices=dict, fp=dict, dp=dict, horizon=int,
    )


class _Proc:
    __slots__ = (
        "pid",
        "program",
        "pc",
        "locals",
        "status",
        "output",
        "observed",
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
        self.observed: Dict[str, set] = {}  # tag -> every value observed with it
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
        other.observed = {tag: set(values) for tag, values in self.observed.items()}
        other.first = dict(self.first)
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
        dp: DelayPattern,
        record: bool,
    ):
        self.cfg = cfg
        self.choices = choices
        self.dp = dp
        self.horizon = default_horizon(cfg.n) if cfg.timing is Timing.ASYNC else 0
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
                "cfg": cfg.describe(),
                "choices": choices.describe(),
                "fp": fp.describe(),
                "dp": dp.describe(),
                "horizon": self.horizon,
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
                if atom.value is None:
                    truth = atom.tag in proc.first
                else:
                    truth = atom.value in proc.observed.get(atom.tag, ())
            elif isinstance(atom, HasOutput):
                truth = proc.output is not None
            elif isinstance(atom, Deadline):
                truth = self.now >= self.horizon
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

    def emit(self, item: InfoItem) -> None:
        raise NotImplementedError

    def deliver(self, proc: _Proc, item: InfoItem) -> None:
        seen = proc.observed.get(item.tag)
        if seen is None:
            proc.observed[item.tag] = {item.value}
            proc.first[item.tag] = item.value
        else:
            seen.add(item.value)
        if self.record:
            self.events.append({"index": item.index, "kind": "observe", "pid": proc.pid,
                                "sender": item.sender, "seq": len(self.events), "t": self.now,
                                "tag": item.tag, "value": item.value})

    def finalize(self, termination: str) -> ExecutionTrace:
        outputs = tuple(p.output for p in self.procs)
        return ExecutionTrace(self.header, self.events, outputs, termination)


class _SyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, record):
        super().__init__(instance, cfg, choices, fp, SYNC_CANONICAL, record)
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
            for item in sorted(self.round_items, key=lambda i: i.sort_key):
                for proc in self.procs:
                    if proc.status != _CRASHED:
                        self.deliver(proc, item)
            self.now = 2 * (rnd - 1) + 1
            self._advance_phase((rnd, COMP))
        return self.finalize(ALL_DONE)


class _AsyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, dp, record):
        super().__init__(instance, cfg, choices, fp, dp, record)
        self.pending: Dict[int, List[Tuple[int, InfoItem]]] = {}

    def emit(self, item: InfoItem) -> None:
        for receiver in range(1, self.cfg.n + 1):
            try:
                step = self.dp.step_for(item.sender, item.index, receiver)
            except ValueError as exc:
                # An emitted item with no delivery entry for some process
                # would break global termination of the medium.
                raise PreconditionError(str(exc)) from None
            step = max(self.now, min(step, self.horizon))
            self.pending.setdefault(step, []).append((receiver, item))

    def _deliver_due(self) -> bool:
        due = []
        for step in sorted(s for s in self.pending if s <= self.now):
            due.extend(self.pending.pop(step))
        if not due:
            return False
        due.sort(key=lambda d: (d[0],) + d[1].sort_key)
        progressed = False
        for receiver, item in due:
            proc = self.procs[receiver - 1]
            if proc.status == _CRASHED:
                continue
            self.deliver(proc, item)
            progressed = True
        return progressed

    def _advance_all(self) -> bool:
        progressed = False
        for proc in self.procs:
            while self.step_proc(proc):
                progressed = True
        return progressed

    def _drain(self) -> None:
        while True:
            moved = self._deliver_due()
            moved = self._advance_all() or moved
            if not moved and not any(s <= self.now for s in self.pending):
                return

    def _deadline_step(self) -> None:
        """Step H.  Deadline waiters wake before this step's deliveries land,
        so a delivery scheduled exactly at the deadline is not yet visible to
        the re-check the waiter performs on waking; then everything still
        pending lands, and so does anything emitted at H."""
        self.now = self.horizon
        self._advance_all()
        self._drain()

    def run(self) -> ExecutionTrace:
        self._drain()
        # Every delivery step is clamped to the horizon, the one deadline, so
        # no run outlasts it.
        while min(self.pending, default=self.horizon) < self.horizon:
            self.now = min(self.pending)
            self._drain()
        self._deadline_step()
        done = all(p.status in (_DONE, _CRASHED) for p in self.procs)
        return self.finalize(ALL_DONE if done else QUIESCENT)


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


def potential_emissions(instance) -> List[Tuple[int, int]]:
    """Every (sender, emission ordinal) the instance's programs can produce."""
    slots = []
    for pid, program in enumerate(instance.programs(), start=1):
        slots.extend((pid, k) for k in range(program.communicate_count))
    return slots


def validate_delay_pattern(instance, cfg: SystemConfig, dp: DelayPattern) -> None:
    """Screen a delay pattern against an instance and its horizon."""
    if dp.kind == "sync_canonical":
        return
    horizon = default_horizon(cfg.n)
    emissions = set(potential_emissions(instance))
    for sender, index, receiver, step in dp.entries:
        if not 1 <= sender <= cfg.n or not 1 <= receiver <= cfg.n:
            raise PreconditionError(
                f"delay pattern references unknown process in edge "
                f"({sender},{index},{receiver})"
            )
        if (sender, index) not in emissions:
            raise PreconditionError(
                f"delay pattern delivers item ({sender},{index}) that process "
                f"{sender} can never emit"
            )
        if step > horizon:
            raise PreconditionError(
                f"delivery of ({sender},{index}) to {receiver} at step {step} "
                f"exceeds horizon {horizon}"
            )
    if dp.default is not None and dp.default > horizon:
        raise PreconditionError("default delivery step exceeds horizon")


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
    dp: DelayPattern,
    record: bool = True,
) -> ExecutionTrace:
    """Execute one asynchronous run under an explicit delay pattern, which
    ``validate_delay_pattern`` screens first."""
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("run_async requires an ASYNC configuration")
    _validate_common(instance, cfg, fp)
    validate_delay_pattern(instance, cfg, dp)
    return _AsyncKernel(instance, cfg, choices, fp, dp, record).run()


def run(instance, cfg, choices, fp, dp=None, record=True) -> ExecutionTrace:
    """Dispatch on the configuration's timing model.

    A SYNC run takes only SYNC_CANONICAL.  An ASYNC run given no delay
    pattern, or SYNC_CANONICAL, delivers every item at the step it is
    emitted.
    """
    if cfg.timing is Timing.SYNC:
        if dp not in (None, SYNC_CANONICAL):
            raise PreconditionError("a SYNC run takes only the sync_canonical delay pattern")
        return run_sync(instance, cfg, choices, fp, record=record)
    dp = SYNC_CANONICAL if dp is None else dp
    return run_async(instance, cfg, choices, fp, dp, record=record)


def replay(source) -> ExecutionTrace:
    """Re-execute a trace from its header alone (trace text or header dict)."""
    header = _read_header(source)
    rerun = run(
        instance_from_descriptor(header["alg"]),
        SystemConfig.from_descriptor(header["cfg"]),
        choices_from_descriptor(header["choices"]),
        FailurePattern.from_descriptor(header["fp"]),
        DelayPattern.from_descriptor(header["dp"]),
    )
    # The horizon follows from the configuration, as the roles do.
    horizon, derived = header["horizon"], rerun.header["horizon"]
    if horizon != derived:
        raise PreconditionError(f"trace header horizon {horizon} is not {derived}")
    return rerun


# ---------------------------------------------------------------------------
# Asynchronous state-graph search.


def relevant_tags(program: Program) -> Tuple[FrozenSet[str], ...]:
    """Entry k: the tags that statements k, k+1, ... of ``program`` read
    (``Program.relevant_tags``, computed once per program)."""
    return program.relevant_tags


@dataclass
class SearchOutcome:
    """What ``search_async`` found under one failure pattern.

    ``found`` maps each output set reached to the run inputs (choices and
    delay pattern) of the first terminal state that reached it.
    """

    states: int = 0  # distinct quiescent states visited
    terminals: int = 0  # terminal states reached: one per deadline step and pick outcome
    complete: bool = True  # False when the state bound stopped the search
    found: Dict[OutputSet, Tuple[ScriptedChoices, DelayPattern]] = field(default_factory=dict)


class _SearchState(_AsyncKernel):
    """One node of the search: an unrecorded asynchronous kernel whose
    pending (receiver, item) deliveries carry no step yet.  They are kept
    in ``pending[horizon]``, where the deadline step finds them.  States
    share their processes copy-on-write: ``fork`` copies the list of
    processes, and ``own`` clones a shared one just before it changes.
    Forks share their script of picks too, until a pick fork extends a
    copy."""

    def __init__(self, instance, cfg: SystemConfig, fp: FailurePattern):
        super().__init__(instance, cfg, ScriptedChoices(), fp, ALL_IMMEDIATE, record=False)
        self.relevant = [relevant_tags(p.program) for p in self.procs]
        self.path: tuple = ()  # the batches landed so far, as (earlier, batch) pairs
        self.steps = 0  # how many batches that is
        self.owned = 0  # bit pid: procs[pid - 1] is referenced by no other state

    def _relevant(self, proc: _Proc, item: InfoItem) -> bool:
        return (
            proc.status != _CRASHED
            and item.tag in self.relevant[proc.pid - 1][proc.pc]
            and item.value not in proc.observed.get(item.tag, ())
        )

    def emit(self, item: InfoItem) -> None:
        pending = self.pending.setdefault(self.horizon, [])
        for proc in self.procs:
            if self._relevant(proc, item):
                pending.append((proc.pid, item))

    def fork(self) -> "_SearchState":
        other = _SearchState.__new__(_SearchState)
        other.__dict__.update(self.__dict__)
        other.procs = list(self.procs)
        other.owned = self.owned = 0
        other.pending = {step: list(items) for step, items in self.pending.items()}
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

    def after(self, batch: Optional[tuple]) -> List["_SearchState"]:
        """The quiescent states reached by landing ``batch`` (nothing, when
        it is empty), one per outcome of the picks met on the way; ``None``
        takes the deadline step instead, and a state the deadline step
        cannot change is its own terminal."""
        if batch is None and not self.pending.get(self.horizon) and not any(
            p.status == _BLOCKED and isinstance(p.program.statements[p.pc].until, Deadline)
            for p in self.procs
        ):
            # The deadline step would land nothing and wake no process.
            return [self]
        state = self.fork()
        if batch is None:
            state.now = state.horizon
        elif batch:
            pending = state.pending[state.horizon]
            for receiver, item in batch:
                pending.remove((receiver, item))
                state.deliver(state.own(receiver), item)
            state.path = (self.path, batch)
            state.steps += 1
            if state.steps >= state.horizon:
                raise KernelError(
                    f"search path of {state.steps} batches has no delay pattern "
                    f"within horizon {state.horizon}"
                )
        receivers = {receiver for receiver, _ in batch or ()}
        settled, todo = [], [state]
        while todo:
            state = todo.pop()
            try:
                if state.now < state.horizon:
                    # Nothing is due before the horizon, so only a landing can
                    # wake a blocked process: run the receivers and every
                    # running process until each blocks.
                    for proc in state.procs:
                        if proc.status == _RUNNING or proc.pid in receivers:
                            proc = state.own(proc.pid)
                            while state.step_proc(proc):
                                pass
                else:
                    for proc in state.procs:
                        if proc.status in (_RUNNING, _BLOCKED):
                            state.own(proc.pid)
                    state._deadline_step()
            except ChoiceNeeded as need:
                # The pick raised before changing anything, so each fork
                # resumes where this state stopped.
                for value in reversed(need.candidates):
                    child = state.fork()
                    child.choices = ScriptedChoices(state.choices.picks)
                    child.choices.picks[(need.pid, need.counter)] = value
                    todo.append(child)
                continue
            if state.now < state.horizon:
                pending = state.pending.get(state.horizon)
                if pending:
                    state.pending[state.horizon] = [
                        (r, item) for r, item in pending
                        if state._relevant(state.procs[r - 1], item)
                    ]
            settled.append(state)
        return settled

    def batches(self) -> List[tuple]:
        """Every landing move: a nonempty subset of one receiver's pending
        items, in the kernel's delivery order."""
        by_receiver: Dict[int, list] = {}
        for pair in sorted(
            self.pending.get(self.horizon, ()), key=lambda d: (d[0],) + d[1].sort_key
        ):
            by_receiver.setdefault(pair[0], []).append(pair)
        moves = []
        for items in by_receiver.values():
            for size in range(1, len(items) + 1):
                moves.extend(itertools.combinations(items, size))
        return moves

    def key(self) -> tuple:
        procs = []
        for p in self.procs:
            if p.key is None:
                if p.status != _BLOCKED:
                    p.key = (p.status, p.output)
                else:
                    seen = tuple(
                        (p.first.get(tag), frozenset(p.observed.get(tag, ())))
                        for tag in self.relevant[p.pid - 1][p.pc]
                    )
                    p.key = (
                        p.pc, p.output, frozenset(p.locals.items()),
                        p.pick_counter, p.emission_counter, seen,
                    )
            procs.append(p.key)
        pending = frozenset(
            (r, item.sender, item.index, item.tag, item.value)
            for r, item in self.pending.get(self.horizon, ())
        )
        return tuple(procs), pending

    def inputs(self) -> Tuple[ScriptedChoices, DelayPattern]:
        """Choices and delay pattern of the kernel run along this state's
        path: the j-th batch lands at step j, every other item at H."""
        entries = {}
        step, path = self.steps, self.path
        while path:
            path, batch = path
            for receiver, item in batch:
                entries[(item.sender, item.index, receiver)] = step
            step -= 1
        return (
            ScriptedChoices(self.choices.picks),
            DelayPattern.of(entries, default=self.horizon),
        )


def search_async(
    instance, cfg: SystemConfig, fp: FailurePattern, max_states: int
) -> SearchOutcome:
    """Every output set the asynchronous kernel produces under ``fp``, by a
    depth-first search over its quiescent states, visiting at most
    ``max_states`` of them.

    A state is a kernel in which every process is blocked, done or crashed,
    with a set of pending (receiver, item) deliveries that carry no step
    yet.  Before the horizon a state has two kinds of move, generated
    lazily: land a nonempty subset of one receiver's pending items, in the
    kernel's delivery order, and run that receiver (and any process still
    running) until it blocks, since nothing else can wake before the
    horizon; or take the deadline step (``_AsyncKernel._deadline_step``,
    shared with ``run``), whose result is terminal.  Where nothing is
    pending and no blocked process awaits ``Deadline()``, the deadline step
    moves nothing, so the state is its own terminal and the step is not
    taken.  A pick met on the way forks the state once per candidate.
    Forked states share their processes until one changes (``own`` clones
    it first), and each process caches its part of the key until then.
    Visited states are deduplicated by key in one set, freed on return.

    Why this reaches exactly the output sets of the kernel's runs under
    ``fp``, for every choice stream and delay pattern:

    1. One receiver at a time.  Each round of a kernel step lands its due
       items, sorted by receiver, then runs every process until it blocks.
       A process's run reads only its own locals, its own observations and
       whether the horizon has come, and it only adds what it emits to the
       pending set.  So landing a round's items receiver by receiver, running
       after each, reaches the same state as landing them together: every
       kernel run is a path of moves.
    2. Relevance.  A pending item is dropped when its receiver has crashed,
       when no statement of its receiver from the receiver's pc on reads its
       tag, or when the receiver has already observed its (tag, value).
       Landing it then changes nothing the receiver will read: the pc only
       grows and observations only accumulate, so this stays true.  Such an
       item is no branch point and no part of the key; the kernel lands it
       at H at the latest.
    3. Deduplication.  The key holds all that the future reads: of a blocked
       process its pc, output, locals, pick and emission counters and its
       observations of the tags it still reads; of a done or crashed one its
       status and output; and the pending items.  Crash slots are fixed by
       ``fp``, and every later pick has a new (pid, counter), so the picks
       made so far do not matter.  States with one key have one future.
    4. Back to a run.  A path that lands batches b_1..b_k and then takes the
       deadline step is the kernel run with its picks scripted and the
       delay pattern that delivers b_j's items at step j and every other
       item at H (``_SearchState.inputs``).  Each item of b_j was emitted
       before b_j, at a step below j, so it lands at j; at step j only b_j's
       receiver can move; so the run passes through the path's states.  This
       needs k < H: a longer path raises ``KernelError`` rather than being
       dropped.
    """
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("search_async requires an ASYNC configuration")
    _validate_common(instance, cfg, fp)
    outcome = SearchOutcome()
    visited = set()
    moves = [(_SearchState(instance, cfg, fp), ())]
    while moves:
        parent, batch = moves.pop()
        for state in parent.after(batch):
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
                    outcome.found[reached] = leaf.inputs()
            moves.extend((state, b) for b in reversed(state.batches()))
    return outcome


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
