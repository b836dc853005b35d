"""Deterministic execution kernel for the communicate/observe medium.

An execution is a pure function of (algorithm instance, choice stream,
failure pattern, delay pattern): replaying the same inputs reproduces the
identical event log byte for byte.

Synchronous runs proceed in lock-step rounds; all items communicated during a
round's communication step are observed, by every process not yet crashed, at
that round's delivery barrier, before the computation step begins.

Asynchronous runs advance in discrete delivery steps 0..H.  At each step,
processes blocked on a deadline wake first (re-checking their observations
once), then the step's deliveries land, then every runnable process executes
statements until it blocks or finishes.  Emitted items are delivered to all
processes by the horizon, so the medium's termination properties hold by
construction; ``medium_check`` audits them independently from the event log.

Crashes are positional: a process with crash slot k halts when about to
execute statement k.  Items it already emitted are still delivered (the
medium never suppresses information).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .outputsets import OutputSet, SystemConfig, Timing, Value, output_set
from .patterns import SYNC_CANONICAL, DelayPattern, FailurePattern
from .program import (
    COMM,
    COMP,
    ChoiceStream,
    Communicate,
    Flip,
    Guard,
    HasOutput,
    LocalIs,
    LocalRef,
    ObservedInit,
    ObservedOutput,
    ObservedPropose,
    Output,
    Pick,
    Program,
    SetLocal,
    Wait,
    WaitAnyOutput,
    WaitDeadline,
    WaitInit,
    INIT,
    OUTPUT,
    PROPOSE,
)

ALL_DONE = "ALL_DONE"
QUIESCENT = "QUIESCENT"
HORIZON = "HORIZON"

_RUNNING = 0
_BLOCKED = 1
_DONE = 2
_CRASHED = 3

TRACE_FORMAT = "binsos-trace"
TRACE_VERSION = 1
_HEADER_FIELDS = ("alg", "cfg", "choices", "fp", "dp", "horizon")


class KernelError(Exception):
    """Internal invariant broken while interpreting a program."""


class PreconditionError(Exception):
    """Inputs rejected before execution (bad pattern, timing mismatch...)."""


def default_horizon(n: int) -> int:
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
    recorded: bool = True

    def output_set(self) -> OutputSet:
        return output_set(self.outputs)

    @property
    def n(self) -> int:
        return int(self.header["cfg"]["n"])  # type: ignore[index]

    @property
    def timing(self) -> Timing:
        return Timing(self.header["cfg"]["timing"])  # type: ignore[index]

    def crashed_pids(self) -> frozenset:
        return frozenset(e["pid"] for e in self.events if e["kind"] == "crash")

    def correct_pids(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.crashed_pids()

    def to_jsonl(self) -> str:
        if not self.recorded:
            raise ValueError("trace was produced without event recording")
        lines = [_dumps(self.header)]
        lines.extend(_dumps(e) for e in self.events)
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
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace")
        header = _read_header(lines[0])
        final = json.loads(lines[-1])
        if final.get("kind") != "final":
            raise ValueError("trace missing final record")
        events = [json.loads(line) for line in lines[1:-1]]
        outputs = tuple(final["outputs"])
        return ExecutionTrace(header, events, outputs, final["termination"])


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_header(source) -> Dict[str, object]:
    """Check a trace header, given as a dict or as trace text (whose first
    line alone is parsed), against the format and version this kernel writes."""
    header = json.loads(source.partition("\n")[0]) if isinstance(source, str) else source
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise PreconditionError(f"not a trace: header format is not {TRACE_FORMAT!r}")
    if header.get("version") != TRACE_VERSION:
        version = header.get("version")
        raise PreconditionError(
            f"trace version {version!r} is not supported (expected {TRACE_VERSION})"
        )
    missing = [name for name in _HEADER_FIELDS if name not in header]
    if missing:
        raise PreconditionError(f"trace header lacks {', '.join(missing)}")
    return header


class _Proc:
    __slots__ = (
        "pid",
        "program",
        "pc",
        "locals",
        "status",
        "output",
        "observed",
        "has_init",
        "output_bits",
        "propose_bits",
        "crash_slot",
        "pick_counter",
        "emission_counter",
        "deadline",
    )

    def __init__(self, pid: int, program: Program, crash_slot: Optional[int]):
        self.pid = pid
        self.program = program
        self.pc = 0
        self.locals: Dict[str, Value] = dict(program.initial_locals)
        self.status = _RUNNING
        self.output: Value = None
        self.observed: List[InfoItem] = []
        self.has_init = False
        self.output_bits: set = set()
        self.propose_bits: set = set()
        if crash_slot is None:
            self.crash_slot = -1
        else:
            self.crash_slot = min(crash_slot, len(program.statements))
        self.pick_counter = 0
        self.emission_counter = 0
        self.deadline: Optional[int] = None

    def alive(self) -> bool:
        return self.status not in (_DONE, _CRASHED)


class _Kernel:
    """Shared interpreter state for one execution."""

    def __init__(
        self,
        instance,
        cfg: SystemConfig,
        choices: ChoiceStream,
        fp: FailurePattern,
        dp: DelayPattern,
        horizon: int,
        record: bool,
    ):
        self.cfg = cfg
        self.choices = choices
        self.dp = dp
        self.horizon = horizon
        self.record = record
        self.events: List[Dict[str, object]] = []
        self.seq = 0
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
                "horizon": horizon,
            }
        else:
            # Unrecorded traces are throwaway probes; keep just enough of a
            # header for the output-set accounting.
            self.header = None
        for proc in self.procs:
            self._maybe_finish(proc)

    # -- event log ----------------------------------------------------------

    def log(self, pid: int, kind: str, **extra: object) -> None:
        if not self.record:
            return
        event: Dict[str, object] = {"seq": self.seq, "t": self.now, "pid": pid, "kind": kind}
        event.update(extra)
        self.events.append(event)
        self.seq += 1

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
            elif isinstance(atom, ObservedInit):
                truth = proc.has_init
            elif isinstance(atom, ObservedOutput):
                truth = atom.value in proc.output_bits
            elif isinstance(atom, ObservedPropose):
                truth = atom.value in proc.propose_bits
            elif isinstance(atom, HasOutput):
                truth = proc.output is not None
            else:
                raise KernelError(f"unknown guard atom {atom!r}")
            if truth == atom.negate:
                return False
        return True

    # -- statement execution --------------------------------------------------

    def _crash(self, proc: _Proc) -> None:
        proc.status = _CRASHED
        self.log(proc.pid, "crash", slot=proc.pc)

    def _maybe_finish(self, proc: _Proc) -> None:
        if proc.status in (_DONE, _CRASHED):
            return
        if proc.pc >= len(proc.program.statements):
            if proc.pc == proc.crash_slot:
                self._crash(proc)
            else:
                proc.status = _DONE

    def step_proc(self, proc: _Proc) -> bool:
        """Execute one statement if possible; True when progress was made."""
        if proc.status == _BLOCKED:
            if not self._wait_ready(proc):
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
            if not self._wait_ready(proc, entering=True):
                proc.status = _BLOCKED
                return False
        self._execute(proc, stmt)
        if proc.status == _CRASHED:
            return True
        proc.pc += 1
        self._maybe_finish(proc)
        return True

    def _wait_ready(self, proc: _Proc, entering: bool = False) -> bool:
        stmt = proc.program.statements[proc.pc]
        pred = stmt.predicate
        if isinstance(pred, WaitInit):
            return proc.has_init
        if isinstance(pred, WaitAnyOutput):
            return bool(proc.output_bits)
        if isinstance(pred, WaitDeadline):
            deadline = self.horizon if pred.step is None else pred.step
            if entering:
                proc.deadline = deadline
            return self.now >= deadline
        raise KernelError(f"unknown wait predicate {pred!r}")

    def _execute(self, proc: _Proc, stmt) -> None:
        if isinstance(stmt, Pick):
            value = self.choices.pick(proc.pid, proc.pick_counter, stmt.candidates)
            self.log(proc.pid, "pick", ctr=proc.pick_counter, value=value, stmt=proc.pc)
            proc.pick_counter += 1
            proc.locals[stmt.dest] = value
        elif isinstance(stmt, SetLocal):
            proc.locals[stmt.dest] = self._expr(proc, stmt.value)
            self.log(proc.pid, "step", stmt=proc.pc)
        elif isinstance(stmt, Output):
            value = self._expr(proc, stmt.value)
            if value not in (0, 1):
                raise KernelError(f"process {proc.pid} output non-bit {value!r}")
            if proc.output is not None:
                raise KernelError(f"process {proc.pid} output twice")
            proc.output = value
            self.log(proc.pid, "output", value=value, stmt=proc.pc)
        elif isinstance(stmt, Communicate):
            item = InfoItem(
                proc.pid, proc.emission_counter, stmt.tag, self._expr(proc, stmt.value)
            )
            proc.emission_counter += 1
            self.log(
                proc.pid, "communicate", index=item.index, tag=item.tag,
                value=item.value, stmt=proc.pc,
            )
            self.emit(item)
        elif isinstance(stmt, Wait):
            # Predicate already satisfied; for first-OUTPUT waits bind the
            # earliest observed OUTPUT value (arrival order).
            pred = stmt.predicate
            if isinstance(pred, WaitAnyOutput):
                first = next(i for i in proc.observed if i.tag == OUTPUT)
                proc.locals[pred.dest] = first.value
            proc.deadline = None
            self.log(proc.pid, "step", stmt=proc.pc)
        else:
            raise KernelError(f"unknown statement {stmt!r}")

    def emit(self, item: InfoItem) -> None:
        raise NotImplementedError

    def deliver(self, proc: _Proc, item: InfoItem) -> None:
        proc.observed.append(item)
        if item.tag == INIT:
            proc.has_init = True
        elif item.tag == OUTPUT:
            proc.output_bits.add(item.value)
        elif item.tag == PROPOSE:
            proc.propose_bits.add(item.value)
        self.log(
            proc.pid, "observe", sender=item.sender, index=item.index,
            tag=item.tag, value=item.value,
        )

    def finalize(self, termination: str) -> ExecutionTrace:
        outputs = tuple(p.output for p in self.procs)
        return ExecutionTrace(self.header, self.events, outputs, termination, self.record)


class _SyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, record):
        super().__init__(instance, cfg, choices, fp, SYNC_CANONICAL, 0, record)
        self.round_count = instance.round_count
        self.round_items: List[InfoItem] = []
        self.phase = COMM

    def emit(self, item: InfoItem) -> None:
        if self.phase != COMM:
            raise KernelError("communication outside a communication step")
        self.round_items.append(item)

    def _advance_phase(self, limit: Tuple[int, int]) -> None:
        for proc in self.procs:
            while proc.status == _RUNNING:
                if proc.pc >= len(proc.program.statements):
                    break
                stmt = proc.program.statements[proc.pc]
                if stmt.at is None:
                    raise KernelError("untagged statement in synchronous run")
                if isinstance(stmt, Wait):
                    raise KernelError("wait statement in synchronous run")
                if stmt.at > limit:
                    break
                self.step_proc(proc)

    def run(self) -> ExecutionTrace:
        for rnd in range(1, self.round_count + 1):
            self.now = 2 * (rnd - 1)
            self.round_items = []
            self.phase = COMM
            self._advance_phase((rnd, COMM))
            # Delivery barrier: everything communicated this round is observed
            # within the same communication step by every not-yet-crashed
            # process, before the computation step begins.
            for item in sorted(self.round_items, key=lambda i: i.sort_key):
                for proc in self.procs:
                    if proc.status != _CRASHED:
                        self.deliver(proc, item)
            self.now = 2 * (rnd - 1) + 1
            self.phase = COMP
            self._advance_phase((rnd, COMP))
        for proc in self.procs:
            if proc.status == _RUNNING and proc.pc < len(proc.program.statements):
                raise KernelError(
                    f"process {proc.pid} has statements beyond round {self.round_count}"
                )
        return self.finalize(ALL_DONE)


class _AsyncKernel(_Kernel):
    def __init__(self, instance, cfg, choices, fp, dp, horizon, record):
        super().__init__(instance, cfg, choices, fp, dp, horizon, record)
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

    def run(self) -> ExecutionTrace:
        self._drain()
        while True:
            deadlines = [
                p.deadline
                for p in self.procs
                if p.status == _BLOCKED and p.deadline is not None
            ]
            if not self.pending and not deadlines:
                if all(not p.alive() for p in self.procs):
                    return self.finalize(ALL_DONE)
                return self.finalize(QUIESCENT)
            next_step = min(
                list(self.pending.keys()) + deadlines
            )
            if next_step > self.horizon:
                return self.finalize(HORIZON)
            self.now = next_step
            # Deadline waiters wake before this step's deliveries land, so a
            # delivery scheduled exactly at the deadline is not yet visible
            # to the re-check the waiter performs on waking.
            for proc in self.procs:
                if (
                    proc.status == _BLOCKED
                    and proc.deadline is not None
                    and proc.deadline <= self.now
                ):
                    while self.step_proc(proc):
                        pass
            self._drain()


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


def validate_delay_pattern(
    instance, cfg: SystemConfig, dp: DelayPattern, horizon: int
) -> None:
    """Screen a delay pattern against an instance and horizon."""
    if dp.kind == "sync_canonical":
        return
    comm_counts = [p.communicate_count for p in instance.programs()]
    for sender, index, receiver, step in dp.entries:
        if not 1 <= sender <= cfg.n or not 1 <= receiver <= cfg.n:
            raise PreconditionError(
                f"delay pattern references unknown process in edge "
                f"({sender},{index},{receiver})"
            )
        if index >= comm_counts[sender - 1]:
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
    horizon: Optional[int] = None,
    record: bool = True,
    validate: bool = True,
) -> ExecutionTrace:
    """Execute one asynchronous run under an explicit delay pattern.

    ``validate=False`` skips the per-run delay pattern screening; callers
    using it must have screened the pattern against the same instance and
    horizon already (the explorer validates once per pattern set).
    """
    if cfg.timing is not Timing.ASYNC:
        raise PreconditionError("run_async requires an ASYNC configuration")
    _validate_common(instance, cfg, fp)
    horizon = default_horizon(cfg.n) if horizon is None else horizon
    if horizon < 1:
        raise PreconditionError("horizon must be >= 1")
    if validate:
        validate_delay_pattern(instance, cfg, dp, horizon)
    return _AsyncKernel(instance, cfg, choices, fp, dp, horizon, record).run()


def run(
    instance, cfg, choices, fp, dp=None, horizon=None, record=True, validate=True
) -> ExecutionTrace:
    """Dispatch on the configuration's timing model (SYNC takes only SYNC_CANONICAL)."""
    if cfg.timing is Timing.SYNC:
        if dp not in (None, SYNC_CANONICAL):
            raise PreconditionError("a SYNC run takes only the sync_canonical delay pattern")
        return run_sync(instance, cfg, choices, fp, record=record)
    dp = SYNC_CANONICAL if dp is None else dp
    return run_async(
        instance, cfg, choices, fp, dp, horizon=horizon, record=record,
        validate=validate,
    )


def replay(source) -> ExecutionTrace:
    """Re-execute a trace from its header alone (trace text or header dict)."""
    from . import algorithms  # deferred: algorithms depends on this module
    from .program import choices_from_descriptor

    header = _read_header(source)
    return run(
        algorithms.instance_from_descriptor(header["alg"]),
        SystemConfig.from_descriptor(header["cfg"]),
        choices_from_descriptor(header["choices"]),
        FailurePattern.from_descriptor(header["fp"]),
        DelayPattern.from_descriptor(header["dp"]),
        horizon=int(header["horizon"]),
    )


# ---------------------------------------------------------------------------
# Medium property audit.


def medium_check(trace: ExecutionTrace) -> List[str]:
    """Scan an event log for violations of the four medium properties.

    The kernel enforces the properties by construction; this is the
    independent auditor.  Violations are returned as data, one description
    per finding.  Horizon-truncated traces are rejected (their logs are not
    complete enough to audit liveness).
    """
    if trace.termination == HORIZON:
        raise PreconditionError("cannot audit a horizon-truncated trace")
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
