"""Independent brute-force interpreter for cross-checking the explorer.

Enumerates every failure pattern (no symmetry reduction), every pick
outcome and every interleaving of single delivery events (plus deadline
firings), with state deduplication.  Unlike the kernel it has no batched
delivery steps: any delivery order realizable by some asynchronous delay
assignment is explored.  Observed-set equality between this interpreter and
``checker.explore`` therefore cross-checks both the explorer's state search
and its exploring one failure pattern per symmetry orbit.

Deliberately re-implements statement and guard evaluation rather than
reusing the kernel's interpreter, so the two routes stay independent.  It
keeps its own per-process state for the tags it models: whether an ``INIT``
was observed, the ``OUTPUT`` and ``PROPOSE`` values observed, and the first
``OUTPUT`` value.  ``Observed(tag, value)`` guards and ``Wait(until, dest)``
statements read that state; a wait on ``Deadline()`` blocks until that
process's deadline fires, a move of its own in the search.  Any other tag,
atom or binding is rejected with ``TypeError`` rather than misread.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .outputsets import OutputSet, SystemConfig, Timing, output_set
from .patterns import FailurePattern, enum_failure_patterns
from .program import (
    COMM,
    COMP,
    Communicate,
    Deadline,
    Flip,
    HasOutput,
    LocalIs,
    LocalRef,
    Observed,
    Output,
    Pick,
    SetLocal,
    Wait,
    INIT,
    OUTPUT,
    PROPOSE,
)

_R, _B, _BD, _D, _C = 0, 1, 2, 3, 4  # running/blocked/deadline-blocked/done/crashed


class _Proc:
    __slots__ = (
        "pc",
        "status",
        "output",
        "locals",
        "has_init",
        "out_bits",
        "prop_bits",
        "first_out",
        "picks",
        "emitted",
        "deadline_passed",
    )

    def __init__(self, initial_locals):
        self.pc = 0
        self.status = _R
        self.output: Optional[int] = None
        self.locals: Dict[str, Optional[int]] = dict(initial_locals)
        self.has_init = False
        self.out_bits: Set[int] = set()
        self.prop_bits: Set[int] = set()
        self.first_out: Optional[int] = None
        self.picks = 0
        self.emitted = 0
        self.deadline_passed = False

    def clone(self) -> "_Proc":
        other = _Proc(())
        other.pc = self.pc
        other.status = self.status
        other.output = self.output
        other.locals = dict(self.locals)
        other.has_init = self.has_init
        other.out_bits = set(self.out_bits)
        other.prop_bits = set(self.prop_bits)
        other.first_out = self.first_out
        other.picks = self.picks
        other.emitted = self.emitted
        other.deadline_passed = self.deadline_passed
        return other

    def key(self):
        return (
            self.pc,
            self.status,
            self.output,
            tuple(sorted(self.locals.items())),
            self.has_init,
            tuple(sorted(self.out_bits)),
            tuple(sorted(self.prop_bits)),
            self.first_out,
            self.picks,
            self.emitted,
            self.deadline_passed,
        )


def _value(proc: _Proc, expr):
    if isinstance(expr, LocalRef):
        return proc.locals.get(expr.name)
    if isinstance(expr, Flip):
        return 1 ^ proc.locals[expr.name]
    return expr


def _holds(proc: _Proc, guard) -> bool:
    for atom in guard:
        if isinstance(atom, LocalIs):
            ok = proc.locals.get(atom.name) == atom.value
        elif isinstance(atom, Observed) and atom.tag == OUTPUT:
            ok = bool(proc.out_bits) if atom.value is None else atom.value in proc.out_bits
        elif isinstance(atom, Observed) and atom.tag == PROPOSE:
            ok = bool(proc.prop_bits) if atom.value is None else atom.value in proc.prop_bits
        elif isinstance(atom, Observed) and atom.tag == INIT and atom.value is None:
            ok = proc.has_init
        elif isinstance(atom, HasOutput):
            ok = proc.output is not None
        else:
            raise TypeError(f"unknown atom {atom!r}")
        if ok == atom.negate:
            return False
    return True


def _absorb(proc: _Proc, tag: str, value) -> None:
    if tag == INIT:
        proc.has_init = True
    elif tag == OUTPUT:
        if proc.first_out is None:
            proc.first_out = value
        proc.out_bits.add(value)
    elif tag == PROPOSE:
        proc.prop_bits.add(value)
    else:
        raise TypeError(f"unknown tag {tag!r}")


# ---------------------------------------------------------------------------
# Asynchronous side: interleaving exploration with state dedup.

# pending delivery: (receiver, sender, emission index, tag, value)
_Pending = FrozenSet[Tuple[int, int, int, str, Optional[int]]]


class _AsyncState:
    __slots__ = ("procs", "pending")

    def __init__(self, procs: List[_Proc], pending: Set[tuple]):
        self.procs = procs
        self.pending = pending

    def clone(self) -> "_AsyncState":
        return _AsyncState([p.clone() for p in self.procs], set(self.pending))

    def key(self):
        return (
            tuple(p.key() for p in self.procs),
            frozenset(self.pending),
        )

    def prune(self) -> None:
        self.pending = {
            d for d in self.pending if self.procs[d[0] - 1].status in (_R, _B, _BD)
        }


def _crash_slot(fp: FailurePattern, pid: int, program) -> int:
    slot = fp.slot_of(pid)
    if slot is None:
        return -1
    return min(slot, len(program.statements))


def _stabilize(state: _AsyncState, programs, slots) -> List[_AsyncState]:
    """Run every process to a block point; fork on each pick outcome."""
    results: List[_AsyncState] = []
    work = [state]
    while work:
        st = work.pop()
        forked = False
        progressed = True
        while progressed and not forked:
            progressed = False
            for pid, proc in enumerate(st.procs, start=1):
                program = programs[pid - 1]
                while True:
                    if proc.status != _R:
                        break
                    if proc.pc >= len(program.statements):
                        proc.status = _C if proc.pc == slots[pid - 1] else _D
                        st.prune()
                        progressed = True
                        break
                    if proc.pc == slots[pid - 1]:
                        proc.status = _C
                        st.prune()
                        progressed = True
                        break
                    stmt = program.statements[proc.pc]
                    if not _holds(proc, stmt.guard):
                        proc.pc += 1
                        progressed = True
                        continue
                    if isinstance(stmt, Pick):
                        for candidate in stmt.candidates:
                            branch = st.clone()
                            bproc = branch.procs[pid - 1]
                            bproc.locals[stmt.dest] = candidate
                            bproc.picks += 1
                            bproc.pc += 1
                            work.append(branch)
                        forked = True
                        break
                    if isinstance(stmt, Wait):
                        if isinstance(stmt.until, Deadline) and not stmt.until.negate:
                            if not proc.deadline_passed:
                                proc.status = _BD
                                break
                        elif not _holds(proc, (stmt.until,)):
                            proc.status = _B
                            break
                        if stmt.dest is not None:
                            if stmt.until.tag != OUTPUT:
                                raise TypeError(f"unmodelled binding wait {stmt!r}")
                            proc.locals[stmt.dest] = proc.first_out
                        proc.pc += 1
                        progressed = True
                        continue
                    if isinstance(stmt, SetLocal):
                        proc.locals[stmt.dest] = _value(proc, stmt.value)
                    elif isinstance(stmt, Output):
                        proc.output = _value(proc, stmt.value)
                    elif isinstance(stmt, Communicate):
                        item = (proc.emitted, stmt.tag, _value(proc, stmt.value))
                        proc.emitted += 1
                        for receiver in range(1, len(st.procs) + 1):
                            if st.procs[receiver - 1].status not in (_D, _C):
                                st.pending.add((receiver, pid) + item)
                    else:
                        raise TypeError(f"unknown statement {stmt!r}")
                    proc.pc += 1
                    progressed = True
                if forked:
                    break
        if not forked:
            st.prune()
            results.append(st)
    return results


def _async_sets(programs, fp: FailurePattern, n: int) -> Set[OutputSet]:
    slots = [_crash_slot(fp, pid, programs[pid - 1]) for pid in range(1, n + 1)]
    initial = _AsyncState(
        [_Proc(programs[pid - 1].initial_locals) for pid in range(1, n + 1)], set()
    )
    results: Set[OutputSet] = set()
    visited = set()
    stack = _stabilize(initial, programs, slots)
    while stack:
        st = stack.pop()
        key = st.key()
        if key in visited:
            continue
        visited.add(key)
        moves = []
        for delivery in st.pending:
            moves.append(("deliver", delivery))
        for pid, proc in enumerate(st.procs, start=1):
            if proc.status == _BD:
                moves.append(("deadline", pid))
        if not moves:
            results.add(output_set(tuple(p.output for p in st.procs)))
            continue
        for kind, arg in moves:
            nxt = st.clone()
            if kind == "deliver":
                receiver, _sender, _idx, tag, value = arg
                nxt.pending.discard(arg)
                proc = nxt.procs[receiver - 1]
                if proc.status in (_D, _C):
                    continue
                _absorb(proc, tag, value)
                if proc.status == _B:
                    proc.status = _R  # it re-runs its wait, which re-checks
            else:
                proc = nxt.procs[arg - 1]
                proc.deadline_passed = True
                proc.status = _R
            stack.extend(_stabilize(nxt, programs, slots))
    return results


# ---------------------------------------------------------------------------
# Synchronous side: lock-step simulation, forking on picks.


class _NeedPick(Exception):
    def __init__(self, pid, counter, candidates):
        self.pid = pid
        self.counter = counter
        self.candidates = candidates


def _sync_run(programs, fp, n, rounds, script) -> Tuple[Optional[int], ...]:
    procs = [_Proc(programs[pid - 1].initial_locals) for pid in range(1, n + 1)]
    slots = [_crash_slot(fp, pid, programs[pid - 1]) for pid in range(1, n + 1)]

    def walk(pid: int, proc: _Proc, limit, channel: List[tuple]) -> None:
        program = programs[pid - 1]
        while proc.status == _R:
            if proc.pc >= len(program.statements):
                proc.status = _C if proc.pc == slots[pid - 1] else _D
                return
            stmt = program.statements[proc.pc]
            if stmt.at > limit:
                return
            if proc.pc == slots[pid - 1]:
                proc.status = _C
                return
            if _holds(proc, stmt.guard):
                if isinstance(stmt, Pick):
                    try:
                        value = script[(pid, proc.picks)]
                    except KeyError:
                        raise _NeedPick(pid, proc.picks, stmt.candidates) from None
                    proc.picks += 1
                    proc.locals[stmt.dest] = value
                elif isinstance(stmt, SetLocal):
                    proc.locals[stmt.dest] = _value(proc, stmt.value)
                elif isinstance(stmt, Output):
                    proc.output = _value(proc, stmt.value)
                elif isinstance(stmt, Communicate):
                    channel.append((stmt.tag, _value(proc, stmt.value)))
                    proc.emitted += 1
                else:
                    raise TypeError(f"statement {stmt!r} illegal in lock-step run")
            proc.pc += 1

    for rnd in range(1, rounds + 1):
        channel: List[tuple] = []
        for pid, proc in enumerate(procs, start=1):
            walk(pid, proc, (rnd, COMM), channel)
        for tag, value in channel:
            for proc in procs:
                if proc.status != _C:
                    _absorb(proc, tag, value)
        for pid, proc in enumerate(procs, start=1):
            walk(pid, proc, (rnd, COMP), channel)
    return tuple(p.output for p in procs)


def _sync_sets(instance, programs, fp, n) -> Set[OutputSet]:
    results: Set[OutputSet] = set()
    scripts: List[dict] = [{}]
    while scripts:
        script = scripts.pop()
        try:
            outputs = _sync_run(programs, fp, n, instance.round_count, script)
        except _NeedPick as need:
            for candidate in need.candidates:
                forked = dict(script)
                forked[(need.pid, need.counter)] = candidate
                scripts.append(forked)
            continue
        results.add(output_set(outputs))
    return results


def observed_output_sets(instance, cfg: SystemConfig) -> FrozenSet[OutputSet]:
    """All output sets reachable over every (fp, picks, delivery order).

    Intended for desk-scale cross-checks (n <= 4); the state space grows
    quickly beyond that.
    """
    if not instance.bound or instance.n != cfg.n or instance.t != cfg.t:
        raise ValueError("instance must be bound to the configuration")
    if cfg.n > 4:
        raise ValueError("oracle is a desk-scale tool; use n <= 4")
    programs = instance.programs()
    slot_counts = [len(p.statements) + 1 for p in programs]
    results: Set[OutputSet] = set()
    for fp in enum_failure_patterns(cfg.n, cfg.t, slot_counts):
        if cfg.timing is Timing.SYNC:
            results |= _sync_sets(instance, programs, fp, cfg.n)
        else:
            results |= _async_sets(programs, fp, cfg.n)
    return frozenset(results)
