"""Independent brute-force interpreter for cross-checking the explorer.

Covers every failure pattern (no symmetry reduction), every pick outcome
and every interleaving of single delivery events (plus deadline firings)
in one search per cell, with one visited set.  A crash is a move: when a
process first reaches a statement, a fork crashes it there, while fewer
than t processes have crashed.  These forks give exactly the executions of
every failure pattern with at most t crashes; a crash after the last
statement is indistinguishable from finishing and is not offered.  Unlike
the kernel it has no batched delivery steps: any delivery order realizable
by some asynchronous delay assignment is explored.  A synchronous cell
runs in lock step, forks at each pick and deduplicates at round
boundaries.  Observed-set equality between this interpreter and
``checker.explore`` therefore cross-checks both the explorer's state search
and its exploring one failure pattern per symmetry orbit.

Deliberately re-implements statement and guard evaluation rather than
reusing the kernel's interpreter, so the two routes stay independent; it
imports nothing from ``simkernel``, ``checker`` or ``patterns``.  It keeps
its own per-process state for the tags it models: whether an ``INIT`` was
observed, the ``OUTPUT`` and ``PROPOSE`` values observed, and the first
``OUTPUT`` value.  ``Observed(tag, value)`` guards and ``Wait(until, dest)``
statements read that state; a wait on ``Deadline()`` blocks until that
process's deadline fires, a move of its own in the search.  Any other tag,
atom or binding is rejected with ``TypeError`` rather than misread.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from .outputsets import OutputSet, SystemConfig, Timing, output_set
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
        "emitted",
        "deadline_passed",
        "fresh",  # no crash fork offered yet at pc
        "id",  # the interned key, while unchanged
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
        self.emitted = 0
        self.deadline_passed = False
        self.fresh = True
        self.id: Optional[int] = None

    def clone(self) -> "_Proc":
        other = _Proc(self.locals)
        other.pc = self.pc
        other.status = self.status
        other.output = self.output
        other.has_init = self.has_init
        other.out_bits = set(self.out_bits)
        other.prop_bits = set(self.prop_bits)
        other.first_out = self.first_out
        other.emitted = self.emitted
        other.deadline_passed = self.deadline_passed
        other.fresh = self.fresh
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


class _State:
    """Processes shared copy-on-write with other states, pending async
    deliveries as a bitmask over the cell's items, the sync channel of the
    current phase, the crash count and the sync stage (two per round)."""

    __slots__ = ("procs", "pending", "channel", "crashed", "stage", "owned")

    def __init__(self, procs: List[_Proc], pending=0, channel=(), crashed=0, stage=0):
        self.procs = procs
        self.pending = pending
        self.channel = channel
        self.crashed = crashed
        self.stage = stage
        self.owned = 0  # bit i: procs[i] is referenced by no other state

    def fork(self, pid: int) -> "_State":
        """A copy owning a clone of process ``pid`` and sharing the rest."""
        other = _State(list(self.procs), self.pending, self.channel, self.crashed, self.stage)
        other.procs[pid] = self.procs[pid].clone()
        other.owned = 1 << pid
        self.owned &= 1 << pid
        return other

    def own(self, pid: int) -> _Proc:
        """Process ``pid``, cloned first if shared, about to be mutated."""
        proc = self.procs[pid]
        if self.owned >> pid & 1:
            proc.id = None
        else:
            proc = self.procs[pid] = proc.clone()
            self.owned |= 1 << pid
        return proc


class _Cell:
    """One depth-first search over a bound instance's executions."""

    def __init__(self, programs, t: int):
        self.programs = programs
        self.t = t
        self.stack = [_State([_Proc(p.initial_locals) for p in programs])]
        self.visited: Set[tuple] = set()
        self.results: Set[OutputSet] = set()
        self.ids: Dict[tuple, int] = {}  # process key -> small int
        self.bits: Dict[tuple, int] = {}  # pending item -> bit
        self.items: List[tuple] = []
        self.to: List[int] = [0] * len(programs)  # bits of items to each pid

    def first_visit(self, st: _State) -> bool:
        """Whether ``st`` is unvisited; marks it visited."""
        ids = []
        for proc in st.procs:
            if proc.id is None:
                proc.id = self.ids.setdefault(proc.key(), len(self.ids))
            ids.append(proc.id)
        key = (st.stage, tuple(ids), st.pending)
        if key in self.visited:
            return False
        self.visited.add(key)
        return True

    def stop(self, st: _State, pid: int, status: int) -> None:
        st.own(pid).status = status
        st.pending &= ~self.to[pid]

    def emit(self, st: _State, pid: int, item: tuple) -> None:
        for receiver, other in enumerate(st.procs):
            if other.status not in (_D, _C):
                entry = (receiver, pid) + item
                bit = self.bits.get(entry)
                if bit is None:
                    bit = self.bits[entry] = len(self.items)
                    self.items.append(entry)
                    self.to[receiver] |= 1 << bit
                st.pending |= 1 << bit

    def run(self, st: _State, pid: int, limit=None) -> bool:
        """Run ``pid`` until it blocks, finishes or (sync) reaches a
        statement after ``limit``.  Pushes a crash fork at each statement
        it reaches first and a fork per pick outcome; False when the pick
        forks replace ``st``."""
        statements = self.programs[pid].statements
        proc = st.procs[pid]
        while proc.status == _R:
            if proc.pc >= len(statements):
                self.stop(st, pid, _D)
                break
            stmt = statements[proc.pc]
            if limit is not None and stmt.at > limit:
                break
            proc = st.own(pid)
            if proc.fresh:
                proc.fresh = False
                if st.crashed < self.t:
                    crash = st.fork(pid)
                    crash.crashed += 1
                    self.stop(crash, pid, _C)
                    self.stack.append(crash)
            if not _holds(proc, stmt.guard):
                pass
            elif isinstance(stmt, Pick):
                for candidate in stmt.candidates:
                    branch = st.fork(pid)
                    bproc = branch.procs[pid]
                    bproc.locals[stmt.dest] = candidate
                    bproc.pc += 1
                    bproc.fresh = True
                    self.stack.append(branch)
                return False
            elif isinstance(stmt, Wait) and limit is None:
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
            elif isinstance(stmt, SetLocal):
                proc.locals[stmt.dest] = _value(proc, stmt.value)
            elif isinstance(stmt, Output):
                proc.output = _value(proc, stmt.value)
            elif isinstance(stmt, Communicate) and limit is None:
                self.emit(st, pid, (proc.emitted, stmt.tag, _value(proc, stmt.value)))
                proc.emitted += 1
            elif isinstance(stmt, Communicate):
                st.channel += ((stmt.tag, _value(proc, stmt.value)),)
            else:
                raise TypeError(f"unknown statement {stmt!r}")
            proc.pc += 1
            proc.fresh = True
        return True

    def search_async(self) -> None:
        """Run every process to a block point, then fork on each pending
        delivery and each deadline firing."""
        while self.stack:
            st = self.stack.pop()
            if not all(self.run(st, pid) for pid in range(len(st.procs))):
                continue
            if not self.first_visit(st):
                continue
            if not st.pending and all(p.status != _BD for p in st.procs):
                self.results.add(output_set(tuple(p.output for p in st.procs)))
            pending = st.pending
            while pending:
                low = pending & -pending
                pending ^= low
                receiver, _sender, _idx, tag, value = self.items[low.bit_length() - 1]
                nxt = st.fork(receiver)
                nxt.pending ^= low
                proc = nxt.procs[receiver]
                _absorb(proc, tag, value)
                if proc.status == _B:
                    proc.status = _R  # it re-runs its wait, which re-checks
                self.stack.append(nxt)
            for pid, proc in enumerate(st.procs):
                if proc.status == _BD:
                    nxt = st.fork(pid)
                    nxt.procs[pid].deadline_passed = True
                    nxt.procs[pid].status = _R
                    self.stack.append(nxt)

    def search_sync(self) -> None:
        """Walk every process through each phase in lock step, delivering
        the phase's channel to every process not crashed at its end, up to
        the last round any statement is tagged with."""
        rounds = max((s.at[0] for p in self.programs for s in p.statements), default=0)
        while self.stack:
            st = self.stack.pop()
            while st.stage < 2 * rounds:
                limit = (st.stage // 2 + 1, (COMM, COMP)[st.stage % 2])
                if not all(self.run(st, pid, limit) for pid in range(len(st.procs))):
                    break
                if st.channel:
                    for pid, proc in enumerate(st.procs):
                        if proc.status != _C:
                            proc = st.own(pid)
                            for tag, value in st.channel:
                                _absorb(proc, tag, value)
                    st.channel = ()
                st.stage += 1
                if st.stage % 2 == 0 and not self.first_visit(st):
                    break
            else:
                self.results.add(output_set(tuple(p.output for p in st.procs)))


def observed_output_sets(instance, cfg: SystemConfig) -> FrozenSet[OutputSet]:
    """All output sets reachable over every (fp, picks, delivery order).

    One search covers every failure pattern with at most t crashes, as
    crash moves, with no symmetry reduction.  Intended for desk-scale
    cross-checks (n <= 4); the state space grows quickly beyond that.
    """
    if not instance.bound or instance.n != cfg.n or instance.t != cfg.t:
        raise ValueError("instance must be bound to the configuration")
    if cfg.n > 4:
        raise ValueError("oracle is a desk-scale tool; use n <= 4")
    cell = _Cell(instance.programs(), cfg.t)
    if cfg.timing is Timing.SYNC:
        cell.search_sync()
    else:
        cell.search_async()
    return frozenset(cell.results)
