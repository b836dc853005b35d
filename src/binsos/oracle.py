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

A cell has thousands of global states but only a few dozen distinct
process states, so processes are interned: a search state holds small ids,
and each process state is stored once and never changed.  Every move of a
process is a deterministic function of its program and its state, so it is
computed once per cell and looked up afterwards: a run to the next block
point, as its ordered effects on the rest of the state, and each delivery,
deadline firing and channel absorb.  These are caches, not reductions: the
search visits exactly the states it would visit without them.

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
        "out_bits",  # bit v: OUTPUT value v observed
        "prop_bits",  # bit v: PROPOSE value v observed
        "first_out",
        "emitted",
        "deadline_passed",
        "fresh",  # no crash fork offered yet at pc
    )

    def __init__(self, initial_locals):
        self.pc = 0
        self.status = _R
        self.output: Optional[int] = None
        self.locals: Dict[str, Optional[int]] = dict(initial_locals)
        self.has_init = False
        self.out_bits = 0
        self.prop_bits = 0
        self.first_out: Optional[int] = None
        self.emitted = 0
        self.deadline_passed = False
        self.fresh = True

    def clone(self) -> "_Proc":
        other = _Proc(self.locals)
        other.pc = self.pc
        other.status = self.status
        other.output = self.output
        other.has_init = self.has_init
        other.out_bits = self.out_bits
        other.prop_bits = self.prop_bits
        other.first_out = self.first_out
        other.emitted = self.emitted
        other.deadline_passed = self.deadline_passed
        other.fresh = self.fresh
        return other

    def key(self):
        """Everything that determines this process's moves."""
        return (
            self.pc,
            self.status,
            self.output,
            tuple(sorted(self.locals.items())),
            self.has_init,
            self.out_bits,
            self.prop_bits,
            self.first_out,
            self.emitted,
            self.deadline_passed,
            self.fresh,
        )


def _value(proc: _Proc, expr):
    if isinstance(expr, LocalRef):
        return proc.locals.get(expr.name)
    if isinstance(expr, Flip):
        return 1 ^ proc.locals[expr.name]
    return expr


def _seen(bits: int, value) -> bool:
    return bits != 0 if value is None else bool(bits >> value & 1)


def _holds(proc: _Proc, guard) -> bool:
    for atom in guard:
        if isinstance(atom, LocalIs):
            ok = proc.locals.get(atom.name) == atom.value
        elif isinstance(atom, Observed) and atom.tag == OUTPUT:
            ok = _seen(proc.out_bits, atom.value)
        elif isinstance(atom, Observed) and atom.tag == PROPOSE:
            ok = _seen(proc.prop_bits, atom.value)
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
        proc.out_bits |= 1 << value
    elif tag == PROPOSE:
        proc.prop_bits |= 1 << value
    else:
        raise TypeError(f"unknown tag {tag!r}")


class _State:
    """The interned id of each process, pending async deliveries as a
    bitmask over the cell's items, the sync channel of the current phase,
    the crash count and the sync stage (two per round)."""

    __slots__ = ("procs", "pending", "channel", "crashed", "stage")

    def __init__(self, procs: List[int], pending=0, channel=(), crashed=0, stage=0):
        self.procs = procs
        self.pending = pending
        self.channel = channel
        self.crashed = crashed
        self.stage = stage

    def fork(self, pid: int, proc: int) -> "_State":
        """A copy in which process ``pid`` is the interned ``proc``."""
        other = _State(list(self.procs), self.pending, self.channel, self.crashed, self.stage)
        other.procs[pid] = proc
        return other


class _Cell:
    """One depth-first search over a bound instance's executions, with the
    cell's interned processes and the memo of their moves."""

    def __init__(self, programs, t: int):
        self.programs = programs
        self.t = t
        self.ids: Dict[tuple, int] = {}  # process key -> index into table
        self.table: List[_Proc] = []  # interned processes, never changed
        self.runs: Dict[tuple, tuple] = {}  # (pid, id, limit) -> (effects, end)
        self.moves: Dict[tuple, int] = {}  # (items or None, id) -> id
        self.stack = [_State([self.intern(_Proc(p.initial_locals)) for p in programs])]
        self.visited: Set[tuple] = set()
        self.results: Set[OutputSet] = set()
        self.bits: Dict[tuple, int] = {}  # pending item -> bit
        self.items: List[tuple] = []  # bit -> (receiver, items to absorb)
        self.to: List[int] = [0] * len(programs)  # bits of items to each pid

    def intern(self, proc: _Proc) -> int:
        """The id of ``proc``'s key; ``proc`` is stored if the key is new."""
        i = self.ids.setdefault(proc.key(), len(self.table))
        if i == len(self.table):
            self.table.append(proc)
        return i

    def first_visit(self, st: _State) -> bool:
        """Whether ``st`` is unvisited; marks it visited."""
        size = len(self.visited)
        self.visited.add((st.stage, tuple(st.procs), st.pending))
        return len(self.visited) > size

    def outputs(self, st: _State) -> OutputSet:
        return output_set(tuple(self.table[i].output for i in st.procs))

    def settle(self, st: _State, limit=None) -> bool:
        """Run each running process in pid order; False when pick forks
        replace ``st``."""
        for pid, i in enumerate(st.procs):
            if self.table[i].status == _R and not self.run(st, pid, limit):
                return False
        return True

    def moved(self, i: int, items) -> int:
        """Process ``i`` after absorbing ``items`` (a blocked one then re-runs
        its wait, which re-checks), or after its deadline fires (``None``)."""
        key = (items, i)
        j = self.moves.get(key)
        if j is None:
            proc = self.table[i].clone()
            if items is None:
                proc.deadline_passed = True
            for tag, value in items or ():
                _absorb(proc, tag, value)
            if items is None or proc.status == _B:
                proc.status = _R
            j = self.moves[key] = self.intern(proc)
        return j

    def emit(self, st: _State, pid: int, item: tuple) -> None:
        for receiver, i in enumerate(st.procs):
            if self.table[i].status < _D:
                entry = (receiver, pid) + item
                bit = self.bits.get(entry)
                if bit is None:
                    bit = self.bits[entry] = len(self.items)
                    self.items.append((receiver, (item[1:],)))
                    self.to[receiver] |= 1 << bit
                st.pending |= 1 << bit

    def run(self, st: _State, pid: int, limit=None) -> bool:
        """Run ``pid`` until it blocks, finishes or (sync) reaches a
        statement after ``limit``, applying the run's effects to ``st`` in
        order: a crash offer pushes a crash fork while fewer than t have
        crashed, an emit (async) reaches the processes neither done nor
        crashed, a send (sync) joins the channel and a stop drops what is
        pending to ``pid``.  False when pick forks replace ``st``."""
        key = (pid, st.procs[pid], limit)
        memo = self.runs.get(key)
        if memo is None:
            memo = self.runs[key] = self.compute_run(pid, st.procs[pid], limit)
        effects, end = memo
        for effect in effects:
            if effect is None:  # a stop
                st.pending &= ~self.to[pid]
            elif type(effect) is int:  # a crash offer: the crashed id
                if st.crashed < self.t:
                    crash = st.fork(pid, effect)
                    crash.crashed += 1
                    crash.pending &= ~self.to[pid]
                    self.stack.append(crash)
            elif limit is None:
                self.emit(st, pid, effect)
            else:
                st.channel += (effect,)
        if type(end) is int:
            st.procs[pid] = end
            return True
        self.stack.extend(st.fork(pid, branch) for branch in end)
        return False

    def compute_run(self, pid: int, i: int, limit):
        """The effects of running process ``i`` as ``pid`` (see ``run``),
        with its end id, or the ids of its pick branches."""
        statements = self.programs[pid].statements
        proc = self.table[i].clone()
        effects: list = []
        while proc.status == _R:
            if proc.pc >= len(statements):
                proc.status = _D
                effects.append(None)
                break
            stmt = statements[proc.pc]
            if limit is not None and stmt.at > limit:
                break
            if proc.fresh:
                proc.fresh = False
                crash = proc.clone()
                crash.status = _C
                effects.append(self.intern(crash))
            if not _holds(proc, stmt.guard):
                pass
            elif isinstance(stmt, Pick):
                branches = []
                for candidate in stmt.candidates:
                    branch = proc.clone()
                    branch.locals[stmt.dest] = candidate
                    branch.pc += 1
                    branch.fresh = True
                    branches.append(self.intern(branch))
                return effects, tuple(branches)
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
                effects.append((proc.emitted, stmt.tag, _value(proc, stmt.value)))
                proc.emitted += 1
            elif isinstance(stmt, Communicate):
                effects.append((stmt.tag, _value(proc, stmt.value)))
            else:
                raise TypeError(f"unknown statement {stmt!r}")
            proc.pc += 1
            proc.fresh = True
        return effects, self.intern(proc)

    def search_async(self) -> None:
        """Run every process to a block point, then fork on each pending
        delivery and each deadline firing."""
        while self.stack:
            st = self.stack.pop()
            if not self.settle(st):
                continue
            if not self.first_visit(st):
                continue
            statuses = [self.table[i].status for i in st.procs]
            if not st.pending and _BD not in statuses:
                self.results.add(self.outputs(st))
            pending = st.pending
            while pending:
                low = pending & -pending
                pending ^= low
                receiver, items = self.items[low.bit_length() - 1]
                nxt = st.fork(receiver, self.moved(st.procs[receiver], items))
                nxt.pending ^= low
                self.stack.append(nxt)
            for pid, status in enumerate(statuses):
                if status == _BD:
                    self.stack.append(st.fork(pid, self.moved(st.procs[pid], None)))

    def search_sync(self) -> None:
        """Walk every process through each phase in lock step, delivering
        the phase's channel to every process not crashed at its end, up to
        the last round any statement is tagged with."""
        rounds = max((s.at[0] for p in self.programs for s in p.statements), default=0)
        while self.stack:
            st = self.stack.pop()
            while st.stage < 2 * rounds:
                limit = (st.stage // 2 + 1, (COMM, COMP)[st.stage % 2])
                if not self.settle(st, limit):
                    break
                if st.channel:
                    for pid, i in enumerate(st.procs):
                        if self.table[i].status != _C:
                            st.procs[pid] = self.moved(i, st.channel)
                    st.channel = ()
                st.stage += 1
                if st.stage % 2 == 0 and not self.first_visit(st):
                    break
            else:
                self.results.add(self.outputs(st))


def observed_output_sets(instance, cfg: SystemConfig) -> FrozenSet[OutputSet]:
    """All output sets reachable over every (fp, picks, delivery order).

    One search covers every failure pattern with at most t crashes, as
    crash moves, with no symmetry reduction.  Intended for cross-checks up
    to n = 5; the state space grows quickly beyond that.
    """
    if not instance.bound or instance.n != cfg.n or instance.t != cfg.t:
        raise ValueError("instance must be bound to the configuration")
    if cfg.n > 5:
        raise ValueError("oracle is a cross-check tool; use n <= 5")
    cell = _Cell(instance.programs(), cfg.t)
    if cfg.timing is Timing.SYNC:
        cell.search_sync()
    else:
        cell.search_async()
    return frozenset(cell.results)
