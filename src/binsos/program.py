"""Guarded step programs and deterministic choice streams.

A process's code is a flat sequence of guarded statements over the kernel
primitives: pick a pseudo-random value, communicate an item, output a value,
or wait until an atom holds.  Guards are conjunctions of atoms over the
process's locals, its own output, its observation set and the horizon.

A process observes items as (tag, value) pairs.  ``Observed(tag)`` holds once
some item with that tag has been observed, ``Observed(tag, value)`` once one
with that tag and value has; ``Deadline()`` holds once the run has reached
its horizon.  ``Wait(until, dest)`` blocks until the atom ``until`` holds;
with a ``dest`` it then binds the value of the first item observed with the
awaited tag.  Tags are plain strings: only the builders in ``algorithms``
give them meaning, and the constants below are the vocabulary they use.

Synchronous programs additionally tag every statement with the (round,
phase) in which it runs; asynchronous programs are untagged straight-line
code.

Crash positions are statement boundaries: a failure pattern naming slot k for
a process makes it halt when it is about to execute statement k, so "just
before its output" and "just after it communicated" are both expressible.
``Program.crash_slots`` names the few of them that other processes can tell
apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple, Union

from .outputsets import Value, _descriptor_fields

# Information item tags (the wire vocabulary of all six algorithms).
INIT = "INIT"
OUTPUT = "OUTPUT"
PROPOSE = "PROPOSE"

# Phases of a synchronous round.
COMM = 0  # communication step
COMP = 1  # computation step

#: (round, phase) tag for synchronous statements; None in asynchronous code.
SyncTag = Optional[Tuple[int, int]]


class PreconditionError(Exception):
    """Inputs rejected before execution (bad pattern, timing mismatch...)."""


# ---------------------------------------------------------------------------
# Expressions: a statement operand is a constant, a local, or a flipped local.


@dataclass(frozen=True)
class LocalRef:
    name: str


@dataclass(frozen=True)
class Flip:
    """One's complement of a bit-valued local."""

    name: str


Expr = Union[int, None, LocalRef, Flip]


# ---------------------------------------------------------------------------
# Guard atoms.  A guard is a tuple of atoms, all of which must hold.


@dataclass(frozen=True)
class LocalIs:
    name: str
    value: Value
    negate: bool = False


@dataclass(frozen=True)
class Observed:
    """True once an item tagged ``tag`` has been observed; with a ``value``
    other than None, once one with that tag and value has."""

    tag: str
    value: Value = None
    negate: bool = False


@dataclass(frozen=True)
class HasOutput:
    """True once the process itself has output a value."""

    negate: bool = False


@dataclass(frozen=True)
class Deadline:
    """True once the run has reached its horizon (always, in a sync run)."""

    negate: bool = False


GuardAtom = Union[LocalIs, Observed, HasOutput, Deadline]
Guard = Tuple[GuardAtom, ...]


# ---------------------------------------------------------------------------
# Statements.


@dataclass(frozen=True)
class Pick:
    dest: str
    candidates: Tuple[Value, ...]
    guard: Guard = ()
    at: SyncTag = None


@dataclass(frozen=True)
class SetLocal:
    dest: str
    value: Expr
    guard: Guard = ()
    at: SyncTag = None


@dataclass(frozen=True)
class Communicate:
    tag: str
    value: Expr = None
    guard: Guard = ()
    at: SyncTag = None


@dataclass(frozen=True)
class Output:
    value: Expr
    guard: Guard = ()
    at: SyncTag = None


@dataclass(frozen=True)
class Wait:
    """Block until ``until`` holds (asynchronous programs only).

    With ``dest``, ``until`` is an ``Observed`` atom, and ``dest`` is bound to
    the value of the first item observed with its tag.  Ties within one
    delivery batch resolve by (sender index, payload bit).
    """

    until: GuardAtom
    dest: Optional[str] = None
    guard: Guard = ()
    at: SyncTag = None


Statement = Union[Pick, SetLocal, Communicate, Output, Wait]


@dataclass(frozen=True)
class Program:
    """One process's code: an ordered tuple of guarded statements."""

    statements: Tuple[Statement, ...] = ()
    initial_locals: Tuple[Tuple[str, Value], ...] = ()

    def __post_init__(self) -> None:
        tags = [s.at for s in self.statements]
        if any(t is None for t in tags) and any(t is not None for t in tags):
            raise ValueError("program mixes tagged and untagged statements")
        if not tags or tags[0] is None:
            return
        if sorted(tags) != tags:
            raise ValueError("synchronous statements must be (round, phase)-sorted")
        for stmt in self.statements:
            if isinstance(stmt, Wait):
                raise ValueError("synchronous programs cannot wait")
            if isinstance(stmt, Communicate) and stmt.at[1] != COMM:
                raise ValueError(f"communication tagged {stmt.at} is outside a COMM step")

    @property
    def is_sync(self) -> bool:
        return bool(self.statements) and self.statements[0].at is not None

    @property
    def communicate_count(self) -> int:
        return sum(1 for s in self.statements if isinstance(s, Communicate))

    @property
    def slot_count(self) -> int:
        """Number of crash positions: before each statement plus after the last."""
        return len(self.statements) + 1

    @property
    def crash_slots(self) -> Tuple[int, ...]:
        """The crash positions others can tell apart: slot 0 and the slot
        right after each effect (an ``Output`` or a ``Communicate``) but the
        last.  Each stands for its stretch of slots up to the next effect; a
        crash after the last effect is no crash at all (see ``explore``)."""
        effects = [
            k for k, s in enumerate(self.statements) if isinstance(s, (Output, Communicate))
        ]
        return tuple([0] + [k + 1 for k in effects[:-1]]) if effects else ()

    @cached_property
    def relevant_tags(self) -> Tuple[FrozenSet[str], ...]:
        """Entry k: the tags that statements k, k+1, ... read, as an
        ``Observed`` guard atom or awaited atom.  The entry past the last
        statement is empty.  Computed once per program."""
        table = [frozenset()]
        for stmt in reversed(self.statements):
            atoms = stmt.guard + ((stmt.until,) if isinstance(stmt, Wait) else ())
            table.append(table[-1] | {a.tag for a in atoms if isinstance(a, Observed)})
        return tuple(reversed(table))


# ---------------------------------------------------------------------------
# Choice streams: the deterministic realization of pseudo_random_pick.


class ChoiceNeeded(Exception):
    """Raised by a scripted stream when an unscripted pick site is reached."""

    def __init__(self, pid: int, counter: int, candidates: Tuple[Value, ...]):
        super().__init__(f"unscripted pick at pid={pid} counter={counter}")
        self.pid = pid
        self.counter = counter
        self.candidates = candidates


class ChoiceStream:
    """Deterministic total function (pid, counter, candidates) -> value."""

    def pick(self, pid: int, counter: int, candidates: Tuple[Value, ...]) -> Value:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError


_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class SeededChoices(ChoiceStream):
    """Counter-based mix of (seed, pid, counter); platform-independent."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        # A seed outside 64 bits would alias one inside under another header.
        if not 0 <= self.seed <= _M64:
            raise ValueError(f"choice seed {self.seed} is outside 0..2**64-1")
        self._base = _splitmix64(self.seed)

    def pick(self, pid: int, counter: int, candidates: Tuple[Value, ...]) -> Value:
        z = _splitmix64(self._base ^ (pid * 0xA076_1D64_78BD_642F) & _M64)
        z = _splitmix64(z ^ (counter * 0xE703_7ED1_A0B4_28DB) & _M64)
        return candidates[z % len(candidates)]

    def describe(self) -> Dict[str, object]:
        return {"mode": "seed", "seed": self.seed}


class ScriptedChoices(ChoiceStream):
    """Explicit (pid, counter) -> value map; strict on unscripted sites.

    Sync ``explore`` catches ChoiceNeeded, forks one extended script per
    candidate and restarts, which enumerates every pick outcome reachable
    under the given failure pattern.  ``search_async`` instead forks its
    kernel state on ChoiceNeeded, and returns the picks of each output set
    it reaches as a script for the recorded rerun.
    """

    def __init__(self, picks: Optional[Dict[Tuple[int, int], Value]] = None):
        self.picks = dict(picks or {})

    def pick(self, pid: int, counter: int, candidates: Tuple[Value, ...]) -> Value:
        try:
            value = self.picks[(pid, counter)]
        except KeyError:
            raise ChoiceNeeded(pid, counter, candidates) from None
        if value not in candidates:
            raise ValueError(
                f"scripted value {value!r} not among candidates at "
                f"pid={pid} counter={counter}"
            )
        return value

    def describe(self) -> Dict[str, object]:
        picks = sorted(
            [pid, ctr, val] for (pid, ctr), val in self.picks.items()
        )
        return {"mode": "script", "picks": picks}


def choices_from_descriptor(d: Dict[str, object]) -> ChoiceStream:
    mode = _descriptor_fields(d, "choices", mode=str, seed=None, picks=None)["mode"]
    if mode == "seed":
        return SeededChoices(_descriptor_fields(d, "choices", mode=str, seed=int)["seed"])
    if mode == "script":
        picks = _descriptor_fields(d, "choices", mode=str, picks=list)["picks"]
        if not all(
            isinstance(row, list) and len(row) == 3 and type(row[0]) is type(row[1]) is int
            for row in picks
        ):
            raise ValueError("choices picks must be a list of [pid, counter, value] rows")
        script: Dict[Tuple[int, int], Value] = {}
        for pid, counter, value in picks:
            if (pid, counter) in script:
                raise ValueError(f"choices picks repeat (pid={pid}, counter={counter})")
            script[(pid, counter)] = value
        return ScriptedChoices(script)
    raise ValueError(f"unknown choice mode: {mode!r}")
