"""Combinatorics of binary output sets and the 16-line solvability table.

Everything here is pure and immutable: the four possible output sets of a
binary-output execution, the 16 families of output sets an algorithm can
implement, and the tight (n, t) condition attached to each family under each
timing model.  Conditions are kept in cleared-denominator integer form so no
floating point is involved anywhere.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Sentinel for "no output" (the bottom element of the output alphabet).
BOT = None

Value = Optional[int]  # 0, 1 or BOT


class Timing(enum.Enum):
    """Timing model of the system."""

    ASYNC = "async"
    SYNC = "sync"

    def __str__(self) -> str:
        return self.value


class OutputSet(enum.Enum):
    """One of the four sets of distinct values an execution can output."""

    EMPTY = 0
    ZERO = 1
    ONE = 2
    BOTH = 3

    @property
    def values(self) -> FrozenSet[int]:
        return _OUTPUT_SET_VALUES[self]

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return _OUTPUT_SET_NAMES[self]


_OUTPUT_SET_VALUES: Dict[OutputSet, FrozenSet[int]] = {
    OutputSet.EMPTY: frozenset(),
    OutputSet.ZERO: frozenset({0}),
    OutputSet.ONE: frozenset({1}),
    OutputSet.BOTH: frozenset({0, 1}),
}

_OUTPUT_SET_NAMES = {
    OutputSet.EMPTY: "{}",
    OutputSet.ZERO: "{0}",
    OutputSet.ONE: "{1}",
    OutputSet.BOTH: "{0,1}",
}

#: A set of output sets: any of the 16 subsets of the four OutputSet values.
SetOfOutputSets = FrozenSet[OutputSet]


def sos(*members: OutputSet) -> SetOfOutputSets:
    return frozenset(members)


def output_set(vector: Iterable[Value]) -> OutputSet:
    """Set of distinct non-BOT values in an output vector."""
    seen = {v for v in vector if v is not None}
    if not seen <= {0, 1}:
        raise ValueError(f"non-binary output values: {sorted(seen)}")
    if seen == {0, 1}:
        return OutputSet.BOTH
    if seen == {0}:
        return OutputSet.ZERO
    if seen == {1}:
        return OutputSet.ONE
    return OutputSet.EMPTY


def sos_mask(s: SetOfOutputSets) -> int:
    """4-bit mask keyed in ({}, {0}, {1}, {0,1}) bit order."""
    mask = 0
    for member in s:
        mask |= 1 << member.value
    return mask


def sos_str(s: SetOfOutputSets) -> str:
    members = sorted(s, key=lambda m: m.value)
    return "{" + ", ".join(str(m) for m in members) + "}"


# The 16 families, in table order.  Row k lists exactly the output sets the
# family allows; rows 1-15 are implementable under their condition, row 16
# (the empty family) is unsolvable by definition.
_LINE_MEMBERS: Dict[int, SetOfOutputSets] = {
    1: sos(OutputSet.EMPTY, OutputSet.ZERO, OutputSet.ONE, OutputSet.BOTH),
    2: sos(OutputSet.ZERO, OutputSet.ONE, OutputSet.BOTH),
    3: sos(OutputSet.EMPTY, OutputSet.ONE, OutputSet.BOTH),
    4: sos(OutputSet.ONE, OutputSet.BOTH),
    5: sos(OutputSet.EMPTY, OutputSet.ZERO, OutputSet.BOTH),
    6: sos(OutputSet.ZERO, OutputSet.BOTH),
    7: sos(OutputSet.EMPTY, OutputSet.BOTH),
    8: sos(OutputSet.BOTH),
    9: sos(OutputSet.EMPTY, OutputSet.ZERO, OutputSet.ONE),
    10: sos(OutputSet.ZERO, OutputSet.ONE),
    11: sos(OutputSet.EMPTY, OutputSet.ONE),
    12: sos(OutputSet.ONE),
    13: sos(OutputSet.EMPTY, OutputSet.ZERO),
    14: sos(OutputSet.ZERO),
    15: sos(OutputSet.EMPTY),
    16: sos(),
}

_LINE_BY_MASK: Dict[int, int] = {sos_mask(m): k for k, m in _LINE_MEMBERS.items()}

LINES = tuple(range(1, 17))


def line_members(line: int) -> SetOfOutputSets:
    """Output sets allowed by table line 1..16."""
    try:
        return _LINE_MEMBERS[line]
    except KeyError:
        raise ValueError(f"line out of range: {line}") from None


def classify_line(s: SetOfOutputSets) -> int:
    """Unique table line whose allowed/forbidden pattern equals ``s``."""
    return _LINE_BY_MASK[sos_mask(frozenset(s))]


@dataclass(frozen=True)
class SystemConfig:
    """System configuration: process count, crash bound and timing model."""

    n: int
    t: int
    timing: Timing

    def __post_init__(self) -> None:
        if not (0 <= self.t <= self.n):
            raise ValueError(f"need 0 <= t <= n, got n={self.n}, t={self.t}")


def _descriptor_fields(d: object, what: str, **types: Optional[type]) -> Dict[str, object]:
    """``d`` if it is a JSON object with no field but the named ones, each
    present with its given type; a field named with type None is optional,
    and its reader checks it.  Otherwise a ValueError naming ``what`` and the
    missing, malformed or undeclared field."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object with {', '.join(map(repr, types))}")
    for name, kind in types.items():
        if kind is None:
            continue
        if name not in d:
            raise ValueError(f"{what} lacks {name!r}")
        if type(d[name]) is not kind:
            raise ValueError(f"{what} {name} {d[name]!r} must be {kind.__name__}")
    undeclared = [name for name in d if name not in types]
    if undeclared:
        raise ValueError(f"{what} has the undeclared key {undeclared[0]!r}")
    return d


def _compact_encoder() -> Callable[[object], str]:
    """``json.JSONEncoder(sort_keys=True, separators=(",", ":"),
    check_circular=False).encode`` with its C encoder built once: ``encode``
    builds one on every call, which costs more than encoding a trace's
    header.  ``encode`` itself where the interpreter has no C encoder or
    builds it from other arguments.  Without the check, a cycle raises
    RecursionError; nothing the kernel writes has one."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    try:
        iterencode = json.encoder.c_make_encoder(
            None, encoder.default, json.encoder.encode_basestring_ascii, None,
            ":", ",", True, False, True,
        )
    except TypeError:  # c_make_encoder is None, or takes other arguments
        return encoder.encode
    return lambda o: "".join(iterencode(o, 0))


#: The encoder of every JSON record written whole: sorted keys, no spaces.
_dumps = _compact_encoder()


def _read_json(text: str, what: str) -> object:
    """The JSON value in ``text``; a ValueError naming ``what`` if the text is
    not JSON, is nested too deeply to read, or an object in it repeats a key."""

    def unique_keys(pairs: List[Tuple[str, object]]) -> Dict[str, object]:
        obj: Dict[str, object] = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{what} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


# Primitive comparisons over (n, t).  The strict rational bound n > (3/2)t+1
# is stored with the denominator cleared: 2n > 3t+2.
_ATOM_FNS: Dict[str, Callable[[int, int], bool]] = {
    "n>=t": lambda n, t: n >= t,
    "n>t": lambda n, t: n > t,
    "n>=t+2": lambda n, t: n >= t + 2,
    "2n>3t+2": lambda n, t: 2 * n > 3 * t + 2,
    "t=0": lambda n, t: t == 0,
    "n>=0": lambda n, t: n >= 0,
    "n>=1": lambda n, t: n >= 1,
    "n>=2": lambda n, t: n >= 2,
    "false": lambda n, t: False,
}


@dataclass(frozen=True)
class Condition:
    """Conjunction of integer comparisons over (n, t); total predicate."""

    atoms: Tuple[str, ...]

    def __post_init__(self) -> None:
        for atom in self.atoms:
            if atom not in _ATOM_FNS:
                raise ValueError(f"unknown condition atom: {atom!r}")

    def holds(self, n: int, t: int) -> bool:
        return all(_ATOM_FNS[a](n, t) for a in self.atoms)

    def __str__(self) -> str:
        return " and ".join(self.atoms)


_CONDITIONS: Dict[Tuple[int, Timing], Condition] = {}
for _line, _async_atoms, _sync_atoms in [
    (1, ("n>=t", "n>=2"), None),
    (2, ("n>t", "n>=2"), None),
    (3, ("n>=t", "n>=2"), None),
    (4, ("n>t", "n>=2"), None),
    (5, ("n>=t", "n>=2"), None),
    (6, ("n>t", "n>=2"), None),
    (7, ("2n>3t+2", "n>=2"), ("n>=t+2", "n>=2")),
    (8, ("2n>3t+2", "n>=2"), ("n>=t+2", "n>=2")),
    (9, ("n>=t", "n>=1"), None),
    (10, ("t=0", "n>=1"), ("n>t", "n>=1")),
    (11, ("n>=t", "n>=1"), None),
    (12, ("n>t", "n>=1"), None),
    (13, ("n>=t", "n>=1"), None),
    (14, ("n>t", "n>=1"), None),
    (15, ("n>=t", "n>=0"), None),
    (16, ("false",), None),
]:
    _CONDITIONS[(_line, Timing.ASYNC)] = Condition(_async_atoms)
    _CONDITIONS[(_line, Timing.SYNC)] = Condition(
        _sync_atoms if _sync_atoms is not None else _async_atoms
    )


def tight_condition(line: int, timing: Timing) -> Condition:
    """Tight solvability condition of a table line under a timing model.

    Line 16 yields the always-false predicate (that family is unsolvable).
    """
    if line not in range(1, 17):
        raise ValueError(f"line out of range: {line}")
    return _CONDITIONS[(line, timing)]


def observation1_bounds(s: SetOfOutputSets) -> Tuple[int, int]:
    """Counting bounds implied by a non-empty family of output sets.

    Returns ``(min required n, min required n - t)``: the system needs at
    least as many processes as the largest member set, and at least as many
    guaranteed-correct processes as the smallest member set.
    """
    if not s:
        raise ValueError("empty set of output sets has no bounds")
    cards = [m.cardinality for m in s]
    return max(cards), min(cards)


def condition_table() -> List[Dict[str, object]]:
    """Machine-readable rendering of the full table: 16 lines x 2 timings."""
    rows = []
    for line in LINES:
        for timing in (Timing.ASYNC, Timing.SYNC):
            rows.append(
                {
                    "line": line,
                    "members_mask": sos_mask(line_members(line)),
                    "members": sos_str(line_members(line)),
                    "timing": timing.value,
                    "condition": str(tight_condition(line, timing)),
                }
            )
    return rows
