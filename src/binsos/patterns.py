"""Failure patterns and communication-delay patterns.

Failure patterns map crashed processes to statement-boundary crash slots.
Delay patterns map each potentially emitted item, per receiver, to the
logical step at which it is delivered.  The asynchronous delay space is
infinite; exploration restricts it to a 3-point lattice per (item, receiver)
edge -- immediate, mid-horizon, and at-horizon -- which covers the delivery
order distinctions the algorithms can branch on.  Every generated pattern
delivers every item to every receiver by the horizon, so global termination
of the medium holds by construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: A potential emission slot: (sender pid, emission ordinal within sender).
EmissionSlot = Tuple[int, int]


@dataclass(frozen=True)
class FailurePattern:
    """Which processes crash, and at which statement boundary."""

    crashes: Tuple[Tuple[int, int], ...] = ()  # sorted (pid, slot) pairs

    def __post_init__(self) -> None:
        pids = [pid for pid, _ in self.crashes]
        if sorted(pids) != pids or len(set(pids)) != len(pids):
            raise ValueError("crashes must be sorted by pid and unique")
        if any(slot < 0 for _, slot in self.crashes):
            raise ValueError("crash slots must be non-negative")

    @staticmethod
    def of(crashes: Dict[int, int]) -> "FailurePattern":
        return FailurePattern(tuple(sorted(crashes.items())))

    @property
    def f(self) -> int:
        return len(self.crashes)

    def slot_of(self, pid: int) -> Optional[int]:
        for p, slot in self.crashes:
            if p == pid:
                return slot
        return None

    def describe(self) -> Dict[str, object]:
        return {"crashes": [[pid, slot] for pid, slot in self.crashes]}

    @staticmethod
    def from_descriptor(d: Dict[str, object]) -> "FailurePattern":
        if not isinstance(d, dict) or not isinstance(d.get("crashes"), list):
            raise ValueError("failure pattern needs a 'crashes' list of [pid, slot] pairs")
        crashes: Dict[int, int] = {}
        for pair in d["crashes"]:
            pid, slot = _int_row(pair, 2, "failure pattern crash")
            if pid in crashes:
                raise ValueError(f"failure pattern crashes process {pid} twice")
            crashes[pid] = slot
        return FailurePattern.of(crashes)


def _int_row(row: object, size: int, what: str) -> Tuple[int, ...]:
    """A JSON list of ``size`` integers, or a ValueError naming ``what``."""
    if not (
        isinstance(row, list)
        and len(row) == size
        and all(isinstance(x, int) for x in row)
    ):
        raise ValueError(f"{what} {row!r} must be a list of {size} integers")
    return tuple(row)


NO_CRASHES = FailurePattern()


def _slot_counts(n: int, program_slots: Union[int, Sequence[int]]) -> List[int]:
    if isinstance(program_slots, int):
        if program_slots < 1:
            raise ValueError("program_slots must be >= 1")
        return [program_slots] * n
    counts = list(program_slots)
    if len(counts) != n:
        raise ValueError(f"expected {n} slot counts, got {len(counts)}")
    return counts


def enum_failure_patterns(
    n: int, t: int, program_slots: Union[int, Sequence[int]]
) -> Iterator[FailurePattern]:
    """All patterns with f <= t crashes over every combination of slots.

    ``program_slots`` is either one slot count for every process or a
    per-process sequence (index 0 is process 1).  The stream has exactly
    sum over f of C(n, f) * slots^f patterns in the uniform case.
    """
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    counts = _slot_counts(n, program_slots) if n else []
    for f in range(t + 1):
        for pids in itertools.combinations(range(1, n + 1), f):
            slot_ranges = [range(counts[pid - 1]) for pid in pids]
            for slots in itertools.product(*slot_ranges):
                yield FailurePattern(tuple(zip(pids, slots)))


def sample_failure_pattern(
    rng: random.Random, n: int, t: int, program_slots: Union[int, Sequence[int]]
) -> FailurePattern:
    counts = _slot_counts(n, program_slots) if n else []
    f = rng.randint(0, t)
    pids = sorted(rng.sample(range(1, n + 1), f))
    return FailurePattern(
        tuple((pid, rng.randrange(counts[pid - 1])) for pid in pids)
    )


@dataclass(frozen=True)
class DelayPattern:
    """Delivery step for each (emission slot, receiver) edge.

    ``entries`` maps (sender, emission index, receiver) to a step in 0..H;
    edges not listed fall back to ``default`` (a strict pattern with
    ``default=None`` rejects unknown edges at run time).  The special
    ``sync_canonical`` kind is the unique same-round pattern of synchronous
    systems; applied to an asynchronous run it behaves as all-immediate.
    """

    kind: str = "map"  # "map" | "sync_canonical"
    entries: Tuple[Tuple[int, int, int, int], ...] = ()  # (sender, idx, recv, step)
    default: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.kind not in ("map", "sync_canonical"):
            raise ValueError(f"unknown delay pattern kind: {self.kind!r}")
        keys = [(s, i, r) for s, i, r, _ in self.entries]
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("entries must be sorted and unique per edge")
        if any(step < 0 for *_, step in self.entries):
            raise ValueError("delivery steps must be non-negative")

    @staticmethod
    def of(
        entries: Dict[Tuple[int, int, int], int], default: Optional[int] = 0
    ) -> "DelayPattern":
        flat = tuple(
            (s, i, r, step) for (s, i, r), step in sorted(entries.items())
        )
        return DelayPattern("map", flat, default)

    def step_for(self, sender: int, index: int, receiver: int) -> int:
        if self.kind == "sync_canonical":
            return 0
        step = self._lookup().get((sender, index, receiver), self.default)
        if step is None:
            raise ValueError(
                f"delay pattern omits delivery of item ({sender},{index}) "
                f"to process {receiver}"
            )
        return step

    def _lookup(self) -> Dict[Tuple[int, int, int], int]:
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {(s, i, r): step for s, i, r, step in self.entries}
            object.__setattr__(self, "_cache", cache)
        return cache

    def describe(self) -> Dict[str, object]:
        if self.kind == "sync_canonical":
            return {"kind": "sync_canonical"}
        return {
            "kind": "map",
            "default": self.default,
            "entries": [list(e) for e in self.entries],
        }

    @staticmethod
    def from_descriptor(d: Dict[str, object]) -> "DelayPattern":
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind == "sync_canonical":
            return SYNC_CANONICAL
        if kind != "map":
            raise ValueError(f"delay pattern kind {kind!r} is not 'map' or 'sync_canonical'")
        if not isinstance(d.get("entries"), list):
            raise ValueError("delay pattern of kind 'map' needs an 'entries' list")
        entries = tuple(
            _int_row(e, 4, "delay pattern entry [sender, index, receiver, step]")
            for e in d["entries"]
        )
        default = d.get("default")
        if default is not None and not isinstance(default, int):
            raise ValueError(f"delay pattern default {default!r} must be an integer")
        return DelayPattern("map", entries, default)


#: The unique same-round delivery pattern of the synchronous model.
SYNC_CANONICAL = DelayPattern(kind="sync_canonical")

#: Every item delivered at the step it is emitted.
ALL_IMMEDIATE = DelayPattern("map", (), 0)


def all_latest(horizon: int) -> DelayPattern:
    """Every item delivered at the horizon."""
    return DelayPattern("map", (), horizon)


def enum_delay_patterns(
    emission_slots: Sequence[EmissionSlot],
    n: int,
    horizon: int,
    budget: int,
    sample_seed: int = 0,
) -> List[DelayPattern]:
    """Canonical bounded subset of the asynchronous delay space.

    Each (item, receiver) edge takes a delivery step from the 3-point
    lattice {immediate, mid, horizon}.  The full lattice is enumerated when
    its size is within ``budget``; otherwise ``budget`` distinct patterns
    are drawn with a seeded RNG.  The two extreme patterns (all-immediate,
    all-latest) are always included.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    edges = [(s, i, r) for (s, i) in emission_slots for r in range(1, n + 1)]
    extremes = [ALL_IMMEDIATE, all_latest(horizon)]
    if not edges:
        return [ALL_IMMEDIATE]
    steps = sorted({0, (horizon + 1) // 2, horizon})
    lattice_size = len(steps) ** len(edges)
    patterns: List[DelayPattern] = []
    seen = set()
    for p in extremes:
        # Extremes in explicit-map form so identity matches lattice points.
        explicit = DelayPattern.of({e: p.default for e in edges}, default=None)
        if explicit not in seen:
            seen.add(explicit)
            patterns.append(explicit)
    if lattice_size <= budget:
        for combo in itertools.product(steps, repeat=len(edges)):
            p = DelayPattern.of(dict(zip(edges, combo)), default=None)
            if p not in seen:
                seen.add(p)
                patterns.append(p)
        return patterns
    rng = random.Random(sample_seed)
    attempts = 0
    while len(patterns) < budget + 2 and attempts < budget * 20:
        attempts += 1
        combo = {e: rng.choice(steps) for e in edges}
        p = DelayPattern.of(combo, default=None)
        if p not in seen:
            seen.add(p)
            patterns.append(p)
    return patterns


def sample_delay_pattern(
    rng: random.Random,
    emission_slots: Sequence[EmissionSlot],
    n: int,
    horizon: int,
) -> DelayPattern:
    """One random pattern over the full step range 0..H (not just the lattice)."""
    entries = {
        (s, i, r): rng.randint(0, horizon)
        for (s, i) in emission_slots
        for r in range(1, n + 1)
    }
    return DelayPattern.of(entries, default=None)
