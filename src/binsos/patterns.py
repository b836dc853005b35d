"""Failure patterns.

Failure patterns map crashed processes to statement-boundary crash slots.
They are enumerated whole, or one per orbit under permutations of processes
with equal programs over only the crash slots other processes can tell
apart (``Program.crash_slots``), and counted in closed form either way, or
drawn at random for sampling.  A synchronous cell runs the orbits one by
one; an asynchronous cell's search (``simkernel.search_async``) takes
crashes as moves at the crash slots instead, and names the pattern of each
path it reports.  When an asynchronous run's items land is no pattern: it
is the run's schedule of moves (``simkernel``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .outputsets import _descriptor_fields


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
        crashes: Dict[int, int] = {}
        for pair in _descriptor_fields(d, "failure pattern", crashes=list)["crashes"]:
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
        and all(type(x) is int for x in row)
    ):
        raise ValueError(f"{what} {row!r} must be a list of {size} integers")
    return tuple(row)


NO_CRASHES = FailurePattern()


def _slot_counts(n: int, program_slots: Sequence[int]) -> List[int]:
    counts = list(program_slots)
    if len(counts) != n:
        raise ValueError(f"expected {n} slot counts, got {len(counts)}")
    return counts


def enum_failure_patterns(
    n: int, t: int, program_slots: Sequence[int]
) -> Iterator[FailurePattern]:
    """All patterns with f <= t crashes over every combination of slots.

    ``program_slots`` holds each process's slot count (index 0 is process 1).
    """
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    counts = _slot_counts(n, program_slots)
    for f in range(t + 1):
        for pids in itertools.combinations(range(1, n + 1), f):
            slot_ranges = [range(counts[pid - 1]) for pid in pids]
            for slots in itertools.product(*slot_ranges):
                yield FailurePattern(tuple(zip(pids, slots)))


def count_failure_patterns(n: int, t: int, program_slots: Sequence[int]) -> int:
    """How many patterns ``enum_failure_patterns`` yields: the sum over f <= t
    of the f-th elementary symmetric sum of the per-process slot counts."""
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    sums = [1] + [0] * n  # sums[f]: elementary symmetric sum of degree f
    for count in _slot_counts(n, program_slots):
        for f in range(n, 0, -1):
            sums[f] += sums[f - 1] * count
    return sum(sums[: t + 1])


def _classes(n: int, programs: Sequence) -> List[Tuple[List[int], Tuple[int, ...]]]:
    """Processes with equal programs, as (pids, crash slots), in order of
    their lowest pid.  ``programs`` holds each process's program (index 0 is
    process 1); its crash slots are ``Program.crash_slots``."""
    if len(programs) != n:
        raise ValueError(f"expected {n} programs, got {len(programs)}")
    classes: Dict[object, List[int]] = {}
    for pid, program in enumerate(programs, 1):
        classes.setdefault(program, []).append(pid)
    return [(pids, programs[pids[0] - 1].crash_slots) for pids in classes.values()]


def enum_failure_pattern_orbits(
    n: int, t: int, programs: Sequence
) -> Iterator[FailurePattern]:
    """One failure pattern per orbit under permutations of processes with
    equal programs, f <= t crashes at ``Program.crash_slots`` only, by f
    ascending.

    A class's share of an orbit is the multiset of its crash slots; the
    representative crashes the class's lowest pids, with the slots sorted.
    """
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    classes = _classes(n, programs)

    def spread(i: int, f: int) -> Iterator[tuple]:
        if i == len(classes):
            if f == 0:
                yield ()
            return
        pids, slots = classes[i]
        for c in range(min(f, len(pids)) + 1):
            for chosen in itertools.combinations_with_replacement(slots, c):
                for rest in spread(i + 1, f - c):
                    yield tuple(zip(pids, chosen)) + rest

    for f in range(t + 1):
        for crashes in spread(0, f):
            yield FailurePattern(tuple(sorted(crashes)))


def count_failure_pattern_orbits(n: int, t: int, programs: Sequence) -> int:
    """How many patterns ``enum_failure_pattern_orbits`` yields: the product
    over classes of sum_c C(s+c-1, c) x^c (c up to the class size, s its
    number of crash slots), truncated at degree t, at x = 1.  A class with
    no crash slots contributes the factor 1."""
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got n={n}, t={t}")
    poly = [1] + [0] * t  # poly[f]: orbits with f crashes
    for pids, slots in _classes(n, programs):
        if not slots:
            continue
        poly = [
            sum(
                poly[f - c] * math.comb(len(slots) + c - 1, c)
                for c in range(min(f, len(pids)) + 1)
            )
            for f in range(t + 1)
        ]
    return sum(poly)


def sample_failure_pattern(
    rng: random.Random, n: int, t: int, program_slots: Sequence[int]
) -> FailurePattern:
    counts = _slot_counts(n, program_slots)
    f = rng.randint(0, t)
    pids = sorted(rng.sample(range(1, n + 1), f))
    return FailurePattern(
        tuple((pid, rng.randrange(counts[pid - 1])) for pid in pids)
    )
