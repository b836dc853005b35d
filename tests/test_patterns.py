"""Failure pattern generation."""

import itertools
import random

import pytest

from conftest import stretch_representative

from binsos.program import Communicate, Output, Program, SetLocal
from binsos.patterns import (
    FailurePattern,
    count_failure_pattern_orbits,
    count_failure_patterns,
    enum_failure_pattern_orbits,
    enum_failure_patterns,
    sample_failure_pattern,
)


def brute_force_failure_patterns(n, t, slots):
    """Independent generator: pick a crash set, then assign slots directly."""
    found = []
    for f in range(t + 1):
        for pids in itertools.combinations(range(1, n + 1), f):
            for assignment in itertools.product(range(slots), repeat=f):
                found.append(tuple(zip(pids, assignment)))
    return found


def test_failure_pattern_counts():
    assert len(list(enum_failure_patterns(2, 0, [2, 2]))) == 1
    assert len(list(enum_failure_patterns(2, 1, [2, 2]))) == 1 + 2 * 2
    # t = n with one slot is just the powerset of processes.
    assert len(list(enum_failure_patterns(3, 3, [1, 1, 1]))) == 8
    for n in range(0, 6):
        for t in range(0, n + 1):
            for slots in ([1] * n, [3] * n, [k % 3 + 1 for k in range(n)]):
                enumerated = len(list(enum_failure_patterns(n, t, slots)))
                assert count_failure_patterns(n, t, slots) == enumerated, (n, t, slots)


def test_failure_pattern_enumeration_matches_brute_force():
    for n in range(0, 4):
        for t in range(0, min(n, 1) + 1):
            for slots in (1, 2):
                expected = sorted(brute_force_failure_patterns(n, t, slots))
                got = sorted(p.crashes for p in enum_failure_patterns(n, t, [slots] * n))
                assert got == expected, (n, t, slots)


def test_failure_pattern_per_process_slots():
    patterns = list(enum_failure_patterns(2, 2, [2, 3]))
    # f=0: 1; f=1: 2+3; f=2: 2*3.
    assert len(patterns) == 1 + 5 + 6
    assert len(set(patterns)) == len(patterns)


def _class_structures(n):
    """All-equal, 1 + (n-1) and all-distinct programs over n processes, with
    effects (outputs and communications) between local steps."""
    same = Program((Communicate("T", 0), SetLocal("x", 0), Communicate("T", 1), Output(0)))
    odd = Program((SetLocal("x", 1), Output(1)))
    yield [same] * n
    yield ([odd] + [same] * (n - 1))[:n]
    yield [
        Program((SetLocal("x", k), Communicate("T", k)) * (k % 3) + (SetLocal("y", k),))
        for k in range(n)
    ]


def _canonical(fp, programs):
    """Independent orbit label: per program, the sorted slots it crashes at."""
    return frozenset(
        (program, tuple(sorted(slot for pid, slot in fp.crashes if programs[pid - 1] == program)))
        for program in programs
    )


def test_failure_pattern_orbit_counts():
    for n in range(0, 6):
        for t in range(0, n + 1):
            for programs in _class_structures(n):
                orbits = list(enum_failure_pattern_orbits(n, t, programs))
                assert count_failure_pattern_orbits(n, t, programs) == len(orbits), (n, t)


def test_failure_pattern_orbits_one_per_orbit():
    for n in range(0, 6):
        for t in range(0, n + 1):
            for programs in _class_structures(n):
                slots = [p.slot_count for p in programs]
                orbits = list(enum_failure_pattern_orbits(n, t, programs))
                for fp in orbits:
                    assert isinstance(fp, FailurePattern) and fp.f <= t
                    assert stretch_representative(fp, programs) == fp
                labels = [_canonical(fp, programs) for fp in orbits]
                assert len(set(labels)) == len(labels)
                every = {
                    _canonical(stretch_representative(fp, programs), programs)
                    for fp in enum_failure_patterns(n, t, slots)
                }
                assert set(labels) == every, (n, t)


def test_failure_pattern_orbit_representatives_crash_the_lowest_pids():
    # Effects at statements 0, 2 and 3: the crash slots are 0, 1 and 3.
    same = Program((Communicate("T", 0), SetLocal("x", 0), Communicate("T", 1), Output(0)))
    orbits = list(enum_failure_pattern_orbits(3, 2, [same] * 3))
    assert [fp.crashes for fp in orbits] == [
        (),
        ((1, 0),), ((1, 1),), ((1, 3),),
        ((1, 0), (2, 0)), ((1, 0), (2, 1)), ((1, 0), (2, 3)),
        ((1, 1), (2, 1)), ((1, 1), (2, 3)), ((1, 3), (2, 3)),
    ]
    with pytest.raises(ValueError, match="expected 3 programs"):
        count_failure_pattern_orbits(3, 1, [same] * 2)


def test_failure_pattern_descriptor_roundtrip():
    fp = FailurePattern.of({2: 3, 1: 0})
    assert fp.crashes == ((1, 0), (2, 3))
    assert fp.f == 2
    assert fp.slot_of(2) == 3 and fp.slot_of(3) is None
    assert FailurePattern.from_descriptor(fp.describe()) == fp


def test_sample_failure_pattern_is_valid():
    rng = random.Random(7)
    for _ in range(200):
        fp = sample_failure_pattern(rng, 5, 3, [4] * 5)
        assert fp.f <= 3
        assert all(1 <= pid <= 5 and 0 <= slot < 4 for pid, slot in fp.crashes)
