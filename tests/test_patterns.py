"""Failure and delay pattern generation."""

import itertools
import random

import pytest

from binsos.patterns import (
    ALL_IMMEDIATE,
    SYNC_CANONICAL,
    DelayPattern,
    FailurePattern,
    all_latest,
    enum_delay_patterns,
    enum_failure_patterns,
    sample_delay_pattern,
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
    assert len(list(enum_failure_patterns(2, 0, 2))) == 1
    assert len(list(enum_failure_patterns(2, 1, 2))) == 1 + 2 * 2
    # t = n with one slot is just the powerset of processes.
    assert len(list(enum_failure_patterns(3, 3, 1))) == 8


def test_failure_pattern_enumeration_matches_brute_force():
    for n in range(0, 4):
        for t in range(0, min(n, 1) + 1):
            for slots in (1, 2):
                expected = sorted(brute_force_failure_patterns(n, t, slots))
                got = sorted(p.crashes for p in enum_failure_patterns(n, t, slots))
                assert got == expected, (n, t, slots)


def test_failure_pattern_per_process_slots():
    patterns = list(enum_failure_patterns(2, 2, [2, 3]))
    # f=0: 1; f=1: 2+3; f=2: 2*3.
    assert len(patterns) == 1 + 5 + 6
    assert len(set(patterns)) == len(patterns)


def test_failure_pattern_descriptor_roundtrip():
    fp = FailurePattern.of({2: 3, 1: 0})
    assert fp.crashes == ((1, 0), (2, 3))
    assert fp.f == 2
    assert fp.slot_of(2) == 3 and fp.slot_of(3) is None
    assert FailurePattern.from_descriptor(fp.describe()) == fp


def test_sample_failure_pattern_is_valid():
    rng = random.Random(7)
    for _ in range(200):
        fp = sample_failure_pattern(rng, 5, 3, 4)
        assert fp.f <= 3
        assert all(1 <= pid <= 5 and 0 <= slot < 4 for pid, slot in fp.crashes)


def test_delay_patterns_empty_emissions():
    patterns = enum_delay_patterns([], n=3, horizon=8, budget=100)
    assert len(patterns) == 1
    assert patterns[0].step_for(1, 0, 2) == 0


def test_delay_patterns_exhaustive_product():
    patterns = enum_delay_patterns([(1, 0)], n=2, horizon=8, budget=9)
    assert len(patterns) == 9  # 3 lattice steps ^ 2 receivers
    assert len(set(patterns)) == 9
    steps = {(p.step_for(1, 0, 1), p.step_for(1, 0, 2)) for p in patterns}
    assert steps == set(itertools.product((0, 4, 8), repeat=2))


def test_delay_patterns_sampled_with_extremes():
    slots = [(1, 0), (2, 0), (3, 0)]  # 3 items x 2 receivers -> 3^6 = 729 edges
    patterns = enum_delay_patterns(slots, n=2, horizon=8, budget=100, sample_seed=3)
    assert len(set(patterns)) == len(patterns)
    assert 100 <= len(patterns) <= 102
    steps_of = lambda p: [p.step_for(s, i, r) for (s, i) in slots for r in (1, 2)]
    all_steps = [steps_of(p) for p in patterns]
    assert [0] * 6 in all_steps  # all-immediate extreme
    assert [8] * 6 in all_steps  # all-latest extreme


def test_delay_patterns_respect_horizon():
    slots = [(1, 0), (2, 0)]
    for p in enum_delay_patterns(slots, n=3, horizon=6, budget=50, sample_seed=1):
        for (s, i) in slots:
            for r in (1, 2, 3):
                assert 0 <= p.step_for(s, i, r) <= 6


def test_sync_canonical_pattern():
    p = SYNC_CANONICAL
    assert p.kind == "sync_canonical"
    assert p.step_for(1, 0, 2) == 0
    assert DelayPattern.from_descriptor(p.describe()) == p


def test_delay_pattern_strict_lookup():
    p = DelayPattern.of({(1, 0, 1): 3}, default=None)
    assert p.step_for(1, 0, 1) == 3
    with pytest.raises(ValueError):
        p.step_for(1, 0, 2)


def test_delay_pattern_descriptor_roundtrip():
    p = DelayPattern.of({(2, 1, 1): 5, (1, 0, 2): 0}, default=7)
    assert DelayPattern.from_descriptor(p.describe()) == p
    assert ALL_IMMEDIATE.step_for(4, 2, 1) == 0
    assert all_latest(9).step_for(4, 2, 1) == 9


def test_sample_delay_pattern_total_and_bounded():
    rng = random.Random(11)
    slots = [(1, 0), (1, 1), (2, 0)]
    for _ in range(100):
        p = sample_delay_pattern(rng, slots, n=3, horizon=5)
        for (s, i) in slots:
            for r in (1, 2, 3):
                assert 0 <= p.step_for(s, i, r) <= 5
