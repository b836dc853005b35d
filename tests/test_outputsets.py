"""Output-set combinatorics, the 16-line table, and condition predicates."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binsos.outputsets import (
    OutputSet,
    SystemConfig,
    Timing,
    classify_line,
    condition_table,
    line_members,
    observation1_bounds,
    output_set,
    sos,
    sos_mask,
    tight_condition,
)


def test_output_set_examples():
    assert output_set((None, None, None)) is OutputSet.EMPTY
    assert output_set((0, None, 1)) is OutputSet.BOTH
    assert output_set((1, 1, None, 1)) is OutputSet.ONE
    assert output_set(()) is OutputSet.EMPTY
    assert output_set((0,)) is OutputSet.ZERO


@given(st.lists(st.sampled_from([0, 1, None]), max_size=8), st.randoms())
def test_output_set_permutation_invariant(vector, rng):
    shuffled = list(vector)
    rng.shuffle(shuffled)
    assert output_set(vector) is output_set(shuffled)


def test_classify_line_examples():
    assert classify_line(sos(OutputSet.EMPTY, OutputSet.BOTH)) == 7
    assert classify_line(sos(OutputSet.ZERO, OutputSet.ONE)) == 10
    assert classify_line(sos()) == 16


def test_classify_line_is_a_bijection():
    seen = set()
    for mask in range(16):
        members = frozenset(m for m in OutputSet if mask & (1 << m.value))
        line = classify_line(members)
        assert line_members(line) == members
        assert sos_mask(members) == mask
        seen.add(line)
    assert seen == set(range(1, 17))


def test_tight_condition_examples():
    assert tight_condition(7, Timing.ASYNC).holds(5, 2) is True
    assert tight_condition(7, Timing.ASYNC).holds(4, 2) is False
    assert tight_condition(10, Timing.ASYNC).holds(3, 1) is False
    assert tight_condition(10, Timing.ASYNC).holds(3, 0) is True
    for n in range(6):
        for t in range(n + 1):
            assert tight_condition(16, Timing.SYNC).holds(n, t) is False
            assert tight_condition(16, Timing.ASYNC).holds(n, t) is False


def test_tight_condition_grid_spot_values():
    # Hand-checked corner cells of each condition shape.
    assert tight_condition(1, Timing.SYNC).holds(2, 2)      # n >= t, n >= 2
    assert not tight_condition(2, Timing.SYNC).holds(2, 2)  # needs n > t
    assert tight_condition(7, Timing.SYNC).holds(3, 1)      # n >= t+2
    assert not tight_condition(7, Timing.SYNC).holds(2, 1)
    assert tight_condition(15, Timing.ASYNC).holds(0, 0)    # n >= 0 admits the empty system
    assert not tight_condition(9, Timing.ASYNC).holds(0, 0)  # n >= 1


def test_integer_form_matches_rational_inequality():
    # 2n > 3t+2 must agree with n > (3/2)t + 1 over the integers.
    for t in range(13):
        bound = Fraction(3, 2) * t + 1
        for n in range(3 * t + 6):
            assert (2 * n > 3 * t + 2) == (n > bound), (n, t)


def test_observation1_bounds_examples():
    assert observation1_bounds(sos(OutputSet.EMPTY, OutputSet.BOTH)) == (2, 0)
    assert observation1_bounds(sos(OutputSet.BOTH)) == (2, 2)
    assert observation1_bounds(sos(OutputSet.ZERO)) == (1, 1)
    with pytest.raises(ValueError):
        observation1_bounds(sos())


def test_conditions_imply_counting_bounds():
    # Whenever a line's condition holds, the counting bounds hold too.
    for line in range(1, 16):
        members = line_members(line)
        need_n, need_correct = observation1_bounds(members)
        for timing in (Timing.ASYNC, Timing.SYNC):
            cond = tight_condition(line, timing)
            for n in range(13):
                for t in range(n + 1):
                    if cond.holds(n, t):
                        assert n >= need_n, (line, timing, n, t)
                        assert n - t >= need_correct, (line, timing, n, t)


def test_condition_table_document():
    rows = condition_table()
    assert len(rows) == 32
    for row in rows:
        assert set(row) == {"line", "members_mask", "members", "timing", "condition"}
    by_key = {(r["line"], r["timing"]): r for r in rows}
    assert by_key[(7, "async")]["condition"] == "2n>3t+2 and n>=2"
    assert by_key[(7, "sync")]["condition"] == "n>=t+2 and n>=2"
    assert by_key[(16, "async")]["condition"] == "false"
    assert by_key[(10, "sync")]["condition"] == "n>t and n>=1"
    assert by_key[(7, "async")]["members_mask"] == sos_mask(line_members(7))


def test_system_config_validation():
    cfg = SystemConfig(3, 1, Timing.SYNC)
    assert (cfg.n, cfg.t, cfg.timing) == (3, 1, Timing.SYNC)
    with pytest.raises(ValueError):
        SystemConfig(2, 3, Timing.ASYNC)
    with pytest.raises(ValueError):
        SystemConfig(-1, 0, Timing.ASYNC)


def test_output_set_rejects_non_binary():
    with pytest.raises(ValueError):
        output_set((0, 2))
