"""Choice streams and program structure."""

import pytest

from binsos.program import (
    COMM,
    COMP,
    ChoiceNeeded,
    Communicate,
    Deadline,
    Observed,
    Output,
    Pick,
    Program,
    ScriptedChoices,
    SeededChoices,
    SetLocal,
    Wait,
    choices_from_descriptor,
)


class TestSeededChoices:
    def test_deterministic_and_total(self):
        a = SeededChoices(42)
        b = SeededChoices(42)
        for pid in range(1, 6):
            for ctr in range(8):
                assert a.pick(pid, ctr, (0, 1)) == b.pick(pid, ctr, (0, 1))
                assert a.pick(pid, ctr, (0, 1, None)) in (0, 1, None)

    def test_seeds_differ(self):
        picks = lambda seed: tuple(
            SeededChoices(seed).pick(pid, ctr, (0, 1))
            for pid in range(1, 4)
            for ctr in range(4)
        )
        assert len({picks(s) for s in range(30)}) > 1

    def test_descriptor_roundtrip(self):
        stream = SeededChoices(7)
        again = choices_from_descriptor(stream.describe())
        assert again.pick(2, 3, (0, 1)) == stream.pick(2, 3, (0, 1))


    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=f"choice seed {seed} is outside"):
            SeededChoices(seed)

    def test_seed_range_bounds_accepted(self):
        assert SeededChoices(0).seed == 0 and SeededChoices(2**64 - 1).seed == 2**64 - 1


class TestScriptedChoices:
    def test_exact_script(self):
        stream = ScriptedChoices({(1, 0): 1, (2, 0): None})
        assert stream.pick(1, 0, (0, 1)) == 1
        assert stream.pick(2, 0, (0, 1, None)) is None

    def test_unscripted_site_raises(self):
        with pytest.raises(ChoiceNeeded) as exc:
            ScriptedChoices({}).pick(3, 1, (0, 1))
        assert exc.value.pid == 3 and exc.value.counter == 1
        assert exc.value.candidates == (0, 1)

    def test_value_outside_candidates_rejected(self):
        with pytest.raises(ValueError):
            ScriptedChoices({(1, 0): None}).pick(1, 0, (0, 1))

    def test_descriptor_roundtrip(self):
        stream = ScriptedChoices({(2, 1): 0, (1, 0): None})
        again = choices_from_descriptor(stream.describe())
        assert again.picks == stream.picks


class TestProgramStructure:
    def test_mixed_tagging_rejected(self):
        with pytest.raises(ValueError):
            Program((Pick("v", (0, 1)), Output(0, at=(1, COMP))))

    def test_unsorted_rounds_rejected(self):
        with pytest.raises(ValueError):
            Program((Output(0, at=(2, COMM)), Output(1, at=(1, COMP))))

    def test_synchronous_wait_rejected(self):
        with pytest.raises(ValueError, match="cannot wait"):
            Program((Wait(Observed("INIT"), at=(1, COMM)), Output(0, at=(1, COMP))))

    def test_binding_wait_on_a_non_observed_atom_rejected(self):
        with pytest.raises(ValueError, match=r"Deadline\(negate=False\)"):
            Wait(Deadline(), dest="x")
        assert Wait(Observed("INIT"), dest="x").dest == "x"

    def test_synchronous_communication_outside_comm_step_rejected(self):
        with pytest.raises(ValueError, match="outside a COMM step"):
            Program((Output(0, at=(1, COMP)), Communicate("OUTPUT", 0, at=(1, COMP))))

    def test_counts(self):
        program = Program(
            (
                Pick("v", (0, 1)),
                Communicate("OUTPUT", 1),
                Output(1),
                Communicate("OUTPUT", 0),
            )
        )
        assert len(program.statements) == 4
        assert program.slot_count == 5
        assert not program.is_sync

    def test_crash_slots_start_each_stretch_between_effects(self):
        # Effects (outputs and communicates) at statements 1, 3 and 4: slot 0
        # and the slots after each effect but the last.
        program = Program(
            (
                Pick("v", (0, 1)),
                Communicate("OUTPUT", 1),
                SetLocal("x", 0),
                Output(1),
                Communicate("OUTPUT", 0),
                SetLocal("x", 1),
            )
        )
        assert program.crash_slots == (0, 2, 4)
        assert Program((Output(1),)).crash_slots == (0,)
        assert Program((Pick("v", (0, 1)), SetLocal("x", 0))).crash_slots == ()
        assert Program().crash_slots == ()
