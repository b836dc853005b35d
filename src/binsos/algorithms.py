"""The six algorithms as guarded step programs over the kernel primitives.

Each algorithm is described by an ``AlgorithmInstance``: its kind, its
instantiation parameters, the timing model it is built for, and (once bound
to a concrete system size) the deterministic role assignment its correctness
argument requires.  Role assignment is canonical lowest-index so executions
are replayable; the correctness arguments do not depend on which concrete
processes take which role.

Kinds:

* ``ALL_OUTPUT(V)``     -- communication-less; every process picks from V and
                           outputs the pick unless it is the no-output sentinel.
* ``SINGLE_OUTPUT``     -- communication-less; only one designated process
                           picks and possibly outputs.
* ``TIMING_ADAPTIVE``   -- all processes may output a default value v; one
                           designated process waits (for the round-1
                           communication step under synchrony, for a local
                           deadline under asynchrony) and may output a random
                           bit if it saw v already output.
* ``ASYNC_DISAGREEMENT``-- partition into a 0-group, a 1-group and a group
                           that outputs the complement of the first output
                           value it observes; never settles on one value.
* ``SYNC_DISAGREEMENT`` -- two staggered sequences with default values 0/1;
                           a process flips its default if it observed the
                           default already output in an earlier round.
* ``SYNC_CONSENSUS``    -- one round: propose a random bit, output 0 iff any
                           0 was proposed.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .outputsets import (
    OutputSet,
    SetOfOutputSets,
    Timing,
    Value,
    classify_line,
    line_members,
    output_set,
    tight_condition,
)
from .program import (
    COMM,
    COMP,
    Communicate,
    Flip,
    HasOutput,
    LocalIs,
    LocalRef,
    ObservedInit,
    ObservedOutput,
    ObservedPropose,
    Output,
    Pick,
    Program,
    SetLocal,
    Wait,
    WaitAnyOutput,
    WaitDeadline,
    WaitInit,
    INIT,
    OUTPUT,
    PROPOSE,
)
from .simkernel import PreconditionError


class AlgorithmKind(enum.Enum):
    ALL_OUTPUT = "all_output"
    SINGLE_OUTPUT = "single_output"
    TIMING_ADAPTIVE = "timing_adaptive"
    ASYNC_DISAGREEMENT = "async_disagreement"
    SYNC_DISAGREEMENT = "sync_disagreement"
    SYNC_CONSENSUS = "sync_consensus"

    def __str__(self) -> str:
        return self.value


_TIMING_RESTRICTION = {
    AlgorithmKind.ASYNC_DISAGREEMENT: Timing.ASYNC,
    AlgorithmKind.SYNC_DISAGREEMENT: Timing.SYNC,
    AlgorithmKind.SYNC_CONSENSUS: Timing.SYNC,
}


class RoleError(PreconditionError):
    """Role sets cannot be built for the requested system size."""


@dataclass(frozen=True)
class RoleAssignment:
    """Deterministic process-to-role mapping for one bound instance."""

    zero_group: Tuple[int, ...] = ()
    one_group: Tuple[int, ...] = ()
    flip_group: Tuple[int, ...] = ()
    init_group: Tuple[int, ...] = ()
    seq_zero: Tuple[int, ...] = ()
    seq_one: Tuple[int, ...] = ()
    designated: Optional[int] = None

    def describe(self) -> Dict[str, object]:
        return {
            "zero_group": list(self.zero_group),
            "one_group": list(self.one_group),
            "flip_group": list(self.flip_group),
            "init_group": list(self.init_group),
            "seq_zero": list(self.seq_zero),
            "seq_one": list(self.seq_one),
            "designated": self.designated,
        }

    @staticmethod
    def from_descriptor(d: Dict[str, object]) -> "RoleAssignment":
        return RoleAssignment(
            zero_group=tuple(d["zero_group"]),
            one_group=tuple(d["one_group"]),
            flip_group=tuple(d["flip_group"]),
            init_group=tuple(d["init_group"]),
            seq_zero=tuple(d["seq_zero"]),
            seq_one=tuple(d["seq_one"]),
            designated=d["designated"],
        )


def _async_disagreement_sizes(t: int) -> Tuple[int, int, int]:
    # Minimum group sizes: ceil((t+1)/2), ceil(t/2), ceil((t+1)/2).
    if t % 2 == 0:
        return t // 2 + 1, t // 2, t // 2 + 1
    return (t - 1) // 2 + 1, (t + 1) // 2, (t - 1) // 2 + 1


def make_roles(
    kind: AlgorithmKind, n: int, t: int, permissive: bool = False
) -> RoleAssignment:
    """Canonical lowest-index role assignment.

    The zero-group takes the first block of ids, then the one-group, then the
    flip-group; the init-group is the first t+1 ids; the staggered sequences
    take alternating ids (odd positions to the 1-sequence so it is the longer
    one for odd n); the designated process is p1.

    ``permissive`` relaxes the size requirements so witness constructions can
    run an algorithm outside its validity envelope.
    """
    ids = list(range(1, n + 1))
    if kind is AlgorithmKind.ASYNC_DISAGREEMENT:
        s0, s1, sq = _async_disagreement_sizes(t)
        if s0 + s1 + sq > n or 2 * n <= 3 * t + 2:
            if not permissive:
                raise RoleError(
                    f"cannot build disagreement groups at n={n}, t={t} "
                    f"(needs 2n > 3t+2)"
                )
            if n < 2:
                raise RoleError("disagreement needs at least 2 processes")
            s0, s1, sq = 1, 1, n - 2
        else:
            s0 += n - (s0 + s1 + sq)  # surplus processes join the 0-group
        init = ids[: min(t + 1, n)] if permissive else ids[: t + 1]
        return RoleAssignment(
            zero_group=tuple(ids[:s0]),
            one_group=tuple(ids[s0 : s0 + s1]),
            flip_group=tuple(ids[s0 + s1 :]),
            init_group=tuple(init),
        )
    if kind is AlgorithmKind.SYNC_DISAGREEMENT:
        if n < 1 or (not permissive and n < t + 1):
            raise RoleError(
                f"cannot build init group of {t + 1} processes with n={n}"
            )
        init = ids[: min(t + 1, n)]
        return RoleAssignment(
            seq_one=tuple(ids[0::2]),   # len ceil(n/2)
            seq_zero=tuple(ids[1::2]),  # len floor(n/2)
            init_group=tuple(init),
        )
    if kind in (AlgorithmKind.SINGLE_OUTPUT, AlgorithmKind.TIMING_ADAPTIVE):
        if n < 1:
            raise RoleError("need at least one process to designate")
        return RoleAssignment(designated=1)
    return RoleAssignment()


@dataclass(frozen=True)
class AlgorithmInstance:
    """One algorithm with parameters, timing model and (optional) binding."""

    kind: AlgorithmKind
    timing: Timing
    no_out: Optional[bool] = None
    values: Optional[Tuple[Value, ...]] = None
    default_value: Optional[int] = None
    line: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    roles: Optional[RoleAssignment] = None
    permissive: bool = False

    def __post_init__(self) -> None:
        restriction = _TIMING_RESTRICTION.get(self.kind)
        if restriction is not None and self.timing is not restriction:
            raise PreconditionError(
                f"{self.kind.value} runs only under {restriction}"
            )
        if self.kind is AlgorithmKind.ALL_OUTPUT:
            if not self.values:
                raise ValueError("ALL_OUTPUT needs a non-empty value set")
            if not set(self.values) <= {0, 1, None}:
                raise ValueError(f"bad value set {self.values!r}")
        if self.kind is AlgorithmKind.TIMING_ADAPTIVE and self.default_value not in (0, 1):
            raise ValueError("TIMING_ADAPTIVE needs a default value in {0, 1}")

    # -- binding --------------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self.n is not None

    @property
    def effective_line(self) -> int:
        """Table line this instance serves, inferred from parameters."""
        if self.line is not None:
            return self.line
        return _infer_line(self)

    def bind(self, n: int, t: int, permissive: bool = False) -> "AlgorithmInstance":
        """Attach a concrete (n, t) and build roles.

        Unless permissive, the pair must satisfy the instance's tight
        condition; the violated condition is named in the rejection.
        """
        if not 0 <= t <= n:
            raise PreconditionError(f"need 0 <= t <= n, got n={n}, t={t}")
        if not permissive:
            cond = tight_condition(self.effective_line, self.timing)
            if not cond.holds(n, t):
                raise PreconditionError(
                    f"(n={n}, t={t}) violates condition '{cond}' for "
                    f"{self.kind.value} under {self.timing}"
                )
        roles = make_roles(self.kind, n, t, permissive=permissive)
        return replace(self, n=n, t=t, roles=roles, permissive=permissive)

    def target_members(self) -> Optional[SetOfOutputSets]:
        return line_members(self.effective_line)

    @property
    def round_count(self) -> int:
        if self.n is None:
            raise ValueError("instance not bound")
        if self.n == 0:
            return 0
        if self.kind is AlgorithmKind.SYNC_DISAGREEMENT:
            return (self.n + 1) // 2
        return 1

    def programs(self) -> Tuple[Program, ...]:
        if not self.bound:
            raise ValueError("instance not bound")
        return _programs(self)

    # -- serialization ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind.value,
            "timing": self.timing.value,
            "no_out": self.no_out,
            "values": None if self.values is None else list(self.values),
            "default_value": self.default_value,
            "line": self.line,
            "n": self.n,
            "t": self.t,
            "roles": None if self.roles is None else self.roles.describe(),
            "permissive": self.permissive,
        }


def instance_from_descriptor(d: Dict[str, object]) -> AlgorithmInstance:
    return AlgorithmInstance(
        kind=AlgorithmKind(d["kind"]),
        timing=Timing(d["timing"]),
        no_out=d.get("no_out"),
        values=None if d.get("values") is None else tuple(d["values"]),
        default_value=d.get("default_value"),
        line=d.get("line"),
        n=d.get("n"),
        t=d.get("t"),
        roles=None
        if d.get("roles") is None
        else RoleAssignment.from_descriptor(d["roles"]),
        permissive=bool(d.get("permissive", False)),
    )


def _canonical_values(values) -> Tuple[Value, ...]:
    ordered = [v for v in (0, 1, None) if v in set(values)]
    return tuple(ordered)


def _infer_line(instance: AlgorithmInstance) -> int:
    """Classify which table line an instance's claimed family belongs to."""
    kind = instance.kind
    if kind is AlgorithmKind.ALL_OUTPUT:
        bits = [v for v in instance.values if v is not None]
        members = {
            output_set(combo)
            for r in range(len(bits) + 1)
            for combo in itertools.combinations(bits, r)
        }
        if None not in instance.values:
            members.discard(OutputSet.EMPTY)
        return classify_line(frozenset(members))
    if kind is AlgorithmKind.SINGLE_OUTPUT:
        return 9 if instance.no_out else 10
    if kind is AlgorithmKind.TIMING_ADAPTIVE:
        if instance.default_value == 1:
            return 3 if instance.no_out else 4
        return 5 if instance.no_out else 6
    if kind in (AlgorithmKind.ASYNC_DISAGREEMENT, AlgorithmKind.SYNC_DISAGREEMENT):
        return 7 if instance.no_out else 8
    return 10  # synchronous consensus


def instance_for_line(line: int, timing: Timing) -> AlgorithmInstance:
    """The instance the characterization table mandates for a line."""
    if line == 16:
        raise PreconditionError("line 16 is unsolvable; no instance exists")
    if line not in range(1, 16):
        raise ValueError(f"line out of range: {line}")
    kind_params: Dict[int, Tuple[AlgorithmKind, Dict[str, object]]] = {
        1: (AlgorithmKind.ALL_OUTPUT, {"values": (0, 1, None)}),
        2: (AlgorithmKind.ALL_OUTPUT, {"values": (0, 1)}),
        3: (AlgorithmKind.TIMING_ADAPTIVE, {"default_value": 1, "no_out": True}),
        4: (AlgorithmKind.TIMING_ADAPTIVE, {"default_value": 1, "no_out": False}),
        5: (AlgorithmKind.TIMING_ADAPTIVE, {"default_value": 0, "no_out": True}),
        6: (AlgorithmKind.TIMING_ADAPTIVE, {"default_value": 0, "no_out": False}),
        9: (AlgorithmKind.SINGLE_OUTPUT, {"no_out": True}),
        11: (AlgorithmKind.ALL_OUTPUT, {"values": (1, None)}),
        12: (AlgorithmKind.ALL_OUTPUT, {"values": (1,)}),
        13: (AlgorithmKind.ALL_OUTPUT, {"values": (0, None)}),
        14: (AlgorithmKind.ALL_OUTPUT, {"values": (0,)}),
        15: (AlgorithmKind.ALL_OUTPUT, {"values": (None,)}),
    }
    if line in (7, 8):
        kind = (
            AlgorithmKind.ASYNC_DISAGREEMENT
            if timing is Timing.ASYNC
            else AlgorithmKind.SYNC_DISAGREEMENT
        )
        params: Dict[str, object] = {"no_out": line == 7}
    elif line == 10:
        if timing is Timing.ASYNC:
            kind, params = AlgorithmKind.SINGLE_OUTPUT, {"no_out": False}
        else:
            kind, params = AlgorithmKind.SYNC_CONSENSUS, {}
    else:
        kind, params = kind_params[line]
    if "values" in params:
        params["values"] = _canonical_values(params["values"])
    return AlgorithmInstance(kind=kind, timing=timing, line=line, **params)


# ---------------------------------------------------------------------------
# Program construction.


def step_program(instance: AlgorithmInstance, pid: int) -> Program:
    """The guarded step program process ``pid`` runs under this instance."""
    if not instance.bound:
        raise ValueError("instance not bound")
    if not 1 <= pid <= instance.n:
        raise ValueError(f"pid {pid} out of range 1..{instance.n}")
    return instance.programs()[pid - 1]


@functools.lru_cache(maxsize=4096)
def _programs(instance: AlgorithmInstance) -> Tuple[Program, ...]:
    builder = {
        AlgorithmKind.ALL_OUTPUT: _build_all_output,
        AlgorithmKind.SINGLE_OUTPUT: _build_single_output,
        AlgorithmKind.TIMING_ADAPTIVE: _build_timing_adaptive,
        AlgorithmKind.ASYNC_DISAGREEMENT: _build_async_disagreement,
        AlgorithmKind.SYNC_DISAGREEMENT: _build_sync_disagreement,
        AlgorithmKind.SYNC_CONSENSUS: _build_sync_consensus,
    }[instance.kind]
    return tuple(builder(instance, pid) for pid in range(1, instance.n + 1))


def _pick_and_output(candidates: Tuple[Value, ...], at) -> Tuple:
    return (
        Pick("v", candidates, at=at),
        Output(LocalRef("v"), guard=(LocalIs("v", None, negate=True),), at=at),
    )


def _build_all_output(instance: AlgorithmInstance, pid: int) -> Program:
    at = (1, COMP) if instance.timing is Timing.SYNC else None
    return Program(_pick_and_output(instance.values, at))


def _build_single_output(instance: AlgorithmInstance, pid: int) -> Program:
    if pid != instance.roles.designated:
        return Program(())
    candidates = (0, 1, None) if instance.no_out else (0, 1)
    at = (1, COMP) if instance.timing is Timing.SYNC else None
    return Program(_pick_and_output(candidates, at))


def _gate(no_out: bool, at) -> Tuple[Tuple, Tuple]:
    """Gate "no_out is false, or a fresh pick comes up 0"."""
    if not no_out:
        return (), ()
    return (Pick("gate", (0, 1), at=at),), (LocalIs("gate", 0),)


def _build_timing_adaptive(instance: AlgorithmInstance, pid: int) -> Program:
    w = instance.default_value
    sync = instance.timing is Timing.SYNC
    comm_at = (1, COMM) if sync else None
    comp_at = (1, COMP) if sync else None
    gate_stmts, gate = _gate(instance.no_out, comm_at)
    if pid != instance.roles.designated:
        # Plain processes decide at once: the output precedes the
        # communication of OUTPUT(w), which default-value safety relies on.
        return Program(
            gate_stmts
            + (
                Output(w, guard=gate, at=comm_at),
                Communicate(OUTPUT, w, guard=gate, at=comm_at),
            )
        )
    saw = gate + (ObservedOutput(w),)
    missed = gate + (ObservedOutput(w, negate=True),)
    branch = (
        Pick("r", (0, 1), guard=saw, at=comp_at),
        Output(LocalRef("r"), guard=saw, at=comp_at),
        Output(w, guard=missed, at=comp_at),
    )
    if sync:
        # The round-1 delivery barrier is the wait.
        return Program(gate_stmts + branch)
    return Program(
        gate_stmts + (Wait(WaitDeadline(None), guard=gate),) + branch
    )


def _build_async_disagreement(instance: AlgorithmInstance, pid: int) -> Program:
    roles = instance.roles
    stmts: List = []
    if pid in roles.init_group and instance.no_out:
        stmts.append(Pick("init_gate", (0, 1)))
        stmts.append(Communicate(INIT, guard=(LocalIs("init_gate", 0),)))
    if pid in roles.zero_group or pid in roles.one_group:
        w = 0 if pid in roles.zero_group else 1
        if instance.no_out:
            stmts.append(Wait(WaitInit()))
        stmts.append(Output(w))
        stmts.append(Communicate(OUTPUT, w))
    elif pid in roles.flip_group:
        stmts.append(Wait(WaitAnyOutput("seen")))
        stmts.append(Output(Flip("seen")))
    return Program(tuple(stmts))


def _sequence_position(roles: RoleAssignment, pid: int) -> Tuple[int, int]:
    if pid in roles.seq_zero:
        return 0, roles.seq_zero.index(pid) + 1
    return 1, roles.seq_one.index(pid) + 1


def _build_sync_disagreement(instance: AlgorithmInstance, pid: int) -> Program:
    roles = instance.roles
    rounds = instance.round_count
    w, i = _sequence_position(roles, pid)
    stmts: List = []
    if pid in roles.init_group and instance.no_out:
        stmts.append(Pick("init_gate", (0, 1), at=(1, COMM)))
        stmts.append(
            Communicate(INIT, guard=(LocalIs("init_gate", 0),), at=(1, COMM))
        )
    cond = (ObservedInit(),) if instance.no_out else ()
    stmts.extend(
        [
            SetLocal("chosen", 1 ^ w, guard=cond + (ObservedOutput(w),), at=(i, COMP)),
            SetLocal(
                "chosen", w, guard=cond + (ObservedOutput(w, negate=True),), at=(i, COMP)
            ),
            Output(LocalRef("chosen"), guard=cond, at=(i, COMP)),
        ]
    )
    if i + 1 <= rounds:
        stmts.append(
            Communicate(
                OUTPUT, LocalRef("chosen"), guard=(HasOutput(),), at=(i + 1, COMM)
            )
        )
    return Program(tuple(stmts), initial_locals=(("chosen", None),))


def _build_sync_consensus(instance: AlgorithmInstance, pid: int) -> Program:
    return Program(
        (
            Pick("v", (0, 1), at=(1, COMM)),
            Communicate(PROPOSE, LocalRef("v"), at=(1, COMM)),
            Output(0, guard=(ObservedPropose(0),), at=(1, COMP)),
            Output(1, guard=(ObservedPropose(0, negate=True),), at=(1, COMP)),
        )
    )
