"""The six algorithms as guarded step programs over the kernel primitives.

Each algorithm is described by an ``AlgorithmInstance``: its kind, its
instantiation parameters, the timing model it is built for, and (once bound
to a concrete system size) the deterministic role assignment its correctness
argument requires together with every process's program.  Both are built
once, when the instance is bound.  Role assignment is canonical lowest-index
so executions are replayable; the correctness arguments do not depend on
which concrete processes take which role.

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
import marshal
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .outputsets import (
    SetOfOutputSets,
    Timing,
    Value,
    _descriptor_fields,
    _dumps,
    line_members,
    tight_condition,
)
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
    Program,
    SetLocal,
    Wait,
    INIT,
    OUTPUT,
    PROPOSE,
    PreconditionError,
)


class AlgorithmKind(enum.Enum):
    ALL_OUTPUT = "all_output"
    SINGLE_OUTPUT = "single_output"
    TIMING_ADAPTIVE = "timing_adaptive"
    ASYNC_DISAGREEMENT = "async_disagreement"
    SYNC_DISAGREEMENT = "sync_disagreement"
    SYNC_CONSENSUS = "sync_consensus"

    def __str__(self) -> str:
        return self.value


#: The instantiation parameters; each kind takes exactly those of its row.
PARAM_NAMES = ("no_out", "values", "default_value")


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}


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

    ``permissive`` relaxes the size requirements so that ``checker.witness``
    and ``run --permissive`` can run an algorithm outside its validity
    envelope.
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
    """One algorithm with parameters, timing model and (optional) binding.

    Construction checks the parameters against the kind's row of ``_KINDS``.
    A bound instance (``n`` and ``t`` given) also derives its ``roles`` and
    builds its programs, once; ``programs()`` hands out that tuple, in which
    equal programs are one object.
    """

    kind: AlgorithmKind
    timing: Timing
    no_out: Optional[bool] = None
    values: Optional[Tuple[Value, ...]] = None
    default_value: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    permissive: bool = False
    roles: Optional[RoleAssignment] = field(default=None, init=False)
    _programs: Optional[Tuple[Program, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if isinstance(self.values, list):
            object.__setattr__(self, "values", tuple(self.values))
        for name, kind in (("no_out", bool), ("default_value", int),
                           ("n", int), ("t", int), ("permissive", bool)):
            value = getattr(self, name)
            if value is not None and type(value) is not kind:
                raise ValueError(f"parameter {name} {value!r} must be {kind.__name__}")
        timing, params, build = _KINDS[self.kind]
        if timing is not None and self.timing is not timing:
            raise PreconditionError(f"{self.kind.value} runs only under {timing}")
        for name in PARAM_NAMES:
            given = getattr(self, name) is not None
            if given != (name in params):
                verb = "does not take" if given else "needs"
                raise ValueError(f"{self.kind.value} {verb} parameter {name}")
        if self.values is not None and not (
            isinstance(self.values, tuple)
            and self.values
            and all(v is None or (type(v) is int and v in (0, 1)) for v in self.values)
        ):
            raise ValueError(f"parameter values {self.values!r} must list 0, 1 or null")
        if self.default_value not in (None, 0, 1):
            raise ValueError(f"parameter default_value {self.default_value} must be 0 or 1")
        if self.n is None and self.t is None:
            return
        if self.n is None or self.t is None or not 0 <= self.t <= self.n:
            raise PreconditionError(f"need 0 <= t <= n, got n={self.n}, t={self.t}")
        object.__setattr__(
            self, "roles", make_roles(self.kind, self.n, self.t, self.permissive)
        )
        built = [build(self, pid) for pid in range(1, self.n + 1)]
        unique: Dict[Program, Program] = {}
        programs = tuple([unique.setdefault(program, program) for program in built])
        if self.timing is Timing.SYNC:
            # The sync kernel runs a statement in the round its tag names.
            for pid, program in enumerate(programs, start=1):
                if program.statements and not program.is_sync:
                    raise ValueError(f"program of process {pid} is not tagged with rounds")
        object.__setattr__(self, "_programs", programs)

    # -- binding --------------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self.n is not None

    @property
    def line(self) -> int:
        """Table line this instance serves, derived from its kind and
        parameters."""
        return _infer_line(self)

    def bind(self, n: int, t: int, permissive: bool = False) -> "AlgorithmInstance":
        """The instance attached to a concrete (n, t), with roles and programs.

        Unless permissive, the pair must satisfy the instance's tight
        condition; the violated condition is named in the rejection.
        """
        if not permissive:
            cond = tight_condition(self.line, self.timing)
            if not cond.holds(n, t):
                raise PreconditionError(
                    f"(n={n}, t={t}) violates condition '{cond}' for "
                    f"{self.kind.value} under {self.timing}"
                )
        return replace(self, n=n, t=t, permissive=permissive)

    def target_members(self) -> SetOfOutputSets:
        return line_members(self.line)

    def programs(self) -> Tuple[Program, ...]:
        if not self.bound:
            raise ValueError("instance not bound")
        return self._programs

    # -- serialization ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """The descriptor a trace header holds as ``alg``: a new copy of
        ``described``'s each call, which the caller may edit."""
        d = dict(self.described[0])
        if d["values"] is not None:
            d["values"] = list(d["values"])
        if d["roles"] is not None:
            d["roles"] = {k: list(v) if isinstance(v, list) else v
                          for k, v in d["roles"].items()}
        return d

    @functools.cached_property
    def described(self) -> Tuple[Dict[str, object], bytes, str]:
        """The descriptor, built once per instance and never to be edited,
        with its ``marshal`` bytes and its JSON text: ``describe`` copies
        the descriptor, and ``ExecutionTrace.to_jsonl`` writes the text for
        a trace's ``alg`` while the alg marshals to those bytes.  Marshal
        version 2 writes values, their exact types and key order only (no
        references), so it tells True from 1 and 5.0 from 5, as JSON does
        and ``==`` does not."""
        d = {
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
        return d, marshal.dumps(d, 2), _dumps(d)


def instance_from_descriptor(d: Dict[str, object]) -> AlgorithmInstance:
    """The instance a trace header describes, bound by ``bind``, or a rejection."""
    d = _descriptor_fields(
        d, "algorithm", kind=str, timing=str, n=int, t=int, permissive=bool,
        line=int, roles=None, **dict.fromkeys(PARAM_NAMES),
    )
    instance = AlgorithmInstance(
        kind=AlgorithmKind(d["kind"]),
        timing=Timing(d["timing"]),
        no_out=d.get("no_out"),
        values=d.get("values"),
        default_value=d.get("default_value"),
    )
    # The line, like the roles, follows from the kind and parameters.
    if d["line"] != instance.line:
        raise ValueError(f"algorithm line {d['line']} is not {instance.line}, "
                         f"the line of {instance.kind.value} with these parameters")
    instance = _bound(instance, d["n"], d["t"], d["permissive"])
    # Roles follow from (kind, n, t, permissive); a described set must match.
    if d.get("roles") != instance.described[0]["roles"]:
        raise ValueError(
            f"algorithm roles {d.get('roles')!r} are not those of "
            f"n={instance.n}, t={instance.t}"
        )
    return instance


@functools.lru_cache(maxsize=64)
def _bound(instance: AlgorithmInstance, n: int, t: int, permissive: bool) -> AlgorithmInstance:
    """``instance.bind(n, t, permissive)``, built once per distinct
    arguments: replaying traces binds the same few descriptors again and
    again.  A rejection raises, so it is never cached."""
    return instance.bind(n, t, permissive=permissive)


def _infer_line(instance: AlgorithmInstance) -> int:
    """The line whose mandated instance, under either timing, has this one's
    kind and parameters (``values`` compared as a set); no two lines have
    the same kind and parameters."""
    return _lines_by_parameters()[_parameters(instance)]


def _parameters(instance: AlgorithmInstance) -> Tuple:
    values = None if instance.values is None else frozenset(instance.values)
    return instance.kind, instance.no_out, instance.default_value, values


@functools.lru_cache(maxsize=None)
def _lines_by_parameters() -> Dict[Tuple, int]:
    """``_parameters`` of each line's mandated instance, under each timing,
    mapped to that line."""
    return {
        _parameters(instance_for_line(line, timing)): line
        for line in range(1, 16)
        for timing in Timing
    }


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
    return AlgorithmInstance(kind=kind, timing=timing, **params)


# ---------------------------------------------------------------------------
# Program construction.


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
    saw = gate + (Observed(OUTPUT, w),)
    missed = gate + (Observed(OUTPUT, w, negate=True),)
    branch = (
        Pick("r", (0, 1), guard=saw, at=comp_at),
        Output(LocalRef("r"), guard=saw, at=comp_at),
        Output(w, guard=missed, at=comp_at),
    )
    if sync:
        # The round-1 delivery barrier is the wait.
        return Program(gate_stmts + branch)
    return Program(
        gate_stmts + (Wait(Deadline(), guard=gate),) + branch
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
            stmts.append(Wait(Observed(INIT)))
        stmts.append(Output(w))
        stmts.append(Communicate(OUTPUT, w))
    elif pid in roles.flip_group:
        stmts.append(Wait(Observed(OUTPUT), dest="seen"))
        stmts.append(Output(Flip("seen")))
    return Program(tuple(stmts))


def _sequence_position(roles: RoleAssignment, pid: int) -> Tuple[int, int]:
    if pid in roles.seq_zero:
        return 0, roles.seq_zero.index(pid) + 1
    return 1, roles.seq_one.index(pid) + 1


def _build_sync_disagreement(instance: AlgorithmInstance, pid: int) -> Program:
    roles = instance.roles
    rounds = len(roles.seq_one)
    w, i = _sequence_position(roles, pid)
    stmts: List = []
    if pid in roles.init_group and instance.no_out:
        stmts.append(Pick("init_gate", (0, 1), at=(1, COMM)))
        stmts.append(
            Communicate(INIT, guard=(LocalIs("init_gate", 0),), at=(1, COMM))
        )
    cond = (Observed(INIT),) if instance.no_out else ()
    stmts.extend(
        [
            SetLocal("chosen", 1 ^ w, guard=cond + (Observed(OUTPUT, w),), at=(i, COMP)),
            SetLocal(
                "chosen", w, guard=cond + (Observed(OUTPUT, w, negate=True),), at=(i, COMP)
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
            Output(0, guard=(Observed(PROPOSE, 0),), at=(1, COMP)),
            Output(1, guard=(Observed(PROPOSE, 0, negate=True),), at=(1, COMP)),
        )
    )


#: One row per kind: the timing it is restricted to (None: either), the
#: parameters it takes, and the builder of one process's program.
_KINDS = {
    AlgorithmKind.ALL_OUTPUT: (None, ("values",), _build_all_output),
    AlgorithmKind.SINGLE_OUTPUT: (None, ("no_out",), _build_single_output),
    AlgorithmKind.TIMING_ADAPTIVE: (None, ("no_out", "default_value"), _build_timing_adaptive),
    AlgorithmKind.ASYNC_DISAGREEMENT: (Timing.ASYNC, ("no_out",), _build_async_disagreement),
    AlgorithmKind.SYNC_DISAGREEMENT: (Timing.SYNC, ("no_out",), _build_sync_disagreement),
    AlgorithmKind.SYNC_CONSENSUS: (Timing.SYNC, (), _build_sync_consensus),
}
