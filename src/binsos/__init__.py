"""Simulator and solvability checker for binary-output tasks under crashes."""

from .outputsets import (
    OutputSet,
    SetOfOutputSets,
    SystemConfig,
    Timing,
    classify_line,
    condition_table,
    line_members,
    observation1_bounds,
    output_set,
    tight_condition,
)
from .algorithms import (
    AlgorithmInstance,
    AlgorithmKind,
    RoleAssignment,
    instance_for_line,
    make_roles,
)
from .patterns import FailurePattern, enum_failure_patterns
from .program import ChoiceStream, ScriptedChoices, SeededChoices
from .simkernel import (
    ExecutionTrace,
    KernelError,
    PreconditionError,
    medium_check,
    replay,
    run,
    run_async,
    run_sync,
)
from .checker import (
    ExplorationBudget,
    TableReport,
    Verdict,
    bounds_screen,
    check_table,
    explore,
    witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmInstance",
    "AlgorithmKind",
    "ChoiceStream",
    "ExecutionTrace",
    "ExplorationBudget",
    "FailurePattern",
    "KernelError",
    "OutputSet",
    "PreconditionError",
    "RoleAssignment",
    "ScriptedChoices",
    "SeededChoices",
    "SetOfOutputSets",
    "SystemConfig",
    "TableReport",
    "Timing",
    "Verdict",
    "bounds_screen",
    "check_table",
    "classify_line",
    "condition_table",
    "enum_failure_patterns",
    "explore",
    "instance_for_line",
    "line_members",
    "make_roles",
    "medium_check",
    "observation1_bounds",
    "output_set",
    "replay",
    "run",
    "run_async",
    "run_sync",
    "tight_condition",
    "witness",
]
