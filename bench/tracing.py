"""Spans recorded around the public functions of binsos modules.

The traced run replaces each public function of the traced layers (and a
few public methods) with a wrapper that records one span per call: name,
start, end, parent span, cell id and outcome.  Generator functions get one
span per resumption, so a span never stays open while the consumer runs.
Spans stay in memory; ``Tracer.write`` stores them when the run ends.

Nothing here names a binsos function: ``install`` imports the layers by
package name, finds every binding of their functions in ``sys.modules``
and returns a ``Patches`` whose ``restore`` puts every original back
before any untraced measurement.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span fields, by index into a span list.
NAME, START, END, PARENT, CELL, OUTCOME = range(6)

# The traced layers.  outputsets is table lookups, program's cost shows inside
# the kernel runs, and cli only parses flags, so none of them is traced.
LAYERS = ("algorithms", "simkernel", "patterns", "checker", "oracle")

# Public methods worth a span; every other method is left alone because it
# runs per statement or per event and a wrapper would swamp its cost.
METHODS = {
    "algorithms": (("AlgorithmInstance", "bind"), ("AlgorithmInstance", "programs")),
    "simkernel": (("ExecutionTrace", "to_jsonl"),),
}


def _outcome(result) -> object:
    """What a span remembers about its return value."""
    if hasattr(result, "termination") and hasattr(result, "recorded"):
        return [result.termination, result.recorded]  # ExecutionTrace
    if hasattr(result, "executions") and hasattr(result, "exhaustive"):
        return [result.executions, result.exhaustive]  # Verdict
    if isinstance(result, list):
        return len(result)
    return None


class Tracer:
    """Collects spans in call order; ``cell`` tags every span opened."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.cell: Optional[str] = None

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.cell, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int, outcome: object) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        span[OUTCOME] = outcome
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def resumptions(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        index = self._open(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            self._close(index, "stop")
                            return
                        except BaseException as exc:
                            self._close(index, type(exc).__name__)
                            raise
                        self._close(index, "yield")
                        yield item
                finally:
                    gen.close()

            return resumptions

        @functools.wraps(fn)
        def call(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, type(exc).__name__)
                raise
            self._close(index, _outcome(result))
            return result

        return call

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


class Patches:
    """Every attribute ``install`` replaced, with the value it held."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def public_functions(module) -> Dict[str, Callable]:
    """Functions a module defines itself under a name without a leading _."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


def install(tracer: Tracer, package: str, layers: Sequence[str]) -> Patches:
    """Wrap the public functions of ``package.<layer>`` for every layer.

    A function imported elsewhere under ``from x import f`` is bound in
    several modules, the caller's own included; every binding that is the
    same object is replaced, so calls made through any of them are traced.
    """
    patches = Patches()
    traced = {layer: importlib.import_module(f"{package}.{layer}") for layer in layers}
    modules = [module for _, module in sorted(sys.modules.items()) if module is not None]
    for layer, module in traced.items():
        for name, fn in public_functions(module).items():
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        patches.set(other, attr, wrapper)
        for cls_name, method in METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            fn = vars(cls)[method]
            patches.set(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", fn))
    return patches


# ---------------------------------------------------------------------------
# Per-layer metrics over binsos spans.

RUNS = ("simkernel.run_sync", "simkernel.run_async")
EXPLORE = "checker.explore"
OVERHEAD = "trace.overhead_s"  # traced minus untraced pass, set by the runner
SLOWEST = "slowest_cell_ref"  # slowest untraced cell in reference loops, set by the runner

UNITS = {
    "simkernel.runs": "count",
    "simkernel.run_s": "s",
    "simkernel.run_us_sync": "us",
    "simkernel.run_us_async": "us",
    "simkernel.horizon_hits": "count",
    "simkernel.run_us_recorded": "us",
    "simkernel.to_jsonl_us": "us",
    "simkernel.medium_check_us": "us",
    "simkernel.replay_us": "us",
    "checker.branch_restarts": "count",
    "checker.useful_run_ratio": "ratio",
    "checker.explore_s": "s",
    "checker.self_s": "s",
    "checker.executions": "count",
    "checker.witness_reruns": "count",
    "checker.exhaustive_cells": "count",
    "checker.sample_s": "s",
    "patterns.failure_patterns": "count",
    "patterns.delay_patterns": "count",
    "patterns.enum_s": "s",
    "algorithms.programs_calls_per_run": "calls/run",
    "algorithms.bind_s": "s",
    "oracle.cell_s": "s",
    OVERHEAD: "s",
    SLOWEST: "ref",
}


def _mean_us(durations: List[float]) -> float:
    return 1e6 * sum(durations) / len(durations) if durations else 0.0


def _duration(span: Sequence) -> float:
    return span[END] - span[START]


def _recorded_run(span: Sequence) -> bool:
    return span[NAME] in RUNS and isinstance(span[OUTCOME], list) and span[OUTCOME][1]


def _pattern_counts(span: Sequence) -> Tuple[int, int]:
    """(failure patterns, delay patterns) that one span produced."""
    name, outcome = span[NAME], span[OUTCOME]
    if name == "patterns.enum_failure_patterns":
        return int(outcome == "yield"), 0
    if name == "patterns.sample_failure_pattern":
        return 1, 0
    if name == "patterns.enum_delay_patterns":
        return 0, outcome if isinstance(outcome, int) else 0
    if name == "patterns.sample_delay_pattern":
        return 0, 1
    return 0, 0


def layer_metrics(spans: Sequence[Sequence]) -> Dict[str, float]:
    """The per-layer metrics; a layer a workload never calls reads 0."""
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(name: str) -> List[float]:
        return [_duration(spans[i]) for i in by_name.get(name, ())]

    runs = [spans[i] for name in RUNS for i in by_name.get(name, ())]
    restarts = sum(1 for s in runs if s[OUTCOME] == "ChoiceNeeded")
    completed = [s for s in runs if isinstance(s[OUTCOME], list)]

    def unrecorded_us(name: str) -> float:
        return _mean_us([_duration(spans[i]) for i in by_name.get(name, ())
                         if not _recorded_run(spans[i])])

    explores = by_name.get(EXPLORE, ())
    verdicts = [spans[i][OUTCOME] for i in explores if isinstance(spans[i][OUTCOME], list)]
    in_explore = set(explores)
    witness_reruns = 0
    for span in runs:
        if not _recorded_run(span):
            continue
        parent = span[PARENT]
        while parent is not None and parent not in in_explore:
            parent = spans[parent][PARENT]
        witness_reruns += parent is not None
    patterns = [s for s in spans if s[NAME].startswith("patterns.")]
    counts = [_pattern_counts(s) for s in patterns]
    programs = len(by_name.get("algorithms.AlgorithmInstance.programs", ()))
    oracle = durations("oracle.observed_output_sets")
    return {
        "simkernel.runs": len(runs),
        "simkernel.run_s": sum(_duration(s) for s in runs),
        "simkernel.run_us_sync": unrecorded_us("simkernel.run_sync"),
        "simkernel.run_us_async": unrecorded_us("simkernel.run_async"),
        "simkernel.horizon_hits": sum(1 for s in completed if s[OUTCOME][0] == "HORIZON"),
        "simkernel.run_us_recorded": _mean_us([_duration(s) for s in runs if _recorded_run(s)]),
        "simkernel.to_jsonl_us": _mean_us(durations("simkernel.ExecutionTrace.to_jsonl")),
        "simkernel.medium_check_us": _mean_us(durations("simkernel.medium_check")),
        "simkernel.replay_us": _mean_us(durations("simkernel.replay")),
        "checker.branch_restarts": restarts,
        "checker.useful_run_ratio": len(completed) / len(runs) if runs else 0.0,
        "checker.explore_s": sum(_duration(spans[i]) for i in explores),
        "checker.self_s": sum(
            selfs[i] for i, s in enumerate(spans) if s[NAME].startswith("checker.")
        ),
        "checker.executions": sum(v[0] for v in verdicts),
        "checker.witness_reruns": witness_reruns,
        "checker.exhaustive_cells": sum(1 for v in verdicts if v[1]),
        "checker.sample_s": sum(durations("checker.sample_traces")),
        "patterns.failure_patterns": sum(f for f, _ in counts),
        "patterns.delay_patterns": sum(d for _, d in counts),
        "patterns.enum_s": sum(_duration(s) for s in patterns),
        "algorithms.programs_calls_per_run": programs / len(runs) if runs else 0.0,
        "algorithms.bind_s": sum(durations("algorithms.AlgorithmInstance.bind")),
        "oracle.cell_s": sum(oracle) / len(oracle) if oracle else 0.0,
    }


EMPTY_ROW = {
    "runs": 0, "restarts": 0, "failure_patterns": 0, "delay_patterns": 0,
    "executions": 0, "exhaustive": None,
}


def cell_rows(spans: Sequence[Sequence]) -> Dict[str, Dict[str, object]]:
    """Per-cell counts: kernel runs, restarts, patterns, executions, exhaustive."""
    rows: Dict[str, Dict[str, object]] = {}
    for span in spans:
        if span[CELL] is None:
            continue
        row = rows.setdefault(span[CELL], dict(EMPTY_ROW))
        name, outcome = span[NAME], span[OUTCOME]
        if name in RUNS:
            row["runs"] += 1
            row["restarts"] += outcome == "ChoiceNeeded"
        elif name == EXPLORE and isinstance(outcome, list):
            row["executions"] += outcome[0]
            row["exhaustive"] = outcome[1]
        else:
            failures, delays = _pattern_counts(span)
            row["failure_patterns"] += failures
            row["delay_patterns"] += delays
    return rows
