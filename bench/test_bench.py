"""Tests for the benchmark's own code: self-time arithmetic, wrappers, timing loop.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import binsos  # noqa: E402
import binsos.oracle  # noqa: E402,F401  (install imports it; snapshot it too)
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Cell  # noqa: E402
from binsos.checker import ExplorationBudget, explore  # noqa: E402
from binsos.algorithms import instance_for_line  # noqa: E402
from binsos.outputsets import SystemConfig, Timing  # noqa: E402
from tracing import CELL, NAME, OUTCOME, PARENT, Tracer, self_times  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, None, None]


class FakeClock:
    """Advances one tick per reading, so every span has a known interval."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: [1, 5] counts once
        span("c", 8.0, 12.0, parent=0),  # clipped to [8, 10]
        span("grandchild", 1.5, 2.5, parent=1),  # not subtracted from root
    ]
    assert self_times(spans) == [4.0, 1.0, 3.0, 4.0, 1.0]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([span("leaf", 2.0, 2.5)]) == [0.5]


def test_nested_wrappers_record_parents_and_self_time():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.cell = "cell-7"
    assert outer(3) == 8
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner"]
    assert tracer.spans[1][PARENT] == 0
    assert all(s[CELL] == "cell-7" for s in tracer.spans)
    # outer: ticks 1..4, inner: ticks 2..3, so outer's self time is 2.
    assert self_times(tracer.spans) == [2.0, 1.0]
    assert tracer.stack == []


def test_exception_closes_the_span_with_its_type():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except KeyError:
        pass
    assert tracer.spans[0][OUTCOME] == "KeyError"
    assert tracer.stack == []


def test_generator_gets_one_span_per_resumption():
    tracer = Tracer(clock=FakeClock())

    def count(k):
        yield from range(k)

    wrapped = tracer.wrap("count", count)
    assert list(wrapped(2)) == [0, 1]
    assert [s[OUTCOME] for s in tracer.spans] == ["yield", "yield", "stop"]
    for item in wrapped(5):
        break
    assert tracer.spans[-1][OUTCOME] == "yield"
    assert tracer.stack == []


def _bindings():
    """Every binsos function binding and traced method, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        for attr, value in list(vars(module).items()):
            owner = getattr(value, "__module__", None) or ""
            if callable(value) and owner.startswith("binsos"):
                seen[(name, attr)] = value
    for layer, methods in tracing.METHODS.items():
        for cls_name, method in methods:
            cls = getattr(sys.modules[f"binsos.{layer}"], cls_name)
            seen[(cls_name, method)] = vars(cls)[method]
    return seen


def test_install_wraps_every_binding_and_restore_puts_back_originals():
    before = _bindings()
    original_explore = explore
    patches = tracing.install(Tracer(), "binsos", tracing.LAYERS)
    try:
        assert binsos.checker.explore is not original_explore
        assert binsos.explore is binsos.checker.explore
        # This module's own ``from binsos.checker import explore`` too.
        assert globals()["explore"] is binsos.checker.explore
        assert binsos.checker.run is binsos.simkernel.run
        assert vars(binsos.algorithms.AlgorithmInstance)["programs"] is not before[
            ("AlgorithmInstance", "programs")
        ]
    finally:
        patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert globals()["explore"] is original_explore


def test_run_accounting_adds_up_on_a_traced_explore():
    tracer = Tracer()
    cfg = SystemConfig(3, 1, Timing.SYNC)
    instance = instance_for_line(10, Timing.SYNC).bind(3, 1)
    patches = tracing.install(tracer, "binsos", tracing.LAYERS)
    try:
        tracer.cell = "L10/sync/n3/t1"
        verdict = explore(instance, cfg, ExplorationBudget())
    finally:
        patches.restore()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["checker.executions"] == verdict.executions
    assert metrics["checker.exhaustive_cells"] == 1
    assert metrics["checker.branch_restarts"] > 0
    # Every run is a completed leaf, a restart, or a recorded witness rerun.
    assert metrics["simkernel.runs"] == (
        verdict.executions
        + metrics["checker.branch_restarts"]
        + metrics["checker.witness_reruns"]
    )
    assert metrics["checker.witness_reruns"] == len(verdict.witnesses)
    assert 0 < metrics["checker.self_s"] < metrics["checker.explore_s"]
    row = tracing.cell_rows(tracer.spans)["L10/sync/n3/t1"]
    assert row["runs"] == metrics["simkernel.runs"]
    assert row["exhaustive"] is True
    assert set(metrics) | {tracing.OVERHEAD, tracing.SLOWEST} == set(tracing.UNITS)


def test_run_cells_checks_every_cell_once_and_pairs_it_with_a_reference():
    ran = []

    def op(k):
        ran.append(k)
        return 1, [] if k else ["c0: wrong"]

    cells = [Cell(f"c{k}", lambda k=k: op(k)) for k in range(3)]
    tally = run.Tally()
    samples = run.run_cells(cells, tally)
    assert ran == [0, 1, 2]
    assert (tally.attempted, tally.problems) == (3, ["c0: wrong"])
    assert list(samples) == ["c0", "c1", "c2"]
    for (cell_s, ref_s), in samples.values():
        assert cell_s >= 0 and ref_s > 0
