"""Shared pytest plumbing: surface acceptance verdicts in the summary, the
acceptance-4 audit instances, the n <= 4 and n <= 5 table reports, each
failure pattern's representative at the crash slots, an asynchronous run
that lands every item as early as it can, a trace's events as dicts, a
kind's builder patched for one test, and an instance outside the six
algorithms' wire vocabulary."""

import time

import pytest

from binsos import algorithms
from binsos.algorithms import AlgorithmInstance, AlgorithmKind, instance_for_line
from binsos.checker import ExplorationBudget, check_table
from binsos.outputsets import SystemConfig, Timing, tight_condition
from binsos.patterns import NO_CRASHES, FailurePattern
from binsos.program import Communicate, LocalRef, Observed, Output, Program, Wait
from binsos.simkernel import _BLOCKED, EVENT_FIELDS, _AsyncKernel

ACCEPTANCE_LINES = []

#: The acceptance-4 instance groups: one per algorithm, split across the
#: timing models each algorithm admits.
AUDIT_GROUPS = (
    ((1, Timing.ASYNC), (1, Timing.SYNC)),    # all-output
    ((9, Timing.ASYNC), (9, Timing.SYNC)),    # single-output
    ((3, Timing.ASYNC), (3, Timing.SYNC)),    # timing-adaptive
    ((7, Timing.ASYNC),),                     # asynchronous disagreement
    ((7, Timing.SYNC), (8, Timing.SYNC)),     # synchronous disagreement
    ((10, Timing.SYNC),),                     # synchronous consensus
)


def audit_instances(per_algorithm):
    """Each acceptance-4 instance at n = 5 and its largest t, with its share
    of ``per_algorithm`` runs."""
    for group in AUDIT_GROUPS:
        share = per_algorithm // len(group)
        for line, timing in group:
            condition = tight_condition(line, timing)
            t = max(t for t in range(6) if condition.holds(5, t))
            yield instance_for_line(line, timing), SystemConfig(5, t, timing), share


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_eager(inst, cfg, choices, fp=NO_CRASHES):
    """The recorded asynchronous run whose every move lands all the pending
    items of the lowest blocked receiver that has any, until none has: each
    item lands as early as a move can land it.  The empty schedule, the
    default, lands every item at the deadline step instead."""
    kernel = _AsyncKernel(inst, cfg, choices, fp, record=True)

    def moves():
        while True:
            ready = [p.pid for p in kernel.procs
                     if p.status == _BLOCKED and kernel.pending[p.pid - 1]]
            if not ready:
                return
            yield ready[0], list(kernel.pending[ready[0] - 1])

    return kernel.run(moves())


#: Each kind's row as field names: the kind, then its other fields in table
#: order.
ROW_FIELDS = {
    kind: ("kind", *[name for name in fields if name != "kind"])
    for kind, fields in EVENT_FIELDS.items()
}


def event_dicts(trace):
    """The events of ``trace`` as dicts, each row zipped with its kind's
    fields."""
    return [dict(zip(ROW_FIELDS[row[0]], row)) for row in trace.events]


def stretch_representative(fp, programs):
    """Each crash moved to the first slot of its stretch of statements with
    no output or communicate; a crash after the last one dropped."""
    crashes = {}
    for pid, slot in fp.crashes:
        effects = [
            k for k, s in enumerate(programs[pid - 1].statements)
            if isinstance(s, (Output, Communicate))
        ]
        if effects and slot <= effects[-1]:
            crashes[pid] = max([0] + [k + 1 for k in effects if k < slot])
    return FailurePattern.of(crashes)


@pytest.fixture(scope="session")
def table_n4():
    """The n <= 4 table report, and the seconds it took, computed once."""
    start = time.time()
    report = check_table(4, ExplorationBudget())
    return report, time.time() - start


@pytest.fixture(scope="session")
def table_n5():
    """The n <= 5 table report, and the CPU seconds it took, computed once."""
    start = time.process_time()
    report = check_table(5, ExplorationBudget())
    return report, time.process_time() - start


@pytest.fixture
def patch_builder(monkeypatch):
    """``patch_builder(kind, build)`` makes ``build(instance, pid)`` the
    program builder of ``kind``'s row of ``algorithms._KINDS`` until the test
    ends.  ``algorithms._bound`` caches bound instances by descriptor, which
    does not name the builder, so its cache is cleared when a builder is
    patched and again when the test ends: a ``replay`` under the patch binds
    the patched programs, and no instance bound under it outlives it."""

    def patch(kind, build):
        timing, params, _ = algorithms._KINDS[kind]
        algorithms._bound.cache_clear()
        monkeypatch.setitem(algorithms._KINDS, kind, (timing, params, build))

    yield patch
    algorithms._bound.cache_clear()


@pytest.fixture
def foo_instance(patch_builder):
    """A two-process async instance speaking tag "FOO", which no algorithm
    uses: p1 communicates FOO(1); p2 waits for a FOO item, binds its value
    to x and outputs x."""

    def build(instance, pid):
        if pid == 1:
            return Program((Communicate("FOO", 1),))
        return Program((Wait(Observed("FOO"), dest="x"), Output(LocalRef("x"))))

    patch_builder(AlgorithmKind.SINGLE_OUTPUT, build)
    instance = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
    return instance.bind(2, 0), SystemConfig(2, 0, Timing.ASYNC)
