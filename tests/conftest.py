"""Shared pytest plumbing: surface acceptance verdicts in the summary, and
an instance outside the six algorithms' wire vocabulary."""

import pytest

from binsos import algorithms
from binsos.algorithms import AlgorithmInstance, AlgorithmKind
from binsos.outputsets import SystemConfig, Timing
from binsos.program import Communicate, LocalRef, Observed, Output, Program, Wait

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def foo_instance(monkeypatch):
    """A two-process async instance speaking tag "FOO", which no algorithm
    uses: p1 communicates FOO(1); p2 waits for a FOO item, binds its value
    to x and outputs x."""
    timing, params, _ = algorithms._KINDS[AlgorithmKind.SINGLE_OUTPUT]

    def build(instance, pid):
        if pid == 1:
            return Program((Communicate("FOO", 1),))
        return Program((Wait(Observed("FOO"), dest="x"), Output(LocalRef("x"))))

    monkeypatch.setitem(algorithms._KINDS, AlgorithmKind.SINGLE_OUTPUT, (timing, params, build))
    instance = AlgorithmInstance(AlgorithmKind.SINGLE_OUTPUT, Timing.ASYNC, no_out=False)
    return instance.bind(2, 0), SystemConfig(2, 0, Timing.ASYNC)
