"""Shared pytest wiring: the census fixture, guards left on and empty
graph tables for every test, and the acceptance verdict lines.

The acceptance tests record one PASS/FAIL line per criterion in
ACCEPTANCE_LINES; fd-level capture would otherwise swallow them, so a
terminal-summary hook replays the lines at the end of the run.
"""

import pytest

from mapzoo import forget_graphs
from surfgraph import CorpusSpec, generate

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def _no_guard_override(monkeypatch):
    """Run every test with the guards on, whatever the caller's shell sets."""
    monkeypatch.delenv("SURFGRAPH_GUARD_OVERRIDE", raising=False)


@pytest.fixture(autouse=True)
def _empty_graph_table():
    """Start every test with no value kept by labelled graph or by
    isomorphism class, also on the maps that hold them, so a test that
    breaks or spies on a route sees it run.  Within a test the tables stay
    shared, so a census-wide check still meets a value filed under the
    wrong graph or class."""
    forget_graphs()


@pytest.fixture(scope="session")
def corpus():
    """Every connected map with at most four edges, up to isomorphism (135)."""
    maps = []
    for m in range(5):
        maps.extend(generate(CorpusSpec(edges=m)))
    return maps


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
