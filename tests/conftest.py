"""Shared pytest plumbing.

The acceptance tests record one verdict line per criterion; the hook below
replays those lines in a terminal section after the run, so they stay
visible even though pytest captures stdout of passing tests.
"""

import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from stablebranch import fastsim

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@contextmanager
def traced_peak():
    """Trace allocations inside the block.

    Yields a namespace whose `peak` and `current` are set, in bytes since
    the block began, when the block exits, also when it raises.
    """
    traced = SimpleNamespace(peak=None, current=None)
    tracemalloc.start()
    try:
        yield traced
    finally:
        traced.current, traced.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()


@pytest.fixture
def chunk_counts(monkeypatch) -> list:
    """How many chunks each batch run during the test is split into."""
    counts = []
    real = fastsim._chunk_sizes

    def spy(*args):
        sizes = real(*args)
        counts.append(len(sizes))
        return sizes

    monkeypatch.setattr(fastsim, "_chunk_sizes", spy)
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
