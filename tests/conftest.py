"""Shared pytest hooks: fail a test that leaks a resource; print the
acceptance verdict lines after the run."""
from pathlib import Path

import pytest

ACCEPTANCE_VERDICTS: list[str] = []

TESTS = Path(__file__).parent

# a socket or file left open warns when it is collected; under these filters
# that fails the test that left it
LEAK_ERRORS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS in item.path.parents:
            for spec in LEAK_ERRORS:
                item.add_marker(pytest.mark.filterwarnings(spec))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
