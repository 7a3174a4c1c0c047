import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pairdom.generate import (
    at_most_one_cycle_per_component,
    girth_at_least,
    nonisomorphic_graphs,
    triangle_free,
)


def call_bounded(fn, *args, timeout: float = 120):
    """fn(*args) in a daemon thread, so that a hung worker process fails
    the test after ``timeout`` seconds instead of stalling the suite; an
    exception fn raises is raised here."""
    out = []

    def target():
        try:
            out.append((True, fn(*args)))
        except BaseException as exc:  # handed to the test, which raises it
            out.append((False, exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), f"{fn.__name__} still running after {timeout} s"
    ok, value = out[0]
    if not ok:
        raise value
    return value


# One [PASS]/[FAIL] line per acceptance criterion, echoed after the run.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def graphs_up_to_5():
    return nonisomorphic_graphs(5)


@pytest.fixture(scope="session")
def graphs_up_to_6():
    return nonisomorphic_graphs(6)


@pytest.fixture(scope="session")
def graphs_up_to_7():
    return nonisomorphic_graphs(7)


@pytest.fixture(scope="session")
def graphs_up_to_8():
    return nonisomorphic_graphs(8)


@pytest.fixture(scope="session")
def c3free_up_to_9():
    return nonisomorphic_graphs(9, predicate=triangle_free)


@pytest.fixture(scope="session")
def girth6_up_to_9():
    return nonisomorphic_graphs(9, predicate=girth_at_least(6))


@pytest.fixture(scope="session")
def one_cycle_per_component_up_to_8():
    return nonisomorphic_graphs(8, predicate=at_most_one_cycle_per_component)
