"""Shared fixtures: grids and solved fields reused across the suite.

The expensive coupled solves are session-scoped; tests must not mutate
the returned fields in place (copy first).
"""

import numpy as np
import pytest
from hypothesis import settings

from amce import (
    Disk,
    Ellipse,
    ScalarField,
    build_grid,
    get_fixture,
    problem_from_exact,
    solve_system,
)
from amce.geometry import polynomial_levelset

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")


_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


_REFERENCE_DOMAINS = {
    "disk": Disk(radius=1.0),
    "ellipse": Ellipse(a=1.0, b=0.5),
    "offset_disk": Disk(radius=0.7, center_xy=(0.31, -0.53)),
    "levelset": polynomial_levelset({"20": 1.0, "02": 2.0, "40": 0.5, "11": 0.3}),
}


@pytest.fixture(params=sorted(_REFERENCE_DOMAINS))
def reference_domain(request):
    """Each domain on which the grid and its dissection order are compared
    with their plain-loop references."""
    return _REFERENCE_DOMAINS[request.param]


@pytest.fixture(scope="session")
def grid16():
    return build_grid(Disk(radius=1.0), 1.0 / 16.0)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(Disk(radius=1.0), 1.0 / 32.0)


@pytest.fixture(scope="session")
def grid64():
    return build_grid(Disk(radius=1.0), 1.0 / 64.0)


@pytest.fixture(scope="session")
def mild32(grid32):
    """Solved radial_mild (theta = 1/4) on the 1/32 disk: (problem, u, w, report)."""
    problem = problem_from_exact(grid32, get_fixture("radial_mild", theta=0.25))
    u, w, report = solve_system(problem)
    return problem, u, w, report


@pytest.fixture(scope="session")
def r2_64(grid64):
    """Solved paraboloid_r2 on the 1/64 disk: (problem, u, w, report)."""
    problem = problem_from_exact(grid64, get_fixture("paraboloid_r2", theta=0.25))
    u, w, report = solve_system(problem)
    return problem, u, w, report


@pytest.fixture(scope="session")
def paraboloid64_exact(grid64):
    """Exact u = |x|^2/2 sampled on the 1/64 disk."""
    exact = get_fixture("paraboloid", theta=0.25)
    return ScalarField.from_callable(grid64, exact.u)


@pytest.fixture(scope="session")
def r2_64_exact(grid64):
    """Exact u = |x|^2 sampled on the 1/64 disk."""
    exact = get_fixture("paraboloid_r2", theta=0.25)
    return ScalarField.from_callable(grid64, exact.u)
