"""Determinant subproblem: Newton behavior, exactness, comparison principle."""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from amce import (
    ConvexityFailureError,
    Disk,
    InvalidProblemError,
    NonConvergenceError,
    build_grid,
)
from amce.ma import MAProblem, MASolveOptions, initial_guess, ma_residual, solve_ma


def _quad_phi(p):
    return 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2)


def test_quadratic_exactness(grid32):
    """Constant g = 1 with the consistent quadratic boundary: at most two
    Newton steps to a machine-precision residual and unit Hessian."""
    problem = MAProblem.from_callables(grid32, lambda p: np.ones(len(p)), _quad_phi)
    u, report = solve_ma(problem)
    assert report.iterations <= 2
    assert report.residual_history[-1] < 1e-10
    assert report.min_hessian_eigenvalue > 0.99
    exact = _quad_phi(grid32.nodes)
    assert np.abs(u.values - exact).max() < 1e-9


def test_newton_history_strictly_decreasing(grid32, monkeypatch):
    import amce.ma

    calls = []

    def counted(A, **kwargs):
        calls.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(amce.ma, "splu", counted)
    g = lambda p: 1.0 + 0.5 * np.exp(-4.0 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    problem = MAProblem.from_callables(grid32, g, _quad_phi)
    _, report = solve_ma(problem)
    hist = report.residual_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    assert report.min_hessian_eigenvalue > 0.0
    # every Newton step factors its own matrix
    assert report.iterations >= 2
    assert len(calls) == report.iterations


def test_residual_defined_through_hessian(grid16):
    from amce import ScalarField

    problem = MAProblem.from_callables(grid16, lambda p: np.ones(len(p)), _quad_phi)
    u = ScalarField.from_callable(grid16, _quad_phi)
    res = ma_residual(u, problem.g)
    assert np.abs(res).max() < 1e-9


def test_comparison_principle(grid32):
    """g1 >= g2 with equal boundary data implies u1 <= u2 + 10 h^2."""
    g1 = lambda p: 1.0 + 0.5 * np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2))
    g2 = lambda p: np.ones(len(p))
    u1, _ = solve_ma(MAProblem.from_callables(grid32, g1, _quad_phi))
    u2, _ = solve_ma(MAProblem.from_callables(grid32, g2, _quad_phi))
    assert np.max(u1.values - u2.values) <= 10.0 * grid32.h**2


def test_initial_guess_uses_boundary_data(grid16):
    problem = MAProblem.from_callables(grid16, lambda p: np.ones(len(p)), _quad_phi)
    u0 = initial_guess(problem)
    np.testing.assert_allclose(u0.hit_values, problem.phi_hits, atol=1e-14)


def test_nonpositive_g_rejected(grid16):
    with pytest.raises(InvalidProblemError):
        MAProblem.from_callables(grid16, lambda p: np.zeros(len(p)), _quad_phi)


def test_non_finite_data_rejected(grid16):
    pole = lambda p: 1.0 / np.abs(p[:, 0])
    with np.errstate(divide="ignore"):
        with pytest.raises(InvalidProblemError, match="non-finite"):
            MAProblem.from_callables(grid16, pole, _quad_phi)
        with pytest.raises(InvalidProblemError, match="non-finite"):
            MAProblem.from_callables(grid16, lambda p: np.ones(len(p)), pole)


def test_nan_residual_is_not_convergence(grid16):
    """A NaN residual used to end the Newton loop as if converged."""
    problem = MAProblem.from_callables(grid16, lambda p: np.ones(len(p)), _quad_phi)
    start = initial_guess(problem)
    start.values[3] = np.nan
    with pytest.raises(NonConvergenceError, match="not finite"):
        solve_ma(problem, initial=start)


def test_iteration_budget_exhaustion_raises(grid32):
    g = lambda p: 1.0 + 0.9 * np.sin(3.0 * p[:, 0]) ** 2
    problem = MAProblem.from_callables(grid32, g, _quad_phi)
    with pytest.raises((NonConvergenceError, ConvexityFailureError)):
        solve_ma(problem, MASolveOptions(max_newton_iters=1, newton_tol=1e-14))


def test_anisotropic_domain_solve():
    grid = build_grid(Disk(radius=0.8), 1 / 16)
    g = lambda p: np.full(len(p), 4.0)
    phi = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2
    u, report = solve_ma(MAProblem.from_callables(grid, g, phi))
    assert report.residual_history[-1] < 1e-10
    exact = phi(grid.nodes)
    assert np.abs(u.values - exact).max() < 1e-9
