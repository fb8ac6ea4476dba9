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
from amce.ma import MAProblem, MASolveOptions, initial_guess, solve_ma
from oracles import ma_residual


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
    # with no factor handed, the first step factors its matrix and every
    # later step solves by GMRES through that factor
    assert report.iterations >= 2
    assert len(calls) == 1
    assert report.krylov_iterations > 0


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


def _reference_solve_ma(problem, options=None):
    """The factor-per-step Newton loop of :func:`solve_ma`: every step
    factors its clamped matrix and solves through that factor once.  The
    same start, line search and stop; no factor is handed in or kept."""
    from amce.lma import assemble_lma
    from amce.ma import (
        _ARMIJO,
        _BACKTRACK_FACTOR,
        _MAX_BACKTRACKS,
        BERR_TOL,
        roundoff_floor,
    )
    from amce.operators import discrete_hessian, factor_lu

    opts = options or MASolveOptions()
    u = initial_guess(problem)
    g = problem.g.values
    H = discrete_hessian(u)
    res = H.det() - g
    history = [float(np.max(np.abs(res)))]
    floor = roundoff_floor(u, H, g)
    berr = float(np.max(np.abs(res) / floor))
    while history[-1] > opts.newton_tol and berr > BERR_TOL:
        assert len(history) <= opts.max_newton_iters
        J = assemble_lma(H.clamped(opts.eps_clamp))
        delta = factor_lu(splu, J, problem.grid).solve(-res)
        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = u.with_values(u.values + alpha * delta)
            H_trial = discrete_hessian(trial)
            res_trial = H_trial.det() - g
            if np.max(np.abs(res_trial) / floor) <= (1.0 - _ARMIJO * alpha) * berr:
                break
            alpha *= _BACKTRACK_FACTOR
        u, H, res = trial, H_trial, res_trial
        history.append(float(np.max(np.abs(res))))
        floor = roundoff_floor(u, H, g)
        berr = float(np.max(np.abs(res) / floor))
    return u, history


def _bump_problem(grid):
    g = lambda p: 1.0 + 0.5 * np.exp(-4.0 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    return MAProblem.from_callables(grid, g, _quad_phi)


def _unconverged_gmres(A, b, M, rtol, x0=None):
    return None


@pytest.mark.parametrize("gmres", [_unconverged_gmres])
def test_step_that_gmres_cannot_solve_factors_its_matrix(grid32, monkeypatch, gmres):
    """When GMRES through the held factor does not converge, the step
    factors its own matrix and solves through it: every step makes one
    factor, and ``u`` and the residual history are the factor-per-step
    loop's, bit for bit."""
    import amce.ma

    problem = _bump_problem(grid32)
    want, want_history = _reference_solve_ma(problem)
    monkeypatch.setattr(amce.ma, "gmres", gmres)
    calls = []

    def counted(A, **kwargs):
        calls.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(amce.ma, "splu", counted)
    u, report = solve_ma(problem)
    assert report.iterations == len(want_history) - 1 >= 2
    assert len(calls) == report.iterations
    assert report.krylov_iterations == 0
    assert report.residual_history == want_history
    assert u.values.tobytes() == want.values.tobytes()


def test_steps_through_the_held_factor_reach_the_reference_solution(grid32):
    """Steps solved by GMRES through the first step's factor take as many
    steps as the factor-per-step loop and end within round-off of its ``u``."""
    problem = _bump_problem(grid32)
    want, want_history = _reference_solve_ma(problem)
    u, report = solve_ma(problem)
    assert report.iterations == len(want_history) - 1
    assert report.krylov_iterations > 0
    assert np.abs(u.values - want.values).max() <= 1e-14


def test_handed_factor_is_held_and_kept_back(grid32):
    """A factor handed in ``kept`` serves every step, so the solve makes
    none, and it goes back into ``kept``: the factor the steps solved
    through."""
    from amce.operators import COUNTS, poisson_solver

    problem = _bump_problem(grid32)
    kept: list = []
    initial = initial_guess(problem, poisson_solver(grid32, kept))
    lap = kept[0]
    start = COUNTS.copy()
    _, report = solve_ma(problem, initial=initial, kept=kept)
    assert report.iterations >= 2
    assert (COUNTS - start)["factorizations"] == 0
    [back] = kept
    assert back is lap


def test_roundoff_floor_is_never_zero(grid16):
    """A zero iterate against a zero target has no round-off to measure; the
    floor is then the smallest normal float, so the backward error is
    ``0 / tiny = 0`` and not ``0 / 0``."""
    from amce import ScalarField
    from amce.ma import roundoff_floor
    from amce.operators import discrete_hessian

    u = ScalarField(
        grid=grid16, values=np.zeros(grid16.n_nodes), hit_values=np.zeros(grid16.n_hits)
    )
    floor = roundoff_floor(u, discrete_hessian(u), np.zeros(grid16.n_nodes))
    assert np.all(floor == np.finfo(float).tiny)
