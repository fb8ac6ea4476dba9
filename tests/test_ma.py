"""Determinant subproblem: Newton behavior, exactness, comparison principle."""

import numpy as np
import pytest

from amce import (
    ConvexityFailureError,
    Disk,
    InvalidProblemError,
    NonConvergenceError,
    ScalarField,
    build_grid,
)
from amce.lma import FactorSlot, LMAProblem, solve_lma
from amce.ma import MAProblem, MASolveOptions, initial_guess, ma_residual, solve_ma
from amce.operators import HessianField, discrete_hessian


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


def test_newton_history_strictly_decreasing(grid32):
    g = lambda p: 1.0 + 0.5 * np.exp(-4.0 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    problem = MAProblem.from_callables(grid32, g, _quad_phi)
    _, report = solve_ma(problem)
    hist = report.residual_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    assert report.min_hessian_eigenvalue > 0.0


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
        solve_ma(problem, MASolveOptions(max_iters=1, newton_tol=1e-14))


def test_anisotropic_domain_solve():
    grid = build_grid(Disk(radius=0.8), 1 / 16)
    g = lambda p: np.full(len(p), 4.0)
    phi = lambda p: p[:, 0] ** 2 + p[:, 1] ** 2
    u, report = solve_ma(MAProblem.from_callables(grid, g, phi))
    assert report.residual_history[-1] < 1e-10
    exact = phi(grid.nodes)
    assert np.abs(u.values - exact).max() < 1e-9


# ---------------------------------------------------------------------------
# factor hand-off from the linear solver
# ---------------------------------------------------------------------------


def _handoff_case(grid):
    """A problem, a convex start that needs Newton steps, and its Hessian."""
    g = lambda p: 1.0 + 0.5 * np.exp(-4.0 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    problem = MAProblem.from_callables(grid, g, _quad_phi)
    start = initial_guess(problem)
    H = discrete_hessian(start)
    assert H.min_eigenvalue() > MASolveOptions().eps_clamp
    return problem, start, H


def _fill(slot, H):
    grid = H.grid
    ones = np.ones(grid.n_nodes), np.ones(grid.n_hits)
    solve_lma(LMAProblem(hessian=H, g=ones[0], psi_hits=ones[1]), slot=slot)


def test_matching_factor_handoff_is_bitwise_neutral(grid32):
    problem, start, H = _handoff_case(grid32)
    u_ref, rep_ref = solve_ma(problem, initial=start)
    slot = FactorSlot()
    _fill(slot, H)
    u, rep = solve_ma(problem, initial=start, slot=slot)
    assert rep_ref.iterations >= 2
    assert u.values.tobytes() == u_ref.values.tobytes()
    assert rep.residual_history == rep_ref.residual_history
    assert rep_ref.factorizations == rep_ref.iterations
    assert rep.factorizations == rep.iterations - 1
    assert slot.take(H) is None


@pytest.mark.parametrize(
    "how",
    [
        "other coefficients",
        "arrays changed after put",
        "only hxx differs",
        "only hxy differs",
        "only hyy differs",
    ],
)
def test_foreign_factor_is_not_used(grid32, how):
    problem, start, H = _handoff_case(grid32)
    u_ref, rep_ref = solve_ma(problem, initial=start)
    bowl = ScalarField.from_callable(
        grid32, lambda p: p[:, 0] ** 2 + 0.25 * p[:, 1] ** 2
    )
    other = discrete_hessian(bowl)
    if how.startswith("only"):
        # every entry of the Hessian takes part in the comparison
        other = HessianField(grid32, H.hxx.copy(), H.hxy.copy(), H.hyy.copy())
        getattr(other, how.split()[1])[:] += 0.05
    held = HessianField(grid32, other.hxx.copy(), other.hxy.copy(), other.hyy.copy())
    slot = FactorSlot()
    _fill(slot, other)
    if how == "arrays changed after put":
        # the caller's arrays now equal the target, the held factor does not
        for name in ("hxx", "hxy", "hyy"):
            getattr(other, name)[:] = getattr(H, name)
        assert other.hxx.tobytes() == H.hxx.tobytes()
    u, rep = solve_ma(problem, initial=start, slot=slot)
    assert u.values.tobytes() == u_ref.values.tobytes()
    assert rep.residual_history == rep_ref.residual_history
    assert rep.factorizations == rep.iterations
    assert slot.take(held) is None


def test_slot_emptied_without_newton_steps(grid16):
    """A start already at tolerance takes no step and still drops the factor."""
    problem = MAProblem.from_callables(grid16, lambda p: np.ones(len(p)), _quad_phi)
    exact = ScalarField.from_callable(grid16, _quad_phi)
    H = discrete_hessian(exact)
    slot = FactorSlot()
    _fill(slot, H)
    _, rep = solve_ma(problem, initial=exact, slot=slot)
    assert rep.iterations == 0 and rep.factorizations == 0
    assert slot.take(H) is None
