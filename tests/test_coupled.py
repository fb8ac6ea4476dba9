"""Coupled outer iteration: fixed points, conversions, hypothesis gating."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amce import (
    InvalidProblemError,
    affine_mean_curvature,
    check_theta,
    g_from_w,
    get_fixture,
    problem_from_exact,
    solve_system,
    w_from_u,
)
from amce.coupled import CoupledOptions, ProblemData


def test_theta_window():
    check_theta(0.0)
    check_theta(0.49)
    for bad in (-0.01, 0.5, 0.75, 1.0):
        with pytest.raises(InvalidProblemError):
            check_theta(bad)


@given(st.floats(1e-6, 1e6), st.floats(0.0, 0.49))
def test_w_g_round_trip(value, theta):
    """w -> g -> w is the identity to 1e-13 relative across twelve decades."""
    w = np.array([value])
    g = (w ** (1.0 / (theta - 1.0)))  # determinant target from weight
    back = g ** (theta - 1.0)
    assert back[0] == pytest.approx(value, rel=1e-13)


def test_overflowing_determinant_target_is_degenerate(grid16):
    """A tiny weight overflows w^(1/(theta-1)); rejected there, no warning."""
    import warnings

    from amce import DegenerateOperatorError, ScalarField

    w = ScalarField(
        grid=grid16,
        values=np.full(grid16.n_nodes, 1e-300),
        hit_values=np.full(grid16.n_hits, 1e-300),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateOperatorError, match="singular"):
            g_from_w(w, theta=0.25)
        w.values[:] = 1.0  # only the boundary trace overflows
        with pytest.raises(DegenerateOperatorError):
            g_from_w(w, theta=0.25)


def test_w_g_field_round_trip(grid16):
    from amce import ScalarField

    w = ScalarField.from_callable(
        grid16, lambda p: 1.0 + 0.5 * np.sin(p[:, 0]) * np.cos(p[:, 1])
    )
    g = g_from_w(w, theta=0.25)
    w2 = g.values ** (0.25 - 1.0)
    np.testing.assert_allclose(w2, w.values, rtol=1e-13)


def test_trivial_fixed_point_single_sweep(grid32):
    problem = problem_from_exact(grid32, get_fixture("paraboloid", theta=0.25))
    u, w, report = solve_system(problem)
    assert report.outer_iterations <= 2
    exact_u = 0.5 * (grid32.nodes[:, 0] ** 2 + grid32.nodes[:, 1] ** 2)
    assert np.abs(u.values - exact_u).max() < 1e-8
    assert np.abs(w.values - 1.0).max() < 1e-8


def test_outer_history_monotone_on_fixtures(grid16):
    for name in ("radial_mild", "radial_quartic"):
        problem = problem_from_exact(grid16, get_fixture(name, theta=0.25))
        _, _, report = solve_system(problem)
        hist = report.w_change_history
        assert all(
            hist[i + 1] <= hist[i] * (1.0 + 1e-12) for i in range(len(hist) - 1)
        ), name


def test_theta_zero_path_matches_limit(grid16):
    """theta = 0 must be the continuous limit of the general path."""
    u0, w0, _ = solve_system(
        problem_from_exact(grid16, get_fixture("radial_mild", theta=0.0))
    )
    ue, we, _ = solve_system(
        problem_from_exact(grid16, get_fixture("radial_mild", theta=1e-12))
    )
    assert np.abs(u0.values - ue.values).max() < 1e-10
    assert np.abs(w0.values - we.values).max() < 1e-10


def test_min_principle_at_fixed_point(mild32):
    problem, u, w, report = mild32
    assert problem.f_nonpositive
    h = problem.grid.h
    assert w.values.min() >= problem.psi_hits.min() - 10.0 * h * h


def test_positive_forcing_flagged_not_fatal(grid16):
    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    assert not problem.f_nonpositive
    _, _, report = solve_system(problem)
    assert report.hypothesis_flags["f_le_0_violated"]


def test_affine_mean_curvature_matches_forcing(mild32):
    """At the fixed point, -(1/3) U^ij w_ij recovers -f/3 on interior nodes."""
    problem, u, w, _ = mild32
    grid = problem.grid
    ha = affine_mean_curvature(u, w)
    mask = grid.full_stencil_mask()
    gap = np.abs(ha[mask] - (-problem.f.values[mask] / 3.0)).max()
    assert gap < 5e-4


def test_solution_matches_exact(mild32):
    problem, u, w, _ = mild32
    exact = get_fixture("radial_mild", theta=0.25)
    grid = problem.grid
    assert np.abs(u.values - exact.u(grid.nodes)).max() < 5e-4
    assert np.abs(w.values - exact.w(grid.nodes)).max() < 5e-3


def test_report_excludes_wall_time_from_dict(mild32):
    _, _, _, report = mild32
    d = report.as_dict()
    assert "wall_time_s" not in d
    assert report.wall_time_s > 0.0


def test_psi_must_be_positive(grid16):
    exact = get_fixture("paraboloid", theta=0.25)
    with pytest.raises(InvalidProblemError):
        ProblemData.from_callables(
            grid16,
            0.25,
            f_fn=exact.f,
            phi_fn=exact.u,
            psi_fn=lambda p: np.zeros(len(p)),
        )


def test_relaxation_out_of_range_rejected(grid16):
    problem = problem_from_exact(grid16, get_fixture("paraboloid", theta=0.25))
    with pytest.raises(InvalidProblemError):
        solve_system(problem, CoupledOptions(relaxation=1.5))


def test_sweep_budget_counts_damped_sweeps(grid16):
    """The budget error carries the history; the last allowed sweep may converge."""
    from amce import NonConvergenceError

    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, _, report = solve_system(problem)
    with pytest.raises(NonConvergenceError) as info:
        solve_system(problem, CoupledOptions(max_outer_iters=3))
    assert info.value.history == report.w_change_history[:3]
    budget = CoupledOptions(max_outer_iters=report.outer_iterations)
    _, _, exact_budget = solve_system(problem, budget)
    assert exact_budget.w_change_history == report.w_change_history


def test_lma_factor_handed_to_next_newton_step(grid16, monkeypatch):
    """Each sweep's LMA factor serves the next sweep's first Newton step.

    Without the hand-off the same solve makes 144 factorizations: 92 Newton
    steps, 50 LMA solves and 2 Poisson solves.
    """
    import amce.lma
    import amce.ma
    import amce.operators

    calls = []

    def counted(splu):
        def wrapper(A):
            calls.append(A.shape)
            return splu(A)

        return wrapper

    for mod in (amce.ma, amce.lma, amce.operators):
        monkeypatch.setattr(mod, "splu", counted(mod.splu))
    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, _, report = solve_system(problem)
    assert report.outer_iterations == 49
    assert report.newton_iterations_total == 92
    assert len(calls) == 95
    assert report.factorizations == 95
    assert report.as_dict()["factorizations"] == 95


def test_unmoved_polish_reuses_last_linear_step(grid16, monkeypatch):
    """A polish without Newton steps keeps the last sweep's linear solution.

    ``sheared_half`` converges in one sweep and its polish takes no Newton
    step; solving the linear step again would make 8 factorizations.
    """
    import amce.lma
    import amce.ma
    import amce.operators
    from amce import CofactorField, LMAProblem, discrete_hessian, solve_lma

    calls = []

    def counted(splu):
        def wrapper(A):
            calls.append(A.shape)
            return splu(A)

        return wrapper

    for mod in (amce.ma, amce.lma, amce.operators):
        monkeypatch.setattr(mod, "splu", counted(mod.splu))
    problem = problem_from_exact(grid16, get_fixture("sheared_half", theta=0.25))
    u, w, report = solve_system(problem)
    assert report.outer_iterations == 1
    assert len(calls) == 7
    assert report.factorizations == 7
    coeff = CofactorField.from_hessian(discrete_hessian(u))
    fresh, _ = solve_lma(
        LMAProblem(coeff=coeff, g=problem.f.values, psi_hits=problem.psi_hits)
    )
    assert w.values.tobytes() == fresh.values.tobytes()
    assert w.hit_values.tobytes() == fresh.hit_values.tobytes()
