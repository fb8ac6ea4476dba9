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


def test_forcing_sign_has_one_rule(grid16):
    """ProblemData, the fixture sign audit and ``amce fixture`` agree."""
    from amce.coupled import forcing_nonpositive

    # round-off above zero counts relative to the size of the forcing
    assert forcing_nonpositive(np.array([-100.0, 1e-11]))
    assert not forcing_nonpositive(np.array([-1.0, 1e-11]))
    assert forcing_nonpositive(np.array([0.0, 1e-12]))
    for name in ("paraboloid", "radial_mild", "radial_quartic", "sheared_half"):
        exact = get_fixture(name, theta=0.25)
        problem = problem_from_exact(grid16, exact)
        assert problem.f_nonpositive == exact.sign_audit()["nonpositive"]
        assert problem.f_nonpositive == (name != "radial_quartic")


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


def _count_splu(monkeypatch) -> list:
    """Record the shape of every ``splu`` call made by any amce module."""
    import sys

    calls = []

    def counted(splu):
        def wrapper(A):
            calls.append(A.shape)
            return splu(A)

        return wrapper

    for name, mod in list(sys.modules.items()):
        if name.startswith("amce") and hasattr(mod, "splu"):
            monkeypatch.setattr(mod, "splu", counted(mod.splu))
    return calls


def test_newton_steps_factor_their_own_iterate(grid16, monkeypatch):
    """Every coupled Newton step is preconditioned by a factor of its own ``A``.

    The 11 factorizations are the 2 Poisson solves, the linear steps of the
    damped sweep and of the polish, and one per Newton step (7).  GMRES
    then needs 47 iterations in all, the same at h = 1/32 and 1/64.
    """
    calls = _count_splu(monkeypatch)
    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, _, report = solve_system(problem)
    assert report.outer_iterations == 8
    assert report.coupled_newton_steps == 7
    assert report.newton_iterations_total == 0
    assert len(calls) == 11
    assert report.factorizations == 11
    assert report.krylov_iterations_total == 47
    d = report.as_dict()
    assert d["factorizations"] == 11
    assert d["coupled_newton_steps"] == 7
    assert d["krylov_iterations_total"] == report.krylov_iterations_total > 0


def _failing_gmres(A, b, **kwargs):
    return np.zeros_like(b), 1


def _nonconvex_gmres(A, b, **kwargs):
    # leaves w alone, so the step is not capped, and breaks the convexity of u
    step = np.zeros_like(b)
    step[: len(b) // 2] = -1e3
    step[: len(b) // 4] = 1e3
    return step, 0


def _raising_splu(A):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize(
    "name, replacement",
    [
        pytest.param("gmres", _failing_gmres, id="_failing_gmres"),
        pytest.param("gmres", _nonconvex_gmres, id="_nonconvex_gmres"),
        pytest.param("splu", _raising_splu, id="_raising_splu"),
    ],
)
def test_unusable_newton_step_falls_back_to_damped_sweeps(
    grid16, monkeypatch, name, replacement
):
    """Every unusable Newton step is a damped sweep: the splitting's 49 sweeps.

    The sweeps stop about 1e-8 short of the discrete solution that Newton
    reaches.  The determinant solves' steps and backtracks are summed.  The
    192 factorizations are the 95 of the splitting alone, the factor of each
    of the 48 failed Newton steps, and 49 first determinant Newton steps of
    a sweep, which factor again the matrix of the linear step before them.
    """
    import amce.coupled

    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    u_newton, w_newton, _ = solve_system(problem)
    ma_reports = []

    def recorded(*args, **kwargs):
        u, rep = solve_ma(*args, **kwargs)
        ma_reports.append(rep)
        return u, rep

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", recorded)
    monkeypatch.setattr(amce.coupled, name, replacement)
    calls = _count_splu(monkeypatch)
    u, w, report = solve_system(problem)
    assert report.outer_iterations == 49
    assert report.newton_iterations_total == 92
    assert report.coupled_newton_steps == 0
    assert report.krylov_iterations_total == 0
    assert report.factorizations == len(calls) == 192
    assert report.newton_iterations_total == sum(r.iterations for r in ma_reports)
    assert report.backtracks_total == sum(r.backtracks for r in ma_reports)
    assert np.abs(u.values - u_newton.values).max() < 1e-8
    assert np.abs(w.values - w_newton.values).max() < 1e-8


def test_unmoved_polish_reuses_last_linear_step(grid16, monkeypatch):
    """A polish without Newton steps keeps the last sweep's linear solution.

    ``sheared_half`` converges in one sweep and its polish takes no Newton
    step; solving the linear step again would make 8 factorizations.
    """
    from amce import LMAProblem, discrete_hessian, solve_lma

    calls = _count_splu(monkeypatch)
    problem = problem_from_exact(grid16, get_fixture("sheared_half", theta=0.25))
    u, w, report = solve_system(problem)
    assert report.outer_iterations == 1
    assert len(calls) == 7
    assert report.factorizations == 7
    fresh, _ = solve_lma(
        LMAProblem(hessian=discrete_hessian(u), g=problem.f.values, psi_hits=problem.psi_hits)
    )
    assert w.values.tobytes() == fresh.values.tobytes()
    assert w.hit_values.tobytes() == fresh.hit_values.tobytes()


def _paraboloid_r2_88():
    from amce import Disk, build_grid

    grid = build_grid(Disk(radius=1.0), 1.0 / 88.0)
    exact = get_fixture("paraboloid_r2", theta=0.25)
    return grid, exact, problem_from_exact(grid, exact)


def test_newton_stops_at_its_backward_error(monkeypatch):
    """paraboloid_r2 at h = 1/88, where both determinant solves stop above
    newton_tol: each stops within BERR_TOL round-off floors at every node,
    without a backtrack, and the solve reproduces the quadratic."""
    import amce.coupled
    import amce.ma

    grid, exact, problem = _paraboloid_r2_88()
    ends = []

    def recorded(ma_problem, options=None, initial=None):
        u, rep = solve_ma(ma_problem, options, initial)
        g = ma_problem.g.values
        H = amce.ma.discrete_hessian(u)
        res = np.abs(H.det() - g)
        ends.append((res.max(), (res / amce.ma.roundoff_floor(u, H, g)).max()))
        return u, rep

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", recorded)
    u, w, report = solve_system(problem)
    tol = amce.ma.MASolveOptions().newton_tol
    assert report.backtracks_total == 0
    assert len(ends) == 2
    for sup, berr in ends:
        assert berr <= amce.ma.BERR_TOL or sup <= tol
    assert min(sup for sup, _ in ends) > tol
    assert np.abs(u.values - exact.u(grid.nodes)).max() < 1e-10
    assert np.abs(w.values - exact.w(grid.nodes)).max() < 1e-10


def test_newton_stall_above_the_floor_raises(monkeypatch):
    """With every round-off floor a millionth of its size, the same solve
    cannot reach BERR_TOL, and its stalled line search raises."""
    import amce.ma
    from amce import NonConvergenceError

    _, _, problem = _paraboloid_r2_88()
    floor = amce.ma.roundoff_floor
    monkeypatch.setattr(
        amce.ma, "roundoff_floor", lambda u, H, g: 1e-6 * floor(u, H, g)
    )
    with pytest.raises(NonConvergenceError, match="line search stalled"):
        solve_system(problem)


def _constant_forcing(grid, value):
    return ProblemData.from_callables(
        grid,
        0.25,
        f_fn=lambda p: np.full(len(p), value),
        phi_fn=lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2),
        psi_fn=lambda p: np.ones(len(p)),
    )


def test_a_nonpositive_weight_ends_the_solve(grid16):
    """Constant forcing f = +10 or +20 drives the first sweep's weight below
    zero; the solve raises with the change history at once, instead of
    clipping the weight and running out the iteration budget.  f = +6 keeps
    the weight positive and solves."""
    from amce import NonConvergenceError

    options = CoupledOptions(relaxation=0.5)
    _, _, report = solve_system(_constant_forcing(grid16, 6.0), options)
    assert report.min_w > 0.0
    assert report.hypothesis_flags == {"f_le_0_violated": True}
    for value in (10.0, 20.0):
        with pytest.raises(NonConvergenceError, match="weight is not positive") as info:
            solve_system(_constant_forcing(grid16, value), options)
        assert 1 <= len(info.value.history) <= 3
