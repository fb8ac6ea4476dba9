"""Coupled outer iteration: fixed points, conversions, hypothesis gating."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amce import (
    InvalidProblemError,
    check_theta,
    g_from_w,
    get_fixture,
    problem_from_exact,
    solve_system,
)
from amce.coupled import CoupledOptions, ProblemData
from oracles import affine_mean_curvature, sign_audit, w_from_u


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


def test_underflowing_determinant_target_is_degenerate(grid16):
    """A huge weight underflows w^(1/(theta-1)) to 0; rejected there as a
    weight too large, not passed on as a nonpositive right-hand side."""
    from amce import DegenerateOperatorError, ScalarField

    w = ScalarField(
        grid=grid16,
        values=np.full(grid16.n_nodes, 1e300),
        hit_values=np.full(grid16.n_hits, 1e300),
    )
    with pytest.raises(DegenerateOperatorError, match="weight is too large"):
        g_from_w(w, theta=0.25)
    w.values[:] = 1.0  # only the boundary trace underflows
    with pytest.raises(DegenerateOperatorError, match="weight is too large"):
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
        assert problem.f_nonpositive == sign_audit(exact)["nonpositive"]
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
    assert "wall_time_s" not in dataclasses.asdict(report)


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


def _count_splu(monkeypatch, record=lambda A: A.shape) -> list:
    """Record ``record(A)``, by default the shape, at every ``splu`` call
    made by any amce module."""
    import sys

    calls = []

    def counted(splu):
        def wrapper(A, **kwargs):
            calls.append(record(A))
            return splu(A, **kwargs)

        return wrapper

    for name, mod in list(sys.modules.items()):
        if name.startswith("amce") and hasattr(mod, "splu"):
            monkeypatch.setattr(mod, "splu", counted(mod.splu))
    return calls


def test_newton_steps_solve_through_the_laplacian_factor(grid16, monkeypatch):
    """The coupled Newton steps are preconditioned by the Laplacian factor
    until GMRES through it stops paying.

    The Poisson start is a paraboloid, so the damped sweep's linear step,
    whose operator is a multiple of the Laplacian, solves through the
    Laplacian factor by minimal-residual passes alone and hands it on.
    The Newton steps run GMRES through it, 4, 6, 6 and 9 iterations as the
    forcing term tightens; the fourth, past ``KRYLOV_REFACTOR_ITERATIONS``,
    hands it on to nobody, so the fifth makes its own factor, which serves
    the last three steps (3, 4 and 3 iterations) and the polish: the solve
    makes 2 factors.  GMRES, solving each step only as far as its forcing
    term asks and never below what the outer stop can see (the seventh
    step's tolerance is 1e-2), needs 35 iterations in all, here and at
    h = 1/32 and 1/64; at 1/128 the polish's determinant solve, starting
    from the looser seventh step, takes one Newton step, whose GMRES adds
    3 iterations.
    """
    calls = _count_splu(monkeypatch)
    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, _, report = solve_system(problem)
    assert report.outer_iterations == 8
    assert report.coupled_newton_steps == 7
    assert report.newton_iterations_total == 0
    assert len(calls) == 2
    assert report.factorizations == 2
    assert report.pivoting_refactors == 0
    assert report.krylov_iterations_total == 35
    d = dataclasses.asdict(report)
    assert d["factorizations"] == 2
    assert d["coupled_newton_steps"] == 7
    assert d["krylov_iterations_total"] == report.krylov_iterations_total > 0


def test_back_to_back_solves_report_alike(grid16):
    """A solve reports the counts made during its own call only, so a second
    solve of one problem in the same process reports the same."""
    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, _, first = solve_system(problem)
    _, _, second = solve_system(problem)
    assert first == second
    assert first.factorizations > 0 and first.krylov_iterations_total > 0


def _failing_gmres(A, b, M, rtol, x0=None):
    return None


def _nonconvex_gmres(A, b, M, rtol, x0=None):
    # leaves w alone, so the step is not capped, and breaks the convexity of u
    step = np.zeros_like(b)
    step[: len(b) // 2] = -1e3
    step[: len(b) // 4] = 1e3
    return step


def _raising_splu(A, **kwargs):
    raise RuntimeError("Factor is exactly singular")


@pytest.mark.parametrize(
    "replacements, outer, newton, ma_steps, factors, krylov, ma_krylov, retried",
    [
        pytest.param(
            {"gmres": _failing_gmres}, 49, 0, 94, 97, 141, 133, 0, id="_failing_gmres"
        ),
        pytest.param(
            {"gmres": _nonconvex_gmres}, 49, 0, 98, 1, 1905, 962, 0,
            id="_nonconvex_gmres",
        ),
        pytest.param(
            {"gmres": _failing_gmres, "splu": _raising_splu},
            49, 0, 94, 145, 141, 133, 48, id="_raising_splu",
        ),
    ],
)
def test_unusable_newton_step_falls_back_to_damped_sweeps(
    grid16, monkeypatch, replacements, outer, newton, ma_steps, factors,
    krylov, ma_krylov, retried,
):
    """Every unusable Newton step is a damped sweep.

    The sweeps stop about 1e-8 short of the discrete solution that Newton
    reaches.  The determinant solves' steps, backtracks and GMRES
    iterations are summed, and at no factorization is a second factor
    alive.  With the coupled step's GMRES failing, all 48 Newton steps are
    unusable: each drops the
    factor it is handed, makes its own, fails through that too and hands
    no factor on.  So each of the 48 determinant solves that follow one
    factors its first step's matrix, and hands that factor on to its
    linear solve, which hands it on to the next Newton step: the 97
    factorizations are the Laplacian's and 48 each of the Newton steps and
    the determinant solves (the first sweep's takes no step, and the
    polish's solves through the last linear solve's factor).  With GMRES
    returning a step that breaks convexity, every Newton step solves
    through the held factor and hands it on before its trial fails, so the
    Laplacian's factor serves the whole solve: 1 factorization, paid for
    by 1905 GMRES iterations through that one factor.  With ``splu``
    raising as well, each of the 48 Newton steps reaches it twice, the
    symmetric-mode call and its partial-pivoting retry, and makes no
    factor: 145 factorizations, 48 of them retries.
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
    for name, replacement in replacements.items():
        monkeypatch.setattr(amce.coupled, name, replacement)
    live = _track_live_factors(monkeypatch)
    u, w, report = solve_system(problem)
    assert report.outer_iterations == outer
    assert report.newton_iterations_total == ma_steps
    assert report.coupled_newton_steps == newton
    assert report.krylov_iterations_total == krylov
    assert report.pivoting_refactors == retried
    assert report.factorizations == len(live) == factors
    assert max(live) == 0
    assert report.newton_iterations_total == sum(r.iterations for r in ma_reports)
    assert report.backtracks_total == sum(r.backtracks for r in ma_reports)
    assert sum(r.krylov_iterations for r in ma_reports) == ma_krylov
    assert np.abs(u.values - u_newton.values).max() < 1e-8
    assert np.abs(w.values - w_newton.values).max() < 1e-8


def test_unmoved_polish_reuses_last_linear_step(grid16, monkeypatch):
    """A polish without Newton steps keeps the last sweep's linear solution.

    ``sheared_half`` converges in one sweep and its polish takes no Newton
    step; solving the linear step again would run GMRES through the kept
    Laplacian factor once more.  The whole solve makes that one factor.
    The returned ``w`` is, bit for bit, the one linear solve's, on the
    returned ``u``'s Hessian.
    """
    import amce.coupled
    from amce import discrete_hessian

    solved = []

    def recorded(lma_problem, **kwargs):
        field, rep = solve_lma(lma_problem, **kwargs)
        solved.append((lma_problem.hessian, field))
        return field, rep

    solve_lma = amce.coupled.solve_lma
    monkeypatch.setattr(amce.coupled, "solve_lma", recorded)
    calls = _count_splu(monkeypatch)
    problem = problem_from_exact(grid16, get_fixture("sheared_half", theta=0.25))
    u, w, report = solve_system(problem)
    assert report.outer_iterations == 1
    assert len(calls) == 1
    assert report.factorizations == 1
    assert len(solved) == 1
    (H, linear), H_u = solved[0], discrete_hessian(u)
    for name in ("hxx", "hxy", "hyy"):
        assert getattr(H, name).tobytes() == getattr(H_u, name).tobytes()
    assert w.values.tobytes() == linear.values.tobytes()
    assert w.hit_values.tobytes() == linear.hit_values.tobytes()


def _track_live_factors(monkeypatch) -> list:
    """Record, at every ``splu`` call, how many factors live.

    Every factor ``factor_lu`` makes is tracked, the Laplacian's and the
    default-pivoting retries included."""
    import weakref

    import amce.operators

    made, permuted_lu = [], amce.operators.PermutedLU

    def tracked(*args, **kwargs):
        factor = permuted_lu(*args, **kwargs)
        made.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(amce.operators, "PermutedLU", tracked)
    return _count_splu(monkeypatch, lambda A: sum(r() is not None for r in made))


def test_polish_refines_through_the_last_step_factor(grid16, monkeypatch):
    """Both linear solves are handed a factor and make none: the sweep's
    the Laplacian's, the polish's the last Newton step's own, made after
    the step before it took more than ``KRYLOV_REFACTOR_ITERATIONS`` GMRES
    iterations through the Laplacian's.  The solve makes those 2 factors,
    and at no factorization is a second factor alive, the handed ones
    included."""
    import amce.coupled

    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    lma_factors = []

    def recorded(*args, **kwargs):
        lma_factors.append(bool(kwargs["kept"]))
        return solve_lma(*args, **kwargs)

    solve_lma = amce.coupled.solve_lma
    monkeypatch.setattr(amce.coupled, "solve_lma", recorded)
    live = _track_live_factors(monkeypatch)
    _, _, report = solve_system(problem)
    assert lma_factors == [True, True]
    assert len(live) == report.factorizations == 2
    assert max(live) == 0


def test_linear_step_refines_through_the_last_determinant_step_factor(
    grid16, monkeypatch
):
    """Every step of ``sheared_half``'s one determinant solve solves by
    GMRES through the Laplacian factor it was handed, and that factor is
    handed on to the
    linear solve, which makes none either: the solve makes the Laplacian's
    factor alone, and no other factor is alive when it is made.  The
    linear solution is at the round-off floor and within 1e-13 of a solve
    that factors its own operator."""
    import amce.coupled
    from amce import LMAProblem, discrete_hessian
    from amce.operators import COUNTS

    solves = []

    def recorded(*args, **kwargs):
        made, handed = COUNTS["factorizations"], bool(kwargs["kept"])
        field, rep = solve_lma(*args, **kwargs)
        made = COUNTS["factorizations"] - made
        solves.append((handed, made, rep.backward_error))
        return field, rep

    solve_lma = amce.coupled.solve_lma
    monkeypatch.setattr(amce.coupled, "solve_lma", recorded)
    live = _track_live_factors(monkeypatch)
    problem = problem_from_exact(grid16, get_fixture("sheared_half", theta=0.25))
    u, w, report = solve_system(problem)
    [(handed, made, backward)] = solves
    assert handed and made == 0
    assert len(live) == report.factorizations == 1
    assert max(live) == 0
    assert backward <= 1e-15
    fresh, _ = solve_lma(
        LMAProblem(hessian=discrete_hessian(u), g=problem.f.values, psi_hits=problem.psi_hits)
    )
    assert np.abs(w.values - fresh.values).max() <= 1e-13


def test_polish_drops_the_kept_factor_before_a_determinant_step(grid16, monkeypatch):
    """When the polish's determinant solve takes steps (forced here by
    moving its start), they solve by GMRES through the kept factor, the
    last Newton step's own, and make none; the determinant solve hands that
    factor on and the polish's linear solve refines through it in place of
    making its own: the forced steps add no factor to the Laplacian's and
    the last Newton step's, and no two factors are ever alive."""
    import amce.coupled

    problem = problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25))
    _, w_ref, _ = solve_system(problem)
    starts = []

    def moved(ma_problem, options=None, initial=None, **kwargs):
        starts.append(initial)
        if len(starts) == 2:  # the polish's
            initial = initial.with_values(initial.values * (1.0 + 1e-6))
        return solve_ma(ma_problem, options, initial, **kwargs)

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", moved)
    live = _track_live_factors(monkeypatch)
    _, w, report = solve_system(problem)
    assert len(starts) == 2
    assert report.newton_iterations_total == 2
    assert len(live) == report.factorizations == 2
    assert max(live) == 0
    assert np.abs(w.values - w_ref.values).max() < 1e-8


@pytest.mark.parametrize(
    "name, grid_name, factors",
    [
        ("paraboloid", "grid32", 1),
        ("paraboloid", "grid64", 1),
        ("paraboloid_r2", "grid32", 1),
        ("paraboloid_r2", "grid64", 1),
        ("radial_quartic", "grid32", 2),
        ("sheared_half", "grid16", 1),
    ],
)
def test_laplacian_factor_is_handed_to_the_first_sweep(
    name, grid_name, factors, request, monkeypatch
):
    """The first determinant solve is handed the Laplacian factor.

    A radial fixture's solve takes no Newton step there, so its linear
    step, a multiple of the Laplacian, solves through that factor: the
    paraboloids make the Laplacian's factor alone.  ``radial_quartic``'s
    Newton steps run GMRES through it until the fourth takes 9 iterations,
    past ``KRYLOV_REFACTOR_ITERATIONS``, so the fifth makes its own, which
    serves the rest: 2 factors, and 35 GMRES iterations in all (4, 6, 6,
    9, 3, 4 and 3 per step).
    ``sheared_half``'s determinant solve steps by GMRES
    through the Laplacian factor and hands it on to its linear step, so
    that solve too makes the Laplacian's factor alone; at that ``splu`` no
    factor is alive.
    """
    import amce.coupled

    handed = []

    def recorded(*args, **kwargs):
        handed.append(len(kwargs["kept"]))
        return solve_ma(*args, **kwargs)

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", recorded)
    live = _track_live_factors(monkeypatch)
    grid = request.getfixturevalue(grid_name)
    _, _, report = solve_system(problem_from_exact(grid, get_fixture(name, theta=0.25)))
    assert handed[0] == 1
    assert len(live) == report.factorizations == factors
    assert max(live) == 0
    assert report.pivoting_refactors == 0
    if name == "radial_quartic":
        assert report.krylov_iterations_total == 35


@pytest.mark.parametrize("k", [16, 32, 64, 128])
def test_sheared_half_makes_one_factor_at_every_spacing(k, monkeypatch):
    """``sheared_half`` makes the Laplacian's factor alone at h = 1/16 to
    1/128: its determinant steps and its linear solve all run GMRES through
    that factor.  The determinant solve before the polish takes 4 steps at
    every spacing.  The polish solves again at the ``g`` of the linear
    solve's ``w``, which differs from the last ``g`` by round-off alone, so
    its starting backward error sits at a few floors: it takes one step
    exactly when that error is above ``BERR_TOL`` (at 1/128 it is 1.9 or
    5.6 as the BLAS's summation order has it, with one thread or two) and
    none otherwise.  ``u`` and ``w`` stay at round-off."""
    import amce.coupled
    from amce import Disk, build_grid, discrete_hessian
    from amce.ma import BERR_TOL, roundoff_floor

    solves = []  # (starting backward error, steps) of each determinant solve

    def recorded(problem, *args, initial, **kwargs):
        start = initial.copy()
        start.hit_values = problem.phi_hits.copy()
        H, g = discrete_hessian(start), problem.g.values
        berr = float(np.max(np.abs(H.det() - g) / roundoff_floor(start, H, g)))
        u, rep = solve_ma(problem, *args, initial=initial, **kwargs)
        solves.append((berr, rep.iterations))
        return u, rep

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", recorded)
    grid = build_grid(Disk(radius=1.0), 1.0 / k)
    exact = get_fixture("sheared_half", theta=0.25)
    live = _track_live_factors(monkeypatch)
    u, w, report = solve_system(problem_from_exact(grid, exact))
    assert len(live) == report.factorizations == 1
    assert max(live) == 0
    (_, steps), (edge, polish_steps) = solves
    assert steps == 4
    assert polish_steps == (1 if edge > BERR_TOL else 0)
    assert report.newton_iterations_total == steps + polish_steps
    assert report.krylov_iterations_total > 0
    assert np.abs(u.values - exact.u(grid.nodes)).max() <= (1e-13 if k == 128 else 1e-14)
    assert np.abs(w.values - exact.w(grid.nodes)).max() <= 1e-13


def test_newton_step_solves_through_any_held_factor_gmres_can_use(grid16):
    """A held factor serves a Newton step whenever GMRES through it
    converges: one of ``A`` and one of an operator 1e-12 away make no
    factor, and GMRES takes 3 iterations through either.  Through a factor
    of ``A``'s diagonal GMRES spends its 30-iteration budget, so that
    factor is dropped and ``A``'s own made, through which it takes 3 more.
    Either way ``kept`` ends holding the factor GMRES solved through."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from amce import ScalarField, discrete_hessian
    from amce.lma import assemble_lma
    from amce.operators import COUNTS, factor_lu

    exact = get_fixture("radial_quartic", theta=0.25)
    data = problem_from_exact(grid16, exact)
    u = ScalarField.from_callable(grid16, exact.u)
    w = ScalarField.from_callable(grid16, exact.w)
    A = assemble_lma(discrete_hessian(u))
    moved = assemble_lma(discrete_hessian(u.with_values(u.values * (1.0 + 1e-12))))
    diagonal = sp.diags(A.diagonal()).tocsc()
    for operator, made, krylov in ((A, 0, 3), (moved, 0, 3), (diagonal, 1, 33)):
        held = factor_lu(splu, operator, grid16)
        kept = [held]
        start = COUNTS.copy()
        step = _step(data, u, w, kept)
        assert step is not None and step[3] > 1e-8
        assert (COUNTS - start)["factorizations"] == made
        assert (COUNTS - start)["krylov_iterations_total"] == krylov
        [solved_through] = kept
        assert (solved_through is held) == (made == 0)


@pytest.mark.parametrize(
    "name, grid_name, ma_gmres, steps_made",
    [
        ("radial_quartic", "grid32", None, (1, 0)),
        ("sheared_half", "grid16", None, (0, 0)),
        ("sheared_half", "grid16", _failing_gmres, (0, 4)),
    ],
)
def test_operators_are_assembled_only_to_be_factored(
    name, grid_name, ma_gmres, steps_made, request, monkeypatch
):
    """Coupled Newton steps and determinant steps multiply by their
    operators matrix-free (:func:`amce.lma.apply_lma`); each assembles one
    only to factor it.  ``radial_quartic`` at h = 1/32 makes one coupled
    step's factor and takes no determinant step; ``sheared_half``'s 4
    determinant steps all solve through the Laplacian's factor, or, with
    their GMRES failing, each assembles and factors its own matrix."""
    import amce.coupled
    import amce.ma

    def calls_of(module, fn_name):
        calls, fn = [], getattr(module, fn_name)

        def counted(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, counted)
        return calls

    assembled = [calls_of(m, "assemble_lma") for m in (amce.coupled, amce.ma)]
    factored = [calls_of(m, "splu") for m in (amce.coupled, amce.ma)]
    if ma_gmres is not None:
        monkeypatch.setattr(amce.ma, "gmres", ma_gmres)
    grid = request.getfixturevalue(grid_name)
    _, _, report = solve_system(problem_from_exact(grid, get_fixture(name, theta=0.25)))
    assert report.newton_iterations_total == (4 if name == "sheared_half" else 0)
    assert tuple(map(len, assembled)) == tuple(map(len, factored)) == steps_made


@pytest.mark.parametrize(
    "held_of, handed_on",
    [
        pytest.param(1e-3, "held", id="served"),
        pytest.param(3e-3, "nothing", id="stopped-paying"),
        pytest.param("diagonal", "own", id="failed-then-own"),
    ],
)
def test_newton_step_hands_on_a_factor_within_the_refactor_threshold(
    grid16, monkeypatch, held_of, handed_on
):
    """A coupled Newton step hands on the factor it solved through only when
    GMRES took at most ``KRYLOV_REFACTOR_ITERATIONS`` iterations through it.

    The held factor is of the operator of ``u + c x^2``.  At c = 1e-3 GMRES
    serves the step within the threshold and the factor stays in ``kept``.
    At c = 3e-3 it needs more: the step still uses that direction but
    leaves ``kept`` empty, and the next step makes exactly one factor, with
    the dropped one no longer alive.  Through a factor of ``A``'s diagonal
    GMRES fails after its whole budget, more than the threshold, and the
    step hands on ``A``'s own, since only the iterations through the factor
    that solved count."""
    import weakref

    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from amce import discrete_hessian
    from amce.lma import assemble_lma
    from amce.operators import COUNTS, KRYLOV_REFACTOR_ITERATIONS, factor_lu

    data, u, w = _exact(grid16)
    live = _track_live_factors(monkeypatch)
    if held_of == "diagonal":
        operator = sp.diags(assemble_lma(discrete_hessian(u)).diagonal()).tocsc()
    else:
        x = grid16.nodes[:, 0]
        operator = assemble_lma(discrete_hessian(u.with_values(u.values + held_of * x**2)))
    kept = [factor_lu(splu, operator, grid16)]
    held = weakref.ref(kept[0])
    start = COUNTS.copy()
    step = _step(data, u, w, kept)
    spent = COUNTS - start
    assert step is not None and step[3] > 1e-8
    assert spent["coupled_newton_steps"] == 1
    if handed_on == "held":
        assert spent["krylov_iterations_total"] <= KRYLOV_REFACTOR_ITERATIONS
        assert spent["factorizations"] == 0
        [solved_through] = kept
        assert solved_through is held()
    elif handed_on == "nothing":
        assert spent["krylov_iterations_total"] > KRYLOV_REFACTOR_ITERATIONS
        assert spent["factorizations"] == 0
        assert kept == [] and held() is None
        start = COUNTS.copy()
        u, H, w, _ = step
        assert _step(data, u, w, kept, H) is not None
        assert (COUNTS - start)["factorizations"] == 1
        assert len(kept) == 1
    else:
        assert spent["krylov_iterations_total"] > KRYLOV_REFACTOR_ITERATIONS
        assert spent["factorizations"] == 1
        assert len(kept) == 1 and held() is None
    # the held factor is made through SciPy's own splu, so live counts the
    # step's factorizations and the next step's, and the held one is dropped
    # at each
    assert len(live) == spent["factorizations"] + (handed_on == "nothing")
    assert max(live, default=0) == 0


def test_newton_step_whose_weight_power_overflows_leaves_the_held_factor(grid16):
    """A step whose ``w^e`` overflows is unusable before any solve: it makes
    no factor, and the held one stays in ``kept`` for the damped sweep."""
    from scipy.sparse.linalg import splu

    from amce import ScalarField, discrete_hessian
    from amce.lma import assemble_lma
    from amce.operators import COUNTS, factor_lu

    exact = get_fixture("radial_quartic", theta=0.25)
    data = problem_from_exact(grid16, exact)
    u = ScalarField.from_callable(grid16, exact.u)
    w = ScalarField.from_callable(grid16, exact.w)
    w.values[0] = 1e-300
    held = factor_lu(splu, assemble_lma(discrete_hessian(u)), grid16)
    kept = [held]
    start = COUNTS.copy()
    assert _step(data, u, w, kept) is None
    assert (COUNTS - start)["factorizations"] == 0
    assert kept == [held]


def _recorded_gmres(monkeypatch) -> list:
    """Record the ``(A, b, rtol, iterations)`` of every GMRES call a
    coupled step makes."""
    import amce.coupled
    from amce.operators import COUNTS

    calls, gmres = [], amce.coupled.gmres

    def recorded(A, b, M, rtol, x0=None):
        start = COUNTS["krylov_iterations_total"]
        x = gmres(A, b, M, rtol, x0=x0)
        calls.append((A, b, rtol, COUNTS["krylov_iterations_total"] - start))
        return x

    monkeypatch.setattr(amce.coupled, "gmres", recorded)
    return calls


def test_newton_step_products_and_residual_keep_their_bits(grid16, monkeypatch):
    """The step's Jacobian product takes the second differences of the
    ``u`` part once for both blocks, and its ``F2`` contracts the ``H(w)``
    it already has, yet every product and ``F2`` are byte-equal to
    :func:`amce.lma.apply_lma` and :func:`amce.lma.lma_residual` done
    apart: the contraction is one formula, in one operation order."""
    from amce import discrete_hessian
    from amce.lma import apply_lma, lma_residual

    data, u, w = _exact(grid16)
    calls = _recorded_gmres(monkeypatch)
    assert _step(data, u, w, []) is not None
    n = grid16.n_nodes
    jacobian, b, _, _ = calls[0]
    Hu, Hw = discrete_hessian(u), discrete_hessian(w)
    assert (-b[n:]).tobytes() == lma_residual(w, Hu, data.f.values).tobytes()
    e = 1.0 / (data.theta - 1.0)
    dw_coef = -e * w.values**e / w.values
    rng = np.random.default_rng(7)
    for _ in range(3):
        xu, xw = rng.standard_normal(n), rng.standard_normal(n)
        product = jacobian(np.concatenate([xu, xw]))
        assert product[:n].tobytes() == (apply_lma(Hu, xu) + dw_coef * xw).tobytes()
        assert product[n:].tobytes() == (
            apply_lma(Hw, xu) + apply_lma(Hu, xw)
        ).tobytes()


def test_newton_step_takes_each_hessian_once(grid16, monkeypatch):
    """A step computes two Hessians, ``H(w)`` and the convexity test's
    ``H(u_new)``, and returns the second for the next step's ``H(u)``."""
    import amce.coupled

    data, u, w = _exact(grid16)
    seen, hessian = [], amce.coupled.discrete_hessian

    def recorded(field):
        seen.append(field)
        return hessian(field)

    monkeypatch.setattr(amce.coupled, "discrete_hessian", recorded)
    u_new, H_new, _, _ = _step(data, u, w, [], hessian(u))
    assert seen == [w, u_new]
    again = hessian(u_new)
    for name in ("hxx", "hxy", "hyy"):
        assert getattr(H_new, name).tobytes() == getattr(again, name).tobytes()


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
    st.floats(1e-14, 1.0),
)
def test_step_tolerance_is_never_below_the_forcing_term(values, outer_tol):
    """The coupled step's GMRES tolerance is the forcing term raised, never
    lowered, by the oversolving floor, and stays within the forcing term's
    1e-2 ceiling; at ``F = 0`` it is the forcing term."""
    from amce.coupled import step_tolerance
    from amce.operators import forcing_term

    F = np.array(values)
    eta = step_tolerance(F, outer_tol)
    assert forcing_term(F) <= eta <= 1e-2
    if not F.any():
        assert eta == forcing_term(F)
    else:
        floor = min(1e-2, 0.5 * outer_tol / float(np.max(np.abs(F))))
        assert eta == max(forcing_term(F), floor)


def test_only_the_last_newton_step_is_loosened(grid16, monkeypatch):
    """On ``radial_quartic`` the oversolving floor moves the seventh Newton
    step alone: its residual is near 3e-10, so the forcing term would ask
    for that, while the outer stop at ``outer_tol`` = 1e-8 cannot see below
    a 1e-2 relative solve.  Its GMRES takes 3 iterations where the forcing
    term's 7 were spent."""
    from amce.operators import forcing_term

    calls = _recorded_gmres(monkeypatch)
    solve_system(problem_from_exact(grid16, get_fixture("radial_quartic", theta=0.25)))
    assert [spent for _, _, _, spent in calls] == [4, 6, 6, 9, 3, 4, 3]
    etas = [forcing_term(b) for _, b, _, _ in calls]
    assert [eta == rtol for eta, (_, _, rtol, _) in zip(etas, calls)] == [True] * 6 + [False]
    assert etas[-1] < 1e-9 and calls[-1][2] == 1e-2


def _step(data, u, w, kept, H=None):
    """One coupled Newton step from ``(u, w)`` under the default options,
    capped at a weight change of 1, with ``H(u)`` computed unless given."""
    from amce import discrete_hessian
    from amce.coupled import _newton_step

    H = discrete_hessian(u) if H is None else H
    return _newton_step(data, u, H, w, 1.0, CoupledOptions().outer_tol, kept)


def _handed(u, factor_of):
    """``kept`` holding one factor: of the operator of ``u`` moved by 1e-12,
    which every solve can use, or of its diagonal, which none can."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    from amce import discrete_hessian
    from amce.lma import assemble_lma
    from amce.operators import factor_lu

    A = assemble_lma(discrete_hessian(u.with_values(u.values * (1.0 + 1e-12))))
    if factor_of == "diagonal":
        A = sp.diags(A.diagonal()).tocsc()
    return [factor_lu(splu, A, u.grid)]


def _exact(grid):
    from amce import ScalarField

    exact = get_fixture("radial_quartic", theta=0.25)
    return (
        problem_from_exact(grid, exact),
        ScalarField.from_callable(grid, exact.u),
        ScalarField.from_callable(grid, exact.w),
    )


def _determinant_solve(grid, factor_of, monkeypatch):
    from amce.ma import MAProblem, solve_ma

    data, u, w = _exact(grid)
    kept = _handed(u, factor_of)
    problem = MAProblem(grid=grid, g=g_from_w(w, data.theta), phi_hits=data.phi_hits)
    _, report = solve_ma(problem, initial=u.with_values(u.values * (1.0 + 1e-6)), kept=kept)
    assert report.iterations > 0
    return kept


def _linear_solve(grid, factor_of, monkeypatch):
    from amce import discrete_hessian
    from amce.lma import LMAProblem, solve_lma

    data, u, _ = _exact(grid)
    kept = _handed(u, factor_of)
    problem = LMAProblem(
        hessian=discrete_hessian(u), g=data.f.values, psi_hits=data.psi_hits
    )
    solve_lma(problem, kept=kept)
    return kept


def _coupled_step(grid, factor_of, monkeypatch):
    data, u, w = _exact(grid)
    kept = _handed(u, factor_of)
    assert _step(data, u, w, kept) is not None
    return kept


def _full_solve(name):
    def call(grid, factor_of, monkeypatch):
        import amce.coupled

        lists = []

        def recorded(grid, kept):
            lists.append(kept)
            return poisson_solver(grid, kept)

        poisson_solver = amce.coupled.poisson_solver
        monkeypatch.setattr(amce.coupled, "poisson_solver", recorded)
        solve_system(problem_from_exact(grid, get_fixture(name, theta=0.25)))
        [kept] = lists
        return kept

    return call


@pytest.mark.parametrize(
    "call, factor_of, made",
    [
        pytest.param(_determinant_solve, "nearby", 0, id="solve_ma-handed"),
        pytest.param(_determinant_solve, "diagonal", 1, id="solve_ma-own"),
        pytest.param(_linear_solve, "nearby", 0, id="solve_lma-handed"),
        pytest.param(_linear_solve, "diagonal", 1, id="solve_lma-own"),
        pytest.param(_coupled_step, "nearby", 0, id="_newton_step-handed"),
        pytest.param(_coupled_step, "diagonal", 1, id="_newton_step-own"),
        pytest.param(_full_solve("radial_quartic"), None, 2, id="radial_quartic"),
        pytest.param(_full_solve("radial_mild"), None, 1, id="radial_mild"),
    ],
)
def test_kept_holds_the_factor_the_call_solved_through(
    grid16, monkeypatch, call, factor_of, made
):
    """When a determinant solve, a linear solve or a coupled Newton step is
    done, ``kept`` holds the factor it last solved through: the handed
    one when it serves, and otherwise the call's own, made after the
    handed one is dropped.  After a whole ``radial_quartic`` solve
    ``kept`` holds the last factor made, its seventh Newton step's own,
    and after a ``radial_mild`` one the Laplacian's, the only one made.
    ``made`` counts the call's factorizations, and at none is a
    second factor alive, the handed one included."""
    import weakref

    from amce.operators import PermutedLU

    solved = []  # a weak reference to each factor solved through, in order
    solve = PermutedLU.solve

    def recorded(self, *args, **kwargs):
        solved.append(weakref.ref(self))
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(PermutedLU, "solve", recorded)
    live = _track_live_factors(monkeypatch)
    kept = call(grid16, factor_of, monkeypatch)
    assert len(live) == made
    assert max(live, default=0) == 0
    [last] = kept
    assert last is solved[-1]()


@pytest.mark.parametrize("name", ["radial_quartic", "radial_mild"])
@pytest.mark.parametrize("grid_name", ["grid32", "grid64"])
def test_poisson_start_of_a_radial_fixture_takes_no_newton_step(name, grid_name, request):
    """A radial fixture's first weight is constant, so the coupled solve's
    Poisson start is its first determinant solve's solution up to round-off:
    refined once through the shared Laplacian factor, it is within
    ``BERR_TOL`` round-off floors, and ``solve_ma`` takes no step.  Without
    the refinement both fixtures take one at h = 1/64."""
    from amce import ScalarField
    from amce.ma import MAProblem, initial_guess, solve_ma
    from amce.operators import poisson_solver

    grid = request.getfixturevalue(grid_name)
    data = problem_from_exact(grid, get_fixture(name, theta=0.25))
    poisson = poisson_solver(grid)
    w = ScalarField(
        grid=grid,
        values=poisson(np.zeros(grid.n_nodes), data.psi_hits),
        hit_values=data.psi_hits,
    )
    problem = MAProblem(grid=grid, g=g_from_w(w, data.theta), phi_hits=data.phi_hits)
    _, report = solve_ma(problem, initial=initial_guess(problem, poisson))
    assert report.iterations == 0


# a newton_tol below every residual the paraboloid_r2 solves at h = 1/88
# reach, whatever the round-off of the factor, so only the backward error
# can end their Newton iterations
_BELOW_REACH = 1e-14


def _paraboloid_r2_88():
    from amce import Disk, build_grid

    grid = build_grid(Disk(radius=1.0), 1.0 / 88.0)
    exact = get_fixture("paraboloid_r2", theta=0.25)
    return grid, exact, problem_from_exact(grid, exact)


def test_newton_stops_at_its_backward_error(monkeypatch):
    """paraboloid_r2 at h = 1/88 with newton_tol = 1e-14, below any
    residual the determinant solves reach, so both stop above it: each
    stops within BERR_TOL round-off floors at every node, without a
    backtrack, and the solve reproduces the quadratic."""
    import amce.coupled
    import amce.ma

    grid, exact, problem = _paraboloid_r2_88()
    ends = []

    def recorded(ma_problem, options=None, initial=None, **kwargs):
        u, rep = solve_ma(ma_problem, options, initial, **kwargs)
        g = ma_problem.g.values
        H = amce.ma.discrete_hessian(u)
        res = np.abs(H.det() - g)
        ends.append((res.max(), (res / amce.ma.roundoff_floor(u, H, g)).max()))
        return u, rep

    solve_ma = amce.coupled.solve_ma
    monkeypatch.setattr(amce.coupled, "solve_ma", recorded)
    options = CoupledOptions(newton_tol=_BELOW_REACH)
    u, w, report = solve_system(problem, options)
    tol = options.newton_tol
    assert report.backtracks_total == 0
    assert len(ends) == 2
    for sup, berr in ends:
        assert berr <= amce.ma.BERR_TOL or sup <= tol
    assert min(sup for sup, _ in ends) > tol
    assert np.abs(u.values - exact.u(grid.nodes)).max() < 1e-10
    assert np.abs(w.values - exact.w(grid.nodes)).max() < 1e-10


def test_newton_stall_above_the_floor_raises(monkeypatch):
    """With every round-off floor a millionth of its size, the same solve
    cannot reach BERR_TOL, nor the newton_tol below reach, and its stalled
    line search raises."""
    import amce.ma
    from amce import NonConvergenceError

    _, _, problem = _paraboloid_r2_88()
    floor = amce.ma.roundoff_floor
    monkeypatch.setattr(
        amce.ma, "roundoff_floor", lambda u, H, g: 1e-6 * floor(u, H, g)
    )
    with pytest.raises(NonConvergenceError, match="line search stalled"):
        solve_system(problem, CoupledOptions(newton_tol=_BELOW_REACH))


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
