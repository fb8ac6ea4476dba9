"""Frozen-coefficient linear solve: exactness, maximum principle, audits."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from amce import Disk, ScalarField, build_grid
from amce.errors import DegenerateOperatorError
from amce.lma import (
    LMAProblem,
    assemble_lma,
    offdiagonal_sign_audit,
    solve_lma,
)
from amce.operators import COUNTS, discrete_hessian, factor_lu, pivoting_lu
from oracles import divergence_of_cofactor

def test_quadratic_solution_reproduced(grid32):
    """With identity coefficients, the solve is a Poisson solve: the
    quadratic with trace g is reproduced through the boundary data."""
    uq = ScalarField.from_callable(grid32, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    H = discrete_hessian(uq)
    target = lambda p: 0.3 * p[:, 0] ** 2 - 0.1 * p[:, 1] ** 2 + p[:, 0]
    g = np.full(grid32.n_nodes, 2 * 0.3 - 2 * 0.1)
    v, report = solve_lma(
        LMAProblem(hessian=H, g=g, psi_hits=target(grid32.hit_points))
    )
    assert np.abs(v.values - target(grid32.nodes)).max() < 1e-9
    assert report.backward_error < 1e-12


def test_maximum_principle_nonnegative_g(grid32):
    uq = ScalarField.from_callable(grid32, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    H = discrete_hessian(uq)
    g = np.abs(np.sin(3.0 * grid32.nodes[:, 0]))
    psi = 1.0 + 0.2 * grid32.hit_points[:, 0]
    v, _ = solve_lma(LMAProblem(hessian=H, g=g, psi_hits=psi))
    assert v.values.max() <= psi.max() + 10.0 * grid32.h**2


def test_divergence_of_cofactor_second_order():
    """Discrete div of each cofactor row vanishes at O(h^2) for smooth u."""
    fn = lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2) + 0.1 * np.exp(
        p[:, 0] + 0.5 * p[:, 1]
    )
    sups = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        grid = build_grid(Disk(radius=1.0), h)
        u = ScalarField.from_callable(grid, fn)
        div, mask = divergence_of_cofactor(discrete_hessian(u))
        sups.append(float(np.abs(div[mask]).max()))
    rates = [np.log2(sups[i] / sups[i + 1]) for i in range(len(sups) - 1)]
    assert min(rates) > 1.5
    assert sups[-1] < sups[0]


def test_sign_audit_reports_offdiagonal_violations(grid16):
    """Cross-derivative coupling breaks the M-matrix sign pattern for
    strongly sheared coefficients; the audit must report it, not hide it."""
    us = ScalarField.from_callable(
        grid16,
        lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2) + 0.45 * p[:, 0] * p[:, 1],
    )
    H = discrete_hessian(us)
    from amce.lma import assemble_lma

    D = assemble_lma(H)
    audit = offdiagonal_sign_audit(D)
    assert audit["rows_with_negative_offdiagonal"] > 0
    # identity coefficients keep the clean sign pattern away from shear
    uq = ScalarField.from_callable(grid16, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    D2 = assemble_lma(discrete_hessian(uq))
    audit2 = offdiagonal_sign_audit(D2)
    assert audit2["rows_with_negative_offdiagonal"] == 0


def _reference_sign_audit(D):
    """The audit that counted the offending rows with ``np.unique``."""
    coo = D.tocoo()
    off = coo.row != coo.col
    scale = float(np.max(np.abs(coo.data))) if coo.nnz else 1.0
    bad_rows = np.unique(coo.row[off & (coo.data < -1e-14 * scale)])
    n = D.shape[0]
    return {
        "rows_with_negative_offdiagonal": int(len(bad_rows)),
        "fraction": float(len(bad_rows) / max(n, 1)),
    }


@pytest.mark.parametrize("shear", [0.0, 0.2, 0.45])
def test_sign_audit_counts_rows_as_the_unique_reference(grid32, shear):
    """The row mask counts each offending row once, as ``np.unique`` did,
    also on a matrix with repeated entries, empty rows and no rows."""
    u = ScalarField.from_callable(
        grid32,
        lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2) + shear * p[:, 0] * p[:, 1],
    )
    from amce.lma import assemble_lma
    import scipy.sparse as sps

    D = assemble_lma(discrete_hessian(u))
    assert offdiagonal_sign_audit(D) == _reference_sign_audit(D)
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 40, size=(2, 300))  # repeated (row, col) pairs
    M = sps.coo_matrix((rng.standard_normal(300), (rows, cols)), shape=(45, 40))
    assert offdiagonal_sign_audit(M) == _reference_sign_audit(M)
    empty = sps.csr_matrix((0, 0))
    assert offdiagonal_sign_audit(empty) == _reference_sign_audit(empty)


def test_indefinite_coefficients_rejected(grid16):
    saddle = ScalarField.from_callable(grid16, lambda p: p[:, 0] ** 2 - p[:, 1] ** 2)
    H = discrete_hessian(saddle)
    with pytest.raises(DegenerateOperatorError):
        solve_lma(
            LMAProblem(
                hessian=H,
                g=np.zeros(grid16.n_nodes),
                psi_hits=np.ones(grid16.n_hits),
            )
        )


def test_report_carries_backward_error_and_condition(grid16):
    uq = ScalarField.from_callable(grid16, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2))
    H = discrete_hessian(uq)
    _, report = solve_lma(
        LMAProblem(
            hessian=H,
            g=np.zeros(grid16.n_nodes),
            psi_hits=np.ones(grid16.n_hits),
        ),
        report_condition=True,
    )
    d = dataclasses.asdict(report)
    assert d["backward_error"] < 1e-12
    assert d["condition_estimate"] > 1.0
    assert "sign_audit" in d


def _smooth_convex(grid):
    return ScalarField.from_callable(
        grid,
        lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2) + 0.1 * np.exp(p[:, 0] + 0.5 * p[:, 1]),
    )


def _given_factor_problem(grid):
    u = _smooth_convex(grid)
    problem = LMAProblem(
        hessian=discrete_hessian(u),
        g=np.full(grid.n_nodes, -1.0),
        psi_hits=1.0 + 0.2 * grid.hit_points[:, 0],
    )
    # the operator of a u moved by about 1e-11, as between the coupled
    # solve's last Newton step and its polish
    nearby = u.with_values(u.values + 1e-11 * np.sin(7.0 * grid.nodes[:, 0]))
    return problem, assemble_lma(discrete_hessian(nearby))


def _solve_counting(problem, lu, **kwargs):
    start = COUNTS.copy()
    kept = [lu]
    v, report = solve_lma(problem, kept=kept, **kwargs)
    return v, report, COUNTS - start, kept


def test_nearby_factor_is_used_without_a_factorization(grid32):
    """A factor of a nearby operator refines to the tolerance: no factor is
    made, ``v`` is a fresh solve's up to round-off, and the factor, the
    one the solve solved through, goes back into ``kept``."""
    from scipy.sparse.linalg import splu

    problem, A = _given_factor_problem(grid32)
    want, _ = solve_lma(problem)
    handed = factor_lu(splu, A, grid32)
    v, report, counts, kept = _solve_counting(problem, handed)
    assert counts["factorizations"] == 0
    assert report.backward_error <= 1e-10
    assert report.pivoting_refactors == 0
    assert np.abs(v.values - want.values).max() < 1e-12
    [back] = kept
    assert back is handed


def test_nearby_default_pivoting_factor_is_no_retry(grid32):
    """A handed factor made with partial pivoting (``perm`` None) refines to
    the tolerance like any other: no factor is made, and the report counts
    no default-pivoting retry, since this solve made none; the factor goes
    back into ``kept``."""
    from scipy.sparse.linalg import splu

    problem, A = _given_factor_problem(grid32)
    lu = pivoting_lu(splu, A)
    assert lu.perm is None
    v, report, counts, kept = _solve_counting(problem, lu)
    assert counts["factorizations"] == 0
    assert report.backward_error <= 1e-10
    assert report.pivoting_refactors == 0
    [back] = kept
    assert back is lu


def _factor_of_multiple(c):
    def factor(A, **kwargs):
        from scipy.sparse.linalg import splu

        return splu(c * A, **kwargs)

    return factor


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_factor_of_a_multiple_is_used_through_scaled_passes(grid32, c):
    """A factor of ``c D`` is solved through exactly by the minimal-residual
    passes, which scale each correction by ``1/c``: no factor is made, no
    GMRES iteration runs, the backward error is at the round-off floor, and
    the factor goes back into ``kept`` as it was."""
    problem, _ = _given_factor_problem(grid32)
    D = assemble_lma(problem.hessian)
    want, _ = solve_lma(problem)
    handed = factor_lu(_factor_of_multiple(c), D, grid32)
    v, report, counts, kept = _solve_counting(problem, handed)
    assert counts["factorizations"] == 0
    assert counts["krylov_iterations_total"] == 0
    assert report.backward_error <= 1e-15
    assert report.pivoting_refactors == 0
    assert np.abs(v.values - want.values).max() < 1e-12
    assert kept == [handed]


def test_condition_estimate_comes_from_the_operators_own_factor(grid32):
    """With ``report_condition`` a handed factor is dropped unused: ``D``'s
    own is made, goes into ``kept``, and the estimate is a plain solve's,
    bit for bit."""
    problem, _ = _given_factor_problem(grid32)
    D = assemble_lma(problem.hessian)
    _, want = solve_lma(problem, report_condition=True)
    handed = factor_lu(_factor_of_multiple(2.0), D, grid32)
    _, report, counts, kept = _solve_counting(problem, handed, report_condition=True)
    assert counts["factorizations"] == 1
    [own] = kept
    assert own is not handed
    assert report.condition_estimate == want.condition_estimate


def _factor_of_diagonal(A, **kwargs):
    from scipy.sparse.linalg import splu

    return splu(sp.diags(A.diagonal()).tocsc(), **kwargs)


def _sheared_problem(grid):
    from amce.fixtures import get_fixture

    u = ScalarField.from_callable(grid, get_fixture("sheared_half", theta=0.25).u)
    return LMAProblem(
        hessian=discrete_hessian(u),
        g=np.full(grid.n_nodes, -1.0),
        psi_hits=1.0 + 0.2 * grid.hit_points[:, 0],
    )


def test_factor_of_another_operator_is_rescued_by_gmres(grid32):
    """The Laplacian's factor, for the operator of ``sheared_half``, which is
    no multiple of it, misses the tolerance through the minimal-residual
    passes; GMRES through it, from their last iterate, reaches the round-off
    floor within its budget.  No factor is made, and the handed factor goes back into
    ``kept`` as it was."""
    from amce.operators import KRYLOV_HELD_CYCLES, poisson_solver

    problem = _sheared_problem(grid32)
    want, _ = solve_lma(problem)
    handed: list = []
    poisson_solver(grid32, handed)
    lap = handed[0]
    v, report, counts, kept = _solve_counting(problem, handed.pop())
    assert counts["factorizations"] == 0
    assert 0 < counts["krylov_iterations_total"] < 10 * KRYLOV_HELD_CYCLES
    assert report.backward_error <= 1e-15
    assert report.pivoting_refactors == 0
    assert np.abs(v.values - want.values).max() < 1e-12
    assert kept == [lap]


def test_bad_factor_is_replaced_by_one_fresh_factor(grid32):
    """A factor that neither the minimal-residual passes nor GMRES's budget
    brings within the tolerance (the factor of ``D``'s diagonal alone, for
    the operator of ``sheared_half``) is dropped, and one symmetric-mode
    factor of the operator itself is made in its place and goes into
    ``kept``."""
    from amce.operators import KRYLOV_HELD_CYCLES

    problem = _sheared_problem(grid32)
    want, _ = solve_lma(problem)
    D = assemble_lma(problem.hessian)
    handed = factor_lu(_factor_of_diagonal, D, grid32)
    v, report, counts, kept = _solve_counting(problem, handed)
    assert counts["factorizations"] == 1
    assert counts["pivoting_refactors"] == 0
    assert counts["krylov_iterations_total"] == 10 * KRYLOV_HELD_CYCLES
    assert report.backward_error <= 1e-10
    assert report.pivoting_refactors == 0
    assert np.abs(v.values - want.values).max() < 1e-12
    [own] = kept
    assert own is not handed and own.perm is not None


def test_matrix_free_product_is_the_assembled_one():
    """``apply_lma(H, x)`` is ``assemble_lma(H) @ x`` within a few ulps of
    ``|A||x|`` at every node of the 1.2 x 0.9 ellipse grid, cut cells
    included."""
    from amce.geometry import Ellipse
    from amce.lma import apply_lma

    grid = build_grid(Ellipse(a=1.2, b=0.9), 0.06)
    u = ScalarField.from_callable(
        grid, lambda p: np.exp(p[:, 0]) + p[:, 1] ** 2 + 0.3 * p[:, 0] * p[:, 1]
    )
    H = discrete_hessian(u)
    A = assemble_lma(H)
    x = np.random.default_rng(0).standard_normal(grid.n_nodes)
    scale = abs(A) @ np.abs(x)
    assert np.all(np.abs(apply_lma(H, x) - A @ x) <= 4.0 * np.finfo(float).eps * scale)
