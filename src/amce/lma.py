"""Linearized Monge-Ampere solver: U^ij v_ij = g with frozen coefficients.

The coefficients are ``U = cof H`` for a discrete Hessian ``H``, so the
operator is ``cof H : D^2``.  In two dimensions the cofactor of
``[[a, b], [b, c]]`` is ``[[c, -b], [-b, a]]``, a relabelling of the entries
of ``H``, so every function here takes the :class:`HessianField` itself.
The rows of ``cof H`` are divergence-free for exact Hessians, which is what
puts the operator in both divergence and non-divergence form in the
continuum.  The discretization here is the non-divergence form with
node-wise frozen coefficients, assembled from the cut-cell second-difference
operators by :func:`assemble_lma` (the Newton step of the nonlinear solver
solves with the same operator), and solved through a sparse LU factor.
The matrix is not symmetric and carries no M-matrix guarantee; a
sign-pattern audit and a condition estimate are reported instead of a
monotonicity assumption.  A call of :func:`solve_lma` solves through a
factor handed to it when that meets the tolerance, by minimal-residual
passes through it and then GMRES, and through its own factorization
otherwise; it hands on the factor it solved through, the one rule of
:func:`amce.coupled.solve_system`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DegenerateOperatorError, NonConvergenceError
from .grid import Grid, ScalarField, require_finite
from .operators import (
    COUNTS,
    HessianField,
    discrete_hessian,
    factor_lu,
    gmres,
    grid_operators,
    pivoting_lu,
)

Array = np.ndarray

#: Default bound on the componentwise backward error of :func:`solve_lma`.
LMA_TOL = 1e-10
#: GMRES tolerance, relative to the right-hand side in the 2-norm, of a
#: solve through a handed factor that refinement leaves above the bound: a
#: few ulps, about what a direct solve refined once leaves.
_RESCUE_RTOL = 4.0 * np.finfo(float).eps


@dataclass
class LMAProblem:
    """U^ij v_ij = g in the domain, v = psi on the boundary, U = cof H."""

    hessian: HessianField
    g: Array
    psi_hits: Array

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.psi_hits = np.asarray(self.psi_hits, dtype=float)
        grid = self.hessian.grid
        if self.g.shape != (grid.n_nodes,):
            raise ValueError("g length does not match the grid")
        if self.psi_hits.shape != (grid.n_hits,):
            raise ValueError("psi_hits length does not match the grid")
        require_finite(g=self.g, psi=self.psi_hits)


@dataclass
class LMAReport:
    residual_sup: float
    backward_error: float
    sign_audit: dict
    condition_estimate: float | None = None
    pivoting_refactors: int = 0  # default-pivoting retries of the factor


def assemble_lma(H: HessianField) -> sp.csc_matrix:
    """Interior matrix of ``cof H : D^2``; see :func:`_cofactor_operator`."""
    return _cofactor_operator(H, "D").tocsc()


def _cofactor_operator(H: HessianField, part: str) -> sp.spmatrix:
    """``hyy Dxx - 2 hxy Dxy + hxx Dyy``, node-wise, on the ``part``
    (``"D"`` interior, ``"B"`` boundary) of the second-difference operators."""
    xx, xy, yy = (getattr(grid_operators(H.grid, n), part) for n in ("dxx", "dxy", "dyy"))
    return sp.diags(H.hyy) @ xx - 2.0 * sp.diags(H.hxy) @ xy + sp.diags(H.hxx) @ yy


def offdiagonal_sign_audit(D: sp.spmatrix) -> dict:
    """Fraction of rows violating the monotone sign pattern.

    The operator is written with negative center weights, so a discrete
    maximum principle would need every off-diagonal entry to be
    nonnegative.  The cross-derivative stencil breaks that whenever the
    off-diagonal coefficient is large enough; this reports how many rows
    break the pattern so maximum-principle checks can be read honestly.
    """
    coo = D.tocoo()
    off = coo.row != coo.col
    scale = float(np.max(np.abs(coo.data))) if coo.nnz else 1.0
    n = D.shape[0]
    bad = np.zeros(n, dtype=bool)
    bad[coo.row[off & (coo.data < -1e-14 * scale)]] = True
    n_bad = int(np.count_nonzero(bad))
    return {
        "rows_with_negative_offdiagonal": n_bad,
        "fraction": float(n_bad / max(n, 1)),
    }


def solve_lma(
    problem: LMAProblem,
    tol: float = LMA_TOL,
    report_condition: bool = False,
    kept: list | None = None,
) -> tuple[ScalarField, LMAReport]:
    """Direct solve of the frozen-coefficient problem.

    Every solve through a factor is refined by the minimal-residual passes
    of :func:`_refined_solve`, which keep it at the round-off floor.
    Acceptance is judged by the componentwise backward error
    ``max_i |r_i| / (|D||v| + |B||psi| + |g|)_i``, which stays near
    machine epsilon even on cut cells whose stencil weights are huge; the
    reported residual is recomputed through the discrete Hessian route,
    i.e. it is ``U : H(v) - g`` node-wise.

    ``kept``, when given, is the coupled solve's list of held factors
    (:func:`amce.coupled.solve_system` says which), and the factor held
    there is taken out of it and tried first: the passes run against the
    exact ``D`` through it.  When they miss ``tol``, restarted GMRES
    left-preconditioned by the factor runs from their last iterate
    (:func:`amce.operators.gmres`, within ``KRYLOV_HELD_CYCLES`` cycles,
    to a relative residual of a few ulps, ``_RESCUE_RTOL``).  No
    factor is made when either meets ``tol``.  Otherwise that factor is
    dropped and ``D``'s own is made by :func:`amce.operators.factor_lu`; so
    it is too when ``report_condition`` asks for the condition estimate,
    which must come from ``D``'s own factor.  When the call is done,
    ``kept`` holds the factor it solved through, handed or its own.
    Symmetric mode keeps a diagonal pivot however small, so when the passes
    through it leave the backward error above ``tol``, ``D`` is factored
    once more by :func:`amce.operators.pivoting_lu` and solved again, and
    the tolerance judges that solve.  ``report.pivoting_refactors`` is the
    number of default-pivoting factors the call made, by either retry, read
    off :data:`amce.operators.COUNTS`: 0 or 1.
    """
    H = problem.hessian
    grid = H.grid
    # cof H has the eigenvalues of H
    lo, _ = H.eigenvalues()
    k = int(np.argmin(lo))
    if lo[k] <= 0.0:
        x, y = grid.nodes[k]
        raise DegenerateOperatorError(
            f"coefficient matrix not positive definite at node {k} "
            f"({x:.6g}, {y:.6g}): min eigenvalue {lo[k]:.3e}",
            node=k,
            point=(float(x), float(y)),
        )
    D = assemble_lma(H)
    B = _cofactor_operator(H, "B").tocsr()
    start = COUNTS["pivoting_refactors"]
    lu = kept.pop() if kept else None
    if report_condition:
        lu = None  # the estimate must come from D's own factor
    if lu is not None:
        field, resid_sup, backward = _refined_solve(problem, D, B, lu)
        if not backward <= tol:
            v = gmres(
                D.dot, problem.g - B @ problem.psi_hits, lu.solve, _RESCUE_RTOL,
                x0=field.values,
            )
            if v is not None:
                field, resid_sup, backward = _measured(problem, D, B, v)
        if not backward <= tol:
            lu = None  # dropped before D's own factor is made
    if lu is None:
        try:
            lu = factor_lu(splu, D, grid)
        except RuntimeError as exc:
            raise DegenerateOperatorError(f"LMA operator: {exc}") from exc
        field, resid_sup, backward = _refined_solve(problem, D, B, lu)
        if not backward <= tol and lu.perm is not None:
            lu = None  # dropped before the retry is made
            try:
                lu = pivoting_lu(splu, D)
            except RuntimeError as exc:
                raise DegenerateOperatorError(f"LMA operator: {exc}") from exc
            field, resid_sup, backward = _refined_solve(problem, D, B, lu)
    if not np.isfinite(backward) or backward > tol:
        raise NonConvergenceError(
            f"direct solve left componentwise backward error {backward:.3e} "
            f"above tolerance {tol} (residual sup {resid_sup:.3e})"
        )
    if kept is not None:
        kept.append(lu)
    cond = None
    if report_condition:
        cond = _condition_estimate(D, lu)
    report = LMAReport(
        residual_sup=resid_sup,
        backward_error=backward,
        sign_audit=offdiagonal_sign_audit(D),
        condition_estimate=cond,
        pivoting_refactors=COUNTS["pivoting_refactors"] - start,
    )
    return field, report


def _refined_solve(problem: LMAProblem, D, B, lu) -> tuple[ScalarField, float, float]:
    """``(v, residual sup, componentwise backward error)`` through ``lu``.

    ``v = lu.solve(rhs)`` is refined by minimal-residual passes:
    ``z = lu.solve(r)``, ``v += a z`` with ``a = (Dz . r) / (Dz . Dz)``, the
    ``a`` that minimizes the next residual in the 2-norm.  This is GMRES(1),
    Saad's MR iteration preconditioned by ``lu`` (*Iterative Methods for
    Sparse Linear Systems*, 2nd ed., §5.3.2); when ``D`` is ``c`` times the
    factored operator, ``a = 1/c`` and one pass reaches the round-off floor.
    At most eight passes run, while the residual sup shrinks.
    """
    rhs = problem.g - B @ problem.psi_hits
    v = lu.solve(rhs)
    prev = np.inf
    for _ in range(8):
        r = rhs - D @ v
        rn = float(np.max(np.abs(r)))
        if not 0.0 < rn < prev:
            break
        z = lu.solve(r)
        Dz = D @ z
        z *= float(Dz @ r) / float(Dz @ Dz)
        v = v + z
        prev = rn
    return _measured(problem, D, B, v)


def _measured(problem: LMAProblem, D, B, v: Array) -> tuple[ScalarField, float, float]:
    """``(v, residual sup, componentwise backward error)`` of the solution ``v``."""
    psi = problem.psi_hits
    field = ScalarField(grid=problem.hessian.grid, values=v, hit_values=psi.copy())
    resid = lma_residual(field, problem.hessian, problem.g)
    denom = abs(D) @ np.abs(v) + np.abs(problem.g) + abs(B) @ np.abs(psi)
    denom = np.maximum(denom, np.finfo(float).tiny)
    backward = float(np.max(np.abs(resid) / denom))
    return field, float(np.max(np.abs(resid))), backward


def lma_residual(v: ScalarField, H: HessianField, g: Array) -> Array:
    """Node-wise ``cof H : D^2 v - g = hyy v_xx - 2 hxy v_xy + hxx v_yy - g``."""
    Hv = discrete_hessian(v)
    return cofactor_contraction(H, Hv.hxx, Hv.hxy, Hv.hyy) - np.asarray(g)


def cofactor_contraction(H: HessianField, xx: Array, xy: Array, yy: Array) -> Array:
    """Node-wise ``cof H : X = hyy xx - 2 hxy xy + hxx yy`` for the second
    differences ``(xx, xy, yy)`` of some field, the one formula of
    :func:`lma_residual`, :func:`apply_lma` and the coupled Newton step's
    Jacobian products (:func:`amce.coupled._newton_step`)."""
    return H.hyy * xx - 2.0 * H.hxy * xy + H.hxx * yy


def second_differences(grid: Grid, x: Array) -> tuple[Array, Array, Array]:
    """``(Dxx x, Dxy x, Dyy x)`` through the grid's own interior
    second-difference operators, so no stacked copy of them is made."""
    return tuple(grid_operators(grid, name).D @ x for name in ("dxx", "dxy", "dyy"))


def apply_lma(H: HessianField, x: Array) -> Array:
    """``assemble_lma(H) @ x`` without the matrix: the
    :func:`cofactor_contraction` of ``x``'s :func:`second_differences`."""
    return cofactor_contraction(H, *second_differences(H.grid, x))


def _condition_estimate(D: sp.csc_matrix, lu) -> float:
    """``||D||_1 ||D^-1||_1``, the first factor exact.

    The second is estimated from the all-ones start alone (``t=1``), so no
    random column is drawn and the estimate repeats from run to run.
    """
    from scipy.sparse.linalg import LinearOperator, onenormest

    n = D.shape[0]
    inv = LinearOperator((n, n), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T"))
    return float(abs(D).sum(axis=0).max() * onenormest(inv, t=1))
