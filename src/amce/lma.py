"""Linearized Monge-Ampere solver: U^ij v_ij = g with frozen coefficients.

The coefficient field is the cofactor of a discrete Hessian.  In two
dimensions the cofactor of ``[[a, b], [b, c]]`` is ``[[c, -b], [-b, a]]``;
its rows are divergence-free for exact Hessians, which is what puts the
operator in both divergence and non-divergence form in the continuum.  The
discretization here is the non-divergence form with node-wise frozen
coefficients, assembled from the cut-cell second-difference operators by
:func:`assemble_lma` (the Newton step of the nonlinear solver factors the
same operator), and solved with a sparse direct factorization.  The matrix is not symmetric and carries no M-matrix
guarantee; a sign-pattern audit and a condition estimate are reported
instead of a monotonicity assumption.  A :class:`FactorSlot` hands the
factorization on to a Newton step that needs the same matrix.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import DegenerateOperatorError, NonConvergenceError
from .grid import Grid, ScalarField
from .operators import HessianField, discrete_hessian, grid_operators

Array = np.ndarray


def cofactor_matrix(H: Array) -> Array:
    """Cofactor (adjugate) of symmetric 2x2 matrices, shape (..., 2, 2)."""
    U = np.empty_like(H)
    U[..., 0, 0] = H[..., 1, 1]
    U[..., 1, 1] = H[..., 0, 0]
    U[..., 0, 1] = -H[..., 0, 1]
    U[..., 1, 0] = -H[..., 1, 0]
    return U


@dataclass
class CofactorField:
    """Node-wise cofactor coefficients U11, U12, U22."""

    grid: Grid
    c11: Array
    c12: Array
    c22: Array

    @classmethod
    def from_hessian(cls, H: HessianField) -> "CofactorField":
        return cls(grid=H.grid, c11=H.hyy, c12=-H.hxy, c22=H.hxx)

    def det(self) -> Array:
        return self.c11 * self.c22 - self.c12**2

    def min_eigenvalue_per_node(self) -> Array:
        mean = 0.5 * (self.c11 + self.c22)
        rad = np.sqrt((0.5 * (self.c11 - self.c22)) ** 2 + self.c12**2)
        return mean - rad

    def check_positive_definite(self) -> None:
        lo = self.min_eigenvalue_per_node()
        k = int(np.argmin(lo))
        if lo[k] <= 0.0:
            x, y = self.grid.nodes[k]
            raise DegenerateOperatorError(
                f"coefficient matrix not positive definite at node {k} "
                f"({x:.6g}, {y:.6g}): min eigenvalue {lo[k]:.3e}",
                node=k,
                point=(float(x), float(y)),
            )

    def ellipticity_bounds(self) -> tuple[float, float]:
        lo = self.min_eigenvalue_per_node()
        hi = self.c11 + self.c22 - lo
        return float(lo.min()), float(hi.max())


class FactorSlot:
    """Holds at most one LU factor of :func:`assemble_lma`'s matrix.

    The coupled iteration's linear step factors the operator of
    ``cof H(u)``; the first Newton step of the next sweep starts from the
    same ``u`` and, when the eigenvalue clamp is a no-op, factors the very
    same matrix.  :func:`solve_lma` puts its factor here and
    :func:`amce.ma.solve_ma` takes it.  :meth:`take` hands the factor over
    only for bitwise equal coefficients on the same grid, and ``solve_ma``
    empties the slot even when it takes no Newton step, so the held factor
    is never alive at the next factorization.
    """

    def __init__(self) -> None:
        self._held: tuple[CofactorField, object] | None = None

    def put(self, coeff: CofactorField, lu) -> None:
        # copies: an in-place change of the caller's arrays must not match
        kept = CofactorField(
            coeff.grid, coeff.c11.copy(), coeff.c12.copy(), coeff.c22.copy()
        )
        self._held = (kept, lu)

    def clear(self) -> None:
        self._held = None

    def take(self, coeff: CofactorField):
        """The held factor if it was made from ``coeff`` exactly, else None."""
        held, self._held = self._held, None
        if held is None:
            return None
        kept, lu = held
        same = kept.grid is coeff.grid and all(
            _same_bits(getattr(kept, c), getattr(coeff, c))
            for c in ("c11", "c12", "c22")
        )
        return lu if same else None


def _same_bits(a: Array, b: Array) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@dataclass
class LMAProblem:
    """U^ij v_ij = g in the domain, v = psi on the boundary."""

    coeff: CofactorField
    g: Array
    psi_hits: Array

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.psi_hits = np.asarray(self.psi_hits, dtype=float)
        grid = self.coeff.grid
        if self.g.shape != (grid.n_nodes,):
            raise ValueError("g length does not match the grid")
        if self.psi_hits.shape != (grid.n_hits,):
            raise ValueError("psi_hits length does not match the grid")


@dataclass
class LMAReport:
    residual_sup: float
    backward_error: float
    sign_audit: dict
    condition_estimate: float | None = None

    def as_dict(self) -> dict:
        out = {
            "residual_sup": self.residual_sup,
            "backward_error": self.backward_error,
            "sign_audit": self.sign_audit,
        }
        if self.condition_estimate is not None:
            out["condition_estimate"] = self.condition_estimate
        return out


def assemble_lma(coeff: CofactorField) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """Interior matrix and boundary map of the frozen-coefficient operator."""
    ops = grid_operators(coeff.grid)
    D = (
        sp.diags(coeff.c11) @ ops["dxx"].D
        + 2.0 * sp.diags(coeff.c12) @ ops["dxy"].D
        + sp.diags(coeff.c22) @ ops["dyy"].D
    ).tocsc()
    B = (
        sp.diags(coeff.c11) @ ops["dxx"].B
        + 2.0 * sp.diags(coeff.c12) @ ops["dxy"].B
        + sp.diags(coeff.c22) @ ops["dyy"].B
    ).tocsr()
    return D, B


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
    bad_rows = np.unique(coo.row[off & (coo.data < -1e-14 * scale)])
    n = D.shape[0]
    return {
        "rows_with_negative_offdiagonal": int(len(bad_rows)),
        "fraction": float(len(bad_rows) / max(n, 1)),
    }


def solve_lma(
    problem: LMAProblem,
    tol: float = 1e-10,
    report_condition: bool = False,
    slot: FactorSlot | None = None,
) -> tuple[ScalarField, LMAReport]:
    """Direct solve of the frozen-coefficient problem.

    Iterative refinement (up to four passes, stopping when the algebraic
    residual no longer shrinks) keeps the solve at the round-off floor.
    Acceptance is judged by the componentwise backward error
    ``max_i |r_i| / (|D||v| + |B||psi| + |g|)_i``, which stays near
    machine epsilon even on cut cells whose stencil weights are huge; the
    reported residual is recomputed through the discrete Hessian route,
    i.e. it is ``U : H(v) - g`` node-wise.  A successful solve leaves its
    factor in ``slot`` when one is given.
    """
    coeff = problem.coeff
    coeff.check_positive_definite()
    grid = coeff.grid
    D, B = assemble_lma(coeff)
    psi = problem.psi_hits
    rhs = problem.g - (B @ psi if grid.n_hits else 0.0)
    try:
        lu = splu(D)
    except RuntimeError as exc:
        raise DegenerateOperatorError(f"LMA operator: {exc}") from exc
    v = lu.solve(rhs)
    prev = np.inf
    for _ in range(4):
        r = rhs - D @ v
        rn = float(np.max(np.abs(r)))
        if not np.isfinite(rn) or rn >= prev:
            break
        v = v + lu.solve(r)
        prev = rn

    field = ScalarField(grid=grid, values=v, hit_values=psi.copy())
    resid = lma_residual(field, coeff, problem.g)
    resid_sup = float(np.max(np.abs(resid)))
    denom = abs(D) @ np.abs(v) + np.abs(problem.g)
    if grid.n_hits:
        denom = denom + abs(B) @ np.abs(psi)
    denom = np.maximum(denom, np.finfo(float).tiny)
    backward = float(np.max(np.abs(resid) / denom))
    if not np.isfinite(backward) or backward > tol:
        raise NonConvergenceError(
            f"direct solve left componentwise backward error {backward:.3e} "
            f"above tolerance {tol} (residual sup {resid_sup:.3e})"
        )
    cond = None
    if report_condition:
        cond = _condition_estimate(D, lu)
    report = LMAReport(
        residual_sup=resid_sup,
        backward_error=backward,
        sign_audit=offdiagonal_sign_audit(D),
        condition_estimate=cond,
    )
    if slot is not None:
        slot.put(coeff, lu)
    return field, report


def lma_residual(v: ScalarField, coeff: CofactorField, g: Array) -> Array:
    """Node-wise ``U11 v_xx + 2 U12 v_xy + U22 v_yy - g``."""
    H = discrete_hessian(v)
    return coeff.c11 * H.hxx + 2.0 * coeff.c12 * H.hxy + coeff.c22 * H.hyy - np.asarray(g)


def _condition_estimate(D: sp.csc_matrix, lu) -> float:
    from scipy.sparse.linalg import LinearOperator, onenormest

    n = D.shape[0]
    inv = LinearOperator((n, n), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T"))
    return float(onenormest(D) * onenormest(inv))


def divergence_of_cofactor(coeff: CofactorField) -> tuple[Array, Array]:
    """Discrete row divergences of the cofactor field on full-stencil nodes.

    Returns ``(div, mask)`` where ``div[:, j] = d/dx U(1j) + d/dy U(2j)``
    and the mask marks nodes whose first-difference stencils stay interior
    (the cofactor has no boundary trace to difference through).
    """
    grid = coeff.grid
    ops = grid_operators(grid)
    # Valid rows need interior axis neighbors whose own Hessian stencils are
    # full, so the differenced coefficients carry a smooth error expansion.
    full = grid.full_stencil_mask()
    mask = full.copy()
    for d in range(4):
        nbr_ok = np.zeros(grid.n_nodes, dtype=bool)
        is_int = grid.arm_kind[:, d] == 0
        nbr_ok[is_int] = full[grid.arm_ref[is_int, d]]
        mask &= nbr_ok
    zeros = np.zeros(grid.n_hits)
    ddx = lambda vals: ops["dx"].apply(vals, zeros)
    ddy = lambda vals: ops["dy"].apply(vals, zeros)
    div1 = ddx(coeff.c11) + ddy(coeff.c12)
    div2 = ddx(coeff.c12) + ddy(coeff.c22)
    div = np.stack([div1, div2], axis=1)
    return div, mask
