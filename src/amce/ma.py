"""Dirichlet solver for the discrete Monge-Ampere equation det D^2 u = g.

Damped Newton iteration on the node-wise residual ``det H(u) - g`` where
``H`` is the cut-cell discrete Hessian.  The directional derivative of the
determinant is the cofactor contraction

    d/dt det(H + t E) |_0 = U : E,      U = cof H,

so each Newton step solves the sparse linearized problem
``(U11 Dxx + 2 U12 Dxy + U22 Dyy) delta = -(det H(u) - g)`` with the
cofactor frozen at the current iterate: the operator of
:func:`amce.lma.assemble_lma`.  Eigenvalues of ``H`` are clamped
from below before forming ``U`` so the linearization stays elliptic when an
iterate grazes the convexity boundary; a backtracking line search enforces
decrease of the residual sup norm.

The initial iterate solves ``lap u0 = 2 sqrt(g)``, which matches the target
determinant where the Hessian is isotropic and is exact for quadratic data.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.sparse.linalg import splu

from .errors import (
    ConvexityFailureError,
    DegenerateOperatorError,
    InvalidProblemError,
    NonConvergenceError,
)
from .grid import Grid, ScalarField
from .lma import CofactorField, FactorSlot, assemble_lma
from .operators import discrete_hessian, solve_poisson

Array = np.ndarray


@dataclass
class MAProblem:
    """det D^2 u = g in the domain, u = phi on the boundary."""

    grid: Grid
    g: ScalarField
    phi_hits: Array

    def __post_init__(self):
        self.phi_hits = np.asarray(self.phi_hits, dtype=float)
        if self.phi_hits.shape != (self.grid.n_hits,):
            raise ValueError("phi_hits length does not match the grid")
        if float(self.g.values.min()) <= 0.0:
            raise InvalidProblemError(
                f"right-hand side must be positive, min g = {self.g.values.min()}"
            )

    @classmethod
    def from_callables(cls, grid: Grid, g_fn, phi_fn) -> "MAProblem":
        return cls(
            grid=grid,
            g=ScalarField.from_callable(grid, g_fn),
            phi_hits=np.asarray(phi_fn(grid.hit_points), dtype=float),
        )


# backtracking line search: step shrink factor, shrinks per step, and the
# sufficient-decrease constant of the residual sup norm
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30
_ARMIJO = 1e-4


@dataclass
class MASolveOptions:
    newton_tol: float = 1e-10
    max_iters: int = 50
    eps_clamp: float = 1e-10


@dataclass
class MAReport:
    iterations: int
    residual_history: list[float]
    min_hessian_eigenvalue: float
    backtracks: int = 0
    factorizations: int = 0  # Newton steps that factored their matrix
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "backtracks": self.backtracks,
            "factorizations": self.factorizations,
        }


def initial_guess(problem: MAProblem) -> ScalarField:
    """Poisson start: solve ``lap u0 = 2 sqrt(g)`` with the same boundary data."""
    rhs = 2.0 * np.sqrt(problem.g.values)
    vals = solve_poisson(problem.grid, rhs, problem.phi_hits)
    return ScalarField(grid=problem.grid, values=vals, hit_values=problem.phi_hits)


def ma_residual(u: ScalarField, g: ScalarField) -> Array:
    """Node-wise ``det H(u) - g``."""
    return discrete_hessian(u).det() - g.values


def solve_ma(
    problem: MAProblem,
    options: MASolveOptions | None = None,
    initial: ScalarField | None = None,
    slot: FactorSlot | None = None,
) -> tuple[ScalarField, MAReport]:
    """Damped Newton solve; returns the solution field and an iteration report.

    The first Newton step takes the factor held in ``slot`` when it was
    made from its exact coefficients, instead of factoring them again; the
    slot is empty on return.

    Raises NonConvergenceError when the iteration budget or the line search
    is exhausted, and ConvexityFailureError if the converged discrete
    Hessian is not positive definite.
    """
    opts = options or MASolveOptions()
    t0 = time.perf_counter()
    u = initial.copy() if initial is not None else initial_guess(problem)
    if initial is not None:
        u.hit_values = problem.phi_hits.copy()

    history: list[float] = []
    total_backtracks = 0
    H = discrete_hessian(u)
    res = H.det() - problem.g.values
    res_norm = float(np.max(np.abs(res)))
    history.append(res_norm)

    iters = factorizations = 0
    while res_norm > opts.newton_tol:
        if iters >= opts.max_iters:
            raise NonConvergenceError(
                f"Newton did not reach tol {opts.newton_tol} in "
                f"{opts.max_iters} iterations (last residual {res_norm:.3e})",
                history=history,
            )
        coeff = CofactorField.from_hessian(H.clamped(opts.eps_clamp))
        lu = slot.take(coeff) if slot is not None else None
        if lu is None:
            J, _ = assemble_lma(coeff)
            try:
                lu = splu(J)
            except RuntimeError as exc:
                raise DegenerateOperatorError(f"Newton matrix: {exc}") from exc
            factorizations += 1
        delta = lu.solve(-res)
        del lu  # two factors would be alive at the next splu

        alpha = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = u.with_values(u.values + alpha * delta)
            H_trial = discrete_hessian(trial)
            trial_norm = float(np.max(np.abs(H_trial.det() - problem.g.values)))
            if trial_norm <= (1.0 - _ARMIJO * alpha) * res_norm:
                accepted = True
                break
            alpha *= _BACKTRACK_FACTOR
            total_backtracks += 1
        if not accepted:
            raise NonConvergenceError(
                f"line search stalled at residual {res_norm:.3e}", history=history
            )
        u, H = trial, H_trial
        res = H_trial.det() - problem.g.values
        res_norm = trial_norm
        history.append(res_norm)
        iters += 1
    if slot is not None:
        slot.clear()  # a solve without Newton steps leaves it unused

    min_eig = H.min_eigenvalue()
    if min_eig <= 0.0:
        raise ConvexityFailureError(
            f"converged iterate is not convex: min Hessian eigenvalue {min_eig:.3e}"
        )
    report = MAReport(
        iterations=iters,
        residual_history=history,
        min_hessian_eigenvalue=min_eig,
        backtracks=total_backtracks,
        factorizations=factorizations,
        wall_time_s=time.perf_counter() - t0,
    )
    return u, report
