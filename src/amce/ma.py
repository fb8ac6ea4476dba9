"""Dirichlet solver for the discrete Monge-Ampere equation det D^2 u = g.

Damped Newton iteration on the node-wise residual ``det H(u) - g`` where
``H`` is the cut-cell discrete Hessian.  The directional derivative of the
determinant is the cofactor contraction

    d/dt det(H + t E) |_0 = U : E,      U = cof H,

so each Newton step solves the sparse linearized problem
``(U11 Dxx + 2 U12 Dxy + U22 Dyy) delta = -(det H(u) - g)`` with the
cofactor frozen at the current iterate: the operator of
:func:`amce.lma.assemble_lma`, factored afresh at every step.  Eigenvalues
of ``H`` are clamped from below before forming ``U`` so the linearization
stays elliptic when an iterate grazes the convexity boundary.  One number
measures every iterate, the backward error ``max_i |det H(u) - g|_i /
floor_i`` (:func:`roundoff_floor`): a backtracking line search enforces
its decrease, and Newton stops once it is at most ``BERR_TOL``.

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
from .grid import Grid, ScalarField, require_finite
from .lma import assemble_lma
from .operators import HessianField, discrete_hessian, grid_operators, solve_poisson

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
        require_finite(g=self.g, phi=self.phi_hits)
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
# sufficient-decrease constant of the backward error
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30
_ARMIJO = 1e-4
# Newton stops once every node's residual is within this many round-off floors
BERR_TOL = 4.0


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
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "backtracks": self.backtracks,
        }


def initial_guess(problem: MAProblem) -> ScalarField:
    """Poisson start: solve ``lap u0 = 2 sqrt(g)`` with the same boundary data."""
    rhs = 2.0 * np.sqrt(problem.g.values)
    vals = solve_poisson(problem.grid, rhs, problem.phi_hits)
    return ScalarField(grid=problem.grid, values=vals, hit_values=problem.phi_hits)


def ma_residual(u: ScalarField, g: ScalarField) -> Array:
    """Node-wise ``det H(u) - g``."""
    return discrete_hessian(u).det() - g.values


def roundoff_floor(u: ScalarField, H: HessianField, g: Array) -> Array:
    """Node-wise size of the round-off in ``det H(u) - g``.

    ``eps (|hyy| e_xx + 2 |hxy| e_xy + |hxx| e_yy + |g|)`` with
    ``e_** = |D_**||u| + |B_**||phi|`` the bound on the round-off of each
    Hessian entry ``D_** u + B_** phi``: the first-order error of the
    determinant, as in a componentwise backward error (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 7).
    """
    ops = grid_operators(u.grid)
    au, ap = np.abs(u.values), np.abs(u.hit_values)

    def entry_error(name: str) -> Array:
        return abs(ops[name].D) @ au + abs(ops[name].B) @ ap

    return np.finfo(float).eps * (
        np.abs(H.hyy) * entry_error("dxx")
        + 2.0 * np.abs(H.hxy) * entry_error("dxy")
        + np.abs(H.hxx) * entry_error("dyy")
        + np.abs(g)
    )


def solve_ma(
    problem: MAProblem,
    options: MASolveOptions | None = None,
    initial: ScalarField | None = None,
) -> tuple[ScalarField, MAReport]:
    """Damped Newton solve; returns the solution field and an iteration report.

    Every Newton step factors its own clamped matrix and drops the factor
    before the line search, so each of ``report.iterations`` made one LU
    factorization.

    Newton stops when the backward error is at most ``BERR_TOL`` or when
    ``max |det H(u) - g| <= newton_tol``; the line search measures each
    trial against the floor of the iterate it steps from.

    Raises NonConvergenceError when the iteration budget is exhausted or
    the line search stalls, and ConvexityFailureError if the converged
    discrete Hessian is not positive definite.
    """
    opts = options or MASolveOptions()
    t0 = time.perf_counter()
    u = initial.copy() if initial is not None else initial_guess(problem)
    if initial is not None:
        u.hit_values = problem.phi_hits.copy()

    g = problem.g.values
    H = discrete_hessian(u)
    res = H.det() - g
    res_norm = float(np.max(np.abs(res)))
    history = [res_norm]
    if not np.isfinite(res_norm):
        raise NonConvergenceError(
            f"Newton residual is not finite ({res_norm})", history=history
        )
    floor = roundoff_floor(u, H, g)
    berr = float(np.max(np.abs(res) / floor))

    iters = total_backtracks = 0
    while res_norm > opts.newton_tol and berr > BERR_TOL:
        if iters >= opts.max_iters:
            raise NonConvergenceError(
                f"Newton did not reach tol {opts.newton_tol} in "
                f"{opts.max_iters} iterations (last residual {res_norm:.3e})",
                history=history,
            )
        J, _ = assemble_lma(H.clamped(opts.eps_clamp))
        try:
            lu = splu(J)
        except RuntimeError as exc:
            raise DegenerateOperatorError(f"Newton matrix: {exc}") from exc
        delta = lu.solve(-res)
        del lu  # two factors would be alive at the next splu

        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            trial = u.with_values(u.values + alpha * delta)
            H_trial = discrete_hessian(trial)
            res_trial = H_trial.det() - g
            if np.max(np.abs(res_trial) / floor) <= (1.0 - _ARMIJO * alpha) * berr:
                break
            alpha *= _BACKTRACK_FACTOR
            total_backtracks += 1
        else:
            raise NonConvergenceError(
                f"line search stalled at {berr:.3g} round-off floors", history=history
            )
        u, H, res = trial, H_trial, res_trial
        res_norm = float(np.max(np.abs(res)))
        history.append(res_norm)
        floor = roundoff_floor(u, H, g)
        berr = float(np.max(np.abs(res) / floor))
        iters += 1

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
        wall_time_s=time.perf_counter() - t0,
    )
    return u, report
