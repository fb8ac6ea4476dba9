"""Coupled solver for the second boundary value problem.

The fourth-order problem

    U^ij w_ij = f,   w = (det D^2 u)^(theta - 1),   U = cof D^2 u,
    u = phi and w = psi on the boundary,

is split into the two second-order problems solved alternately: given the
current weight ``w``, the nonlinear step solves ``det D^2 u = w^(1/(theta-1))``
for ``u``; given ``u``, the linear step solves ``U^ij w_ij = f`` with frozen
cofactor for a new weight.  A relaxation factor damps the weight update.
The iteration starts from the harmonic extension of ``psi``.  Once the
weight stops moving in sup norm, one more sweep runs undamped (the polish)
and its linear solution is the returned ``w``, so both sub-equation
residuals are reported at their floor.  A sweep whose Newton solve takes
no step leaves ``u`` bitwise unchanged and reuses the previous linear
solution instead of solving for it again.

The exponent window ``0 <= theta < 1/2`` is enforced: the two-dimensional
estimates behind the scheme need ``theta < 1/n`` with ``n = 2``, and
negative exponents are rejected rather than extrapolated.  A forcing with
positive part is accepted (the solver does not need a sign) but flagged,
since the minimum principle and related checks assume ``f <= 0``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (
    ConvexityFailureError,
    DegenerateOperatorError,
    InvalidProblemError,
    NonConvergenceError,
)
from .grid import Grid, ScalarField
from .lma import (
    CofactorField,
    FactorSlot,
    LMA_TOL,
    LMAProblem,
    lma_residual,
    solve_lma,
)
from .ma import MAProblem, MASolveOptions, ma_residual, solve_ma
from .operators import discrete_hessian, local_quadratic_fit, solve_poisson

Array = np.ndarray

THETA_MAX = 0.5  # open upper end of the admissible exponent window in 2D


@dataclass
class ProblemData:
    """Grid, exponent and boundary data for one coupled solve."""

    grid: Grid
    theta: float
    f: ScalarField
    phi_hits: Array
    psi_hits: Array

    def __post_init__(self):
        check_theta(self.theta)
        self.phi_hits = np.asarray(self.phi_hits, dtype=float)
        self.psi_hits = np.asarray(self.psi_hits, dtype=float)
        m = self.grid.n_hits
        if self.phi_hits.shape != (m,) or self.psi_hits.shape != (m,):
            raise ValueError("boundary data length does not match the grid")
        if float(self.psi_hits.min()) <= 0.0:
            raise InvalidProblemError(
                f"weight boundary data must be positive, min psi = {self.psi_hits.min()}"
            )

    @property
    def f_nonpositive(self) -> bool:
        fmax = float(self.f.values.max())
        return fmax <= 1e-12 * max(1.0, float(np.abs(self.f.values).max()))

    @classmethod
    def from_callables(
        cls,
        grid: Grid,
        theta: float,
        f_fn: Callable[[Array], Array],
        phi_fn: Callable[[Array], Array],
        psi_fn: Callable[[Array], Array],
    ) -> "ProblemData":
        return cls(
            grid=grid,
            theta=float(theta),
            f=ScalarField.from_callable(grid, f_fn),
            phi_hits=np.asarray(phi_fn(grid.hit_points), dtype=float),
            psi_hits=np.asarray(psi_fn(grid.hit_points), dtype=float),
        )


def check_theta(theta: float) -> None:
    if not np.isfinite(theta) or theta < 0.0 or theta >= THETA_MAX:
        raise InvalidProblemError(
            f"exponent theta={theta} outside the admissible window "
            f"[0, {THETA_MAX}) for the two-dimensional problem"
        )


@dataclass
class CoupledOptions:
    outer_tol: float = 1e-8
    max_outer_iters: int = 200
    relaxation: float = 0.5
    lma_tol: float = LMA_TOL
    ma: MASolveOptions = dc_field(default_factory=MASolveOptions)


@dataclass
class SolveReport:
    outer_iterations: int
    w_change_history: list[float]
    final_ma_residual: float
    final_lma_residual: float
    min_w: float
    max_w: float
    min_hessian_eigenvalue: float
    newton_iterations_total: int
    hypothesis_flags: dict
    factorizations: int = 0  # every LU factorization, the Poisson starts included
    wall_time_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "outer_iterations": self.outer_iterations,
            "w_change_history": [float(x) for x in self.w_change_history],
            "final_ma_residual": self.final_ma_residual,
            "final_lma_residual": self.final_lma_residual,
            "min_w": self.min_w,
            "max_w": self.max_w,
            "min_hessian_eigenvalue": self.min_hessian_eigenvalue,
            "newton_iterations_total": self.newton_iterations_total,
            "hypothesis_flags": self.hypothesis_flags,
            "factorizations": self.factorizations,
        }


def w_from_u(u: ScalarField, theta: float) -> ScalarField:
    """Weight ``(det H(u))^(theta-1)`` with boundary trace from one-sided fits."""
    check_theta(theta)
    H = discrete_hessian(u)
    det = H.det()
    if float(det.min()) <= 0.0:
        raise ConvexityFailureError(
            f"cannot form the weight: min det H = {det.min():.3e} <= 0"
        )
    grid = u.grid
    _, _, Hk = local_quadratic_fit(u, grid.hit_points)
    hit_vals = Hk[:, 0, 0] * Hk[:, 1, 1] - Hk[:, 0, 1] ** 2
    if hit_vals.size and hit_vals.min() <= 0.0:
        raise ConvexityFailureError(
            "one-sided boundary determinant is not positive"
        )
    return ScalarField(
        grid=grid,
        values=det ** (theta - 1.0),
        hit_values=hit_vals ** (theta - 1.0) if hit_vals.size else None,
    )


def g_from_w(w: ScalarField, theta: float) -> ScalarField:
    """Determinant target ``w^(1/(theta-1))``; inverse of ``w_from_u``'s power."""
    check_theta(theta)
    if float(w.values.min()) <= 0.0:
        raise InvalidProblemError(
            f"weight must be positive to invert, min w = {w.values.min()}"
        )
    expo = 1.0 / (theta - 1.0)
    with np.errstate(over="ignore"):
        values = w.values**expo
        hit_values = None if w.hit_values is None else w.hit_values**expo
    if not np.isfinite(values).all() or (
        hit_values is not None and not np.isfinite(hit_values).all()
    ):
        raise DegenerateOperatorError(
            "determinant target w^(1/(theta-1)) overflows: the weight is too "
            "small and the operator would be singular"
        )
    return ScalarField(grid=w.grid, values=values, hit_values=hit_values)


def harmonic_extension(grid: Grid, hit_values: Array) -> ScalarField:
    vals = solve_poisson(grid, np.zeros(grid.n_nodes), hit_values)
    return ScalarField(grid=grid, values=vals, hit_values=np.asarray(hit_values, float))


def solve_system(
    data: ProblemData, options: CoupledOptions | None = None
) -> tuple[ScalarField, ScalarField, SolveReport]:
    """Alternating solve of the coupled system; returns ``(u, w, report)``.

    One loop: damped sweeps until the weight change is at most
    ``outer_tol``, then one undamped sweep whose linear solution is ``w``.
    Raises :class:`NonConvergenceError` with the change history when
    ``max_outer_iters`` damped sweeps do not get there.  A sweep whose
    Newton solve takes no step, typically the undamped one, skips its
    linear step: ``u``, hence the operator and the solution, is unchanged.

    Each damped sweep's linear step leaves its LU factor in a
    :class:`FactorSlot` for the next sweep's first Newton step, which starts
    from the same ``u`` and so, unless the eigenvalue clamp acts, factors the
    same matrix.  The undamped sweep's linear step has no successor and
    keeps no factor.
    """
    opts = options or CoupledOptions()
    if not 0.0 < opts.relaxation <= 1.0:
        raise InvalidProblemError(f"relaxation must be in (0, 1], got {opts.relaxation}")
    t0 = time.perf_counter()
    grid = data.grid
    sigma = opts.relaxation

    flags = {"f_le_0_violated": not data.f_nonpositive, "w_floor_applied": False}
    w = harmonic_extension(grid, data.psi_hits)
    w_floor = 1e-8 * float(data.psi_hits.min())
    if float(w.values.min()) <= 0.0:
        # Harmonic extension of positive data should be positive; guard the
        # exponentiation against round-off at extreme aspect ratios anyway.
        w.values = np.maximum(w.values, w_floor)
        flags["w_floor_applied"] = True

    u: ScalarField | None = None
    w_half: ScalarField | None = None
    history: list[float] = []
    newton_total = 0
    # the Poisson solves of the harmonic extension and of the first Newton start
    factorizations = 2
    slot = FactorSlot()
    polish = False

    while True:
        g = g_from_w(w, data.theta)
        problem = MAProblem(grid=grid, g=g, phi_hits=data.phi_hits)
        u, ma_rep = solve_ma(problem, opts.ma, initial=u, slot=slot)
        newton_total += ma_rep.iterations
        factorizations += ma_rep.factorizations
        # a solve without Newton steps returns the u of the last linear
        # step bitwise, so that step's w_half stands
        if w_half is None or ma_rep.iterations:
            H = discrete_hessian(u)
            coeff = CofactorField.from_hessian(H)
            w_half, _ = solve_lma(
                LMAProblem(coeff=coeff, g=data.f.values, psi_hits=data.psi_hits),
                tol=opts.lma_tol,
                slot=None if polish else slot,
            )
            factorizations += 1
        if polish:
            break
        new_vals = (1.0 - sigma) * w.values + sigma * w_half.values
        if float(new_vals.min()) <= 0.0:
            new_vals = np.maximum(new_vals, w_floor)
            flags["w_floor_applied"] = True
        change = float(np.max(np.abs(new_vals - w.values)))
        history.append(change)
        w = ScalarField(grid=grid, values=new_vals, hit_values=data.psi_hits.copy())
        if change <= opts.outer_tol:
            polish = True
        elif len(history) >= opts.max_outer_iters:
            raise NonConvergenceError(
                f"outer iteration did not contract below {opts.outer_tol} in "
                f"{opts.max_outer_iters} sweeps (last change {change:.3e})",
                history=history,
            )

    w = w_half
    if float(w.values.min()) <= 0.0:
        flags["w_floor_applied"] = True
        w.values = np.maximum(w.values, w_floor)

    final_ma = float(np.max(np.abs(ma_residual(u, g_from_w(w, data.theta)))))
    final_lma = float(np.max(np.abs(lma_residual(w, coeff, data.f.values))))
    report = SolveReport(
        outer_iterations=len(history),
        w_change_history=history,
        final_ma_residual=final_ma,
        final_lma_residual=final_lma,
        min_w=float(w.values.min()),
        max_w=float(w.values.max()),
        min_hessian_eigenvalue=H.min_eigenvalue(),
        newton_iterations_total=newton_total,
        hypothesis_flags=flags,
        factorizations=factorizations,
        wall_time_s=time.perf_counter() - t0,
    )
    return u, w, report


def affine_mean_curvature(u: ScalarField, w: ScalarField) -> Array:
    """Node-wise affine mean curvature ``-(1/3) U^ij w_ij`` (n = 2).

    At a solution of the coupled system this equals ``-f / 3`` up to the
    linear solver tolerance.
    """
    coeff = CofactorField.from_hessian(discrete_hessian(u))
    return -lma_residual(w, coeff, 0.0) / 3.0


def problem_from_exact(grid: Grid, exact, theta: float | None = None) -> ProblemData:
    """Problem data whose exact solution is the given manufactured bundle."""
    th = exact.theta if theta is None else float(theta)
    return ProblemData.from_callables(
        grid,
        th,
        f_fn=exact.f,
        phi_fn=exact.u,
        psi_fn=exact.w,
    )
