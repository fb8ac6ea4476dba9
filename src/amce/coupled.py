"""Coupled solver for the second boundary value problem.

The fourth-order problem

    U^ij w_ij = f,   w = (det D^2 u)^(theta - 1),   U = cof D^2 u,
    u = phi and w = psi on the boundary,

is solved as the discrete system

    F1 = det H(u) - w^e = 0,   F2 = cof H(u) : H(w) - f = 0,   e = 1/(theta - 1),

with ``H`` the cut-cell discrete Hessian.  The iteration starts from the
harmonic extension of ``psi`` with one damped sweep of the splitting: given
the weight, the nonlinear step solves ``det D^2 u = w^e`` for ``u``; given
``u``, the linear step solves ``U^ij w_ij = f`` with frozen cofactor, and the
weight moves part of the way to that solution.  From there on it takes
exact Newton steps on ``(u, w)`` together (Newton-Krylov with the splitting
as preconditioner, after Knoll and Keyes, J. Comput. Phys. 193, 2004).  In
two dimensions ``cof H(u) : H(w)`` is bilinear and symmetric in ``(u, w)``,
so every Jacobian block is an operator the linear step already assembles.
GMRES solves the Newton system, preconditioned by the block lower-triangular
splitting applied through an LU factor of the step's own ``cof H(u) : D^2``.
A Newton step whose operator cannot be factored, that GMRES cannot solve,
or that would lose convexity or the weight's sign, is replaced by a damped
sweep, and a sweep whose weight is not positive ends the solve.  Once the
weight stops moving in sup norm, one more sweep runs undamped (the polish)
and its linear solution is the returned ``w``, so both sub-equation
residuals are reported at their floor.

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
from scipy.sparse.linalg import LinearOperator, gmres, splu

from .errors import (
    ConvexityFailureError,
    DegenerateOperatorError,
    InvalidProblemError,
    NonConvergenceError,
)
from .grid import Grid, ScalarField, require_finite
from .lma import LMA_TOL, LMAProblem, assemble_lma, lma_residual, solve_lma
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
        require_finite(f=self.f, phi=self.phi_hits, psi=self.psi_hits)
        if float(self.psi_hits.min()) <= 0.0:
            raise InvalidProblemError(
                f"weight boundary data must be positive, min psi = {self.psi_hits.min()}"
            )

    @property
    def f_nonpositive(self) -> bool:
        return forcing_nonpositive(self.f.values)

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


def forcing_nonpositive(f: Array) -> bool:
    """Whether sampled forcing values are ``<= 0`` up to round-off.

    The tolerance is ``1e-12 max(1, max |f|)``.
    """
    f = np.asarray(f, dtype=float)
    return float(f.max()) <= 1e-12 * max(1.0, float(np.abs(f).max()))


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
    coupled_newton_steps: int = 0  # Newton steps on (u, w) together
    krylov_iterations_total: int = 0  # GMRES iterations of those steps
    backtracks_total: int = 0  # line-search backtracks of the determinant solves
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
            "coupled_newton_steps": self.coupled_newton_steps,
            "krylov_iterations_total": self.krylov_iterations_total,
            "backtracks_total": self.backtracks_total,
        }


def w_from_u(u: ScalarField, theta: float) -> ScalarField:
    """Weight ``(det H(u))^(theta-1)`` with boundary trace from one-sided fits.

    No command calls it; it is kept as the test oracle of the weight's
    defining identity.
    """
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
    if hit_vals.min() <= 0.0:
        raise ConvexityFailureError(
            "one-sided boundary determinant is not positive"
        )
    return ScalarField(
        grid=grid,
        values=det ** (theta - 1.0),
        hit_values=hit_vals ** (theta - 1.0),
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
        hit_values = w.hit_values**expo
    if not (np.isfinite(values).all() and np.isfinite(hit_values).all()):
        raise DegenerateOperatorError(
            "determinant target w^(1/(theta-1)) overflows: the weight is too "
            "small and the operator would be singular"
        )
    return ScalarField(grid=w.grid, values=values, hit_values=hit_values)


def harmonic_extension(grid: Grid, hit_values: Array) -> ScalarField:
    vals = solve_poisson(grid, np.zeros(grid.n_nodes), hit_values)
    return ScalarField(grid=grid, values=vals, hit_values=np.asarray(hit_values, float))


# coupled Newton step: GMRES restart length, its tolerance on the residual
# 2-norm relative to |F|, and the restart cycles before the step falls back
_KRYLOV_RESTART = 10
_KRYLOV_RTOL = 1e-10
_KRYLOV_CYCLES = 10


def _newton_step(data: ProblemData, u: ScalarField, w: ScalarField, cap: float):
    """One exact Newton step on ``F(u, w) = 0``, or None when it is unusable.

    ``F1 = det H(u) - w^e`` and ``F2 = cof H(u) : H(w) - f`` with
    ``e = 1/(theta-1)``; the Jacobian ``[[A, -diag(e w^(e-1))], [C, A]]``
    has ``A`` and ``C`` the operators of ``H(u)`` and ``H(w)``.  GMRES solves
    it, left-preconditioned by ``[[A, 0], [C, A]]`` through one LU factor of
    ``A``, made first and dropped on return: every call factors exactly once.
    The step is scaled so the weight moves by at most ``cap`` in sup norm.
    Returns ``(u, w, change, krylov_iterations)``; None when ``A`` cannot be
    factored, GMRES fails or the trial loses ``det H(u) > 0`` or ``w > 0``.
    """
    n = data.grid.n_nodes
    e = 1.0 / (data.theta - 1.0)
    Hu = discrete_hessian(u)
    A, _ = assemble_lma(Hu)
    try:
        lu = splu(A)
    except RuntimeError:
        return None
    C, _ = assemble_lma(discrete_hessian(w))
    with np.errstate(over="ignore"):
        we = w.values**e
        dw_coef = -e * we / w.values
    if not (np.isfinite(we).all() and np.isfinite(dw_coef).all()):
        return None
    F = np.concatenate([Hu.det() - we, lma_residual(w, Hu, data.f.values)])

    def jacobian(x):
        xu, xw = x[:n], x[n:]
        return np.concatenate([A @ xu + dw_coef * xw, C @ xu + A @ xw])

    def precondition(r):
        yu = lu.solve(r[:n])
        return np.concatenate([yu, lu.solve(r[n:] - C @ yu)])

    krylov = 0

    def count(_):
        nonlocal krylov
        krylov += 1

    shape = (2 * n, 2 * n)
    delta, info = gmres(
        LinearOperator(shape, matvec=jacobian, dtype=float),
        -F,
        rtol=_KRYLOV_RTOL,
        restart=_KRYLOV_RESTART,
        maxiter=_KRYLOV_CYCLES,
        M=LinearOperator(shape, matvec=precondition, dtype=float),
        callback=count,
        callback_type="pr_norm",
    )
    # freed before the trial's arrays are allocated, the factor's memory
    # serves the next factorization: in most runs at h = 1/64 this lowers
    # the solve's peak RSS by about 5 MiB
    del lu
    if info != 0:
        return None
    size = float(np.max(np.abs(delta[n:])))
    alpha = min(1.0, cap / size) if size > 0.0 else 1.0
    u_new = u.with_values(u.values + alpha * delta[:n])
    w_new = w.with_values(w.values + alpha * delta[n:])
    if (
        float(w_new.values.min()) <= 0.0
        or float(discrete_hessian(u_new).det().min()) <= 0.0
    ):
        return None
    return u_new, w_new, alpha * size, krylov


def _require_positive(w: ScalarField, history: list[float]) -> ScalarField:
    """``w``; NonConvergenceError with the change history unless ``w > 0``."""
    if float(w.values.min()) <= 0.0:
        raise NonConvergenceError(
            f"weight is not positive, min w = {w.values.min():.3e}", history=history
        )
    return w


def solve_system(
    data: ProblemData, options: CoupledOptions | None = None
) -> tuple[ScalarField, ScalarField, SolveReport]:
    """Coupled solve; returns ``(u, w, report)``.

    One loop whose first iteration is a damped sweep: solve the
    determinant equation for ``u`` with the current weight, solve the
    linear equation for ``w_half`` with the cofactor of ``u``, and move
    ``w`` a fraction ``relaxation`` towards ``w_half``.  Every later
    iteration is an exact Newton step on both unknowns (see
    :func:`_newton_step`), capped so the weight change never exceeds the
    previous one, or the damped sweep when that step is unusable.  Once
    the weight change is at most ``outer_tol``, one undamped sweep (the
    polish) re-solves both equations and its linear solution is the
    returned ``w``.  Raises :class:`NonConvergenceError` with the change
    history when ``max_outer_iters`` iterations do not get there, or once
    a weight is not positive: no weight is ever clipped.

    A sweep whose determinant solve takes no Newton step leaves ``u``
    bitwise unchanged and keeps the previous linear solution; a sweep that
    follows a Newton step always solves the linear equation.
    ``report.factorizations`` counts every ``splu`` call: the two Poisson
    solves, one per coupled Newton step tried, and those of the sweeps.
    """
    opts = options or CoupledOptions()
    if not 0.0 < opts.relaxation <= 1.0:
        raise InvalidProblemError(f"relaxation must be in (0, 1], got {opts.relaxation}")
    t0 = time.perf_counter()
    grid = data.grid
    sigma = opts.relaxation

    flags = {"f_le_0_violated": not data.f_nonpositive}
    w = harmonic_extension(grid, data.psi_hits)
    u: ScalarField | None = None
    w_half: ScalarField | None = None
    history: list[float] = []
    newton_total = backtracks = coupled_steps = krylov_total = 0
    # the Poisson solves of the harmonic extension and of the first Newton start
    factorizations = 2
    polish = False

    while True:
        _require_positive(w, history)
        step = None
        if history and not polish:
            step = _newton_step(data, u, w, cap=history[-1])
            factorizations += 1
        if step is not None:
            u, w, change, krylov = step
            w_half = None  # the last linear solution belongs to the old u
            coupled_steps += 1
            krylov_total += krylov
        else:
            g = g_from_w(w, data.theta)
            problem = MAProblem(grid=grid, g=g, phi_hits=data.phi_hits)
            u, ma_rep = solve_ma(problem, opts.ma, initial=u)
            newton_total += ma_rep.iterations
            backtracks += ma_rep.backtracks
            factorizations += ma_rep.iterations  # one factor per Newton step
            # a solve without Newton steps returns the u of the last linear
            # step bitwise, so that step's w_half stands
            if w_half is None or ma_rep.iterations:
                H = discrete_hessian(u)
                w_half, _ = solve_lma(
                    LMAProblem(hessian=H, g=data.f.values, psi_hits=data.psi_hits),
                    tol=opts.lma_tol,
                )
                factorizations += 1
            if polish:
                break
            new_vals = (1.0 - sigma) * w.values + sigma * w_half.values
            change = float(np.max(np.abs(new_vals - w.values)))
            w = ScalarField(grid=grid, values=new_vals, hit_values=data.psi_hits.copy())
        history.append(change)
        if change <= opts.outer_tol:
            polish = True
        elif len(history) >= opts.max_outer_iters:
            raise NonConvergenceError(
                f"outer iteration did not contract below {opts.outer_tol} in "
                f"{opts.max_outer_iters} iterations (last change {change:.3e})",
                history=history,
            )

    w = _require_positive(w_half, history)
    final_ma = float(np.max(np.abs(ma_residual(u, g_from_w(w, data.theta)))))
    final_lma = float(np.max(np.abs(lma_residual(w, H, data.f.values))))
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
        coupled_newton_steps=coupled_steps,
        krylov_iterations_total=krylov_total,
        backtracks_total=backtracks,
        wall_time_s=time.perf_counter() - t0,
    )
    return u, w, report


def affine_mean_curvature(u: ScalarField, w: ScalarField) -> Array:
    """Node-wise affine mean curvature ``-(1/3) U^ij w_ij`` (n = 2).

    At a solution of the coupled system this equals ``-f / 3`` up to the
    linear solver tolerance; no command calls it, it is kept as the test
    oracle of that identity.
    """
    return -lma_residual(w, discrete_hessian(u), 0.0) / 3.0


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
