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
inexact Newton steps on ``(u, w)`` together (Newton-Krylov with the
splitting as preconditioner, after Knoll and Keyes, J. Comput. Phys. 193,
2004).  In two dimensions ``cof H(u) : H(w)`` is bilinear and symmetric in
``(u, w)``, so every Jacobian block is a ``cof H : D^2`` operator, the
linear step's.  GMRES solves the Newton system to a tolerance that
tightens as ``F`` falls (Eisenstat and Walker, SIAM J. Sci. Comput. 17,
1996), preconditioned by the block lower-triangular splitting applied
through a held LU factor of a nearby ``cof H : D^2``, or of the step's
own.  It multiplies by the Jacobian matrix-free
(:func:`amce.lma.apply_lma`), so an operator is assembled only to be
factored.  A Newton step whose operator cannot be factored, that GMRES
cannot solve, or that would lose convexity or the weight's sign, is
replaced by a damped sweep, and a sweep whose weight is not positive ends
the solve.  Once the
weight stops moving in sup norm, one more sweep runs undamped (the polish)
and its linear solution is the returned ``w``, so both sub-equation
residuals are reported at their floor.  Every step solves through the
factor it is handed and hands on the factor it solved through, unless a
coupled Newton step's GMRES through it stopped paying, so that a factor is
made only where a held one cannot serve or no longer serves cheaply; the
rule is stated once, in :func:`solve_system`.

The exponent window ``0 <= theta < 1/2`` is enforced: the two-dimensional
estimates behind the scheme need ``theta < 1/n`` with ``n = 2``, and
negative exponents are rejected rather than extrapolated.  A forcing with
positive part is accepted (the solver does not need a sign) but flagged,
since the minimum principle and related checks assume ``f <= 0``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

from .errors import (
    DegenerateOperatorError,
    InvalidProblemError,
    NonConvergenceError,
)
from .grid import Grid, ScalarField, require_finite
from .lma import (
    LMA_TOL,
    LMAProblem,
    apply_lma,
    assemble_lma,
    cofactor_contraction,
    second_differences,
    solve_lma,
)
from .ma import MAProblem, MASolveOptions, initial_guess, solve_ma
from .operators import (
    COUNTS,
    KRYLOV_REFACTOR_ITERATIONS,
    HessianField,
    discrete_hessian,
    factor_lu,
    forcing_term,
    gmres,
    local_quadratic_fit,  # not called here: perfbench/tracing.py expects the binding
    poisson_solver,
)

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
class CoupledOptions(MASolveOptions):
    """The ``solver`` config block: the Newton options plus the outer loop's."""

    outer_tol: float = 1e-8
    max_outer_iters: int = 200
    relaxation: float = 0.5
    lma_tol: float = LMA_TOL


@dataclass
class SolveReport:
    """What one :func:`solve_system` call did, its counts read off
    :data:`amce.operators.COUNTS` (see :data:`COUNTED`).

    ``krylov_iterations_total`` sums the GMRES iterations of every solve
    that runs GMRES through a held factor: the coupled Newton steps tried,
    the determinant Newton steps (:func:`amce.ma.solve_ma`) and the linear
    solves that a handed factor's minimal-residual passes left above
    ``lma_tol`` (:func:`amce.lma.solve_lma`).
    """

    outer_iterations: int
    w_change_history: list[float]
    final_ma_residual: float
    final_lma_residual: float
    min_w: float
    max_w: float
    min_hessian_eigenvalue: float
    newton_iterations_total: int  # Newton steps of the determinant solves
    hypothesis_flags: dict
    factorizations: int = 0  # every LU factorization, the Poisson factor included
    coupled_newton_steps: int = 0  # Newton steps on (u, w) together
    krylov_iterations_total: int = 0  # GMRES iterations of every solve (see above)
    backtracks_total: int = 0  # line-search backtracks of the determinant solves
    pivoting_refactors: int = 0  # default-pivoting retries among the factorizations
    lu_solves: int = 0  # solves through any LU factor, held ones included


#: The fields of :class:`SolveReport` read off :data:`amce.operators.COUNTS`.
COUNTED = (
    "newton_iterations_total", "factorizations", "coupled_newton_steps",
    "krylov_iterations_total", "backtracks_total", "pivoting_refactors",
    "lu_solves",
)


def g_from_w(w: ScalarField, theta: float) -> ScalarField:
    """Determinant target ``w^(1/(theta-1))``, from ``w = (det H(u))^(theta-1)``."""
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
    if min(float(values.min()), float(hit_values.min())) <= 0.0:
        raise DegenerateOperatorError(
            "determinant target w^(1/(theta-1)) underflows to 0: the weight is too "
            "large and the target would not be positive"
        )
    return ScalarField(grid=w.grid, values=values, hit_values=hit_values)


def step_tolerance(F: Array, outer_tol: float) -> float:
    """GMRES tolerance of a coupled Newton step on the residual ``F``.

    ``max(forcing_term(F), min(1e-2, 0.5 outer_tol / max |F|))``, and
    ``forcing_term(F)`` when ``F = 0``: the forcing term
    (:func:`amce.operators.forcing_term`) with Kelley's safeguard against
    oversolving (C. T. Kelley, *Iterative Methods for Linear and Nonlinear
    Equations*, SIAM 1995, ch. 6).  A step solved to the relative
    tolerance ``eta`` leaves a linear residual of about ``eta max |F|``,
    and once that is below half the outer stop's ``outer_tol`` a tighter
    solve moves nothing that stop can see.  The second term is clamped to
    the forcing term's own range, so it is never above its 1e-2 ceiling.
    """
    eta = forcing_term(F)
    size = float(np.max(np.abs(F)))
    if size == 0.0:
        return eta
    return max(eta, forcing_term(0.5 * outer_tol / size))


def _newton_step(
    data: ProblemData,
    u: ScalarField,
    Hu: HessianField,
    w: ScalarField,
    cap: float,
    outer_tol: float,
    kept: list,
):
    """One inexact Newton step on ``F(u, w) = 0``, or None when it is unusable.

    ``F1 = det H(u) - w^e`` and ``F2 = cof H(u) : H(w) - f`` with
    ``e = 1/(theta-1)``; the Jacobian ``[[A, -diag(e w^(e-1))], [C, A]]``
    has ``A`` and ``C`` the operators of ``H(u)`` and ``H(w)``.  ``Hu`` is
    ``H(u)``, which the caller already has, and each Hessian is computed
    once: ``F2`` is formed from the step's own ``H(w)``.  GMRES solves
    it (:func:`amce.operators.gmres`, within ``KRYLOV_HELD_CYCLES`` restart
    cycles), left-preconditioned by ``[[A, 0], [C, A]]`` with ``A``
    applied through one LU factor, so each iteration makes two LU solves,
    to the relative tolerance :func:`step_tolerance` of ``F``: the
    forcing term, loose while ``F`` is large and the step is capped anyway,
    and never tighter than the outer stop at ``outer_tol`` can see.
    Products with ``A`` and ``C`` are formed from ``H(u)`` and ``H(w)`` by
    :func:`amce.lma.cofactor_contraction`, the ``u`` part's second
    differences taken once for both: ``C`` is never assembled, and ``A``
    only when its own factor is made.
    The step is scaled so the weight moves by at most ``cap`` in sup norm.
    Returns ``(u, H(u), w, change)``, the new ``H(u)`` being the one the
    convexity test computed, or None when ``w^e`` overflows, ``A``
    cannot be factored, GMRES fails, or the trial loses ``det H(u) > 0``
    or ``w > 0``.

    ``kept`` is the coupled solve's list of held factors, and the step
    follows :func:`solve_system`'s rule for the factor held there: GMRES
    runs through it, and only when that fails is it dropped, ``A``'s own
    made, and GMRES run through that.  Once GMRES has solved, ``kept``
    holds the factor it solved through, or nothing when that solve took
    more than ``KRYLOV_REFACTOR_ITERATIONS`` iterations; the iterations of
    a failed attempt through a dropped factor do not count.
    Every GMRES iteration counts in ``COUNTS["krylov_iterations_total"]``,
    and a returned step in ``COUNTS["coupled_newton_steps"]``.
    """
    grid = data.grid
    n = grid.n_nodes
    e = 1.0 / (data.theta - 1.0)
    Hw = discrete_hessian(w)
    with np.errstate(over="ignore"):
        we = w.values**e
        dw_coef = -e * we / w.values
    if not (np.isfinite(we).all() and np.isfinite(dw_coef).all()):
        return None
    F = np.concatenate(
        [Hu.det() - we, cofactor_contraction(Hu, Hw.hxx, Hw.hxy, Hw.hyy) - data.f.values]
    )
    rtol = step_tolerance(F, outer_tol)

    def jacobian(x):
        xu, xw = x[:n], x[n:]
        Xu = second_differences(grid, xu)
        return np.concatenate(
            [
                cofactor_contraction(Hu, *Xu) + dw_coef * xw,
                cofactor_contraction(Hw, *Xu) + apply_lma(Hu, xw),
            ]
        )

    def precondition(r):
        yu = lu.solve(r[:n])
        return np.concatenate([yu, lu.solve(r[n:] - apply_lma(Hw, yu))])

    def direction():
        return gmres(jacobian, -F, precondition, rtol)

    lu = kept.pop() if kept else None
    spent = COUNTS["krylov_iterations_total"]
    delta = None if lu is None else direction()
    if delta is None:
        lu = None  # dropped before A's own factor is made
        try:
            lu = factor_lu(splu, assemble_lma(Hu), grid)
        except RuntimeError:
            return None
        spent = COUNTS["krylov_iterations_total"]  # only the solving attempt's count
        delta = direction()
        if delta is None:
            return None
    if COUNTS["krylov_iterations_total"] - spent <= KRYLOV_REFACTOR_ITERATIONS:
        kept.append(lu)
    size = float(np.max(np.abs(delta[n:])))
    alpha = min(1.0, cap / size) if size > 0.0 else 1.0
    u_new = u.with_values(u.values + alpha * delta[:n])
    w_new = w.with_values(w.values + alpha * delta[n:])
    if float(w_new.values.min()) <= 0.0:
        return None
    H_new = discrete_hessian(u_new)
    if float(H_new.det().min()) <= 0.0:
        return None
    COUNTS["coupled_newton_steps"] += 1
    return u_new, H_new, w_new, alpha * size


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
    follows a Newton step always solves the linear equation.  ``H(u)`` is
    taken once per ``u``: the one a Newton step's convexity test or a
    sweep's linear step computed is the next Newton step's, and the
    polish's gives both reported residuals.
    The report's counts are those :data:`amce.operators.COUNTS` gained
    during the call: ``factorizations`` is every ``splu`` call, the
    Laplacian's, one per coupled Newton step that makes a factor, those of
    the sweeps, the refactors that follow a step handing on no factor (see
    below), and the ``pivoting_refactors`` retries among them;
    ``lu_solves`` is every solve through any of those factors.

    Factors are handed on through one list, ``kept``, which holds the
    Laplacian's factor and then, after each step, the factor that step
    solved through.  A coupled Newton step (see :func:`_newton_step`), a
    determinant step (see :func:`amce.ma.solve_ma`) or a linear solve (see
    :func:`amce.lma.solve_lma`) solves through the held factor by GMRES
    (:func:`amce.operators.gmres`, within ``KRYLOV_HELD_CYCLES`` restart
    cycles), a linear solve by minimal-residual passes first, and
    only when that fails drops it and makes its own operator's.  Any
    nearby factor preconditions a Newton-Krylov step (Knoll and Keyes), so
    no held factor is checked against the operator it serves, and at most
    one factor is alive at any factorization.  A lagged factor costs a
    coupled Newton step more GMRES iterations as its forcing term
    tightens, so a step whose GMRES took more than
    ``KRYLOV_REFACTOR_ITERATIONS`` iterations through the factor that
    solved it still takes its direction but hands that factor on to
    nobody: the next solve finds ``kept`` empty and makes its own
    operator's factor, which it hands on under the same rule (Knoll and
    Keyes refresh a lagged preconditioner alike).

    So ``radial_quartic`` at h = 1/16 to 1/128 makes 2 factors: the
    Laplacian's serves the damped sweep's linear step, whose operator is a
    multiple of the Laplacian after a paraboloid Poisson start, so that
    the passes alone solve it exactly, and then the Newton steps' GMRES
    until one takes more than ``KRYLOV_REFACTOR_ITERATIONS`` iterations
    (the fourth step, at every spacing); the next step's
    own factor serves the rest and the polish, and the steps' GMRES takes
    35 iterations in all.  ``radial_mild`` makes 1, the Laplacian's, at
    h = 1/16 to 1/128: its last Newton step, solved only as far as the
    outer stop can see (see :func:`step_tolerance`), takes at most
    ``KRYLOV_REFACTOR_ITERATIONS`` iterations through it and hands it on to
    the polish.  The two paraboloids take the Laplacian's alone, and so does
    ``sheared_half``, one sweep: its 4 determinant steps and its linear
    step run GMRES through that factor.  The Laplacian factor solves for
    the harmonic extension of ``psi``, the first weight, and then for the
    determinant solve's Poisson start (see :func:`amce.ma.initial_guess`),
    and then waits in ``kept``.
    """
    opts = options or CoupledOptions()
    if not 0.0 < opts.relaxation <= 1.0:
        raise InvalidProblemError(f"relaxation must be in (0, 1], got {opts.relaxation}")
    grid = data.grid
    sigma = opts.relaxation

    flags = {"f_le_0_violated": not data.f_nonpositive}
    history: list[float] = []
    start = COUNTS.copy()
    # the one held factor, for the next step to try (see the docstring); a
    # list, so that its only reference can be handed over
    kept: list = []
    poisson = poisson_solver(grid, kept)
    w = ScalarField(
        grid=grid,
        values=poisson(np.zeros(grid.n_nodes), data.psi_hits),
        hit_values=data.psi_hits.copy(),
    )
    g = g_from_w(_require_positive(w, history), data.theta)
    u = initial_guess(MAProblem(grid=grid, g=g, phi_hits=data.phi_hits), poisson)
    del poisson  # kept holds the Laplacian factor's only reference
    w_half: ScalarField | None = None
    lma_rep = None
    H = None  # H(u), set by the first sweep and kept current from then on
    polish = False

    while True:
        _require_positive(w, history)
        step = None
        if history and not polish:
            step = _newton_step(data, u, H, w, history[-1], opts.outer_tol, kept)
        if step is not None:
            u, H, w, change = step
            w_half = lma_rep = None  # the last linear solution belongs to the old u
        else:
            g = g_from_w(w, data.theta)
            problem = MAProblem(grid=grid, g=g, phi_hits=data.phi_hits)
            u, ma_rep = solve_ma(problem, opts, initial=u, kept=kept)
            # a solve without Newton steps returns the u of the last linear
            # step bitwise, so that step's w_half and H stand
            if w_half is None or ma_rep.iterations:
                H = discrete_hessian(u)
                w_half, lma_rep = solve_lma(
                    LMAProblem(hessian=H, g=data.f.values, psi_hits=data.psi_hits),
                    tol=opts.lma_tol,
                    kept=kept,
                )
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
    final_ma = float(np.max(np.abs(H.det() - g_from_w(w, data.theta).values)))
    counts = COUNTS - start
    report = SolveReport(
        outer_iterations=len(history),
        w_change_history=history,
        final_ma_residual=final_ma,
        final_lma_residual=lma_rep.residual_sup,
        min_w=float(w.values.min()),
        max_w=float(w.values.max()),
        min_hessian_eigenvalue=H.min_eigenvalue(),
        hypothesis_flags=flags,
        **{name: counts[name] for name in COUNTED},
    )
    return u, w, report


def problem_from_exact(grid: Grid, exact) -> ProblemData:
    """Problem data whose exact solution is the given manufactured bundle."""
    return ProblemData.from_callables(
        grid,
        exact.theta,
        f_fn=exact.f,
        phi_fn=exact.u,
        psi_fn=exact.w,
    )
