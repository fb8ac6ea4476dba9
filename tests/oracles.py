"""Test oracles: identities of the continuum problem that no command computes.

Each one recomputes, from a sampled or solved field, a quantity the solver
never forms, so that a test can hold the discretization to the identity:

- :func:`w_from_u`, the weight's definition ``w = (det D^2 u)^(theta - 1)``;
- :func:`affine_mean_curvature`, ``-(1/3) U^ij w_ij``, which is ``-f / 3``
  at a solution;
- :func:`divergence_of_cofactor`, the Piola identity ``d_i U^ij = 0``;
- :func:`ma_residual`, ``det H(u) - g`` from a fresh Hessian of ``u``;
- :func:`sign_audit`, the sign of a fixture's continuum forcing on random
  points of the domain, against which the grid's sign rule is compared.
"""

import numpy as np

from amce import Disk, Domain, ExactSolution, ScalarField, check_theta
from amce.coupled import forcing_nonpositive
from amce.errors import ConvexityFailureError
from amce.lma import lma_residual
from amce.operators import HessianField, discrete_hessian, grid_operators, local_quadratic_fit

Array = np.ndarray


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
    if hit_vals.min() <= 0.0:
        raise ConvexityFailureError(
            "one-sided boundary determinant is not positive"
        )
    return ScalarField(
        grid=grid,
        values=det ** (theta - 1.0),
        hit_values=hit_vals ** (theta - 1.0),
    )


def affine_mean_curvature(u: ScalarField, w: ScalarField) -> Array:
    """Node-wise affine mean curvature ``-(1/3) U^ij w_ij`` (n = 2).

    At a solution of the coupled system this equals ``-f / 3`` up to the
    linear solver tolerance.
    """
    return -lma_residual(w, discrete_hessian(u), 0.0) / 3.0


def divergence_of_cofactor(H: HessianField) -> tuple[Array, Array]:
    """Discrete row divergences of ``U = cof H`` on full-stencil nodes.

    Returns ``(div, mask)`` where ``div[:, j] = d/dx U(1j) + d/dy U(2j)``
    and the mask marks nodes whose first-difference stencils stay interior
    (the cofactor has no boundary trace to difference through).
    """
    grid = H.grid
    # Valid rows need interior axis neighbors whose own Hessian stencils are
    # full, so the differenced coefficients carry a smooth error expansion.
    full = grid.full_stencil_mask()
    mask = full.copy()
    for d in range(4):
        nbr_ok = np.zeros(grid.n_nodes, dtype=bool)
        is_int = grid.arm_ref[:, d] < grid.n_nodes
        nbr_ok[is_int] = full[grid.arm_ref[is_int, d]]
        mask &= nbr_ok
    zeros = np.zeros(grid.n_hits)
    ddx = lambda vals: grid_operators(grid, "dx").apply(vals, zeros)
    ddy = lambda vals: grid_operators(grid, "dy").apply(vals, zeros)
    div1 = ddx(H.hyy) - ddy(H.hxy)
    div2 = ddy(H.hxx) - ddx(H.hxy)
    div = np.stack([div1, div2], axis=1)
    return div, mask


def ma_residual(u: ScalarField, g: ScalarField) -> Array:
    """Node-wise ``det H(u) - g``."""
    return discrete_hessian(u).det() - g.values


def sign_audit(
    exact: ExactSolution, domain: Domain | None = None, n: int = 10_000, seed: int = 0
) -> dict:
    """Sample the forcing on the domain (by default the unit disk, the one
    every registered fixture is convex on) and report its sign."""
    dom = domain if domain is not None else Disk(radius=1.0)
    pts = _sample_domain(dom, n, seed)
    vals = exact.f(pts)
    return {
        "f_min": float(vals.min()),
        "f_max": float(vals.max()),
        "n_samples": int(n),
        "nonpositive": forcing_nonpositive(vals),
    }


def _sample_domain(dom: Domain, n: int, seed: int) -> Array:
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = dom.bbox()
    out = []
    have = 0
    while have < n:
        cand = rng.uniform([xmin, ymin], [xmax, ymax], size=(2 * n, 2))
        cand = cand[dom.contains(cand)]
        out.append(cand[: n - have])
        have += len(out[-1])
    return np.concatenate(out, axis=0)
