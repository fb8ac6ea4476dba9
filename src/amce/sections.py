"""Convex sections of discrete solutions and their ellipsoid geometry.

A *section* of a convex function ``u`` at base point ``x`` and height ``h``
is the sublevel set of the supporting-plane gap,

    S(x, h) = { y : u(y) < u(x) + Du(x) . (y - x) + h }.

This module extracts sections from grid fields, fits minimum-volume
enclosing ellipsoids (free or with a pinned center), factors the fit into
a unimodular sliding map in boundary-normal coordinates, measures maximal
interior heights, audits quadratic separation from tangent planes, and
renormalizes maximal sections to unit scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    ConvexityViolationError,
    DegenerateSectionError,
    InvalidProblemError,
    TooCloseToBoundaryError,
)
from .grid import DIRS, Grid, ScalarField
from .operators import (
    discrete_hessian,
    line_fit,
    local_quadratic_fit,
    value_and_gradient_at,
)

__all__ = [
    "Section",
    "EllipsoidFit",
    "SeparationReport",
    "LocalizationScan",
    "NormalizedSection",
    "extract_section",
    "mvee",
    "fit_john_ellipsoid",
    "maximal_height",
    "quadratic_separation",
    "localization_scan",
    "normalize_section",
    "require_boundary_point",
    "require_interior_point",
]

#: Points closer to the domain boundary than this (relative to the hull
#: scale) are treated as lying *on* the boundary when classifying hull edges.
_BOUNDARY_EDGE_TOL = 1e-7

#: Boundary hits sampled as anchors by the quadratic-separation audit, and
#: its separation floor in grid spacings.
_SEPARATION_ANCHORS = 128
_SEPARATION_FLOOR_H = 2.0

#: Points per axis of the lattice a normalized section is resampled on.
_NORMALIZED_N = 65


# ---------------------------------------------------------------------------
# section extraction
# ---------------------------------------------------------------------------


@dataclass
class Section:
    """A sublevel section of a convex grid field.

    ``hull_points`` are the ordered (counter-clockwise) vertices of the
    convex hull of the section sample: member nodes, sub-grid crossing
    points where the section boundary cuts stencil arms, and domain
    boundary points swallowed by the section.  ``boundary_clipped`` is True
    when the section reaches the domain boundary.
    """

    node_ids: np.ndarray
    hull_points: np.ndarray | None
    boundary_clipped: bool

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.size)


def _tangent_gap(values, points, x, value, gradient):
    """``values`` at ``points`` minus the plane through ``(x, value)`` of slope
    ``gradient``: the supporting-plane gap of the section definition."""
    return values - (value + (points - x) @ gradient)


def extract_section(
    u: ScalarField, x, h: float, center_value: float, center_gradient
) -> Section:
    """Extract the section of ``u`` at base point ``x`` and height ``h > 0``,
    whose supporting plane has value ``center_value`` and slope
    ``center_gradient`` at ``x``.

    The hull is refined below grid resolution: along every stencil arm
    leaving a member node, the exit point where the section gap changes
    sign is located by linear interpolation, and boundary hit points
    interior to the section are included verbatim.  A gap within
    ``1e-12 max(1, sup |u|)`` of zero is zero: its point is no member, and
    an arm toward it ends exactly there.
    """
    if h <= 0:
        raise ValueError(f"section height must be positive, got {h}")
    x = np.asarray(x, float)
    grid = u.grid
    sn = _tangent_gap(u.values, grid.nodes, x, center_value, center_gradient) - h
    sh = _tangent_gap(u.hit_values, grid.hit_points, x, center_value, center_gradient) - h
    tol = 1e-12 * max(1.0, u.sup_norm())
    for s in (sn, sh):
        s[np.abs(s) <= tol] = 0.0
    node_ids = np.where(sn < 0.0)[0]
    # every boundary hit interior to the section is a hull sample, whether
    # or not its source node is a member (thin boundary slivers)
    hits_in = sh < 0.0
    boundary_clipped = bool(hits_in.any())

    # every arm of a member node ends at a node or at a hit, whose gap
    # arm_ref indexes in [sn, sh]; an interior arm has arm_frac 1, so both
    # kinds of exit are node + t * arm_frac * arm
    k = np.repeat(np.arange(len(DIRS)), node_ids.size)
    i = np.tile(node_ids, len(DIRS))
    s_end = np.concatenate([sn, sh])[grid.arm_ref[i, k]]
    # the arms that leave the section, direction by direction; Qhull keeps
    # the first of two near-coincident points (a hit and an exit), so the
    # cloud's order, exits after nodes and hits, is part of the hull
    out = np.flatnonzero(s_end >= 0.0)
    i, k, s_end = i[out], k[out], s_end[out]
    t = sn[i] / (sn[i] - s_end) * grid.arm_frac[i, k]
    exits = grid.nodes[i] + t[:, None] * (np.asarray(DIRS, float)[k] * grid.h)
    cloud = np.concatenate([grid.nodes[node_ids], grid.hit_points[hits_in], exits])

    hull_points = None
    if cloud.shape[0] >= 3:  # an empty section has an empty cloud
        try:
            hull_points = cloud[ConvexHull(cloud).vertices]
        except QhullError:
            pass
    if node_ids.size == 0 and not boundary_clipped:
        warnings.warn(
            f"section at {x.tolist()} with height {h:g} contains no grid "
            "nodes and touches no boundary point",
            stacklevel=2,
        )
    return Section(
        node_ids=node_ids,
        hull_points=hull_points,
        boundary_clipped=boundary_clipped,
    )


# ---------------------------------------------------------------------------
# minimum-volume enclosing ellipsoid
# ---------------------------------------------------------------------------


#: Certified duality gap m/t (m points) at which the barrier path stops.
_MVEE_GAP = 1e-13
#: Growth of the barrier weight t between centerings.
_MVEE_T_GROWTH = 20.0
#: A centering ends when the squared Newton decrement falls below this.
_MVEE_CENTERED = 1e-10


def mvee(points, center=None):
    """Minimum-volume ellipsoid { (y-c)^T M (y-c) <= 1 } enclosing ``points``.

    One log-barrier Newton path (Boyd & Vandenberghe, *Convex
    Optimization*, 8.4.1) minimizes ``-log det N`` over symmetric ``N``
    subject to ``q_k^T N q_k <= 1``.  With ``center`` given, ``q_k`` are the
    points relative to it (``n = 2``) and ``M = N``.  A free fit is the
    same centered fit of the lifted points ``q_k = (p_k, 1)`` (``n = 3``):
    with ``V = N^-1`` scaled to ``V[2,2] = 1``, the center is ``c = V[:2,2]``
    and ``M = inv(V[:2,:2] - c c^T) / 2``.  The fit is affine equivariant,
    so it runs on the points shifted to the pinned center (or their mean)
    and whitened to unit second moment; thin hulls would otherwise make
    ``N`` ill-conditioned.

    The unknowns are the 3 or 6 entries of ``N``.  Each centering minimizes
    ``t * (-log det N) - sum_k log s_k`` with slacks ``s_k = 1 - q_k^T N q_k``
    by Newton steps that backtrack to keep ``N`` positive definite (a
    Cholesky test: a negative-definite 2x2 matrix has a positive
    determinant) and every slack positive, then ``t`` grows.  The slacks
    are carried along the steps instead of being recomputed from ``N``, so
    they keep full relative precision as they shrink.  The path stops when
    the certified duality gap ``m / t`` (``m`` points) reaches round-off,
    or earlier if the Newton matrix stops being positive definite in
    floating point.

    Returns ``(center, M, iterations, max_violation)``: ``iterations`` counts
    Newton steps and ``max_violation`` is the largest relative
    ellipsoid-membership excess over the input points (nonpositive means
    every point is enclosed).  Fewer than two points, non-finite
    coordinates, and collinear or coincident points raise
    :class:`DegenerateSectionError`.
    """
    P = np.asarray(points, float)
    if P.ndim != 2 or P.shape[1] != 2 or P.shape[0] < 2:
        raise DegenerateSectionError(
            f"need at least 2 planar points for an ellipsoid fit, got shape {P.shape}"
        )
    pinned = center is not None
    ref = np.asarray(center, float) if pinned else P.mean(axis=0)
    if not (np.isfinite(P).all() and np.isfinite(ref).all()):
        raise DegenerateSectionError("ellipsoid fit input is not finite")
    Z = P - ref
    U, S, Vt = np.linalg.svd(Z, full_matrices=False)
    if S[1] <= S[0] * max(Z.shape) * np.finfo(float).eps:
        raise DegenerateSectionError(
            "ellipsoid fit is singular (collinear or coincident points)"
        )
    # whitened points W = T (p - ref), one per column
    W = np.sqrt(len(Z)) * U.T
    T = (np.sqrt(len(Z)) / S)[:, None] * Vt
    Q = W if pinned else np.vstack([W, np.ones(len(Z))])
    n, m = Q.shape

    # N = sum_a x_a E_a over a basis of symmetric matrices, so that the
    # constraints q_k^T N q_k <= 1 are linear: A x <= 1
    iu, ju = np.triu_indices(n)
    E = np.zeros((iu.size, n, n))
    E[np.arange(iu.size), iu, ju] = 1.0
    E[np.arange(iu.size), ju, iu] = 1.0
    A = np.einsum("ik,aij,jk->ka", Q, E, Q)
    x = np.eye(n)[iu, ju] / (2.0 * (Q * Q).sum(axis=0).max())
    s = 1.0 - A @ x

    def barrier(x, s, t):
        if s.min() <= 0.0:
            return np.inf
        try:
            L = np.linalg.cholesky(np.tensordot(x, E, axes=1))
        except np.linalg.LinAlgError:
            return np.inf
        return -2.0 * t * np.log(L.diagonal()).sum() - np.log(s).sum()

    t, iterations, done = 1.0, 0, False
    while not done:
        f = barrier(x, s, t)
        lam2_prev = np.inf
        while True:
            G = np.linalg.inv(np.tensordot(x, E, axes=1)) @ E
            grad = -t * np.einsum("aii->a", G) + A.T @ (1.0 / s)
            hess = t * np.einsum("aij,bji->ab", G, G) + (A.T / s**2) @ A
            try:
                L = np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                # the 1/s^2 terms have swamped the t-weighted curvature
                done = True
                break
            w = np.linalg.solve(L, grad)
            dx = -np.linalg.solve(L.T, w)
            lam2 = w @ w  # squared Newton decrement
            # inside the quadratic region (lam2 <= 1/16) a full step is
            # feasible in exact arithmetic and needs no decrease test, which
            # round-off in f would defeat; there lam2 shrinks quadratically
            # until it stalls at round-off
            quadratic = 16.0 * lam2 <= 1.0
            if not lam2 > _MVEE_CENTERED or (quadratic and lam2 >= lam2_prev):
                break
            lam2_prev = lam2
            ds = -A @ dx
            for step in 0.5 ** np.arange(40):
                f_new = barrier(x + step * dx, s + step * ds, t)
                if f_new < np.inf and (
                    quadratic or f_new <= f - 0.25 * step * lam2
                ):
                    break
            else:
                break  # no step makes progress: round-off floor
            iterations += 1
            x, s, f = x + step * dx, s + step * ds, f_new
        done = done or m / t <= _MVEE_GAP
        t *= _MVEE_T_GROWTH

    # center and shape in whitened coordinates, then mapped back
    N = np.tensordot(x, E, axes=1)
    if pinned:
        cw, Mw = np.zeros(2), N
    else:
        V = np.linalg.inv(N)
        V /= V[2, 2]
        cw = V[:2, 2]
        Mw = np.linalg.inv(V[:2, :2] - np.outer(cw, cw)) / 2.0
    z = W.T - cw
    violation = np.einsum("ki,ij,kj->k", z, Mw, z).max() - 1.0
    return ref + np.linalg.solve(T, cw), T.T @ Mw @ T, iterations, float(violation)


@dataclass
class EllipsoidFit:
    """Ellipsoid fit of a section hull with its sliding-map factorization.

    The ellipsoid is the :func:`mvee` fit ``E = { y : (y-c)^T M (y-c) <= 1 }``
    of volume ``volume``.  In the rotated frame (``rotation``) sending
    ``normal`` to the second axis, ``M`` factors as
    ``M' = (A^T A) / (h * det-scale)`` with

        A = [[sqrt(p/s), sqrt(p/s) * tau], [0, sqrt(q/s)]],   det A = 1,

    so ``A`` normalizes ``E`` to a disk of radius ``sqrt(h_eff)``; ``tau``
    is the sliding (shear) coefficient along the tangential axis.
    ``k_inner * E ⊂ hull ⊂ k_outer * E`` up to boundary-clipped edges.
    """

    volume: float
    rotation: np.ndarray
    tau: float
    A: np.ndarray
    h_eff: float
    k_inner: float
    k_outer: float


def _normal_rotation(normal) -> np.ndarray:
    """Proper rotation whose columns are (tangent, normal)."""
    n = np.asarray(normal, float)
    n = n / np.linalg.norm(n)
    return np.array([[n[1], n[0]], [-n[0], n[1]]])


def _hull_dilations(hull_points, center, M, level=None):
    """Smallest/largest dilations k with k_in*E ⊂ hull ⊂ k_out*E.

    Edges generated by the domain boundary (both endpoints on the zero
    level set, when ``level`` is given) are excluded from the inner
    dilation: a boundary-clipped section legitimately cuts the ellipsoid.
    """
    z = hull_points - center
    quad = np.einsum("ki,ij,kj->k", z, M, z)
    k_outer = float(np.sqrt(quad.max()))

    Minv = np.linalg.inv(M)
    nxt = np.roll(np.arange(len(hull_points)), -1)
    on_boundary = np.zeros(len(hull_points), dtype=bool)
    if level is not None:
        scale = max(np.abs(hull_points).max(), 1.0)
        on_boundary = (
            np.abs(level(hull_points)) < _BOUNDARY_EDGE_TOL * scale
        )
    k_inner = np.inf
    for a in range(len(hull_points)):
        b = nxt[a]
        if on_boundary[a] and on_boundary[b]:
            continue
        e = hull_points[b] - hull_points[a]
        nu = np.array([e[1], -e[0]])
        nn = np.linalg.norm(nu)
        if nn == 0.0:
            continue
        nu /= nn
        dist = nu @ (hull_points[a] - center)
        if dist < 0.0:
            nu, dist = -nu, -dist
        k_edge = dist / np.sqrt(nu @ Minv @ nu)
        k_inner = min(k_inner, k_edge)
    return float(k_inner), k_outer


def fit_john_ellipsoid(section: Section, center, normal, grid: Grid) -> EllipsoidFit:
    """Fit the minimum-volume enclosing ellipsoid of a section hull.

    ``center=None`` fits center and shape jointly (interior sections);
    passing a center pins it there (boundary localization, where the
    model ellipsoid is centered at the boundary base point).  ``normal``
    fixes the frame for the sliding factorization.  When the section is
    boundary-clipped, the hull edges on ``grid``'s domain boundary are
    left out of ``k_inner``.
    """
    if section.hull_points is None:
        raise DegenerateSectionError(
            "section has no usable hull (empty or degenerate point cloud)"
        )
    c, M, _, _ = mvee(section.hull_points, center=center)

    R = _normal_rotation(normal)
    Mr = R.T @ M @ R
    p = Mr[0, 0]
    tau = Mr[0, 1] / p
    q = Mr[1, 1] - Mr[0, 1] ** 2 / p
    if p <= 0.0 or q <= 0.0:
        raise DegenerateSectionError(
            f"ellipsoid shape matrix is not positive definite (p={p:g}, q={q:g})"
        )
    s = np.sqrt(p * q)
    A = np.array([[np.sqrt(p / s), np.sqrt(p / s) * tau], [0.0, np.sqrt(q / s)]])
    h_eff = 1.0 / s
    volume = np.pi / np.sqrt(np.linalg.det(M))

    level = grid.domain.level if section.boundary_clipped else None
    k_inner, k_outer = _hull_dilations(section.hull_points, c, M, level=level)

    return EllipsoidFit(
        volume=float(volume),
        rotation=R,
        tau=float(tau),
        A=A,
        h_eff=float(h_eff),
        k_inner=k_inner,
        k_outer=k_outer,
    )


# ---------------------------------------------------------------------------
# maximal height
# ---------------------------------------------------------------------------


def require_interior_point(grid: Grid, y) -> np.ndarray:
    """``y`` as an array; TooCloseToBoundaryError unless it is interior to
    the domain and more than one cell ``h`` from its boundary."""
    y = np.asarray(y, float)
    if grid.domain.level(y[None, :])[0] >= 0.0:
        raise TooCloseToBoundaryError(
            f"base point {y.tolist()} is not interior to the domain"
        )
    if grid.domain.distance_to_boundary(y[None, :])[0] <= grid.h:
        raise TooCloseToBoundaryError(
            f"base point {y.tolist()} is within one cell of the boundary; "
            "maximal sections are not resolved there"
        )
    return y


def maximal_height(u: ScalarField, y, center_value: float, center_gradient):
    """Largest height h with the section of ``u`` at interior ``y`` inside the
    domain, for the plane of value ``center_value`` and slope ``center_gradient``.

    A section escapes the domain exactly when some boundary hit point has
    negative section gap, so the escape height of each hit is its tangent
    gap and the maximal height is the smallest of them (0 when that is not
    positive).

    Returns ``(hbar, touch_point)`` where ``touch_point`` is the boundary
    hit realizing the first contact.
    """
    grid = u.grid
    y = require_interior_point(grid, y)
    gaps = _tangent_gap(u.hit_values, grid.hit_points, y, center_value, center_gradient)
    touch = int(np.argmin(gaps))
    hbar = float(gaps[touch])
    return (hbar if hbar > 0.0 else 0.0), grid.hit_points[touch]


# ---------------------------------------------------------------------------
# quadratic separation
# ---------------------------------------------------------------------------


@dataclass
class SeparationReport:
    """Quadratic separation of a convex field from its tangent planes.

    Over pairs of boundary anchor points (x, x0) with |x - x0| above the
    separation floor, ``rho_low`` and ``rho_high`` bound the ratio
    (u(x) - u(x0) - Du(x0).(x - x0)) / |x - x0|^2 from below and above.
    """

    rho_low: float
    rho_high: float
    n_pairs: int
    worst_gap: float


def quadratic_separation(u: ScalarField, seed: int = 0) -> SeparationReport:
    """Audit two-sided quadratic separation over boundary anchor pairs.

    Anchors are boundary hit points (deterministically subsampled).  A
    tangent-plane gap below ``-10 h^2`` at any pair — beyond the honest
    discretization budget — raises :class:`ConvexityViolationError`.
    """
    grid = u.grid
    min_separation = _SEPARATION_FLOOR_H * grid.h

    n_hits = grid.n_hits
    if n_hits < 2:
        raise DegenerateSectionError("need at least two boundary hits")
    if n_hits > _SEPARATION_ANCHORS:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n_hits, size=_SEPARATION_ANCHORS, replace=False))
    else:
        idx = np.arange(n_hits)

    pts = grid.hit_points[idx]
    vals = u.hit_values[idx]
    _, grads, _ = local_quadratic_fit(u, pts)

    diff = pts[None, :, :] - pts[:, None, :]  # x - x0, axis 0 = x0
    dist2 = (diff**2).sum(-1)
    gap = vals[None, :] - vals[:, None] - np.einsum("oxi,oi->ox", diff, grads)

    worst = float(gap.min())
    if worst < -10.0 * grid.h**2:
        bad = np.unravel_index(np.argmin(gap), gap.shape)
        raise ConvexityViolationError(
            f"tangent-plane gap {worst:.3e} at pair "
            f"(x0={pts[bad[0]].tolist()}, x={pts[bad[1]].tolist()}) is below "
            f"the -10 h^2 = {-10 * grid.h ** 2:.3e} discretization budget"
        )

    keep = dist2 >= min_separation**2
    np.fill_diagonal(keep, False)
    if not keep.any():
        raise DegenerateSectionError(
            "no anchor pair exceeds the separation floor; grid too coarse"
        )
    ratios = gap[keep] / dist2[keep]
    return SeparationReport(
        rho_low=float(ratios.min()),
        rho_high=float(ratios.max()),
        n_pairs=int(keep.sum()),
        worst_gap=worst,
    )


# ---------------------------------------------------------------------------
# boundary localization scan
# ---------------------------------------------------------------------------


@dataclass
class LocalizationScan:
    """Sections of a convex field at a boundary point across heights.

    Each row records the pinned-center ellipsoid geometry of one section:
    sliding coefficient tau, volume ratio against the model value pi*h,
    and the hull dilation bracket.  ``slide_c0 + slide_c1 * |log h|`` is
    the least-squares fit of |tau| against |log h| over the kept rows.
    ``hulls`` holds the section hull polygon of each kept row, in order;
    it is kept apart from ``rows``, which are plain report data.
    """

    x0: np.ndarray
    normal: np.ndarray
    rows: list[dict] = field(default_factory=list)
    hulls: list[np.ndarray] = field(default_factory=list)
    slide_c0: float = np.nan
    slide_c1: float = np.nan
    slide_r2: float = np.nan

    def kept_rows(self) -> list[dict]:
        return [r for r in self.rows if not r["skipped"]]


def require_boundary_point(grid: Grid, x0) -> np.ndarray:
    """``x0`` as an array; InvalidProblemError unless it lies on the domain
    boundary up to round-off: ``|F(x0)| <= 1e-9 max(1, |x0|_inf) |grad F(x0)|``."""
    x0 = np.asarray(x0, float)
    level = float(grid.domain.level(x0[None, :])[0])
    slope = float(np.linalg.norm(grid.domain.grad(x0[None, :])[0]))
    # a NaN level or slope fails the comparison too
    if not abs(level) <= 1e-9 * max(1.0, float(np.abs(x0).max())) * slope:
        raise InvalidProblemError(
            f"boundary point {x0.tolist()} is not on the domain boundary "
            f"(F = {level:.3g}, |grad F| = {slope:.3g})"
        )
    return x0


def localization_scan(
    u: ScalarField,
    x0,
    heights,
    min_nodes: int,
) -> LocalizationScan:
    """Scan pinned-center section ellipsoids at boundary point ``x0``.

    ``x0`` must lie on (numerically: within round-off of) the domain
    boundary, else InvalidProblemError.  Sections with fewer than
    ``min_nodes`` member nodes are skipped with a warning — their hulls are
    grid noise.
    """
    grid = u.grid
    x0 = require_boundary_point(grid, x0)
    quadratic_separation(u)

    val, grad = value_and_gradient_at(u, x0)
    normal = grid.domain.inner_normal(x0[None, :])[0]

    scan = LocalizationScan(x0=x0, normal=normal)
    for h in heights:
        sec = extract_section(u, x0, h, center_value=val, center_gradient=grad)
        skipped = sec.n_nodes < min_nodes or sec.hull_points is None
        if skipped:
            warnings.warn(
                f"section at h={h:g} has {sec.n_nodes} nodes "
                f"(< {min_nodes}); skipping row",
                stacklevel=2,
            )
            tau = vol_ratio = k_inner = k_outer = norm_A = np.nan
        else:
            fit = fit_john_ellipsoid(sec, center=x0, normal=normal, grid=grid)
            tau, k_inner, k_outer = fit.tau, fit.k_inner, fit.k_outer
            vol_ratio = fit.volume / (np.pi * h)
            norm_A = float(np.linalg.norm(fit.A, 2))
            scan.hulls.append(sec.hull_points)
        scan.rows.append(
            {
                "h": float(h),
                "n_nodes": sec.n_nodes,
                "skipped": skipped,
                "tau": tau,
                "vol_ratio": vol_ratio,
                "k_inner": k_inner,
                "k_outer": k_outer,
                "norm_A": norm_A,
            }
        )

    kept = scan.kept_rows()
    if len(kept) >= 2:
        logs = np.abs(np.log([r["h"] for r in kept]))
        taus = np.abs([r["tau"] for r in kept])
        scan.slide_c1, scan.slide_c0, scan.slide_r2 = line_fit(logs, taus)
    return scan


# ---------------------------------------------------------------------------
# normalization of maximal sections
# ---------------------------------------------------------------------------


@dataclass
class NormalizedSection:
    """A maximal section rescaled to unit height and round shape.

    An affine change of variables ``x = y + T xt`` maps normalized
    coordinates ``xt`` to the original plane, where the section is
    {(u(x) - tangent(x)) / hbar < 1}.  It contains B(0, c_inner) and lies
    in B(0, c_outer); ``grad_at_center``, the measured gradient at the
    origin, should vanish; and the Hessian determinant ranges before and
    after should match, the map being unimodular up to the sqrt(hbar)
    dilation.  ``tau`` and ``h_eff`` come from the section's ellipsoid fit.
    """

    c_inner: float
    c_outer: float
    grad_at_center: np.ndarray
    det_range_original: tuple[float, float]
    det_range_normalized: tuple[float, float]
    tau: float
    h_eff: float


def _masked_fd(values2d, mask2d, spacing):
    """``(det, ok)``: the centered-difference Hessian determinant at the
    inner points and where it is valid, i.e. where all nine points of the
    3x3 stencil are in ``mask2d`` (the corners feed ``u_xy``)."""
    ok = (
        mask2d[1:-1, 1:-1]
        & mask2d[2:, 1:-1]
        & mask2d[:-2, 1:-1]
        & mask2d[1:-1, 2:]
        & mask2d[1:-1, :-2]
        & mask2d[2:, 2:]
        & mask2d[:-2, :-2]
        & mask2d[2:, :-2]
        & mask2d[:-2, 2:]
    )
    v = values2d
    uxx = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / spacing**2
    uyy = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / spacing**2
    uxy = (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:]) / (4 * spacing**2)
    det = uxx * uyy - uxy**2
    return det, ok


def _value_range(values) -> tuple[float, float]:
    """``(min, max)`` of ``values`` ignoring NaN, or NaNs when it is empty."""
    if values.size == 0:
        return (np.nan, np.nan)
    return float(np.nanmin(values)), float(np.nanmax(values))


def normalize_section(
    u: ScalarField, y, center_value: float, center_gradient
) -> NormalizedSection:
    """Renormalize the maximal section of ``u`` at interior point ``y`` for
    the supporting plane of value ``center_value`` and slope ``center_gradient``.

    Fits the free minimum-volume ellipsoid of the maximal section, splits
    off the sqrt(hbar) dilation from the unimodular shape factor, and
    resamples  (u - tangent plane)/hbar  on a square lattice
    in normalized coordinates via smoothly weighted local quadratic fits
    of the grid data.  Reports the inner/outer ball radii of the
    normalized section and the Hessian-determinant range before and after
    (equal up to resampling error, since the shape factor has unit
    determinant).
    """
    y = np.asarray(y, float)
    grid = u.grid
    hbar, touch = maximal_height(u, y, center_value, center_gradient)
    sec = extract_section(u, y, hbar, center_value, center_gradient)
    if sec.hull_points is None:
        raise DegenerateSectionError(
            f"maximal section at {y.tolist()} has a degenerate hull"
        )
    normal = grid.domain.inner_normal(touch[None, :])[0]
    fit = fit_john_ellipsoid(sec, center=None, normal=normal, grid=grid)

    # x = y + sqrt(hbar) R A^-1 xt  maps normalized coords to the plane;
    # offsets of the fitted center from y are O(h) for maximal sections
    # and are absorbed by pinning the map at y itself
    RAinv = fit.rotation @ np.linalg.inv(fit.A)
    T = np.sqrt(hbar) * RAinv
    Tinv = np.linalg.inv(T)

    hull_n = (sec.hull_points - y) @ Tinv.T
    c_outer = float(np.linalg.norm(hull_n, axis=1).max())
    c_inner, _ = _hull_dilations(hull_n, np.zeros(2), np.eye(2))

    half = 1.02 * c_outer
    axis = np.linspace(-half, half, _NORMALIZED_N)
    spacing = float(axis[1] - axis[0])
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    lattice = np.column_stack([X.ravel(), Y.ravel()])
    phys = y + lattice @ T.T

    raw, _, _ = local_quadratic_fit(u, phys, smooth=True)

    values = _tangent_gap(raw, phys, y, center_value, center_gradient) / hbar
    mask = np.isfinite(values) & (values < 1.0 + 1e-9)
    values = np.where(mask, values, np.nan)

    v2 = values.reshape(_NORMALIZED_N, _NORMALIZED_N)
    m2 = mask.reshape(_NORMALIZED_N, _NORMALIZED_N)
    det_n, ok = _masked_fd(v2, m2, spacing)
    # compare determinant ranges on the well-interior sublevel: near the
    # section edge the resampling stencil straddles exterior data and its
    # second differences are interpolation noise, on both routes
    ok &= np.nan_to_num(v2[1:-1, 1:-1], nan=np.inf) < 0.9

    sel = np.zeros(grid.n_nodes, dtype=bool)
    sel[sec.node_ids] = True
    sel &= grid.full_stencil_mask()
    sel &= _tangent_gap(u.values, grid.nodes, y, center_value, center_gradient) < 0.9 * hbar

    ic = _NORMALIZED_N // 2
    if m2[ic - 1 : ic + 2, ic - 1 : ic + 2].all():
        gx = (v2[ic + 1, ic] - v2[ic - 1, ic]) / (2 * spacing)
        gy = (v2[ic, ic + 1] - v2[ic, ic - 1]) / (2 * spacing)
        grad0 = np.array([gx, gy])
    else:
        grad0 = np.array([np.nan, np.nan])

    return NormalizedSection(
        c_inner=float(c_inner),
        c_outer=c_outer,
        grad_at_center=grad0,
        det_range_original=_value_range(discrete_hessian(u).det()[sel]),
        det_range_normalized=_value_range(det_n[ok]),
        tau=fit.tau,
        h_eff=fit.h_eff,
    )
