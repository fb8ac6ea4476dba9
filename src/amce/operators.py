"""Sparse finite difference operators on a cut-cell grid.

Every derivative is built from one-dimensional three-point formulas along
grid lines.  With forward spacing ``a`` and backward spacing ``b`` along a
line the second and first derivative weights are

    u'' ~ 2/(a(a+b)) u_f - 2/(ab) u_c + 2/(b(a+b)) u_b
    u'  ~ b/(a(a+b)) u_f + (a-b)/(ab) u_c - a/(b(a+b)) u_b

which are exact on quadratics for any spacings and second-order accurate
when ``a = b``.  The cross derivative combines the second differences along
the two diagonals: with unit directions e = (1,1)/sqrt(2), f = (1,-1)/sqrt(2)
one has u_xy = (u_ee - u_ff) / 2, which at full stencils reduces to the
classic four-corner formula.

Each operator is a pair ``(D, B)``: ``D`` maps interior node values and
``B`` maps boundary hit values, so e.g. ``hxx = D @ u + B @ u_hits``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import DegenerateOperatorError, IncompleteDataError
from .grid import ARM_HIT, Grid, ScalarField

Array = np.ndarray

_FIT_RADIUS = 3.5  # local-fit radius in grid spacings


@dataclass
class OpPair:
    D: sp.csr_matrix  # (N, N) interior part
    B: sp.csr_matrix  # (N, M) boundary part

    def apply(self, values: Array, hit_values: Array | None) -> Array:
        out = self.D @ values
        if self.B.shape[1]:
            if hit_values is None:
                raise ValueError("operator touches the boundary but no trace given")
            out = out + self.B @ hit_values
        return out


def _line_ops(grid: Grid, d_plus: int, d_minus: int, arm_len: float, order: int) -> OpPair:
    """Assemble a derivative along one grid-line direction pair."""
    n, m = grid.n_nodes, grid.n_hits
    a = grid.arm_frac[:, d_plus] * arm_len
    b = grid.arm_frac[:, d_minus] * arm_len
    if order == 2:
        cf = 2.0 / (a * (a + b))
        cb = 2.0 / (b * (a + b))
        cc = -2.0 / (a * b)
    elif order == 1:
        cf = b / (a * (a + b))
        cb = -a / (b * (a + b))
        cc = (a - b) / (a * b)
    else:
        raise ValueError(order)

    rows_d, cols_d, vals_d = [], [], []
    rows_b, cols_b, vals_b = [], [], []
    node_ids = np.arange(n)

    rows_d.append(node_ids)
    cols_d.append(node_ids)
    vals_d.append(cc)

    for d, coeff in ((d_plus, cf), (d_minus, cb)):
        kind = grid.arm_kind[:, d]
        ref = grid.arm_ref[:, d]
        is_hit = kind == ARM_HIT
        rows_d.append(node_ids[~is_hit])
        cols_d.append(ref[~is_hit])
        vals_d.append(coeff[~is_hit])
        rows_b.append(node_ids[is_hit])
        cols_b.append(ref[is_hit])
        vals_b.append(coeff[is_hit])

    D = sp.csr_matrix(
        (np.concatenate(vals_d), (np.concatenate(rows_d), np.concatenate(cols_d))),
        shape=(n, n),
    )
    if rows_b and len(np.concatenate(rows_b)):
        B = sp.csr_matrix(
            (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
            shape=(n, m),
        )
    else:
        B = sp.csr_matrix((n, m))
    return OpPair(D=D, B=B)


def grid_operators(grid: Grid) -> dict[str, OpPair]:
    """All difference operators for the grid, built once and cached."""
    if grid._ops:
        return grid._ops
    h = grid.h
    diag_len = h * np.sqrt(2.0)
    dxx = _line_ops(grid, 0, 1, h, order=2)
    dyy = _line_ops(grid, 2, 3, h, order=2)
    dpp = _line_ops(grid, 4, 5, diag_len, order=2)  # along (1, 1)/sqrt 2
    dmm = _line_ops(grid, 6, 7, diag_len, order=2)  # along (1, -1)/sqrt 2
    dxy = OpPair(
        D=((dpp.D - dmm.D) * 0.5).tocsr(),
        B=((dpp.B - dmm.B) * 0.5).tocsr(),
    )
    dx = _line_ops(grid, 0, 1, h, order=1)
    dy = _line_ops(grid, 2, 3, h, order=1)
    lap = OpPair(D=(dxx.D + dyy.D).tocsr(), B=(dxx.B + dyy.B).tocsr())
    grid._ops.update(
        dxx=dxx, dyy=dyy, dxy=dxy, dx=dx, dy=dy, lap=lap
    )
    return grid._ops


@dataclass
class HessianField:
    """Node-wise discrete Hessian entries of a scalar field."""

    grid: Grid
    hxx: Array
    hxy: Array
    hyy: Array

    def det(self) -> Array:
        return self.hxx * self.hyy - self.hxy**2

    def trace(self) -> Array:
        return self.hxx + self.hyy

    def eigenvalues(self) -> tuple[Array, Array]:
        mean = 0.5 * (self.hxx + self.hyy)
        rad = np.sqrt((0.5 * (self.hxx - self.hyy)) ** 2 + self.hxy**2)
        return mean - rad, mean + rad

    def min_eigenvalue(self) -> float:
        lo, _ = self.eigenvalues()
        return float(lo.min())

    def clamped(self, eps: float) -> "HessianField":
        """Eigenvalues clamped from below at ``eps`` (same eigenvectors)."""
        lo, hi = self.eigenvalues()
        if lo.min() >= eps:
            return self
        lo_c = np.maximum(lo, eps)
        hi_c = np.maximum(hi, eps)
        # Rebuild from the spectral decomposition of each 2x2 block; the
        # eigenvector of the larger eigenvalue is (hxy, hi - hxx).
        vx, vy = self.hxy, hi - self.hxx
        nrm = np.hypot(vx, vy)
        flat = nrm < 1e-300
        # For (numerically) diagonal blocks the eigenvector basis is the axes.
        vx = np.where(flat, 0.0, vx / np.where(flat, 1.0, nrm))
        vy = np.where(flat, 1.0, vy / np.where(flat, 1.0, nrm))
        swap = flat & (self.hxx > self.hyy)
        # v = (vx, vy) is the eigenvector of hi; complete the basis.
        hxx = hi_c * vx**2 + lo_c * vy**2
        hyy = hi_c * vy**2 + lo_c * vx**2
        hxy = (hi_c - lo_c) * vx * vy
        hxx = np.where(swap, np.maximum(self.hxx, eps), hxx)
        hyy = np.where(swap, np.maximum(self.hyy, eps), hyy)
        return HessianField(grid=self.grid, hxx=hxx, hxy=hxy, hyy=hyy)


def discrete_hessian(field: ScalarField) -> HessianField:
    """Node-wise discrete Hessian; exact on quadratic polynomials."""
    grid = field.grid
    ops = grid_operators(grid)
    hits = field.require_hit_values() if grid.n_hits else None
    return HessianField(
        grid=grid,
        hxx=ops["dxx"].apply(field.values, hits),
        hxy=ops["dxy"].apply(field.values, hits),
        hyy=ops["dyy"].apply(field.values, hits),
    )


def discrete_gradient(field: ScalarField) -> Array:
    """Node-wise first derivatives, (N, 2)."""
    grid = field.grid
    ops = grid_operators(grid)
    hits = field.require_hit_values() if grid.n_hits else None
    return np.stack(
        [ops["dx"].apply(field.values, hits), ops["dy"].apply(field.values, hits)],
        axis=1,
    )


def solve_poisson(grid: Grid, rhs: Array, hit_values: Array) -> Array:
    """Solve the discrete Poisson problem ``lap u = rhs`` with Dirichlet data."""
    ops = grid_operators(grid)
    lap = ops["lap"]
    b = np.asarray(rhs, dtype=float).copy()
    if grid.n_hits:
        b = b - lap.B @ np.asarray(hit_values, dtype=float)
    try:
        lu = splu(lap.D.tocsc())
    except RuntimeError as exc:
        raise DegenerateOperatorError(f"Poisson operator: {exc}") from exc
    return lu.solve(b)


def local_quadratic_fit(field: ScalarField, points, smooth: bool = False):
    """Least-squares quadratic models of the field around arbitrary points.

    ``points`` is one point ``(2,)`` or a batch ``(K, 2)``.  Each point is
    fitted to the nearby interior nodes and boundary hit values (when the
    field carries them), found by one KD-tree query for the whole batch.

    The default box rule takes the data within ``3.5 h`` in the max norm
    with unit weights, widening the box by 1.6 (up to four tries) until it
    holds eight points, else it raises :class:`IncompleteDataError`.  The
    smooth rule weighs the data within the radius ``r = 3.5 h`` by
    ``(1 - (d/r)^2)^2``, which makes the fit a C^1 function of the point:
    finite differences of resampled values then converge, where fitting the
    scattered data piecewise leaves O(1) noise in second differences.  A
    point outside the domain, or with fewer than ten positive weights, gets
    NaN.

    Returns ``(value, gradient, hessian)`` of the fitted quadratic at each
    point: a float, ``(2,)`` and ``(2, 2)`` for one point, arrays with a
    leading ``K`` for a batch.  Exact when the data is quadratic.
    """
    grid = field.grid
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 2)
    data_pts, data_val = grid.nodes, field.values
    if smooth or field.hit_values is not None:
        data_pts = np.vstack([grid.nodes, grid.hit_points])
        data_val = np.concatenate([field.values, field.require_hit_values()])
    tree = cKDTree(data_pts)
    r = _FIT_RADIUS * grid.h
    if smooth:
        where = np.flatnonzero(grid.domain.contains(pts))
        hoods = tree.query_ball_point(pts[where], r, return_sorted=True)
    else:
        where = todo = np.arange(len(pts))
        hoods = np.empty(len(pts), dtype=object)
        for _ in range(4):
            hoods[todo] = tree.query_ball_point(
                pts[todo], r, p=np.inf, return_sorted=True
            )
            todo = todo[[len(hoods[k]) < 8 for k in todo]]
            if not todo.size:
                break
            r *= 1.6
        else:
            raise IncompleteDataError(
                "not enough data points near the requested location for a local fit"
            )

    coef = np.full((len(pts), 6), np.nan)
    for k, ids in zip(where, hoods):
        d = (data_pts[ids] - pts[k]) / grid.h  # normalize for conditioning
        vals, sw = data_val[ids], np.ones(len(d))
        if smooth:
            wts = np.maximum(1.0 - (d * d).sum(axis=1) / _FIT_RADIUS**2, 0.0) ** 2
            keep = wts > 0.0
            if keep.sum() < 10:
                continue
            d, vals, sw = d[keep], vals[keep], np.sqrt(wts[keep])
        A = np.stack(
            [
                np.ones(len(d)),
                d[:, 0],
                d[:, 1],
                0.5 * d[:, 0] ** 2,
                d[:, 0] * d[:, 1],
                0.5 * d[:, 1] ** 2,
            ],
            axis=1,
        )
        coef[k] = np.linalg.lstsq(A * sw[:, None], vals * sw, rcond=None)[0]
    value = coef[:, 0]
    grad = coef[:, 1:3] / grid.h
    hess = coef[:, [3, 4, 4, 5]].reshape(-1, 2, 2) / grid.h**2
    if single:
        return float(value[0]), grad[0], hess[0]
    return value, grad, hess


def value_and_gradient_at(field: ScalarField, point) -> tuple[float, Array]:
    """Field value and gradient at an arbitrary point of the closed domain.

    At an interior node the non-uniform centered differences are used; at
    boundary points the value comes from the trace when available and the
    gradient from a one-sided local quadratic fit.
    """
    grid = field.grid
    p = np.asarray(point, dtype=float)
    nid = grid.node_at(p)
    if nid is not None:
        g = discrete_gradient(field)[nid]
        return float(field.values[nid]), g
    value, grad, _ = local_quadratic_fit(field, p)
    lvl = float(grid.domain.level(p[None, :])[0])
    if abs(lvl) < 1e-9 and field.trace is not None:
        value = float(field.trace(p[None, :])[0])
    return value, grad
