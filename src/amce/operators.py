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
:func:`grid_operators` reads them by name.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .errors import DegenerateOperatorError, IncompleteDataError
from .grid import Grid, ScalarField

Array = np.ndarray

_FIT_RADIUS = 3.5  # local-fit radius in grid spacings
#: Points per stacked solve of :func:`local_quadratic_fit`.  It bounds the
#: fit's temporary arrays: under tracemalloc a 4 225-point smooth resample at
#: h = 1/64 peaks at 31 MiB in one piece and at 7 MiB in chunks of 256.
_FIT_CHUNK = 256

#: Largest part of the lattice that :func:`dissection_order` leaves in node
#: order.  With the ``radial_quartic`` LMA operator at h = 1/128 (51 429
#: nodes) leaves of 16, 32, 64 and 256 nodes give 4.16, 4.28, 4.55 and
#: 5.95 million factor entries; smaller leaves make more parts to order.
_DISSECTION_LEAF = 16

#: Settings of every sparse LU factorization in the package, which
#: :func:`factor_lu` applies to the matrix permuted by
#: :func:`dissection_order`: SuperLU's symmetric mode, the given order kept
#: (``NATURAL``) and pivots taken from the diagonal.  The 9-point
#: ``cof H : D^2`` operators are nearly symmetric in structure, the case
#: the SuperLU Users' Guide (Demmel, Gilbert, Li) recommends this mode for.
SYMMETRIC_LU = {
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}

#: Solver events of the process, each counted where it happens, under the
#: names of :class:`amce.coupled.SolveReport`'s count fields.  A solve
#: reports the difference from a copy taken when it starts, so solves made
#: one after another in one process stay apart.
COUNTS: Counter = Counter()


@dataclass
class OpPair:
    D: sp.csr_matrix  # (N, N) interior part
    B: sp.csr_matrix  # (N, M) boundary part

    def apply(self, values: Array, hit_values: Array) -> Array:
        """Node values of the operator: ``D @ values + B @ hit_values``."""
        return self.D @ values + self.B @ hit_values


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
        ref = grid.arm_ref[:, d]
        is_hit = ref >= n
        rows_d.append(node_ids[~is_hit])
        cols_d.append(ref[~is_hit])
        vals_d.append(coeff[~is_hit])
        rows_b.append(node_ids[is_hit])
        cols_b.append(ref[is_hit] - n)
        vals_b.append(coeff[is_hit])

    D = sp.csr_matrix(
        (np.concatenate(vals_d), (np.concatenate(rows_d), np.concatenate(cols_d))),
        shape=(n, n),
    )
    B = sp.csr_matrix(
        (np.concatenate(vals_b), (np.concatenate(rows_b), np.concatenate(cols_b))),
        shape=(n, m),
    )
    return OpPair(D=D, B=B)


def _cross_ops(grid: Grid) -> OpPair:
    diag_len = grid.h * np.sqrt(2.0)
    dpp = _line_ops(grid, 4, 5, diag_len, order=2)  # along (1, 1)/sqrt 2
    dmm = _line_ops(grid, 6, 7, diag_len, order=2)  # along (1, -1)/sqrt 2
    return OpPair(
        D=((dpp.D - dmm.D) * 0.5).tocsr(),
        B=((dpp.B - dmm.B) * 0.5).tocsr(),
    )


def _laplacian(grid: Grid) -> OpPair:
    dxx, dyy = grid_operators(grid, "dxx"), grid_operators(grid, "dyy")
    return OpPair(D=(dxx.D + dyy.D).tocsr(), B=(dxx.B + dyy.B).tocsr())


#: How each operator of :func:`grid_operators` is built from the grid.
_BUILDERS: dict[str, Callable[[Grid], OpPair]] = {
    "dxx": lambda grid: _line_ops(grid, 0, 1, grid.h, order=2),
    "dyy": lambda grid: _line_ops(grid, 2, 3, grid.h, order=2),
    "dxy": _cross_ops,
    "dx": lambda grid: _line_ops(grid, 0, 1, grid.h, order=1),
    "dy": lambda grid: _line_ops(grid, 2, 3, grid.h, order=1),
    "lap": _laplacian,
}


def grid_operators(grid: Grid, name: str) -> OpPair:
    """The grid's difference operator ``name``: ``"dxx"``, ``"dyy"``,
    ``"dxy"``, ``"dx"``, ``"dy"`` or ``"lap"``.

    Each is built the first time it is read and cached in the grid's
    ``_ops``, so a command pays only for the operators it uses: the
    linearized solve never builds the first differences or the Laplacian.
    """
    if name not in grid._ops:
        grid._ops[name] = _BUILDERS[name](grid)
    return grid._ops[name]


@dataclass
class HessianField:
    """Node-wise discrete Hessian entries of a scalar field."""

    grid: Grid
    hxx: Array
    hxy: Array
    hyy: Array

    def det(self) -> Array:
        return self.hxx * self.hyy - self.hxy**2

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
    vals, hits = field.values, field.hit_values
    return HessianField(
        grid=grid,
        hxx=grid_operators(grid, "dxx").apply(vals, hits),
        hxy=grid_operators(grid, "dxy").apply(vals, hits),
        hyy=grid_operators(grid, "dyy").apply(vals, hits),
    )


def discrete_gradient(field: ScalarField) -> Array:
    """Node-wise first derivatives, (N, 2)."""
    grid, vals, hits = field.grid, field.values, field.hit_values
    return np.stack(
        [grid_operators(grid, name).apply(vals, hits) for name in ("dx", "dy")], axis=1
    )


def dissection_order(grid: Grid) -> Array:
    """Nested-dissection order of the grid's nodes, built once and cached.

    A part of the lattice is split by the lattice line through its median
    node across its longer side; the part below the line is ordered first,
    the part above it next, each in the same way, and the line's nodes
    last.  Every arm of a node ends at the next lattice index, so the line
    separates the two parts in any operator built from the grid's stencils,
    and their blocks of the permuted matrix are uncoupled (George, "Nested
    dissection of a regular finite element mesh", SIAM J. Numer. Anal.
    1973).  A part of at most ``_DISSECTION_LEAF`` nodes keeps node order.
    Returns ``p`` with ``p[k]`` the node eliminated ``k``-th.

    The order is built level by level, every part of a level at once: each
    part owns a block of ``p``, its below and above parts the front of that
    block and its line the back, each in node order.
    """
    if grid._order is None:
        grid._order = _nested_dissection(grid.lattice)
    return grid._order


def _nested_dissection(lattice: Array) -> Array:
    """:func:`dissection_order` of the lattice indices ``(N, 2)``."""
    order = np.empty(len(lattice), dtype=np.int64)
    # the nodes of the open parts, part after part, each in node order
    nodes = np.arange(len(lattice))
    sizes = np.array([len(lattice)])
    slots = np.array([0])  # where each part's block of ``order`` begins
    while len(nodes):
        starts = np.cumsum(sizes) - sizes
        ends = starts + sizes - 1
        part = np.repeat(np.arange(len(sizes)), sizes)
        i, j = lattice[nodes, 0], lattice[nodes, 1]
        i_lo, j_lo = np.minimum.reduceat(i, starts), np.minimum.reduceat(j, starts)
        i_span = np.maximum.reduceat(i, starts) - i_lo
        j_span = np.maximum.reduceat(j, starts) - j_lo
        across_j = j_span > i_span
        key = np.where(across_j[part], j, i)
        key_lo = np.where(across_j, j_lo, i_lo)
        # each part's median key from its histogram: the first bin whose
        # running count passes the part's middle node
        bins = np.where(across_j, j_span, i_span) + 1
        first_bin = np.cumsum(bins) - bins
        running = np.cumsum(np.bincount(first_bin[part] + key - key_lo[part]))
        line = np.searchsorted(running, starts + sizes // 2, side="right")
        line = (line + key_lo - first_bin)[part]
        # a leaf's nodes all go where a line's would
        split = (sizes > _DISSECTION_LEAF)[part]
        below, above = split & (key < line), split & (key > line)
        on = ~(below | above)
        rank_below, n_below = _ranks(below, part, starts, ends)
        rank_above, n_above = _ranks(above, part, starts, ends)
        rank_on, _ = _ranks(on, part, starts, ends)
        order[(slots + n_below + n_above)[part[on]] + rank_on[on]] = nodes[on]
        # the next level's parts: each part's below part, then its above part
        new_sizes = np.stack([n_below, n_above], axis=1).ravel()
        new_starts = np.cumsum(new_sizes) - new_sizes
        dest = new_starts[2 * part + above] + np.where(above, rank_above, rank_below)
        moved = ~on
        next_nodes = np.empty(len(nodes) - int(on.sum()), dtype=np.int64)
        next_nodes[dest[moved]] = nodes[moved]
        kept = new_sizes > 0
        slots = np.stack([slots, slots + n_below], axis=1).ravel()[kept]
        nodes, sizes = next_nodes, new_sizes[kept]
    return order


def _ranks(mask: Array, part: Array, starts: Array, ends: Array) -> tuple[Array, Array]:
    """Rank of each node among the ``mask`` nodes of its part, and their count.

    The parts are the runs ``starts[k]`` to ``ends[k]`` of ``mask``, and
    ``part`` holds each node's run.
    """
    running = np.cumsum(mask)
    before = running[starts] - mask[starts]
    return running - 1 - before[part], running[ends] - before


@dataclass
class PermutedLU:
    """LU factor of ``A[perm][:, perm]`` that solves systems in ``A``.

    ``perm`` is None for a factor of ``A`` itself in SciPy's default
    ordering and pivoting (see :func:`pivoting_lu`).  Every factor the
    package makes is one, so every solve counts in ``COUNTS["lu_solves"]``
    here.
    """

    lu: object  # the factor ``splu`` returned
    perm: Array | None

    def solve(self, b: Array, trans: str = "N") -> Array:
        """``x`` with ``A x = b``, or ``A^T x = b`` for ``trans="T"``.

        ``b`` is ``(n,)`` or ``(n, k)``, like SuperLU's own ``solve``.
        """
        COUNTS["lu_solves"] += 1
        if self.perm is None:
            return self.lu.solve(b, trans=trans)
        y = self.lu.solve(np.asarray(b)[self.perm], trans=trans)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def pivoting_lu(splu, A: sp.csc_matrix) -> PermutedLU:
    """The factor of ``A`` in SciPy's default ordering and partial pivoting.

    The retry for a symmetric-mode factor that cannot be made or does not
    solve; it counts in ``COUNTS["factorizations"]`` and
    ``COUNTS["pivoting_refactors"]``.  ``splu`` is the caller's own binding
    of :func:`scipy.sparse.linalg.splu`.
    """
    COUNTS.update(factorizations=1, pivoting_refactors=1)
    return PermutedLU(splu(A), None)


def factor_lu(splu, A: sp.csc_matrix, grid: Grid) -> PermutedLU:
    """An LU factor of the grid operator ``A``.

    ``A`` is permuted into :func:`dissection_order` and factored with
    :data:`SYMMETRIC_LU`; the result is the :class:`PermutedLU` that solves
    with ``A`` itself.  Symmetric mode does not pivot for size, so when
    ``splu`` raises, :func:`pivoting_lu`'s factor is returned; a second
    ``RuntimeError`` propagates.  Every ``splu`` call counts in
    ``COUNTS["factorizations"]``.  ``splu`` is the caller's own binding of
    :func:`scipy.sparse.linalg.splu`.
    """
    p = dissection_order(grid)
    COUNTS["factorizations"] += 1
    try:
        return PermutedLU(splu(A[p][:, p], **SYMMETRIC_LU), p)
    except RuntimeError:
        return pivoting_lu(splu, A)


# Restart length of :func:`gmres`, and the floor and ceiling of
# :func:`forcing_term`
_KRYLOV_RESTART = 10
_KRYLOV_RTOL = 1e-10
_KRYLOV_RTOL_MAX = 1e-2
#: Restart cycles of :func:`gmres`, the one budget of every GMRES through a
#: held factor: a coupled Newton step's, a determinant step's or a linear
#: solve's.  30 iterations at most, about one factorization's cost when they
#: fail through a factor of another operator; through a step's own factor
#: they take a few.
KRYLOV_HELD_CYCLES = 3
#: Most GMRES iterations a coupled Newton step may take through the factor
#: it solved through and still hand that factor on; past them the next solve
#: makes its own operator's.  At h = 1/64 a factor costs about 15-30 solves,
#: as the machine has it, and a coupled step's GMRES iteration 2 solves plus
#: 4 matrix-free ``cof H : D^2`` products, while a step through its own
#: factor takes 3-4 iterations.  Through a lagged factor the iterations grow as the forcing
#: term tightens, so the excess of a step past 8 pays for a factor within a
#: step or two (Knoll and Keyes refresh a lagged preconditioner alike).
KRYLOV_REFACTOR_ITERATIONS = 8


def forcing_term(residual: Array) -> float:
    """GMRES tolerance of a Newton step: ``max(1e-10, min(1e-2, max |F|))``.

    A forcing term in the sense of Dembo, Eisenstat and Steihaug (SIAM J.
    Numer. Anal. 19, 1982): loose while the residual ``F`` is large, and at
    the floor once Newton converges, so the steps still converge
    quadratically.
    """
    return max(_KRYLOV_RTOL, min(_KRYLOV_RTOL_MAX, float(np.max(np.abs(residual)))))


def gmres(
    A: Callable[[Array], Array],
    b: Array,
    M: Callable[[Array], Array],
    rtol: float,
    x0: Array | None = None,
) -> Array | None:
    """``x`` with ``|b - A x|_2 <= rtol |b|_2`` by restarted, left-preconditioned
    GMRES, or None.

    ``A(v)`` applies the operator and ``M(v)`` the preconditioner's inverse,
    a solve through a held LU factor (:class:`PermutedLU`).  The contract is
    SciPy's (:func:`scipy.sparse.linalg.gmres`): Arnoldi by modified
    Gram-Schmidt, the least-squares problem by Givens rotations, a restart
    every ``_KRYLOV_RESTART`` iterations and at most ``KRYLOV_HELD_CYCLES``
    restart cycles, starting from ``x0`` (zero when None).  ``x`` has
    converged when the Arnoldi estimate of ``|M r|_2`` is at most
    ``rtol |M b|_2`` and the true ``|r|_2 = |b - A x|_2`` at most
    ``rtol |b|_2``; otherwise the result is None.  The true-residual test
    fails for any non-finite ``x``.  Every iteration counts in
    ``COUNTS["krylov_iterations_total"]``.

    Two things differ from SciPy's.  ``M b`` is computed once, and is the
    first basis vector when ``x0`` is None.  An estimate that passes while
    the true residual misses tightens the estimate's target (SciPy's
    factor of 1/4) and the same basis is extended: a restart comes only
    with a full basis.  So a call that does not restart applies ``M``
    ``iterations + 1`` times, or ``iterations + 2`` with ``x0``.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)
    atol = rtol * b_norm
    z = M(b)  # the preconditioned residual that starts each cycle
    target = float(np.linalg.norm(z)) * min(1.0, rtol)
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=float)
        r = b - A(x)
        if np.linalg.norm(r) <= atol:
            return x
        z = M(r)
    size = min(_KRYLOV_RESTART, n)
    eps = np.finfo(float).eps
    V = np.empty((size + 1, n))  # the Arnoldi basis
    R = np.zeros((size + 1, size))  # the Hessenberg matrix, rotated triangular
    rotations = []
    loosen = 1.0  # SciPy's ``ptol_max_factor``
    for cycle in range(KRYLOV_HELD_CYCLES):
        s = np.zeros(size + 1)  # the rotated right-hand side
        s[0] = np.linalg.norm(z)
        V[0] = z / s[0]
        rotations.clear()
        for j in range(size):
            w = M(A(V[j]))
            before = np.linalg.norm(w)
            for k in range(j + 1):
                R[k, j] = V[k] @ w
                w -= R[k, j] * V[k]
            after = float(np.linalg.norm(w))
            breakdown = after <= eps * before  # the basis spans the solution
            R[j + 1, j] = 0.0 if breakdown else after
            if not breakdown:
                V[j + 1] = w / after
            for k, (c, sn) in enumerate(rotations):
                R[k, j], R[k + 1, j] = (
                    c * R[k, j] + sn * R[k + 1, j], c * R[k + 1, j] - sn * R[k, j]
                )
            rho = float(np.hypot(R[j, j], R[j + 1, j]))
            c, sn = (R[j, j] / rho, R[j + 1, j] / rho) if rho else (1.0, 0.0)
            rotations.append((c, sn))
            R[j, j], R[j + 1, j] = rho, 0.0
            s[j], s[j + 1] = c * s[j], -sn * s[j]
            estimate = abs(s[j + 1])
            COUNTS["krylov_iterations_total"] += 1
            checked = breakdown or estimate <= target
            if checked or j == size - 1:
                x_j = x + _back_substitute(R[: j + 1, : j + 1], s[: j + 1]) @ V[: j + 1]
                r = b - A(x_j)
                r_norm = float(np.linalg.norm(r))
                if r_norm <= atol:
                    return x_j
                if breakdown:
                    return None
                loosen = max(eps, 0.25 * loosen) if checked else min(1.0, 1.5 * loosen)
                target = estimate * min(loosen, atol / r_norm)
        x = x_j
        if cycle + 1 < KRYLOV_HELD_CYCLES:
            z = M(r)
    return None


def _back_substitute(R: Array, s: Array) -> Array:
    """``y`` with ``R y = s`` for upper-triangular ``R``; a zero pivot gives 0."""
    y = s.copy()
    for k in range(len(y) - 1, -1, -1):
        y[k] = y[k] / R[k, k] if R[k, k] != 0.0 else 0.0
        y[:k] -= y[k] * R[:k, k]
    return y


def poisson_solver(
    grid: Grid, kept: list | None = None
) -> Callable[[Array, Array], Array]:
    """``solve`` through one LU factor of the discrete Laplacian.

    ``solve(rhs, hit_values)`` solves ``lap u = rhs`` with Dirichlet data
    ``hit_values``; the factor lives as long as ``solve`` does.  Each solve
    is followed by one pass of iterative refinement against ``lap`` itself.
    Without it, the Poisson start of a radial fixture, exact up to
    round-off, leaves the first determinant solve outside
    :data:`amce.ma.BERR_TOL` at h = 1/64, and that solve takes a Newton step
    and makes a factor.

    ``kept``, when given, receives the factor too, so that it outlives
    ``solve``: the coupled solve hands it on to its first linear solve,
    whose operator is a multiple of the Laplacian when the Poisson start is
    a paraboloid (see :func:`amce.lma.solve_lma`).
    """
    lap = grid_operators(grid, "lap")
    try:
        lu = factor_lu(splu, lap.D.tocsc(), grid)
    except RuntimeError as exc:
        raise DegenerateOperatorError(f"Poisson operator: {exc}") from exc
    if kept is not None:
        kept.append(lu)

    def solve(rhs: Array, hit_values: Array) -> Array:
        b = np.asarray(rhs, dtype=float) - lap.B @ np.asarray(hit_values, dtype=float)
        x = lu.solve(b)
        return x + lu.solve(b - lap.D @ x)

    return solve


def solve_poisson(grid: Grid, rhs: Array, hit_values: Array) -> Array:
    """Solve the discrete Poisson problem ``lap u = rhs`` with Dirichlet data."""
    return poisson_solver(grid)(rhs, hit_values)


def lstsq_stack(A: Array, b: Array) -> Array:
    """Minimum-norm least-squares solutions of a stack of problems.

    ``A`` is ``(K, m, n)`` and ``b`` is ``(K, m)``; row ``i`` of the result
    minimizes ``|A[i] x - b[i]|`` with the least ``|x|``.  Singular values
    at or below ``eps * max(m, n)`` times the largest are treated as zero,
    the rank rule of ``np.linalg.lstsq``.  LAPACK factors each matrix on
    its own and the sums run in a fixed order, so a problem gets the same
    bits alone as in any stack.
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = s > np.finfo(float).eps * max(A.shape[1:]) * s[:, :1]
    y = (U * b[:, :, None]).sum(axis=1)
    y = np.where(rank, y / np.where(rank, s, 1.0), 0.0)
    return (Vt * y[:, :, None]).sum(axis=1)


def local_quadratic_fit(field: ScalarField, points, smooth: bool = False):
    """Least-squares quadratic models of the field around arbitrary points.

    ``points`` is a ``(K, 2)`` array.  Each point is fitted to the nearby
    interior node values and boundary hit values, found by one KD-tree
    query for the whole batch.

    The default box rule takes the data within ``3.5 h`` in the max norm
    with unit weights, widening the box by 1.6 (up to four tries) until it
    holds eight points, else it raises :class:`IncompleteDataError`.  The
    smooth rule weighs the data within the radius ``r = 3.5 h`` by
    ``(1 - (d/r)^2)^2``, which makes the fit a C^1 function of the point:
    finite differences of resampled values then converge, where fitting the
    scattered data piecewise leaves O(1) noise in second differences.  A
    point outside the domain, or with fewer than ten positive weights, gets
    NaN.

    The weighted problems are solved ``_FIT_CHUNK`` points at a time, which
    bounds the temporary memory.  Within a chunk the points with the same
    number of rows form one stack for :func:`lstsq_stack`, so nothing is
    padded, ``np.linalg.lstsq``'s rank rule gives a rank-deficient
    neighbourhood its minimum-norm fit, and a point gets the same bits
    alone as in any batch.

    Returns ``(value, gradient, hessian)`` of the fitted quadratic at each
    point, arrays of shapes ``(K,)``, ``(K, 2)`` and ``(K, 2, 2)``.  Exact
    when the data is quadratic.
    """
    grid = field.grid
    pts = np.asarray(points, dtype=float)
    data_pts = np.vstack([grid.nodes, grid.hit_points])
    data_val = np.concatenate([field.values, field.hit_values])
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

    sizes = np.fromiter(map(len, hoods), dtype=np.intp, count=len(hoods))
    flat = np.fromiter(chain.from_iterable(hoods), dtype=np.intp, count=sizes.sum())
    owner = np.repeat(where, sizes)
    del hoods  # the lists of ids outweigh a chunk's arrays
    starts = np.concatenate([[0], np.cumsum(sizes)])
    coef = np.full((len(pts), 6), np.nan)
    for c in range(0, len(where), _FIT_CHUNK):
        rows = slice(starts[c], starts[min(c + _FIT_CHUNK, len(where))])
        ids, k = flat[rows], owner[rows]
        d = (data_pts[ids] - pts[k]) / grid.h  # normalize for conditioning
        vals, sw = data_val[ids], np.ones(len(d))
        if smooth:
            dd = d * d  # summed column by column: the bits of a row sum
            wts = np.maximum(1.0 - (dd[:, 0] + dd[:, 1]) / _FIT_RADIUS**2, 0.0) ** 2
            keep = wts > 0.0
            d, vals, k, sw = d[keep], vals[keep], k[keep], np.sqrt(wts[keep])
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
        A, vals = A * sw[:, None], vals * sw
        # each point's rows are contiguous: one stacked solve per row count
        pt, first, m = np.unique(k, return_index=True, return_counts=True)
        for size in np.unique(m[m >= (10 if smooth else 8)]):
            sel = m == size
            take = first[sel, None] + np.arange(size)
            coef[pt[sel]] = lstsq_stack(A[take], vals[take])
    value = coef[:, 0]
    grad = coef[:, 1:3] / grid.h
    hess = coef[:, [3, 4, 4, 5]].reshape(-1, 2, 2) / grid.h**2
    return value, grad, hess


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line ``y ~ slope * x + intercept`` and its ``r2``.

    Returns ``(slope, intercept, r2)``; ``r2`` is 1 when ``y`` is constant.
    """
    coeffs, res = np.polyfit(x, y, 1, full=True)[:2]
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(res[0]) if res.size else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), float(coeffs[1]), r2


def value_and_gradient_at(field: ScalarField, point) -> tuple[float, Array]:
    """Field value and gradient at an arbitrary point of the closed domain.

    At an interior node the value is the node's and the gradient comes from
    the non-uniform centered differences; anywhere else, boundary points
    included, both come from the local quadratic fit of nodes and hits.
    """
    p = np.asarray(point, dtype=float)
    nid = field.grid.node_at(p)
    if nid is not None:
        return float(field.values[nid]), discrete_gradient(field)[nid]
    value, grad, _ = local_quadratic_fit(field, p[None, :])
    return float(value[0]), grad[0]
