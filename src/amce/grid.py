"""Cut-cell finite difference grid inside a convex domain.

Interior nodes are the points of the absolute square lattice ``(i*h, j*h)``
that lie strictly inside the domain, farther than round-off from its
boundary.  From every interior node eight arms are cast: four along the
axes and four along the diagonals.  Because the domain is convex, each arm
either reaches another interior node at the full spacing or crosses the
boundary exactly once; the crossing is located by bisection to a
fractional distance ``s in (0, 1]`` of the full arm length.
Axis arms drive the one-dimensional second differences, diagonal arms the
cross derivative, so every node has a complete (possibly shortened) stencil.

A field is read nodes first, then boundary hits, and an arm's end is its
index in that order: a node id, or ``n_nodes`` plus a hit id.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (
    EmptyGridError,
    InvalidDomainError,
    InvalidProblemError,
)
from .geometry import Domain

Array = np.ndarray

# Arm directions: +x, -x, +y, -y, then the two diagonals and their opposites.
DIRS = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]],
    dtype=int,
)

_BISECT_ITERS = 60  # 2**-60 of an arm length is far below the 1e-12 target
_NODE_TOL = 1e-9  # coordinate match tolerance of node_at, relative to max(1, h)
# a lattice point within this many h of the boundary, to first order, lies on
# it up to round-off and is not a node
_ON_BOUNDARY_TOL = 1e-9
# build_grid peaks at about 265 bytes per cell of the lattice box, in the
# neighbor gather (tracemalloc, the unit disk and the 1 x 0.5 ellipse at
# h = 1/256 and 1/512), so this caps it near 4.1 GiB; h = 1/512 on the unit
# disk takes 1.05e6 cells
_MAX_BOX_CELLS = 2**24


@dataclass
class Grid:
    """Interior nodes, their eight arms and the boundary hits of the arms.

    ``id_map`` covers the lattice box ``id_origin + [0, shape)``: cell
    ``ij - id_origin`` holds the id of the node at lattice index ``ij``, or
    -1 where there is none.  Its outermost rows and columns hold no node,
    so every node's eight neighbors lie inside it.  Look ids up through
    :meth:`ids_at`, which bounds-checks.
    ``build_grid`` emits nodes in lattice ``(i, j)`` order, so
    ``nodes[:, 0]`` is non-decreasing.
    """

    domain: Domain
    h: float
    nodes: Array  # (N, 2) coordinates
    lattice: Array  # (N, 2) integer lattice indices
    id_map: Array  # (I, J) node id per lattice cell of the box, -1 if none
    id_origin: Array  # (2,) lattice index of id_map[0, 0]
    arm_ref: Array  # (N, 8) neighbor node id, or N + hit id
    arm_frac: Array  # (N, 8) fractional arm length in (0, 1]
    hit_points: Array  # (M, 2) boundary crossings
    _ops: dict = dc_field(default_factory=dict, repr=False)  # see grid_operators
    _order: Array | None = dc_field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_hits(self) -> int:
        return len(self.hit_points)

    def full_stencil_mask(self) -> Array:
        """Nodes whose eight arms all reach interior neighbors."""
        return (self.arm_ref < self.n_nodes).all(axis=1)

    def ids_at(self, ij) -> Array:
        """Node ids at lattice indices ``ij`` of shape (..., 2), -1 where none.

        Indices outside the box, and non-finite ones, map to -1.
        """
        return _ids_at(self.id_map, self.id_origin, ij)

    def node_at(self, point) -> int | None:
        """Node id at the given coordinates, or None."""
        p = np.asarray(point, dtype=float)
        nid = int(self.ids_at(np.rint(p / self.h)))
        tol = _NODE_TOL * max(1.0, self.h)
        if nid < 0 or np.max(np.abs(self.nodes[nid] - p)) > tol:
            return None
        return nid


def _ids_at(id_map: Array, origin: Array, ij) -> Array:
    k = np.asarray(ij) - origin
    inside = np.all((k >= 0) & (k < id_map.shape), axis=-1)
    ids = np.full(inside.shape, -1, dtype=np.int64)
    kk = k[inside].astype(np.int64)
    ids[inside] = id_map[kk[:, 0], kk[:, 1]]
    return ids


def build_grid(domain: Domain, h: float) -> Grid:
    """Construct the cut-cell grid for the domain at lattice spacing ``h``.

    A lattice point inside the domain whose first-order distance
    ``-F / |grad F|`` to the boundary is at most ``1e-9 h`` lies on it up
    to round-off, and is not a node: its arms would be round-off long.

    Raises EmptyGridError when no lattice point is strictly inside, and
    InvalidDomainError, before allocating anything, when an index bound of
    the lattice box is not an int64 or the box has more than
    ``_MAX_BOX_CELLS`` cells.  A spacing coarser than a quarter of
    the diameter is allowed but warned about, since single-node grids are
    only useful as degenerate cases.

    All eight neighbor ids of every node are gathered from the padded
    ``id_map`` at once, and one bisection runs over every cut arm of the
    eight directions together.  Hit ids run direction by direction, in node
    order within a direction.
    """
    if not np.isfinite(h) or h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    diam = domain.diameter
    if h >= diam / 4.0:
        warnings.warn(
            f"grid spacing h={h} is coarse for domain diameter {diam:.3g}",
            stacklevel=2,
        )

    xmin, xmax, ymin, ymax = domain.bbox()
    # index range of the lattice box; an overflowing quotient is inf, which
    # fails the int64 test like nan
    with np.errstate(over="ignore"):
        lo_i, hi_i = np.ceil(xmin / h) - 1, np.floor(xmax / h) + 1
        lo_j, hi_j = np.ceil(ymin / h) - 1, np.floor(ymax / h) + 1
    if not all(abs(b) < 2.0**63 for b in (lo_i, hi_i, lo_j, hi_j)):
        raise InvalidDomainError(
            f"lattice of spacing {h} over the box [{xmin:.3g}, {xmax:.3g}] x "
            f"[{ymin:.3g}, {ymax:.3g}] has indices beyond the int64 range"
        )
    cells = (hi_i - lo_i + 1.0) * (hi_j - lo_j + 1.0)
    if cells > _MAX_BOX_CELLS:
        raise InvalidDomainError(
            f"lattice of spacing {h} has a box of {cells:.3g} cells, more "
            f"than the {_MAX_BOX_CELLS} that fit the memory budget"
        )
    i_range = np.arange(int(lo_i), int(hi_i) + 1)
    j_range = np.arange(int(lo_j), int(hi_j) + 1)
    II, JJ = np.meshgrid(i_range, j_range, indexing="ij")
    lattice_all = np.stack([II.ravel(), JJ.ravel()], axis=1)
    pts_all = lattice_all * h
    level = domain.level(pts_all)
    inside = level < 0.0
    cand = np.nonzero(inside)[0]
    slope = np.linalg.norm(domain.grad(pts_all[cand]), axis=1)
    inside[cand[-level[cand] <= _ON_BOUNDARY_TOL * h * slope]] = False
    lattice = lattice_all[inside]
    nodes = pts_all[inside]
    n = len(nodes)
    if n == 0:
        raise EmptyGridError(
            f"no lattice point of spacing {h} lies strictly inside the domain"
        )

    # the map pads the box with one cell of -1 on every side, so the unchecked
    # gather below never wraps: domain.bbox() comes from boundary samples and
    # may understate the domain, putting nodes on the box's edge rows
    id_origin = np.array([i_range[0] - 1, j_range[0] - 1])
    id_map = np.full((len(i_range) + 2, len(j_range) + 2), -1, dtype=np.int64)
    id_map[1:-1, 1:-1][inside.reshape(len(i_range), len(j_range))] = np.arange(n)

    k = lattice - id_origin
    # neighbor ids; a cut arm's -1 becomes n + its hit id below
    arm_ref = id_map[k[:, 0, None] + DIRS[:, 0], k[:, 1, None] + DIRS[:, 1]]
    # cut arms direction by direction, each in node order: hit ids follow
    cut_d, cut = np.nonzero(arm_ref.T < 0)
    p0 = nodes[cut]
    delta = DIRS[cut_d] * h
    # Bisect F(p0 + t * delta) = 0 on t in (0, 1]; F(p0) < 0 and the
    # neighbor is outside or on the boundary, so the root is unique.
    t_lo = np.zeros(len(cut))
    t_hi = np.ones(len(cut))
    for _ in range(_BISECT_ITERS):
        t_mid = 0.5 * (t_lo + t_hi)
        neg = domain.level(p0 + t_mid[:, None] * delta) < 0.0
        t_lo = np.where(neg, t_mid, t_lo)
        t_hi = np.where(neg, t_hi, t_mid)
    t = t_hi  # first nonnegative level along the arm

    arm_frac = np.ones((n, 8), dtype=float)
    arm_ref[cut, cut_d] = n + np.arange(len(cut))
    arm_frac[cut, cut_d] = t

    return Grid(
        domain=domain,
        h=float(h),
        nodes=nodes,
        lattice=lattice,
        id_map=id_map,
        id_origin=id_origin,
        arm_ref=arm_ref,
        arm_frac=arm_frac,
        hit_points=p0 + t[:, None] * delta,
    )


@dataclass
class ScalarField:
    """Grid function: values at the interior nodes and at the boundary hits.

    ``values`` holds one value per node and ``hit_values`` one per boundary
    hit point of the grid, so every field carries its Dirichlet data.  Every
    grid has hits: the node of largest lattice ``i`` has no ``+x``
    neighbor, so its ``+x`` arm crosses the boundary.
    """

    grid: Grid
    values: Array
    hit_values: Array

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.grid.n_nodes},)"
            )
        self.hit_values = np.asarray(self.hit_values, dtype=float)
        if self.hit_values.shape != (self.grid.n_hits,):
            raise ValueError("hit_values length does not match grid hits")

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[Array], Array]) -> "ScalarField":
        """``fn`` sampled at the nodes and at the boundary hits."""
        return cls(grid=grid, values=fn(grid.nodes), hit_values=fn(grid.hit_points))

    def copy(self) -> "ScalarField":
        return self.with_values(self.values.copy())

    def with_values(self, values: Array) -> "ScalarField":
        return ScalarField(
            grid=self.grid,
            values=np.asarray(values, dtype=float),
            hit_values=self.hit_values.copy(),
        )

    def sup_norm(self) -> float:
        """Largest magnitude over the nodes and the boundary hits."""
        return float(max(np.abs(self.values).max(), np.abs(self.hit_values).max()))


def require_finite(**samples) -> None:
    """Raise InvalidProblemError if a named sample holds NaN or infinity.

    A :class:`ScalarField` counts with its boundary trace.
    """
    for name, vals in samples.items():
        field = isinstance(vals, ScalarField)
        parts = (vals.values, vals.hit_values) if field else (vals,)
        if not all(np.isfinite(a).all() for a in parts):
            raise InvalidProblemError(f"{name} has non-finite sampled values")
