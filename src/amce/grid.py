"""Cut-cell finite difference grid inside a convex domain.

Interior nodes are the points of the absolute square lattice ``(i*h, j*h)``
that lie strictly inside the domain.  From every interior node eight arms
are cast: four along the axes and four along the diagonals.  Because the
domain is convex, each arm either reaches another interior node at the full
spacing or crosses the boundary exactly once; the crossing is located by
bisection to a fractional distance ``s in (0, 1]`` of the full arm length.
Axis arms drive the one-dimensional second differences, diagonal arms the
cross derivative, so every node has a complete (possibly shortened) stencil.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import EmptyGridError, IncompleteDataError
from .geometry import Domain

Array = np.ndarray

# Arm directions: +x, -x, +y, -y, then the two diagonals and their opposites.
DIRS = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]],
    dtype=int,
)
ARM_INTERIOR = 0
ARM_HIT = 1

_BISECT_ITERS = 60  # 2**-60 of an arm length is far below the 1e-12 target
_NODE_TOL = 1e-9  # coordinate match tolerance of node_at, relative to max(1, h)


@dataclass
class Grid:
    """Interior nodes, their eight arms and the boundary hits of the arms.

    ``id_map`` covers the lattice box ``id_origin + [0, shape)`` that
    contains every node and its eight neighbors: cell ``ij - id_origin``
    holds the id of the node at lattice index ``ij``, or -1 where there is
    none.  Look ids up through :meth:`ids_at`, which bounds-checks.
    """

    domain: Domain
    h: float
    nodes: Array  # (N, 2) coordinates
    lattice: Array  # (N, 2) integer lattice indices
    id_map: Array  # (I, J) node id per lattice cell of the box, -1 if none
    id_origin: Array  # (2,) lattice index of id_map[0, 0]
    arm_kind: Array  # (N, 8) ARM_INTERIOR or ARM_HIT
    arm_ref: Array  # (N, 8) neighbor node id or hit id
    arm_frac: Array  # (N, 8) fractional arm length in (0, 1]
    hit_points: Array  # (M, 2) boundary crossings
    hit_node: Array  # (M,) owning node id
    hit_dir: Array  # (M,) arm direction index
    _ops: dict = dc_field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_hits(self) -> int:
        return len(self.hit_points)

    def full_stencil_mask(self) -> Array:
        """Nodes whose eight arms all reach interior neighbors."""
        return (self.arm_kind == ARM_INTERIOR).all(axis=1)

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

    Raises EmptyGridError when no lattice point is strictly inside.  A
    spacing coarser than a quarter of the diameter is allowed but warned
    about, since single-node grids are only useful as degenerate cases.
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
    i_range = np.arange(int(np.ceil(xmin / h)) - 1, int(np.floor(xmax / h)) + 2)
    j_range = np.arange(int(np.ceil(ymin / h)) - 1, int(np.floor(ymax / h)) + 2)
    II, JJ = np.meshgrid(i_range, j_range, indexing="ij")
    lattice_all = np.stack([II.ravel(), JJ.ravel()], axis=1)
    pts_all = lattice_all * h
    inside = domain.level(pts_all) < 0.0
    lattice = lattice_all[inside]
    nodes = pts_all[inside]
    n = len(nodes)
    if n == 0:
        raise EmptyGridError(
            f"no lattice point of spacing {h} lies strictly inside the domain"
        )

    id_origin = np.array([i_range[0], j_range[0]])
    id_map = np.full(len(lattice_all), -1, dtype=np.int64)
    id_map[inside] = np.arange(n)
    id_map = id_map.reshape(len(i_range), len(j_range))

    arm_kind = np.zeros((n, 8), dtype=np.uint8)
    arm_ref = np.zeros((n, 8), dtype=np.int64)
    arm_frac = np.ones((n, 8), dtype=float)
    hit_points: list[Array] = []
    hit_node: list[int] = []
    hit_dir: list[int] = []

    for d in range(8):
        step = DIRS[d]
        nbr_ids = _ids_at(id_map, id_origin, lattice + step)
        is_int = nbr_ids >= 0
        arm_kind[is_int, d] = ARM_INTERIOR
        arm_ref[is_int, d] = nbr_ids[is_int]

        cut = np.nonzero(~is_int)[0]
        if len(cut) == 0:
            continue
        p0 = nodes[cut]
        delta = (step * h)[None, :]
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
        crossings = p0 + t[:, None] * delta
        base = len(hit_node)
        ids = base + np.arange(len(cut))
        arm_kind[cut, d] = ARM_HIT
        arm_ref[cut, d] = ids
        arm_frac[cut, d] = t
        hit_points.extend(crossings)
        hit_node.extend(cut.tolist())
        hit_dir.extend([d] * len(cut))

    return Grid(
        domain=domain,
        h=float(h),
        nodes=nodes,
        lattice=lattice,
        id_map=id_map,
        id_origin=id_origin,
        arm_kind=arm_kind,
        arm_ref=arm_ref,
        arm_frac=arm_frac,
        hit_points=np.array(hit_points).reshape(-1, 2),
        hit_node=np.array(hit_node, dtype=np.int64),
        hit_dir=np.array(hit_dir, dtype=np.int64),
    )


@dataclass
class ScalarField:
    """Grid function: interior values plus an optional boundary trace.

    ``hit_values`` holds the trace sampled at the grid's boundary hit
    points; ``trace`` optionally keeps the generating callable so the field
    can be re-sampled at arbitrary boundary points.
    """

    grid: Grid
    values: Array
    hit_values: Array | None = None
    trace: Callable[[Array], Array] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"values shape {self.values.shape} != ({self.grid.n_nodes},)"
            )
        if self.hit_values is None and self.trace is not None:
            self.hit_values = self._sample_trace()
        if self.hit_values is not None:
            self.hit_values = np.asarray(self.hit_values, dtype=float)
            if self.hit_values.shape != (self.grid.n_hits,):
                raise ValueError("hit_values length does not match grid hits")

    def _sample_trace(self) -> Array:
        if self.grid.n_hits == 0:
            return np.zeros(0)
        return np.asarray(self.trace(self.grid.hit_points), dtype=float)

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable[[Array], Array]) -> "ScalarField":
        return cls(
            grid=grid,
            values=np.asarray(fn(grid.nodes), dtype=float),
            trace=fn,
        )

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "ScalarField":
        return cls(
            grid=grid,
            values=np.full(grid.n_nodes, float(c)),
            hit_values=np.full(grid.n_hits, float(c)),
        )

    def require_hit_values(self) -> Array:
        if self.hit_values is None:
            raise IncompleteDataError(
                "operation needs boundary values but the field has no trace"
            )
        return self.hit_values

    def copy(self) -> "ScalarField":
        return ScalarField(
            grid=self.grid,
            values=self.values.copy(),
            hit_values=None if self.hit_values is None else self.hit_values.copy(),
            trace=self.trace,
        )

    def with_values(self, values: Array) -> "ScalarField":
        return ScalarField(
            grid=self.grid,
            values=np.asarray(values, dtype=float),
            hit_values=None if self.hit_values is None else self.hit_values.copy(),
            trace=self.trace,
        )

    def sup_norm(self) -> float:
        """Largest magnitude over the nodes and, when sampled, the boundary."""
        m = float(np.max(np.abs(self.values))) if len(self.values) else 0.0
        if self.hit_values is not None and len(self.hit_values):
            m = max(m, float(np.max(np.abs(self.hit_values))))
        return m
