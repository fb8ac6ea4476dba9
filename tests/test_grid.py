"""Cut-cell grid construction: arms, hit points, refinement scaling."""

import tracemalloc

import numpy as np
import pytest

from amce import (
    Disk,
    Ellipse,
    EmptyGridError,
    InvalidDomainError,
    ScalarField,
    build_grid,
)
from amce.geometry import polynomial_levelset
from amce.grid import (
    _BISECT_ITERS,
    _ON_BOUNDARY_TOL,
    ARM_HIT,
    ARM_INTERIOR,
    DIRS,
    _ids_at,
)


def test_arm_fractions_in_unit_interval(grid32):
    assert grid32.arm_frac.min() > 0.0
    assert grid32.arm_frac.max() <= 1.0 + 1e-12
    # interior arms have fraction exactly 1
    interior = grid32.arm_kind == ARM_INTERIOR
    np.testing.assert_allclose(grid32.arm_frac[interior], 1.0, atol=1e-12)


def test_hit_points_lie_on_boundary(grid32):
    lvl = grid32.domain.level(grid32.hit_points)
    assert np.abs(lvl).max() < 1e-9


def test_arm_references_are_consistent(grid32):
    g = grid32
    for node in (0, g.n_nodes // 2, g.n_nodes - 1):
        for d in range(8):
            ref = g.arm_ref[node, d]
            step = DIRS[d] * g.h
            if g.arm_kind[node, d] == ARM_INTERIOR:
                np.testing.assert_allclose(
                    g.nodes[ref], g.nodes[node] + step, atol=1e-12
                )
            else:
                np.testing.assert_allclose(
                    g.hit_points[ref],
                    g.nodes[node] + g.arm_frac[node, d] * step,
                    atol=1e-12,
                )


def test_refinement_quadruples_interior_nodes():
    d = Disk(radius=1.0)
    n_prev = None
    for h in (1 / 16, 1 / 32, 1 / 64):
        n = build_grid(d, h).n_nodes
        if n_prev is not None:
            assert n >= 3.8 * n_prev
        n_prev = n


def test_anisotropic_domain_grid():
    g = build_grid(Ellipse(a=1.5, b=0.6), 1 / 16)
    assert g.n_nodes > 0
    assert g.domain.contains(g.nodes).all()


def test_oversized_lattice_box_is_refused_before_allocating():
    # h = 1e-5 on the unit disk is a 4e10-cell box, ~10 TB at build_grid's
    # peak per cell
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDomainError, match="memory budget"):
            build_grid(Disk(radius=1.0), 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_lattice_point_on_the_boundary_up_to_roundoff_is_dropped():
    """(-0.72, -0.72) is on the ellipse a = 1.2, b = 0.9 with F = -1.1e-16."""
    grid = build_grid(Ellipse(a=1.2, b=0.9), 0.06)
    assert grid.node_at([-0.72, -0.72]) is None
    assert grid.arm_frac.min() > 1e-2


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize(
    "domain",
    [Disk(radius=1.0), Disk(radius=0.8, center_xy=(0.13, -0.07))],
    ids=["unit", "off_center"],
)
def test_disk_grids_lose_no_node_to_the_boundary_rule(monkeypatch, domain, n):
    import amce.grid

    grid = build_grid(domain, 1.0 / n)
    monkeypatch.setattr(amce.grid, "_ON_BOUNDARY_TOL", 0.0)
    plain = build_grid(domain, 1.0 / n)
    assert grid.nodes.tobytes() == plain.nodes.tobytes()
    assert grid.hit_points.tobytes() == plain.hit_points.tobytes()


def test_empty_grid_raises():
    # domain so small and off-lattice that no lattice point is interior
    with pytest.raises(EmptyGridError), pytest.warns(UserWarning):
        build_grid(Disk(radius=0.01, center_xy=(0.625, 0.37)), 0.25)


_DOMAINS = {
    "disk": Disk(radius=1.0),
    "offcentre_ellipse": Ellipse(a=1.5, b=0.6, center_xy=(0.3, -0.2)),
    "levelset": polynomial_levelset({"20": 1.0, "02": 2.0, "40": 0.5}),
}


@pytest.mark.parametrize("h", [1 / 32, 1 / 8, 0.3, 0.75])
@pytest.mark.parametrize("name", sorted(_DOMAINS))
def test_every_grid_has_a_boundary_hit(name, h):
    """The node of largest lattice i has no +x neighbor, so its +x arm
    crosses the boundary: every grid, down to a single coarse node, has a
    hit for a field's boundary values."""
    domain = _DOMAINS[name]
    if h >= domain.diameter / 4.0:
        with pytest.warns(UserWarning, match="coarse"):
            g = build_grid(domain, h)
    else:
        g = build_grid(domain, h)
    assert g.n_hits >= 1
    last = int(np.argmax(g.lattice[:, 0]))
    assert g.arm_kind[last, 0] == ARM_HIT


@pytest.mark.parametrize("name", ["disk", "offcentre_ellipse", "levelset"])
def test_nodes_come_in_lattice_order(name):
    """Nodes are in lattice (i, j) order, so x never decreases: the Hölder
    fit finds a tile's nodes by binary search on x."""
    g = build_grid(_DOMAINS[name], 1 / 32)
    order = np.lexsort((g.lattice[:, 1], g.lattice[:, 0]))
    assert np.array_equal(order, np.arange(g.n_nodes))
    assert (np.diff(g.nodes[:, 0]) >= 0.0).all()


def test_scalar_field_from_callable_and_sup(grid16):
    f = ScalarField.from_callable(grid16, lambda p: p[:, 0])
    assert np.array_equal(f.hit_values, grid16.hit_points[:, 0])
    assert f.sup_norm() == pytest.approx(
        max(np.abs(f.values).max(), np.abs(f.hit_values).max())
    )


def test_node_lookup(grid16):
    g = grid16
    nid = g.n_nodes // 3
    assert g.node_at(g.nodes[nid]) == nid
    assert g.node_at(g.nodes[nid] + 0.4 * g.h) is None


def test_lattice_id_map(grid16):
    g = grid16
    assert np.array_equal(g.ids_at(g.lattice), np.arange(g.n_nodes))
    # lattice points of the box that are not interior nodes
    box = np.stack(
        np.meshgrid(
            *(np.arange(n) + o for n, o in zip(g.id_map.shape, g.id_origin)),
            indexing="ij",
        ),
        axis=-1,
    ).reshape(-1, 2)
    outside = box[~g.domain.contains(box * g.h)]
    assert len(outside) > 0
    assert (g.ids_at(outside) == -1).all()
    # beyond every edge of the box, including negative offsets into the map:
    # (-I, 0) and (0, -J) would wrap around onto the center node (0, 0)
    shape = g.id_map.shape
    lo = g.id_origin
    hi = lo + np.array(shape) - 1
    beyond = np.array(
        [[lo[0] - 1, 0], [hi[0] + 1, 0], [0, lo[1] - 1], [0, hi[1] + 1],
         [lo[0] - 3, lo[1] - 3], [hi[0] + 50, hi[1] + 50],
         [-shape[0], 0], [0, -shape[1]]]
    )
    assert g.ids_at([0, 0]) >= 0
    assert (g.ids_at(beyond) == -1).all()
    assert g.node_at((5.0, -5.0)) is None
    # reference: a Python dict over the lattice, for every offset in [-2, 2]^2
    ref = {(int(i), int(j)): k for k, (i, j) in enumerate(g.lattice)}
    for off in np.ndindex(5, 5):
        shifted = g.lattice + np.array(off) - 2
        expect = [ref.get((int(i), int(j)), -1) for i, j in shifted]
        assert np.array_equal(g.ids_at(shifted), expect)


def _reference_grid(domain, h):
    """The grid's node and arm arrays by a plain loop over the directions.

    Each direction looks its neighbors up through the bounds-checked
    ``_ids_at`` on an unpadded map of the lattice box, and bisects its own
    cut arms; hits are numbered as they are found.
    """
    xmin, xmax, ymin, ymax = domain.bbox()
    i_range = np.arange(int(np.ceil(xmin / h) - 1), int(np.floor(xmax / h) + 1) + 1)
    j_range = np.arange(int(np.ceil(ymin / h) - 1), int(np.floor(ymax / h) + 1) + 1)
    II, JJ = np.meshgrid(i_range, j_range, indexing="ij")
    lattice_all = np.stack([II.ravel(), JJ.ravel()], axis=1)
    pts_all = lattice_all * h
    level = domain.level(pts_all)
    slope = np.linalg.norm(domain.grad(pts_all), axis=1)
    inside = (level < 0.0) & ~(-level <= _ON_BOUNDARY_TOL * h * slope)
    lattice, nodes = lattice_all[inside], pts_all[inside]
    n = len(nodes)
    id_origin = np.array([i_range[0], j_range[0]])
    id_map = np.full(len(lattice_all), -1, dtype=np.int64)
    id_map[inside] = np.arange(n)
    id_map = id_map.reshape(len(i_range), len(j_range))

    arm_kind = np.zeros((n, 8), dtype=np.uint8)
    arm_ref = np.zeros((n, 8), dtype=np.int64)
    arm_frac = np.ones((n, 8), dtype=float)
    hit_points = []
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
        t_lo = np.zeros(len(cut))
        t_hi = np.ones(len(cut))
        for _ in range(_BISECT_ITERS):
            t_mid = 0.5 * (t_lo + t_hi)
            neg = domain.level(p0 + t_mid[:, None] * delta) < 0.0
            t_lo = np.where(neg, t_mid, t_lo)
            t_hi = np.where(neg, t_hi, t_mid)
        arm_kind[cut, d] = ARM_HIT
        arm_ref[cut, d] = len(hit_points) + np.arange(len(cut))
        arm_frac[cut, d] = t_hi
        hit_points.extend(p0 + t_hi[:, None] * delta)
    return {
        "nodes": nodes,
        "lattice": lattice,
        "arm_kind": arm_kind,
        "arm_ref": arm_ref,
        "arm_frac": arm_frac,
        "hit_points": np.array(hit_points).reshape(-1, 2),
    }


def _assert_same_bytes(grid, reference):
    for name, want in reference.items():
        got = getattr(grid, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("n", [16, 50, 64, 128])
def test_grid_matches_the_per_direction_reference(reference_domain, n):
    """One gather and one bisection over all eight directions give the
    per-direction loop's arrays bit for bit, hit ids in the same order."""
    grid = build_grid(reference_domain, 1.0 / n)
    _assert_same_bytes(grid, _reference_grid(reference_domain, 1.0 / n))


class _ShortBoxDisk(Disk):
    """The unit disk whose box is reported as [-1/2, 1/2]^2: the lattice box
    is cut inside the domain, so nodes sit on its edge rows."""

    def bbox(self):
        return (-0.5, 0.5, -0.5, 0.5)


@pytest.mark.parametrize("n", [16, 50])
def test_nodes_on_the_box_edge_see_no_wrapped_neighbor(n):
    """A node on the lattice box's edge has a neighbor outside the box; the
    map's padding of -1 makes that arm cut, as the bounds-checked lookup
    does, where an unpadded gather would wrap to the far side of the map."""
    domain, h = _ShortBoxDisk(radius=1.0), 1.0 / n
    grid = build_grid(domain, h)
    lo = grid.id_origin + 1
    hi = grid.id_origin + np.array(grid.id_map.shape) - 2
    for axis in (0, 1):
        assert (grid.lattice[:, axis] == lo[axis]).any()
        assert (grid.lattice[:, axis] == hi[axis]).any()
    assert (grid.id_map[[0, -1], :] == -1).all()
    assert (grid.id_map[:, [0, -1]] == -1).all()
    _assert_same_bytes(grid, _reference_grid(domain, h))
