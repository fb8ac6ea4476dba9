"""Convex-section geometry: ellipsoid fits, invariance, localization."""

import warnings

import numpy as np
import pytest

from amce import (
    ConvexityViolationError,
    Disk,
    ScalarField,
    TooCloseToBoundaryError,
    build_grid,
    extract_section,
    fit_john_ellipsoid,
    localization_scan,
    maximal_height,
    mvee,
    normalize_section,
    quadratic_separation,
    value_and_gradient_at,
)
from amce.errors import DegenerateSectionError
from amce.sections import Section


def _section(u, x, h):
    """The section of ``u`` at ``x`` and height ``h``, its supporting plane
    the grid estimate of :func:`value_and_gradient_at`, as the commands
    take it."""
    return extract_section(u, x, h, *value_and_gradient_at(u, np.asarray(x, float)))


# ---------------------------------------------------------------------------
# minimum-volume ellipsoid engine
# ---------------------------------------------------------------------------


def test_mvee_free_recovers_ellipse():
    t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    pts = np.stack([2.0 * np.cos(t) + 0.3, 0.5 * np.sin(t) - 0.1], axis=1)
    c, M, _, viol = mvee(pts)
    np.testing.assert_allclose(c, [0.3, -0.1], atol=1e-9)
    np.testing.assert_allclose(M, np.diag([0.25, 4.0]), atol=1e-8)
    assert viol < 1e-9


def test_mvee_pinned_half_disk_is_full_disk():
    """Pinned at the flat edge's midpoint, the minimal ellipsoid of a half
    disk is the full unit disk — the property behind the boundary-section
    volume normalization."""
    th = np.linspace(0.0, np.pi, 129)
    pts = np.vstack(
        [np.stack([np.cos(th), np.sin(th)], axis=1), [[1.0, 0.0], [-1.0, 0.0]]]
    )
    _, M, _, viol = mvee(pts, center=[0.0, 0.0])
    np.testing.assert_allclose(M, np.eye(2), atol=1e-9)
    assert viol < 1e-9


def test_mvee_rejects_degenerate_input():
    with pytest.raises(DegenerateSectionError):
        mvee(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear


def test_mvee_rejects_a_single_point():
    with pytest.raises(DegenerateSectionError, match="at least 2"):
        mvee(np.array([[0.25, -0.5]]))


@pytest.mark.parametrize("center", [None, [0.0, 0.0]])
def test_mvee_rejects_coincident_points(center):
    with pytest.raises(DegenerateSectionError):
        mvee(np.full((5, 2), 0.25), center=center)


@pytest.mark.parametrize(
    "pts, center",
    [
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, np.nan]], None),
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, np.nan]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, -0.5]], [np.nan, 0.0]),
    ],
)
def test_mvee_rejects_non_finite_input(pts, center):
    with pytest.raises(DegenerateSectionError):
        mvee(np.array(pts), center=center)


def test_mvee_converges_on_arc_hulls():
    """Dense near-circular hulls have many near-active vertices, the slow
    case for first-order fits; the fit must still reach the tolerance
    (symmetric input -> no tilt)."""
    t = np.linspace(0.05, np.pi - 0.05, 400)
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    pts = np.vstack([pts, [[0.9, 0.02], [-0.9, 0.02]]])
    _, M, iters, viol = mvee(pts, center=[0.0, 0.0])
    assert viol <= 1e-9
    assert abs(M[0, 1]) < 1e-7 * abs(M[0, 0])


def test_mvee_free_fit_encloses_dense_section_hull(grid64):
    """The free fit of a maximal-section hull with hundreds of vertices
    encloses every vertex to round-off."""
    from amce import get_fixture

    u = ScalarField.from_callable(grid64, get_fixture("sheared_half", theta=0.25).u)
    y = np.array([0.5, 0.0])
    hbar, _ = maximal_height(u, y, *value_and_gradient_at(u, y))
    hull = _section(u, y, hbar).hull_points
    assert len(hull) > 300
    _, _, _, viol = mvee(hull)
    assert viol <= 1e-10


# ---------------------------------------------------------------------------
# section extraction
# ---------------------------------------------------------------------------


def test_section_membership_matches_gap_sign(paraboloid64_exact):
    u = paraboloid64_exact
    grid = u.grid
    x = np.array([0.1, -0.2])
    h = 0.04
    sec = _section(u, x, h)
    # u = |p|^2/2: gap = |p - x|^2/2, members satisfy |p - x| < sqrt(2h)
    r = np.linalg.norm(grid.nodes[sec.node_ids] - x, axis=1)
    assert r.max() < np.sqrt(2.0 * h) + 1e-12
    outside = np.setdiff1d(np.arange(grid.n_nodes), sec.node_ids)
    r_out = np.linalg.norm(grid.nodes[outside] - x, axis=1)
    assert r_out.min() > np.sqrt(2.0 * h) - 1e-12


def test_section_affine_invariance_under_rotation(grid32):
    """A 90-degree rotation is unimodular and maps lattice and disk to
    themselves: section node sets must map exactly."""
    from amce import get_fixture

    exact = get_fixture("sheared_half", theta=0.25)
    u = ScalarField.from_callable(grid32, exact.u)
    v = ScalarField.from_callable(
        grid32, lambda p: exact.u(np.stack([p[:, 1], -p[:, 0]], axis=1))
    )
    x0 = np.array([0.3, 0.1])
    h = 0.05
    su = _section(u, x0, h)
    sv = _section(v, np.array([-x0[1], x0[0]]), h)
    pu = grid32.nodes[su.node_ids]
    rot = np.stack([-pu[:, 1], pu[:, 0]], axis=1)
    set_u = {(round(a, 9), round(b, 9)) for a, b in rot}
    set_v = {(round(a, 9), round(b, 9)) for a, b in grid32.nodes[sv.node_ids]}
    assert set_u == set_v


def _reference_hull(u, x, h, val, grad):
    """Section node ids and hull built in plain loops: the exits direction by
    direction, each direction's in a seeded random order.

    Within one direction every exit ends on its own arm, so their order
    cannot matter.  Across the cloud it can: Qhull keeps the first of two
    near-coincident points, such as the hit at (0, -1) and an exit
    5.6e-17 from it, so a shuffle of the whole cloud may change the hull.
    """
    from scipy.spatial import ConvexHull

    from amce.grid import DIRS

    g = u.grid
    tol = 1e-12 * max(1.0, u.sup_norm())
    rng = np.random.default_rng(7)

    def gap(values, points):
        s = values - (val + (points - x) @ grad) - h
        return np.where(np.abs(s) <= tol, 0.0, s)

    sn, sh = gap(u.values, g.nodes), gap(u.hit_values, g.hit_points)
    members = np.flatnonzero(sn < 0.0)
    pts = list(g.nodes[members]) + list(g.hit_points[sh < 0.0])
    for k, d in enumerate(DIRS):
        exits = []
        for ends, first in ((sn, 0), (sh, g.n_nodes)):
            for i in members:
                ref = g.arm_ref[i, k] - first
                if not 0 <= ref < len(ends) or ends[ref] < 0.0:
                    continue
                t = sn[i] / (sn[i] - ends[ref]) * g.arm_frac[i, k]
                exits.append(g.nodes[i] + t * (d * g.h))
        pts += [exits[j] for j in rng.permutation(len(exits))]
    cloud = np.array(pts)
    return members, cloud[ConvexHull(cloud).vertices]


@pytest.mark.parametrize(
    "x, h", [([0.0, -1.0], 0.125), ([0.0, -1.0], 0.015625), ([0.3, 0.1], 0.05)]
)
def test_section_hull_matches_the_loop_reference(grid32, x, h):
    """The one-pass arm exits give the loop reference's hull bit for bit,
    on boundary-clipped and interior sections of sheared_half."""
    from amce import get_fixture

    u = ScalarField.from_callable(grid32, get_fixture("sheared_half", theta=0.25).u)
    x = np.array(x)
    val, grad = value_and_gradient_at(u, x)
    sec = extract_section(u, x, h, center_value=val, center_gradient=grad)
    members, hull = _reference_hull(u, x, h, val, grad)
    np.testing.assert_array_equal(sec.node_ids, members)
    np.testing.assert_array_equal(sec.hull_points, hull)


def test_tiny_section_warns_and_has_no_hull(paraboloid64_exact):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sec = _section(paraboloid64_exact, np.array([0.05, 0.05]), 1e-9)
    assert sec.hull_points is None or sec.n_nodes <= 2
    assert rec  # emptiness / degeneracy warned, not silently dropped


def test_fit_of_a_section_without_hull_is_degenerate(grid16):
    empty = Section(
        node_ids=np.array([], dtype=int), hull_points=None, boundary_clipped=False
    )
    with pytest.raises(DegenerateSectionError, match="no usable hull"):
        fit_john_ellipsoid(empty, center=None, normal=(0.0, 1.0), grid=grid16)


# ---------------------------------------------------------------------------
# quadratic separation and maximal heights
# ---------------------------------------------------------------------------


def test_quadratic_separation_exact_on_paraboloid(paraboloid64_exact):
    rep = quadratic_separation(paraboloid64_exact)
    assert rep.rho_low == pytest.approx(0.5, abs=1e-6)
    assert rep.rho_high == pytest.approx(0.5, abs=1e-6)
    assert rep.n_pairs > 100


def test_quadratic_separation_rejects_a_concave_field():
    """u = -|x|^2/2 has tangent-plane gaps -|x - x0|^2/2, far below the
    -10 h^2 budget.  At h = 1/4 the unit disk has 72 hits, no more than the
    128 anchors, so every hit is an anchor."""
    grid = build_grid(Disk(radius=1.0), 0.25)
    assert grid.n_hits == 72
    u = ScalarField.from_callable(grid, lambda p: -0.5 * (p**2).sum(axis=1))
    with pytest.raises(ConvexityViolationError, match="discretization budget"):
        quadratic_separation(u)


def test_quadratic_separation_positive_on_solved_field(mild32):
    _, u, _, _ = mild32
    rep = quadratic_separation(u)
    assert rep.rho_low > 0.0
    assert rep.rho_high >= rep.rho_low


def test_maximal_height_exact_values(paraboloid64_exact):
    u = paraboloid64_exact
    y0, y5 = np.array([0.0, 0.0]), np.array([0.5, 0.0])
    h0, _ = maximal_height(u, y0, *value_and_gradient_at(u, y0))
    h5, touch = maximal_height(u, y5, *value_and_gradient_at(u, y5))
    assert h0 == pytest.approx(0.5, rel=1e-6)
    assert h5 == pytest.approx(0.125, rel=1e-6)
    # the touching point is the nearest boundary point (1, 0)
    np.testing.assert_allclose(touch, [1.0, 0.0], atol=0.05)


def test_maximal_height_ratio_interval(paraboloid64_exact):
    """sqrt(hbar)/dist is constant 1/sqrt(2) for the paraboloid."""
    rng = np.random.default_rng(3)
    ratios = []
    while len(ratios) < 50:
        r = rng.uniform(0.3, 0.9)
        a = rng.uniform(0.0, 2.0 * np.pi)
        y = np.array([r * np.cos(a), r * np.sin(a)])
        hb, _ = maximal_height(
            paraboloid64_exact, y, *value_and_gradient_at(paraboloid64_exact, y)
        )
        ratios.append(np.sqrt(hb) / (1.0 - r))
    ratios = np.array(ratios)
    k_fit = max(ratios.max(), 1.0 / ratios.min())
    assert k_fit < 1.5  # exact value sqrt(2)
    np.testing.assert_allclose(ratios, 2.0**-0.5, atol=5e-3)


def test_maximal_height_rejects_boundary_point(paraboloid64_exact):
    with pytest.raises(TooCloseToBoundaryError):
        maximal_height(paraboloid64_exact, np.array([0.999, 0.0]), 0.0, np.zeros(2))


def test_maximal_height_rejects_a_point_outside_the_domain(paraboloid64_exact):
    with pytest.raises(TooCloseToBoundaryError, match="not interior"):
        maximal_height(paraboloid64_exact, np.array([1.5, 0.0]), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# localization scans and normalization
# ---------------------------------------------------------------------------


def test_boundary_scan_centered_quadratic_no_tilt(r2_64_exact):
    """tau vanishes to fit tolerance at every height for u = |x|^2."""
    scan = localization_scan(
        r2_64_exact, np.array([0.0, -1.0]), [2.0**-k for k in range(3, 7)], min_nodes=12
    )
    for row in scan.rows:
        assert not row["skipped"]
        assert abs(row["tau"]) < 1e-6
        assert row["vol_ratio"] == pytest.approx(1.0, abs=0.01)
        assert row["k_outer"] >= 1.0 - 1e-9
        assert row["k_inner"] <= 1.0 + 1e-9


def test_boundary_scan_keeps_row_hulls(r2_64_exact):
    """The scan keeps one hull per kept row: the hull of that row's section."""
    x0 = np.array([0.0, -1.0])
    heights = [0.125, 1e-4]  # the second section is too small and skipped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        scan = localization_scan(r2_64_exact, x0, heights, min_nodes=12)
    assert [r["skipped"] for r in scan.rows] == [False, True]
    assert len(scan.hulls) == 1
    val, grad = value_and_gradient_at(r2_64_exact, x0)
    sec = extract_section(
        r2_64_exact, x0, 0.125, center_value=val, center_gradient=grad
    )
    np.testing.assert_array_equal(scan.hulls[0], sec.hull_points)


def test_boundary_scan_recovers_shear(grid64):
    from amce import get_fixture

    exact = get_fixture("sheared_half", theta=0.25)
    u = ScalarField.from_callable(grid64, exact.u)
    scan = localization_scan(
        u, np.array([0.0, -1.0]), [2.0**-k for k in range(3, 7)], min_nodes=12
    )
    taus = [row["tau"] for row in scan.kept_rows()]
    np.testing.assert_allclose(taus, 0.5, atol=0.01)


@pytest.mark.parametrize(
    "shift", [[1e-13, 0.0], [-1e-13, 0.0], [0.0, 1e-13], [0.0, -1e-13], [3e-13, -3e-13]]
)
def test_section_membership_is_stable_under_round_off(grid64, shift):
    """At the dyadic heights some nodes of sheared_half lie on the section
    boundary; a round-off change of the base gradient moves neither the
    member count nor the number of hull vertices."""
    from amce import get_fixture

    exact = get_fixture("sheared_half", theta=0.25)
    u = ScalarField.from_callable(grid64, exact.u)
    x0 = np.array([0.0, -1.0])
    val, grad = value_and_gradient_at(u, x0)

    def counts(g):
        secs = [
            extract_section(u, x0, 2.0**-k, center_value=val, center_gradient=g)
            for k in range(3, 7)
        ]
        return [(s.n_nodes, len(s.hull_points)) for s in secs]

    base = counts(grad)
    assert [n for n, _ in base] == [1419, 739, 371, 191]
    assert counts(grad + np.asarray(shift)) == base


def test_interior_fit_unimodular_shape(paraboloid64_exact):
    u = paraboloid64_exact
    sec = _section(u, np.array([0.0, 0.0]), 0.125)
    fit = fit_john_ellipsoid(sec, center=None, normal=(0.0, 1.0), grid=u.grid)
    assert np.linalg.det(fit.A) == pytest.approx(1.0, abs=1e-9)
    assert fit.h_eff == pytest.approx(0.25, rel=1e-3)  # 2h for u = |x|^2/2
    assert abs(fit.tau) < 1e-9


def test_norm_product_log_growth_recorded(mild32):
    """||A|| * ||A^{-1}|| at maximal sections, against |log hbar|^2.

    The fitted constant is recorded (printed), not asserted against any
    particular value: the claim under test is only finiteness and that the
    product does not explode faster than the log-squared envelope.
    """
    _, u, _, _ = mild32
    rng = np.random.default_rng(7)
    prods, envs = [], []
    while len(prods) < 25:
        r = rng.uniform(0.3, 0.9)
        a = rng.uniform(0.0, 2.0 * np.pi)
        y = np.array([r * np.cos(a), r * np.sin(a)])
        try:
            hb, _ = maximal_height(u, y, *value_and_gradient_at(u, y))
            sec = _section(u, y, 0.999 * hb)
            fit = fit_john_ellipsoid(sec, center=None, normal=(0.0, 1.0), grid=u.grid)
        except (TooCloseToBoundaryError, DegenerateSectionError):
            continue
        prod = np.linalg.norm(fit.A, 2) * np.linalg.norm(np.linalg.inv(fit.A), 2)
        prods.append(prod)
        envs.append(max(1.0, np.log(1.0 / hb) ** 2))
    c_fit = float(np.max(np.asarray(prods) / np.asarray(envs)))
    print(f"norm-product envelope constant: {c_fit:.4f}")
    assert np.isfinite(c_fit)
    assert max(prods) < 50.0


def test_normalize_section_round_shape(r2_64_exact):
    """For u = |x|^2 the maximal section at (1/2, 0) renormalizes to the
    unit disk: inner and outer ball radii both approach 1."""
    y = np.array([0.5, 0.0])
    ns = normalize_section(r2_64_exact, y, *value_and_gradient_at(r2_64_exact, y))
    assert ns.c_inner == pytest.approx(1.0, rel=0.02)
    assert ns.c_outer == pytest.approx(1.0, rel=0.02)
    np.testing.assert_allclose(ns.grad_at_center, 0.0, atol=1e-3)
    lo0, hi0 = ns.det_range_original
    lo1, hi1 = ns.det_range_normalized
    assert lo1 == pytest.approx(lo0, rel=0.05)
    assert hi1 == pytest.approx(hi0, rel=0.05)
