"""Domain types: membership, boundary geometry, validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amce import Disk, Ellipse, InvalidDomainError, build_domain
from amce.geometry import polynomial_levelset


def test_disk_membership_and_radii():
    d = Disk(radius=2.0)
    assert d.contains(np.array([[0.0, 0.0], [1.9, 0.0], [2.1, 0.0]])).tolist() == [
        True,
        True,
        False,
    ]
    assert d.diameter == pytest.approx(4.0)


def test_disk_distance_and_boundary_point():
    d = Disk(radius=1.0)
    np.testing.assert_allclose(
        d.distance_to_boundary(np.array([[0.5, 0.0], [0.0, 0.0]])),
        [0.5, 1.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(d.boundary_point(np.zeros(1)), [[1.0, 0.0]], atol=1e-12)


def test_inner_normal_points_inward():
    d = Ellipse(a=2.0, b=1.0)
    pts = np.array([[2.0, 0.0], [0.0, 1.0], [-2.0, 0.0]])
    n = d.inner_normal(pts)
    inside = pts + 1e-6 * n
    assert d.contains(inside).all()
    np.testing.assert_allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)


def test_build_domain_rejects_bad_params():
    with pytest.raises(InvalidDomainError):
        build_domain("disk", {"radius": -1.0})
    with pytest.raises(InvalidDomainError):
        build_domain("ellipse", {"a": 0.0, "b": 1.0})


def test_levelset_rejects_nonconvex():
    # x^2 + y^4 - y^2 < 1 has a non-convex defining function near the center
    with pytest.raises(InvalidDomainError):
        build_domain("levelset", {"coeffs": {"20": 1.0, "04": 1.0, "02": -1.0}})


def test_levelset_convex_accepted():
    # rounded squircle x^2/4 + y^2/4 + x^4 + y^4 < 1 is uniformly convex
    dom = build_domain(
        "levelset",
        {"coeffs": {"20": 0.25, "02": 0.25, "40": 1.0, "04": 1.0}},
    )
    assert dom.contains(np.array([[1.1, 1.1]])).tolist() == [False]
    assert dom.contains(np.array([[0.5, 0.5]])).tolist() == [True]


def test_ellipse_curvature_and_rho():
    e = Ellipse(a=2.0, b=1.0)
    # max curvature at the flat-side vertex (a, 0): a/b^2; min at (0, b): b/a^2
    k = e.boundary_curvature(np.array([[2.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(k, [2.0, 0.25], rtol=1e-9)


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_ellipse_diameter_formula(a, b):
    e = Ellipse(a=a, b=b)
    assert e.diameter == pytest.approx(2.0 * max(a, b))


def _fine_distance(dom, pts, n=1 << 16):
    """Distance to the nearest of ``n`` boundary samples, pointwise."""
    bdry = dom.boundary_samples(n)
    return np.array([np.min(np.linalg.norm(bdry - p, axis=1)) for p in pts])


@pytest.mark.parametrize(
    "dom",
    [
        Ellipse(a=1.2, b=0.9),
        polynomial_levelset({"20": 1.0, "02": 2.0, "40": 0.5, "11": 0.3}),
    ],
    ids=["ellipse", "levelset"],
)
def test_sampled_distance_to_boundary(dom):
    """Domains without a closed form take the nearest of 4096 boundary
    samples, which sits within the samples' spacing of the distance."""
    pts = np.array([[0.0, 0.0], [0.1, 0.2], [0.3, -0.2], [-0.4, 0.1]])
    d = dom.distance_to_boundary(pts)
    assert d.shape == (4,)
    np.testing.assert_allclose(d, _fine_distance(dom, pts), atol=1e-5)
    assert dom.distance_to_boundary(pts[:1])[0] == d[0]
    # the samples are taken once per domain
    assert dom._dense_boundary is dom._dense_boundary

