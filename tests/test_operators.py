"""Finite-difference operators: quadratic exactness, Poisson, local fits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amce import (
    Disk,
    IncompleteDataError,
    ScalarField,
    build_grid,
    discrete_gradient,
    discrete_hessian,
    local_quadratic_fit,
    solve_poisson,
    value_and_gradient_at,
)

coef = st.floats(-2.0, 2.0)


@given(coef, coef, coef, coef, coef)
def test_hessian_exact_on_quadratics(grid16, a, b, c, d, e):
    """Second differences reproduce constant Hessians at EVERY node,
    including cut cells next to the boundary."""
    u = ScalarField.from_callable(
        grid16,
        lambda p: a * p[:, 0] ** 2 + b * p[:, 0] * p[:, 1] + c * p[:, 1] ** 2
        + d * p[:, 0] + e * p[:, 1],
    )
    H = discrete_hessian(u)
    np.testing.assert_allclose(H.hxx, 2.0 * a, atol=5e-9)
    np.testing.assert_allclose(H.hyy, 2.0 * c, atol=5e-9)
    np.testing.assert_allclose(H.hxy, b, atol=5e-9)


def test_gradient_exact_on_affine(grid16):
    u = ScalarField.from_callable(grid16, lambda p: 3.0 * p[:, 0] - 2.0 * p[:, 1])
    grad = discrete_gradient(u)
    np.testing.assert_allclose(grad[:, 0], 3.0, atol=1e-10)
    np.testing.assert_allclose(grad[:, 1], -2.0, atol=1e-10)


def test_poisson_solver_second_order():
    """lap u = -2 sin x sin y with exact Dirichlet data, sup error O(h^2)."""
    exact = lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1])
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        g = build_grid(Disk(radius=1.0), h)
        rhs = -2.0 * np.sin(g.nodes[:, 0]) * np.sin(g.nodes[:, 1])
        vals = solve_poisson(g, rhs, exact(g.hit_points))
        errs.append(np.abs(vals - exact(g.nodes)).max())
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert errs[-1] < 2e-4
    assert min(rates) > 1.7


def _quadratic(p):
    return 1.0 + p[:, 0] + 0.5 * p[:, 0] ** 2 + 0.25 * p[:, 1] ** 2


def _quadratic_gradient(p):
    return np.column_stack([1.0 + p[:, 0], 0.5 * p[:, 1]])


def test_local_quadratic_fit_recovers_coefficients(grid32):
    u = ScalarField.from_callable(grid32, _quadratic)
    val, grad, hess = local_quadratic_fit(u, np.array([0.21, -0.13]))
    assert val == pytest.approx(
        1.0 + 0.21 + 0.5 * 0.21**2 + 0.25 * 0.13**2, abs=1e-9
    )
    np.testing.assert_allclose(grad, [1.0 + 0.21, -0.5 * 0.13], atol=1e-8)
    np.testing.assert_allclose(hess, [[1.0, 0.0], [0.0, 0.5]], atol=1e-7)

    # a batch mixing non-node interior points, hit points and (0, -1)
    pts = np.vstack(
        [[[0.21, -0.13], [-0.6, 0.45]], grid32.hit_points[::40], [[0.0, -1.0]]]
    )
    vals, grads, hesses = local_quadratic_fit(u, pts)
    assert vals[0] == val
    np.testing.assert_allclose(vals, _quadratic(pts), atol=1e-9)
    np.testing.assert_allclose(grads, _quadratic_gradient(pts), atol=1e-8)
    np.testing.assert_allclose(
        hesses, np.broadcast_to([[1.0, 0.0], [0.0, 0.5]], hesses.shape), atol=1e-7
    )


def test_local_quadratic_fit_widens_per_point(grid32):
    """With the hit values among the data, the three points need the box
    widened 0, 0 and 2 times; a batch gives each point its own single-point
    fit, and a point with no data within the widest box raises."""
    u = ScalarField(grid32, _quadratic(grid32.nodes), _quadratic(grid32.hit_points))
    pts = np.array([[0.21, -0.13], [1.05, 0.0], [1.2, 0.0]])
    vals, grads, hesses = local_quadratic_fit(u, pts)
    for k, p in enumerate(pts):
        val, grad, hess = local_quadratic_fit(u, p)
        assert vals[k] == val
        assert (grads[k] == grad).all() and (hesses[k] == hess).all()
    with pytest.raises(IncompleteDataError):
        local_quadratic_fit(u, np.array([[0.0, 0.0], [5.0, 5.0]]))


def test_local_quadratic_fit_smooth_rule(grid32):
    """The smoothly weighted fit is exact on a quadratic inside the domain
    and NaN at points outside it (the boundary point (0, -1) included)."""
    u = ScalarField.from_callable(grid32, _quadratic)
    inside = np.array([[0.21, -0.13], [-0.6, 0.45], [0.0, 0.97]])
    outside = np.array([[1.2, 0.0], [0.0, -1.0]])
    vals, grads, hesses = local_quadratic_fit(
        u, np.vstack([inside, outside]), smooth=True
    )
    np.testing.assert_allclose(vals[:3], _quadratic(inside), atol=1e-9)
    np.testing.assert_allclose(grads[:3], _quadratic_gradient(inside), atol=1e-8)
    np.testing.assert_allclose(hesses[:3], [[[1.0, 0.0], [0.0, 0.5]]] * 3, atol=1e-7)
    assert np.isnan(vals[3:]).all()
    assert np.isnan(grads[3:]).all() and np.isnan(hesses[3:]).all()


def test_value_and_gradient_at_boundary_point(grid32):
    u = ScalarField.from_callable(grid32, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2)
    val, grad = value_and_gradient_at(u, np.array([0.0, -1.0]))
    assert val == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(grad, [0.0, -2.0], atol=1e-8)


def test_hessian_det_and_eigenvalues(grid16):
    u = ScalarField.from_callable(
        grid16, lambda p: p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1] + p[:, 1] ** 2
    )
    H = discrete_hessian(u)
    np.testing.assert_allclose(H.det(), 4.0 - 0.25, atol=1e-8)
    lo, hi = H.eigenvalues()
    np.testing.assert_allclose(lo, 1.5, atol=1e-8)
    np.testing.assert_allclose(hi, 2.5, atol=1e-8)
