"""Finite-difference operators: quadratic exactness, Poisson, local fits."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

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
from amce.geometry import Ellipse, polynomial_levelset
from amce.fixtures import get_fixture
from amce.lma import assemble_lma
from amce.operators import (
    _DISSECTION_LEAF,
    COUNTS,
    KRYLOV_HELD_CYCLES,
    SYMMETRIC_LU,
    HessianField,
    PermutedLU,
    dissection_order,
    _nested_dissection,
    OpPair,
    _line_ops,
    factor_lu,
    gmres,
    grid_operators,
    line_fit,
    lstsq_stack,
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
    [val], [grad], [hess] = local_quadratic_fit(u, np.array([[0.21, -0.13]]))
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
        [val], [grad], [hess] = local_quadratic_fit(u, p[None, :])
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


def _per_point_lstsq_fit(field, points, smooth):
    """Reference: one KD-tree query and one weighted ``np.linalg.lstsq``
    per point.  Returns the ``(K, 6)`` coefficients in ``h``-scaled
    coordinates (value, ``h`` grad, ``h^2`` hess_xx, hess_xy, hess_yy), NaN
    where a point gets no fit."""
    grid = field.grid
    data_pts = np.vstack([grid.nodes, grid.hit_points])
    data_val = np.concatenate([field.values, field.hit_values])
    tree = cKDTree(data_pts)
    coef = np.full((len(points), 6), np.nan)
    for k, p in enumerate(points):
        r = 3.5 * grid.h
        if smooth:
            if not grid.domain.contains(p[None])[0]:
                continue
            ids = tree.query_ball_point(p, r)
        else:
            for _ in range(4):
                ids = tree.query_ball_point(p, r, p=np.inf)
                if len(ids) >= 8:
                    break
                r *= 1.6
        d = (data_pts[ids] - p) / grid.h
        vals, sw = data_val[ids], np.ones(len(d))
        if smooth:
            wts = np.maximum(1.0 - (d * d).sum(axis=1) / 3.5**2, 0.0) ** 2
            keep = wts > 0.0
            if keep.sum() < 10:
                continue
            d, vals, sw = d[keep], vals[keep], np.sqrt(wts[keep])
        A = np.column_stack(
            [np.ones(len(d)), d[:, 0], d[:, 1],
             0.5 * d[:, 0] ** 2, d[:, 0] * d[:, 1], 0.5 * d[:, 1] ** 2]
        )
        coef[k] = np.linalg.lstsq(A * sw[:, None], vals * sw, rcond=None)[0]
    return coef


_FIT_DOMAINS = {
    "disk": Disk(radius=1.0),
    "ellipse": Ellipse(a=1.2, b=0.9),
    "levelset": polynomial_levelset({"20": 1.0, "02": 2.0, "40": 0.5}),
}


@pytest.mark.parametrize("smooth", [False, True], ids=["box", "smooth"])
@pytest.mark.parametrize("domain", sorted(_FIT_DOMAINS))
def test_local_quadratic_fit_matches_per_point_lstsq(domain, smooth):
    """The stacked kernel against one ``lstsq`` per point on a field that
    is not quadratic: the same NaN set, and coefficients within 1e-12 of
    the data's size.  The smooth rule sees a lattice over the bounding box
    (points outside get NaN); the box rule the lattice points inside, the
    hits and points just outside.  Farther out the widened box holds data
    on one side only, cond(A) reaches 1e9 and any two backward-stable
    solvers part by eps * cond; the widening itself is pinned bit for bit
    by ``test_local_quadratic_fit_widens_per_point``."""
    grid = build_grid(_FIT_DOMAINS[domain], 1.0 / 32.0)
    prof = lambda p: np.exp(0.3 * p[:, 0]) * np.cos(p[:, 1]) + p[:, 0] ** 4
    u = ScalarField(grid, prof(grid.nodes), prof(grid.hit_points))
    lo, hi = grid.hit_points.min(axis=0) - 0.1, grid.hit_points.max(axis=0) + 0.1
    X, Y = np.meshgrid(np.linspace(lo[0], hi[0], 41), np.linspace(lo[1], hi[1], 41))
    lattice = np.column_stack([X.ravel(), Y.ravel()])
    if smooth:
        pts = lattice
    else:
        pts = np.vstack(
            [lattice[grid.domain.contains(lattice)], grid.hit_points,
             grid.hit_points[::7] * 1.02]
        )
    value, grad, hess = local_quadratic_fit(u, pts, smooth=smooth)
    h = grid.h
    got = np.column_stack(
        [value, grad * h, hess[:, 0, 0] * h**2, hess[:, 0, 1] * h**2,
         hess[:, 1, 1] * h**2]
    )
    want = _per_point_lstsq_fit(u, pts, smooth)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(want).any() == smooth
    scale = np.abs(u.values).max()
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_lstsq_stack_takes_lstsq_minimum_norm_on_rank_deficient_rows():
    """Rows on the two vertical lines x = +-1 make the column of x^2/2 half
    the column of ones: rank 5 of 6, where lstsq returns the least-norm
    solution.  A full-rank problem shares the stack."""
    def basis(x, y):
        return np.column_stack([np.ones(12), x, y, 0.5 * x**2, x * y, 0.5 * y**2])

    rng = np.random.default_rng(3)
    lines = basis(np.repeat([-1.0, 1.0], 6), rng.uniform(-2.0, 2.0, 12))
    A = np.array([basis(*rng.uniform(-2.0, 2.0, (2, 12))), lines])
    b = rng.uniform(-1.0, 1.0, (2, 12))
    assert np.linalg.matrix_rank(A[1]) == 5
    got = lstsq_stack(A, b)
    for k in range(2):
        want = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
        np.testing.assert_allclose(got[k], want, rtol=0.0, atol=1e-13)


def test_local_quadratic_fit_memory_is_chunked(grid64):
    """The smooth resample of 65 x 65 points at h = 1/64 solves its points
    in chunks: it peaks at about 7 MiB under tracemalloc, and at 31 MiB
    with all 4 225 points stacked at once."""
    u = ScalarField.from_callable(grid64, lambda p: (p**2).sum(axis=1))
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, 65), np.linspace(-1.0, 1.0, 65))
    pts = np.column_stack([X.ravel(), Y.ravel()])
    tracemalloc.start()
    try:
        value, _, _ = local_quadratic_fit(u, pts, smooth=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value).sum() > 3000
    assert peak < 12 * 2**20


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


def _blocks(H):
    """The node-wise 2x2 matrices of ``H``, ``(N, 2, 2)``."""
    return np.stack([np.stack([H.hxx, H.hxy], -1), np.stack([H.hxy, H.hyy], -1)], -2)


def test_clamped_raises_each_eigenvalue_to_eps_and_keeps_the_larger_eigenvector(grid16):
    """Node by node, each eigenvalue becomes ``max(lambda, eps)``, and where
    the larger one is above ``eps`` its eigenvector is kept."""
    eps = 0.1
    rng = np.random.default_rng(5)
    n = grid16.n_nodes
    H = HessianField(
        grid16, hxx=rng.normal(size=n), hxy=rng.normal(size=n), hyy=rng.normal(size=n)
    )
    lo, hi = H.eigenvalues()
    assert (lo < eps).any() and (lo >= eps).any() and (hi < eps).any()
    C = H.clamped(eps)
    lo_c, hi_c = C.eigenvalues()
    np.testing.assert_allclose(lo_c, np.maximum(lo, eps), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(hi_c, np.maximum(hi, eps), rtol=1e-12, atol=1e-14)
    # eigh orders eigenvalues ascending: column 1 is the larger's eigenvector
    tilted = hi > eps
    v = np.linalg.eigh(_blocks(H)[tilted])[1][:, :, 1]
    v_c = np.linalg.eigh(_blocks(C)[tilted])[1][:, :, 1]
    np.testing.assert_allclose(np.abs((v * v_c).sum(axis=1)), 1.0, atol=1e-12)


def test_clamped_diagonal_blocks(grid16):
    """Diagonal blocks come out diagonal with each entry clamped, whichever
    entry is larger: ``hxx > hyy`` takes the axis-swap path, ``hxx < hyy``
    the spectral rebuild."""
    eps = 0.1
    hxx = np.array([3.0, -1.0, -1.0, 2.0])
    hyy = np.array([-1.0, 3.0, -3.0, 2.0])
    H = HessianField(grid16, hxx=hxx, hxy=np.zeros(4), hyy=hyy)
    C = H.clamped(eps)
    np.testing.assert_array_equal(C.hxx, [3.0, eps, eps, 2.0])
    np.testing.assert_array_equal(C.hyy, [eps, 3.0, eps, 2.0])
    np.testing.assert_array_equal(C.hxy, 0.0)


def test_clamped_returns_itself_when_no_eigenvalue_is_below_eps(grid16):
    H = HessianField(
        grid16, hxx=np.array([2.0, 1.0]), hxy=np.array([0.5, 0.0]), hyy=np.array([1.0, 0.1])
    )
    assert H.clamped(0.1) is H
    assert H.clamped(0.2) is not H


def _anisotropic_operator(grid):
    """A 9-point ``cof H : D^2`` operator with ``hxy != 0`` at every node."""
    x = grid.nodes[:, 0]
    H = HessianField(grid, hxx=2.0 + x, hxy=np.full_like(x, 0.5), hyy=np.full_like(x, 1.5))
    return assemble_lma(H)


@pytest.mark.parametrize("domain", sorted(_FIT_DOMAINS))
def test_dissection_order_is_a_cached_permutation(domain):
    """The order is a permutation of the nodes, built once per grid and the
    same for a fresh grid of the same domain and spacing."""
    grid = build_grid(_FIT_DOMAINS[domain], 1.0 / 16.0)
    p = dissection_order(grid)
    assert np.array_equal(np.sort(p), np.arange(grid.n_nodes))
    assert dissection_order(grid) is p
    assert np.array_equal(dissection_order(build_grid(_FIT_DOMAINS[domain], 1.0 / 16.0)), p)


@pytest.mark.parametrize("domain", sorted(_FIT_DOMAINS))
def test_dissection_top_split_uncouples_its_halves(domain):
    """The median lattice line across the longer side comes last, the nodes
    below it first and those above it next, and in ``A[p][:, p]`` no entry
    couples the two halves, while the line couples to both."""
    grid = build_grid(_FIT_DOMAINS[domain], 1.0 / 16.0)
    p = dissection_order(grid)
    span = np.ptp(grid.lattice, axis=0)
    key = grid.lattice[:, int(span[1] > span[0])]
    line = np.sort(key)[grid.n_nodes // 2]
    halves = [np.flatnonzero(key < line), np.flatnonzero(key > line)]
    a, b = len(halves[0]), len(halves[0]) + len(halves[1])
    assert a > 0 and b > a
    assert np.array_equal(np.sort(p[:a]), halves[0])
    assert np.array_equal(np.sort(p[a:b]), halves[1])
    assert (key[p[b:]] == line).all()
    A = _anisotropic_operator(grid)
    Ap = A[p][:, p]
    assert Ap[:a, a:b].nnz == 0 and Ap[a:b, :a].nnz == 0
    assert Ap[:a, b:].nnz > 0 and Ap[a:b, b:].nnz > 0


def _reference_order(lattice):
    """The dissection order by plain recursion, one part per call."""
    parts = []

    def dissect(part):
        if len(part) <= _DISSECTION_LEAF:
            parts.append(part)
            return
        i, j = lattice[part, 0], lattice[part, 1]
        key = j if j.max() - j.min() > i.max() - i.min() else i
        line = np.partition(key, len(key) // 2)[len(key) // 2]
        dissect(part[key < line])
        dissect(part[key > line])
        parts.append(part[key == line])

    dissect(np.arange(len(lattice)))
    return np.concatenate(parts)


@pytest.mark.filterwarnings("ignore:grid spacing")
@pytest.mark.parametrize("n", [2, 3, 16, 50, 64, 128])
def test_dissection_order_matches_the_recursive_reference(reference_domain, n):
    """The level-by-level order is the recursion's exactly, on grids of 3 to
    51 429 nodes, from a single leaf up."""
    grid = build_grid(reference_domain, 1.0 / n)
    p = dissection_order(grid)
    want = _reference_order(grid.lattice)
    assert p.dtype == want.dtype and np.array_equal(p, want)
    if n == 2:
        assert grid.n_nodes <= _DISSECTION_LEAF


@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-6, 6)), min_size=1, unique=True
    )
)
def test_dissection_order_matches_the_reference_on_any_point_set(points):
    """Scattered lattice points, in any order: parts with empty halves,
    single lines and ties in the median split as the recursion does."""
    lattice = np.array(points, dtype=np.int64)
    assert np.array_equal(_nested_dissection(lattice), _reference_order(lattice))


@pytest.mark.parametrize("domain", sorted(_FIT_DOMAINS))
def test_permuted_factor_solves_like_splu(domain):
    """The factor of ``A[p][:, p]`` solves with ``A`` itself: ``(n,)`` and
    ``(n, 1)`` right-hand sides, with and without the transpose, agree
    with SciPy's default factor of ``A`` to 1e-12 relative."""
    grid = build_grid(_FIT_DOMAINS[domain], 1.0 / 16.0)
    A = _anisotropic_operator(grid)
    lu = factor_lu(splu, A, grid)
    assert isinstance(lu, PermutedLU)
    ref = splu(A)
    b = np.random.default_rng(0).standard_normal(grid.n_nodes)
    for rhs in (b, b[:, None]):
        for transpose in ({}, {"trans": "T"}):
            got, want = lu.solve(rhs, **transpose), ref.solve(rhs, **transpose)
            assert got.shape == want.shape == rhs.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_dissection_fill_is_below_minimum_degree(grid64):
    """On the radial_quartic LMA operator at h = 1/64 the dissection order
    leaves less fill than SuperLU's minimum degree on ``A^T + A`` in the
    same symmetric mode: 0.85 against 1.01 million entries."""
    u = ScalarField.from_callable(grid64, get_fixture("radial_quartic", theta=0.25).u)
    A = assemble_lma(discrete_hessian(u))
    lu = factor_lu(splu, A, grid64)
    mmd = splu(A, **dict(SYMMETRIC_LU, permc_spec="MMD_AT_PLUS_A"))
    assert lu.lu.nnz < mmd.nnz


def test_line_fit_recovers_an_exact_line():
    x = np.array([0.5, 1.0, 2.0, 3.5])
    slope, intercept, r2 = line_fit(x, 0.75 * x - 1.25)
    assert slope == pytest.approx(0.75, abs=1e-12)
    assert intercept == pytest.approx(-1.25, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_line_fit_of_a_constant_has_unit_r2():
    """A constant ``y`` has no spread to explain: r2 is 1 by convention."""
    slope, intercept, r2 = line_fit(np.array([1.0, 2.0, 4.0]), np.full(3, 2.5))
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(2.5, abs=1e-12)
    assert r2 == 1.0


def _reference_grid_operators(grid):
    """Every operator of the grid, built at once by the eager builder."""
    h = grid.h
    diag_len = h * np.sqrt(2.0)
    dxx = _line_ops(grid, 0, 1, h, order=2)
    dyy = _line_ops(grid, 2, 3, h, order=2)
    dpp = _line_ops(grid, 4, 5, diag_len, order=2)
    dmm = _line_ops(grid, 6, 7, diag_len, order=2)
    dxy = OpPair(D=((dpp.D - dmm.D) * 0.5).tocsr(), B=((dpp.B - dmm.B) * 0.5).tocsr())
    dx = _line_ops(grid, 0, 1, h, order=1)
    dy = _line_ops(grid, 2, 3, h, order=1)
    lap = OpPair(D=(dxx.D + dyy.D).tocsr(), B=(dxx.B + dyy.B).tocsr())
    return dict(dxx=dxx, dyy=dyy, dxy=dxy, dx=dx, dy=dy, lap=lap)


@pytest.mark.filterwarnings("ignore:grid spacing")
@pytest.mark.parametrize("n", [16, 64, 128])
def test_lazy_operators_match_the_eager_reference(reference_domain, n):
    """Each operator built on first read has the eager builder's structure
    and values bit for bit, whatever order they are read in."""
    grid = build_grid(reference_domain, 1.0 / n)
    want = _reference_grid_operators(grid)
    for name in reversed(list(want)):  # "lap" before the dxx and dyy it sums
        for part in "DB":
            got = getattr(grid_operators(grid, name), part)
            ref = getattr(want[name], part)
            assert got.format == ref.format and got.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(ref, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, attr)


def test_operators_are_built_on_first_read_and_cached():
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    assert grid._ops == {}
    lap = grid_operators(grid, "lap")
    assert sorted(grid._ops) == ["dxx", "dyy", "lap"]
    assert grid_operators(grid, "lap") is lap
    with pytest.raises(KeyError):
        grid_operators(grid, "nope")
    for name in ("dxy", "dx", "dy"):
        grid_operators(grid, name)
    assert grid._ops.keys() == {"dxx", "dyy", "dxy", "dx", "dy", "lap"}


def test_operator_cache_keeps_no_grid_alive():
    """The cache makes no reference cycle: a grid whose operators were read
    is freed as soon as its last reference goes, with the collector off."""
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    for name in ("dxx", "dyy", "dxy", "dx", "dy", "lap"):
        grid_operators(grid, name)
    discrete_hessian(ScalarField.from_callable(grid, _quadratic))
    alive = weakref.ref(grid)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del grid
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


_ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1, max_size=40))
def test_column_reductions_give_the_row_reductions_bits(rows):
    """The identities behind the column-wise smooth weights of
    :func:`local_quadratic_fit` and the node check of ``read_field_csv``:
    on ``(K, 2)`` arrays the column sum of squares is NumPy's row sum bit
    for bit, signed zeros, NaN and infinities included, and the column
    maximum is the row maximum up to NaN payloads, which the node check
    never sees (it reads finite tables and compares with a tolerance)."""
    d = np.array(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dd = d * d
        assert (dd[:, 0] + dd[:, 1]).tobytes() == dd.sum(axis=1).tobytes()
    gap = np.abs(d)
    got, want = np.maximum(gap[:, 0], gap[:, 1]), np.max(gap, axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _held_laplacian_system(grid):
    """The radial_quartic LMA operator ``D`` on ``grid`` and the Laplacian's
    factor, a nearby operator's, as GMRES's preconditioner."""
    u = ScalarField.from_callable(grid, get_fixture("radial_quartic", theta=0.25).u)
    D = assemble_lma(discrete_hessian(u))
    lap = factor_lu(splu, grid_operators(grid, "lap").D.tocsc(), grid)
    return D, lap


def _counted(fn):
    """``fn`` and the list that grows by one at each of its calls."""
    calls = []

    def wrapped(v):
        calls.append(None)
        return fn(v)

    return wrapped, calls


def _scipy_gmres(D, precondition, b, rtol):
    """SciPy's GMRES under the contract of :func:`amce.operators.gmres`:
    ``(x, info, iterations, preconditioner applications)``."""
    from scipy.sparse.linalg import LinearOperator
    from scipy.sparse.linalg import gmres as scipy_gmres

    n = len(b)
    M, calls = _counted(precondition)
    iterations = []
    x, info = scipy_gmres(
        D, b, rtol=rtol, restart=10, maxiter=KRYLOV_HELD_CYCLES,
        M=LinearOperator((n, n), matvec=M, dtype=float),
        callback=iterations.append, callback_type="pr_norm",
    )
    return x, info, len(iterations), len(calls)


def _kernel_gmres(D, precondition, b, rtol, x0=None):
    """:func:`amce.operators.gmres`: ``(x, iterations, preconditioner
    applications)``, the iterations read off ``COUNTS``."""
    M, calls = _counted(precondition)
    start = COUNTS["krylov_iterations_total"]
    x = gmres(D.dot, b, M, rtol, x0=x0)
    return x, COUNTS["krylov_iterations_total"] - start, len(calls)


def _meets_both_residual_tests(D, precondition, b, x, rtol):
    r = b - D @ x
    return (
        np.linalg.norm(r) <= rtol * np.linalg.norm(b)
        and np.linalg.norm(precondition(r)) <= rtol * np.linalg.norm(precondition(b))
    )


def test_gmres_does_not_restart_where_scipy_restarts_after_its_estimate_passes(grid16):
    """For a random right-hand side at ``rtol`` 1e-2, SciPy's estimate of the
    preconditioned residual passes after 5 iterations while the true
    residual misses, so SciPy restarts: one preconditioner application
    more than its ``iterations + 2``.  The kernel tightens the estimate's
    target and extends the same basis: it takes no more iterations, applies
    the preconditioner ``iterations + 1`` times, and its ``x`` meets both
    residual tests."""
    D, lap = _held_laplacian_system(grid16)
    b = np.random.default_rng(0).standard_normal(grid16.n_nodes)
    _, info, scipy_iterations, scipy_calls = _scipy_gmres(D, lap.solve, b, 1e-2)
    assert info == 0 and scipy_iterations < 10
    assert scipy_calls > scipy_iterations + 2
    x, iterations, calls = _kernel_gmres(D, lap.solve, b, 1e-2)
    assert x is not None
    assert iterations <= scipy_iterations
    assert calls == iterations + 1
    assert _meets_both_residual_tests(D, lap.solve, b, x, 1e-2)


@pytest.mark.parametrize("rtol", [1e-2, 1e-6])
def test_gmres_takes_scipys_iterations_where_scipy_does_not_restart(grid16, rtol):
    """For ``b = D 1`` SciPy converges without a restart; the kernel takes
    the same iterations, applies the preconditioner once less (``M b`` is
    computed once), and the two solutions agree within ``rtol``."""
    D, lap = _held_laplacian_system(grid16)
    b = D @ np.ones(grid16.n_nodes)
    want, info, scipy_iterations, scipy_calls = _scipy_gmres(D, lap.solve, b, rtol)
    assert info == 0 and scipy_calls == scipy_iterations + 2
    x, iterations, calls = _kernel_gmres(D, lap.solve, b, rtol)
    assert x is not None
    assert iterations == scipy_iterations
    assert calls == iterations + 1
    assert np.linalg.norm(x - want) <= rtol * np.linalg.norm(want)
    assert _meets_both_residual_tests(D, lap.solve, b, x, rtol)


def test_gmres_from_x0_applies_the_preconditioner_once_more(grid16):
    """From a nonzero ``x0`` the kernel preconditions ``b`` and the first
    residual, and then once per iteration: ``iterations + 2`` in all."""
    D, lap = _held_laplacian_system(grid16)
    b = D @ np.ones(grid16.n_nodes)
    x0 = np.full(grid16.n_nodes, 0.5)
    x, iterations, calls = _kernel_gmres(D, lap.solve, b, 1e-4, x0=x0)
    assert x is not None and 0 < iterations < 10
    assert calls == iterations + 2
    assert _meets_both_residual_tests(D, lap.solve, b, x, 1e-4)


def test_gmres_through_the_operators_own_factor_takes_one_iteration(grid16):
    """Through ``D``'s own factor the first Arnoldi vector already spans the
    solution: one iteration and two preconditioner applications."""
    D, _ = _held_laplacian_system(grid16)
    own = factor_lu(splu, D, grid16)
    b = D @ np.ones(grid16.n_nodes)
    x, iterations, calls = _kernel_gmres(D, own.solve, b, 1e-10)
    assert (iterations, calls) == (1, 2)
    assert np.abs(x - 1.0).max() <= 1e-10


def _nan(v):
    return np.full_like(v, np.nan)


@pytest.mark.parametrize(
    "case", ["unconverged", "non-finite operator", "non-finite preconditioner"]
)
def test_gmres_returns_none_when_it_fails(grid16, case):
    """``gmres`` gives None when it does not converge within
    ``KRYLOV_HELD_CYCLES`` cycles (an unreachable ``rtol``), and when the
    operator or the preconditioner returns NaN, whose ``x`` fails the
    true-residual test; every iteration of the cycles counts."""
    D, lap = _held_laplacian_system(grid16)
    b = D @ np.ones(grid16.n_nodes)
    matvec, precondition, rtol = D.dot, lap.solve, 1e-10
    if case == "unconverged":
        rtol = 1e-30
    elif case == "non-finite operator":
        matvec = _nan
    else:
        precondition = _nan
    start = COUNTS.copy()
    assert gmres(matvec, b, precondition, rtol) is None
    iterations = (COUNTS - start)["krylov_iterations_total"]
    assert iterations == 10 * KRYLOV_HELD_CYCLES


def test_gmres_of_a_zero_right_hand_side_is_zero_without_preconditioning(grid16):
    """``b = 0`` is solved by ``x = 0`` before ``M`` is ever applied."""
    D, lap = _held_laplacian_system(grid16)
    x, iterations, calls = _kernel_gmres(D, lap.solve, np.zeros(grid16.n_nodes), 1e-10)
    assert (iterations, calls) == (0, 0)
    assert x.shape == (grid16.n_nodes,) and not x.any()


def test_gmres_returns_an_x0_that_already_solves(grid16):
    """An ``x0`` that meets the true-residual test is returned as it is,
    after one preconditioning of ``b`` and no iteration."""
    D, lap = _held_laplacian_system(grid16)
    x0 = np.ones(grid16.n_nodes)
    x, iterations, calls = _kernel_gmres(D, lap.solve, D @ x0, 1e-10, x0=x0)
    assert (iterations, calls) == (0, 1)
    assert np.array_equal(x, x0)
