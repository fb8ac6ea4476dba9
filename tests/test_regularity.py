"""Tests for regularity audits: modulus fits, extremum checks, norm chains."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import amce.regularity
from amce.coupled import problem_from_exact
from amce.fixtures import get_fixture
from amce.geometry import Disk, Ellipse, polynomial_levelset
from amce.grid import ScalarField, build_grid
from amce.lma import LMA_TOL
from amce.regularity import (
    HolderFit,
    abp_chain_report,
    abp_exponent,
    boundary_holder_check,
    boundary_holder_fit,
    cell_areas,
    fit_holder_exponent,
    min_principle_check,
    verify,
)

VERIFY_CHECK_NAMES = [
    "min_principle",
    "abp_chain",
    "interior_holder_w",
    "boundary_holder_w",
    "quadratic_separation",
    "hessian_positivity",
    "w_positivity",
]


# ---------------------------------------------------------------------------
# weight power in the sup-norm chain
# ---------------------------------------------------------------------------


def test_abp_exponent_special_values():
    assert abp_exponent(0.25) == 2.0 / 3.0
    assert abp_exponent(0.0) == 0.5


def test_abp_exponent_below_one_on_theta_grid():
    thetas = np.linspace(0.0, 0.5, 100, endpoint=False)
    kappas = np.array([abp_exponent(t) for t in thetas])
    assert np.all(kappas < 1.0)
    assert np.all(np.diff(kappas) > 0.0)
    assert kappas[0] == 0.5


# ---------------------------------------------------------------------------
# interior modulus-of-continuity fits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
def test_holder_fit_recovers_radial_power(grid64, beta):
    """|x|^beta has modulus exponent beta; the fit lands within 0.05."""

    def profile(p):
        return np.linalg.norm(p, axis=1) ** beta

    fld = ScalarField(grid64, profile(grid64.nodes), profile(grid64.hit_points))
    fit = fit_holder_exponent(fld, seed=0)
    assert not fit.degenerate
    assert fit.beta == pytest.approx(beta, abs=0.05)
    assert fit.r2 > 0.99
    assert np.isfinite(fit.constant) and fit.constant > 0.0


def test_holder_fit_half_power_along_diameter(grid64):
    """sqrt|x_1| oscillates like d^(1/2) across the diameter {x_1 = 0}."""

    def profile(p):
        return np.sqrt(np.abs(p[:, 0]))

    fld = ScalarField(grid64, profile(grid64.nodes), profile(grid64.hit_points))
    fit = fit_holder_exponent(fld, seed=0)
    assert fit.beta == pytest.approx(0.5, abs=0.06)
    assert fit.r2 > 0.99


def test_holder_fit_smooth_field_near_cap(grid64):
    """A smooth strictly convex field fits close to (and never above) the cap."""

    def profile(p):
        return (p**2).sum(axis=1)

    fld = ScalarField(grid64, profile(grid64.nodes), profile(grid64.hit_points))
    fit = fit_holder_exponent(fld, seed=0)
    assert 0.85 <= fit.beta <= 1.05
    assert np.isfinite(fit.raw_slope)


def test_holder_fit_constant_field_degenerate(grid16):
    fld = ScalarField(
        grid16,
        np.full(grid16.n_nodes, 3.7),
        np.full(grid16.n_hits, 3.7),
    )
    fit = fit_holder_exponent(fld, seed=0)
    assert fit.degenerate
    assert np.isnan(fit.beta)


def _noisy_paraboloid(grid):
    """paraboloid's data, exact u, and its constant weight plus 1e-14 noise."""
    exact = get_fixture("paraboloid", theta=0.25)
    problem = problem_from_exact(grid, exact)
    u = ScalarField.from_callable(grid, exact.u)
    w = ScalarField.from_callable(grid, exact.w)
    w.values += 1e-14 * np.random.default_rng(0).standard_normal(grid.n_nodes)
    return problem, u, w


def test_flat_weight_skips_both_modulus_checks(grid16):
    """paraboloid's weight is constant; computed, it spreads by about 1e-14.
    That noise has no modulus to fit, so both checks skip instead."""
    problem, u, w = _noisy_paraboloid(grid16)
    assert fit_holder_exponent(w, seed=0).flat
    assert boundary_holder_fit(w).flat
    checks = {c.name: c for c in verify(problem, u, w, boundary_alpha=1.0, seed=0)}
    for name in ("interior_holder_w", "boundary_holder_w"):
        assert checks[name].status == "skip"
        assert checks[name].details["flat"] is True


@pytest.mark.parametrize(
    "name, n, n_bins", [("radial_quartic", 16, 1), ("paraboloid", 8, 0)]
)
def test_too_coarse_grid_skips_both_modulus_checks(name, n, n_bins):
    """Bins span [4h, diam/4]: the unit disk has one at h = 1/16, none at 1/8.
    Without two bins there is no slope, so the checks skip, not fail."""
    grid = build_grid(Disk(radius=1.0), 1.0 / n)
    exact = get_fixture(name, theta=0.25)
    problem = problem_from_exact(grid, exact)
    u = ScalarField.from_callable(grid, exact.u)
    w = ScalarField.from_callable(grid, exact.w)
    assert fit_holder_exponent(w, seed=0).n_bins == n_bins
    assert boundary_holder_fit(w).n_bins == n_bins
    checks = {c.name: c for c in verify(problem, u, w, boundary_alpha=1.0, seed=0)}
    for check in ("interior_holder_w", "boundary_holder_w"):
        assert checks[check].status == "skip"
        assert checks[check].details["flat"] is False


def test_flat_weight_skips_before_any_pair(monkeypatch, grid32):
    """At h = 1/32 the fits have two bins or more, so the range of
    paraboloid's solved weight decides both records: they skip as flat
    without forming an anchor tile, and have no fitted exponent."""
    from amce.coupled import solve_system

    problem = problem_from_exact(grid32, get_fixture("paraboloid", theta=0.25))
    u, w, _ = solve_system(problem)

    def no_pairs(*args):
        raise AssertionError("a flat weight's fit streamed its pairs")

    monkeypatch.setattr(amce.regularity, "_anchor_tiles", no_pairs)
    checks = {c.name: c for c in verify(problem, u, w, boundary_alpha=1.0, seed=0)}
    for name in ("interior_holder_w", "boundary_holder_w"):
        assert checks[name].status == "skip"
        assert checks[name].details["flat"] is True
        assert np.isnan(checks[name].details["beta"])
        assert np.isnan(checks[name].details["r2"])
    assert np.isnan(checks["interior_holder_w"].details["raw_slope"])
    assert checks["interior_holder_w"].details["degenerate"] is True


def test_range_rule_gives_the_status_of_the_full_fit(monkeypatch, grid16, grid32):
    """On the solved weights of all five fixtures at h = 1/32 and on the
    noisy constant weight at 1/16 and 1/32, both Hölder records have the
    status and ``flat`` the full fits give.  The range rule decides the
    three flat solved weights and the noisy one at 1/32; at 1/16 there is
    one bin, and the fits run."""
    from amce.coupled import solve_system

    cases = {}
    for name in ("paraboloid", "paraboloid_r2", "radial_mild", "radial_quartic", "sheared_half"):
        problem = problem_from_exact(grid32, get_fixture(name, theta=0.25))
        u, w, _ = solve_system(problem)
        cases[name] = (problem, u, w)
    cases["noise16"] = _noisy_paraboloid(grid16)
    cases["noise32"] = _noisy_paraboloid(grid32)
    decided = {k for k, (_, _, w) in cases.items() if amce.regularity._flat_fit(w)}
    assert decided == {"paraboloid", "paraboloid_r2", "sheared_half", "noise32"}
    for key, case in cases.items():
        fast = {c.name: c for c in verify(*case, boundary_alpha=1.0, seed=0)}
        with monkeypatch.context() as m:
            m.setattr(amce.regularity, "_flat_fit", lambda field: None)
            full = {c.name: c for c in verify(*case, boundary_alpha=1.0, seed=0)}
        for name in ("interior_holder_w", "boundary_holder_w"):
            assert fast[name].status == full[name].status, (key, name)
            assert fast[name].details["flat"] == full[name].details["flat"], (key, name)


def test_degenerate_fit_with_bins_still_fails(grid32):
    """A spike of w near the boundary gives equal or zero bin peaks: both
    fits have bins but no increasing modulus, and both checks fail."""
    exact = get_fixture("paraboloid", theta=0.25)
    problem = problem_from_exact(grid32, exact)
    u = ScalarField.from_callable(grid32, exact.u)
    w = ScalarField.from_callable(grid32, exact.w)
    w.values[grid32.node_at([0.75, 0.0])] += 1.0
    for fit in (fit_holder_exponent(w, seed=0), boundary_holder_fit(w)):
        assert fit.degenerate and fit.n_bins >= 2 and not fit.flat
    checks = {c.name: c for c in verify(problem, u, w, boundary_alpha=1.0, seed=0)}
    assert checks["interior_holder_w"].status == "fail"
    assert checks["boundary_holder_w"].status == "fail"


# ---------------------------------------------------------------------------
# boundary modulus against the alpha/(alpha+2) threshold
# ---------------------------------------------------------------------------


def test_boundary_holder_lipschitz_field_passes(grid32):
    fld = ScalarField(grid32, grid32.nodes[:, 0], grid32.hit_points[:, 0])
    report = boundary_holder_check(fld, alpha=1.0)
    assert report.details["threshold"] == pytest.approx(1.0 / 3.0)
    assert report.details["beta"] == pytest.approx(1.0, abs=0.02)
    assert report.status == "pass"


def test_boundary_holder_alpha_validation(grid16):
    fld = ScalarField(grid16, grid16.nodes[:, 0], grid16.hit_points[:, 0])
    with pytest.raises(ValueError):
        boundary_holder_check(fld, alpha=0.0)
    with pytest.raises(ValueError):
        boundary_holder_check(fld, alpha=1.5)


@given(
    alpha_pair=st.tuples(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
)
def test_boundary_holder_threshold_monotone(grid16, alpha_pair):
    """The structural threshold alpha/(alpha+2) increases with alpha."""
    fld = ScalarField(grid16, grid16.nodes[:, 0], grid16.hit_points[:, 0])
    a_lo, a_hi = sorted(alpha_pair)
    t_lo = boundary_holder_check(fld, alpha=a_lo).details["threshold"]
    t_hi = boundary_holder_check(fld, alpha=a_hi).details["threshold"]
    assert t_lo == pytest.approx(a_lo / (a_lo + 2.0))
    assert t_hi == pytest.approx(a_hi / (a_hi + 2.0))
    if a_hi > a_lo:
        assert t_hi > t_lo


# ---------------------------------------------------------------------------
# streamed oscillation fit against the all-pairs reference
# ---------------------------------------------------------------------------


def _all_pairs_oscillation_fit(field, anchor_pts, anchor_vals):
    """Reference: every anchor/node pair at once, one mask per dyadic bin."""
    grid = field.grid
    diff = grid.nodes[None, :, :] - anchor_pts[:, None, :]
    dist = np.sqrt((diff**2).sum(-1)).ravel()
    osc = np.abs(field.values[None, :] - anchor_vals[:, None]).ravel()

    bin_lo, bin_hi = 4.0 * grid.h, grid.domain.diameter / 4.0
    edges = [bin_lo]
    while edges[-1] * 2.0 <= bin_hi * (1.0 + 1e-12):
        edges.append(edges[-1] * 2.0)
    edges = np.asarray(edges)

    centers, peaks, n_pairs = [], [], 0
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (dist >= a) & (dist < b)
        if not sel.any():
            continue
        centers.append(np.sqrt(a * b))
        peaks.append(osc[sel].max())
        n_pairs += int(sel.sum())

    centers = np.asarray(centers)
    peaks = np.asarray(peaks)
    flat = peaks.size > 0 and bool((peaks <= LMA_TOL * field.sup_norm()).all())
    if len(centers) < 2 or (peaks <= 0.0).any():
        nan = np.nan
        return HolderFit(nan, nan, nan, nan, n_pairs, len(centers), centers,
                         peaks, True, flat)
    lx, ly = np.log(centers), np.log(peaks)
    coeffs, res = np.polyfit(lx, ly, 1, full=True)[:2]
    slope = float(coeffs[0])
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - (float(res[0]) if res.size else 0.0) / ss_tot if ss_tot > 0 else 1.0
    degenerate = slope <= 0.0
    beta = np.nan if degenerate else min(slope, amce.regularity._BETA_CAP)
    constant = np.nan if degenerate else float(np.max(peaks / centers**beta))
    return HolderFit(beta, slope, constant, float(r2), n_pairs, len(centers),
                     centers, peaks, degenerate, flat)


def _assert_same_fit(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(other, value), name
        elif isinstance(value, float) and np.isnan(value):
            assert np.isnan(other), name
        else:
            assert other == value, name


_PROFILES = {
    "half_power": lambda p: np.sqrt(np.abs(p[:, 0])),
    "smooth": lambda p: (p**2).sum(axis=1),
    "constant": lambda p: np.full(len(p), 3.7),
}


_LEVELSET = polynomial_levelset({"20": 1.0, "02": 2.0, "40": 0.5})
_OFF_CENTRE = Disk(radius=0.9, center_xy=(-0.37, 0.21))


@pytest.fixture(scope="module", params=[
    (Disk(radius=1.0), 4), (Disk(radius=1.0), 16), (Disk(radius=1.0), 32),
    (Ellipse(a=1.2, b=0.9), 16), (Ellipse(a=1.2, b=0.9), 32),
    (_LEVELSET, 32), (_OFF_CENTRE, 32),
], ids=["disk-4", "disk-16", "disk-32", "ellipse-16", "ellipse-32",
        "levelset-32", "off-centre-32"])
def audit_grid(request):
    domain, n = request.param
    return build_grid(domain, 1.0 / n)


@pytest.mark.parametrize("budget", ["default", "one_anchor"])
@pytest.mark.parametrize("profile", sorted(_PROFILES))
def test_streamed_fit_equals_all_pairs_reference(
    monkeypatch, audit_grid, profile, budget
):
    """Both callers give the all-pairs HolderFit bit for bit, chunked or not."""
    if budget == "one_anchor":
        monkeypatch.setattr(amce.regularity, "_PAIR_BUDGET", 1)
    prof = _PROFILES[profile]
    fld = ScalarField(audit_grid, prof(audit_grid.nodes), prof(audit_grid.hit_points))
    got_interior = fit_holder_exponent(fld, seed=0)
    got_boundary = boundary_holder_fit(fld)
    monkeypatch.setattr(amce.regularity, "_oscillation_fit", _all_pairs_oscillation_fit)
    _assert_same_fit(got_interior, fit_holder_exponent(fld, seed=0))
    _assert_same_fit(got_boundary, boundary_holder_fit(fld))


def test_reference_cases_cover_ragged_chunks_and_empty_bins(grid32):
    """A tile of the 1/32 disk's hits fills several chunks, the last one
    partly; the 1/4 disk has no dyadic bin between 4h and diam/4 at all."""
    reach = grid32.domain.diameter / 4.0 + 2.0 * grid32.h
    ragged = []
    for tile, near in amce.regularity._anchor_tiles(
        grid32.nodes, grid32.hit_points, reach
    ):
        step = min(
            amce.regularity._TILE_CHUNK,
            max(1, amce.regularity._PAIR_BUDGET // near.size),
        )
        ragged.append(tile.size > step and tile.size % step != 0)
    assert any(ragged)
    coarse = build_grid(Disk(radius=1.0), 0.25)
    fld = ScalarField(coarse, coarse.nodes[:, 0], coarse.hit_points[:, 0])
    fit = boundary_holder_fit(fld)
    assert fit.n_bins == 0 and fit.n_pairs == 0 and fit.degenerate


@pytest.mark.parametrize("budget", ["default", "one_anchor"])
def test_pairs_on_bin_and_tile_edges_match_all_pairs(monkeypatch, grid32, budget):
    """On the 1/32 disk the edges are 4h, 8h and 16h and the reach 18h, all
    lattice multiples.  Lattice anchors then meet nodes at exactly
    edges[0] (counted), exactly edges[-1] (not counted) and exactly on
    their tile's dilated box.  The origin is exactly edges[-1] or farther
    from every anchor; a spike there would show in the top bin's peak if
    such a pair were counted."""
    if budget == "one_anchor":
        monkeypatch.setattr(amce.regularity, "_PAIR_BUDGET", 1)
    h = grid32.h
    edges = np.array([4.0 * h, 8.0 * h, 16.0 * h])
    reach = edges[-1] + 2.0 * h
    anchors = np.array([[-0.5, 0.0], [0.0, 0.5], [0.5, -0.25], [-0.5, -0.5]])
    values = (grid32.nodes**2).sum(axis=1)
    values[grid32.node_at([0.0, 0.0])] += 10.0
    fld = ScalarField(grid32, values, (grid32.hit_points**2).sum(axis=1))
    anchor_vals = (anchors**2).sum(axis=1)

    diff = grid32.nodes[None, :, :] - anchors[:, None, :]
    dist = np.sqrt((diff**2).sum(-1))
    assert (dist == edges[0]).any()
    assert (dist[:2] == edges[-1]).any(axis=1).all()
    # each anchor has a tile of its own, whose box is the anchor dilated
    # by reach, and a node sits on that box's edge
    tiles = list(amce.regularity._anchor_tiles(grid32.nodes, anchors, reach))
    assert sorted(t.tolist() for t, _ in tiles) == [[0], [1], [2], [3]]
    for corner in (anchors[0] + [reach, 0.0], anchors[1] - [0.0, reach]):
        assert np.array_equal(grid32.nodes[grid32.node_at(corner)], corner)

    got = amce.regularity._oscillation_fit(fld, anchors, anchor_vals)
    want = _all_pairs_oscillation_fit(fld, anchors, anchor_vals)
    _assert_same_fit(got, want)
    assert got.n_bins == 2 and got.bin_oscillation.max() < 10.0


def test_boundary_holder_memory_does_not_scale_with_pairs(grid64):
    # 1232 hits x 12849 nodes: the all-pairs fit peaked at about 604 MiB
    fld = ScalarField(grid64, grid64.nodes[:, 0], grid64.hit_points[:, 0])
    tracemalloc.start()
    try:
        boundary_holder_check(fld, alpha=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_pair_budget_caps_the_chunks_of_a_tile(monkeypatch, grid64):
    """With the budget cut to 2**12 pairs, tiles of the 1/64 disk that reach
    more than 256 nodes take fewer than 16 anchors per chunk: the same fit
    bit for bit, at about 0.21 MiB of temporaries against 1.26 MiB with chunks
    of 16 anchors."""
    prof = _PROFILES["half_power"]
    fld = ScalarField(grid64, prof(grid64.nodes), prof(grid64.hit_points))
    want = boundary_holder_fit(fld)
    monkeypatch.setattr(amce.regularity, "_PAIR_BUDGET", 2**12)
    tracemalloc.start()
    try:
        got = boundary_holder_fit(fld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_fit(got, want)
    assert peak <= 0.5 * 2**20


# ---------------------------------------------------------------------------
# extremum principle and sup-norm chain reports
# ---------------------------------------------------------------------------


def test_min_principle_on_solved_weight(mild32):
    problem, _, w, _ = mild32
    report = min_principle_check(problem, w)
    d = report.details
    assert d["applicable"]
    assert report.status == "pass"
    assert d["budget"] == pytest.approx(-10.0 * problem.grid.h**2)
    assert d["min_w"] - d["min_psi"] >= d["budget"]
    assert report.margin == (d["min_w"] - d["min_psi"]) - d["budget"]
    assert d["min_w"] == pytest.approx(float(w.values.min()))


def test_min_principle_skips_sign_changing_forcing(grid16):
    exact = get_fixture("radial_quartic", theta=0.25)
    problem = problem_from_exact(grid16, exact)
    w = ScalarField(grid16, exact.w(grid16.nodes), exact.w(grid16.hit_points))
    report = min_principle_check(problem, w)
    assert not report.details["applicable"]
    assert report.status == "skip"


def test_abp_chain_vanishing_forcing_convention(grid16):
    exact = get_fixture("paraboloid", theta=0.25)
    problem = problem_from_exact(grid16, exact)
    w = ScalarField(grid16, exact.w(grid16.nodes), exact.w(grid16.hit_points))
    d = abp_chain_report(problem, w).details
    assert d["kappa"] == 2.0 / 3.0
    assert d["forcing_vanishes"]
    assert d["fitted_constant"] == 0.0
    assert max(0.0, d["sup_w"] - d["sup_psi"]) >= 0.0


def test_abp_chain_finite_on_solved_problem(mild32):
    problem, _, w, _ = mild32
    d = abp_chain_report(problem, w).details
    assert not d["forcing_vanishes"]
    assert d["forcing_norm"] > 0.0
    assert np.isfinite(d["fitted_constant"])
    assert d["fitted_constant"] == pytest.approx(
        max(0.0, d["sup_w"] - d["sup_psi"]) / d["forcing_norm"]
    )


# ---------------------------------------------------------------------------
# quadrature weights and high-order difference monitor
# ---------------------------------------------------------------------------


def test_cell_areas_sum_to_domain_area(grid16, grid32, grid64):
    errors = []
    for grid in (grid16, grid32, grid64):
        total = float(cell_areas(grid).sum())
        err = abs(total - np.pi)
        assert err < 2.5 * grid.h
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# full battery
# ---------------------------------------------------------------------------


def test_verify_battery_passes_on_solved_problem(mild32):
    problem, u, w, _ = mild32
    checks = verify(problem, u, w, boundary_alpha=1.0, seed=0)
    assert [c.name for c in checks] == VERIFY_CHECK_NAMES
    statuses = {c.name: c.status for c in checks}
    assert all(s == "pass" for s in statuses.values()), statuses
    for c in checks:
        assert np.isfinite(c.margin)
        d = dataclasses.asdict(c)
        assert set(d) == {"name", "status", "margin", "details"}
