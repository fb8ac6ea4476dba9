"""Tests for regularity audits: modulus fits, extremum checks, norm chains."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amce.coupled import problem_from_exact
from amce.fixtures import get_fixture
from amce.grid import ScalarField
from amce.regularity import (
    abp_chain_report,
    abp_exponent,
    boundary_holder_check,
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


def test_flat_weight_skips_both_modulus_checks(grid16):
    """paraboloid's weight is constant; computed, it spreads by about 1e-14.
    That noise has no modulus to fit, so both checks skip instead."""
    exact = get_fixture("paraboloid", theta=0.25)
    problem = problem_from_exact(grid16, exact)
    u = ScalarField.from_callable(grid16, exact.u)
    w = ScalarField.from_callable(grid16, exact.w)
    w.values += 1e-14 * np.random.default_rng(0).standard_normal(grid16.n_nodes)
    assert fit_holder_exponent(w, seed=0).flat
    assert boundary_holder_check(w, alpha=1.0).fit.flat
    checks = {c.name: c for c in verify(problem, u, w, seed=0)}
    for name in ("interior_holder_w", "boundary_holder_w"):
        assert checks[name].status == "skip"
        assert checks[name].details["flat"] is True


# ---------------------------------------------------------------------------
# boundary modulus against the alpha/(alpha+2) threshold
# ---------------------------------------------------------------------------


def test_boundary_holder_lipschitz_field_passes(grid32):
    fld = ScalarField(grid32, grid32.nodes[:, 0], grid32.hit_points[:, 0])
    report = boundary_holder_check(fld, alpha=1.0)
    assert report.threshold == pytest.approx(1.0 / 3.0)
    assert report.fit.beta == pytest.approx(1.0, abs=0.02)
    assert report.passed


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
    r_lo = boundary_holder_check(fld, alpha=a_lo)
    r_hi = boundary_holder_check(fld, alpha=a_hi)
    assert r_lo.threshold == pytest.approx(a_lo / (a_lo + 2.0))
    assert r_hi.threshold == pytest.approx(a_hi / (a_hi + 2.0))
    if a_hi > a_lo:
        assert r_hi.threshold > r_lo.threshold


# ---------------------------------------------------------------------------
# extremum principle and sup-norm chain reports
# ---------------------------------------------------------------------------


def test_min_principle_on_solved_weight(mild32):
    problem, _, w, _ = mild32
    report = min_principle_check(problem, w)
    assert report.applicable
    assert report.passed
    assert report.budget == pytest.approx(-10.0 * problem.grid.h**2)
    assert report.margin >= report.budget
    assert report.min_w == pytest.approx(float(w.values.min()))


def test_min_principle_skips_sign_changing_forcing(grid16):
    exact = get_fixture("radial_quartic", theta=0.25)
    problem = problem_from_exact(grid16, exact)
    w = ScalarField(grid16, exact.w(grid16.nodes), exact.w(grid16.hit_points))
    report = min_principle_check(problem, w)
    assert not report.applicable
    assert not report.passed


def test_abp_chain_vanishing_forcing_convention(grid16):
    exact = get_fixture("paraboloid", theta=0.25)
    problem = problem_from_exact(grid16, exact)
    w = ScalarField(grid16, exact.w(grid16.nodes), exact.w(grid16.hit_points))
    report = abp_chain_report(problem, w)
    assert report.kappa == 2.0 / 3.0
    assert report.forcing_vanishes
    assert report.fitted_constant == 0.0
    assert report.excess >= 0.0


def test_abp_chain_finite_on_solved_problem(mild32):
    problem, _, w, _ = mild32
    report = abp_chain_report(problem, w)
    assert not report.forcing_vanishes
    assert report.forcing_norm > 0.0
    assert np.isfinite(report.fitted_constant)
    assert report.fitted_constant == pytest.approx(
        report.excess / report.forcing_norm
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
        d = c.as_dict()
        assert set(d) == {"name", "status", "margin", "details"}
