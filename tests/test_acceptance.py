"""Ten end-to-end acceptance criteria, one printed pass/fail line each.

Each test computes its conditions, records a single summary line through
the shared recorder (echoed in the terminal summary), and then asserts.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import record_acceptance
from oracles import sign_audit

from amce.cli import main as cli_main
from amce.config import canonical_json
from amce.coupled import ProblemData, problem_from_exact, solve_system
from amce.fixtures import fixture_names, get_fixture
from amce.geometry import Disk
from amce.grid import ScalarField, build_grid
from amce.lma import LMAProblem, solve_lma
from amce.operators import discrete_hessian, value_and_gradient_at
from amce.regularity import (
    abp_chain_report,
    abp_exponent,
    boundary_holder_check,
    cell_areas,
    fit_holder_exponent,
    min_principle_check,
    quadratic_separation,
)
from amce.sections import localization_scan, maximal_height


def _line(num: int, ok: bool, detail: str) -> None:
    record_acceptance(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def solved32(grid32):
    """Every registry fixture solved at h=1/32, theta=1/4, keyed by name."""
    out = {}
    for name in fixture_names():
        exact = get_fixture(name, theta=0.25)
        problem = problem_from_exact(grid32, exact)
        u, w, report = solve_system(problem)
        out[name] = (exact, problem, u, w, report)
    return out


def test_criterion_1_quadratic_fixed_point(grid32):
    ok = True
    parts = []
    for theta in (0.0, 0.25):
        exact = get_fixture("paraboloid", theta=theta)
        problem = problem_from_exact(grid32, exact)
        t0 = time.perf_counter()
        u, w, report = solve_system(problem)
        wall = time.perf_counter() - t0
        err_u = float(np.abs(u.values - exact.u(grid32.nodes)).max())
        err_w = float(np.abs(w.values - exact.w(grid32.nodes)).max())
        ok = ok and (
            err_u <= 1e-8
            and err_w <= 1e-8
            and report.outer_iterations <= 2
            and wall < 10.0
        )
        parts.append(
            f"theta={theta}: err_u={err_u:.1e} err_w={err_w:.1e} "
            f"outer={report.outer_iterations} wall={wall:.2f}s"
        )
    _line(1, ok, "quadratic data is a fixed point at h=1/32 — " + "; ".join(parts))
    assert ok, parts


def test_criterion_2_radial_convergence():
    exact = get_fixture("radial_quartic", theta=0.25)
    errs, walls = [], []
    for h in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        grid = build_grid(Disk(radius=1.0), h)
        problem = problem_from_exact(grid, exact)
        t0 = time.perf_counter()
        u, _, _ = solve_system(problem)
        walls.append(time.perf_counter() - t0)
        errs.append(float(np.abs(u.values - exact.u(grid.nodes)).max()))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = errs[-1] <= 1e-3 and min(orders) >= 1.5 and max(walls) < 120.0
    _line(
        2,
        ok,
        "radial solution converges — err_u="
        + "/".join(f"{e:.2e}" for e in errs)
        + f" orders={orders[0]:.2f},{orders[1]:.2f}"
        + f" max_wall={max(walls):.1f}s",
    )
    assert ok, (errs, orders, walls)


def test_criterion_3_weight_minimum_principle(solved32, tmp_path):
    ok = True
    parts = []
    for name, (exact, problem, _, w, _) in solved32.items():
        if not sign_audit(exact)["nonpositive"]:
            continue
        report = min_principle_check(problem, w)
        d = report.details
        ok = ok and d["applicable"] and report.status == "pass"
        parts.append(f"{name}: margin={d['min_w'] - d['min_psi']:+.1e}")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 1.0 / 32.0},
                "fixture": {"name": "radial_mild", "theta": 0.25},
            }
        )
    )
    out = str(tmp_path / "v")
    rc = cli_main(["verify", "--config", str(cfg), "--out", out])
    with open(os.path.join(out, "verify.json")) as fh:
        battery = json.load(fh)
    mp = next(c for c in battery["checks"] if c["name"] == "min_principle")
    ok = ok and rc == 0 and mp["status"] == "pass"
    _line(
        3,
        ok,
        "weight minimum principle on all audited f<=0 fixtures (budget 10h^2); "
        + "; ".join(parts)
        + f"; verify.json: {mp['status']}",
    )
    assert ok, (parts, mp)


def test_criterion_4_weight_power_in_sup_chain(solved32):
    k14 = abp_exponent(0.25)
    k0 = abp_exponent(0.0)
    ok = k14 == 2.0 / 3.0 and k0 == 0.5
    parts = []
    for name, (_, problem, _, w, _) in solved32.items():
        c = abp_chain_report(problem, w).details["fitted_constant"]
        ok = ok and np.isfinite(c) and c >= 0.0
        parts.append(f"{name}: C={c:.3f}")
    _line(
        4,
        ok,
        f"sup-chain weight power — kappa(1/4)={k14:.10g} (=2/3), "
        f"kappa(0)={k0:.10g} (=1/2); fitted C finite on all fixtures: "
        + ", ".join(parts),
    )
    assert ok, (k14, k0, parts)


def test_criterion_5_quadratic_separation(solved32):
    sep = quadratic_separation(solved32["paraboloid"][2], seed=0).details
    ok = abs(sep["rho_low"] - 0.5) <= 1e-6 and abs(sep["rho_high"] - 0.5) <= 1e-6
    parts = []
    for name, (_, _, u, _, _) in solved32.items():
        check = quadratic_separation(u, seed=0)
        ok = ok and check.status == "pass"
        parts.append(f"{name}: rho_low={check.margin:.3f}")
    _line(
        5,
        ok,
        f"two-sided quadratic separation — paraboloid rho=[{sep['rho_low']:.8f},"
        f"{sep['rho_high']:.8f}] (0.5 both); all converged fixtures positive: "
        + ", ".join(parts),
    )
    assert ok, (sep, parts)


def test_criterion_6_boundary_localization(r2_64, grid64):
    _, u, _, _ = r2_64
    heights = [2.0**-k for k in range(3, 7)]
    scan = localization_scan(u, np.array([0.0, -1.0]), heights, min_nodes=12)
    kept = scan.kept_rows()
    taus = [abs(r["tau"]) for r in kept]
    vol_errs = [abs(r["vol_ratio"] - 1.0) for r in kept]
    ok = len(kept) == len(heights) and max(taus) <= 1e-4 and max(vol_errs) <= 0.05

    exact = get_fixture("sheared_half", theta=0.25)
    ush = ScalarField.from_callable(grid64, exact.u)
    scan_sh = localization_scan(ush, np.array([0.0, -1.0]), heights, min_nodes=12)
    tau_sh = [r["tau"] for r in scan_sh.kept_rows()]
    ok = ok and bool(tau_sh) and all(abs(t - 0.5) <= 0.01 for t in tau_sh)
    _line(
        6,
        ok,
        f"boundary sections localize — max|tau|={max(taus):.1e} (<=1e-4), "
        f"max|vol/(pi h)-1|={max(vol_errs):.1e} (<=5%), "
        f"shear recovered tau={np.mean(tau_sh):.4f} (0.5 +/- 2%)",
    )
    assert ok, (taus, vol_errs, tau_sh)


def test_criterion_7_maximal_heights_and_distance(paraboloid64_exact):
    u = paraboloid64_exact
    y0, y1 = np.zeros(2), np.array([0.5, 0.0])
    h0, _ = maximal_height(u, y0, *value_and_gradient_at(u, y0))
    h1, _ = maximal_height(u, y1, *value_and_gradient_at(u, y1))
    ok = abs(h0 - 0.5) <= 1e-5 and abs(h1 - 0.125) <= 1e-5

    dom = u.grid.domain
    ratios = []
    for r in np.linspace(0.05, 0.85, 8):
        for a in np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False):
            p = np.array([r * np.cos(a), r * np.sin(a)])
            hb, _ = maximal_height(u, p, *value_and_gradient_at(u, p))
            d = dom.distance_to_boundary(p[None, :])[0]
            ratios.append(np.sqrt(hb) / d)
    ratios = np.asarray(ratios)
    k_fit = float(max(ratios.max(), 1.0 / ratios.min()))
    ok = ok and ratios.size >= 50 and k_fit <= 4.0
    _line(
        7,
        ok,
        f"maximal heights — hbar(0)={h0:.8f} (0.5), hbar(0.5,0)={h1:.8f} "
        f"(0.125); sqrt(hbar)/dist in [1/k,k] with k={k_fit:.3f} over "
        f"{ratios.size} points (k<=4)",
    )
    assert ok, (h0, h1, k_fit)


def test_criterion_8_boundary_modulus_thresholds(grid32):
    quad = ScalarField(
        grid32,
        0.5 * (grid32.nodes**2).sum(axis=1),
        0.5 * (grid32.hit_points**2).sum(axis=1),
    )
    H = discrete_hessian(quad)
    zero = np.zeros(grid32.n_nodes)

    v_lip, _ = solve_lma(
        LMAProblem(hessian=H, g=zero, psi_hits=2.0 + grid32.hit_points[:, 0])
    )
    rep_lip = boundary_holder_check(v_lip, alpha=1.0)

    v_half, _ = solve_lma(
        LMAProblem(
            hessian=H,
            g=zero,
            psi_hits=2.0 + np.sqrt(np.abs(grid32.hit_points[:, 0])),
        )
    )
    rep_half = boundary_holder_check(v_half, alpha=0.5)

    ok = (
        rep_lip.status == "pass"
        and rep_lip.details["threshold"] == pytest.approx(1.0 / 3.0)
        and rep_half.status == "pass"
        and rep_half.details["threshold"] == pytest.approx(0.2)
    )
    _line(
        8,
        ok,
        "harmonic boundary moduli — Lipschitz data: beta="
        f"{rep_lip.details['beta']:.3f} vs threshold 1/3; half-power data: beta="
        f"{rep_half.details['beta']:.3f} vs threshold 0.2",
    )
    assert ok, (rep_lip, rep_half)


def test_criterion_9_forcing_family_stability(grid64):
    theta = 0.25
    target_l2 = 0.08 * np.sqrt(np.pi)
    areas = cell_areas(grid64)
    betas, raws, c_hold, c_abp, sups, l2s = [], [], [], [], [], []
    for k in range(5):
        s = 0.625 / 2.0**k
        amp = 0.08 / s

        def f_fn(p, s=s, amp=amp):
            return -amp * np.exp(-(p**2).sum(axis=1) / (2.0 * s * s))

        problem = ProblemData.from_callables(
            grid64,
            theta,
            f_fn,
            lambda p: 0.5 * (p**2).sum(axis=1),
            lambda p: 1.0 + 0.5 * p[:, 0],
        )
        _, w, _ = solve_system(problem)
        fit = fit_holder_exponent(w, seed=0)
        chain = abp_chain_report(problem, w)
        betas.append(fit.beta)
        raws.append(fit.raw_slope)
        c_hold.append(fit.constant)
        c_abp.append(chain.details["fitted_constant"])
        sups.append(float(np.abs(problem.f.values).max()))
        l2s.append(float(np.sqrt((problem.f.values**2 * areas).sum())))
    # the spread is measured on the raw fitted slopes: the reported
    # exponents are capped at 1.05, which would make the check vacuous
    # for very smooth weights
    spread = max(raws) - min(raws)
    sup_growth = sups[-1] / sups[0]
    ok = (
        all(np.isfinite(raws))
        and all(np.isfinite(betas))
        and spread <= 0.1
        and max(c_hold) <= 2.0
        and max(c_abp) <= 1.0
        and abs(sup_growth - 16.0) <= 0.5
        and all(abs(n - target_l2) <= 0.05 * target_l2 for n in l2s)
    )
    table = "; ".join(
        f"s={0.625 / 2.0**k:.4g}: slope={raws[k]:.3f} C_mod={c_hold[k]:.3f} "
        f"C_chain={c_abp[k]:.3f}"
        for k in range(5)
    )
    _line(
        9,
        ok,
        f"forcing family (fixed L2, sup x{sup_growth:.1f}) — raw slope spread="
        f"{spread:.4f} (<=0.1); {table}",
    )
    assert ok, (raws, c_hold, c_abp, sups, l2s)


def test_criterion_10_reproducible_reports(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 1.0 / 16.0},
                "fixture": {"name": "radial_mild", "theta": 0.25},
                "seed": 5,
            }
        )
    )
    out = str(tmp_path / "o")
    rc1 = cli_main(["solve", "--config", str(cfg), "--out", out])
    with open(os.path.join(out, "report.json")) as fh:
        text1 = fh.read()
    os.rename(os.path.join(out, "report.json"), os.path.join(out, "report1.json"))
    rc2 = cli_main(["solve", "--config", str(cfg), "--out", out])
    with open(os.path.join(out, "report.json")) as fh:
        text2 = fh.read()

    def strip_timing(text: str) -> str:
        obj = json.loads(text)
        obj.pop("timing")
        return canonical_json(obj)

    same = strip_timing(text1) == strip_timing(text2)
    ok = rc1 == 0 and rc2 == 0 and same
    _line(
        10,
        ok,
        "repeated runs byte-identical excluding timing — "
        f"exit codes {rc1}/{rc2}, reports match: {same}",
    )
    assert ok, (rc1, rc2, same)
