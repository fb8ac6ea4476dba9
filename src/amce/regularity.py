"""Numerical regularity audits: Hölder fits, extremum principles, norm chains.

These routines *measure* qualitative properties of computed solutions —
modulus-of-continuity exponents, boundary-data extremum principles and
the sup-norm chain for the weight — and package them as pass/fail/skip
checks with explicit margins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupled import ProblemData
from .grid import Grid, ScalarField
from .lma import LMA_TOL
from .sections import quadratic_separation
from .operators import discrete_hessian

__all__ = [
    "HolderFit",
    "BoundaryHolderReport",
    "MinPrincipleReport",
    "AbpChainReport",
    "CheckResult",
    "fit_holder_exponent",
    "boundary_holder_check",
    "min_principle_check",
    "abp_chain_report",
    "abp_exponent",
    "cell_areas",
    "verify",
]

#: Slope cap for fitted modulus exponents: genuinely Lipschitz data can fit
#: marginally above 1 through bin quantization, anything higher is reported
#: as-is in ``raw_slope`` but capped in ``beta``.
_BETA_CAP = 1.05

#: Anchors of the interior fit: nodes at extreme field values (half at each
#: end) plus a seeded random sample of the rest.
_N_EXTREME_ANCHORS = 32
_N_RANDOM_ANCHORS = 168

#: Allowance below the structural threshold in the boundary check.
_BOUNDARY_SLACK = 0.05


# ---------------------------------------------------------------------------
# modulus-of-continuity fits
# ---------------------------------------------------------------------------


@dataclass
class HolderFit:
    """Log-log fit of the maximal oscillation against pair distance.

    Oscillations |v(x) - v(a)| over anchor/target pairs are binned by
    distance into dyadic bins spanning ``[4h, diam/4]``; ``beta`` is
    the least-squares slope of log(max oscillation) versus log(distance),
    capped at 1.05.  ``degenerate`` marks fits with too few usable bins or
    a non-increasing modulus (e.g. constant fields).  ``flat`` marks a field
    whose every bin peak is at most ``LMA_TOL`` times its sup norm: a
    computed weight comes from a linear solve accepted at that backward
    error, so smaller variation is not resolved and the slope fits noise.
    """

    beta: float
    raw_slope: float
    constant: float
    r2: float
    n_pairs: int
    n_bins: int
    bin_centers: np.ndarray
    bin_oscillation: np.ndarray
    degenerate: bool
    flat: bool


def _oscillation_fit(field: ScalarField, anchor_pts, anchor_vals) -> HolderFit:
    """Modulus fit over pairs of the anchors and every node of ``field``."""
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
        return HolderFit(
            beta=np.nan,
            raw_slope=np.nan,
            constant=np.nan,
            r2=np.nan,
            n_pairs=n_pairs,
            n_bins=len(centers),
            bin_centers=centers,
            bin_oscillation=peaks,
            degenerate=True,
            flat=flat,
        )
    lx, ly = np.log(centers), np.log(peaks)
    coeffs, res = np.polyfit(lx, ly, 1, full=True)[:2]
    slope = float(coeffs[0])
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - (float(res[0]) if res.size else 0.0) / ss_tot if ss_tot > 0 else 1.0
    degenerate = slope <= 0.0
    beta = np.nan if degenerate else min(slope, _BETA_CAP)
    # seminorm estimate: smallest C with (bin oscillation) <= C * d^beta
    constant = np.nan if degenerate else float(np.max(peaks / centers**beta))
    return HolderFit(
        beta=beta,
        raw_slope=slope,
        constant=constant,
        r2=float(r2),
        n_pairs=n_pairs,
        n_bins=len(centers),
        bin_centers=centers,
        bin_oscillation=peaks,
        degenerate=degenerate,
        flat=flat,
    )


def fit_holder_exponent(field: ScalarField, seed: int = 0) -> HolderFit:
    """Fit an interior modulus-of-continuity exponent for a grid field.

    Anchors mix nodes at extreme field values (where oscillation peaks
    live) with a seeded random sample; targets are all nodes.
    """
    grid = field.grid
    v = field.values
    n = grid.n_nodes
    order = np.argsort(v)
    k = min(_N_EXTREME_ANCHORS // 2, n // 2)
    extreme = np.concatenate([order[:k], order[-k:]])
    rng = np.random.default_rng(seed)
    rest = np.setdiff1d(np.arange(n), extreme)
    n_rand = min(_N_RANDOM_ANCHORS, rest.size)
    anchors = np.concatenate(
        [extreme, rng.choice(rest, size=n_rand, replace=False)]
    )
    return _oscillation_fit(field, grid.nodes[anchors], v[anchors])


@dataclass
class BoundaryHolderReport:
    """Boundary modulus fit of a field against the structural threshold.

    For boundary data of Hölder exponent ``alpha``, the weight inherits
    interior-to-boundary continuity with exponent at least
    ``alpha / (alpha + 2)``; the check passes when the fitted exponent
    clears that threshold minus ``slack``.
    """

    fit: HolderFit
    alpha: float
    threshold: float
    slack: float
    passed: bool


def boundary_holder_check(field: ScalarField, alpha: float) -> BoundaryHolderReport:
    """Fit the boundary-anchored modulus of ``field`` and test the threshold.

    All boundary hit points serve as anchors, all interior nodes as
    targets, so the fit captures the worst interior-to-boundary
    oscillation at each scale.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"boundary data exponent must be in (0, 1], got {alpha}")
    fit = _oscillation_fit(field, field.grid.hit_points, field.hit_values)
    threshold = alpha / (alpha + 2.0)
    passed = (not fit.degenerate) and fit.beta >= threshold - _BOUNDARY_SLACK
    return BoundaryHolderReport(
        fit=fit,
        alpha=alpha,
        threshold=threshold,
        slack=_BOUNDARY_SLACK,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# extremum principle and sup-norm chain
# ---------------------------------------------------------------------------


@dataclass
class MinPrincipleReport:
    """Interior minimum of the weight versus its boundary minimum.

    With nonpositive right-hand side the weight cannot dip below its
    boundary data; ``margin = min_w - min_psi`` is allowed a ``-10 h^2``
    discretization budget.  Skipped (``applicable=False``) when the
    right-hand side changes sign.
    """

    applicable: bool
    passed: bool
    margin: float
    min_w: float
    min_psi: float
    budget: float


def min_principle_check(problem: ProblemData, w: ScalarField) -> MinPrincipleReport:
    grid = problem.grid
    budget = -10.0 * grid.h**2
    min_w = float(w.values.min())
    min_psi = float(problem.psi_hits.min())
    margin = min_w - min_psi
    applicable = problem.f_nonpositive
    passed = bool(applicable and margin >= budget)
    return MinPrincipleReport(
        applicable=applicable,
        passed=passed,
        margin=margin,
        min_w=min_w,
        min_psi=min_psi,
        budget=budget,
    )


def abp_exponent(theta: float) -> float:
    """Weight power in the sup-norm chain for the planar problem.

    The chain bounds ``sup w`` by the boundary supremum plus a constant
    times the L^2 norm of ``f * w**kappa`` with
    ``kappa = (n - 1) / (n (1 - theta))`` at ``n = 2``.
    """
    return 1.0 / (2.0 * (1.0 - theta))


def cell_areas(grid: Grid) -> np.ndarray:
    """Per-node quadrature weights clipped at the boundary.

    Full interior cells weigh ``h^2``; cut cells are shrunk by the product
    of mean axis arm fractions, a separable model of the clipped cell.
    """
    fx = 0.5 * (
        np.minimum(grid.arm_frac[:, 0], 1.0) + np.minimum(grid.arm_frac[:, 1], 1.0)
    )
    fy = 0.5 * (
        np.minimum(grid.arm_frac[:, 2], 1.0) + np.minimum(grid.arm_frac[:, 3], 1.0)
    )
    return grid.h**2 * fx * fy


@dataclass
class AbpChainReport:
    """Measured pieces of the sup-norm chain for the weight.

    ``fitted_constant`` is the smallest constant making the chain
    inequality an equality: ``max(0, sup_w - sup_psi) / ||f w^kappa||_L2``,
    zero by convention for (numerically) vanishing right-hand side.
    """

    kappa: float
    sup_w: float
    sup_psi: float
    forcing_norm: float
    fitted_constant: float
    forcing_vanishes: bool

    @property
    def excess(self) -> float:
        return max(0.0, self.sup_w - self.sup_psi)


def abp_chain_report(problem: ProblemData, w: ScalarField) -> AbpChainReport:
    kappa = abp_exponent(problem.theta)
    sup_w = w.sup_norm()
    sup_psi = float(np.abs(problem.psi_hits).max())
    areas = cell_areas(problem.grid)
    integrand = np.abs(problem.f.values) * np.abs(w.values) ** kappa
    forcing_norm = float(np.sqrt((integrand**2 * areas).sum()))
    scale = max(1.0, sup_w**kappa)
    vanishes = forcing_norm <= 1e-14 * scale
    excess = max(0.0, sup_w - sup_psi)
    fitted = 0.0 if vanishes else excess / forcing_norm
    return AbpChainReport(
        kappa=kappa,
        sup_w=sup_w,
        sup_psi=sup_psi,
        forcing_norm=forcing_norm,
        fitted_constant=fitted,
        forcing_vanishes=vanishes,
    )


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One verification check: name, pass/fail/skip, margin, diagnostics."""

    name: str
    status: str
    margin: float
    details: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "details": self.details,
        }


def verify(
    problem: ProblemData,
    u: ScalarField,
    w: ScalarField,
    boundary_alpha: float = 1.0,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the full audit battery on a computed solution pair.

    Checks: weight minimum principle (skipped for sign-changing forcing),
    sup-norm chain with finite fitted constant, interior modulus fit of
    the weight, boundary modulus of the weight against the
    ``alpha/(alpha+2)`` threshold, two-sided quadratic separation of the
    convex component, discrete Hessian positivity, and weight positivity.
    Both modulus checks are skipped for a flat weight (see :class:`HolderFit`).
    """
    checks: list[CheckResult] = []
    grid = problem.grid

    mp = min_principle_check(problem, w)
    checks.append(
        CheckResult(
            name="min_principle",
            status="pass" if mp.passed else ("skip" if not mp.applicable else "fail"),
            margin=mp.margin - mp.budget,
            details={
                "min_w": mp.min_w,
                "min_psi": mp.min_psi,
                "budget": mp.budget,
                "applicable": mp.applicable,
            },
        )
    )

    abp = abp_chain_report(problem, w)
    abp_ok = np.isfinite(abp.fitted_constant)
    checks.append(
        CheckResult(
            name="abp_chain",
            status="pass" if abp_ok else "fail",
            margin=abp.fitted_constant,
            details={
                "kappa": abp.kappa,
                "sup_w": abp.sup_w,
                "sup_psi": abp.sup_psi,
                "forcing_norm": abp.forcing_norm,
                "fitted_constant": abp.fitted_constant,
                "forcing_vanishes": abp.forcing_vanishes,
            },
        )
    )

    hf = fit_holder_exponent(w, seed=seed)
    hf_ok = (not hf.degenerate) and 0.0 < hf.beta <= _BETA_CAP
    checks.append(
        CheckResult(
            name="interior_holder_w",
            status="skip" if hf.flat else ("pass" if hf_ok else "fail"),
            margin=0.0 if hf.degenerate else hf.beta,
            details={
                "beta": None if np.isnan(hf.beta) else hf.beta,
                "raw_slope": None if np.isnan(hf.raw_slope) else hf.raw_slope,
                "r2": None if np.isnan(hf.r2) else hf.r2,
                "n_bins": hf.n_bins,
                "degenerate": hf.degenerate,
                "flat": hf.flat,
            },
        )
    )

    bh = boundary_holder_check(w, alpha=boundary_alpha)
    checks.append(
        CheckResult(
            name="boundary_holder_w",
            status="skip" if bh.fit.flat else ("pass" if bh.passed else "fail"),
            margin=(0.0 if bh.fit.degenerate else bh.fit.beta)
            - (bh.threshold - bh.slack),
            details={
                "alpha": bh.alpha,
                "threshold": bh.threshold,
                "beta": None if np.isnan(bh.fit.beta) else bh.fit.beta,
                "r2": None if np.isnan(bh.fit.r2) else bh.fit.r2,
                "flat": bh.fit.flat,
            },
        )
    )

    sep = quadratic_separation(u, seed=seed)
    sep_ok = sep.rho_low > 0.0
    checks.append(
        CheckResult(
            name="quadratic_separation",
            status="pass" if sep_ok else "fail",
            margin=sep.rho_low,
            details={
                "rho_low": sep.rho_low,
                "rho_high": sep.rho_high,
                "n_pairs": sep.n_pairs,
                "worst_gap": sep.worst_gap,
            },
        )
    )

    min_eig = discrete_hessian(u).min_eigenvalue()
    checks.append(
        CheckResult(
            name="hessian_positivity",
            status="pass" if min_eig > 0.0 else "fail",
            margin=float(min_eig),
            details={"min_eigenvalue": float(min_eig)},
        )
    )

    min_w_all = float(min(w.values.min(), w.hit_values.min()))
    checks.append(
        CheckResult(
            name="w_positivity",
            status="pass" if min_w_all > 0.0 else "fail",
            margin=min_w_all,
            details={"min_w": min_w_all, "grid_h": grid.h},
        )
    )
    return checks
