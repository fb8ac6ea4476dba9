"""Numerical regularity audits: Hölder fits, extremum principles, norm chains.

These routines *measure* qualitative properties of computed solutions —
modulus-of-continuity exponents, boundary-data extremum principles and
the sup-norm chain for the weight — and package them as pass/fail/skip
checks with explicit margins.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coupled import ProblemData
from .grid import Grid, ScalarField
from .lma import LMA_TOL
from .sections import quadratic_separation
from .operators import discrete_hessian, line_fit

__all__ = [
    "HolderFit",
    "CheckResult",
    "fit_holder_exponent",
    "boundary_holder_fit",
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

#: Most anchor/node pairs the oscillation fit holds in memory at once.
_PAIR_BUDGET = 2**19

#: Side of an anchor tile of the oscillation fit, as a fraction of its reach.
_TILE_SIDE = 0.5

#: Most anchors of one tile that the oscillation fit streams at once.
_TILE_CHUNK = 16


# ---------------------------------------------------------------------------
# modulus-of-continuity fits
# ---------------------------------------------------------------------------


@dataclass
class HolderFit:
    """Log-log fit of the maximal oscillation against pair distance.

    Oscillations |v(x) - v(a)| over anchor/target pairs are binned by
    distance into dyadic bins spanning ``[4h, diam/4]``; ``beta`` is
    the least-squares slope of log(max oscillation) versus log(distance),
    capped at 1.05.  Only pairs that can land in a bin are computed: the
    anchors are grouped into square tiles of side ``reach / 2``, with
    ``reach = edges[-1] + 2h``, and each tile meets only the nodes within
    ``reach`` of its anchors in x and in y.  A pair left out is at least
    ``edges[-1]`` apart as computed, so it was never binned, and every
    count and peak is that of the whole pair set.  A tile streams its
    anchors in chunks of at most 16 and at most ``_PAIR_BUDGET`` pairs
    (one anchor's row when its nodes alone are more), so memory does not
    grow with anchors times nodes.  ``degenerate`` marks fits with too
    few usable bins or a non-increasing modulus (e.g. constant fields).
    ``flat`` marks a field whose every bin peak is at most ``LMA_TOL``
    times its sup norm: a computed weight comes from a linear solve
    accepted at that backward error, so smaller variation is not resolved
    and the slope fits noise.
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


def _bin_edges(grid: Grid) -> np.ndarray:
    """Edges of the dyadic distance bins: ``4h * 2^k`` up to ``diam/4``."""
    edges = [4.0 * grid.h]
    while edges[-1] * 2.0 <= grid.domain.diameter / 4.0 * (1.0 + 1e-12):
        edges.append(edges[-1] * 2.0)
    return np.asarray(edges)


def _anchor_tiles(nodes, anchor_pts, reach: float):
    """Group the anchors into tiles and find the nodes each tile can reach.

    A tile is a square cell of side ``_TILE_SIDE * reach`` holding at least
    one anchor.  Yields ``(anchor ids, node ids)`` per tile: the nodes in
    the bounding box of the tile's anchors dilated by ``reach``, edges
    included.  The x-range comes from two ``searchsorted`` calls, since
    nodes come in lattice ``(i, j)`` order with x non-decreasing (see
    :class:`~amce.grid.Grid`), and the y-range from a mask.
    """
    x, y = nodes[:, 0], nodes[:, 1]
    keys = np.floor(anchor_pts / (_TILE_SIDE * reach)).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    for tile in np.split(order, starts[1:]):
        lo = anchor_pts[tile].min(axis=0) - reach
        hi = anchor_pts[tile].max(axis=0) + reach
        first = np.searchsorted(x, lo[0], side="left")
        last = np.searchsorted(x, hi[0], side="right")
        ys = y[first:last]
        yield tile, first + np.flatnonzero((ys >= lo[1]) & (ys <= hi[1]))


def _oscillation_fit(field: ScalarField, anchor_pts, anchor_vals) -> HolderFit:
    """Modulus fit over the pairs of the anchors and the nodes of ``field``.

    Only pairs that can fall below the last bin edge are computed: with
    ``reach = edges[-1] + 2h``, each tile of :func:`_anchor_tiles` meets
    only the nodes within ``reach`` of its anchors' bounding box in x and
    in y.  A pair left out is more than ``edges[-1] + 2h`` apart in one
    coordinate, so its computed distance ``sqrt(dx*dx + dy*dy)`` is at
    least ``edges[-1]`` and it was never binned; the 2h absorb the
    round-off of the box.  A tile's anchors are taken in chunks of at most
    ``_TILE_CHUNK``, fewer when a chunk would hold more than
    ``_PAIR_BUDGET`` pairs, and never fewer than one.  Each bin keeps a
    running pair count and peak; counts add and peaks take the maximum,
    so neither depends on which pairs come in which chunk, and both equal
    those of the whole pair set exactly.
    """
    grid = field.grid
    edges = _bin_edges(grid)
    nb = edges.size - 1
    counts = np.zeros(nb, dtype=np.int64)
    peaks = np.full(nb, -np.inf)
    reach = edges[-1] + 2.0 * grid.h
    for tile, near in _anchor_tiles(grid.nodes, anchor_pts, reach):
        # every anchor is a node or a hit within one arm of a node, so
        # ``near`` is never empty
        x, y = grid.nodes[near, 0], grid.nodes[near, 1]
        values = field.values[near]
        step = min(_TILE_CHUNK, max(1, _PAIR_BUDGET // near.size))
        for s in range(0, tile.size, step):
            chunk = tile[s : s + step]
            # sqrt(dx*dx + dy*dy), the same floats, in two chunk-sized buffers
            dist = x - anchor_pts[chunk, 0, None]
            dist *= dist
            osc = y - anchor_pts[chunk, 1, None]
            osc *= osc
            dist += osc
            np.sqrt(dist, out=dist)
            np.subtract(values, anchor_vals[chunk, None], out=osc)
            np.abs(osc, out=osc)
            for j in range(nb):
                sel = (dist >= edges[j]) & (dist < edges[j + 1])
                n = np.count_nonzero(sel)
                if n:
                    counts[j] += n
                    top = osc.max(where=sel, initial=-np.inf)
                    peaks[j] = np.maximum(peaks[j], top)

    used = counts > 0
    centers = np.sqrt(edges[:-1] * edges[1:])[used]
    peaks = peaks[used]
    n_pairs = int(counts.sum())
    flat = peaks.size > 0 and bool((peaks <= LMA_TOL * field.sup_norm()).all())
    if len(centers) < 2 or (peaks <= 0.0).any():
        slope = r2 = np.nan
        degenerate = True
    else:
        slope, _, r2 = line_fit(np.log(centers), np.log(peaks))
        degenerate = slope <= 0.0
    beta = np.nan if degenerate else min(slope, _BETA_CAP)
    # seminorm estimate: smallest C with (bin oscillation) <= C * d^beta
    constant = np.nan if degenerate else float(np.max(peaks / centers**beta))
    return HolderFit(
        beta=beta,
        raw_slope=slope,
        constant=constant,
        r2=r2,
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


def boundary_holder_fit(field: ScalarField) -> HolderFit:
    """Fit the boundary-anchored modulus of continuity of ``field``.

    All boundary hit points serve as anchors, all interior nodes as
    targets, so the fit captures the worst interior-to-boundary
    oscillation at each scale.
    """
    return _oscillation_fit(field, field.grid.hit_points, field.hit_values)


# ---------------------------------------------------------------------------
# audit records
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One verification check: name, pass/fail/skip, margin, diagnostics."""

    name: str
    status: str
    margin: float
    details: dict


def _flat_fit(field: ScalarField) -> HolderFit | None:
    """The fit of a flat ``field`` without its pairs, or None.

    When the bins are two or more and ``max - min`` of ``field`` over its
    nodes and hits is at most ``LMA_TOL`` times its sup norm, every pair's
    computed oscillation (rounding is monotone), and so every bin peak, is
    at most that too: the fit would be ``flat`` whatever the anchors.  The
    record then skips without computing a pair: its ``n_bins`` counts the
    bins, it has no slope, and it is ``degenerate``.  With fewer than two
    bins the fit itself runs.
    """
    n_bins = _bin_edges(field.grid).size - 1
    values = np.concatenate([field.values, field.hit_values])
    if n_bins < 2 or not np.ptp(values) <= LMA_TOL * field.sup_norm():
        return None
    empty = np.empty(0)
    return HolderFit(
        beta=np.nan,
        raw_slope=np.nan,
        constant=np.nan,
        r2=np.nan,
        n_pairs=0,
        n_bins=n_bins,
        bin_centers=empty,
        bin_oscillation=empty,
        degenerate=True,
        flat=True,
    )


def _unresolved(fit: HolderFit) -> bool:
    """A fit with no slope to judge: a flat field or fewer than two bins.

    The bins span ``[4h, diam/4]``, so the unit disk needs h <= 1/32 for two.
    """
    return fit.flat or fit.n_bins < 2


def boundary_holder_check(field: ScalarField, alpha: float) -> CheckResult:
    """Boundary modulus of ``field`` against the structural threshold.

    For boundary data of Hölder exponent ``alpha``, the weight inherits
    interior-to-boundary continuity with exponent at least
    ``alpha / (alpha + 2)``; the check passes when the exponent of
    :func:`boundary_holder_fit` clears that threshold minus a slack, and
    its margin is the exponent's excess over the slackened threshold.  It
    skips a flat or unbinned fit (see :func:`verify`), and a flat field
    with two or more bins before any pair is computed (see :func:`_flat_fit`).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"boundary data exponent must be in (0, 1], got {alpha}")
    fit = _flat_fit(field) or boundary_holder_fit(field)
    threshold = alpha / (alpha + 2.0)
    passed = (not fit.degenerate) and fit.beta >= threshold - _BOUNDARY_SLACK
    return CheckResult(
        name="boundary_holder_w",
        status="skip" if _unresolved(fit) else ("pass" if passed else "fail"),
        margin=(0.0 if fit.degenerate else fit.beta) - (threshold - _BOUNDARY_SLACK),
        details={
            "alpha": alpha,
            "threshold": threshold,
            "beta": fit.beta,
            "r2": fit.r2,
            "flat": fit.flat,
        },
    )


# ---------------------------------------------------------------------------
# extremum principle and sup-norm chain
# ---------------------------------------------------------------------------


def min_principle_check(problem: ProblemData, w: ScalarField) -> CheckResult:
    """Interior minimum of the weight versus its boundary minimum.

    With nonpositive right-hand side the weight cannot dip below its
    boundary data; ``min_w - min_psi`` is allowed a ``-10 h^2``
    discretization budget, and the margin is its excess over the budget.
    Skipped when the right-hand side changes sign.
    """
    budget = -10.0 * problem.grid.h**2
    min_w = float(w.values.min())
    min_psi = float(problem.psi_hits.min())
    applicable = problem.f_nonpositive
    passed = min_w - min_psi >= budget
    return CheckResult(
        name="min_principle",
        status="skip" if not applicable else ("pass" if passed else "fail"),
        margin=(min_w - min_psi) - budget,
        details={
            "min_w": min_w,
            "min_psi": min_psi,
            "budget": budget,
            "applicable": applicable,
        },
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
    f = np.minimum(grid.arm_frac[:, :4], 1.0)  # arms +x, -x, +y, -y
    return grid.h**2 * (0.5 * (f[:, 0] + f[:, 1])) * (0.5 * (f[:, 2] + f[:, 3]))


def abp_chain_report(problem: ProblemData, w: ScalarField) -> CheckResult:
    """Measured pieces of the sup-norm chain for the weight.

    The margin is the fitted constant, the smallest constant making the
    chain inequality an equality: ``max(0, sup_w - sup_psi) /
    ||f w^kappa||_L2``, zero by convention for (numerically) vanishing
    right-hand side.  The check passes when it is finite.
    """
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
    return CheckResult(
        name="abp_chain",
        status="pass" if np.isfinite(fitted) else "fail",
        margin=fitted,
        details={
            "kappa": kappa,
            "sup_w": sup_w,
            "sup_psi": sup_psi,
            "forcing_norm": forcing_norm,
            "fitted_constant": fitted,
            "forcing_vanishes": vanishes,
        },
    )


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def verify(
    problem: ProblemData,
    u: ScalarField,
    w: ScalarField,
    boundary_alpha: float,
    seed: int,
) -> list[CheckResult]:
    """Run the full audit battery on a computed solution pair.

    Checks: weight minimum principle (skipped for sign-changing forcing),
    sup-norm chain with finite fitted constant, interior modulus fit of
    the weight, boundary modulus of the weight against the
    ``alpha/(alpha+2)`` threshold, two-sided quadratic separation of the
    convex component, discrete Hessian positivity, and weight positivity.
    Both modulus checks are skipped for a flat weight (see :class:`HolderFit`)
    and on a grid too coarse to give their fit two distance bins; with two
    or more bins, a weight whose range is flat skips before its fit runs
    (see :func:`_flat_fit`).
    """
    checks = [min_principle_check(problem, w), abp_chain_report(problem, w)]

    hf = _flat_fit(w) or fit_holder_exponent(w, seed=seed)
    hf_ok = (not hf.degenerate) and 0.0 < hf.beta <= _BETA_CAP
    checks.append(
        CheckResult(
            name="interior_holder_w",
            status="skip" if _unresolved(hf) else ("pass" if hf_ok else "fail"),
            margin=0.0 if hf.degenerate else hf.beta,
            details={
                "beta": hf.beta,
                "raw_slope": hf.raw_slope,
                "r2": hf.r2,
                "n_bins": hf.n_bins,
                "degenerate": hf.degenerate,
                "flat": hf.flat,
            },
        )
    )
    checks.append(boundary_holder_check(w, alpha=boundary_alpha))

    sep = quadratic_separation(u, seed=seed)
    checks.append(
        CheckResult(
            name="quadratic_separation",
            status="pass" if sep.rho_low > 0.0 else "fail",
            margin=sep.rho_low,
            details=asdict(sep),
        )
    )

    min_eig = float(discrete_hessian(u).min_eigenvalue())
    checks.append(
        CheckResult(
            name="hessian_positivity",
            status="pass" if min_eig > 0.0 else "fail",
            margin=min_eig,
            details={"min_eigenvalue": min_eig},
        )
    )

    min_w_all = float(min(w.values.min(), w.hit_values.min()))
    checks.append(
        CheckResult(
            name="w_positivity",
            status="pass" if min_w_all > 0.0 else "fail",
            margin=min_w_all,
            details={"min_w": min_w_all, "grid_h": problem.grid.h},
        )
    )
    return checks
