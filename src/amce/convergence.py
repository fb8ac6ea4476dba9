"""Grid-refinement studies against manufactured solutions.

Solves the coupled system for a manufactured fixture on a sequence of
spacings, tabulates sup-errors of both unknowns, and reports observed
orders from successive Richardson ratios.  A failure on one grid leaves
the already-computed rows in place and marks the table partial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coupled import CoupledOptions, problem_from_exact, solve_system
from .errors import SOLVE_FAILURES
from .fixtures import ExactSolution
from .geometry import Domain
from .grid import ScalarField, build_grid

__all__ = ["ConvergenceRow", "ConvergenceStudy", "convergence_study"]


@dataclass
class ConvergenceRow:
    h: float
    n_nodes: int = 0
    err_u: float = np.nan
    err_w: float = np.nan
    outer_iterations: int = 0
    newton_iterations_total: int = 0
    failed: str | None = None


@dataclass
class ConvergenceStudy:
    """Error table across spacings plus observed convergence orders.

    ``orders_u[i]`` / ``orders_w[i]`` are the Richardson orders between
    rows ``i`` and ``i+1``; ``partial`` is set when a grid failed and the
    remaining spacings were skipped.
    """

    fixture: str
    theta: float
    rows: list[ConvergenceRow] = field(default_factory=list)
    orders_u: list[float] = field(default_factory=list)
    orders_w: list[float] = field(default_factory=list)
    partial: bool = False


def _observed_orders(rows: list[ConvergenceRow], attr: str) -> list[float]:
    orders = []
    good = [r for r in rows if r.failed is None]
    for a, b in zip(good[:-1], good[1:]):
        ea, eb = getattr(a, attr), getattr(b, attr)
        if ea > 0 and eb > 0 and a.h != b.h:
            orders.append(float(np.log(ea / eb) / np.log(a.h / b.h)))
        else:
            orders.append(np.nan)
    return orders


def convergence_study(
    exact: ExactSolution, h_list, domain: Domain, options: CoupledOptions
) -> ConvergenceStudy:
    """Run the coupled solver against a manufactured fixture per spacing.

    A solve that fails to converge or degenerates (``SOLVE_FAILURES``)
    aborts the remaining grids: the row that failed carries the message,
    earlier rows stay valid, and the study is marked partial.  Any other
    error, such as invalid solver options, propagates.
    """
    study = ConvergenceStudy(fixture=exact.name, theta=exact.theta)

    for h in h_list:
        row = ConvergenceRow(h=float(h))
        study.rows.append(row)
        try:
            grid = build_grid(domain, float(h))
            row.n_nodes = grid.n_nodes
            prob = problem_from_exact(grid, exact)
            u, w, rep = solve_system(prob, options)
            u_star = ScalarField.from_callable(grid, exact.u)
            w_star = ScalarField.from_callable(grid, exact.w)
            row.err_u = float(np.max(np.abs(u.values - u_star.values)))
            row.err_w = float(np.max(np.abs(w.values - w_star.values)))
            row.outer_iterations = rep.outer_iterations
            row.newton_iterations_total = rep.newton_iterations_total
        except SOLVE_FAILURES as exc:
            row.failed = f"{type(exc).__name__}: {exc}"
            study.partial = True
            break

    study.orders_u = _observed_orders(study.rows, "err_u")
    study.orders_w = _observed_orders(study.rows, "err_w")
    return study
