#!/usr/bin/env python3
"""Hölder-modulus stability across a forcing family of fixed integral size.

Solves the coupled system for a sequence of Gaussian forcings whose
continuum L2 norm is held fixed while the sup norm grows geometrically
(sigma halves each step, amplitude scales like 1/sigma).  For each member
the script fits the interior Hölder modulus of w and the sup-bound excess
constant, then prints the table.  If the qualitative theory survives
discretization, the fitted modulus should be flat across the family even
though the forcing peaks blow up.

Example:
    python3 scripts/run_forcing_family.py --members 5 --h-grid 0.015625
"""

import argparse

import numpy as np

from amce import (
    Disk,
    ProblemData,
    build_grid,
    fit_holder_exponent,
    solve_system,
)
from amce.regularity import abp_chain_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--members", type=int, default=5)
    ap.add_argument("--h-grid", type=float, default=1 / 64)
    ap.add_argument("--theta", type=float, default=0.25)
    ap.add_argument("--sigma0", type=float, default=0.625)
    ap.add_argument("--strength", type=float, default=0.08)
    args = ap.parse_args()

    grid = build_grid(Disk(radius=1.0), args.h_grid)
    print(
        f"{'k':>3} {'sigma':>9} {'sup|f|':>10} {'L2(f)':>10} "
        f"{'beta':>7} {'raw':>7} {'C_holder':>9} {'C_abp':>7}"
    )
    for k in range(args.members):
        sigma = args.sigma0 / 2.0**k
        amp = -args.strength / sigma

        def f_fn(p, amp=amp, sigma=sigma):
            return amp * np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2) / (2 * sigma**2))

        problem = ProblemData.from_callables(
            grid,
            args.theta,
            f_fn=f_fn,
            phi_fn=lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2),
            psi_fn=lambda p: 1.0 + 0.5 * p[:, 0],
        )
        _, w, _ = solve_system(problem)
        fit = fit_holder_exponent(w)
        c_abp = abp_chain_report(problem, w).details["fitted_constant"]
        l2 = args.strength * np.sqrt(np.pi)  # continuum norm, held fixed
        print(
            f"{k:3d} {sigma:9.5f} {abs(amp):10.4f} {l2:10.4f} "
            f"{fit.beta:7.3f} {fit.raw_slope:7.3f} {fit.constant:9.4f} "
            f"{c_abp:7.4f}"
        )


if __name__ == "__main__":
    main()
