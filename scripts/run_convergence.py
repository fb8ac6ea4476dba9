#!/usr/bin/env python3
"""Refinement study against a manufactured fixture.

Example:
    python3 scripts/run_convergence.py --fixture radial_quartic \
        --theta 0.25 --h 0.0625 0.03125 0.015625
"""

import argparse

from amce import convergence_study, fixture_names


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="radial_quartic", choices=fixture_names())
    ap.add_argument("--theta", type=float, default=0.25)
    ap.add_argument(
        "--h", type=float, nargs="+", default=[1 / 16, 1 / 32, 1 / 64]
    )
    args = ap.parse_args()

    study = convergence_study(args.fixture, args.h, theta=args.theta)
    print(f"fixture={study.fixture}  theta={study.theta}")
    print(f"{'h':>12} {'nodes':>8} {'err_u':>12} {'err_w':>12} {'outer':>6}")
    for row in study.rows:
        if row.failed:
            print(f"{row.h:12.6g} {'-':>8} failed: {row.failed}")
            continue
        print(
            f"{row.h:12.6g} {row.n_nodes:8d} {row.err_u:12.4e} "
            f"{row.err_w:12.4e} {row.outer_iterations:6d}"
        )
    if study.orders_u:
        print("observed orders (u):", [f"{o:.2f}" for o in study.orders_u])
        print("observed orders (w):", [f"{o:.2f}" for o in study.orders_w])
    if study.partial:
        print("study is partial: a grid failed to converge")


if __name__ == "__main__":
    main()
