"""Command-line entry point.

Subcommands::

    amce solve    --config cfg.json   coupled solve; u.csv, w.csv, report.json
    amce ma       --config cfg.json   determinant subproblem; u.csv, report.json
    amce lma      --config cfg.json   linearized subproblem; v.csv, report.json
    amce sections --config cfg.json   section geometry scan; sections.csv, hulls
    amce verify   --config cfg.json   solve + audit battery; verify.json
    amce converge --config cfg.json   grid refinement study; converge.csv
    amce fixture  --config cfg.json   list fixtures / dump sampled fields

Every subcommand takes ``--config`` (required) plus ``--out`` and ``--seed``
overrides.  Field dumps are CSV with an ``x,y,value`` header at 17
significant digits, node rows first, then boundary hit rows.
Each run writes ``report.json`` embedding the canonical config; wall time
lives only under the ``"timing"`` key so that identical configs produce
byte-identical reports after dropping that key.  A run that fails once its
output directory exists writes one too, with ``"status"`` (``"exit 2"`` or
``"exit 3"``) and ``"error"`` (class, message and, for a non-convergence,
the residual history) in place of ``"results"``.

Exit codes: 0 on success, 2 when an iteration fails to converge (or the
operator degenerates mid-solve), 3 for invalid configs, domains, or data.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import FieldSpec, RunConfig, canonical_json, load_config
from .convergence import convergence_study
from .coupled import (
    ProblemData,
    check_theta,
    forcing_nonpositive,
    g_from_w,
    problem_from_exact,
    solve_system,
)
from .errors import (
    AmceError,
    ConfigError,
    ConvexityFailureError,
    DegenerateOperatorError,
    IncompleteDataError,
    NonConvergenceError,
)
from .fixtures import fixture_names, get_fixture
from .geometry import build_domain
from .grid import Grid, ScalarField, build_grid
from .lma import LMAProblem, solve_lma
from .ma import MAProblem, solve_ma
from .operators import discrete_hessian
from .regularity import verify
from .sections import (
    localization_scan,
    maximal_height,
    normalize_section,
    require_boundary_point,
    require_interior_point,
)

__all__ = ["main"]

# exit 2: non-convergence or a degenerate operator; every other package
# error is invalid input (exit 3)
_CONVERGE_EXIT = (NonConvergenceError, ConvexityFailureError, DegenerateOperatorError)

_DEFAULT_FIXTURE_THETA = 0.25


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_csv(path: str, header: str, columns) -> None:
    """``header``, then one row per index of the equal-length ``columns``.

    Every entry is written with ``{:.17g}``: floats round-trip exactly and
    integers print as integers.
    """
    cols = [np.asarray(c).tolist() for c in columns]
    fmt = ",".join(["{:.17g}"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt.format(*row) for row in zip(*cols))


def write_field_csv(path: str, field: ScalarField) -> None:
    """Dump a scalar field as ``x,y,value`` rows: nodes first, then hits."""
    grid = field.grid
    pts = np.concatenate([grid.nodes, grid.hit_points])
    vals = np.concatenate([field.values, field.hit_values])
    _write_csv(path, "x,y,value", [pts[:, 0], pts[:, 1], vals])


def read_field_csv(path: str, grid: Grid) -> ScalarField:
    """Read an ``x,y,value`` dump back onto a grid.

    Rows are matched to lattice nodes by index and to boundary hits by
    nearest point, all rows at once.  Non-finite entries, unmatched rows
    and missing nodes or hits raise IncompleteDataError — the dump must
    come from the same domain/spacing combination.
    """
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    except OSError as exc:
        raise ConfigError(f"cannot read field csv {path}: {exc}") from exc
    except ValueError as exc:  # genfromtxt's error for ragged rows
        raise IncompleteDataError(
            f"{path} is not a valid x,y,value table: rows of unequal length"
        ) from exc
    data = np.atleast_2d(data)
    if data.ndim != 2 or data.shape[1] != 3 or not np.isfinite(data).all():
        raise IncompleteDataError(f"{path} is not a valid x,y,value table")

    pts, vals = data[:, :2], data[:, 2]
    tol = 1e-9 * max(1.0, float(np.abs(grid.nodes).max(initial=1.0)))
    node = grid.ids_at(np.rint(pts / grid.h))
    on_node = node >= 0
    # the tolerance rule of Grid.node_at, applied to all rows at once
    on_node[on_node] = np.max(
        np.abs(grid.nodes[node[on_node]] - pts[on_node]), axis=1
    ) <= tol * max(1.0, grid.h)
    hit = np.full(len(data), -1)
    rest = np.nonzero(~on_node)[0]
    if rest.size:
        from scipy.spatial import cKDTree

        dist, hid = cKDTree(grid.hit_points).query(pts[rest])
        hit[rest[dist <= tol]] = hid[dist <= tol]
    unmatched = np.nonzero(~on_node & (hit < 0))[0]
    if unmatched.size:
        x, y = pts[unmatched[0]]
        raise IncompleteDataError(
            f"{path}: row ({x:.17g}, {y:.17g}) matches no node or hit of the grid"
        )
    values = np.full(grid.n_nodes, np.nan)
    values[node[on_node]] = vals[on_node]
    on_hit = hit >= 0
    hit_values = np.full(grid.n_hits, np.nan)
    hit_values[hit[on_hit]] = vals[on_hit]
    if np.isnan(values).any():
        missing = int(np.isnan(values).sum())
        raise IncompleteDataError(f"{path}: {missing} grid nodes have no value")
    if np.isnan(hit_values).any():
        missing = int(np.isnan(hit_values).sum())
        raise IncompleteDataError(f"{path}: {missing} boundary hits have no value")
    return ScalarField(grid=grid, values=values, hit_values=hit_values)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(_jsonable(obj)))
        fh.write("\n")


def _write_report(
    out_dir: str, command: str, cfg: RunConfig, t0: float, **body
) -> None:
    """``report.json``: command, canonical config, ``body``, wall time since t0."""
    report = {"command": command, "config": cfg.canonical(), **body}
    report["timing"] = {"wall_time_s": time.perf_counter() - t0}
    _write_json(os.path.join(out_dir, "report.json"), report)


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _make_grid(cfg: RunConfig) -> Grid:
    domain = build_domain(cfg.domain_kind, cfg.domain_params)
    return build_grid(domain, cfg.h)


def _fixture_exact(cfg: RunConfig):
    theta = cfg.fixture.get("theta", _DEFAULT_FIXTURE_THETA)
    check_theta(theta)
    return get_fixture(cfg.fixture["name"], theta=theta)


def _coupled_problem(cfg: RunConfig, grid: Grid) -> ProblemData:
    if cfg.problem is not None:
        pb = cfg.problem
        return ProblemData.from_callables(
            grid,
            pb["theta"],
            f_fn=pb["f"].to_callable(),
            phi_fn=pb["phi"].to_callable(),
            psi_fn=pb["psi"].to_callable(),
        )
    if cfg.fixture is not None:
        return problem_from_exact(grid, _fixture_exact(cfg))
    raise ConfigError("this command needs a 'problem' or 'fixture' config block")


def _ma_problem(cfg: RunConfig, grid: Grid) -> MAProblem:
    if cfg.ma is not None:
        return MAProblem.from_callables(
            grid,
            g_fn=cfg.ma["g"].to_callable(),
            phi_fn=cfg.ma["phi"].to_callable(),
        )
    if cfg.fixture is not None:
        exact = _fixture_exact(cfg)
        # w = det^(theta-1) pins down the determinant target
        g = g_from_w(ScalarField.from_callable(grid, exact.w), exact.theta)
        return MAProblem(grid=grid, g=g, phi_hits=exact.u(grid.hit_points))
    raise ConfigError("the ma command needs an 'ma' or 'fixture' config block")


# ---------------------------------------------------------------------------
# subcommands (each returns (results dict, exit code))
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    problem = _coupled_problem(cfg, grid)
    u, w, report = solve_system(problem, cfg.coupled_options())
    write_field_csv(os.path.join(out_dir, "u.csv"), u)
    write_field_csv(os.path.join(out_dir, "w.csv"), w)
    results = {
        "n_nodes": grid.n_nodes,
        "n_hits": grid.n_hits,
        "solve": report.as_dict(),
        "sup_u": u.sup_norm(),
        "sup_w": w.sup_norm(),
        "outputs": ["u.csv", "w.csv"],
    }
    return results, 0


def _cmd_ma(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    problem = _ma_problem(cfg, grid)
    u, report = solve_ma(problem, cfg.coupled_options().ma)
    write_field_csv(os.path.join(out_dir, "u.csv"), u)
    results = dict(report.as_dict())
    results.update(
        {"n_nodes": grid.n_nodes, "n_hits": grid.n_hits, "outputs": ["u.csv"]}
    )
    return results, 0


def _cmd_lma(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    lma_cfg = cfg.lma or {
        "g": FieldSpec("const", 0.0),
        "psi": FieldSpec("const", 1.0),
    }
    if "u_csv" in lma_cfg:
        u = read_field_csv(lma_cfg["u_csv"], grid)
        u_source = lma_cfg["u_csv"]
    elif cfg.ma is not None or cfg.fixture is not None:
        u, _ = solve_ma(_ma_problem(cfg, grid), cfg.coupled_options().ma)
        u_source = "ma-solve"
    else:
        raise ConfigError(
            "the lma command needs coefficients: lma.u_csv, an 'ma' block, "
            "or a 'fixture' block"
        )
    g = lma_cfg["g"].to_callable()(grid.nodes)
    psi = lma_cfg["psi"].to_callable()(grid.hit_points)
    problem = LMAProblem(hessian=discrete_hessian(u), g=g, psi_hits=psi)
    v, report = solve_lma(problem, tol=cfg.solver["lma_tol"], report_condition=True)
    write_field_csv(os.path.join(out_dir, "v.csv"), v)
    results = dict(report.as_dict())
    results.update(
        {
            "u_source": u_source,
            "n_nodes": grid.n_nodes,
            "n_hits": grid.n_hits,
            "outputs": ["v.csv"],
        }
    )
    return results, 0


def _cmd_sections(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    if cfg.sections is None:
        raise ConfigError("the sections command needs a 'sections' config block")
    sc = cfg.sections
    grid = _make_grid(cfg)
    # the points are checked before the solve, which they do not depend on
    if "boundary_point" in sc:
        require_boundary_point(grid, sc["boundary_point"])
    for y in sc.get("interior_points", []):
        require_interior_point(grid, y)
    problem = _coupled_problem(cfg, grid)
    u, _, solve_report = solve_system(problem, cfg.coupled_options())

    results: dict = {
        "solve": solve_report.as_dict(),
        "heights": sc["heights"],
        "outputs": [],
    }

    if "boundary_point" in sc:
        x0 = np.asarray(sc["boundary_point"], float)
        scan = localization_scan(
            u, x0, sc["heights"], min_nodes=sc["min_nodes"]
        )
        keys = ["h", "tau", "vol_ratio", "k_inner", "k_outer"]
        _write_csv(
            os.path.join(out_dir, "sections.csv"),
            ",".join(keys),
            [[row[k] for row in scan.kept_rows()] for k in keys],
        )
        results["outputs"].append("sections.csv")

        # hull polygons, one file per kept height
        hull_files = []
        for k, (row, hull) in enumerate(zip(scan.kept_rows(), scan.hulls)):
            name = f"hull_{k:03d}.csv"
            _write_csv(os.path.join(out_dir, name), "x,y", hull.T)
            hull_files.append({"h": row["h"], "file": name, "n_vertices": len(hull)})
        results["outputs"].extend(e["file"] for e in hull_files)
        results["boundary_scan"] = {
            "x0": list(map(float, x0)),
            "normal": list(map(float, scan.normal)),
            "rows": scan.rows,
            "slide_c0": scan.slide_c0,
            "slide_c1": scan.slide_c1,
            "slide_r2": scan.slide_r2,
            "hulls": hull_files,
        }

    if "interior_points" in sc:
        interior = []
        for y in sc["interior_points"]:
            entry: dict = {"point": [float(y[0]), float(y[1])]}
            hbar, touch = maximal_height(u, y)
            entry["hbar"] = hbar
            entry["touch_point"] = list(map(float, touch))
            if sc["normalize"]:
                ns = normalize_section(u, y)
                entry["normalized"] = {
                    "c_inner": ns.c_inner,
                    "c_outer": ns.c_outer,
                    "grad_at_center": list(map(float, ns.grad_at_center)),
                    "det_range_original": list(map(float, ns.det_range_original)),
                    "det_range_normalized": list(
                        map(float, ns.det_range_normalized)
                    ),
                    "tau": ns.fit.tau,
                    "h_eff": ns.fit.h_eff,
                }
            interior.append(entry)
        results["interior_points"] = interior

    return results, 0


def _cmd_verify(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    problem = _coupled_problem(cfg, grid)
    u, w, solve_report = solve_system(problem, cfg.coupled_options())
    checks = verify(
        problem,
        u,
        w,
        boundary_alpha=cfg.verify["boundary_alpha"],
        seed=cfg.seed,
    )
    summary = {
        "checks": [c.as_dict() for c in checks],
        "n_pass": sum(c.status == "pass" for c in checks),
        "n_fail": sum(c.status == "fail" for c in checks),
        "n_skip": sum(c.status == "skip" for c in checks),
    }
    _write_json(os.path.join(out_dir, "verify.json"), summary)
    results = {
        "solve": solve_report.as_dict(),
        "verify": summary,
        "outputs": ["verify.json"],
    }
    return results, 0


def _cmd_converge(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    if cfg.converge is None:
        raise ConfigError("the converge command needs a 'converge' config block")
    if cfg.fixture is None:
        raise ConfigError("the converge command needs a 'fixture' config block")
    domain = build_domain(cfg.domain_kind, cfg.domain_params)
    theta = cfg.fixture.get("theta", _DEFAULT_FIXTURE_THETA)
    study = convergence_study(
        cfg.fixture["name"],
        cfg.converge["h_list"],
        theta=theta,
        domain=domain,
        options=cfg.coupled_options(),
    )
    keys = ["h", "n_nodes", "err_u", "err_w", "outer_iterations"]
    _write_csv(
        os.path.join(out_dir, "converge.csv"),
        ",".join(keys),
        [[getattr(row, k) for row in study.rows] for k in keys],
    )
    results = dict(study.as_dict())
    results["outputs"] = ["converge.csv"]
    return results, 2 if study.partial else 0


def _cmd_fixture(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    results: dict = {"available": fixture_names(), "outputs": []}
    if cfg.fixture is not None:
        exact = _fixture_exact(cfg)
        grid = _make_grid(cfg)
        u = ScalarField.from_callable(grid, exact.u)
        w = ScalarField.from_callable(grid, exact.w)
        f = ScalarField.from_callable(grid, exact.f)
        for name, field in (("u_exact", u), ("w_exact", w), ("f_exact", f)):
            write_field_csv(os.path.join(out_dir, f"{name}.csv"), field)
            results["outputs"].append(f"{name}.csv")
        route_gap = float(
            np.max(np.abs(f.values - np.asarray(exact.f_fd(grid.nodes), float)))
        )
        results["fixture"] = {
            "name": exact.name,
            "theta": exact.theta,
            "forcing_route_gap": route_gap,
            "f_nonpositive": forcing_nonpositive(f.values),
            "sup_u": u.sup_norm(),
            "sup_w": w.sup_norm(),
        }
    return results, 0


_DISPATCH = {
    "solve": _cmd_solve,
    "ma": _cmd_ma,
    "lma": _cmd_lma,
    "sections": _cmd_sections,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "fixture": _cmd_fixture,
}

_COMMAND_HELP = {
    "solve": "run the coupled solver and dump u, w, and a report",
    "ma": "solve the determinant subproblem det D^2 u = g",
    "lma": "solve the frozen-coefficient linearized subproblem",
    "sections": "scan section ellipsoid geometry of a computed solution",
    "verify": "solve, then run the full audit battery into verify.json",
    "converge": "manufactured-solution refinement study over a spacing list",
    "fixture": "list fixtures and dump exact fields for one of them",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amce",
        description="Solvers and diagnostics for the fourth-order "
        "curvature system in the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _COMMAND_HELP.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; report bad invocations
        # with the invalid-input code and let --help keep its clean exit
        return 0 if exc.code == 0 else 3

    out_dir = None
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg.seed = args.seed

        os.makedirs(cfg.output_dir, exist_ok=True)
        out_dir = cfg.output_dir

        t0 = time.perf_counter()
        results, code = _DISPATCH[args.command](cfg, out_dir)
        _write_report(out_dir, args.command, cfg, t0, results=results)
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{args.command}: {status}, outputs in {out_dir}")
        return code
    except _CONVERGE_EXIT as exc:
        error, code, message = exc, 2, str(exc)
    except AmceError as exc:
        error, code = exc, 3
        message = str(exc.args[0] if exc.args else exc)
    print(f"error: {message}", file=sys.stderr)
    if out_dir is not None:
        detail = {"class": type(error).__name__, "message": message}
        if getattr(error, "history", None) is not None:
            detail["history"] = error.history
        _write_report(
            out_dir, args.command, cfg, t0, status=f"exit {code}", error=detail
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
