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
significant digits, node rows first, then boundary hit rows, in grid
order.  ``amce lma`` reads ``u_csv`` back by position, so it must be a
:func:`write_field_csv` dump of the same domain and spacing.
Each run writes ``report.json`` embedding the canonical config; wall time
lives only under the ``"timing"`` key (``verify`` adds its ``solve_s`` and
``checks_s`` phases there, ``sections`` its ``solve_s``, ``boundary_scan_s``
and ``interior_s``; ``grid_s`` times the grid build of every command but
``converge``; ``csv_write_s`` and ``csv_read_s`` sum the time of a
command's CSV dumps) so that identical configs produce
byte-identical reports after dropping that key.  A non-finite float, a
value that does not exist, is written as ``null``.  A run that fails once its
output directory exists writes one too, with ``"status"`` (``"exit 2"`` or
``"exit 3"``) and ``"error"`` (class, message, the solver counts made
before the failure and, for a non-convergence, the residual history) in
place of ``"results"``; its ``"timing"`` includes the phase that failed.

Exit codes: 0 on success, 2 when an iteration fails to converge (or the
operator degenerates mid-solve), 3 for invalid configs, domains, or data.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from .config import LmaBlock, RunConfig, canonical_json, load_config
from .convergence import convergence_study
from .coupled import (
    COUNTED,
    ProblemData,
    check_theta,
    forcing_nonpositive,
    g_from_w,
    problem_from_exact,
    solve_system,
)
from .errors import SOLVE_FAILURES, AmceError, ConfigError, IncompleteDataError
from .fixtures import fixture_names, get_fixture
from .geometry import build_domain
from .grid import Grid, ScalarField, build_grid
from .lma import LMAProblem, offdiagonal_sign_audit, solve_lma
from .ma import MAProblem, solve_ma
from .operators import COUNTS, discrete_hessian, value_and_gradient_at
from .regularity import verify
from .sections import (
    localization_scan,
    maximal_height,
    normalize_section,
    require_boundary_point,
    require_interior_point,
)

__all__ = ["main"]

_DEFAULT_FIXTURE_THETA = 0.25


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert dataclasses and numpy scalars/arrays for json.dumps.

    A non-finite float becomes None: JSON has no literal for NaN or infinity.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_csv(path: str, header: str, columns) -> None:
    """``header``, then one row per index of the equal-length ``columns``.

    Every entry is written with ``%.17g``: floats round-trip exactly and
    integers print as integers.  Each distinct entry (distinct bits, so
    ``-0.0`` and ``0.0`` stay apart) is formatted once; the body is one
    ``%s`` format over the gathered strings in row order.
    """
    with _phase("csv_write_s"):
        table = np.stack([np.asarray(c, dtype=np.float64) for c in columns], axis=1)
        distinct, where = np.unique(table.view(np.uint64), return_inverse=True)
        text = "%.17g\n" * distinct.size % tuple(distinct.view(np.float64).tolist())
        cells = np.array(text.split("\n"), dtype=object)[where.ravel()]
        row = ",".join(["%s"] * table.shape[1]) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write((row * table.shape[0]) % tuple(cells.tolist()))


def write_field_csv(path: str, field: ScalarField) -> None:
    """Dump a scalar field as ``x,y,value`` rows: nodes first, then hits."""
    grid = field.grid
    pts = np.concatenate([grid.nodes, grid.hit_points])
    vals = np.concatenate([field.values, field.hit_values])
    _write_csv(path, "x,y,value", [pts[:, 0], pts[:, 1], vals])


def read_field_csv(path: str, grid: Grid) -> ScalarField:
    """Read a :func:`write_field_csv` dump back onto a grid.

    The dump must come from the same domain and spacing: nodes, then hits,
    in grid order, so data row ``k`` is node ``k`` and then hit
    ``k - n_nodes``.  A node row is in place within :meth:`Grid.node_at`'s
    ``1e-9 max(1, h)`` times ``max(1, largest |node coordinate|)`` in each
    coordinate, and a hit row within ``1e-9`` times the latter in
    distance.  Non-finite entries, a row out of place and a row count
    other than the grid's raise IncompleteDataError naming the first such
    row.
    """
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read field csv {path}: {exc}") from exc
    except ValueError as exc:
        # loadtxt reports a ragged row by its column count, a bad token by itself
        fault = "rows of unequal length" if "number of columns" in str(exc) else exc
        raise IncompleteDataError(
            f"{path} is not a valid x,y,value table: {fault}"
        ) from exc
    if data.shape[1] != 3 or not np.isfinite(data).all():
        raise IncompleteDataError(f"{path} is not a valid x,y,value table")

    pts, vals = data[:, :2], data[:, 2]
    n = grid.n_nodes
    want = np.concatenate([grid.nodes, grid.hit_points])
    rows, k = min(len(pts), len(want)), min(len(pts), n)
    tol = 1e-9 * max(1.0, float(np.abs(grid.nodes).max(initial=1.0)))
    gap = np.abs(pts[:rows] - want[:rows])
    off = np.empty(rows + 1, dtype=bool)
    off[:k] = np.maximum(gap[:k, 0], gap[:k, 1]) > tol * max(1.0, grid.h)
    off[k:rows] = np.hypot(gap[k:, 0], gap[k:, 1]) > tol
    off[rows] = len(pts) != len(want)  # the row after the shorter of the two
    i = int(np.argmax(off))
    if off[i]:
        place = f"node {i}" if i < n else f"hit {i - n}"
        if i < rows:
            fault = (
                f"({pts[i, 0]:.17g}, {pts[i, 1]:.17g}) is out of place: the "
                f"grid's {place} is at ({want[i, 0]:.17g}, {want[i, 1]:.17g})"
            )
        elif i < len(want):
            fault = f"is missing: the dump has no row for the grid's {place}"
        else:
            fault = (
                f"({pts[i, 0]:.17g}, {pts[i, 1]:.17g}) is one row past the "
                f"grid's {n} nodes and {grid.n_hits} hits"
            )
        raise IncompleteDataError(f"{path}: row {i + 1} {fault}")
    return ScalarField(grid=grid, values=vals[:n].copy(), hit_values=vals[n:].copy())


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(_jsonable(obj)))
        fh.write("\n")


#: Wall time of each phase of the running command, in seconds, summed
#: over the phase's blocks (``csv_write_s`` over every dump).
_TIMING: dict[str, float] = {}


@contextmanager
def _phase(name: str):
    """Add the block's time to ``_TIMING[name]``, also when it raises."""
    t = time.perf_counter()
    try:
        yield
    finally:
        _TIMING[name] = _TIMING.get(name, 0.0) + time.perf_counter() - t


def _write_report(out_dir: str, command: str, cfg: RunConfig, **body) -> None:
    """``report.json``: command, canonical config, ``body`` and the phase
    times under ``"timing"``."""
    report = {"command": command, "config": cfg.canonical(), **body, "timing": _TIMING}
    _write_json(os.path.join(out_dir, "report.json"), report)


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def _make_grid(cfg: RunConfig) -> Grid:
    domain = build_domain(cfg.domain.kind, cfg.domain.params)
    with _phase("grid_s"):
        return build_grid(domain, cfg.domain.h_grid)


def _fixture_exact(cfg: RunConfig):
    theta = _DEFAULT_FIXTURE_THETA if cfg.fixture.theta is None else cfg.fixture.theta
    check_theta(theta)
    return get_fixture(cfg.fixture.name, theta=theta)


def _coupled_problem(cfg: RunConfig, grid: Grid) -> ProblemData:
    if cfg.problem is not None:
        pb = cfg.problem
        return ProblemData.from_callables(
            grid,
            pb.theta,
            f_fn=pb.f,
            phi_fn=pb.phi,
            psi_fn=pb.psi,
        )
    if cfg.fixture is not None:
        return problem_from_exact(grid, _fixture_exact(cfg))
    raise ConfigError("this command needs a 'problem' or 'fixture' config block")


def _ma_problem(cfg: RunConfig, grid: Grid) -> MAProblem:
    if cfg.ma is not None:
        return MAProblem.from_callables(
            grid,
            g_fn=cfg.ma.g,
            phi_fn=cfg.ma.phi,
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
    u, w, report = solve_system(problem, cfg.solver)
    write_field_csv(os.path.join(out_dir, "u.csv"), u)
    write_field_csv(os.path.join(out_dir, "w.csv"), w)
    results = {
        "n_nodes": grid.n_nodes,
        "n_hits": grid.n_hits,
        "solve": report,
        "sup_u": u.sup_norm(),
        "sup_w": w.sup_norm(),
        "outputs": ["u.csv", "w.csv"],
    }
    return results, 0


def _cmd_ma(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    problem = _ma_problem(cfg, grid)
    u, report = solve_ma(problem, cfg.solver)
    write_field_csv(os.path.join(out_dir, "u.csv"), u)
    results = dataclasses.asdict(report)
    results.update(
        {"n_nodes": grid.n_nodes, "n_hits": grid.n_hits, "outputs": ["u.csv"]}
    )
    return results, 0


def _cmd_lma(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    lma_cfg = cfg.lma or LmaBlock()
    if lma_cfg.u_csv is not None:
        with _phase("csv_read_s"):
            u = read_field_csv(lma_cfg.u_csv, grid)
        u_source = lma_cfg.u_csv
    elif cfg.ma is not None or cfg.fixture is not None:
        u, _ = solve_ma(_ma_problem(cfg, grid), cfg.solver)
        u_source = "ma-solve"
    else:
        raise ConfigError(
            "the lma command needs coefficients: lma.u_csv, an 'ma' block, "
            "or a 'fixture' block"
        )
    g = lma_cfg.g(grid.nodes)
    psi = lma_cfg.psi(grid.hit_points)
    problem = LMAProblem(hessian=discrete_hessian(u), g=g, psi_hits=psi)
    kept: list = []
    v, report = solve_lma(problem, tol=cfg.solver.lma_tol, kept=kept)
    write_field_csv(os.path.join(out_dir, "v.csv"), v)
    D = problem.matrix  # the operator that ``kept`` holds the factor of
    results = dataclasses.asdict(report)
    results.update(
        {
            "sign_audit": offdiagonal_sign_audit(D),
            "condition_estimate": _condition_estimate(D, kept[0]),
            "u_source": u_source,
            "n_nodes": grid.n_nodes,
            "n_hits": grid.n_hits,
            "outputs": ["v.csv"],
        }
    )
    return results, 0


def _condition_estimate(D, lu) -> float:
    """``||D||_1 ||D^-1||_1`` through ``D``'s own factor ``lu``, the first
    factor exact.

    The second is estimated from the all-ones start alone (``t=1``), so no
    random column is drawn and the estimate repeats from run to run.
    """
    from scipy.sparse.linalg import LinearOperator, onenormest

    n = D.shape[0]
    inv = LinearOperator((n, n), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="T"))
    return float(abs(D).sum(axis=0).max() * onenormest(inv, t=1))


def _cmd_sections(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    if cfg.sections is None:
        raise ConfigError("the sections command needs a 'sections' config block")
    sc = cfg.sections
    grid = _make_grid(cfg)
    # the points are checked before the solve, which they do not depend on
    if sc.boundary_point is not None:
        require_boundary_point(grid, sc.boundary_point)
    for y in sc.interior_points or []:
        require_interior_point(grid, y)
    problem = _coupled_problem(cfg, grid)
    with _phase("solve_s"):
        u, _, solve_report = solve_system(problem, cfg.solver)

    results: dict = {
        "solve": solve_report,
        "heights": sc.heights,
        "outputs": [],
    }

    if sc.boundary_point is not None:
        with _phase("boundary_scan_s"):
            scan = localization_scan(
                u, sc.boundary_point, sc.heights, min_nodes=sc.min_nodes
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
            results["boundary_scan"] = dataclasses.replace(scan, hulls=hull_files)

    if sc.interior_points is not None:
        with _phase("interior_s"):
            interior = []
            for y in sc.interior_points:
                entry: dict = {"point": [float(y[0]), float(y[1])]}
                plane = value_and_gradient_at(u, y)
                hbar, touch = maximal_height(u, y, *plane)
                entry["hbar"] = hbar
                entry["touch_point"] = list(map(float, touch))
                if sc.normalize:
                    entry["normalized"] = normalize_section(u, y, *plane)
                interior.append(entry)
            results["interior_points"] = interior

    return results, 0


def _cmd_verify(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    grid = _make_grid(cfg)
    problem = _coupled_problem(cfg, grid)
    with _phase("solve_s"):
        u, w, solve_report = solve_system(problem, cfg.solver)
    with _phase("checks_s"):
        checks = verify(
            problem, u, w, boundary_alpha=cfg.verify.boundary_alpha, seed=cfg.seed
        )
    summary = {
        "checks": checks,
        "n_pass": sum(c.status == "pass" for c in checks),
        "n_fail": sum(c.status == "fail" for c in checks),
        "n_skip": sum(c.status == "skip" for c in checks),
    }
    _write_json(os.path.join(out_dir, "verify.json"), summary)
    results = {
        "solve": solve_report,
        "verify": summary,
        "outputs": ["verify.json"],
    }
    return results, 0


def _cmd_converge(cfg: RunConfig, out_dir: str) -> tuple[dict, int]:
    if cfg.converge is None:
        raise ConfigError("the converge command needs a 'converge' config block")
    if cfg.fixture is None:
        raise ConfigError("the converge command needs a 'fixture' config block")
    domain = build_domain(cfg.domain.kind, cfg.domain.params)
    study = convergence_study(_fixture_exact(cfg), cfg.converge.h_list, domain, cfg.solver)
    keys = ["h", "n_nodes", "err_u", "err_w", "outer_iterations"]
    _write_csv(
        os.path.join(out_dir, "converge.csv"),
        ",".join(keys),
        [[getattr(row, k) for row in study.rows] for k in keys],
    )
    results = dataclasses.asdict(study)
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
    """Run one subcommand; returns its exit code.

    The objects that exist at entry, the imported modules' above all,
    outlive the command, so they are frozen out of the collector's passes
    for its duration (``gc.freeze``); cycles made by the command are still
    collected.  A caller that froze objects itself keeps its freeze as it is.
    """
    thaw = gc.get_freeze_count() == 0
    if thaw:
        gc.freeze()
    try:
        return _run(argv)
    finally:
        if thaw:
            gc.unfreeze()


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; report bad invocations
        # with the invalid-input code and let --help keep its clean exit
        return 0 if exc.code == 0 else 3

    out_dir, start = None, COUNTS.copy()
    _TIMING.clear()
    try:
        cfg = load_config(args.config, output_dir=args.out, seed=args.seed)

        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        out_dir = cfg.output_dir

        with _phase("wall_time_s"):
            results, code = _DISPATCH[args.command](cfg, out_dir)
        _write_report(out_dir, args.command, cfg, results=results)
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{args.command}: {status}, outputs in {out_dir}")
        return code
    except AmceError as exc:
        error, message = exc, str(exc)
        code = 2 if isinstance(exc, SOLVE_FAILURES) else 3
    print(f"error: {message}", file=sys.stderr)
    if out_dir is not None:
        detail = {"class": type(error).__name__, "message": message}
        detail["counts"] = {name: COUNTS[name] - start[name] for name in COUNTED}
        if getattr(error, "history", None) is not None:
            detail["history"] = error.history
        _write_report(out_dir, args.command, cfg, status=f"exit {code}", error=detail)
    return code


if __name__ == "__main__":
    sys.exit(main())
