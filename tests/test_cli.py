"""End-to-end tests of the command line interface and its file formats."""

import json
import os

import numpy as np
import pytest

from amce.cli import main, read_field_csv, write_field_csv
from amce.errors import IncompleteDataError
from amce.geometry import Disk
from amce.grid import ScalarField, build_grid

DISK16 = {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 0.0625}


def write_cfg(tmp_path, obj, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# argument handling and exit codes
# ---------------------------------------------------------------------------


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_bad_invocations_are_invalid_input(tmp_path):
    assert main([]) == 3
    assert main(["solve"]) == 3
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    assert main(["polish", "--config", cfg]) == 3


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 3


def test_unknown_config_key(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "mesh": {}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_invalid_theta_reported(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid", "theta": 0.6}}
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "theta" in capsys.readouterr().err


def test_non_finite_config_number_is_invalid_input(tmp_path, capsys):
    # json.load accepts the NaN literal; a NaN weight trace used to escape
    # the solver as an uncaught "Factor is exactly singular".
    path = tmp_path / "nan.json"
    path.write_text(
        '{"domain": {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 0.125},'
        ' "problem": {"theta": 0.25, "f": {"const": -1.0},'
        ' "phi": {"poly": {"20": 0.5, "02": 0.5}}, "psi": {"const": NaN}}}'
    )
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "problem.psi.const" in err


def test_singular_operator_is_degenerate_not_a_crash(tmp_path, capsys):
    # A tiny but finite weight trace makes the LMA matrix exactly singular
    # in floating point; splu's RuntimeError used to escape with exit 1.
    cfg = write_cfg(
        tmp_path,
        {
            "domain": {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 0.125},
            "problem": {
                "theta": 0.25,
                "f": {"gaussian": {"amplitude": -0.128, "sigma": 0.625}},
                "phi": {"poly": {"20": 0.5, "02": 0.5}},
                "psi": {"const": 1e-300},
            },
        },
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "singular" in err


def test_solve_without_problem_or_fixture(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_nonconvergence_exit_code(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "radial_quartic", "theta": 0.25},
            "solver": {"max_outer_iters": 1, "outer_tol": 1e-14},
        },
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err
    report = read_report(tmp_path / "o")
    assert report["status"] == "exit 2"
    assert report["command"] == "solve"
    assert report["config"]["solver"]["max_outer_iters"] == 1
    assert report["error"]["class"] == "NonConvergenceError"
    assert len(report["error"]["history"]) > 0
    assert "results" not in report
    assert report["timing"]["wall_time_s"] > 0.0


def test_override_validation(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out, "--seed", "-1"]) == 3
    assert main(["solve", "--config", cfg, "--out", out, "--threads", "0"]) == 3


# ---------------------------------------------------------------------------
# field CSV round trip
# ---------------------------------------------------------------------------


def test_field_csv_round_trip_exact(tmp_path):
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    rng = np.random.default_rng(3)
    field = ScalarField(
        grid, rng.standard_normal(grid.n_nodes), rng.standard_normal(grid.n_hits)
    )
    path = str(tmp_path / "f.csv")
    write_field_csv(path, field)
    pts = np.concatenate([grid.nodes, grid.hit_points])
    vals = np.concatenate([field.values, field.hit_values])
    reference = "x,y,value\n" + "".join(
        f"{p[0]:.17g},{p[1]:.17g},{v:.17g}\n" for p, v in zip(pts, vals)
    )
    with open(path) as fh:
        assert fh.read() == reference
    back = read_field_csv(path, grid)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.hit_values, field.hit_values)


def test_field_csv_wrong_grid_rejected(tmp_path):
    coarse = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    fine = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    field = ScalarField(
        coarse, np.zeros(coarse.n_nodes), np.zeros(coarse.n_hits)
    )
    path = str(tmp_path / "f.csv")
    write_field_csv(path, field)
    with pytest.raises(IncompleteDataError):
        read_field_csv(path, fine)


def test_field_csv_malformed_rejected(tmp_path):
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    path = tmp_path / "junk.csv"
    path.write_text("x,y,value\n0.0,0.0\n")
    with pytest.raises(IncompleteDataError):
        read_field_csv(str(path), grid)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_solve_command_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    report = read_report(out)
    assert set(report) == {"command", "config", "results", "timing"}
    assert report["command"] == "solve"
    assert report["timing"]["wall_time_s"] > 0.0
    assert report["results"]["solve"]["outer_iterations"] <= 2
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    u = read_field_csv(os.path.join(out, "u.csv"), grid)
    w = read_field_csv(os.path.join(out, "w.csv"), grid)
    assert np.allclose(u.values, 0.5 * (grid.nodes**2).sum(axis=1), atol=1e-8)
    assert np.allclose(w.values, 1.0, atol=1e-8)


def test_report_bytes_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    first = read_report(out)
    os.rename(os.path.join(out, "report.json"), os.path.join(out, "report1.json"))
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    second = read_report(out)
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_seed_override_lands_in_report(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    out = str(tmp_path / "o")
    assert main(["fixture", "--config", cfg, "--out", out, "--seed", "11"]) == 0
    assert read_report(out)["config"]["seed"] == 11


def test_ma_command_consistent_quadratic(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "ma": {"g": {"const": 4.0}, "phi": {"poly": {"20": 1.0, "02": 1.0}}},
        },
    )
    out = str(tmp_path / "o")
    assert main(["ma", "--config", cfg, "--out", out]) == 0
    report = read_report(out)
    assert report["results"]["iterations"] <= 2
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    u = read_field_csv(os.path.join(out, "u.csv"), grid)
    assert np.allclose(u.values, (grid.nodes**2).sum(axis=1), atol=1e-8)


def test_lma_command_from_csv(tmp_path):
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    quad = 0.5 * (grid.nodes**2).sum(axis=1)
    quad_h = 0.5 * (grid.hit_points**2).sum(axis=1)
    u_path = str(tmp_path / "u.csv")
    write_field_csv(u_path, ScalarField(grid, quad, quad_h))
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "lma": {"u_csv": u_path, "g": {"const": 0.0}, "psi": {"const": 1.0}},
        },
    )
    out = str(tmp_path / "o")
    assert main(["lma", "--config", cfg, "--out", out]) == 0
    report = read_report(out)
    assert report["results"]["u_source"] == u_path
    assert report["results"]["backward_error"] < 1e-12
    v = read_field_csv(os.path.join(out, "v.csv"), grid)
    assert np.allclose(v.values, 1.0, atol=1e-10)


def test_sections_command_interior_point(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid"},
            "sections": {"interior_points": [[0.0, 0.0]]},
        },
    )
    out = str(tmp_path / "o")
    assert main(["sections", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    pt = results["interior_points"][0]
    assert pt["hbar"] == pytest.approx(0.5, rel=1e-6)
    assert np.hypot(*pt["touch_point"]) == pytest.approx(1.0, abs=1e-2)


def test_sections_command_boundary_scan(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid_r2"},
            "sections": {"boundary_point": [0.0, -1.0], "heights": [0.125, 0.0625]},
        },
    )
    out = str(tmp_path / "o")
    assert main(["sections", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    with open(os.path.join(out, "sections.csv")) as fh:
        header = fh.readline().strip()
        rows = [line for line in fh if line.strip()]
    assert header == "h,tau,vol_ratio,k_inner,k_outer"
    kept = [r for r in results["boundary_scan"]["rows"] if not r["skipped"]]
    assert len(rows) == len(kept)
    for fname in results["outputs"]:
        assert os.path.exists(os.path.join(out, fname))
    hulls = [f for f in results["outputs"] if f.startswith("hull_")]
    assert len(hulls) == len(kept)


def test_verify_command_writes_battery(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"domain": DISK16, "fixture": {"name": "radial_mild", "theta": 0.25}},
    )
    out = str(tmp_path / "o")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "verify.json")) as fh:
        battery = json.load(fh)
    assert set(battery) == {"checks", "n_pass", "n_fail", "n_skip"}
    assert battery["n_pass"] + battery["n_fail"] + battery["n_skip"] == 7
    for check in battery["checks"]:
        assert check["status"] in {"pass", "fail", "skip"}
        assert isinstance(check["margin"], float)
    names = [c["name"] for c in battery["checks"]]
    assert names[0] == "min_principle"


def test_converge_command_table(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "radial_mild", "theta": 0.25},
            "converge": {"h_list": [0.125, 0.0625]},
        },
    )
    out = str(tmp_path / "o")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    assert not results["partial"]
    assert results["orders_u"][0] > 1.5
    with open(os.path.join(out, "converge.csv")) as fh:
        header = fh.readline().strip()
        rows = [line for line in fh if line.strip()]
    assert header == "h,n_nodes,err_u,err_w,outer_iterations"
    assert len(rows) == 2
    assert rows == [
        f"{r['h']:.17g},{r['n_nodes']},{r['err_u']:.17g},{r['err_w']:.17g},"
        f"{r['outer_iterations']}\n"
        for r in results["rows"]
    ]


def test_fixture_command_dumps_exact_fields(tmp_path):
    cfg = write_cfg(
        tmp_path, {"domain": DISK16, "fixture": {"name": "radial_mild", "theta": 0.25}}
    )
    out = str(tmp_path / "o")
    assert main(["fixture", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["fixture"]["forcing_route_gap"] < 1e-7
    assert results["fixture"]["f_nonpositive"] is True
    for fname in ("u_exact.csv", "w_exact.csv", "f_exact.csv"):
        assert os.path.exists(os.path.join(out, fname))


def test_fixture_command_lists_names(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16})
    out = str(tmp_path / "o")
    assert main(["fixture", "--config", cfg, "--out", out]) == 0
    names = read_report(out)["results"]["available"]
    assert "paraboloid" in names and "radial_quartic" in names
