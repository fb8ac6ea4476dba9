"""End-to-end tests of the command line interface and its file formats."""

import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from amce import cli
from amce.cli import main, read_field_csv, write_field_csv
from amce.errors import SOLVE_FAILURES, AmceError, IncompleteDataError
from amce.geometry import Disk, Ellipse
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


@pytest.mark.parametrize(
    "domain",
    [
        {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 1e-300},
        {"kind": "disk", "params": {"radius": 1e300}, "h_grid": 0.0625},
        {"kind": "ellipse", "params": {"a": 1e300, "b": 1.0}, "h_grid": 0.0625},
        {"kind": "disk", "params": {"center": [1e300, 0.0]}, "h_grid": 0.0625},
        {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 1e-5},
    ],
    ids=["h_1e-300", "radius_1e300", "ellipse_a_1e300", "center_1e300", "h_1e-5"],
)
def test_lattice_beyond_int64_is_invalid_input(tmp_path, capsys, domain):
    # These used to fail in build_grid's np.arange, or to build an
    # object-dtype lattice, with a traceback and exit 1; h = 1e-5 fits
    # int64 but its box would take hundreds of GiB.
    cfg = write_cfg(tmp_path, {"domain": domain, "fixture": {"name": "paraboloid"}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert read_report(out)["error"]["class"] == "InvalidDomainError"


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


def test_underflowing_determinant_target_is_degenerate(tmp_path, capsys):
    """A huge weight trace underflows w^(1/(theta-1)) to 0 after the
    Laplacian factor is made: exit 2 naming the weight, not invalid input."""
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK8,
            "problem": {
                "theta": 0.25,
                "f": {"const": 0.0},
                "phi": {"const": 0.0},
                "psi": {"const": 1e300},
            },
        },
    )
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    assert "weight is too large" in capsys.readouterr().err
    error = read_report(out)["error"]
    assert error["class"] == "DegenerateOperatorError"
    assert error["counts"]["factorizations"] == 1


def test_subnormal_determinant_target_warns_of_nothing(tmp_path, capsys):
    """A weight trace of 1e240 leaves a subnormal determinant target, and
    the determinant solve's round-off floor would be 0 there; clamped at
    the smallest normal float, the backward error is no 0/0: exit 2 with
    no RuntimeWarning."""
    import warnings

    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK8,
            "problem": {
                "theta": 0.25,
                "f": {"const": 0.0},
                "phi": {"const": 0.0},
                "psi": {"const": 1e240},
            },
        },
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert status == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "Traceback" not in err


POLE = {"abs_pow": {"power": -1}}  # +inf on the axis x = 0
QUAD = {"poly": {"20": 0.5, "02": 0.5}}
DISK8 = {"kind": "disk", "params": {"radius": 1.0}, "h_grid": 0.125}


@pytest.mark.parametrize(
    "command, blocks",
    [
        ("ma", {"ma": {"g": POLE}}),
        (
            "solve",
            {"problem": {"theta": 0.25, "f": POLE, "phi": QUAD, "psi": {"const": 1.0}}},
        ),
        (
            "solve",
            {"problem": {"theta": 0.25, "f": {"const": -1.0}, "phi": POLE, "psi": {"const": 1.0}}},
        ),
        ("lma", {"fixture": {"name": "paraboloid"}, "lma": {"g": POLE}}),
    ],
    ids=["ma-g", "solve-f", "solve-phi", "lma-g"],
)
def test_non_finite_sampled_data_is_invalid_input(tmp_path, capsys, command, blocks):
    # A pole of the data used to give a NaN solution with exit 0 (ma) or a
    # "backward error nan" / singular factor with exit 2.
    cfg = write_cfg(tmp_path, {"domain": DISK8, **blocks})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "non-finite" in err
    assert read_report(out)["error"]["class"] == "InvalidProblemError"
    assert not (out / "u.csv").exists()


def test_ma_fixture_theta_outside_window_is_invalid_input(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, {"domain": DISK8, "fixture": {"name": "paraboloid", "theta": 0.6}}
    )
    assert main(["ma", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [1000.0, 0.75])
def test_fixture_command_theta_outside_window_is_invalid_input(tmp_path, capsys, theta):
    cfg = write_cfg(
        tmp_path, {"domain": DISK8, "fixture": {"name": "radial_mild", "theta": theta}}
    )
    out = tmp_path / "o"
    assert main(["fixture", "--config", cfg, "--out", str(out)]) == 3
    assert "theta" in capsys.readouterr().err
    assert not (out / "u_exact.csv").exists()


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
    # the Laplacian's factor alone: the sweep's determinant solve takes no
    # Newton step, and its linear step, a multiple of the Laplacian, solves
    # through that factor; 4 Poisson solves (two starts, each refined once),
    # then the linear step's first solve and 3 minimal-residual passes
    assert report["error"]["counts"] == {
        "newton_iterations_total": 0,
        "factorizations": 1,
        "coupled_newton_steps": 0,
        "krylov_iterations_total": 0,
        "backtracks_total": 0,
        "pivoting_refactors": 0,
        "lu_solves": 8,
    }
    assert "results" not in report
    assert report["timing"]["wall_time_s"] > 0.0


def _package_errors(cls=AmceError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _package_errors(sub)


@pytest.mark.parametrize(
    "error", sorted(set(_package_errors()), key=lambda c: c.__name__),
    ids=lambda c: c.__name__,
)
def test_every_package_error_keeps_the_exit_code_contract(
    tmp_path, capsys, monkeypatch, error
):
    """A package error raised inside a command exits 2 when it is a
    non-convergence or a degenerate operator and 3 otherwise, without a
    traceback, and the failed run's report names the error class."""

    def fail(cfg, out_dir):
        raise error("injected failure")

    monkeypatch.setitem(cli._DISPATCH, "fixture", fail)
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    code = main(["fixture", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == (2 if error in SOLVE_FAILURES else 3)
    assert "Traceback" not in capsys.readouterr().err
    report = read_report(tmp_path / "o")
    assert report["status"] == f"exit {code}"
    assert report["error"]["class"] == error.__name__


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DISK8 = dict(DISK16, h_grid=0.125)


@pytest.mark.parametrize(
    "command, config, status",
    [
        ("fixture", {"domain": DISK8, "fixture": {"name": "paraboloid"}}, 0),
        (
            "solve",
            {
                "domain": DISK8,
                "fixture": {"name": "radial_quartic", "theta": 0.25},
                "solver": {"max_outer_iters": 1, "outer_tol": 1e-14},
            },
            2,
        ),
        ("solve", {"domain": DISK8, "mesh": {}}, 3),
    ],
    ids=["ok", "nonconvergence", "unknown_key"],
)
def test_process_exit_status(tmp_path, command, config, status):
    """``python -m amce.cli`` hands main's code to the process exit status."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    cfg = write_cfg(tmp_path, config)
    proc = subprocess.run(
        [sys.executable, "-m", "amce.cli", command, "--config", cfg,
         "--out", str(tmp_path / "o")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr


def _unusable_out(tmp_path, case):
    """An ``--out`` that names no directory that can be made."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return {"empty": "", "file": str(blocker), "under_file": str(blocker / "sub")}[case]


UNUSABLE_OUT = ["empty", "file", "under_file"]


@pytest.mark.parametrize("case", UNUSABLE_OUT)
def test_unusable_out_is_invalid_input(tmp_path, capsys, case):
    cfg = write_cfg(tmp_path, {"domain": DISK8, "fixture": {"name": "paraboloid"}})
    assert main(["fixture", "--config", cfg, "--out", _unusable_out(tmp_path, case)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case", UNUSABLE_OUT)
def test_unusable_out_process_exit_status(tmp_path, case):
    env = dict(os.environ, PYTHONPATH=_SRC)
    cfg = write_cfg(tmp_path, {"domain": DISK8, "fixture": {"name": "paraboloid"}})
    proc = subprocess.run(
        [sys.executable, "-m", "amce.cli", "fixture", "--config", cfg,
         "--out", _unusable_out(tmp_path, case)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


ELLIPSE = {"kind": "ellipse", "params": {"a": 1.2, "b": 0.9}}


@pytest.mark.parametrize("h", [0.02, 0.03, 0.06, 0.12])
def test_lattice_point_on_the_boundary_is_not_a_node(tmp_path, capsys, h):
    """On this ellipse (-0.72, -0.72) has F = -1.1e-16: kept as a node with a
    round-off arm, it made exact quadratic data exit 2, not convex."""
    cfg = write_cfg(
        tmp_path,
        {"domain": dict(ELLIPSE, h_grid=h), "fixture": {"name": "paraboloid"}},
    )
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", [10.0, 20.0])
def test_nonpositive_weight_is_nonconvergence(tmp_path, capsys, value):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "problem": {
                "theta": 0.25,
                "f": {"const": value},
                "phi": {"poly": {"20": 0.5, "02": 0.5}},
                "psi": {"const": 1.0},
            },
            "solver": {"relaxation": 0.5},
        },
    )
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    error = read_report(out)["error"]
    assert error["class"] == "NonConvergenceError"
    assert "weight is not positive" in error["message"]
    assert 1 <= len(error["history"]) <= 3


@pytest.mark.parametrize(
    "command, blocks",
    [
        ("lma", {"fixture": {"name": "radial_mild"}, "lma": {"g": {"const": -1.0}}}),
        ("ma", {"fixture": {"name": "radial_mild"}}),
    ],
    ids=["lma", "ma"],
)
def test_repeated_runs_write_identical_reports(tmp_path, command, blocks):
    """Reports repeat byte for byte apart from "timing"; the condition
    estimate of ``lma`` used to vary with numpy's global random state."""
    cfg = write_cfg(tmp_path, dict(blocks, domain=DISK16))
    texts = []
    for k in range(3):
        out = str(tmp_path / f"o{k}")
        assert main([command, "--config", cfg, "--out", out]) == 0
        report = read_report(out)
        report.pop("timing")
        report["config"].pop("output_dir", None)
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1] == texts[2]


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


def test_csv_bytes_match_the_per_row_formatter(tmp_path):
    """One ``%.17g`` format over every entry writes the bytes that
    ``{:.17g}`` row by row wrote: on integers, signed zeros, NaN, the
    infinities, subnormals and 2^60."""
    from amce.cli import _write_csv

    specials = [0, 7, -3, 2**60, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                -2.2250738585072014e-309, 0.1, 1 / 3, 1e300]
    columns = [np.arange(len(specials)), specials, np.asarray(specials[::-1], dtype=float)]
    path = str(tmp_path / "t.csv")
    _write_csv(path, "i,a,b", columns)
    reference = "i,a,b\n" + "".join(
        "{:.17g},{:.17g},{:.17g}\n".format(*row)
        for row in zip(*(np.asarray(c).tolist() for c in columns))
    )
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == reference
    _write_csv(path, "x,y", [[], []])
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == "x,y\n"


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


def test_field_csv_non_numeric_token_rejected(tmp_path, capsys):
    """A bad token is reported as itself, not as a ragged table."""
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    path = tmp_path / "token.csv"
    path.write_text("x,y,value\n0.0,0.0,1.0\n0.0,abc,1.0\n")
    with pytest.raises(IncompleteDataError, match="'abc'") as info:
        read_field_csv(str(path), grid)
    assert "unequal length" not in str(info.value)
    cfg = write_cfg(tmp_path, {"domain": DISK8, "lma": {"u_csv": str(path)}})
    assert main(["lma", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_field_csv_ragged_rows_rejected(tmp_path, capsys):
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    path = tmp_path / "ragged.csv"
    path.write_text("x,y,value\n0.0,0.0,1.0\n0.0,0.125\n0.125,0.0,1.0\n")
    with pytest.raises(IncompleteDataError, match="unequal length"):
        read_field_csv(str(path), grid)
    cfg = write_cfg(tmp_path, {"domain": DISK8, "lma": {"u_csv": str(path)}})
    assert main(["lma", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _reference_write_csv(path, header, columns):
    """The writer that formatted every entry of the table anew: one
    ``%.17g`` format over the entries in row order."""
    cols = [np.asarray(c).tolist() for c in columns]
    flat = tuple(chain.from_iterable(zip(*cols)))
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write((row * len(cols[0])) % flat)


def _same_bytes(path_a, path_b):
    with open(path_a, "rb") as a, open(path_b, "rb") as b:
        return a.read() == b.read()


@pytest.mark.parametrize("h", [1 / 16, 1 / 64, 1 / 128], ids=["h16", "h64", "h128"])
def test_field_dump_bytes_match_the_reference_writer(tmp_path, reference_domain, h):
    grid = build_grid(reference_domain, h)
    pts = np.concatenate([grid.nodes, grid.hit_points])
    # a smooth field repeats values across symmetric nodes; noise does not
    smooth = ScalarField.from_callable(grid, lambda p: 0.5 * (p**2).sum(axis=1))
    noise = np.random.default_rng(7).standard_normal(len(pts))
    for k, vals in enumerate(
        [np.concatenate([smooth.values, smooth.hit_values]), noise]
    ):
        field = ScalarField(grid, vals[: grid.n_nodes], vals[grid.n_nodes :])
        path, ref = str(tmp_path / f"f{k}.csv"), str(tmp_path / f"r{k}.csv")
        write_field_csv(path, field)
        _reference_write_csv(ref, "x,y,value", [pts[:, 0], pts[:, 1], vals])
        assert _same_bytes(path, ref)


_SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-309,
    2.0**53 + 2.0, -(2.0**60), 0.1, 1.0, 1e300,
]
_SPECIAL_INTS = [0, 1, -1, 2**53 + 1, 2**62 + 3, -(2**63), 2**63 - 1]


@st.composite
def _tables(draw):
    """Columns of floats or int64s, zero, one or more rows.  Each column
    picks its entries from the special values and a few drawn ones, so
    entries repeat within and across columns."""
    n_rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pool = _SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=4))
            dtype = np.float64
        else:
            pool = _SPECIAL_INTS + draw(
                st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4)
            )
            dtype = np.int64
        picks = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns.append(np.asarray(picks, dtype=dtype))
    return columns


@given(_tables())
def test_csv_bytes_match_the_reference_writer_on_any_table(columns):
    from amce.cli import _write_csv

    header = ",".join(f"c{k}" for k in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = os.path.join(tmp, "t.csv"), os.path.join(tmp, "r.csv")
        _write_csv(path, header, columns)
        _reference_write_csv(ref, header, columns)
        assert _same_bytes(path, ref)


ELLIPSE06 = {"kind": "ellipse", "params": {"a": 1.2, "b": 0.9}, "h_grid": 0.06}


def test_field_csv_round_trip_with_coincident_hits(tmp_path):
    """Hits at one point are read back in row order, so each keeps its own
    value bit for bit."""
    grid = build_grid(Ellipse(a=1.2, b=0.9), 0.06)
    _, counts = np.unique(grid.hit_points, axis=0, return_counts=True)
    assert counts.max() > 1
    rng = np.random.default_rng(5)
    field = ScalarField(
        grid, rng.standard_normal(grid.n_nodes), rng.standard_normal(grid.n_hits)
    )
    path = str(tmp_path / "f.csv")
    write_field_csv(path, field)
    back = read_field_csv(path, grid)
    assert np.array_equal(back.values, field.values)
    assert np.array_equal(back.hit_values, field.hit_values)


def test_lma_reads_back_the_fixture_dump_on_the_ellipse(tmp_path):
    cfg = write_cfg(
        tmp_path, {"domain": ELLIPSE06, "fixture": {"name": "paraboloid"}}
    )
    dump = str(tmp_path / "fixture")
    assert main(["fixture", "--config", cfg, "--out", dump]) == 0
    u_csv = os.path.join(dump, "u_exact.csv")
    cfg = write_cfg(
        tmp_path, {"domain": ELLIPSE06, "lma": {"u_csv": u_csv}}, name="lma.json"
    )
    out = str(tmp_path / "lma")
    assert main(["lma", "--config", cfg, "--out", out]) == 0
    _assert_phase_times(out, "grid_s", "csv_read_s", "csv_write_s")
    _assert_phase_times(dump, "grid_s", "csv_write_s")


def test_lma_command_builds_only_the_second_differences(tmp_path, monkeypatch):
    """``amce lma`` reads ``dxx``, ``dxy`` and ``dyy``; the first
    differences and the Laplacian stay unbuilt."""
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "radial_mild"}})
    dump = str(tmp_path / "fixture")
    assert main(["fixture", "--config", cfg, "--out", dump]) == 0
    grids = []

    def build_and_keep(domain, h):
        grids.append(build_grid(domain, h))
        return grids[-1]

    monkeypatch.setattr(cli, "build_grid", build_and_keep)
    u_csv = os.path.join(dump, "u_exact.csv")
    cfg = write_cfg(tmp_path, {"domain": DISK16, "lma": {"u_csv": u_csv}}, "lma.json")
    assert main(["lma", "--config", cfg, "--out", str(tmp_path / "lma")]) == 0
    (grid,) = grids
    assert sorted(grid._ops) == ["dxx", "dxy", "dyy"]


def _with_copy(lines, k):
    """``lines`` with data row ``k`` (``lines[k]``) listed twice, the copy
    carrying the value 999."""
    x, y, _ = lines[k].split(",")
    return lines[: k + 1] + [f"{x},{y},999\n"] + lines[k + 1 :]


def _reject_dump(tmp_path, capsys, grid, edit, row, fault):
    """A dump of ``grid`` whose lines ``edit`` changes (``lines[k]`` is data
    row ``k``) is rejected with ``fault`` at data row ``row``, by
    ``read_field_csv`` and by ``amce lma`` with exit 3."""
    field = ScalarField(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_hits))
    path, bad = str(tmp_path / "f.csv"), str(tmp_path / "bad.csv")
    write_field_csv(path, field)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(bad, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))
    with pytest.raises(IncompleteDataError, match=f"row {row} .*{fault}"):
        read_field_csv(bad, grid)
    cfg = write_cfg(tmp_path, {"domain": DISK8, "lma": {"u_csv": bad}})
    out = str(tmp_path / "o")
    assert main(["lma", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and fault in err
    assert read_report(out)["error"]["class"] == "IncompleteDataError"
    _assert_phase_times(out, "grid_s", "csv_read_s")


@pytest.mark.parametrize("where", ["node", "hit", "last"])
def test_field_csv_repeated_row_rejected(tmp_path, capsys, where):
    """A node listed twice, or a hit point with one row more than it has
    hits, used to be read with the last row winning; the last row listed
    twice is one row past the grid's last hit."""
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    line = {"node": 5, "hit": grid.n_nodes + 3, "last": grid.n_nodes + grid.n_hits}
    fault = "one row past" if where == "last" else "out of place"
    copy = lambda lines: _with_copy(lines, line[where])
    _reject_dump(tmp_path, capsys, grid, copy, line[where] + 1, fault)


@pytest.mark.parametrize("where", ["node", "hit"])
def test_field_csv_swapped_rows_rejected(tmp_path, capsys, where):
    """Two rows swapped, each still at a point of the grid: the first is
    out of place."""
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    first = 7 if where == "node" else grid.n_nodes + 5
    swap = lambda L: L[:first] + [L[first + 2], L[first + 1], L[first]] + L[first + 3 :]
    _reject_dump(tmp_path, capsys, grid, swap, first, "out of place")


@pytest.mark.parametrize(
    "where, fault",
    [("node", "out of place"), ("last", "is missing")],
)
def test_field_csv_dropped_row_rejected(tmp_path, capsys, where, fault):
    """A row dropped puts the next one out of place; the last row dropped
    leaves the grid's last hit with no row."""
    grid = build_grid(Disk(radius=1.0), 1.0 / 8.0)
    line = 9 if where == "node" else grid.n_nodes + grid.n_hits
    drop = lambda lines: lines[:line] + lines[line + 1 :]
    _reject_dump(tmp_path, capsys, grid, drop, line, fault)


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("fixture", {"domain": DISK16, "fixture": {"name": "paraboloid"}}, 0),
        (
            "solve",
            {
                "domain": DISK16,
                "fixture": {"name": "radial_quartic"},
                "solver": {"max_outer_iters": 1, "outer_tol": 1e-14},
            },
            2,
        ),
        ("fixture", {"domain": DISK16, "mesh": {}}, 3),
    ],
    ids=["exit0", "exit2", "exit3"],
)
def test_main_freezes_the_heap_only_while_it_runs(
    tmp_path, monkeypatch, command, config, code
):
    """The objects that exist at entry are frozen out of the collector
    during the command and thawed on every exit."""
    frozen = []
    run = cli._DISPATCH[command]

    def run_and_count(*args):
        frozen.append(gc.get_freeze_count())
        return run(*args)

    monkeypatch.setitem(cli._DISPATCH, command, run_and_count)
    assert gc.get_freeze_count() == 0
    cfg = write_cfg(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert gc.get_freeze_count() == 0
    assert all(n > 0 for n in frozen) and len(frozen) == (code != 3)


def test_main_keeps_the_callers_own_freeze(tmp_path):
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "paraboloid"}})
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert main(["fixture", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        # neither thawed nor frozen more; frozen objects that died left it
        assert 0 < gc.get_freeze_count() <= before
    finally:
        gc.unfreeze()


def test_phase_times_add_up(monkeypatch):
    """Each block of a phase adds its time to the phase's entry."""
    monkeypatch.setattr(cli, "_TIMING", {"csv_write_s": 1.0})
    with cli._phase("csv_write_s"):
        pass
    assert cli._TIMING["csv_write_s"] > 1.0


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


def _patch_symmetric_factor(monkeypatch, modules, replace):
    """Give the first symmetric-mode factorization in ``modules`` to ``replace``.

    Every other call, the default-pivoting retry included, is SciPy's own.
    """
    from scipy.sparse.linalg import splu

    calls = []

    def patched(A, **kwargs):
        calls.append(bool(kwargs))
        if kwargs and calls.count(True) == 1:
            return replace(splu, A, **kwargs)
        return splu(A, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, "splu", patched)
    return calls


def _raise_singular(splu, A, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _factor_of_diagonal(splu, A, **kwargs):
    # the factor of A's diagonal alone: eight minimal-residual passes through
    # it leave the backward error far above lma_tol
    return splu(sp.diags(A.diagonal()).tocsc(), **kwargs)


def test_symmetric_factor_that_raises_is_refactored_once(tmp_path, monkeypatch):
    """The raise is retried with partial pivoting; both factors count.

    The unpatched solve makes 2 factors: the Laplacian's, through which
    the damped sweep's linear step solves by minimal-residual passes and
    the first Newton steps run GMRES until one takes more than
    ``KRYLOV_REFACTOR_ITERATIONS``, and then the next Newton step's own,
    which serves the later steps and the polish.  The patched one makes
    3: the Laplacian's retry is one more, and its partial-pivoting factor
    serves the same steps the same way, so the Newton step's own factor
    is again a symmetric-mode one.
    """
    import amce.coupled
    import amce.lma
    import amce.ma
    import amce.operators

    cfg = write_cfg(
        tmp_path, {"domain": DISK16, "fixture": {"name": "radial_quartic", "theta": 0.25}}
    )
    ref = str(tmp_path / "ref")
    assert main(["solve", "--config", cfg, "--out", ref]) == 0
    modules = [amce.operators, amce.ma, amce.lma, amce.coupled]
    calls = _patch_symmetric_factor(monkeypatch, modules, _raise_singular)
    out = str(tmp_path / "o")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    solve = read_report(out)["results"]["solve"]
    assert solve["pivoting_refactors"] == 1
    assert solve["factorizations"] == len(calls) == 3
    assert calls == [True, False, True]
    expected = read_report(ref)["results"]["solve"]
    assert expected["pivoting_refactors"] == 0
    assert expected["factorizations"] == 2
    assert solve["outer_iterations"] == expected["outer_iterations"]
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    for name in ("u.csv", "w.csv"):
        got = read_field_csv(os.path.join(out, name), grid)
        want = read_field_csv(os.path.join(ref, name), grid)
        assert np.abs(got.values - want.values).max() < 1e-12


def test_lma_factor_failing_backward_error_is_refactored_once(tmp_path, monkeypatch):
    """A symmetric-mode factor whose solve misses ``lma_tol`` is replaced by
    one with partial pivoting, and the tolerance judges that solve."""
    import amce.lma

    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid"},
            "lma": {"g": {"const": -1.0}, "psi": {"const": 1.0}},
        },
    )
    ref = str(tmp_path / "ref")
    assert main(["lma", "--config", cfg, "--out", ref]) == 0
    calls = _patch_symmetric_factor(monkeypatch, [amce.lma], _factor_of_diagonal)
    out = str(tmp_path / "o")
    assert main(["lma", "--config", cfg, "--out", out]) == 0
    assert calls == [True, False]
    results = read_report(out)["results"]
    assert results["pivoting_refactors"] == 1
    assert results["backward_error"] <= 1e-10
    assert read_report(ref)["results"]["pivoting_refactors"] == 0
    grid = build_grid(Disk(radius=1.0), 1.0 / 16.0)
    got = read_field_csv(os.path.join(out, "v.csv"), grid)
    want = read_field_csv(os.path.join(ref, "v.csv"), grid)
    assert np.abs(got.values - want.values).max() < 1e-12


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


def test_ma_command_reports_its_krylov_iterations(tmp_path):
    """``amce ma`` factors its first step's matrix and solves the later
    steps by GMRES through it; the report counts those GMRES iterations."""
    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "sheared_half"}})
    out = str(tmp_path / "o")
    assert main(["ma", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    assert results["iterations"] == 4
    assert results["krylov_iterations"] == 6
    assert results["pivoting_refactors"] == 0


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
    assert report["results"]["condition_estimate"] > 1.0
    assert "sign_audit" in report["results"]
    v = read_field_csv(os.path.join(out, "v.csv"), grid)
    assert np.allclose(v.values, 1.0, atol=1e-10)


def test_lma_condition_estimate_comes_from_the_operators_own_factor(tmp_path):
    """``amce lma`` reports the audit and the condition estimate of the
    operator it solved, the estimate through that operator's own factor:
    bit for bit a fresh factor's, and within the exact ``cond_1`` of the
    dense inverse (an estimate from below)."""
    from scipy.sparse.linalg import splu

    from amce.lma import assemble_lma, offdiagonal_sign_audit
    from amce.operators import discrete_hessian, factor_lu

    cfg = write_cfg(tmp_path, {"domain": DISK16, "fixture": {"name": "radial_mild"}})
    dump = str(tmp_path / "fixture")
    assert main(["fixture", "--config", cfg, "--out", dump]) == 0
    u_csv = os.path.join(dump, "u_exact.csv")
    cfg = write_cfg(tmp_path, {"domain": DISK16, "lma": {"u_csv": u_csv}}, "lma.json")
    out = str(tmp_path / "lma")
    assert main(["lma", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]

    grid = build_grid(Disk(radius=1.0), DISK16["h_grid"])
    D = assemble_lma(discrete_hessian(read_field_csv(u_csv, grid)))
    assert results["sign_audit"] == offdiagonal_sign_audit(D)
    own = cli._condition_estimate(D, factor_lu(splu, D, grid))
    assert results["condition_estimate"] == own
    exact = np.abs(D.toarray()).sum(axis=0).max() * np.abs(
        np.linalg.inv(D.toarray())
    ).sum(axis=0).max()
    assert exact / 3.0 <= own <= exact * (1.0 + 1e-12)


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
    _assert_phase_times(out, "grid_s", "solve_s", "interior_s")


def test_sections_takes_each_interior_plane_once(tmp_path, monkeypatch):
    """With ``normalize``, ``amce sections`` takes the supporting plane of
    each interior point once, at a node and off the nodes: its maximal
    height and its normalized section share it."""
    import amce.sections
    from amce.operators import value_and_gradient_at

    planes = []

    def counted(u, point):
        planes.append([float(t) for t in point])
        return value_and_gradient_at(u, point)

    for module in (cli, amce.sections):
        monkeypatch.setattr(module, "value_and_gradient_at", counted)
    points = [[0.0, 0.0], [0.1, 0.05]]
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "sheared_half"},
            "sections": {"interior_points": points, "normalize": True},
        },
    )
    out = str(tmp_path / "o")
    assert main(["sections", "--config", cfg, "--out", out]) == 0
    assert planes == points
    assert all("normalized" in e for e in read_report(out)["results"]["interior_points"])


def test_sections_command_boundary_scan(tmp_path):
    """At h = 1/16 on two heights, and at h = 1/32 on the default four,
    every height keeps its section, each with a hull dump, and the slide
    fit is finite."""
    for h_grid, heights in ((0.0625, [0.125, 0.0625]), (0.03125, None)):
        sections = {"boundary_point": [0.0, -1.0]}
        if heights is not None:
            sections["heights"] = heights
        cfg = write_cfg(
            tmp_path,
            {
                "domain": dict(DISK16, h_grid=h_grid),
                "fixture": {"name": "paraboloid_r2"},
                "sections": sections,
            },
        )
        out = str(tmp_path / f"o{h_grid}")
        assert main(["sections", "--config", cfg, "--out", out]) == 0
        results = read_report(out)["results"]
        scan = results["boundary_scan"]
        with open(os.path.join(out, "sections.csv")) as fh:
            header = fh.readline().strip()
            rows = [line for line in fh if line.strip()]
        assert header == "h,tau,vol_ratio,k_inner,k_outer"
        assert [r["h"] for r in scan["rows"]] == (heights or [0.125, 0.0625, 0.03125, 0.015625])
        assert not any(r["skipped"] for r in scan["rows"])
        assert len(rows) == len(scan["rows"])
        for fname in results["outputs"]:
            assert os.path.exists(os.path.join(out, fname))
        hulls = [f for f in os.listdir(out) if f.startswith("hull_")]
        assert len(hulls) == len(scan["rows"])
        assert np.isfinite([scan["slide_c0"], scan["slide_c1"], scan["slide_r2"]]).all()
        _assert_phase_times(out, "grid_s", "solve_s", "boundary_scan_s", "csv_write_s")


def _strict_json(path):
    """The JSON file at ``path``; a NaN or infinity literal raises."""

    def refuse(literal):
        raise ValueError(f"{path} holds the non-JSON literal {literal}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_sections_report_of_a_skipped_row_is_strict_json(tmp_path):
    """At h = 1/16 the section of height 0.001 has too few nodes and is
    skipped, and one kept row gives no slide fit.  Those values do not
    exist, and the report writes them as null, not as NaN."""
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid_r2"},
            "sections": {"boundary_point": [0.0, -1.0], "heights": [0.125, 0.001]},
        },
    )
    out = str(tmp_path / "o")
    with pytest.warns(UserWarning, match="skipping row"):
        assert main(["sections", "--config", cfg, "--out", out]) == 0
    scan = _strict_json(os.path.join(out, "report.json"))["results"]["boundary_scan"]
    assert [r["skipped"] for r in scan["rows"]] == [False, True]
    fit_keys = ("tau", "vol_ratio", "k_inner", "k_outer", "norm_A")
    assert all(scan["rows"][1][k] is None for k in fit_keys)
    assert all(scan["rows"][0][k] is not None for k in fit_keys)
    assert scan["slide_c0"] is None and scan["slide_c1"] is None
    assert scan["slide_r2"] is None


def _assert_phase_times(out, *phases):
    """``timing`` holds exactly the wall time and these phases, each
    positive and within the wall time.  The CSV phases, each summed over
    the command's dumps, add up to at most the wall time, and so do the
    command's own phases."""
    timing = read_report(out)["timing"]
    assert set(timing) == {"wall_time_s", *phases}
    for phase in phases:
        assert 0.0 < timing[phase] <= timing["wall_time_s"]
    csv = sum(timing[p] for p in phases if p.startswith("csv_"))
    steps = sum(timing[p] for p in phases if not p.startswith("csv_"))
    assert csv <= timing["wall_time_s"] and steps <= timing["wall_time_s"]


@pytest.mark.parametrize(
    "point", [[0.0, 0.0], [0.0, -0.5]], ids=["center", "interior"]
)
def test_sections_off_boundary_point_is_invalid_input(
    tmp_path, capsys, monkeypatch, point
):
    # At the center grad F = 0, so the normal was NaN and the fit crashed
    # with exit 1; an interior point used to exit 0 with a "boundary" scan.
    # The point is refused before the coupled solve.
    monkeypatch.setattr(cli, "solve_system", _no_solve)
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid_r2"},
            "sections": {"boundary_point": point, "heights": [0.125]},
        },
    )
    out = str(tmp_path / "o")
    assert main(["sections", "--config", cfg, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert read_report(out)["error"]["class"] == "InvalidProblemError"


def _no_solve(*args, **kwargs):
    raise AssertionError("the coupled solve ran")


def test_failed_phase_keeps_its_time(tmp_path):
    """A verify whose solve raises reports the solve's time and counts."""
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "radial_quartic", "theta": 0.25},
            "solver": {"max_outer_iters": 1, "outer_tol": 1e-14},
        },
    )
    out = tmp_path / "o"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    report = read_report(out)
    # the Laplacian's, which also serves the sweep's linear step
    assert report["error"]["counts"]["factorizations"] == 1
    _assert_phase_times(out, "grid_s", "solve_s")


def test_sections_interior_point_near_the_boundary_is_refused_before_the_solve(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "solve_system", _no_solve)
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "paraboloid"},
            "sections": {"interior_points": [[0.0, 0.0], [0.999, 0.0]]},
        },
    )
    out = str(tmp_path / "o")
    assert main(["sections", "--config", cfg, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert read_report(out)["error"]["class"] == "TooCloseToBoundaryError"


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
    _assert_phase_times(out, "grid_s", "solve_s", "checks_s")


def test_converge_command_table(tmp_path):
    for name in ("radial_mild", "radial_quartic"):
        cfg = write_cfg(
            tmp_path,
            {
                "domain": DISK16,
                "fixture": {"name": name, "theta": 0.25},
                "converge": {"h_list": [0.125, 0.0625]},
            },
        )
        out = str(tmp_path / name)
        assert main(["converge", "--config", cfg, "--out", out]) == 0
        results = read_report(out)["results"]
        assert results["fixture"] == name
        assert not results["partial"]
        assert len(results["orders_u"]) == len(results["orders_w"]) == 1
        assert results["orders_u"][0] > 1.5
        with open(os.path.join(out, "converge.csv")) as fh:
            header = fh.readline().strip()
            rows = [line for line in fh if line.strip()]
        assert header == "h,n_nodes,err_u,err_w,outer_iterations"
        assert [r["h"] for r in results["rows"]] == [0.125, 0.0625]
        assert not any(r["failed"] for r in results["rows"])
        assert rows == [
            f"{r['h']:.17g},{r['n_nodes']},{r['err_u']:.17g},{r['err_w']:.17g},"
            f"{r['outer_iterations']}\n"
            for r in results["rows"]
        ]
        # the study builds its own grids, outside any phase
        _assert_phase_times(out, "csv_write_s")


@pytest.mark.parametrize(
    "block, value",
    [("fixture", {"name": "radial_mild", "theta": 0.7})],
    ids=["theta"],
)
def test_converge_invalid_input_exits_3(tmp_path, capsys, block, value):
    """Invalid input found by the study is not a failed grid: it exits 3
    like ``amce solve`` does, not 2 with a ``failed`` row."""
    config = {
        "domain": DISK16,
        "fixture": {"name": "radial_mild", "theta": 0.25},
        "converge": {"h_list": [0.125, 0.0625]},
    }
    config[block] = value
    out = str(tmp_path / "o")
    assert main(["converge", "--config", write_cfg(tmp_path, config), "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    report = read_report(out)
    assert report["status"] == "exit 3"
    assert report["error"]["class"] == "InvalidProblemError"


@pytest.mark.parametrize("command", ["solve", "ma", "converge"])
def test_relaxation_rejected_at_parse_time(tmp_path, capsys, command):
    """``relaxation`` outside (0, 1] is invalid input found while parsing:
    exit 3 before the output directory exists, so no report is left."""
    config = {
        "domain": DISK16,
        "fixture": {"name": "radial_mild", "theta": 0.25},
        "converge": {"h_list": [0.125, 0.0625]},
        "solver": {"relaxation": 1.5},
    }
    out = str(tmp_path / "o")
    assert main([command, "--config", write_cfg(tmp_path, config), "--out", out]) == 3
    err = capsys.readouterr().err
    assert "solver.relaxation must be in (0, 1]" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_converge_partial_study_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "radial_quartic", "theta": 0.25},
            "converge": {"h_list": [0.125, 0.0625]},
            "solver": {"max_outer_iters": 1},
        },
    )
    out = str(tmp_path / "o")
    assert main(["converge", "--config", cfg, "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    results = read_report(out)["results"]
    assert results["partial"] is True
    assert results["rows"][0]["failed"].startswith("NonConvergenceError")


_CHECK_DETAIL_KEYS = {
    "min_principle": {"min_w", "min_psi", "budget", "applicable"},
    "abp_chain": {
        "kappa", "sup_w", "sup_psi", "forcing_norm", "fitted_constant",
        "forcing_vanishes",
    },
    "interior_holder_w": {"beta", "raw_slope", "r2", "n_bins", "degenerate", "flat"},
    "boundary_holder_w": {"alpha", "threshold", "beta", "r2", "flat"},
    "quadratic_separation": {"rho_low", "rho_high", "n_pairs", "worst_gap"},
    "hessian_positivity": {"min_eigenvalue"},
    "w_positivity": {"min_w", "grid_h"},
}


def test_report_key_sets(tmp_path):
    """The audit records are serialized whole, so a field added to one
    would reach the reports; these are the keys they carry."""
    cfg = write_cfg(
        tmp_path,
        {"domain": DISK16, "fixture": {"name": "radial_mild", "theta": 0.25}},
    )
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "verify.json")) as fh:
        checks = json.load(fh)["checks"]
    assert [c["name"] for c in checks] == list(_CHECK_DETAIL_KEYS)
    for check in checks:
        assert set(check) == {"name", "status", "margin", "details"}
        assert set(check["details"]) == _CHECK_DETAIL_KEYS[check["name"]]

    cfg = write_cfg(
        tmp_path,
        {
            "domain": DISK16,
            "fixture": {"name": "sheared_half"},
            "sections": {
                "boundary_point": [0.0, -1.0],
                "heights": [0.125, 0.0625],
                "interior_points": [[0.0, 0.0]],
                "normalize": True,
            },
        },
        name="sections.json",
    )
    out = str(tmp_path / "s")
    assert main(["sections", "--config", cfg, "--out", out]) == 0
    results = read_report(out)["results"]
    assert set(results["boundary_scan"]) == {
        "x0", "normal", "rows", "slide_c0", "slide_c1", "slide_r2", "hulls",
    }
    assert set(results["interior_points"][0]["normalized"]) == {
        "c_inner", "c_outer", "grad_at_center", "det_range_original",
        "det_range_normalized", "tau", "h_eff",
    }

    fixture = {"domain": DISK16, "fixture": {"name": "paraboloid"}}
    cfg = write_cfg(tmp_path, fixture, name="solve.json")
    out = str(tmp_path / "solve")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    assert set(read_report(out)["results"]["solve"]) == {
        "outer_iterations", "w_change_history", "final_ma_residual",
        "final_lma_residual", "min_w", "max_w", "min_hessian_eigenvalue",
        "newton_iterations_total", "hypothesis_flags", "factorizations",
        "coupled_newton_steps", "krylov_iterations_total", "backtracks_total",
        "pivoting_refactors", "lu_solves",
    }
    cfg = write_cfg(tmp_path, fixture, name="ma.json")
    out = str(tmp_path / "ma")
    assert main(["ma", "--config", cfg, "--out", out]) == 0
    assert set(read_report(out)["results"]) == {
        "iterations", "residual_history", "min_hessian_eigenvalue",
        "backtracks", "pivoting_refactors", "krylov_iterations", "n_nodes",
        "n_hits", "outputs",
    }
    cfg = write_cfg(tmp_path, fixture, name="lma.json")
    out = str(tmp_path / "lma")
    assert main(["lma", "--config", cfg, "--out", out]) == 0
    assert set(read_report(out)["results"]) == {
        "residual_sup", "backward_error", "sign_audit", "condition_estimate",
        "pivoting_refactors", "u_source", "n_nodes", "n_hits", "outputs",
    }


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


# ---------------------------------------------------------------------------
# the exit-code contract under mutated configs
# ---------------------------------------------------------------------------

# Small valid configs at h = 1/8; no mutation below makes the grid finer
# or the sweep budget larger.
_FUZZ_BASE = {
    "fixture": {"domain": DISK8, "fixture": {"name": "radial_mild"}},
    "ma": {"domain": DISK8, "ma": {"g": {"const": 1.0}, "phi": QUAD}},
    "lma": {
        "domain": DISK8,
        "fixture": {"name": "paraboloid"},
        "lma": {"g": {"const": -1.0}, "psi": {"const": 1.0}},
    },
    "solve": {
        "domain": DISK8,
        "problem": {
            "theta": 0.25,
            "f": {"gaussian": {"amplitude": -0.128, "sigma": 0.625}},
            "phi": QUAD,
            "psi": {"const": 1.0},
        },
        "solver": {"max_outer_iters": 3},
    },
    "sections": {
        "domain": DISK8,
        "fixture": {"name": "radial_mild"},
        "sections": {
            "boundary_point": [0.0, -1.0],
            "heights": [0.25],
            "interior_points": [[0.0, 0.0]],
        },
    },
    "verify": {"domain": DISK8, "fixture": {"name": "radial_quartic"}},
    "converge": {
        "domain": DISK8,
        "fixture": {"name": "radial_mild"},
        "converge": {"h_list": [0.25, 0.125]},
        "solver": {"max_outer_iters": 8},
    },
}
_KEEP = {
    ("domain",),
    ("domain", "h_grid"),
    ("solver", "max_outer_iters"),
    ("converge",),
    ("converge", "h_list"),
}
_BAD_VALUES = ["x", [], {}, None, True, float("nan"), float("inf"), float("-inf"), 0, 0.0]


def _paths(obj, prefix=()):
    for key, val in obj.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _paths(val, prefix + (key,))


@st.composite
def _mutated(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_BASE)))
    cfg = copy.deepcopy(_FUZZ_BASE[command])
    for _ in range(draw(st.integers(1, 2))):
        paths = [p for p in _paths(cfg) if p != ("solver",)]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        *head, key = path
        parent = cfg
        for k in head:
            parent = parent[k]
        op = draw(st.sampled_from(["drop", "value", "negate", "unknown key", "fixture"]))
        if op == "drop" and path not in _KEEP:
            del parent[key]
        elif op == "value":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_BAD_VALUES)))
        elif op == "negate" and isinstance(parent[key], (int, float)):
            parent[key] = -parent[key]
        elif op == "unknown key" and isinstance(parent[key], dict):
            parent[key]["bogus"] = 1.0
        elif op == "fixture":
            cfg["fixture"] = {"name": draw(st.sampled_from(["nope", "paraboloid_r2"]))}
    return command, cfg


@settings(max_examples=200)
@given(_mutated())
def test_mutated_configs_keep_the_exit_code_contract(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)  # NaN and Infinity as JSON literals
        out = os.path.join(tmp, "o")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", out])
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if os.path.isdir(out):
            assert os.path.exists(os.path.join(out, "report.json"))
