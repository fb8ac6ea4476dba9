"""Tests for strict JSON configuration parsing and canonical serialization."""

import json

import numpy as np
import pytest

from amce.config import (
    FieldSpec,
    canonical_json,
    load_config,
    parse_config,
)
from amce.errors import ConfigError

RICH_CONFIG = {
    "domain": {"kind": "ellipse", "params": {"a": 1.5, "b": 1.0}, "h_grid": 0.0625},
    "problem": {
        "theta": 0.25,
        "f": {"gaussian": {"amplitude": -0.5, "sigma": 0.4, "center": [0.1, -0.2]}},
        "phi": {"poly": {"20": 0.5, "02": 0.5}},
        "psi": {"const": 1.0},
    },
    "solver": {"outer_tol": 1e-7, "max_outer_iters": 64},
    "verify": {"boundary_alpha": 0.5},
    "sections": {
        "interior_points": [[0.0, 0.0], [0.3, 0.1]],
        "boundary_point": [0.0, -1.0],
        "heights": [0.125, 0.0625],
        "min_nodes": 10,
        "normalize": True,
    },
    "converge": {"h_list": [0.0625, 0.03125]},
    "ma": {"g": {"const": 4.0}},
    "lma": {"u_csv": "u.csv", "psi": {"const": 2.0}},
    "output_dir": "results",
    "seed": 7,
}


# ---------------------------------------------------------------------------
# strict key checking at every level
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "obj, fragment",
    [
        ({"grid": {}}, "config"),
        ({"domain": {"kind": "disk", "spacing": 0.1}}, "domain"),
        ({"problem": {"theta": 0.25, "f": {"const": 0.0}, "phi": {"const": 0.0}, "psi": {"const": 1.0}, "rhs": 1}}, "problem"),
        ({"fixture": {"name": "paraboloid", "level": 2}}, "fixture"),
        ({"solver": {"tol": 1e-8}}, "solver"),
        ({"verify": {"alpha": 1.0}}, "verify"),
        ({"sections": {"points": []}}, "sections"),
        ({"converge": {"hs": [0.1, 0.05]}}, "converge"),
        ({"ma": {"rhs": {"const": 1.0}}}, "ma"),
        ({"lma": {"u": "u.csv"}}, "lma"),
        ({"problem": {"theta": 0.25, "f": {"const": 0.0}, "phi": {"const": 0.0}, "psi": {"const": 1.0}, "p": 2.0}}, "problem"),
    ],
)
def test_unknown_keys_rejected(obj, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(obj)


def test_non_object_blocks_rejected():
    with pytest.raises(ConfigError):
        parse_config([])
    with pytest.raises(ConfigError):
        parse_config({"domain": "disk"})
    with pytest.raises(ConfigError):
        parse_config({"solver": 3})


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------


def test_fieldspec_const_and_poly_evaluate():
    pts = np.array([[0.5, -0.25], [1.0, 2.0]])
    const = FieldSpec.parse({"const": 3.5}, "t")
    assert np.allclose(const.to_callable()(pts), 3.5)

    poly = FieldSpec.parse({"poly": {"21": 2.0, "00": -1.0}}, "t")
    expected = 2.0 * pts[:, 0] ** 2 * pts[:, 1] - 1.0
    assert np.allclose(poly.to_callable()(pts), expected)


def test_fieldspec_gaussian_and_abs_pow_evaluate():
    pts = np.array([[0.1, -0.2], [0.0, 0.0]])
    gauss = FieldSpec.parse(
        {"gaussian": {"amplitude": 2.0, "sigma": 0.5, "center": [0.1, -0.2]}}, "t"
    )
    vals = gauss.to_callable()(pts)
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == pytest.approx(2.0 * np.exp(-(0.01 + 0.04) / 0.5))

    ap = FieldSpec.parse(
        {"abs_pow": {"power": 0.5, "axis": 1, "scale": 3.0, "offset": 1.0}}, "t"
    )
    vals = ap.to_callable()(pts)
    assert vals[0] == pytest.approx(3.0 * 0.2**0.5 + 1.0)
    assert vals[1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"const": 1.0, "poly": {"11": 1.0}},
        {"const": "one"},
        {"const": True},
        {"poly": {}},
        {"poly": {"abc": 1.0}},
        {"poly": {"2": 1.0}},
        {"poly": {"xy": 1.0}},
        {"gaussian": {"sigma": 0.0}},
        {"gaussian": {"sigma": -1.0}},
        {"gaussian": {"center": [0.0]}},
        {"gaussian": {"width": 1.0}},
        {"abs_pow": {"axis": 2}},
        {"abs_pow": {"exponent": 1.0}},
        {"ramp": 1.0},
    ],
)
def test_fieldspec_rejects_malformed(obj):
    with pytest.raises(ConfigError):
        FieldSpec.parse(obj, "t")


def test_fieldspec_poly_coefficients_sorted():
    spec = FieldSpec.parse({"poly": {"20": 1.0, "02": 2.0, "11": 3.0}}, "t")
    assert list(spec.payload) == ["02", "11", "20"]
    assert spec.to_json() == {"poly": {"02": 2.0, "11": 3.0, "20": 1.0}}


# ---------------------------------------------------------------------------
# defaults and bounds
# ---------------------------------------------------------------------------


def test_empty_config_materializes_defaults():
    cfg = parse_config({})
    assert cfg.domain_kind == "disk"
    assert cfg.domain_params == {"radius": 1.0}
    assert cfg.h == pytest.approx(1.0 / 32.0)
    assert cfg.problem is None and cfg.fixture is None
    assert cfg.solver["outer_tol"] == 1e-8
    assert cfg.solver["max_outer_iters"] == 200
    assert cfg.solver["relaxation"] == 0.5
    assert cfg.verify == {"boundary_alpha": 1.0}
    assert cfg.output_dir == "out"
    assert cfg.seed == 0


def test_default_solver_block_is_default_options():
    from amce.coupled import CoupledOptions
    from amce.ma import MASolveOptions

    opts = parse_config({}).coupled_options()
    assert opts == CoupledOptions()
    assert opts.ma == MASolveOptions()


def test_sections_defaults():
    cfg = parse_config({"sections": {"boundary_point": [0.0, -1.0]}})
    assert cfg.sections["heights"] == [2.0**-k for k in range(3, 7)]
    assert cfg.sections["min_nodes"] == 12
    assert cfg.sections["normalize"] is False


@pytest.mark.parametrize(
    "obj",
    [
        {"domain": {"kind": "square", "params": {}}},
        {"domain": {"kind": "disk", "params": {}, "h_grid": 0.0}},
        {"domain": {"kind": "disk", "params": {}, "h_grid": -0.1}},
        {"problem": {"theta": 0.25, "f": {"const": 0.0}, "phi": {"const": 0.0}}},
        {"fixture": {"name": 3}},
        {"solver": {"max_outer_iters": 0}},
        {"solver": {"max_outer_iters": 2.5}},
        {"solver": {"relaxation": 0.0}},
        {"solver": {"outer_tol": -1e-8}},
        {"verify": {"boundary_alpha": 0.0}},
        {"verify": {"boundary_alpha": 1.5}},
        {"sections": {"interior_points": []}},
        {"sections": {"heights": [0.1, -0.2]}},
        {"sections": {"heights": []}},
        {"converge": {"h_list": [0.1]}},
        {"converge": {"h_list": [0.1, 0.0]}},
        {"lma": {"u_csv": ""}},
        {"output_dir": ""},
        {"seed": -1},
        {"seed": True},
        {"threads": 0},
        {"problem": {"theta": 0.25, "f": {"gaussian": {"amplitude": float("nan")}}, "phi": {"const": 0.0}, "psi": {"const": 1.0}}},
        {"problem": {"theta": 0.25, "f": {"const": 0.0}, "phi": {"const": 0.0}, "psi": {"const": float("nan")}}},
        {"domain": {"kind": "disk", "params": {}, "h_grid": float("inf")}},
        {"sections": {"boundary_point": [0.0, float("-inf")]}},
    ],
)
def test_out_of_range_values_rejected(obj):
    with pytest.raises(ConfigError):
        parse_config(obj)


def test_eps_clamp_may_be_zero():
    cfg = parse_config({"solver": {"eps_clamp": 0.0}})
    assert cfg.solver["eps_clamp"] == 0.0


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_round_trip_idempotent():
    cfg1 = parse_config(json.loads(json.dumps(RICH_CONFIG)))
    canon1 = cfg1.canonical()
    cfg2 = parse_config(json.loads(canonical_json(canon1)))
    canon2 = cfg2.canonical()
    assert canon1 == canon2
    assert canonical_json(canon1) == canonical_json(canon2)


def test_canonical_minimal_round_trip():
    canon1 = parse_config({}).canonical()
    canon2 = parse_config(canon1).canonical()
    assert canon1 == canon2
    assert canon1["domain"] == {
        "kind": "disk",
        "params": {"radius": 1.0},
        "h_grid": 1.0 / 32.0,
    }


def test_canonical_json_is_key_sorted_text():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert canonical_json(json.loads(text)) == text


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RICH_CONFIG))
    cfg = load_config(str(path))
    assert cfg.domain_kind == "ellipse"
    assert cfg.seed == 7
    assert cfg.lma["u_csv"] == "u.csv"
    assert cfg.ma["g"].payload == 4.0
    assert cfg.ma["phi"].kind == "poly"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
