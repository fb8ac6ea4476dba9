"""Tests for strict JSON configuration parsing and canonical serialization."""

import dataclasses
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from amce.config import (
    ConvergeBlock,
    FieldSpec,
    LmaBlock,
    MaBlock,
    RunConfig,
    SectionsBlock,
    VerifyBlock,
    canonical_json,
    load_config,
    parse_config,
)
from amce.coupled import CoupledOptions
from amce.errors import ConfigError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
        ({"domain": {"kind": "disk", "params": {"radus": 2}}}, "domain.params"),
        ({"domain": {"kind": "ellipse", "params": {"a": 2.0, "radius": 1.0}}}, "domain.params"),
        ({"domain": {"kind": "levelset", "params": {"coeffs": {"20": 1.0, "02": 1.0}, "b": 1.0}}}, "domain.params"),
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
    assert np.allclose(const(pts), 3.5)

    poly = FieldSpec.parse({"poly": {"21": 2.0, "00": -1.0}}, "t")
    expected = 2.0 * pts[:, 0] ** 2 * pts[:, 1] - 1.0
    assert np.allclose(poly(pts), expected)


def test_fieldspec_gaussian_and_abs_pow_evaluate():
    pts = np.array([[0.1, -0.2], [0.0, 0.0]])
    gauss = FieldSpec.parse(
        {"gaussian": {"amplitude": 2.0, "sigma": 0.5, "center": [0.1, -0.2]}}, "t"
    )
    vals = gauss(pts)
    assert vals[0] == pytest.approx(2.0)
    assert vals[1] == pytest.approx(2.0 * np.exp(-(0.01 + 0.04) / 0.5))

    ap = FieldSpec.parse(
        {"abs_pow": {"power": 0.5, "axis": 1, "scale": 3.0, "offset": 1.0}}, "t"
    )
    vals = ap(pts)
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
    assert cfg.domain.kind == "disk"
    assert cfg.domain.params == {"radius": 1.0}
    assert cfg.domain.h_grid == pytest.approx(1.0 / 32.0)
    assert cfg.problem is None and cfg.fixture is None
    assert cfg.solver.outer_tol == 1e-8
    assert cfg.solver.max_outer_iters == 200
    assert cfg.solver.relaxation == 0.5
    assert cfg.verify == VerifyBlock(boundary_alpha=1.0)
    assert cfg.output_dir == "out"
    assert cfg.seed == 0


def test_default_solver_block_is_default_options():
    cfg = parse_config({})
    assert cfg.solver == CoupledOptions()
    assert cfg.canonical()["solver"] == dataclasses.asdict(CoupledOptions())


# one non-default value per solver key
SOLVER_NON_DEFAULTS = {
    "outer_tol": 1e-7,
    "max_outer_iters": 17,
    "relaxation": 0.75,
    "newton_tol": 1e-9,
    "max_newton_iters": 9,
    "eps_clamp": 1e-8,
    "lma_tol": 1e-9,
}


@pytest.mark.parametrize("key", sorted(SOLVER_NON_DEFAULTS))
def test_solver_key_reaches_same_named_option(key):
    value = SOLVER_NON_DEFAULTS[key]
    cfg = parse_config({"solver": {key: value}})
    opts = cfg.solver
    assert getattr(opts, key) == value != getattr(type(opts)(), key)
    assert type(getattr(opts, key)) is type(value)
    assert cfg.canonical()["solver"] == dataclasses.asdict(opts)


def test_solver_block_is_the_option_fields():
    cfg = parse_config({"solver": SOLVER_NON_DEFAULTS})
    assert dataclasses.asdict(cfg.solver) == SOLVER_NON_DEFAULTS
    assert cfg.canonical()["solver"] == dataclasses.asdict(cfg.solver)


def test_sections_defaults():
    cfg = parse_config({"sections": {"boundary_point": [0.0, -1.0]}})
    assert cfg.sections.heights == [2.0**-k for k in range(3, 7)]
    assert cfg.sections.min_nodes == 12
    assert cfg.sections.normalize is False
    assert cfg.sections.interior_points is None


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
        {"solver": {"relaxation": 1.5}},
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
        {"domain": {"kind": "disk", "params": {"radius": True}}},
        {"domain": {"kind": "disk", "params": {"radius": [1]}}},
        {"domain": {"kind": "levelset", "params": {"coeffs": {"20": 1.0, "02": 1.0}, "level": [1]}}},
        {"domain": {"kind": "levelset", "params": {"coeffs": [1, 2]}}},
        {"domain": {"kind": "levelset", "params": {"coeffs": {"2": 1.0}}}},
        {"domain": {"kind": "levelset", "params": {}}},
        {"domain": {"kind": "disk", "params": {"center": [1]}}},
        {"sections": {"normalize": "no"}},
        {"sections": {"min_nodes": 0}},
        {"fixture": {"name": "nope"}},
        {"domain": {"params": {}}},
        {"fixture": {"theta": 0.25}},
    ],
)
def test_out_of_range_values_rejected(obj):
    with pytest.raises(ConfigError):
        parse_config(obj)


def test_domain_params_parsed_per_kind():
    """Only given keys are kept, each as a float; build_domain owns defaults."""
    cfg = parse_config(
        {"domain": {"kind": "levelset", "params": {"level": 2, "coeffs": {"20": 1, "02": 2}}}}
    )
    assert cfg.domain.params == {"coeffs": {"02": 2.0, "20": 1.0}, "level": 2.0}
    assert canonical_json(cfg.canonical()["domain"]["params"]) == canonical_json(
        {"coeffs": {"02": 2.0, "20": 1.0}, "level": 2.0}
    )
    assert parse_config({"domain": {"kind": "disk", "params": {}}}).domain.params == {}
    assert parse_config({"domain": {"kind": "disk"}}).domain.params == {}
    ellipse = parse_config({"domain": {"kind": "ellipse", "params": {"a": 2, "center": [0, 1]}}})
    assert ellipse.domain.params == {"a": 2.0, "center": [0.0, 1.0]}
    assert all(type(v) is float for v in ellipse.domain.params["center"])


def test_eps_clamp_may_be_zero():
    cfg = parse_config({"solver": {"eps_clamp": 0.0}})
    assert cfg.solver.eps_clamp == 0.0


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


# canonical text at the time the schema became dataclasses; the bytes are
# embedded in every report, so they must not drift
RICH_CANONICAL = """\
{
  "converge": {
    "h_list": [
      0.0625,
      0.03125
    ]
  },
  "domain": {
    "h_grid": 0.0625,
    "kind": "ellipse",
    "params": {
      "a": 1.5,
      "b": 1.0
    }
  },
  "lma": {
    "g": {
      "const": 0.0
    },
    "psi": {
      "const": 2.0
    },
    "u_csv": "u.csv"
  },
  "ma": {
    "g": {
      "const": 4.0
    },
    "phi": {
      "poly": {
        "02": 0.5,
        "20": 0.5
      }
    }
  },
  "output_dir": "results",
  "problem": {
    "f": {
      "gaussian": {
        "amplitude": -0.5,
        "center": [
          0.1,
          -0.2
        ],
        "sigma": 0.4
      }
    },
    "phi": {
      "poly": {
        "02": 0.5,
        "20": 0.5
      }
    },
    "psi": {
      "const": 1.0
    },
    "theta": 0.25
  },
  "sections": {
    "boundary_point": [
      0.0,
      -1.0
    ],
    "heights": [
      0.125,
      0.0625
    ],
    "interior_points": [
      [
        0.0,
        0.0
      ],
      [
        0.3,
        0.1
      ]
    ],
    "min_nodes": 10,
    "normalize": true
  },
  "seed": 7,
  "solver": {
    "eps_clamp": 1e-10,
    "lma_tol": 1e-10,
    "max_newton_iters": 50,
    "max_outer_iters": 64,
    "newton_tol": 1e-10,
    "outer_tol": 1e-07,
    "relaxation": 0.5
  },
  "verify": {
    "boundary_alpha": 0.5
  }
}"""

EMPTY_CANONICAL = """\
{
  "domain": {
    "h_grid": 0.03125,
    "kind": "disk",
    "params": {
      "radius": 1.0
    }
  },
  "output_dir": "out",
  "seed": 0,
  "solver": {
    "eps_clamp": 1e-10,
    "lma_tol": 1e-10,
    "max_newton_iters": 50,
    "max_outer_iters": 200,
    "newton_tol": 1e-10,
    "outer_tol": 1e-08,
    "relaxation": 0.5
  },
  "verify": {
    "boundary_alpha": 1.0
  }
}"""


def test_canonical_text_is_pinned():
    assert canonical_json(parse_config(RICH_CONFIG).canonical()) == RICH_CANONICAL
    assert canonical_json(parse_config({}).canonical()) == EMPTY_CANONICAL


def test_absent_optional_keys_left_out_of_canonical():
    canon = parse_config(
        {"fixture": {"name": "paraboloid"}, "sections": {}, "lma": {}}
    ).canonical()
    assert canon["fixture"] == {"name": "paraboloid"}
    assert set(canon["sections"]) == {"heights", "min_nodes", "normalize"}
    assert set(canon["lma"]) == {"g", "psi"}
    assert "problem" not in canon and "converge" not in canon


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
    assert cfg.domain.kind == "ellipse"
    assert cfg.seed == 7
    assert cfg.lma.u_csv == "u.csv"
    assert cfg.ma.g.payload == 4.0
    assert cfg.ma.phi.kind == "poly"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"domain": {"kind": "disk"\xff}}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_overrides_obey_the_rules(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(RICH_CONFIG))
    cfg = load_config(str(path), output_dir="elsewhere", seed=None)
    assert (cfg.output_dir, cfg.seed) == ("elsewhere", 7)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        load_config(str(path), seed=-1)
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(str(path), output_dir="")


# ---------------------------------------------------------------------------
# README's table of keys and defaults
# ---------------------------------------------------------------------------

README_BLOCKS = {
    "solver": CoupledOptions,
    "verify": VerifyBlock,
    "sections": SectionsBlock,
    "converge": ConvergeBlock,
    "ma": MaBlock,
    "lma": LmaBlock,
}


def _readme_table() -> dict:
    """README's ``| block | key | default | rule |`` rows: block -> key -> default."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| block | key | default | rule |\n")[1].split("\n\n")[0]
    rows: dict = {}
    block = None
    for line in table.splitlines()[1:]:
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        block = cells[0] or block
        rows.setdefault(block, {})[cells[1]] = cells[2]
    return rows


def _readme_default(cell: str):
    """A default cell as a value: ``none``, JSON, a field spec, or a list of
    fractions such as ``[1/16, 1/32]``."""
    if cell == "none":
        return None
    if cell.startswith("[") and "/" in cell:
        return [float(Fraction(x.strip())) for x in cell.strip("[]").split(",")]
    value = json.loads(cell)
    return FieldSpec.parse(value, cell) if isinstance(value, dict) else value


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def test_readme_config_table_matches_schema():
    table = _readme_table()
    assert set(table) == set(README_BLOCKS) | {"top level"}
    scalars = {
        key: value
        for key, value in _field_values(RunConfig()).items()
        if isinstance(value, (str, int))
    }
    for block, rows in table.items():
        cls = README_BLOCKS.get(block)
        defaults = scalars if cls is None else _field_values(cls())
        assert set(rows) == set(defaults), block
        for key, cell in rows.items():
            assert _readme_default(cell) == defaults[key], (block, key)
