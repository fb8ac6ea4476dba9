"""Strict JSON run configuration: parsing, validation, canonical form.

A run configuration is a nested JSON object with blocks for the domain
(including the grid spacing ``h_grid``), problem data (or a named
manufactured fixture), solver options, verification, section diagnostics,
convergence studies, and the standalone determinant / linearized
subproblems.  Parsing is strict — unknown keys anywhere raise
:class:`ConfigError` — and the canonical serialized form is stable, so
parse → serialize → parse is idempotent and reports embedding the
canonical config are byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from .coupled import CoupledOptions
from .errors import ConfigError
from .fixtures import fixture_names

__all__ = [
    "FieldSpec",
    "RunConfig",
    "parse_config",
    "load_config",
    "canonical_json",
]


def _require_mapping(obj, ctx: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, allowed: set[str], ctx: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {ctx}; allowed: {sorted(allowed)}"
        )


def _number(value, ctx: str) -> float:
    """A finite float; JSON ``NaN`` and ``Infinity`` are rejected."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:  # an integer past the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{ctx} must be a finite number, got {value!r}")


def _integer(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx} must be an integer, got {value!r}")
    return int(value)


def _point(value, ctx: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{ctx} must be a pair of numbers, got {value!r}")
    return [_number(v, f"{ctx}[{i}]") for i, v in enumerate(value)]


def _poly_coeffs(value, ctx: str) -> dict[str, float]:
    """Non-empty ``{"ij": c}`` monomial coefficients, keys sorted."""
    p = _require_mapping(value, ctx)
    coeffs = {}
    for key, val in p.items():
        if not isinstance(key, str) or len(key) != 2 or not key.isdigit():
            raise ConfigError(f"{ctx} keys must be two-digit strings 'ij', got {key!r}")
        coeffs[key] = _number(val, f"{ctx}[{key}]")
    if not coeffs:
        raise ConfigError(f"{ctx} must not be empty")
    return dict(sorted(coeffs.items()))


# ---------------------------------------------------------------------------
# scalar field specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Declarative scalar field: constant, polynomial, gaussian, or |x_i|^p.

    Exactly one of the forms is set:

    - ``{"const": v}`` — the constant ``v``;
    - ``{"poly": {"ij": c, ...}}`` — sum of ``c * x^i * y^j`` with two-digit
      string keys;
    - ``{"gaussian": {"amplitude": a, "sigma": s, "center": [x, y]}}`` —
      ``a * exp(-|p - center|^2 / (2 s^2))``;
    - ``{"abs_pow": {"power": p, "axis": 0|1, "scale": c, "offset": b}}`` —
      ``c * |p_axis|^power + b``.
    """

    kind: str
    payload: Any

    @staticmethod
    def parse(obj, ctx: str) -> "FieldSpec":
        d = _require_mapping(obj, ctx)
        _check_keys(d, {"const", "poly", "gaussian", "abs_pow"}, ctx)
        if len(d) != 1:
            raise ConfigError(
                f"{ctx} must contain exactly one of const/poly/gaussian/abs_pow"
            )
        kind, payload = next(iter(d.items()))
        if kind == "const":
            return FieldSpec("const", _number(payload, f"{ctx}.const"))
        if kind == "poly":
            return FieldSpec("poly", _poly_coeffs(payload, f"{ctx}.poly"))
        if kind == "gaussian":
            p = _require_mapping(payload, f"{ctx}.gaussian")
            _check_keys(p, {"amplitude", "sigma", "center"}, f"{ctx}.gaussian")
            amp = _number(p.get("amplitude", 1.0), f"{ctx}.gaussian.amplitude")
            sigma = _number(p.get("sigma", 1.0), f"{ctx}.gaussian.sigma")
            if sigma <= 0:
                raise ConfigError(f"{ctx}.gaussian.sigma must be positive")
            center = _point(p.get("center", [0.0, 0.0]), f"{ctx}.gaussian.center")
            return FieldSpec(
                "gaussian", {"amplitude": amp, "sigma": sigma, "center": center}
            )
        p = _require_mapping(payload, f"{ctx}.abs_pow")
        _check_keys(p, {"power", "axis", "scale", "offset"}, f"{ctx}.abs_pow")
        power = _number(p.get("power", 1.0), f"{ctx}.abs_pow.power")
        axis = _integer(p.get("axis", 0), f"{ctx}.abs_pow.axis")
        if axis not in (0, 1):
            raise ConfigError(f"{ctx}.abs_pow.axis must be 0 or 1")
        scale = _number(p.get("scale", 1.0), f"{ctx}.abs_pow.scale")
        offset = _number(p.get("offset", 0.0), f"{ctx}.abs_pow.offset")
        return FieldSpec(
            "abs_pow",
            {"power": power, "axis": axis, "scale": scale, "offset": offset},
        )

    def to_json(self) -> dict:
        return {self.kind: self.payload}

    def to_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        """The field as a function of points ``(n, 2)``.

        Floating-point warnings are off while it runs: a pole or an
        overflow gives inf or NaN, which the problem classes reject as
        non-finite sampled data.
        """
        formula = self._formula()

        def sampled(p):
            with np.errstate(all="ignore"):
                return formula(p)

        return sampled

    def _formula(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "const":
            v = self.payload
            return lambda p: np.full(len(p), v, dtype=float)
        if self.kind == "poly":
            items = [(int(k[0]), int(k[1]), c) for k, c in self.payload.items()]

            def poly(p, items=items):
                out = np.zeros(len(p))
                for i, j, c in items:
                    out += c * p[:, 0] ** i * p[:, 1] ** j
                return out

            return poly
        if self.kind == "gaussian":
            a = self.payload["amplitude"]
            s = self.payload["sigma"]
            cx, cy = self.payload["center"]
            return lambda p: a * np.exp(
                -((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2) / (2.0 * s * s)
            )
        power = self.payload["power"]
        axis = self.payload["axis"]
        scale = self.payload["scale"]
        offset = self.payload["offset"]
        return lambda p: scale * np.abs(p[:, axis]) ** power + offset


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# domain kind -> its params, each parsed by a function of (value, ctx)
_DOMAIN_PARAMS = {
    "disk": {"radius": _number, "center": _point},
    "ellipse": {"a": _number, "b": _number, "center": _point},
    "levelset": {"coeffs": _poly_coeffs, "level": _number, "center": _point},
}
_FIXTURE_FIELD_KEYS = {"name", "theta"}
_PROBLEM_KEYS = {"theta", "f", "phi", "psi"}
_VERIFY_KEYS = {"boundary_alpha"}
_SECTIONS_KEYS = {
    "interior_points",
    "boundary_point",
    "heights",
    "min_nodes",
    "normalize",
}
_CONVERGE_KEYS = {"h_list"}
_MA_KEYS = {"g", "phi"}
_LMA_KEYS = {"u_csv", "g", "psi"}
_TOP_KEYS = {
    "domain",
    "problem",
    "fixture",
    "solver",
    "verify",
    "sections",
    "converge",
    "ma",
    "lma",
    "output_dir",
    "seed",
}


# the option class owns the keys and their defaults
_SOLVER_DEFAULTS = asdict(CoupledOptions())
_SOLVER_KEYS = set(_SOLVER_DEFAULTS)


@dataclass
class RunConfig:
    """Validated run configuration with defaults materialized."""

    domain_kind: str
    domain_params: dict
    h: float
    problem: dict | None
    fixture: dict | None
    solver: dict
    verify: dict
    sections: dict | None
    converge: dict | None
    ma: dict | None
    lma: dict | None
    output_dir: str
    seed: int

    def coupled_options(self) -> CoupledOptions:
        return CoupledOptions(**self.solver)

    def canonical(self) -> dict:
        """Canonical JSON object: defaults filled, stable key content."""
        out: dict[str, Any] = {
            "domain": {
                "kind": self.domain_kind,
                "params": self.domain_params,
                "h_grid": self.h,
            },
            "solver": dict(self.solver),
            "verify": dict(self.verify),
            "output_dir": self.output_dir,
            "seed": self.seed,
        }
        if self.problem is not None:
            p = dict(self.problem)
            for key in ("f", "phi", "psi"):
                p[key] = p[key].to_json()
            out["problem"] = p
        if self.fixture is not None:
            out["fixture"] = dict(self.fixture)
        if self.sections is not None:
            out["sections"] = dict(self.sections)
        if self.converge is not None:
            out["converge"] = dict(self.converge)
        if self.ma is not None:
            out["ma"] = {k: v.to_json() for k, v in self.ma.items()}
        if self.lma is not None:
            lma = dict(self.lma)
            for key in ("g", "psi"):
                if isinstance(lma.get(key), FieldSpec):
                    lma[key] = lma[key].to_json()
            out["lma"] = lma
        return out


def parse_config(obj: dict) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`.

    Raises :class:`ConfigError` on unknown keys, malformed blocks, or
    out-of-range scalars.  Deeper semantic validation (theta window,
    domain convexity) happens when the run is assembled.
    """
    top = _require_mapping(obj, "config")
    _check_keys(top, _TOP_KEYS, "config")

    dom = _require_mapping(
        top.get("domain", {"kind": "disk", "params": {"radius": 1.0}}), "domain"
    )
    _check_keys(dom, {"kind", "params", "h_grid"}, "domain")
    kind = dom.get("kind")
    if not isinstance(kind, str) or kind not in _DOMAIN_PARAMS:
        raise ConfigError(
            f"domain.kind must be one of {sorted(_DOMAIN_PARAMS)}, got {kind!r}"
        )
    params_in = _require_mapping(dom.get("params", {}), "domain.params")
    _check_keys(params_in, set(_DOMAIN_PARAMS[kind]), "domain.params")
    # only the given keys: build_domain owns the defaults
    params = {
        key: parse(params_in[key], f"domain.params.{key}")
        for key, parse in sorted(_DOMAIN_PARAMS[kind].items())
        if key in params_in
    }
    if kind == "levelset" and "coeffs" not in params:
        raise ConfigError("domain.params.coeffs is required for a levelset domain")

    h = _number(dom.get("h_grid", 1.0 / 32.0), "domain.h_grid")
    if h <= 0:
        raise ConfigError(f"domain.h_grid must be positive, got {h}")

    problem = None
    if "problem" in top:
        pb = _require_mapping(top["problem"], "problem")
        _check_keys(pb, _PROBLEM_KEYS, "problem")
        for req in ("theta", "f", "phi", "psi"):
            if req not in pb:
                raise ConfigError(f"problem.{req} is required")
        problem = {
            "theta": _number(pb["theta"], "problem.theta"),
            "f": FieldSpec.parse(pb["f"], "problem.f"),
            "phi": FieldSpec.parse(pb["phi"], "problem.phi"),
            "psi": FieldSpec.parse(pb["psi"], "problem.psi"),
        }

    fixture = None
    if "fixture" in top:
        fx = _require_mapping(top["fixture"], "fixture")
        _check_keys(fx, _FIXTURE_FIELD_KEYS, "fixture")
        if "name" not in fx or not isinstance(fx["name"], str):
            raise ConfigError("fixture.name must be a string")
        if fx["name"] not in fixture_names():
            raise ConfigError(
                f"unknown fixture {fx['name']!r}; available: "
                f"{', '.join(fixture_names())}"
            )
        fixture = {"name": fx["name"]}
        if "theta" in fx:
            fixture["theta"] = _number(fx["theta"], "fixture.theta")

    solver_in = _require_mapping(top.get("solver", {}), "solver")
    _check_keys(solver_in, _SOLVER_KEYS, "solver")
    solver = dict(_SOLVER_DEFAULTS)
    for key, val in solver_in.items():
        if key in ("max_outer_iters", "max_newton_iters"):
            solver[key] = _integer(val, f"solver.{key}")
            if solver[key] < 1:
                raise ConfigError(f"solver.{key} must be >= 1")
        else:
            solver[key] = _number(val, f"solver.{key}")
            if key == "relaxation" and not 0.0 < solver[key] <= 1.0:
                raise ConfigError("solver.relaxation must be in (0, 1]")
            if solver[key] <= 0 and key != "eps_clamp":
                raise ConfigError(f"solver.{key} must be positive")

    verify_in = _require_mapping(top.get("verify", {}), "verify")
    _check_keys(verify_in, _VERIFY_KEYS, "verify")
    verify = {
        "boundary_alpha": _number(
            verify_in.get("boundary_alpha", 1.0), "verify.boundary_alpha"
        )
    }
    if not 0.0 < verify["boundary_alpha"] <= 1.0:
        raise ConfigError("verify.boundary_alpha must be in (0, 1]")

    sections = None
    if "sections" in top:
        sc = _require_mapping(top["sections"], "sections")
        _check_keys(sc, _SECTIONS_KEYS, "sections")
        sections = {}
        if "interior_points" in sc:
            pts = sc["interior_points"]
            if not isinstance(pts, list) or not pts:
                raise ConfigError("sections.interior_points must be a non-empty list")
            sections["interior_points"] = [
                _point(p, f"sections.interior_points[{i}]") for i, p in enumerate(pts)
            ]
        if "boundary_point" in sc:
            sections["boundary_point"] = _point(
                sc["boundary_point"], "sections.boundary_point"
            )
        heights = sc.get("heights", [2.0**-k for k in range(3, 7)])
        if not isinstance(heights, list) or not heights:
            raise ConfigError("sections.heights must be a non-empty list")
        sections["heights"] = [
            _number(x, f"sections.heights[{i}]") for i, x in enumerate(heights)
        ]
        if any(x <= 0 for x in sections["heights"]):
            raise ConfigError("sections.heights must be positive")
        sections["min_nodes"] = _integer(sc.get("min_nodes", 12), "sections.min_nodes")
        if sections["min_nodes"] < 1:
            raise ConfigError("sections.min_nodes must be >= 1")
        normalize = sc.get("normalize", False)
        if not isinstance(normalize, bool):
            raise ConfigError(
                f"sections.normalize must be true or false, got {normalize!r}"
            )
        sections["normalize"] = normalize

    converge = None
    if "converge" in top:
        cv = _require_mapping(top["converge"], "converge")
        _check_keys(cv, _CONVERGE_KEYS, "converge")
        h_list = cv.get("h_list", [1.0 / 16.0, 1.0 / 32.0])
        if not isinstance(h_list, list) or len(h_list) < 2:
            raise ConfigError("converge.h_list must list at least two spacings")
        converge = {
            "h_list": [_number(x, f"converge.h_list[{i}]") for i, x in enumerate(h_list)]
        }
        if any(x <= 0 for x in converge["h_list"]):
            raise ConfigError("converge.h_list entries must be positive")

    ma = None
    if "ma" in top:
        mb = _require_mapping(top["ma"], "ma")
        _check_keys(mb, _MA_KEYS, "ma")
        ma = {
            "g": FieldSpec.parse(mb.get("g", {"const": 1.0}), "ma.g"),
            "phi": FieldSpec.parse(
                mb.get("phi", {"poly": {"20": 0.5, "02": 0.5}}), "ma.phi"
            ),
        }

    lma = None
    if "lma" in top:
        lm = _require_mapping(top["lma"], "lma")
        _check_keys(lm, _LMA_KEYS, "lma")
        lma = {
            "g": FieldSpec.parse(lm.get("g", {"const": 0.0}), "lma.g"),
            "psi": FieldSpec.parse(lm.get("psi", {"const": 1.0}), "lma.psi"),
        }
        if "u_csv" in lm:
            if not isinstance(lm["u_csv"], str) or not lm["u_csv"]:
                raise ConfigError("lma.u_csv must be a non-empty path string")
            lma["u_csv"] = lm["u_csv"]

    output_dir = top.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir must be a non-empty string")
    seed = _integer(top.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    return RunConfig(
        domain_kind=kind,
        domain_params=params,
        h=h,
        problem=problem,
        fixture=fixture,
        solver=solver,
        verify=verify,
        sections=sections,
        converge=converge,
        ma=ma,
        lma=lma,
        output_dir=output_dir,
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def canonical_json(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, indent=2)
