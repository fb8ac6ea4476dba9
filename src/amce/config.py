"""Strict JSON run configuration: parsing, validation, canonical form.

A run configuration is a nested JSON object with blocks for the domain
(including the grid spacing ``h_grid``), problem data (or a named
manufactured fixture), solver options, verification, section diagnostics,
convergence studies, and the standalone determinant / linearized
subproblems.  Each block is a dataclass whose fields are its keys and
defaults (``solver`` is :class:`~amce.coupled.CoupledOptions`), read by one
parser from the field types; every range rule sits in ``_RULES``.  Unknown
keys anywhere raise :class:`ConfigError`, and parse → canonical → parse is
idempotent, so reports embedding the canonical config are byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Any, NewType, get_args, get_origin, get_type_hints

import numpy as np

from .coupled import CoupledOptions
from .errors import ConfigError
from .fixtures import fixture_names

__all__ = ["FieldSpec", "RunConfig", "parse_config", "load_config", "canonical_json"]

Point = NewType("Point", list)  # [x, y]
Poly = NewType("Poly", dict)  # {"ij": c} for c x^i y^j


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


def _exact(kind: type, what: str):
    """A parser of values of exactly ``kind`` (no bool as an int), never ``""``."""

    def parse(value, ctx: str):
        if type(value) is not kind or value == "":
            raise ConfigError(f"{ctx} must be {what}, got {value!r}")
        return value

    return parse


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


def _default_list(*items):
    """A list default, fresh for every instance."""
    return field(default_factory=lambda: list(items))


# ---------------------------------------------------------------------------
# scalar field specifications
# ---------------------------------------------------------------------------


@dataclass
class Gaussian:
    """``a * exp(-|p - center|^2 / (2 s^2))``."""

    amplitude: float = 1.0
    sigma: float = 1.0
    center: Point = _default_list(0.0, 0.0)


@dataclass
class AbsPow:
    """``scale * |p_axis|^power + offset``."""

    power: float = 1.0
    axis: int = 0
    scale: float = 1.0
    offset: float = 0.0


# form -> the type of its payload
_FORMS = {"const": float, "poly": Poly, "gaussian": Gaussian, "abs_pow": AbsPow}


@dataclass(frozen=True)
class FieldSpec:
    """Declarative scalar field, called on points, in exactly one of four forms:

    - ``{"const": v}`` — the constant ``v``;
    - ``{"poly": {"ij": c, ...}}`` — the sum of the ``c * x^i * y^j``;
    - ``{"gaussian": {...}}`` — a :class:`Gaussian`;
    - ``{"abs_pow": {...}}`` — an :class:`AbsPow`.
    """

    kind: str
    payload: Any

    @staticmethod
    def parse(obj, ctx: str) -> "FieldSpec":
        d = _require_mapping(obj, ctx)
        _check_keys(d, set(_FORMS), ctx)
        if len(d) != 1:
            raise ConfigError(f"{ctx} must contain exactly one of {sorted(_FORMS)}")
        kind, payload = next(iter(d.items()))
        return FieldSpec(kind, _parse_value(payload, _FORMS[kind], f"{ctx}.{kind}"))

    def to_json(self) -> dict:
        return {self.kind: _canonical(self.payload)}

    def __call__(self, p: np.ndarray) -> np.ndarray:
        """The field at points ``(n, 2)``.  Floating-point warnings are off:
        a pole or an overflow gives inf or NaN, which the problem classes
        reject as non-finite sampled data."""
        form = self.payload
        with np.errstate(all="ignore"):
            if self.kind == "const":
                return np.full(len(p), form, dtype=float)
            if self.kind == "poly":
                out = np.zeros(len(p))
                for key, c in form.items():
                    out += c * p[:, 0] ** int(key[0]) * p[:, 1] ** int(key[1])
                return out
            if self.kind == "gaussian":
                r2 = (p[:, 0] - form.center[0]) ** 2 + (p[:, 1] - form.center[1]) ** 2
                return form.amplitude * np.exp(-r2 / (2.0 * form.sigma * form.sigma))
            return form.scale * np.abs(p[:, form.axis]) ** form.power + form.offset


# ---------------------------------------------------------------------------
# run configuration: one dataclass per block
# ---------------------------------------------------------------------------

# domain kind -> its params, each parsed by a function of (value, ctx)
_DOMAIN_PARAMS = {
    "disk": {"radius": _number, "center": _point},
    "ellipse": {"a": _number, "b": _number, "center": _point},
    "levelset": {"coeffs": _poly_coeffs, "level": _number, "center": _point},
}


@dataclass
class DomainBlock:
    """``params`` keeps only the keys given: ``build_domain`` owns their defaults."""

    kind: str
    params: dict = field(default_factory=dict)
    h_grid: float = 1.0 / 32.0

    def __post_init__(self):
        table = _DOMAIN_PARAMS[self.kind]
        _check_keys(self.params, set(table), "domain.params")
        self.params = {
            key: parse(self.params[key], f"domain.params.{key}")
            for key, parse in sorted(table.items())
            if key in self.params
        }
        if self.kind == "levelset" and "coeffs" not in self.params:
            raise ConfigError("domain.params.coeffs is required for a levelset domain")


@dataclass
class ProblemBlock:
    theta: float
    f: FieldSpec
    phi: FieldSpec
    psi: FieldSpec


@dataclass
class FixtureBlock:
    """A manufactured solution; ``theta`` absent means the command's default."""

    name: str
    theta: float | None = None


@dataclass
class VerifyBlock:
    boundary_alpha: float = 1.0


@dataclass
class SectionsBlock:
    interior_points: list[Point] | None = None
    boundary_point: Point | None = None
    heights: list[float] = _default_list(0.125, 0.0625, 0.03125, 0.015625)
    min_nodes: int = 12
    normalize: bool = False


@dataclass
class ConvergeBlock:
    h_list: list[float] = _default_list(0.0625, 0.03125)


@dataclass
class MaBlock:
    g: FieldSpec = FieldSpec("const", 1.0)
    phi: FieldSpec = FieldSpec("poly", {"02": 0.5, "20": 0.5})


@dataclass
class LmaBlock:
    u_csv: str | None = None
    g: FieldSpec = FieldSpec("const", 0.0)
    psi: FieldSpec = FieldSpec("const", 1.0)


@dataclass
class RunConfig:
    """One field per top-level key; an optional block is None when absent."""

    domain: DomainBlock = field(
        default_factory=lambda: DomainBlock("disk", {"radius": 1.0})
    )
    problem: ProblemBlock | None = None
    fixture: FixtureBlock | None = None
    solver: CoupledOptions = field(default_factory=CoupledOptions)
    verify: VerifyBlock = field(default_factory=VerifyBlock)
    sections: SectionsBlock | None = None
    converge: ConvergeBlock | None = None
    ma: MaBlock | None = None
    lma: LmaBlock | None = None
    output_dir: str = "out"
    seed: int = 0

    def canonical(self) -> dict:
        """Canonical JSON object: defaults filled, absent blocks left out."""
        return _canonical(self)


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

_POSITIVE = (lambda x: x > 0, "must be positive")
_AT_LEAST_ONE = (lambda n: n >= 1, "must be >= 1")
_UNIT = (lambda x: 0.0 < x <= 1.0, "must be in (0, 1]")


def _one_of(options):
    return (lambda v: v in options, f"must be one of {sorted(options)}")


# "block.key" -> (predicate, message) on the parsed value; a field spec's
# payload is the block named after its form, wherever the spec sits
_RULES = {
    "domain.kind": _one_of(list(_DOMAIN_PARAMS)),
    "domain.h_grid": _POSITIVE,
    "fixture.name": _one_of(fixture_names()),
    "solver.outer_tol": _POSITIVE,
    "solver.max_outer_iters": _AT_LEAST_ONE,
    "solver.relaxation": _UNIT,
    "solver.newton_tol": _POSITIVE,
    "solver.max_newton_iters": _AT_LEAST_ONE,
    "solver.lma_tol": _POSITIVE,
    "verify.boundary_alpha": _UNIT,
    "sections.interior_points": (bool, "must be a non-empty list"),
    "sections.heights": (lambda xs: xs and min(xs) > 0, "must be nonempty, positive"),
    "sections.min_nodes": _AT_LEAST_ONE,
    "converge.h_list": (
        lambda xs: len(xs) > 1 and min(xs) > 0, "must list 2+ positive spacings"
    ),
    "gaussian.sigma": _POSITIVE,
    "abs_pow.axis": _one_of([0, 1]),
    "seed": (lambda s: s >= 0, "must be nonnegative"),
}

# field type -> parser of (value, ctx); looked up before the dataclass
# case, since FieldSpec is a dataclass too
_PARSERS = {
    float: _number,
    int: _exact(int, "an integer"),
    bool: _exact(bool, "true or false"),
    str: _exact(str, "a non-empty string"),
    dict: _require_mapping,
    Point: _point,
    Poly: _poly_coeffs,
    FieldSpec: FieldSpec.parse,
}


def _parse_value(value, kind, ctx: str):
    """``value`` read as a field of type ``kind``."""
    if kind in _PARSERS:
        return _PARSERS[kind](value, ctx)
    if get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{ctx} must be a list, got {value!r}")
        (item,) = get_args(kind)
        return [_parse_value(v, item, f"{ctx}[{i}]") for i, v in enumerate(value)]
    return _parse_block(value, kind, ctx)


def _parse_block(obj, cls, ctx: str):
    """The dataclass ``cls`` from a JSON object: its fields are the allowed
    keys, a field without a default is required, and a field's rule in
    ``_RULES`` is checked on the parsed value."""
    d = _require_mapping(obj, ctx)
    _check_keys(d, {f.name for f in fields(cls)}, ctx)
    types = get_type_hints(cls)
    prefix = "" if cls is RunConfig else f"{ctx}."
    given = {}
    for f in fields(cls):
        path = prefix + f.name
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{path} is required")
            continue
        kind = types[f.name]
        if type(None) in get_args(kind):  # an optional field, given
            kind = get_args(kind)[0]
        value = _parse_value(d[f.name], kind, path)
        rule = _RULES.get(".".join(path.split(".")[-2:]))
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{path} {rule[1]}, got {value!r}")
        given[f.name] = value
    return cls(**given)


def _canonical(value):
    """Blocks as dicts of their fields, None left out; specs as their JSON."""
    if isinstance(value, FieldSpec):
        return value.to_json()
    if not is_dataclass(value):
        return value
    items = ((f.name, getattr(value, f.name)) for f in fields(value))
    return {key: _canonical(v) for key, v in items if v is not None}


def parse_config(obj: dict) -> RunConfig:
    """Validate a decoded JSON object into a :class:`RunConfig`.

    Raises :class:`ConfigError` on unknown keys, malformed blocks, or
    out-of-range scalars.  Deeper semantic validation (theta window,
    domain convexity) happens when the run is assembled.
    """
    return _parse_block(obj, RunConfig, "config")


def load_config(path: str, **overrides) -> RunConfig:
    """Parse the config file at ``path``; each override that is not None
    first replaces its top-level key, so it obeys the same rules."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    given = {key: value for key, value in overrides.items() if value is not None}
    if given and isinstance(obj, dict):
        obj = {**obj, **given}
    return parse_config(obj)


def canonical_json(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, repr-exact floats.  A
    non-finite float raises ValueError: JSON has no literal for it."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
