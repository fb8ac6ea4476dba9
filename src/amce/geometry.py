"""Bounded uniformly convex planar domains.

A domain is described by a smooth defining function ``F`` with ``F < 0``
inside, ``F = 0`` on the boundary and ``grad F != 0`` there.  Uniform
convexity means the boundary curve ``F = 0`` has positive curvature
everywhere; :func:`build_domain` checks it for level-set domains.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InvalidDomainError

Array = np.ndarray

_N_BOUNDARY_SAMPLES = 1024


class Domain:
    """Base class; subclasses provide the defining function and derivatives,
    and a ``center_xy`` pair inside the domain.  Every point query takes an
    ``(n, 2)`` array (``boundary_point`` an array of angles) and returns an
    array with one entry or row per point."""

    def level(self, pts: Array) -> Array:
        raise NotImplementedError

    def grad(self, pts: Array) -> Array:
        raise NotImplementedError

    def hess(self, pts: Array) -> Array:
        raise NotImplementedError

    @property
    def center(self) -> Array:
        return np.array(self.center_xy, dtype=float)

    # --- derived geometry -------------------------------------------------

    def contains(self, pts: Array) -> Array:
        """Strict interior test."""
        return self.level(pts) < 0.0

    def bbox(self) -> tuple[float, float, float, float]:
        pts = self.boundary_samples(_N_BOUNDARY_SAMPLES)
        return (
            float(pts[:, 0].min()),
            float(pts[:, 0].max()),
            float(pts[:, 1].min()),
            float(pts[:, 1].max()),
        )

    def boundary_point(self, angles: Array) -> Array:
        """Boundary points along the rays from the center at ``angles``.

        The domain is convex and the center is interior, so each ray meets
        the boundary exactly once; the crossing is found by bisection.
        """
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        c = self.center
        # Expand until outside, then bisect the crossing of F = 0.
        t_hi = np.full(len(angles), 1e-3)
        for _ in range(200):
            outside = self.level(c + t_hi[:, None] * u) >= 0.0
            if outside.all():
                break
            t_hi = np.where(outside, t_hi, t_hi * 2.0)
        else:
            raise InvalidDomainError("domain appears unbounded along a ray")
        t_lo = np.zeros_like(t_hi)
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            inside = self.level(c + t_mid[:, None] * u) < 0.0
            t_lo = np.where(inside, t_mid, t_lo)
            t_hi = np.where(inside, t_hi, t_mid)
        t = 0.5 * (t_lo + t_hi)
        return c + t[:, None] * u

    def boundary_samples(self, n: int = _N_BOUNDARY_SAMPLES) -> Array:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return self.boundary_point(angles)

    def inner_normal(self, pts: Array) -> Array:
        """Unit inner normal at (near-)boundary points, ``-grad F / |grad F|``."""
        g = self.grad(pts)
        return -g / np.linalg.norm(g, axis=1, keepdims=True)

    def boundary_curvature(self, pts: Array) -> Array:
        """Curvature of the level curve F = 0 (positive for convex domains)."""
        g = self.grad(pts)
        H = self.hess(pts)
        gx, gy = g[:, 0], g[:, 1]
        num = (
            H[:, 0, 0] * gy * gy
            - 2.0 * H[:, 0, 1] * gx * gy
            + H[:, 1, 1] * gx * gx
        )
        return num / np.linalg.norm(g, axis=1) ** 3

    def distance_to_boundary(self, pts: Array) -> Array:
        """Approximate distance to the boundary: the nearest dense boundary sample."""
        s = self._dense_boundary
        return np.array([np.sqrt(np.min(np.sum((s - q) ** 2, axis=1))) for q in pts])

    @cached_property
    def _dense_boundary(self) -> Array:
        return self.boundary_samples(4096)

    @property
    def diameter(self) -> float:
        pts = self.boundary_samples(512)
        # Max pairwise distance over a dense boundary sample.
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(d2.max()))


@dataclass(frozen=True)
class Disk(Domain):
    radius: float
    center_xy: tuple[float, float] = (0.0, 0.0)

    def level(self, pts: Array) -> Array:
        d = pts - self.center
        return np.einsum("ij,ij->i", d, d) - self.radius**2

    def grad(self, pts: Array) -> Array:
        return 2.0 * (pts - self.center)

    def hess(self, pts: Array) -> Array:
        return np.broadcast_to(2.0 * np.eye(2), (len(pts), 2, 2)).copy()

    @property
    def diameter(self) -> float:
        return 2.0 * float(self.radius)

    def distance_to_boundary(self, pts: Array) -> Array:
        return self.radius - np.linalg.norm(pts - self.center, axis=1)

    def boundary_point(self, angles: Array) -> Array:
        return self.center + self.radius * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )


@dataclass(frozen=True)
class Ellipse(Domain):
    a: float  # semi-axis along x
    b: float  # semi-axis along y
    center_xy: tuple[float, float] = (0.0, 0.0)

    def level(self, pts: Array) -> Array:
        d = pts - self.center
        return (d[:, 0] / self.a) ** 2 + (d[:, 1] / self.b) ** 2 - 1.0

    def grad(self, pts: Array) -> Array:
        d = pts - self.center
        return np.stack([2.0 * d[:, 0] / self.a**2, 2.0 * d[:, 1] / self.b**2], axis=1)

    def hess(self, pts: Array) -> Array:
        H = np.zeros((len(pts), 2, 2))
        H[:, 0, 0] = 2.0 / self.a**2
        H[:, 1, 1] = 2.0 / self.b**2
        return H

    @property
    def diameter(self) -> float:
        return 2.0 * float(max(self.a, self.b))

    def boundary_point(self, angles: Array) -> Array:
        # Parameterize by the angle of the scaled circle; rays from the
        # center hit these same points, just at a different angle label.
        return self.center + np.stack(
            [self.a * np.cos(angles), self.b * np.sin(angles)], axis=1
        )


@dataclass(frozen=True)
class LevelSetDomain(Domain):
    """Domain ``{F < 0}`` for user-supplied smooth convex ``F``."""

    f: Callable[[Array], Array]
    f_grad: Callable[[Array], Array]
    f_hess: Callable[[Array], Array]
    center_xy: tuple[float, float] = (0.0, 0.0)

    def level(self, pts: Array) -> Array:
        return np.asarray(self.f(pts), dtype=float)

    def grad(self, pts: Array) -> Array:
        return np.asarray(self.f_grad(pts), dtype=float)

    def hess(self, pts: Array) -> Array:
        return np.asarray(self.f_hess(pts), dtype=float)


def polynomial_levelset(
    coeffs: dict[str, float], level: float = 1.0, center=(0.0, 0.0)
) -> LevelSetDomain:
    """Level-set domain ``sum c_ij x^i y^j < level``.

    Keys of ``coeffs`` are two-character strings of the exponents, e.g.
    ``{"20": 1.0, "02": 2.0, "40": 0.5}`` for ``x^2 + 2 y^2 + 0.5 x^4``.
    """
    terms = []
    for key, c in coeffs.items():
        if len(key) != 2 or not key.isdigit():
            raise InvalidDomainError(f"bad monomial key {key!r}")
        terms.append((int(key[0]), int(key[1]), float(c)))

    def f(p):
        x, y = p[:, 0], p[:, 1]
        out = np.full(len(p), -float(level))
        for i, j, c in terms:
            out += c * x**i * y**j
        return out

    def f_grad(p):
        x, y = p[:, 0], p[:, 1]
        g = np.zeros((len(p), 2))
        for i, j, c in terms:
            if i > 0:
                g[:, 0] += c * i * x ** (i - 1) * y**j
            if j > 0:
                g[:, 1] += c * j * x**i * y ** (j - 1)
        return g

    def f_hess(p):
        x, y = p[:, 0], p[:, 1]
        H = np.zeros((len(p), 2, 2))
        for i, j, c in terms:
            if i > 1:
                H[:, 0, 0] += c * i * (i - 1) * x ** (i - 2) * y**j
            if j > 1:
                H[:, 1, 1] += c * j * (j - 1) * x**i * y ** (j - 2)
            if i > 0 and j > 0:
                H[:, 0, 1] += c * i * j * x ** (i - 1) * y ** (j - 1)
        H[:, 1, 0] = H[:, 0, 1]
        return H

    return LevelSetDomain(f=f, f_grad=f_grad, f_hess=f_hess, center_xy=tuple(center))


def build_domain(kind: str, params: dict) -> Domain:
    """Construct and validate a domain from config-style parameters.

    Raises InvalidDomainError for degenerate or non-convex input.
    """
    if kind == "disk":
        r = float(params.get("radius", 1.0))
        if not np.isfinite(r) or r <= 0.0:
            raise InvalidDomainError(f"disk radius must be positive, got {r}")
        return Disk(radius=r, center_xy=tuple(params.get("center", (0.0, 0.0))))
    if kind == "ellipse":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0 or b <= 0.0:
            raise InvalidDomainError(
                f"ellipse semi-axes must be positive, got a={a}, b={b}"
            )
        return Ellipse(a=a, b=b, center_xy=tuple(params.get("center", (0.0, 0.0))))
    if kind == "levelset":
        dom = polynomial_levelset(
            params["coeffs"],
            level=float(params.get("level", 1.0)),
            center=params.get("center", (0.0, 0.0)),
        )
        _validate_levelset(dom)
        return dom
    raise InvalidDomainError(f"unknown domain kind {kind!r}")


def _validate_levelset(dom: LevelSetDomain) -> None:
    if dom.level(dom.center[None, :])[0] >= 0.0:
        raise InvalidDomainError("center is not interior to the level set")
    pts = dom.boundary_samples(512)  # raises if unbounded along a ray
    kappa = dom.boundary_curvature(pts)
    if kappa.min() <= 0.0:
        raise InvalidDomainError("level-set boundary is not uniformly convex")
    # The defining function itself should be convex where we evaluate it.
    probes = dom.center + (pts - dom.center) * np.linspace(0.1, 1.0, 4)[:, None, None]
    H = dom.hess(probes.reshape(-1, 2))
    tr = H[:, 0, 0] + H[:, 1, 1]
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] ** 2
    if (tr <= 0).any() or (det < -1e-12).any():
        raise InvalidDomainError("defining function is not convex on the domain")
