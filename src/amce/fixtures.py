"""Manufactured exact solutions and their forcing terms.

Two families are provided.  Radial profiles ``u(r) = c1 r^2/2 + c2 r^4/4``
have Hessian ``(c1 + c2 r^2) I + 2 c2 x (x)^T``, hence

    det D^2 u = (c1 + c2 r^2)(c1 + 3 c2 r^2) = u''(r) u'(r) / r,

and sheared quadratics ``u(x) = |A x|^2 / 2`` with unimodular ``A`` have
constant Hessian ``A^T A`` of unit determinant.  For a weight exponent
``theta`` the linearized-equation data is ``w = (det D^2 u)^(theta-1)`` and
the forcing is the cofactor contraction ``f = U^ij w_ij``.

The forcing is evaluated by two independent routes: closed-form radial
calculus (``U : D^2 w = (u'/r) w'' + u'' (w'/r)`` for radial ``w``) and
high-order finite differences of the ``w`` callable.  Tests require the two
routes to agree to 1e-8; solver code uses the closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidShearError, NonConvexProfileError

Array = np.ndarray

# 8th-order centered difference weights on offsets -4..4.
_D1_W = np.array(
    [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
)
_D2_W = np.array(
    [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
)
_OFFSETS = np.arange(-4, 5)
FD_STEP = 1e-3


@dataclass
class ExactSolution:
    """Closed-form solution bundle for one manufactured problem."""

    name: str
    theta: float
    u: Callable[[Array], Array]
    hess_u: Callable[[Array], Array]
    w: Callable[[Array], Array]
    f: Callable[[Array], Array]  # closed-form route
    f_fd: Callable[[Array], Array]  # finite-difference route


def _fd8_forcing(
    w_fn: Callable[[Array], Array],
    hess_u: Callable[[Array], Array],
    step: float = FD_STEP,
) -> Callable[[Array], Array]:
    """Forcing via 8th-order finite differences of the weight callable.

    Each shifted point set ``p + a`` (or ``(p + a) + b``) is added one
    column at a time into one reused ``(N, 2)`` buffer: the same additions
    as broadcasting the ``(2,)`` shift over ``p``, without NumPy's inner
    loop of length two per row, which made the stencil several times slower.
    """

    def f(pts: Array) -> Array:
        p = np.asarray(pts, dtype=float)
        ex = np.array([step, 0.0])
        ey = np.array([0.0, step])
        x, y = p[:, 0].copy(), p[:, 1].copy()
        q = np.empty((2, len(p))).T  # (N, 2) with contiguous columns

        def w_shifted(a: Array, b: Array | None = None) -> Array:
            np.add(x, a[0], out=q[:, 0])
            np.add(y, a[1], out=q[:, 1])
            if b is not None:
                q[:, 0] += b[0]
                q[:, 1] += b[1]
            return w_fn(q)

        wxx = np.zeros(len(p))
        wyy = np.zeros(len(p))
        wxy = np.zeros(len(p))
        for k, off in enumerate(_OFFSETS):
            wxx += _D2_W[k] * w_shifted(off * ex)
            wyy += _D2_W[k] * w_shifted(off * ey)
        for ki, oi in enumerate(_OFFSETS):
            if _D1_W[ki] == 0.0:
                continue
            row = np.zeros(len(p))
            for kj, oj in enumerate(_OFFSETS):
                if _D1_W[kj] == 0.0:
                    continue
                row += _D1_W[kj] * w_shifted(oi * ex, oj * ey)
            wxy += _D1_W[ki] * row
        wxx /= step**2
        wyy /= step**2
        wxy /= step**2
        H = hess_u(p)
        # cofactor contraction: U11 = hyy, U22 = hxx, U12 = -hxy
        return H[:, 1, 1] * wxx - 2.0 * H[:, 0, 1] * wxy + H[:, 0, 0] * wyy

    return f


def radial_solution(
    c1: float, c2: float, theta: float, r_max: float = 1.0, name: str | None = None
) -> ExactSolution:
    """Radial manufactured solution ``u = c1 r^2/2 + c2 r^4/4``.

    Requires the profile to be uniformly convex on ``r <= r_max``: both
    Hessian eigenvalues ``u'' = c1 + 3 c2 r^2`` and ``u'/r = c1 + c2 r^2``
    must stay positive.
    """
    s_max = r_max**2
    eigs = [c1, c1 + 3 * c2 * s_max, c1 + c2 * s_max]
    if min(eigs) <= 0.0:
        raise NonConvexProfileError(
            f"radial profile c1={c1}, c2={c2} is not uniformly convex on r <= {r_max}"
        )
    t = theta - 1.0

    def s_of(p):
        return p[:, 0] ** 2 + p[:, 1] ** 2

    def u(p):
        s = s_of(p)
        return 0.5 * c1 * s + 0.25 * c2 * s**2

    def hess_u(p):
        s = s_of(p)
        H = np.zeros((len(p), 2, 2))
        base = c1 + c2 * s
        H[:, 0, 0] = base + 2 * c2 * p[:, 0] ** 2
        H[:, 1, 1] = base + 2 * c2 * p[:, 1] ** 2
        H[:, 0, 1] = H[:, 1, 0] = 2 * c2 * p[:, 0] * p[:, 1]
        return H

    def det_hess(p):
        s = s_of(p)
        return (c1 + c2 * s) * (c1 + 3 * c2 * s)

    def w(p):
        return det_hess(p) ** t

    def f(p):
        s = s_of(p)
        D = (c1 + c2 * s) * (c1 + 3 * c2 * s)
        dDds = 4 * c1 * c2 + 6 * c2**2 * s
        r = np.sqrt(s)
        Dp = 2.0 * r * dDds  # dD/dr
        Dpp = 8 * c1 * c2 + 36 * c2**2 * s  # d2D/dr2
        w_rr = t * (t - 1.0) * D ** (t - 2.0) * Dp**2 + t * D ** (t - 1.0) * Dpp
        w_r_over_r = t * D ** (t - 1.0) * 2.0 * dDds
        u_r_over_r = c1 + c2 * s
        u_rr = c1 + 3 * c2 * s
        return u_r_over_r * w_rr + u_rr * w_r_over_r

    return ExactSolution(
        name=name or f"radial(c1={c1}, c2={c2})",
        theta=float(theta),
        u=u,
        hess_u=hess_u,
        w=w,
        f=f,
        f_fd=_fd8_forcing(w, hess_u),
    )


def sheared_quadratic(A, theta: float, name: str | None = None) -> ExactSolution:
    """Sheared quadratic ``u = |A x|^2 / 2`` for unimodular ``A``.

    The Hessian is the constant matrix ``A^T A`` with determinant
    ``(det A)^2 = 1``, so the weight is identically one and the forcing
    vanishes; the interest of this fixture is the known shape of its
    sections.
    """
    A = np.asarray(A, dtype=float)
    detA = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(detA - 1.0) > 1e-12:
        raise InvalidShearError(f"shear matrix must have det 1, got det={detA!r}")
    M = A.T @ A

    def u(p):
        return 0.5 * np.einsum("ij,jk,ik->i", p, M, p)

    def hess_u(p):
        return np.broadcast_to(M, (len(p), 2, 2)).copy()

    def w(p):
        return np.ones(len(p))

    def f(p):
        return np.zeros(len(p))

    return ExactSolution(
        name=name or f"sheared(tau={A[0, 1]})",
        theta=float(theta),
        u=u,
        hess_u=hess_u,
        w=w,
        f=f,
        f_fd=_fd8_forcing(w, hess_u),
    )


# Named fixture registry used by configs and the command line.
_REGISTRY: dict[str, Callable[[float], ExactSolution]] = {
    # u = |x|^2/2: sections are disks of radius sqrt(2 h), separation 1/2.
    "paraboloid": lambda theta: radial_solution(1.0, 0.0, theta, name="paraboloid"),
    # u = |x|^2: sections are disks of radius sqrt(h), the normalization in
    # which section ellipsoid volume should track pi * h.
    "paraboloid_r2": lambda theta: radial_solution(2.0, 0.0, theta, name="paraboloid_r2"),
    # gentle quartic perturbation; forcing stays nonpositive on the disk
    "radial_mild": lambda theta: radial_solution(1.0, 0.2, theta, name="radial_mild"),
    # full-strength quartic used for convergence studies; forcing changes
    # sign near the boundary, which the sign audit reports
    "radial_quartic": lambda theta: radial_solution(1.0, 1.0, theta, name="radial_quartic"),
    "sheared_half": lambda theta: sheared_quadratic(
        np.array([[1.0, 0.5], [0.0, 1.0]]), theta, name="sheared_half"
    ),
}


def fixture_names() -> list[str]:
    return sorted(_REGISTRY)


def get_fixture(name: str, theta: float) -> ExactSolution:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    return factory(theta)
