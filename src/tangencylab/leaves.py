"""Invariant leaves and the image arc family.

A seed arc ``alpha_0 = graph(y0)`` crosses the stable axis transversely at
(0, z0).  Its forward images under the saddle map are graphs again,

    y_n(x) = lam^n * y0(mu^-n * x),

and the window of interest is the slab where x = t + 1 stays inside
[(1+eps)^-3, (1+eps)^3].  The other two actors are the stable leaf through
q (graph x -> v(x), cubically tangent to the unstable axis) and the unstable
leaf through r (graph of the image of the unstable axis near r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .model import _MEMBERSHIP_TOL, ModelSystem, Point, _phi_jacobian, _phi_parts, _poly, signed_power
from .numerics import Polynomial, line_fit, real_roots, solve_newton

__all__ = [
    "SeedArc",
    "ArcPoint",
    "t_window",
    "arc_height",
    "alpha",
    "stable_leaf_v",
    "unstable_leaf_w",
    "tangency_samples",
    "tangency_order",
]


@dataclass(frozen=True)
class SeedArc:
    """Polynomial seed arc y0 over a domain containing 0 and 1.

    ``coeffs`` are ascending polynomial coefficients; y0 must be positive on
    the whole domain so every image arc stays on one side of the unstable
    axis: y0's least value is taken at an end of the domain or at a sign
    change of y0' (``real_roots``), so no dip hides between samples.
    """

    domain: tuple[float, float]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < 0.0 < 1.0 < hi):
            raise DomainError("seed domain must contain 0 and 1 in its interior")
        if not self.coeffs:
            raise DomainError("seed polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        for i, c in enumerate(self.coeffs):
            if not math.isfinite(c):
                raise DomainError(f"seed coefficient {i} must be finite, got {c!r}")
        if self.z0 <= 0.0:
            raise DomainError("seed must cross the stable axis at positive height")
        if min(map(self.eval, (lo, hi, *real_roots(Polynomial(self.coeffs).derivative(), lo, hi)))) <= 0.0:
            raise DomainError("seed arc must be positive on its whole domain")

    @property
    def z0(self) -> float:
        return self.coeffs[0]

    def eval(self, x: float) -> float:
        """y0(x) by Horner's rule, which rounds as np.polyval does.  ``x`` may
        be a numpy array or a Polynomial."""
        return Polynomial(self.coeffs)(x)

    def contains(self, x: float) -> bool:
        """x inside the domain up to _MEMBERSHIP_TOL; ``x`` may be a numpy array."""
        return (self.domain[0] - _MEMBERSHIP_TOL <= x) & (x <= self.domain[1] + _MEMBERSHIP_TOL)


class ArcPoint(NamedTuple):
    """A point of the n-th image arc."""

    n: int
    t: float
    point: Point


def t_window(sys: ModelSystem) -> tuple[float, float]:
    """Parameter window for the arcs: t + 1 in [(1+eps)^-3, (1+eps)^3]."""
    u = 1.0 + sys.epsilon
    return (u**-3 - 1.0, u**3 - 1.0)


def _in_window(sys: ModelSystem, t: float) -> bool:
    """t inside ``t_window`` up to _MEMBERSHIP_TOL; ``t`` may be a numpy array."""
    lo, hi = t_window(sys)
    return (lo - _MEMBERSHIP_TOL <= t) & (t <= hi + _MEMBERSHIP_TOL)


def _pullback(sys: ModelSystem, n: int, t: float) -> float:
    """mu^-n (t + 1), the seed abscissa under the n-th arc's parameter t."""
    return signed_power(sys.mu, -n) * (t + 1.0)


def _height(sys: ModelSystem, n: int, x: float) -> float:
    """y_n = lam^n y0(x) over the seed abscissa x = ``_pullback(sys, n, t)``."""
    return signed_power(sys.lam, n) * sys.seed.eval(x)


def arc_height(sys: ModelSystem, n: int, t: float) -> float:
    """y-level of the n-th arc at parameter t (may underflow to 0 for deep n)."""
    return _height(sys, n, _pullback(sys, n, t))


def alpha(sys: ModelSystem, n: int, t: float) -> ArcPoint:
    """Parametrization (t + 1, y_n(t + 1)) of the n-th arc over the window."""
    if n < 0:
        raise DomainError("arc index must be nonnegative")
    if not _in_window(sys, t):
        lo, hi = t_window(sys)
        raise DomainError(f"t={t:g} outside arc window [{lo:g}, {hi:g}]")
    x = _pullback(sys, n, t)
    if not sys.seed.contains(x):
        raise DomainError(f"arc preimage {x:g} outside the seed domain")
    return ArcPoint(n, t, (t + 1.0, _height(sys, n, x)))


def stable_leaf_v(sys: ModelSystem, x: float) -> float:
    """Height v(x) of the stable leaf through q over 1 + x.

    Defined by pr_x(phi(1 + x, v(x))) = 0; the leaf is cubically tangent to
    the unstable axis, v(x) ~ -(c/a) x^3.
    """
    if abs(x) > sys.uq_half_width:
        raise DomainError(f"offset {x:g} outside U(q)")
    t = sys.transition
    if t.a == 0.0:
        raise DomainError("stable leaf needs a != 0")
    if x == 0.0:
        return 0.0
    seed = -(t.c / t.a) * x**3

    def f(y: float) -> float:
        return _phi_parts(sys, x, y)[0]

    def fprime(y: float) -> float:
        return _phi_jacobian(sys, x, y)[0][1]

    tol = 1e-14 * max(abs(t.c * x**3), 1e-300)
    half = max(8.0 * abs(seed), 1e-12)
    return solve_newton(f, fprime, seed, tol=tol, bracket=(seed - half, seed + half))


def unstable_leaf_w(sys: ModelSystem, y_offset: float) -> float:
    """x-coordinate w of the unstable leaf through r at height 1 + y_offset.

    The leaf is phi(unstable axis); w(s)/s^3 -> c/d^3 as the height offset
    s -> 0, the mirror image of the cubic tangency at q.
    """
    if abs(y_offset) > sys.ur_half_width:
        raise DomainError(f"offset {y_offset:g} outside U(r)")
    t = sys.transition
    if t.d == 0.0:
        raise DomainError("unstable leaf needs d != 0")
    if y_offset == 0.0:
        return 0.0

    def f(u: float) -> float:
        return t.d * u + _poly(t.h2_terms, u, 0.0) - y_offset

    def fprime(u: float) -> float:
        return _phi_jacobian(sys, u, 0.0)[1][0]

    seed = y_offset / t.d
    tol = 1e-14 * max(abs(y_offset), 1e-300)
    half = max(8.0 * abs(seed), 1e-12)
    u = solve_newton(f, fprime, seed, tol=tol, bracket=(seed - half, seed + half))
    if abs(u) > sys.uq_half_width:
        raise DomainError("leaf parameter left U(q)")
    return _phi_parts(sys, u, 0.0)[0]


def tangency_samples(sys: ModelSystem, xs) -> list[tuple[float, float]]:
    """(distance to q, distance to the unstable axis) pairs along the stable
    leaf through q, the raw data for the order estimate."""
    out = []
    for x in xs:
        v = stable_leaf_v(sys, float(x))
        out.append((math.hypot(x, v), abs(v)))
    return out


def tangency_order(samples) -> tuple[float, float]:
    """Contact order and limit coefficient from (d_point, d_leaf) samples.

    Fits log d_leaf against log d_point with :func:`numerics.line_fit`: the
    order is the slope, and the coefficient is exp of the intercept, which is
    the geometric mean of d_leaf / d_point**order.  Samples must be positive,
    at least 8 of them, spanning at least two decades in d_point.
    """
    pts = [(float(p), float(l)) for p, l in samples]
    if len(pts) < 8:
        raise DomainError("order estimate needs at least 8 samples")
    if any(p <= 0.0 or l <= 0.0 for p, l in pts):
        raise DomainError("degenerate sample: distances must be positive")
    dp = np.array([p for p, _ in pts])
    dl = np.array([l for _, l in pts])
    if dp.max() / dp.min() < 100.0:
        raise DomainError("samples must span at least two decades")
    order, log_coefficient = line_fit(np.log(dp), np.log(dl))
    return order, math.exp(log_coefficient)
