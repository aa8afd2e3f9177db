"""Fold rectangles S_n around the images of the arc family.

phi folds the n-th arc into a cubic hook near r.  The hook has exactly two
vertical tangencies; S_n is the smallest closed rectangle whose vertical
sides pass through them and whose horizontal sides cap the curve between the
*extended* parameters, the parameters past each tangency whose images share
an abscissa with the opposite tangency.  Widths, heights and the distance to
the stable axis of these rectangles obey clean |lam|^(n/2) power laws, which
is what most of the tests downstream lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .cases import classify_system
from .errors import (
    DomainError,
    NoVerticalTangencyError,
    NotFoundError,
    NumericError,
    WindowExceededError,
)
from .leaves import _arc_jet, alpha, arc_height, t_window
from .model import ModelSystem, Point, Rect, _phi_jacobian, _phi_parts, phi_x_derivatives
from .numerics import solve_newton

__all__ = [
    "SnRectangle",
    "fold_point",
    "fold_x",
    "fold_velocity",
    "fold_x_d1",
    "fold_x_d2",
    "vertical_params",
    "extended_params",
    "build_sn",
    "level_range",
    "fold_rectangles",
    "first_valid_n",
    "scaling_fit",
]


def fold_point(sys: ModelSystem, n: int, t: float) -> Point:
    """phi(alpha_n(t)), a point of the folded curve near r, with alpha's
    window and seed-domain checks.  phi is evaluated at the offset t itself,
    so the abscissa is ``fold_x`` to the bit."""
    return _phi_parts(sys, t, alpha(sys, n, t).point[1])


def fold_x(sys: ModelSystem, n: int, t: float) -> float:
    """Abscissa of the folded curve, X(t) = pr_x(phi(alpha_n(t))).

    Raw arithmetic, no window checks: the tangency solvers may probe slightly
    outside the window while bracketing.  ``t`` may be a numpy array.
    """
    return _phi_parts(sys, t, arc_height(sys, n, t))[0]


def fold_velocity(sys: ModelSystem, n: int, t: float) -> Point:
    """Tangent (X'(t), Y'(t)) of the folded curve by the chain rule through
    the arc graph; raw arithmetic like ``fold_x``."""
    y, dy = _arc_jet(sys, n, t, 1)
    (fx, fy), (gx, gy) = _phi_jacobian(sys, t, y)
    return (fx + fy * dy, gx + gy * dy)


def fold_x_d1(sys: ModelSystem, n: int, t: float) -> float:
    """X'(t)."""
    return fold_velocity(sys, n, t)[0]


def fold_x_d2(sys: ModelSystem, n: int, t: float) -> float:
    """X''(t), the derivative of X' = Fx + Fy * y'."""
    y, dy, d2y = _arc_jet(sys, n, t, 2)
    _, fy, fxx, fxy, fyy = phi_x_derivatives(sys, t, y)
    return fxx + 2.0 * fxy * dy + fyy * dy * dy + fy * d2y


def vertical_params(sys: ModelSystem, n: int) -> tuple[float, float]:
    """Parameters (t_minus, t_plus) of the two vertical tangencies of the
    n-th fold, i.e. the interior zeros of X'.

    To leading order X'(t) = b*y_n(0) + 3c*t^2, so a real pair exists exactly
    when -b*y_n(0)/(3c) > 0; the square root of that quantity seeds Newton.
    """
    if n < 1:
        raise DomainError("fold index must be at least 1")
    if n > sys.n_max:
        raise DomainError(f"n={n} beyond resolvable depth n_max={sys.n_max}")
    tr = sys.transition
    if tr.b == 0.0 or tr.c == 0.0:
        raise NoVerticalTangencyError("a fold pair needs b != 0 and c != 0")
    y0 = arc_height(sys, n, 0.0)
    radicand = -tr.b * y0 / (3.0 * tr.c)
    if radicand <= 0.0:
        raise NoVerticalTangencyError(
            f"level n={n} has sign(b*y) = sign(3c); no real tangency pair"
        )
    seed = math.sqrt(radicand)
    lo, hi = t_window(sys)
    if not (lo < -seed and seed < hi):
        raise WindowExceededError(
            f"tangency estimate +-{seed:.6g} outside the arc window [{lo:.6g}, {hi:.6g}]"
        )
    # X' is a sum of terms of size |b*y| and 3|c|t^2; resolve its zero to
    # fourteen digits of that scale.
    tol = 1e-14 * (abs(tr.b * y0) + 3.0 * abs(tr.c) * radicand)
    g, gp = partial(fold_x_d1, sys, n), partial(fold_x_d2, sys, n)
    t_plus = solve_newton(g, gp, seed, tol=tol, bracket=(0.25 * seed, min(hi, 4.0 * seed)))
    t_minus = solve_newton(g, gp, -seed, tol=tol, bracket=(max(lo, -4.0 * seed), -0.25 * seed))
    if not (t_minus < 0.0 < t_plus):
        raise NumericError(f"tangency pair ({t_minus:g}, {t_plus:g}) out of order")
    return t_minus, t_plus


def extended_params(sys: ModelSystem, n: int, t_minus: float, t_plus: float) -> tuple[float, float]:
    """(t_ext_minus, t_ext_plus): the parameter below t_minus whose image has
    the abscissa of the t_plus tangency, and vice versa.

    These cap the hook: the curve piece over [t_ext_minus, t_ext_plus] is the
    part of the arc image that stays inside the vertical strip between the
    tangencies.  Raises WindowExceededError when a cap lands outside the arc
    window (the fold is too fat for the chart at this level).
    """
    lo, hi = t_window(sys)
    x_minus = fold_x(sys, n, t_minus)
    x_plus = fold_x(sys, n, t_plus)
    tol = 1e-13 * max(abs(x_plus - x_minus), 1e-300)
    # Leading-order cubic puts each cap at minus twice the opposite tangency.
    t_ext_plus = _match_abscissa(sys, n, x_minus, t_plus, hi, -2.0 * t_minus, tol)
    t_ext_minus = _match_abscissa(sys, n, x_plus, lo, t_minus, -2.0 * t_plus, tol)
    return t_ext_minus, t_ext_plus


def _match_abscissa(sys: ModelSystem, n: int, target: float, lo: float, hi: float, seed: float, tol: float) -> float:
    """The t in [lo, hi] with fold_x(t) == target to within tol, by Newton on
    fold_x_d1 from ``seed`` with bisection on the bracket as fallback."""

    def g(t: float) -> float:
        return fold_x(sys, n, t) - target

    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise WindowExceededError(
            f"fold cap at abscissa {target:.6g} is not reached inside [{lo:.6g}, {hi:.6g}]"
        )
    if not (lo < seed < hi):
        seed = 0.5 * (lo + hi)
    return solve_newton(g, partial(fold_x_d1, sys, n), seed, tol=tol, bracket=(lo, hi))


@dataclass(frozen=True)
class SnRectangle:
    """Fold rectangle at level n with the parameters that carved it.

    ``fold_points`` are the images of (t_ext_minus, t_minus, t_plus,
    t_ext_plus); the first and last sit on the rectangle sides up to solver
    tolerance, the middle two exactly.  ``rho`` is the cap half-gap
    (t_ext_plus - t_plus) rescaled by |lam|^(n/2); it tends to a constant.
    """

    n: int
    t_minus: float
    t_plus: float
    t_ext_minus: float
    t_ext_plus: float
    rect: Rect
    rho: float
    fold_points: tuple[Point, Point, Point, Point]

    @property
    def width(self) -> float:
        return self.rect.width

    @property
    def height(self) -> float:
        return self.rect.height

    @property
    def branches(self) -> tuple[tuple[float, float], ...]:
        """Parameter intervals of the three x-monotone branches of the fold:
        left tail, hook and right tail."""
        ts = (self.t_ext_minus, self.t_minus, self.t_plus, self.t_ext_plus)
        return tuple(zip(ts, ts[1:]))

    @property
    def dist(self) -> float:
        """Distance from the rectangle to the stable axis x = 0."""
        if self.rect.x_lo > 0.0:
            return self.rect.x_lo
        if self.rect.x_hi < 0.0:
            return -self.rect.x_hi
        return 0.0


_CURVE_SAMPLES = 257
_SN_CACHE: dict[tuple[ModelSystem, int], SnRectangle] = {}


def build_sn(sys: ModelSystem, n: int) -> SnRectangle:
    """Construct S_n: solve for the tangency pair and the caps, bound the
    curve piece between the caps, and sanity-check that the piece never
    escapes the vertical strip between the tangencies.

    Each S_n is built once per (system, n) and shared afterwards; systems
    are frozen and compare by value, so an equal system built elsewhere gets
    the same object.  A failed build is not stored and raises on every call.
    """
    S = _SN_CACHE.get((sys, n))
    if S is not None:
        return S
    t_minus, t_plus = vertical_params(sys, n)
    t_ext_minus, t_ext_plus = extended_params(sys, n, t_minus, t_plus)
    params = (t_ext_minus, t_minus, t_plus, t_ext_plus)
    pts = tuple(fold_point(sys, n, t) for t in params)
    x_lo = min(pts[1][0], pts[2][0])
    x_hi = max(pts[1][0], pts[2][0])

    # linspace returns both ends exactly: they are pts[0] and pts[3].
    ts = np.linspace(t_ext_minus, t_ext_plus, _CURVE_SAMPLES)[1:-1]
    curve = [pts[0], *(fold_point(sys, n, float(t)) for t in ts), pts[3]]
    ys = [p[1] for p in curve] + [pts[1][1], pts[2][1]]
    y_lo, y_hi = min(ys), max(ys)

    width = x_hi - x_lo
    ctol = 1e-9 * width + 1e-14 * max(abs(x_lo), abs(x_hi))
    overshoot = max(max(x_lo - p[0], p[0] - x_hi) for p in curve)
    if overshoot > ctol:
        raise NumericError(
            "fold piece escapes the strip between its tangencies", residual=overshoot
        )

    rect = Rect(x_lo, x_hi, y_lo, y_hi)
    for corner in rect.corners():
        if not sys.in_ur(corner):
            raise DomainError(f"S_{n} sticks out of U(r): corner {corner}")
    rho = (t_ext_plus - t_plus) / abs(sys.lam) ** (0.5 * n)
    S = _SN_CACHE[sys, n] = SnRectangle(
        n=n,
        t_minus=t_minus,
        t_plus=t_plus,
        t_ext_minus=t_ext_minus,
        t_ext_plus=t_ext_plus,
        rect=rect,
        rho=rho,
        fold_points=pts,
    )
    return S


def level_range(sys: ModelSystem, lo: int, hi: int) -> range:
    """Levels lo..hi of the parity the sign case realizes (every other
    level for lam < 0), cut at the resolvable depth ``sys.n_max``."""
    parity = classify_system(sys)[1].n_parity
    if parity != "all" and lo % 2 != (parity == "odd"):
        lo += 1
    return range(lo, min(hi, sys.n_max) + 1, 1 if parity == "all" else 2)


def fold_rectangles(sys: ModelSystem, lo: int, hi: int) -> Iterator[SnRectangle]:
    """S_n for each level of ``level_range(sys, lo, hi)`` whose fold
    rectangle is fully realized inside the arc window; levels whose
    tangencies or caps do not fit are skipped."""
    for n in level_range(sys, lo, hi):
        try:
            S = build_sn(sys, n)
        except WindowExceededError:
            continue
        yield S


def first_valid_n(sys: ModelSystem) -> int:
    """Smallest level that ``fold_rectangles`` realizes."""
    for S in fold_rectangles(sys, 1, sys.n_max):
        return S.n
    raise NotFoundError(f"no realizable fold rectangle up to n_max={sys.n_max}")


def scaling_fit(pairs, lam: float) -> tuple[float, float]:
    """Fit value ~ C * |lam|^(kappa * n) over (n, value) pairs.

    Returns (kappa, C) from least squares on log(value) against
    n * log|lam|.  Needs at least five levels and positive values.
    """
    pts = [(int(n), float(v)) for n, v in pairs]
    if len(pts) < 5:
        raise DomainError("scaling fit needs at least five levels")
    if any(v <= 0.0 for _, v in pts):
        raise DomainError("scaling fit needs positive values")
    xs = np.array([n * math.log(abs(lam)) for n, _ in pts])
    ys = np.log(np.array([v for _, v in pts]))
    kappa, intercept = np.polyfit(xs, ys, 1)
    return float(kappa), float(math.exp(intercept))
