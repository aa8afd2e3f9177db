"""Fold rectangles S_n around the images of the arc family.

phi folds the n-th arc into a cubic hook near r.  The hook has exactly two
vertical tangencies; S_n is the smallest closed rectangle whose vertical
sides pass through them and whose horizontal sides cap the curve between the
*extended* parameters, the parameters past each tangency whose images share
an abscissa with the opposite tangency.  Widths, heights and the distance to
the stable axis of these rectangles obey clean |lam|^(n/2) power laws, which
is what most of the tests downstream lean on.

The folded curve (X, Y)(t) = phi(alpha_n(t)) is a polynomial in t for every
system the model admits, so tangencies, caps and the extremes of Y are real
roots of polynomials, isolated between the zeros of their derivatives and
polished by ``numerics.real_roots``; ``numerics.root_count`` counts them
without polishing any.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .cases import classify_system
from .errors import (
    DomainError,
    NoVerticalTangencyError,
    NotFoundError,
    NumericError,
    WindowExceededError,
)
from .leaves import alpha, arc_height, t_window
from .model import ModelSystem, Point, Rect, _phi_parts
from .numerics import Polynomial, line_fit, real_roots, root_count

__all__ = [
    "SnRectangle",
    "fold_point",
    "fold_x",
    "fold_velocity",
    "vertical_params",
    "extended_params",
    "build_sn",
    "level_range",
    "fold_rectangles",
    "first_valid_n",
    "scaling_fit",
]

Fold = tuple[float, Polynomial, Polynomial]  # (scale, X(s), Y(s)), s = t / scale


def fold_point(sys: ModelSystem, n: int, t: float) -> Point:
    """phi(alpha_n(t)), a point of the folded curve near r, with alpha's
    window and seed-domain checks.  phi is evaluated at the offset t itself,
    so the abscissa is ``fold_x`` of the float t to the bit."""
    return _phi_parts(sys, t, alpha(sys, n, t).point[1])


def fold_x(sys: ModelSystem, n: int, t: float) -> float:
    """Abscissa of the folded curve, X(t) = pr_x(phi(alpha_n(t))), by raw
    arithmetic without window checks.  ``t`` may be a numpy array; numpy's
    power does not round like libm's, so an array's abscissas may differ
    from the floats' in the last bits."""
    return _phi_parts(sys, t, arc_height(sys, n, t))[0]


def fold_velocity(sys: ModelSystem, n: int, t: float) -> Point:
    """Tangent (X'(t), Y'(t)) of the folded curve, the derivatives of its
    polynomials; raw arithmetic like ``fold_x``, and the same bits on a
    numpy array as on its floats."""
    scale, x, y = _fold(sys, n)
    return (x.derivative()(t / scale) / scale, y.derivative()(t / scale) / scale)


_FOLD_CACHE: dict[tuple[ModelSystem, int], Fold] = {}


def _fold(sys: ModelSystem, n: int) -> Fold:
    """(scale, X, Y): the folded curve as polynomials in s = t / scale,
    scale = |lam|^(n/2), the width of the hook in t, so the coefficients of
    X past the constant are all of order |lam|^(3n/2).  ``fold_x``'s own
    arithmetic, run on the polynomial t = scale * s, gives them.  Kept per
    (system, n) like ``build_sn``'s S_n."""
    fold = _FOLD_CACHE.get((sys, n))
    if fold is None:
        scale = abs(sys.lam) ** (0.5 * n)
        t = Polynomial((0.0, scale))
        fold = _FOLD_CACHE[sys, n] = (scale, *_phi_parts(sys, t, arc_height(sys, n, t)))
    return fold


def _deflated(p: Polynomial, r: float) -> Polynomial:
    """(p(s) - p(r)) / (s - r)^2 at a zero r of p', by two synthetic
    divisions that drop their remainders p(r) and p'(r)."""
    for _ in range(2):
        q = [p[-1]]
        for c in reversed(p[1:-1]):
            q.append(c + r * q[-1])
        p = Polynomial(reversed(q))
    return p


def _rise(p: Polynomial, s: float) -> float:
    """p(s) - p(0), evaluated without the constant term."""
    return s * Polynomial(p[1:])(s)


def vertical_params(sys: ModelSystem, n: int) -> tuple[float, float]:
    """Parameters (t_minus, t_plus) of the two vertical tangencies of the
    n-th fold: the zeros of X' nearest to t = 0 on either side.

    To leading order X'(t) = b*y_n(0) + 3c*t^2, so a real pair exists exactly
    when -b*y_n(0)/(3c) > 0.  Both sides are searched as positive roots of
    X'(-s) and X'(s) on one interval; an even X' is its own mirror, so it
    is searched once and gives t_minus = -t_plus exactly.  No zero on a
    side raises NoVerticalTangencyError, a zero outside the arc window
    WindowExceededError."""
    if n < 1:
        raise DomainError("fold index must be at least 1")
    if n > sys.n_max:
        raise DomainError(f"n={n} beyond resolvable depth n_max={sys.n_max}")
    if sys.transition.b == 0.0 or sys.transition.c == 0.0:
        raise NoVerticalTangencyError("a fold pair needs b != 0 and c != 0")
    scale, x, _ = _fold(sys, n)
    lo, hi = t_window(sys)
    dx = x.derivative().trimmed()
    reach = 1.0 + max(map(abs, dx)) / abs(dx[-1])  # Cauchy's bound on |root|
    mirrored = Polynomial(-c if k % 2 else c for k, c in enumerate(dx))
    below = real_roots(mirrored, 0.0, reach)
    above = below if mirrored == dx else real_roots(dx, 0.0, reach)
    pair = []
    for side, roots, edge in (("below", below, -lo), ("above", above, hi)):
        if not roots:
            raise NoVerticalTangencyError(f"X' has no zero {side} t = 0 at level n={n}; no real tangency pair")
        if roots[0] * scale > edge:
            raise WindowExceededError(f"a tangency of level n={n} lies outside the arc window [{lo:.6g}, {hi:.6g}]")
        pair.append(roots[0] * scale)
    return -pair[0], pair[1]


def extended_params(sys: ModelSystem, n: int, t_minus: float, t_plus: float) -> tuple[float, float]:
    """(t_ext_minus, t_ext_plus): the parameter below t_minus whose image has
    the abscissa of the t_plus tangency, and vice versa.

    These cap the hook: the curve piece over [t_ext_minus, t_ext_plus] is the
    part of the arc image that stays inside the vertical strip between the
    tangencies.  Each cap is the root of (X(s) - X(s_tan)) / (s - s_tan)^2
    nearest to the tangency it leaves from; WindowExceededError when it is
    outside the arc window (the fold is too fat for the chart at this level).
    """
    scale, x, _ = _fold(sys, n)
    lo, hi = t_window(sys)
    s_minus, s_plus = t_minus / scale, t_plus / scale
    ext_plus = real_roots(_deflated(x, s_minus), s_plus, hi / scale)
    ext_minus = real_roots(_deflated(x, s_plus), lo / scale, s_minus)
    if not (ext_minus and ext_plus):
        raise WindowExceededError(f"a fold cap of level n={n} is not reached inside the arc window [{lo:.6g}, {hi:.6g}]")
    return ext_minus[-1] * scale, ext_plus[0] * scale


class SnRectangle(NamedTuple):
    """Fold rectangle at level n with the parameters that carved it.

    ``fold_points`` are the images of (t_ext_minus, t_minus, t_plus,
    t_ext_plus); the middle two are the vertical sides.  ``width`` and
    ``height`` are differences of the ``fold`` polynomials without their
    constant terms, so they keep the digits that the rectangle's sides, of
    size |lam|^n and 1, lose.  ``rho`` is the cap half-gap
    (t_ext_plus - t_plus) rescaled by |lam|^(n/2); it tends to a constant.
    """

    n: int
    t_minus: float
    t_plus: float
    t_ext_minus: float
    t_ext_plus: float
    rect: Rect
    width: float
    height: float
    rho: float
    fold_points: tuple[Point, Point, Point, Point]
    fold: Fold

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


_SN_CACHE: dict[tuple[ModelSystem, int], SnRectangle] = {}


def build_sn(sys: ModelSystem, n: int) -> SnRectangle:
    """Construct S_n: the tangency pair, the caps, and the y extent of the
    piece between the caps from the four fold points and the zeros of Y'.
    The piece is one hook inside the strip between the tangencies exactly
    when X' has no other zero between the caps; a count of its sign
    changes there (``root_count``: only the zeros of X'' that cut X' into
    monotone pieces are polished) other than 2 raises NumericError.

    Each S_n is built once per (system, n) and shared afterwards; systems
    are frozen and compare by value, so an equal system built elsewhere gets
    the same object.  A failed build is not stored and raises on every call.
    """
    S = _SN_CACHE.get((sys, n))
    if S is not None:
        return S
    t_minus, t_plus = vertical_params(sys, n)
    t_ext_minus, t_ext_plus = extended_params(sys, n, t_minus, t_plus)
    fold = scale, x, y = _fold(sys, n)
    params = (t_ext_minus, t_minus, t_plus, t_ext_plus)
    s_ext_minus, s_minus, s_plus, s_ext_plus = ss = [t / scale for t in params]
    zeros = root_count(x.derivative(), s_ext_minus, s_ext_plus)
    if zeros != 2:
        raise NumericError(f"X' has {zeros} zeros between the caps of S_{n}, not 2: the fold piece is not one hook inside its strip")
    pts = tuple(fold_point(sys, n, t) for t in params)
    turns = real_roots(y.derivative(), s_ext_minus, s_ext_plus)
    ys = [p[1] for p in pts] + [fold_point(sys, n, s * scale)[1] for s in turns]
    rises = [_rise(y, s) for s in (*ss, *turns)]
    rect = Rect(min(pts[1][0], pts[2][0]), max(pts[1][0], pts[2][0]), min(ys), max(ys))
    for corner in rect.corners():
        if not sys.in_ur(corner):
            raise DomainError(f"S_{n} sticks out of U(r): corner {corner}")
    S = _SN_CACHE[sys, n] = SnRectangle(
        n=n,
        t_minus=t_minus,
        t_plus=t_plus,
        t_ext_minus=t_ext_minus,
        t_ext_plus=t_ext_plus,
        rect=rect,
        width=abs(_rise(x, s_plus) - _rise(x, s_minus)),
        height=max(rises) - min(rises),
        rho=(t_ext_plus - t_plus) / scale,
        fold_points=pts,
        fold=fold,
    )
    return S


def level_range(sys: ModelSystem, lo: int, hi: int) -> range:
    """Levels lo..hi of the parity the sign case realizes (every other
    level for lam < 0), cut at the resolvable depth ``sys.n_max``."""
    parity = classify_system(sys)[1].n_parity
    if parity != "all" and lo % 2 != (parity == "odd"):
        lo += 1
    return range(lo, min(hi, sys.n_max) + 1, 1 if parity == "all" else 2)


# What build_sn raises at a level with no S_n: no real tangency pair, or tangencies or caps outside the arc window.
_UNREALIZED = (WindowExceededError, NoVerticalTangencyError)


def fold_rectangles(sys: ModelSystem, lo: int, hi: int) -> Iterator[SnRectangle]:
    """S_n for each level of ``level_range(sys, lo, hi)`` whose fold
    rectangle is fully realized inside the arc window; levels with no real
    tangency pair, or whose tangencies or caps do not fit, are skipped."""
    for n in level_range(sys, lo, hi):
        try:
            S = build_sn(sys, n)
        except _UNREALIZED:
            continue
        yield S


def first_valid_n(sys: ModelSystem) -> int:
    """Smallest level that ``fold_rectangles`` realizes."""
    for S in fold_rectangles(sys, 1, sys.n_max):
        return S.n
    raise NotFoundError(f"no realizable fold rectangle up to n_max={sys.n_max}")


def scaling_fit(pairs, lam: float) -> tuple[float, float]:
    """Fit value ~ C * |lam|^(kappa * n) over (n, value) pairs.

    Returns (kappa, C) from :func:`numerics.line_fit` of log(value) against
    n * log|lam|.  Needs at least five distinct levels and positive values.
    """
    pts = [(int(n), float(v)) for n, v in pairs]
    if len({n for n, _ in pts}) < 5:
        raise DomainError("scaling fit needs at least five distinct levels")
    if any(v <= 0.0 for _, v in pts):
        raise DomainError("scaling fit needs positive values")
    kappa, intercept = line_fit([n * math.log(abs(lam)) for n, _ in pts], np.log([v for _, v in pts]))
    return kappa, math.exp(intercept)
