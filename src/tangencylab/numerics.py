"""Small shared numerics: guarded Newton, the bracketed bisection behind
every root search, the real roots of polynomials and the least-squares line.

Every search has one stop rule: an exact zero at a trial point, or the
collapse of the bracket onto two neighbouring doubles.  Trial points are ITP
steps (Oliveira & Takahashi, ACM TOMS 47(1), 2020) in place of midpoints:
the regula falsi point, truncated towards the midpoint by k1 * width**k2.
ITP's projection, which keeps the search within n0 = 1 step of bisection,
is kept in steps rather than widths.  The search replays bisection's own
brackets on the signs it has seen, and when it has no step to spare it
evaluates bisection's next midpoint.  In floating point the alignment of a
bracket, not its width alone, decides when halving ends; a width bound let
about 1% of random brackets take two steps more than bisection.  Counted
this way the bound is exact: for an f that changes sign once in the
bracket, the search makes at most one evaluation more than bisection on the
same bracket, and where f is smooth it makes about half as many.

A polynomial's roots are isolated between its critical points: the zeros
of p', found by the same search one degree down, cut the interval into
pieces on which p is monotone, so each piece holds at most one root, and
the roots returned are the sign changes of p, not its distinct roots (a
root of even multiplicity shows only where p is exactly 0).  Each root is
polished by guarded Newton steps first: p and p' come from one Horner
pass, the first trial point is the piece's regula falsi point, every trial
point tightens the sign bracket, and a step that leaves the bracket is
replaced by its midpoint.  Once a step moves no more than 2 ulps, the
bisection above runs from probes 2 ulps either side of the point, or on the
whole sign bracket when the probes hold no sign change, so the polish keeps
the one stop rule.  ``solve_newton`` is no polish: it stops on a residual
tolerance.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .errors import NumericError

__all__ = ["Polynomial", "line_fit", "real_roots", "root_count", "solve_newton"]

_MAX_NEWTON_STEPS = 60


def line_fit(xs, ys) -> tuple[float, float]:
    """(slope, intercept) of the least-squares line through (xs[i], ys[i]).

    The closed form on data centred at the means, with correctly rounded
    sums, so data that lie exactly on a line with exact means give its slope
    and intercept exactly.  Needs at least two distinct xs: the callers
    check a spread of levels or decades first.
    """
    xs, ys = list(map(float, xs)), list(map(float, ys))
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    slope = math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / math.fsum(dx * dx for dx in dxs)
    return slope, y_mean - slope * x_mean


def solve_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    *,
    tol: float,
    bracket: tuple[float, float],
) -> float:
    """Root of f near x0 in the bracket, with |f(root)| <= tol.

    Newton steps are taken while they behave (finite derivative, iterate
    inside the bracket); otherwise the solver falls back to bisection on the
    bracket.  Raises NumericError with the final residual if neither
    converges.
    """
    x = float(x0)
    lo, hi = min(bracket), max(bracket)
    for _ in range(_MAX_NEWTON_STEPS):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        dfx = fprime(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        nxt = x - step
        if not (lo <= nxt <= hi):
            break
        if nxt == x:
            return _bisect_or_fail(f, lo, hi, tol, fx)
        x = nxt
    residual = f(x)
    if abs(residual) <= tol:
        return x
    return _bisect_or_fail(f, lo, hi, tol, residual)


def _bisect_or_fail(f, lo, hi, tol, last_residual) -> float:
    """The bisection fallback of :func:`solve_newton`: the root of
    :func:`_bisect`, if |f| <= tol there.  A bracket without a sign change
    reports the residual Newton stopped at."""
    try:
        root = _bisect(f, lo, hi)
    except _NoSignChange:
        raise NumericError(
            "no sign change in bracket for bisection fallback", residual=abs(last_residual)
        ) from None
    residual = abs(f(root))
    if not residual <= tol:
        raise NumericError("bisection stalled above tolerance", residual=residual)
    return root


class _NoSignChange(NumericError):
    """f takes the same sign at both ends of the bracket; callers re-raise
    it with their own description of what was not bracketed."""


# ITP constants for bracket-exhausting searches: the truncation distance
# k1 * width**k2 uses k1 = _ITP_K1 / (first bracket width) and k2 = _ITP_K2
# in [1, 1 + golden ratio), measured on the cascade inversions; _ITP_N0 is
# the number of steps the search may lag bisection.
_ITP_K1 = 0.01
_ITP_K2 = 2.0
_ITP_N0 = 1


def _itp_point(lo: float, hi: float, f_lo: float, f_hi: float, mid: float, width0: float) -> float:
    """Regula falsi point of the bracket [lo, hi], moved towards its
    midpoint ``mid`` by ITP's truncation distance; ``mid`` when that gives
    no point strictly inside."""
    width = hi - lo
    falsi = lo + width * (f_lo / (f_lo - f_hi))
    toward_mid = math.copysign(1.0, mid - falsi)
    delta = _ITP_K1 * width**_ITP_K2 / width0
    trial = falsi + toward_mid * delta if delta <= abs(mid - falsi) else mid
    return trial if lo < trial < hi else mid


def _replay_halvings(halves: tuple[float, float], lo: float, hi: float) -> tuple[tuple[float, float], int]:
    """Bisection's own bracket ``halves`` moved on through every halving
    whose midpoint falls outside (lo, hi), so its sign is already known;
    returns the new bracket and the number of halvings."""
    h_lo, h_hi = halves
    count = 0
    while True:
        h_mid = 0.5 * (h_lo + h_hi)
        if h_mid == h_lo or h_mid == h_hi:
            break
        if h_mid <= lo:
            h_lo = h_mid
        elif h_mid >= hi:
            h_hi = h_mid
        else:
            break
        count += 1
    return (h_lo, h_hi), count


def _bisect(f, lo: float, hi: float) -> float:
    """Root of f in the bracket [lo, hi], to machine precision.

    An end where f is exactly 0 is returned as is; ends where f has the same
    sign raise _NoSignChange with the smaller end residual.  The search has
    one stop rule: a trial point where f is exactly 0 is returned, and
    otherwise a bracket that can no longer be halved (or 200 steps) ends the
    search with its midpoint.  Signs are compared, never multiplied, so tiny
    values cannot underflow the test.

    Trial points are ITP steps (:func:`_itp_point`) while the search has a
    step to spare over bisection's halvings, replayed by
    :func:`_replay_halvings`, and bisection's next midpoint when it has
    none: at most _ITP_N0 = 1 evaluation beyond bisection's count.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    sign_lo = math.copysign(1.0, f_lo)
    if sign_lo == math.copysign(1.0, f_hi):
        raise _NoSignChange("no sign change in bracket", residual=min(abs(f_lo), abs(f_hi)))
    width0, halves, spare = hi - lo, (lo, hi), _ITP_N0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        halves, gained = _replay_halvings(halves, lo, hi)
        spare += gained - 1
        t = _itp_point(lo, hi, f_lo, f_hi, mid, width0) if spare >= 0 else 0.5 * (halves[0] + halves[1])
        f_t = f(t)
        if f_t == 0.0:
            return t
        if math.copysign(1.0, f_t) == sign_lo:
            lo, f_lo = t, f_t
        else:
            hi, f_hi = t, f_t
    return 0.5 * (lo + hi)


class Polynomial(tuple):
    """A real polynomial as its ascending coefficients.  It has the + and *
    (with numbers or Polynomials) and integer ** of phi's formulas, so the
    model's own evaluation code, run on Polynomials, returns coefficients."""

    __array_ufunc__ = None  # numpy scalars take the reflected operators

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial((other,))
        short, long = sorted((self, other), key=len)
        return Polynomial((*map(operator.add, long, short), *long[len(short) :]))

    def __mul__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial((other,))
        out = [0.0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for k, b in enumerate(other, i):
                out[k] += a * b
        return Polynomial(out)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k: int):
        return math.prod([self] * k, start=Polynomial((1.0,)))

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self) if k)

    def trimmed(self) -> "Polynomial":
        """Without trailing zero coefficients."""
        return Polynomial(self[: max((k + 1 for k, c in enumerate(self) if c != 0.0), default=0)])


def _horner(p: Polynomial, x: float) -> tuple[float, float]:
    """(p(x), p'(x)) in one Horner pass; p(x) rounds as ``p(x)`` does."""
    f = d = 0.0
    for c in reversed(p):
        d = d * x + f
        f = f * x + c
    return f, d


def _polish(p: Polynomial, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """The root of p in [lo, hi], where p(lo) = f_lo and p(hi) = f_hi are
    nonzero with opposite signs: guarded Newton steps from the regula falsi
    point, each trial point tightening the bracket, then :func:`_bisect`
    from probes 2 ulps either side of the last point, or on the bracket
    when they hold no sign change."""
    sign_lo = math.copysign(1.0, f_lo)
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    for _ in range(_MAX_NEWTON_STEPS):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # the bracket is down to two neighbouring doubles
                break
        f_x, d_x = _horner(p, x)
        if f_x == 0.0:
            return x
        if math.copysign(1.0, f_x) == sign_lo:
            lo = x
        else:
            hi = x
        step = f_x / d_x if d_x != 0.0 else math.inf
        if abs(step) <= 2.0 * math.ulp(x):
            try:
                return _bisect(p, max(lo, x - 2.0 * math.ulp(x)), min(hi, x + 2.0 * math.ulp(x)))
            except _NoSignChange:
                break
        x -= step
    return _bisect(p, lo, hi)


def _pieces(p: Polynomial, lo: float, hi: float) -> list[tuple[float, float, float, float]]:
    """(a, b, p(a), p(b)) for the pieces of (lo, hi] cut at the zeros of p'
    that :func:`real_roots` finds.  p is monotone on each piece, so a piece
    holds at most one root; a constant or zero p has no pieces."""
    if not any(p[1:]):
        return []
    knots = [lo, *(c for c in real_roots(p.derivative(), lo, hi) if lo < c < hi), hi]
    values = [p(c) for c in knots]
    return list(zip(knots, knots[1:], values, values[1:]))


def _crosses(f_a: float, f_b: float) -> bool:
    """Does a piece with end values f_a, f_b hold a root in (a, b]?"""
    return f_b == 0.0 or (f_a != 0.0 and (f_a > 0.0) != (f_b > 0.0))


def root_count(p: Polynomial, lo: float, hi: float) -> int:
    """The number of roots :func:`real_roots` returns, read from the signs
    at the piece ends: none of them is polished."""
    return sum(_crosses(f_a, f_b) for _, _, f_a, f_b in _pieces(p, lo, hi))


def real_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """The sign-changing real roots of p in (lo, hi], ascending.

    The zeros of p', found by this function, cut (lo, hi] into pieces on
    which p is monotone (:func:`_pieces`).  A piece whose end values have
    opposite signs holds one root, which :func:`_polish` polishes, and a
    piece end where p is exactly 0 is a root as it stands.  Unlike the
    distinct roots, a root of even multiplicity, where p touches 0 without
    changing sign, is returned only if p is exactly 0 at the zero of p'
    found next to it; a zero polynomial has no roots.
    """
    return [b if f_b == 0.0 else _polish(p, a, b, f_a, f_b) for a, b, f_a, f_b in _pieces(p, lo, hi) if _crosses(f_a, f_b)]
