"""Small shared numerics: guarded Newton iteration and the bracketed bisection
behind every root search of the package."""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericError

__all__ = ["solve_newton"]

_MAX_NEWTON_STEPS = 60


def solve_newton(
    f: Callable[[float], float],
    fprime: Callable[[float], float],
    x0: float,
    *,
    tol: float,
    bracket: tuple[float, float] | None = None,
) -> float:
    """Root of f near x0 with |f(root)| <= tol.

    Newton steps are taken while they behave (finite derivative, iterate
    inside the bracket when one is given); otherwise the solver falls back to
    bisection on the bracket.  Raises NumericError with the final residual if
    neither converges.
    """
    x = float(x0)
    lo, hi = (None, None) if bracket is None else (min(bracket), max(bracket))
    for _ in range(_MAX_NEWTON_STEPS):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        dfx = fprime(x)
        if dfx == 0.0:
            break
        step = fx / dfx
        nxt = x - step
        if lo is not None and not (lo <= nxt <= hi):
            break
        if nxt == x:
            return _bisect_or_fail(f, lo, hi, tol, fx)
        x = nxt
    residual = f(x)
    if abs(residual) <= tol:
        return x
    return _bisect_or_fail(f, lo, hi, tol, residual)


def _bisect_or_fail(f, lo, hi, tol, last_residual) -> float:
    """The bisection fallback of :func:`solve_newton`; errors carry the
    residual Newton stopped at."""
    if lo is None:
        raise NumericError("Newton iteration failed and no bracket was given", residual=abs(last_residual))
    try:
        return _bisect(f, lo, hi, tol=tol)
    except _NoSignChange:
        raise NumericError(
            "no sign change in bracket for bisection fallback", residual=abs(last_residual)
        ) from None


class _NoSignChange(NumericError):
    """f takes the same sign at both ends of the bracket; callers re-raise
    it with their own description of what was not bracketed."""


def _bisect(f, lo: float, hi: float, *, tol: float = 0.0, xtol: float = 0.0) -> float:
    """Root of f in the bracket [lo, hi] by bisection.

    An end where f is exactly 0 is returned as is; ends where f has the same
    sign raise _NoSignChange with the smaller end residual.  The midpoint t
    is returned as soon as |f(t)| <= tol or the bracket it halves is at most
    xtol * (1 + |t|) wide.  A bracket that can no longer be halved (or 200
    halvings) ends the search: with tol = 0 its midpoint is the root to
    machine precision, with tol > 0 it raises NumericError with the residual
    there.  Signs are compared, never multiplied, so tiny values cannot
    underflow the test.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    sign_lo = math.copysign(1.0, f_lo)
    if sign_lo == math.copysign(1.0, f_hi):
        raise _NoSignChange("no sign change in bracket", residual=min(abs(f_lo), abs(f_hi)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if abs(f_mid) <= tol or abs(hi - lo) <= xtol * (1.0 + abs(mid)):
            return mid
        if math.copysign(1.0, f_mid) == sign_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if tol > 0.0:
        raise NumericError("bisection stalled above tolerance", residual=abs(f(mid)))
    return mid
