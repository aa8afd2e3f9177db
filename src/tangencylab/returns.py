"""Return exponents and slope transport through the saddle passage.

Everything near r re-enters the expanding side through the saddle chart:
a point lands near r, rides f for a few hundred iterates, and crosses the
return rectangle R_eps again.  The exponent of that crossing is pinned by a
half-open abscissa window ((1+eps)^2, (1+eps)^3], whose ratio is exactly one
mu-step, so the exponent is unique.  The slope machinery tracks how tangent
directions fare on the trip: steep at the fold, then crushed back to nearly
horizontal by the (lam/mu)^k factor of the linear part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    ChartExitError,
    DomainError,
    NoVerticalTangencyError,
    NotFoundError,
    NumericError,
    SlopeLemmaCounterexample,
    SmallExpandingViolationError,
    WindowExceededError,
    WrongQuadrantError,
)
from .leaves import alpha, t_window
from .model import (
    ModelSystem,
    Point,
    Rect,
    _scale_power,
    _window_power,
    apply_linear,
    apply_phi,
    chart_exit_index,
    jacobian_phi,
    return_rectangle,
    signed_power,
)
from .rects import build_sn, fold_point, fold_rectangles, fold_x
from .numerics import solve_newton

__all__ = [
    "VERTICAL",
    "SlopedPoint",
    "BetaArc",
    "JnSlopeReport",
    "SlopeSearchResult",
    "window_exponent",
    "u0",
    "slope_through_return",
    "i_n",
    "beta_arc",
    "jn_slope_check",
    "find_s_n0",
]

# Slope value marking a vertical tangent direction.
VERTICAL = math.inf


@dataclass(frozen=True)
class SlopedPoint:
    """A point together with the |dy/dx| slope of a tracked direction."""

    point: Point
    slope: float

    def __post_init__(self):
        if math.isnan(self.slope) or self.slope < 0.0:
            raise DomainError(f"slope must be a nonnegative number, got {self.slope}")


def window_exponent(sys: ModelSystem, x: float) -> int:
    """The unique k >= 1 with mu^k * x in ((1+eps)^2, (1+eps)^3]."""
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"cannot window x={x}")
    u = 1.0 + sys.epsilon
    lo, hi = u * u, u * u * u
    k = _window_power(x, sys.mu, lo, hi, 1)
    if k is not None:
        return k
    raise NotFoundError(f"no iterate places {x:g} inside the window ({lo:g}, {hi:g}]")


def u0(sys: ModelSystem, point: Point, *, region: Rect | None = None) -> int:
    """Return exponent of a point of U(q): the k with f^k(phi(point)) back in
    the return rectangle, its abscissa inside the unique one-step window.

    Raises WrongQuadrantError when the phi image has nonpositive abscissa
    (those orbits come back through the mirrored rectangle),
    ChartExitError when the connecting orbit leaves U(p), and
    SmallExpandingViolationError when the windowed iterate misses the
    rectangle itself.
    """
    z = apply_phi(sys, point)
    if z[0] <= 0.0:
        raise WrongQuadrantError(
            f"phi image abscissa {z[0]:g} <= 0: the orbit returns through the mirrored rectangle"
        )
    k = window_exponent(sys, z[0])
    exit_i = chart_exit_index(sys, z, k)
    if exit_i is not None:
        raise ChartExitError(f"connecting orbit leaves U(p) at step {exit_i} of {k}")
    target = region if region is not None else return_rectangle(sys.epsilon)
    image = apply_linear(sys, z, k)
    if not target.contains(image, tol=1e-12):
        raise SmallExpandingViolationError(
            f"f^{k}(phi(point)) = ({image[0]:.6g}, {image[1]:.6g}) misses the return rectangle"
        )
    return k


def _rescale_slope(sys: ModelSystem, slope: float, k: int) -> float:
    """slope * (|lam|/|mu|)^k in log space; honest 0.0 on underflow."""
    if slope == 0.0:
        return 0.0
    if math.isinf(slope):
        return VERTICAL
    t = math.log(slope) + k * (math.log(abs(sys.lam)) - math.log(abs(sys.mu)))
    if t < -745.0:
        return 0.0
    if t > 709.0:
        return VERTICAL
    return math.exp(t)


def slope_through_return(sys: ModelSystem, point: Point, slope: float) -> tuple[float, SlopedPoint]:
    """Transport a direction of slope |dy/dx| through phi and the return.

    Returns (intermediate, returned): the slope right after phi (steep, since
    phi turns nearly horizontal directions towards the vertical near the
    fold) and the SlopedPoint after the full return f^u0 ∘ phi.

    When the start lies in R_eps with slope <= eps^(5/2), the transit bound
    intermediate <= eps^(-5/2) and the re-entry bound
    returned.slope <= eps^(5/2) are asserted; a failure raises
    SlopeLemmaCounterexample (and would mean the expansion is too strong for
    the slope estimates, not a numerical accident).
    """
    if math.isnan(slope) or slope < 0.0 or math.isinf(slope):
        raise DomainError(f"slope must be finite and nonnegative, got {slope}")
    jac = jacobian_phi(sys, point)
    vx = float(jac[0, 0] + jac[0, 1] * slope)
    vy = float(jac[1, 0] + jac[1, 1] * slope)
    intermediate = VERTICAL if vx == 0.0 else abs(vy / vx)
    k = u0(sys, point)
    returned_point = apply_linear(sys, apply_phi(sys, point), k)
    returned = SlopedPoint(returned_point, _rescale_slope(sys, intermediate, k))

    eps = sys.epsilon
    if return_rectangle(eps).contains(point, tol=1e-12) and slope <= eps**2.5:
        bound = eps**-2.5
        if not intermediate <= bound:
            raise SlopeLemmaCounterexample(
                "transit slope exceeds the fold bound",
                point=point,
                slope=intermediate,
                bound=bound,
            )
        if not returned.slope <= eps**2.5:
            raise SlopeLemmaCounterexample(
                "returned slope left the horizontal cone",
                point=returned_point,
                slope=returned.slope,
                bound=eps**2.5,
            )
    return intermediate, returned


def i_n(sys: ModelSystem, n: int) -> int:
    """Return exponent of the fold rectangle: the k windowing the right edge
    of S_n, checked to carry the whole rectangle back inside R_eps.

    Also enforces the balance |mu^k lam^n| in [0.1, 10]: the returned width
    is W_n * mu^k ~ lam^n mu^k, and the construction needs it commensurate
    with the unit scale rather than collapsed or blown up.
    """
    S = build_sn(sys, n)
    if S.rect.x_hi <= 0.0:
        raise WrongQuadrantError(
            "fold rectangle sits at nonpositive abscissas: returns happen through the mirrored rectangle"
        )
    k = window_exponent(sys, S.rect.x_hi)
    target = return_rectangle(sys.epsilon)
    for corner in S.rect.corners():
        exit_i = chart_exit_index(sys, corner, k)
        if exit_i is not None:
            raise ChartExitError(f"corner orbit leaves U(p) at step {exit_i} of {k}")
        image = apply_linear(sys, corner, k)
        if not target.contains(image, tol=1e-12):
            raise SmallExpandingViolationError(
                f"f^{k}(S_{n}) corner ({image[0]:.6g}, {image[1]:.6g}) misses the return rectangle"
            )
    balance = abs(_scale_power(signed_power(sys.lam, n), sys.mu, k))
    if not 0.1 <= balance <= 10.0:
        raise SmallExpandingViolationError(
            f"|mu^{k} lam^{n}| = {balance:.3g} outside [0.1, 10]"
        )
    return k


@dataclass(frozen=True)
class BetaArc:
    """Parameter slice of the n-th fold whose f^j image sweeps abscissas
    [0, s]; j is the exponent windowing the fold tip distance.

    ``s_n_minus``/``s_n_plus`` record the abscissa range of S_n so slope
    statistics can exclude the hook (where tangent directions go vertical).
    """

    n: int
    s: float
    j: int
    t_lo: float
    t_hi: float
    s_n_minus: float
    s_n_plus: float


def _first_crossing(
    sys: ModelSystem, n: int, target: float, t_from: float, t_to: float, probes: int = 4097
) -> float | None:
    """Smallest t in [t_from, t_to] with fold_x(t) == target, or None."""
    ts = np.linspace(t_from, t_to, probes)
    vals = np.array([fold_x(sys, n, float(t)) - target for t in ts])
    if vals[0] == 0.0:
        return float(ts[0])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    lo, hi = float(ts[i]), float(ts[i + 1])
    scale = max(abs(target), 1e-300)
    return solve_newton(
        lambda t: fold_x(sys, n, t) - target,
        lambda t: _fold_velocity(sys, n, t)[0],
        0.5 * (lo + hi),
        tol=1e-13 * scale if target != 0.0 else 1e-16,
        bracket=(lo, hi),
    )


def _fold_velocity(sys: ModelSystem, n: int, t: float) -> tuple[float, float]:
    """Tangent (X', Y') of the folded curve at parameter t."""
    ap = alpha(sys, n, t)
    jac = jacobian_phi(sys, ap.point)
    return (
        float(jac[0, 0] + jac[0, 1] * ap.dy_dt),
        float(jac[1, 0] + jac[1, 1] * ap.dy_dt),
    )


def beta_arc(sys: ModelSystem, n: int, s: float) -> BetaArc:
    """The returned branch crossing abscissas [0, s].

    The branch starts where the fold crosses the stable axis (or at the
    window edge if it never does) and ends where the f^j image reaches
    abscissa s (window edge again if that happens outside).
    """
    if s <= 0.0:
        raise DomainError("abscissa cap s must be positive")
    S = build_sn(sys, n)
    if S.rect.x_hi <= 0.0:
        raise WrongQuadrantError(
            "fold rectangle sits at nonpositive abscissas: use the mirrored machinery"
        )
    if S.dist <= 0.0:
        raise WrongQuadrantError("fold tip touches or crosses the stable axis")
    j = window_exponent(sys, S.dist)
    lo, hi = t_window(sys)
    t_lo = _first_crossing(sys, n, 0.0, lo, hi)
    if t_lo is None:
        t_lo = lo
    # Pull the cap back to fold coordinates: X = s / mu^j.
    x_cap = _scale_power(s, sys.mu, -j)
    t_hi = _first_crossing(sys, n, x_cap, t_lo, hi)
    if t_hi is None:
        t_hi = hi
    if not t_lo < t_hi:
        raise NumericError(f"degenerate branch [{t_lo:g}, {t_hi:g}] at level {n}")
    return BetaArc(
        n=n,
        s=s,
        j=j,
        t_lo=float(t_lo),
        t_hi=float(t_hi),
        s_n_minus=S.rect.x_lo,
        s_n_plus=S.rect.x_hi,
    )


@dataclass(frozen=True)
class JnSlopeReport:
    """Outcome of sampling the returned branch for near-horizontality."""

    n: int
    s: float
    j: int
    threshold: float
    max_slope: float
    passed: bool
    samples: int
    excluded: int


_JN_SAMPLES = 200


def jn_slope_check(sys: ModelSystem, n: int, s: float, *, eps_target: float | None = None) -> JnSlopeReport:
    """Sample the returned branch and test |dy/dx| <= eps^(5/2) pointwise.

    Samples whose fold point lies inside S_n (the hook, where the tangent
    turns vertical) are excluded from the statistic but counted.  A target
    epsilon only rescales the threshold; the geometry stays at the system
    epsilon.
    """
    eps = sys.epsilon if eps_target is None else float(eps_target)
    if eps <= 0.0:
        raise DomainError("eps_target must be positive")
    threshold = eps**2.5
    beta = beta_arc(sys, n, s)
    ratio = math.log(abs(sys.lam)) - math.log(abs(sys.mu))
    max_slope = 0.0
    excluded = 0
    for t in np.linspace(beta.t_lo, beta.t_hi, _JN_SAMPLES):
        p = fold_point(sys, n, float(t))
        if beta.s_n_minus <= p[0] <= beta.s_n_plus:
            excluded += 1
            continue
        vx, vy = _fold_velocity(sys, n, float(t))
        if vx == 0.0:
            max_slope = VERTICAL
            continue
        raw = abs(vy / vx)
        slope = 0.0 if raw == 0.0 else math.exp(math.log(raw) + beta.j * ratio)
        max_slope = max(max_slope, slope)
    return JnSlopeReport(
        n=n,
        s=s,
        j=beta.j,
        threshold=threshold,
        max_slope=max_slope,
        passed=bool(max_slope <= threshold),
        samples=_JN_SAMPLES,
        excluded=excluded,
    )


@dataclass(frozen=True)
class SlopeSearchResult:
    """Witness of a grid search for an abscissa cap with certified slopes."""

    s: float
    n0: int
    levels: tuple[int, ...]
    reports: tuple[JnSlopeReport, ...]


def find_s_n0(
    sys: ModelSystem,
    s_grid: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01),
    *,
    eps_target: float | None = None,
) -> SlopeSearchResult:
    """Largest grid cap s whose branch passes the slope check on the first
    three realizable levels.

    Gated on the small-expansion requirements: the slope estimates are only
    claimed under |mu|^(3/2) < 1/|lam|, so the search refuses to certify
    anything when that fails.
    """
    if abs(sys.mu) ** 1.5 >= 1.0 / abs(sys.lam):
        raise NotFoundError(
            f"expansion too strong for slope certification: |mu|^(3/2)|lam| = "
            f"{abs(sys.mu) ** 1.5 * abs(sys.lam):.4g} >= 1"
        )
    levels = [S.n for S in islice(fold_rectangles(sys, 1, sys.n_max), 3)]
    if len(levels) < 3:
        raise NotFoundError(f"fewer than three realizable levels up to n_max={sys.n_max}: {levels}")
    n0 = levels[0]
    for s in s_grid:
        reports = []
        try:
            for n in levels:
                report = jn_slope_check(sys, n, s, eps_target=eps_target)
                if not report.passed:
                    break
                reports.append(report)
        except (WindowExceededError, NoVerticalTangencyError, WrongQuadrantError):
            continue
        if len(reports) == len(levels):
            return SlopeSearchResult(s=float(s), n0=n0, levels=tuple(levels), reports=tuple(reports))
    raise NotFoundError(f"no cap in {tuple(s_grid)} certified on levels {tuple(levels)}")
