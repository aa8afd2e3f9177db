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
from collections import namedtuple
from dataclasses import replace
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import (
    ChartExitError,
    DomainError,
    NotFoundError,
    NumericError,
    SlopeLemmaCounterexample,
    SmallExpandingViolationError,
    WindowExceededError,
    WrongQuadrantError,
)
from .leaves import _in_window, _pullback, alpha, arc_height, t_window
from .model import (
    _LOG_MAX,
    _LOG_MIN,
    _MEMBERSHIP_TOL,
    ModelSystem,
    Point,
    TransitionSpec,
    _flips_sign,
    _log_steps,
    _phi_jacobian,
    _phi_parts,
    _saturated_exp,
    _scale_power,
    _small_expansion,
    _window_power,
    apply_linear,
    apply_phi,
    chart_exit_index,
    jacobian_phi,
    return_rectangle,
    signed_power,
)
from .numerics import real_roots
from .rects import Fold, build_sn, fold_point, fold_rectangles, fold_velocity, fold_x

__all__ = [
    "VERTICAL",
    "SlopedPoint",
    "BetaArc",
    "JnSlopeReport",
    "SlopeSearchResult",
    "window_exponent",
    "u0",
    "ReturnFrame",
    "return_frame",
    "slope_through_return",
    "SlopeGrid",
    "slope_grid",
    "i_n",
    "beta_arc",
    "jn_slope_check",
    "find_s_n0",
]

# Slope value marking a vertical tangent direction.
VERTICAL = math.inf


class SlopedPoint(namedtuple("SlopedPoint", "point slope")):
    """A point together with the |dy/dx| slope of a tracked direction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if math.isnan(self.slope) or self.slope < 0.0:
            raise DomainError(f"slope must be a nonnegative number, got {self.slope}")
        return self


def _return_window(sys: ModelSystem) -> tuple[float, float]:
    """(lo, hi) of the one-step return window ((1+eps)^2, (1+eps)^3]."""
    u = 1.0 + sys.epsilon
    return u * u, u * u * u


def _slope_cone(sys: ModelSystem) -> tuple[float, float]:
    """(eps^(5/2), eps^(-5/2)): the slope lemma's horizontal cone and its transit bound."""
    eps = sys.epsilon
    if eps <= 0.0:
        raise DomainError("slope checks need |mu| > 1")
    return eps**2.5, eps**-2.5


def window_exponent(sys: ModelSystem, x: float) -> int:
    """The unique k >= 1 with mu^k * x in ((1+eps)^2, (1+eps)^3]."""
    if x == 0.0 or not math.isfinite(x):
        raise DomainError(f"cannot window x={x}")
    lo, hi = _return_window(sys)
    k = _window_power(x, sys.mu, lo, hi, 1)
    if k is not None:
        return k
    raise NotFoundError(f"no iterate places {x:g} inside the window ({lo:g}, {hi:g}]")


def u0(sys: ModelSystem, point: Point) -> int:
    """Return exponent of a point of U(q): the k with f^k(phi(point)) back in
    the return rectangle, its abscissa inside the unique one-step window.

    Raises WrongQuadrantError when the phi image has nonpositive abscissa
    (those orbits come back through the mirrored rectangle),
    ChartExitError when the connecting orbit leaves U(p), and
    SmallExpandingViolationError when the windowed iterate misses the
    rectangle itself.
    """
    return _u0_image(sys, point)[0]


def _land(sys: ModelSystem, point: Point, k: int, orbit: str, image_name: str) -> Point:
    """f^k(point), checked to stay in U(p) for k steps and then to land in R_eps."""
    exit_i = chart_exit_index(sys, point, k)
    if exit_i is not None:
        raise ChartExitError(f"{orbit} leaves U(p) at step {exit_i} of {k}")
    image = apply_linear(sys, point, k)
    if not return_rectangle(sys.epsilon).contains(image):
        raise SmallExpandingViolationError(
            f"{image_name} ({image[0]:.6g}, {image[1]:.6g}) misses the return rectangle"
        )
    return image


def _u0_image(sys: ModelSystem, point: Point) -> tuple[int, Point]:
    """(u0, f^u0(phi(point))): the return exponent of ``u0`` together with
    the returned point it was checked on."""
    z = apply_phi(sys, point)
    if z[0] <= 0.0:
        raise WrongQuadrantError(
            f"phi image abscissa {z[0]:g} <= 0: the orbit returns through the mirrored rectangle"
        )
    k = window_exponent(sys, z[0])
    return k, _land(sys, z, k, "connecting orbit", f"f^{k}(phi(point)) =")


def _rescale_slope(sys: ModelSystem, slope: float, k: int) -> float:
    """slope * (|lam|/|mu|)^k in log space; honest 0.0 on underflow, VERTICAL on overflow."""
    if slope == 0.0:
        return 0.0
    return _saturated_exp(math.log(slope) + k * (math.log(abs(sys.lam)) - math.log(abs(sys.mu))))


class ReturnFrame(NamedTuple):
    """At ``point``: phi's Jacobian, the return (k, point) and R_eps membership."""

    point: Point
    jac: np.ndarray
    k: int
    returned_point: Point
    in_rectangle: bool

    def transport(self, sys: ModelSystem, slope: float) -> tuple[float, SlopedPoint]:
        """``slope_through_return(sys, self.point, slope)``."""
        if math.isnan(slope) or slope < 0.0 or math.isinf(slope):
            raise DomainError(f"slope must be finite and nonnegative, got {slope}")
        vx = float(self.jac[0, 0] + self.jac[0, 1] * slope)
        vy = float(self.jac[1, 0] + self.jac[1, 1] * slope)
        intermediate = VERTICAL if vx == 0.0 else abs(vy / vx)
        returned = SlopedPoint(self.returned_point, _rescale_slope(sys, intermediate, self.k))
        cone, bound = _slope_cone(sys)
        if self.in_rectangle and slope <= cone:
            if not intermediate <= bound:
                raise SlopeLemmaCounterexample(
                    "transit slope exceeds the fold bound", point=self.point, slope=intermediate, bound=bound
                )
            if not returned.slope <= cone:
                raise SlopeLemmaCounterexample(
                    "returned slope left the horizontal cone", point=self.returned_point, slope=returned.slope, bound=cone
                )
        return intermediate, returned


def return_frame(sys: ModelSystem, point: Point) -> ReturnFrame:
    """The slope-free part of ``slope_through_return``; raises as ``u0``."""
    return ReturnFrame(point, jacobian_phi(sys, point), *_u0_image(sys, point), return_rectangle(sys.epsilon).contains(point))


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

    It is ``return_frame(sys, point).transport(sys, slope)``, slope checked first.
    """
    if math.isnan(slope) or slope < 0.0 or math.isinf(slope):
        raise DomainError(f"slope must be finite and nonnegative, got {slope}")
    return return_frame(sys, point).transport(sys, slope)


# Start points per side of R_eps in the slope grid; each point carries the
# slopes 0, eps^(5/2)/2 and eps^(5/2).
_GRID_SIDE = 32

# Margin of the slope-grid screen, in log space (and relative to the size
# of phi's terms for the sign of z_x and for jn_slope_check's abscissas).
# numpy's pow and log do not round like libm, so a screened value is not
# the scalar path's double; a cell whose screened value lies within the
# margin of a decision or of a maximum is decided in scalars instead.  The
# margin is _SCREEN_FACTOR times a ceiling of 1e-13 on the screen-scalar
# gap; tests/test_closed_forms.py measures the gap below that ceiling (1.9e-15
# on the reference system, the instance sweep seeds 0-20 and the 16 sign
# cases, 2.0e-16 for the abscissas).
_SCREEN_FACTOR = 1e4
_SCREEN_DELTA = 1e-9


class SlopeGrid(NamedTuple):
    """The slope lemma on a grid of start points of R_eps: ``shape`` is
    (abscissas, ordinates, slopes per point); the maxima run over the
    transports that are no counterexample."""

    shape: tuple[int, int, int]
    violations: int
    max_intermediate: float
    max_returned: float


class _Screen(NamedTuple):
    """The slope grid as arrays, cell i at (x[i], y[i]) and slope j at
    column j.  Logs are natural logs of magnitudes: ``log_x``/``log_y`` of
    the returned point, ``log_inter`` of the intermediate slope and
    ``log_returned`` the exponent that ``_rescale_slope`` exponentiates.
    ``zx_scale`` is the sum of the magnitudes of z_x's terms.  ``returns``
    says the cell's return succeeds, ``violates`` which slopes break the
    lemma, and ``near`` marks cells within _SCREEN_DELTA of a decision,
    where the screen decides nothing."""

    x: np.ndarray
    y: np.ndarray
    slopes: tuple[float, ...]
    zx: np.ndarray
    zx_scale: np.ndarray
    k: np.ndarray
    log_x: np.ndarray
    log_y: np.ndarray
    log_inter: np.ndarray
    log_returned: np.ndarray
    returns: np.ndarray
    violates: np.ndarray
    near: np.ndarray


def _absolute(sys: ModelSystem) -> ModelSystem:
    """``sys`` with every transition coefficient replaced by its magnitude:
    at (|x|, |y|) its phi sums the magnitudes of phi's terms."""
    t = sys.transition
    return replace(
        sys,
        transition=TransitionSpec(
            *(abs(v) for v in (t.a, t.b, t.c, t.d, t.e)),
            t.m0,
            tuple((i, j, abs(c)) for i, j, c in t.h1_terms),
            tuple((i, j, abs(c)) for i, j, c in t.h2_terms),
        ),
    )


def _screen(sys: ModelSystem) -> _Screen:
    """``return_frame(...).transport(...)`` on every grid cell at once.

    phi and its Jacobian come from the model's own formulas on arrays; the
    window exponent is ``window_exponent``'s log estimate ``_log_steps`` in
    ``_return_window``; the chart exit, R_eps and slope-lemma tests compare
    logs with the logs of their bounds, using that along f^i the abscissa
    grows and the ordinate shrinks (or grows) monotonically.  The U(q) test
    compares the grid's own doubles, so it is exact.  Every grid point lies
    in R_eps and every grid slope is at most eps^(5/2), so every transport
    checks the lemma.
    """
    cap, bound = _slope_cone(sys)
    tol = _MEMBERSHIP_TOL
    rect = return_rectangle(sys.epsilon)
    slopes = (0.0, 0.5 * cap, cap)
    xs = np.linspace(rect.x_lo, rect.x_hi, _GRID_SIDE)
    ys = np.linspace(rect.y_lo, rect.y_hi, _GRID_SIDE)
    x, y = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
    lx = x - 1.0
    log_mu, log_lam = math.log(abs(sys.mu)), math.log(abs(sys.lam))
    lo, hi = _return_window(sys)
    log_w = math.log(sys._chart_reach)
    s = np.array(slopes)
    with np.errstate(all="ignore"):
        fx, fy, gx, gy = (np.broadcast_to(v, x.shape)[:, None] for row in _phi_jacobian(sys, lx, y) for v in row)
        zx, zy = _phi_parts(sys, lx, y)
        zx_scale = _phi_parts(_absolute(sys), np.abs(lx), np.abs(y))[0]
        log_zx = np.log(zx)
        k = _log_steps(math.log(hi), log_zx, log_mu)
        k_returns = (k >= 1) & ~_flips_sign(sys.mu, k)  # k is inf where z_x = 0
        log_x = log_zx + k * log_mu
        log_zy = np.log(np.abs(zy))
        log_y = log_zy + k * log_lam
        log_y_chart = log_zy + np.maximum(log_lam, k * log_lam)
        y_negative = (zy < 0.0) != _flips_sign(sys.lam, k)
        log_inter = np.log(np.abs((gx + gy * s) / (fx + fy * s)))
        log_returned = log_inter + k[:, None] * (log_lam - log_mu)
    x_lo, x_hi = math.log(rect.x_lo - tol), math.log(rect.x_hi + tol)
    # R_eps starts at y = 0, so a negative ordinate may reach -tol
    y_lo, y_hi = math.log(tol), math.log(rect.y_hi + tol)
    inter_bound, returned_bound = math.log(bound), math.log(cap)
    returns = (
        sys.in_uq((x, y))
        & (zx > 0.0)
        & k_returns
        & (log_x <= log_w)
        & (log_y_chart <= log_w)
        & (x_lo <= log_x)
        & (log_x <= x_hi)
        & (log_y <= np.where(y_negative, y_lo, y_hi))
    )
    violates = (log_inter > inter_bound) | (log_returned > returned_bound)
    edges = [
        (log_x, (math.log(lo), math.log(hi), log_w, x_lo, x_hi)),
        (log_y_chart, (log_w,)),
        (log_y, (y_lo, y_hi)),
        (log_inter, (inter_bound,)),
        (log_returned, (returned_bound, _LOG_MIN, _LOG_MAX)),
    ]
    near = np.abs(zx) <= _SCREEN_DELTA * zx_scale
    for values, bounds in edges:
        cells = values.reshape(len(x), -1)
        near |= ~np.isfinite(cells).all(axis=1)
        for bound in bounds:
            near |= (np.abs(cells - bound) <= _SCREEN_DELTA).any(axis=1)
    return _Screen(x, y, slopes, zx, zx_scale, k, log_x, log_y, log_inter, log_returned, returns, violates, near)


def _near_max(values: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Cells with a candidate value within _SCREEN_DELTA of the largest
    candidate; none when there is no candidate."""
    if not candidates.any():
        return np.zeros(len(values), dtype=bool)
    top = values[candidates].max()
    return (candidates & (values >= top - _SCREEN_DELTA)).any(axis=1)


def slope_grid(sys: ModelSystem) -> SlopeGrid:
    """The slope lemma on the 32 x 32 x 3 grid: every start point of a 32 x
    32 grid over R_eps, with the slopes 0, eps^(5/2)/2 and eps^(5/2), goes
    through ``return_frame(sys, point).transport(sys, slope)``, grid order
    x-major.  A SlopeLemmaCounterexample counts as a violation; any other
    error propagates.

    Arrays screen, scalars decide.  ``_screen`` evaluates every cell at once.
    A cell is then decided in scalars, by ``return_frame`` and ``transport``
    themselves, when its screen raises, when it lies within the margin of
    a decision, or when one of its slopes is within the margin of either
    maximum.  Every other cell is settled by the screen alone: its
    violations are counted, and its slopes are below a maximum that a
    scalar cell attains.  The result, and the first error in grid order,
    are those of the scalar loop over all cells.  The guard of ``_slope_cone``
    raises before any work.
    """
    sc = _screen(sys)
    certain = sc.returns & ~sc.near
    kept = certain[:, None] & ~sc.violates
    settled = certain & ~_near_max(sc.log_inter, kept) & ~_near_max(sc.log_returned, kept)
    violations = int(np.count_nonzero(sc.violates[settled]))
    worst_intermediate = worst_returned = 0.0
    for i in np.flatnonzero(~settled):
        frame = return_frame(sys, (float(sc.x[i]), float(sc.y[i])))
        for slope in sc.slopes:
            try:
                intermediate, returned = frame.transport(sys, slope)
            except SlopeLemmaCounterexample:
                violations += 1
                continue
            worst_intermediate = max(worst_intermediate, intermediate)
            worst_returned = max(worst_returned, returned.slope)
    return SlopeGrid((_GRID_SIDE, _GRID_SIDE, len(sc.slopes)), violations, worst_intermediate, worst_returned)


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
    for corner in S.rect.corners():
        _land(sys, corner, k, "corner orbit", f"f^{k}(S_{n}) corner")
    balance = abs(_scale_power(signed_power(sys.lam, n), sys.mu, k))
    if not 0.1 <= balance <= 10.0:
        raise SmallExpandingViolationError(
            f"|mu^{k} lam^{n}| = {balance:.3g} outside [0.1, 10]"
        )
    return k


class BetaArc(NamedTuple):
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


def _first_crossing(fold: Fold, target: float, t_from: float, t_to: float) -> float | None:
    """Smallest t in (t_from, t_to] where the folded curve's abscissa is
    ``target``, or None: the first real root of the fold polynomial X - target."""
    scale, x, _ = fold
    roots = real_roots(x + -target, t_from / scale, t_to / scale)
    return roots[0] * scale if roots else None


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
    t_lo = _first_crossing(S.fold, 0.0, lo, hi)
    if t_lo is None:
        t_lo = lo
    # Pull the cap back to fold coordinates: X = s / mu^j.
    x_cap = _scale_power(s, sys.mu, -j)
    t_hi = _first_crossing(S.fold, x_cap, t_lo, hi)
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


class JnSlopeReport(NamedTuple):
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
# The abscissa caps find_s_n0 tries by default, largest first, and a config's default s_grid.
_S_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)


def jn_slope_check(sys: ModelSystem, n: int, s: float) -> JnSlopeReport:
    """Sample the returned branch and test |dy/dx| <= eps^(5/2) pointwise.

    Samples whose fold point lies inside S_n (the hook, where the tangent
    turns vertical) are excluded from the statistic but counted.  The
    samples are taken as one array: the first that ``alpha`` refuses raises
    its DomainError, abscissas come from ``fold_x`` and velocities from
    ``fold_velocity``.  numpy's power does not round like libm's, so an
    abscissa within _SCREEN_DELTA of S_n's sides, relative to the size of
    phi's terms, is recomputed by ``fold_point``.  ``_rescale_slope`` is
    monotone, so the largest rescaled slope is that of the largest
    |vy / vx|; a kept sample with vx = 0 makes it VERTICAL.
    """
    threshold = _slope_cone(sys)[0]
    beta = beta_arc(sys, n, s)
    ts = np.linspace(beta.t_lo, beta.t_hi, _JN_SAMPLES)
    refused = ~(_in_window(sys, ts) & sys.seed.contains(_pullback(sys, n, ts)))
    if refused.any():
        alpha(sys, n, float(ts[refused.argmax()]))  # raises for the first refused sample
    x = fold_x(sys, n, ts)
    margin = _SCREEN_DELTA * _phi_parts(_absolute(sys), np.abs(ts), np.abs(arc_height(sys, n, ts)))[0]
    for i in np.flatnonzero((np.abs(x - beta.s_n_minus) <= margin) | (np.abs(x - beta.s_n_plus) <= margin)):
        x[i] = fold_point(sys, n, float(ts[i]))[0]
    kept = ~((beta.s_n_minus <= x) & (x <= beta.s_n_plus))
    vx, vy = fold_velocity(sys, n, ts[kept])
    if (vx == 0.0).any():
        max_slope = VERTICAL
    else:
        max_slope = _rescale_slope(sys, float(np.max(np.abs(vy / vx), initial=0.0)), beta.j)
    return JnSlopeReport(
        n=n,
        s=s,
        j=beta.j,
        threshold=threshold,
        max_slope=max_slope,
        passed=bool(max_slope <= threshold),
        samples=_JN_SAMPLES,
        excluded=_JN_SAMPLES - int(np.count_nonzero(kept)),
    )


class SlopeSearchResult(NamedTuple):
    """Witness of a grid search for an abscissa cap with certified slopes."""

    s: float
    n0: int
    levels: tuple[int, ...]
    reports: tuple[JnSlopeReport, ...]


def find_s_n0(sys: ModelSystem, s_grid: tuple[float, ...] = _S_GRID) -> SlopeSearchResult:
    """Largest grid cap s whose branch passes the slope check on the first
    three realizable levels.

    Gated on the small-expansion requirements: the slope estimates are only
    claimed under |mu|^(3/2) < 1/|lam|, so the search refuses to certify
    anything when that fails.
    """
    if not _small_expansion(sys):
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
                report = jn_slope_check(sys, n, s)
                if not report.passed:
                    break
                reports.append(report)
        except (WindowExceededError, WrongQuadrantError):
            continue
        if len(reports) == len(levels):
            return SlopeSearchResult(s=float(s), n0=n0, levels=tuple(levels), reports=tuple(reports))
    raise NotFoundError(f"no cap in {tuple(s_grid)} certified on levels {tuple(levels)}")
