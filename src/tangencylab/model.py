"""Local model of a planar diffeomorphism with a cubic homoclinic tangency.

The model lives in a linearizing chart ``U(p) = [-2, 2]^2`` around a saddle
fixed point ``p``:

    f(x, y) = (mu * x, lam * y),        0 < |lam| < 1 < |mu|.

The segment ``q = (1, 0)`` of the unstable axis returns to the segment
``r = (0, 1)`` of the stable axis after ``m0`` steps, and that transition is
modelled near ``q`` by

    phi(1 + x, y) = (a*y + b*x*y + c*x**3 + H1(x, y),
                     1 + d*x + e*y + H2(x, y)),

with ``H1`` lacking the 1, x, y, x^2, xy, x^3 monomials and ``H2`` lacking
1, x, y.  The cubic ``c*x**3`` term is what makes the tangency between the
invariant leaves at ``q`` cubic rather than quadratic.

Everything downstream (return rectangles, slope transport, the box cascade,
the conjugacy moduli) is built from the three primitives in this module:
``apply_linear``, ``apply_phi``, ``jacobian_phi``.  The slope screen of
``returns`` takes the model's rules from here, with its own margin:
saturation at ``_LOG_MIN``/``_LOG_MAX``, sign parity (``_flips_sign``),
``in_uq`` on arrays, U(p)'s ``_chart_reach``, the log estimate ``_log_steps``
and the gate ``_small_expansion``.  The cascade's log-space heights read
phi's partials (``_phi_jacobian``) and ``_saturated_exp``, and its array
samples ``_scale_powers`` and ``_phi_parts``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .cases import classify_system
from .errors import ChartExitError, DomainError, InconclusiveError, WrongQuadrantError
from .numerics import Polynomial, real_roots

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .leaves import SeedArc

__all__ = [
    "SaddleSpec",
    "TransitionSpec",
    "ModelSystem",
    "Rect",
    "Condition",
    "ConditionReport",
    "apply_linear",
    "apply_phi",
    "jacobian_phi",
    "chart_exit_index",
    "tau_bounds",
    "validate",
    "return_rectangle",
    "signed_power",
]

Point = tuple[float, float]

# Monomials that must be absent for phi to be in the normal form above.
_H1_FORBIDDEN = {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)}
_H2_FORBIDDEN = {(0, 0), (1, 0), (0, 1)}

# Direct float powers stay well conditioned up to this exponent; beyond it
# the exponent products move to log space.
_DIRECT_POW_LIMIT = 50

# Slack of every membership test (charts, rectangles, the seed domain), so a
# point computed on a boundary is not rejected by its last bit.
_MEMBERSHIP_TOL = 1e-12

# The double range in log space: powers with logs above _LOG_MAX are inf, below _LOG_MIN 0.0.
_LOG_MAX, _LOG_MIN = 709.0, -745.0


def signed_power(base: float, k: int) -> float:
    """base**k for integer k, stable for |k| in the hundreds.

    Negative bases keep the exact sign parity; magnitudes that leave the
    double range saturate to 0.0 / inf rather than raising.  The base must
    be nonzero (eigenvalues are, see SaddleSpec).
    """
    return _scale_power(1.0, base, k)


def _check_terms(terms: Sequence[tuple[int, int, float]], label: str) -> tuple[tuple[int, int, float], ...]:
    out = []
    for term in terms:
        if len(term) != 3:
            raise DomainError(f"{label} term {term!r} is not (i, j, coefficient)")
        i, j, coef = term
        if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
            raise DomainError(f"{label} term {term!r} has invalid exponents")
        out.append((i, j, float(coef)))
    return tuple(out)


def _poly(terms: Iterable[tuple[int, int, float]], x, y, dx: int = 0, dy: int = 0):
    """sum(coef * x**i * y**j) over the terms, or its partial derivative of
    order dx in x and dy in y.  Works on scalars and on numpy arrays.  The
    factors i, i-1, ..., j, j-1, ... multiply the coefficient one at a time,
    so the result rounds like the written-out partials."""
    if dx == dy == 0:
        return sum(coef * x**i * y**j for i, j, coef in terms)
    return sum(
        math.prod((*range(i, i - dx, -1), *range(j, j - dy, -1)), start=coef) * x ** (i - dx) * y ** (j - dy)
        for i, j, coef in terms
        if i >= dx and j >= dy
    )


@dataclass(frozen=True)
class SaddleSpec:
    """Eigenvalues of the linear saddle chart."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise DomainError("eigenvalues must be finite")
        if self.lam == 0.0 or self.mu == 0.0:
            raise DomainError("eigenvalues must be nonzero")


@dataclass(frozen=True)
class TransitionSpec:
    """Coefficients of the transition map phi = f^m0 in local coordinates
    centered at q = (1, 0).

    ``h1_terms`` / ``h2_terms`` are finite monomial lists ``(i, j, coef)``
    for the higher-order remainders.  Coefficient *values* (including the
    nondegeneracy signs) are judged by :func:`validate`, not here, so that a
    broken configuration can be loaded and reported instead of crashing.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    m0: int = 1
    h1_terms: tuple[tuple[int, int, float], ...] = ()
    h2_terms: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"coefficient {name} must be finite")
        if self.m0 < 1:
            raise DomainError("m0 must be a positive integer")
        object.__setattr__(self, "h1_terms", _check_terms(self.h1_terms, "h1"))
        object.__setattr__(self, "h2_terms", _check_terms(self.h2_terms, "h2"))

    def h1_jet_violations(self) -> list[tuple[int, int]]:
        return sorted({(i, j) for i, j, coef in self.h1_terms if (i, j) in _H1_FORBIDDEN and coef != 0.0})

    def h2_jet_violations(self) -> list[tuple[int, int]]:
        return sorted({(i, j) for i, j, coef in self.h2_terms if (i, j) in _H2_FORBIDDEN and coef != 0.0})


class Rect(namedtuple("Rect", "x_lo x_hi y_lo y_hi")):
    """Closed axis-aligned rectangle."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.x_lo <= self.x_hi and self.y_lo <= self.y_hi):
            raise DomainError("rectangle bounds out of order")
        return self

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    def corners(self) -> list[Point]:
        return [
            (self.x_lo, self.y_lo),
            (self.x_lo, self.y_hi),
            (self.x_hi, self.y_hi),
            (self.x_hi, self.y_lo),
        ]

    def contains(self, point: Point) -> bool:
        x, y = point
        tol = _MEMBERSHIP_TOL
        return self.x_lo - tol <= x <= self.x_hi + tol and self.y_lo - tol <= y <= self.y_hi + tol


def return_rectangle(epsilon: float) -> Rect:
    """R_eps = [1+eps, (1+eps)^3] x [0, eps^3], the strip swept by returning
    orbits on the expanding side of q."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    u = 1.0 + epsilon
    return Rect(u, u**3, 0.0, epsilon**3)


@dataclass(frozen=True)
class ModelSystem:
    """A full model instance: saddle chart, transition map and seed arc.

    ``epsilon`` is tied to the expansion rate (|mu| = 1 + eps); the chart
    neighbourhoods of q and r are squares of the given half widths.
    """

    saddle: SaddleSpec
    transition: TransitionSpec
    seed: "SeedArc"
    chart_half_width: float = 2.0
    uq_half_width: float = 0.3
    ur_half_width: float = 0.3

    def __post_init__(self):
        if self.chart_half_width <= 0 or self.uq_half_width <= 0 or self.ur_half_width <= 0:
            raise DomainError("chart half widths must be positive")

    # Short names for the parameters everything else reads constantly.
    @property
    def lam(self) -> float:
        return self.saddle.lam

    @property
    def mu(self) -> float:
        return self.saddle.mu

    @property
    def epsilon(self) -> float:
        return abs(self.mu) - 1.0

    @property
    def n_max(self) -> int:
        """Largest arc index before |lam|^(n/2) drops below 1e-6 and the
        rectangle metrics lose too many digits to cancellation."""
        return int(math.floor(2.0 * math.log(1e-6) / math.log(abs(self.lam))))

    @property
    def _chart_reach(self) -> float:
        """U(p)'s half width plus the membership slack: the bound of ``in_chart`` and the slope screen."""
        return self.chart_half_width + _MEMBERSHIP_TOL

    def in_chart(self, point: Point) -> bool:
        w = self._chart_reach
        return abs(point[0]) <= w and abs(point[1]) <= w

    def in_uq(self, point: Point) -> bool:
        """U(q) membership, also on arrays."""
        w = self.uq_half_width + _MEMBERSHIP_TOL
        return (abs(point[0] - 1.0) <= w) & (abs(point[1]) <= w)

    def in_ur(self, point: Point) -> bool:
        w = self.ur_half_width + _MEMBERSHIP_TOL
        return abs(point[0]) <= w and abs(point[1] - 1.0) <= w


def apply_linear(sys: ModelSystem, point: Point, k: int) -> Point:
    """k-th iterate of the saddle chart map, f^k(x, y) = (mu^k x, lam^k y).

    Pure arithmetic: no chart membership is enforced here (see
    :func:`chart_exit_index` for the guard).
    """
    x, y = point
    if k == 0:
        return (float(x), float(y))
    return (_scale_power(x, sys.mu, k), _scale_power(y, sys.lam, k))


def _scale_power(value: float, base: float, k: int) -> float:
    """value * base**k without squeezing the product through a possibly
    overflowing intermediate power."""
    if value == 0.0:
        return 0.0
    if abs(k) <= _DIRECT_POW_LIMIT:
        return value * base**k
    sign = math.copysign(1.0, value)
    if _flips_sign(base, k):
        sign = -sign
    return sign * _saturated_exp(k * math.log(abs(base)) + math.log(abs(value)))


def _scale_powers(values: np.ndarray, base: float, k: int) -> np.ndarray:
    """``_scale_power`` on an array: the factor base**k once, or the saturated
    log-space form by numpy's log and exp, which do not round like libm's."""
    if abs(k) <= _DIRECT_POW_LIMIT:
        return values * base**k
    with np.errstate(divide="ignore"):
        t = k * math.log(abs(base)) + np.log(np.abs(values))
    power = np.copysign(np.exp(np.where(t > _LOG_MAX, np.inf, np.where(t < _LOG_MIN, -np.inf, t))), values)
    return -power if _flips_sign(base, k) else power


def _flips_sign(base: float, k):
    """Whether base**k is negative: a negative base to an odd int (or whole float array) k."""
    return (base < 0.0) & (k % 2 == 1)


def _saturated_exp(t: float) -> float:
    """exp(t) over the double range: inf above _LOG_MAX, 0.0 below _LOG_MIN."""
    if t > _LOG_MAX:
        return math.inf
    if t < _LOG_MIN:
        return 0.0
    return math.exp(t)


def _window_power(x: float, base: float, lo: float, hi: float, k_min: int) -> int | None:
    """First k >= k_min with x * base**k in (lo, hi], or None.

    A log estimate picks k and a scan of four steps either side settles it,
    so the boundary cases are decided by the same float comparisons the
    membership tests use.  When hi / lo is |base| the window is one step
    wide and half open, and k is unique.
    """
    est = int(_log_steps(math.log(hi), math.log(abs(x)), math.log(abs(base))))
    for k in range(max(est - 4, k_min), max(est + 5, k_min + 5)):
        if lo < _scale_power(x, base, k) <= hi:
            return k
    return None


def _log_steps(log_hi, log_v, log_base):
    """floor((log hi - log|v|) / log|base|), on floats or arrays: the log estimate of
    the steps of |base| that carry |v| up to hi, given the three logs."""
    return np.floor((log_hi - log_v) / log_base)


def chart_exit_index(sys: ModelSystem, point: Point, k: int) -> int | None:
    """First i in 1..k with f^i(point) outside U(p), or None if the whole
    segment of orbit stays inside the chart.

    Closed form: along the orbit |x_i| = |mu|^i |x| and |y_i| = |lam|^i |y|
    are monotone in i, so a coordinate whose base has modulus at most 1 can
    only leave at i = 1, and a coordinate v with |base| > 1 leaves at the
    first i with |base|^i |v| > w = ``sys._chart_reach``,

        i = _log_steps(log w, log|v|, log|base|) + 1.

    The smaller estimate of the two coordinates is settled by ``in_chart``
    on f^(i-1) and f^i, stepping while either disagrees, so a tie at w is
    decided by the same float comparison as a walk over i = 1..k would make.
    A check costs two ``apply_linear`` calls when the orbit stays inside and
    three when it leaves after step 1, unless the estimate has to step.
    """
    if k < 1:
        return None
    if not sys.in_chart(apply_linear(sys, point, 1)):
        return 1
    log_w = math.log(sys._chart_reach)
    i = k + 1
    for v, base in zip(point, (sys.mu, sys.lam)):
        if abs(base) > 1.0 and v != 0.0:
            i = min(i, int(_log_steps(log_w, math.log(abs(v)), math.log(abs(base)))) + 1)
    i = max(i, 2)
    while i > 2 and not sys.in_chart(apply_linear(sys, point, i - 1)):
        i -= 1
    while i <= k and sys.in_chart(apply_linear(sys, point, i)):
        i += 1
    return i if i <= k else None


def _phi_parts(sys: ModelSystem, x: float, y: float) -> Point:
    t = sys.transition
    px = t.a * y + t.b * x * y + t.c * x**3 + _poly(t.h1_terms, x, y)
    py = 1.0 + t.d * x + t.e * y + _poly(t.h2_terms, x, y)
    return (px, py)


def apply_phi(sys: ModelSystem, point: Point) -> Point:
    """Transition map near q.  ``point`` is in chart coordinates (so q itself
    is (1, 0)); the image lands near r = (0, 1)."""
    if not sys.in_uq(point):
        raise DomainError(f"point {point} outside U(q)")
    return _phi_parts(sys, point[0] - 1.0, point[1])


def _phi_jacobian(sys: ModelSystem, x: float, y: float) -> tuple[Point, Point]:
    """First partials ((Fx, Fy), (Gx, Gy)) of phi = (F, G) at the local
    offsets (x, y) from q.  The one written copy of them."""
    t = sys.transition
    return (
        (t.b * y + 3.0 * t.c * x**2 + _poly(t.h1_terms, x, y, dx=1), t.a + t.b * x + _poly(t.h1_terms, x, y, dy=1)),
        (t.d + _poly(t.h2_terms, x, y, dx=1), t.e + _poly(t.h2_terms, x, y, dy=1)),
    )


def jacobian_phi(sys: ModelSystem, point: Point) -> np.ndarray:
    """Exact 2x2 Jacobian of phi at ``point`` (chart coordinates)."""
    if not sys.in_uq(point):
        raise DomainError(f"point {point} outside U(q)")
    return np.array(_phi_jacobian(sys, point[0] - 1.0, point[1]))


class Condition(NamedTuple):
    name: str
    passed: bool
    measured: str
    detail: str = ""


class ConditionReport(NamedTuple):
    entries: list[Condition]

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, passed: bool, measured: str, detail: str = "") -> None:
        self.entries.append(Condition(name, bool(passed), measured, detail))


_TAU_CACHE: dict[ModelSystem, tuple[float, float]] = {}


def _tau_candidates(sys: ModelSystem, rect: Rect) -> list[Point]:
    """The offsets (x, y) from q of ``rect``'s corners and of the sign changes
    of each edge polynomial's derivative, the edge polynomial being
    ``_phi_parts`` run on a Polynomial in the edge's free coordinate."""
    var, xs, ys = Polynomial((0.0, 1.0)), (rect.x_lo - 1.0, rect.x_hi - 1.0), (rect.y_lo, rect.y_hi)
    points = [(x, y) for x in xs for y in ys]
    for y in ys:
        points += [(x, y) for x in real_roots(_phi_parts(sys, var, y)[0].derivative(), *xs)]
    for x in xs:
        points += [(x, y) for y in real_roots(_phi_parts(sys, x, var)[0].derivative(), *ys)]
    return points


def tau_bounds(sys: ModelSystem) -> tuple[float, float]:
    """Range of pr_x(phi) over the return rectangle, in units of eps^3.

    Returns (tau0, tau1) with tau0 * eps^3 <= pr_x(phi(R)) <= tau1 * eps^3.
    For the reference sign pattern the extremes sit at the rectangle corners
    and approach (c, a + 27c) as eps -> 0.

    The range is exact, not sampled.  The offsets from q on R are at most
    X = (1+eps)^3 - 1 and Y = eps^3, so d/dy pr_x(phi) = a + b x + d/dy H1
    keeps the sign of a on R when |a| > |b| X + sum |j h| X^i Y^(j-1) over
    H1's terms h x^i y^j.  Then R holds no interior extremum, and the range
    runs over pr_x(phi) at ``_tau_candidates``; otherwise InconclusiveError
    names the failed certificate.  A NaN at a candidate makes both bounds
    NaN.  The pair is kept per system like ``rects.build_sn``'s S_n; a
    failure is not stored and raises on every call.
    """
    bounds = _TAU_CACHE.get(sys)
    if bounds is not None:
        return bounds
    eps = sys.epsilon
    if eps <= 0.0:
        raise DomainError("tau bounds need |mu| > 1")
    rect = return_rectangle(eps)
    for corner in rect.corners():
        if not sys.in_uq(corner):
            raise ChartExitError(f"return rectangle corner {corner} leaves U(q)")
    t, big_x = sys.transition, rect.x_hi - 1.0
    rest = abs(t.b) * big_x + sum(abs(j * h) * big_x**i * rect.y_hi ** (j - 1) for i, j, h in t.h1_terms if j)
    if not abs(t.a) > rest:
        raise InconclusiveError(f"|a|={abs(t.a):.6g} does not exceed {rest:.6g}, the bound of |b x + d/dy H1| on R_eps: pr_x(phi) may have an interior extremum")
    values = [_phi_parts(sys, x, y)[0] for x, y in _tau_candidates(sys, rect)]
    lo, hi = (math.nan, math.nan) if any(map(math.isnan, values)) else (min(values), max(values))
    if lo <= 0.0 <= hi:
        raise WrongQuadrantError(
            "image of the return rectangle crosses pr_x = 0; "
            "this sign case requires the mirrored return rectangle"
        )
    if hi < 0.0:
        lo, hi = -hi, -lo  # strip on the Q2 side, report magnitudes
    scale = eps**3
    bounds = _TAU_CACHE[sys] = (lo / scale, hi / scale)
    return bounds


def _small_expansion(sys: ModelSystem) -> bool:
    """|mu|^(3/2) < 1/|lam|, the expansion bound of the slope estimates and the cascade."""
    return abs(sys.mu) ** 1.5 < 1.0 / abs(sys.lam)


def _short_recurrence(sys: ModelSystem, tau1: float) -> bool:
    """tau1 < 1/eps for the upper tau bound, the recurrence gate of ``validate`` and the cascade."""
    return tau1 < 1.0 / sys.epsilon


def validate(sys: ModelSystem) -> ConditionReport:
    """Check the standing hypotheses and return a report (never raises for a
    merely invalid system; each failure is a named entry)."""
    rep = ConditionReport([])
    lam, mu = sys.lam, sys.mu
    t = sys.transition

    rep.add(
        "eigenvalues",
        0.0 < abs(lam) < 1.0 < abs(mu),
        f"lam={lam:g} mu={mu:g}",
        "need 0 < |lam| < 1 < |mu|",
    )
    rep.add("a_nonzero", t.a != 0.0, f"a={t.a:g}", "transition must be a local diffeomorphism")
    rep.add("d_nonzero", t.d != 0.0, f"d={t.d:g}", "unstable leaf must cross the stable axis transversely")
    rep.add("c_nonzero", t.c != 0.0, f"c={t.c:g}", "tangency must be exactly cubic")
    rep.add("EX1", t.b != 0.0, f"b={t.b:g}", "vertical tangencies of the image arcs need b != 0")
    h1_bad = t.h1_jet_violations()
    rep.add("H1_jet", not h1_bad, f"violations={h1_bad}", "H1 may not contain 1, x, y, x^2, xy, x^3")
    h2_bad = t.h2_jet_violations()
    rep.add("H2_jet", not h2_bad, f"violations={h2_bad}", "H2 may not contain 1, x, y")

    eps = sys.epsilon
    if rep.ok and eps > 0.0:
        try:
            tau0, tau1 = tau_bounds(sys)
            rep.add(
                "tau_upper",
                _short_recurrence(sys, tau1),
                f"tau0={tau0:.6g} tau1={tau1:.6g} bound={1.0 / eps:.6g}",
                f"corner approximations: c={t.c:g}, a+27c={t.a + 27.0 * t.c:g}",
            )
        except (WrongQuadrantError, ChartExitError, InconclusiveError) as exc:
            rep.add("tau_upper", False, "undefined", str(exc))
    else:
        rep.add("tau_upper", False, "skipped", "prior conditions failed")

    if 0.0 < abs(lam) < 1.0 < abs(mu):
        rep.add(
            "expansion_balance",
            _small_expansion(sys),
            f"|mu|^1.5={abs(mu) ** 1.5:.6g} vs 1/|lam|={1.0 / abs(lam):.6g}",
            "expansion must stay below the contraction budget",
        )
        try:
            case, adapt = classify_system(sys)
        except DomainError as exc:
            rep.add("sign_case", False, "undefined", str(exc))
        else:
            rep.add(
                "sign_case",
                adapt.adaptable,
                case.label,
                "sign case admits the rectangle construction" if adapt.adaptable else "sign case is not adaptable",
            )
    else:
        rep.add("expansion_balance", False, "skipped", "eigenvalue condition failed")
        rep.add("sign_case", False, "skipped", "eigenvalue condition failed")
    return rep
