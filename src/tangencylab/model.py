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
``apply_linear``, ``apply_phi``, ``jacobian_phi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import ChartExitError, DomainError, WrongQuadrantError

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
    "return_rectangle_minus",
    "signed_power",
]

Point = tuple[float, float]

# Monomials that must be absent for phi to be in the normal form above.
_H1_FORBIDDEN = {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (3, 0)}
_H2_FORBIDDEN = {(0, 0), (1, 0), (0, 1)}

# Direct float powers stay well conditioned up to this exponent; beyond it
# the exponent products move to log space.
_DIRECT_POW_LIMIT = 50


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


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        if not (self.x_lo <= self.x_hi and self.y_lo <= self.y_hi):
            raise DomainError("rectangle bounds out of order")

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

    def contains(self, point: Point, tol: float = 0.0) -> bool:
        x, y = point
        return (
            self.x_lo - tol <= x <= self.x_hi + tol
            and self.y_lo - tol <= y <= self.y_hi + tol
        )


def return_rectangle(epsilon: float) -> Rect:
    """R_eps = [1+eps, (1+eps)^3] x [0, eps^3], the strip swept by returning
    orbits on the expanding side of q."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    u = 1.0 + epsilon
    return Rect(u, u**3, 0.0, epsilon**3)


def return_rectangle_minus(epsilon: float) -> Rect:
    """The mirrored strip [ (1+eps)^-3, (1+eps)^-1 ] x [0, eps^3] used when
    the case analysis places the returning strip on the other side of q."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    u = 1.0 + epsilon
    return Rect(u**-3, u**-1, 0.0, epsilon**3)


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

    def in_chart(self, point: Point, tol: float = 1e-12) -> bool:
        w = self.chart_half_width + tol
        return abs(point[0]) <= w and abs(point[1]) <= w

    def in_uq(self, point: Point, tol: float = 1e-12) -> bool:
        w = self.uq_half_width + tol
        return abs(point[0] - 1.0) <= w and abs(point[1]) <= w

    def in_ur(self, point: Point, tol: float = 1e-12) -> bool:
        w = self.ur_half_width + tol
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
    if base < 0.0 and k % 2 != 0:
        sign = -sign
    t = k * math.log(abs(base)) + math.log(abs(value))
    if t > 709.0:
        return sign * math.inf
    if t < -745.0:
        return sign * 0.0
    return sign * math.exp(t)


def _window_power(x: float, base: float, lo: float, hi: float, k_min: int) -> int | None:
    """First k >= k_min with x * base**k in (lo, hi], or None.

    A log estimate picks k and a scan of four steps either side settles it,
    so the boundary cases are decided by the same float comparisons the
    membership tests use.  When hi / lo is |base| the window is one step
    wide and half open, and k is unique.
    """
    est = math.floor((math.log(hi) - math.log(abs(x))) / math.log(abs(base)))
    for k in range(max(est - 4, k_min), max(est + 5, k_min + 5)):
        if lo < _scale_power(x, base, k) <= hi:
            return k
    return None


def chart_exit_index(sys: ModelSystem, point: Point, k: int) -> int | None:
    """First i in 1..k with f^i(point) outside U(p), or None if the whole
    segment of orbit stays inside the chart."""
    if k < 1:
        return None
    for i in range(1, k + 1):
        if not sys.in_chart(apply_linear(sys, point, i)):
            return i
    return None


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


def jacobian_phi(sys: ModelSystem, point: Point) -> np.ndarray:
    """Exact 2x2 Jacobian of phi at ``point`` (chart coordinates)."""
    if not sys.in_uq(point):
        raise DomainError(f"point {point} outside U(q)")
    t = sys.transition
    x = point[0] - 1.0
    y = point[1]
    return np.array(
        [
            [t.b * y + 3.0 * t.c * x**2 + _poly(t.h1_terms, x, y, dx=1), t.a + t.b * x + _poly(t.h1_terms, x, y, dy=1)],
            [t.d + _poly(t.h2_terms, x, y, dx=1), t.e + _poly(t.h2_terms, x, y, dy=1)],
        ]
    )


def phi_x_derivatives(sys: ModelSystem, x: float, y: float) -> tuple[float, float, float, float, float]:
    """First and second partials of pr_x(phi) in local offsets (x, y):
    (Fx, Fy, Fxx, Fxy, Fyy).  Used by the vertical tangency solver."""
    t = sys.transition
    fx = t.b * y + 3.0 * t.c * x**2 + _poly(t.h1_terms, x, y, dx=1)
    fy = t.a + t.b * x + _poly(t.h1_terms, x, y, dy=1)
    fxx = 6.0 * t.c * x + _poly(t.h1_terms, x, y, dx=2)
    fxy = t.b + _poly(t.h1_terms, x, y, dx=1, dy=1)
    fyy = _poly(t.h1_terms, x, y, dy=2)
    return fx, fy, fxx, fxy, fyy


@dataclass(frozen=True)
class Condition:
    name: str
    passed: bool
    measured: str
    detail: str = ""


@dataclass
class ConditionReport:
    entries: list[Condition] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, passed: bool, measured: str, detail: str = "") -> None:
        self.entries.append(Condition(name, bool(passed), measured, detail))


_TAU_RESOLUTION = 256


def tau_bounds(sys: ModelSystem, region: Rect | None = None) -> tuple[float, float]:
    """Range of pr_x(phi) over the return rectangle, in units of eps^3.

    Returns (tau0, tau1) with tau0 * eps^3 <= pr_x(phi(R)) <= tau1 * eps^3.
    For the reference sign pattern the extremes sit at the rectangle corners
    and approach (c, a + 27c) as eps -> 0.
    """
    eps = sys.epsilon
    if eps <= 0.0:
        raise DomainError("tau bounds need |mu| > 1")
    rect = region if region is not None else return_rectangle(eps)
    for corner in rect.corners():
        if not sys.in_uq(corner):
            raise ChartExitError(f"return rectangle corner {corner} leaves U(q)")
    xs = np.linspace(rect.x_lo, rect.x_hi, _TAU_RESOLUTION) - 1.0
    ys = np.linspace(rect.y_lo, rect.y_hi, _TAU_RESOLUTION)
    px = _phi_parts(sys, *np.meshgrid(xs, ys, indexing="ij"))[0]
    lo = float(px.min())
    hi = float(px.max())
    if lo <= 0.0 <= hi:
        raise WrongQuadrantError(
            "image of the return rectangle crosses pr_x = 0; "
            "this sign case requires the mirrored return rectangle"
        )
    if hi < 0.0:
        lo, hi = -hi, -lo  # strip on the Q2 side, report magnitudes
    scale = eps**3
    return (lo / scale, hi / scale)


def validate(sys: ModelSystem) -> ConditionReport:
    """Check the standing hypotheses and return a report (never raises for a
    merely invalid system; each failure is a named entry)."""
    from .cases import classify_system  # local import, cases depends on model

    rep = ConditionReport()
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
                tau1 < 1.0 / eps,
                f"tau0={tau0:.6g} tau1={tau1:.6g} bound={1.0 / eps:.6g}",
                f"corner approximations: c={t.c:g}, a+27c={t.a + 27.0 * t.c:g}",
            )
        except (WrongQuadrantError, ChartExitError) as exc:
            rep.add("tau_upper", False, "undefined", str(exc))
    else:
        rep.add("tau_upper", False, "skipped", "prior conditions failed")

    if 0.0 < abs(lam) < 1.0 < abs(mu):
        balance = abs(mu) ** 1.5 < 1.0 / abs(lam)
        rep.add(
            "expansion_balance",
            balance,
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
