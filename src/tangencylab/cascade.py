"""The box cascade B_1 -> B_1' -> B_2 -> ... inside the return rectangle.

B_1 = f^(i_n)(S_n) is a flat box in R_eps.  One step of the cascade pushes a
box through phi (it folds over near r), cuts the image to the vertical strip
between the innermost pair of vertex abscissas, and rides f back into R_eps
with the strip's own window exponent.  Widths grow by ~mu^u per step while
heights and the distance to the unstable curve underneath collapse by lam
powers; the cascade ends the first time the next box no longer fits in
R_eps, and the number of boxes built is k0.

Curves are never discretized destructively: box edges are *handles*, a
straight base segment plus a word of maps evaluated on demand, so every
metric can be re-sampled at full precision at any depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cases import classify_system
from .errors import (
    CascadeEnd,
    ChartExitError,
    DomainError,
    InconclusiveError,
    NumericError,
    WrongQuadrantError,
)
from .model import (
    ModelSystem,
    Point,
    _scale_power,
    apply_linear,
    apply_phi,
    chart_exit_index,
    jacobian_phi,
    return_rectangle,
    tau_bounds,
)
from .numerics import _bisect, _NoSignChange
from .rects import SnRectangle, build_sn, fold_point
from .returns import i_n, window_exponent

__all__ = [
    "MapWord",
    "CurveHandle",
    "Box",
    "CascadeResult",
    "build_b1",
    "box_metrics",
    "cascade_step",
    "run_cascade",
    "count_crossing_arcs",
]


@dataclass(frozen=True)
class MapWord:
    """A composition of chart maps: atoms ("linear", k) and ("phi",), applied
    left to right.  Kept symbolic so Jacobians are exact chain products."""

    atoms: tuple[tuple, ...] = ()

    def extended(self, *atoms: tuple) -> "MapWord":
        return MapWord(self.atoms + tuple(atoms))

    def apply(self, sys: ModelSystem, point: Point) -> Point:
        p = point
        for atom in self.atoms:
            if atom[0] == "linear":
                p = apply_linear(sys, p, atom[1])
            elif atom[0] == "phi":
                p = apply_phi(sys, p)
            else:
                raise DomainError(f"unknown map atom {atom[0]!r}")
        return p

    def jacobian(self, sys: ModelSystem, point: Point) -> np.ndarray:
        """Chain-rule Jacobian at ``point`` (2x2)."""
        p = point
        jac = np.eye(2)
        for atom in self.atoms:
            if atom[0] == "linear":
                k = atom[1]
                diag = np.array(
                    [
                        [_scale_power(1.0, sys.mu, k), 0.0],
                        [0.0, _scale_power(1.0, sys.lam, k)],
                    ]
                )
                jac = diag @ jac
                p = apply_linear(sys, p, k)
            elif atom[0] == "phi":
                jac = jacobian_phi(sys, p) @ jac
                p = apply_phi(sys, p)
            else:
                raise DomainError(f"unknown map atom {atom[0]!r}")
        return jac


@dataclass(frozen=True)
class CurveHandle:
    """A curve = MapWord applied to a straight base segment.

    The global parameter s in [0, 1] runs along the base segment; the handle
    itself may be restricted to [s_lo, s_hi] (cascade cuts shrink edges
    without losing the original geometry).
    """

    start: Point
    end: Point
    word: MapWord = field(default_factory=MapWord)
    s_lo: float = 0.0
    s_hi: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.s_lo < self.s_hi <= 1.0):
            raise DomainError(f"handle parameter range [{self.s_lo}, {self.s_hi}] invalid")

    def base_point(self, s: float) -> Point:
        return (
            self.start[0] + s * (self.end[0] - self.start[0]),
            self.start[1] + s * (self.end[1] - self.start[1]),
        )

    def eval(self, sys: ModelSystem, s: float) -> Point:
        if not (self.s_lo - 1e-12 <= s <= self.s_hi + 1e-12):
            raise DomainError(f"s={s:g} outside handle range [{self.s_lo:g}, {self.s_hi:g}]")
        return self.word.apply(sys, self.base_point(s))

    def endpoints(self, sys: ModelSystem) -> tuple[Point, Point]:
        return self.eval(sys, self.s_lo), self.eval(sys, self.s_hi)

    def restricted(self, s_a: float, s_b: float) -> "CurveHandle":
        lo, hi = (s_a, s_b) if s_a <= s_b else (s_b, s_a)
        return CurveHandle(self.start, self.end, self.word, lo, hi)

    def extended_word(self, *atoms: tuple) -> "CurveHandle":
        return CurveHandle(self.start, self.end, self.word.extended(*atoms), self.s_lo, self.s_hi)

    def invert_x(self, sys: ModelSystem, x_target: float) -> float:
        """Parameter s with image abscissa x_target, by bisection.  The
        handle must be an x-monotone graph (checked by the callers on
        samples); raises NumericError when the target is not bracketed."""
        try:
            return _bisect(lambda s: self.eval(sys, s)[0] - x_target, self.s_lo, self.s_hi)
        except _NoSignChange:
            raise NumericError(f"abscissa {x_target:g} outside the handle's image range") from None


def _lobatto(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [lo, hi]: endpoint-including, clustered at
    the ends where the cascade curves bend."""
    js = np.arange(count)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * js / (count - 1)))


def _assert_x_monotone(sys: ModelSystem, handle: CurveHandle, count: int = 33) -> None:
    xs = [handle.eval(sys, float(s))[0] for s in _lobatto(handle.s_lo, handle.s_hi, count)]
    span = xs[-1] - xs[0]
    if span == 0.0:
        raise NumericError("edge image collapsed to a single abscissa")
    direction = math.copysign(1.0, span)
    tol = 1e-12 * abs(span)
    for left, right in zip(xs, xs[1:]):
        if (right - left) * direction < -tol:
            raise NumericError("edge is not an x-monotone graph at this sampling")


@dataclass(frozen=True)
class Box:
    """One cascade box.  Vertical sides at x_lo/x_hi; top and bottom are
    curve handles over that abscissa range; delta is the unstable reference
    curve below the box (the image of a padded y = 0 segment under the same
    word), used for the distance metric L_k."""

    kind: str
    x_lo: float
    x_hi: float
    top: CurveHandle
    bottom: CurveHandle
    delta: CurveHandle
    k: int

    def __post_init__(self):
        if self.kind not in ("rectangle-like", "parallelogram-like"):
            raise DomainError(f"unknown box kind {self.kind!r}")
        if not self.x_lo <= self.x_hi:
            raise DomainError("box abscissas out of order")
        if self.k < 1:
            raise DomainError("cascade index starts at 1")

    @property
    def word(self) -> MapWord:
        return self.top.word

    def vertices(self, sys: ModelSystem) -> list[Point]:
        t0, t1 = self.top.endpoints(sys)
        b0, b1 = self.bottom.endpoints(sys)
        return [t0, t1, b0, b1]


def build_b1(sys: ModelSystem, sn: SnRectangle) -> Box:
    """B_1 = f^(i_n)(S_n) as a rectangle-like box with exact corner images.

    Edge handles are anchored on the S_n edges with the word [linear(i_n)],
    so deeper boxes can always be traced back to the fold.  The delta curve
    starts as the y = 0 segment under S_n, padded by 25% of the width on
    each side so later cuts always stay inside its image.
    """
    i = i_n(sys, sn.n)
    r = sn.rect
    word = MapWord((("linear", i),))
    top = CurveHandle((r.x_lo, r.y_hi), (r.x_hi, r.y_hi), word)
    bottom = CurveHandle((r.x_lo, r.y_lo), (r.x_hi, r.y_lo), word)
    pad = 0.25 * r.width
    delta = CurveHandle((r.x_lo - pad, 0.0), (r.x_hi + pad, 0.0), word)
    xs = sorted((_scale_power(r.x_lo, sys.mu, i), _scale_power(r.x_hi, sys.mu, i)))
    box = Box("rectangle-like", xs[0], xs[1], top, bottom, delta, k=1)
    _assert_x_monotone(sys, top)
    _assert_x_monotone(sys, bottom)
    return box


def _edge_extreme_ys(sys: ModelSystem, handle: CurveHandle, count: int = 65) -> tuple[float, float]:
    """(min_y, max_y) over the handle, Lobatto-sampled with one refinement
    pass around each extremum."""
    ss = _lobatto(handle.s_lo, handle.s_hi, count)
    ys = [handle.eval(sys, float(s))[1] for s in ss]

    def refine(idx: int, pick) -> float:
        lo = float(ss[max(idx - 1, 0)])
        hi = float(ss[min(idx + 1, count - 1)])
        sub = [handle.eval(sys, float(s))[1] for s in _lobatto(lo, hi, count)]
        return pick(sub)

    return (
        min(min(ys), refine(int(np.argmin(ys)), min)),
        max(max(ys), refine(int(np.argmax(ys)), max)),
    )


# Curves with different parameterizations recover the abscissa of a fiber
# with a relative error of a few hundred ulps, so y differences that small
# are inversion noise, not geometry.  Anything meaningful is a macroscopic
# fraction of the local y scale; clamp everything under this ratio to zero.
_FIBER_RESOLUTION = 1e-9


def _fiber_metrics(sys: ModelSystem, box: Box, count: int = 33) -> tuple[float, float]:
    """(max fiber length, max fiber gap) over the box abscissas.

    A fiber is the intersection of the box with a vertical line: its length
    is the top-to-bottom edge separation at that x, and its gap is the
    shortest vertical segment connecting it to the delta curve.  Both maxima
    get one refinement pass around the sampled argmax.  Values below the
    x-inversion resolution of the fiber's own y scale are reported as 0.
    """
    inset = 1e-6 * max(box.x_hi - box.x_lo, 1e-300)

    def fiber(x: float) -> tuple[float, float]:
        y_t = box.top.eval(sys, box.top.invert_x(sys, x))[1]
        y_b = box.bottom.eval(sys, box.bottom.invert_x(sys, x))[1]
        y_d = box.delta.eval(sys, box.delta.invert_x(sys, x))[1]
        floor = _FIBER_RESOLUTION * max(abs(y_t), abs(y_b), abs(y_d))
        lo, hi = (y_b, y_t) if y_b <= y_t else (y_t, y_b)
        if y_d <= lo:
            gap = lo - y_d
        elif y_d >= hi:
            gap = y_d - hi
        else:
            gap = 0.0
        length = hi - lo
        return (0.0 if length <= floor else length,
                0.0 if gap <= floor else gap)

    xs = _lobatto(box.x_lo + inset, box.x_hi - inset, count)
    data = [fiber(float(x)) for x in xs]

    def refined(select) -> float:
        values = [select(d) for d in data]
        idx = int(np.argmax(values))
        lo = float(xs[max(idx - 1, 0)])
        hi = float(xs[min(idx + 1, count - 1)])
        sub = [select(fiber(float(x))) for x in _lobatto(lo, hi, count)]
        return max(max(values), max(sub))

    return refined(lambda d: d[0]), refined(lambda d: d[1])


def box_metrics(sys: ModelSystem, box: Box) -> tuple[float, float, float]:
    """(W_k, H_k, L_k): horizontal width, largest vertical fiber length, and
    largest vertical clearance between the box and the delta curve.  Heights
    at deep words underflow to an honest 0.0; the comparisons downstream
    remain valid."""
    height, gap = _fiber_metrics(sys, box)
    return box.x_hi - box.x_lo, height, gap


def max_edge_slope(sys: ModelSystem, box: Box, count: int = 65) -> float:
    """Largest |dy/dx| between consecutive samples of the two long edges."""
    worst = 0.0
    for handle in (box.top, box.bottom):
        pts = [handle.eval(sys, float(s)) for s in _lobatto(handle.s_lo, handle.s_hi, count)]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 == x0:
                if y1 != y0:
                    return math.inf
                continue
            worst = max(worst, abs((y1 - y0) / (x1 - x0)))
    return worst


def cascade_step(sys: ModelSystem, box: Box) -> tuple[Box, int, Box]:
    """One cascade step: (cut, u_k, next).

    The four vertex images under phi give four abscissas; the innermost pair
    [x_-, x_+] is the unique strip guaranteed to lie inside the abscissa
    projection of the whole image, whatever the orientation.  ``cut`` is the
    image restricted to that strip (parallelogram-like), u_k windows x_+,
    and ``next`` is f^(u_k)(cut).  Raises CascadeEnd when next leaves R_eps.
    """
    if box.kind != "rectangle-like":
        raise DomainError("cascade steps start from rectangle-like boxes")
    for v in box.vertices(sys):
        if not sys.in_uq(v):
            raise ChartExitError(f"box vertex ({v[0]:.6g}, {v[1]:.6g}) left U(q)")
    images = [apply_phi(sys, v) for v in box.vertices(sys)]
    for w in images:
        if not sys.in_ur(w):
            raise ChartExitError(f"phi image ({w[0]:.6g}, {w[1]:.6g}) left U(r)")
    xs = sorted(w[0] for w in images)
    x_minus, x_plus = xs[1], xs[2]
    if not x_minus < x_plus:
        raise NumericError(f"cut strip degenerate at k={box.k}: [{x_minus:g}, {x_plus:g}]")
    if x_minus <= 0.0:
        raise WrongQuadrantError(
            "cut strip reaches nonpositive abscissas: mirrored-rectangle case"
        )

    cut_top = box.top.extended_word(("phi",))
    cut_bottom = box.bottom.extended_word(("phi",))
    _assert_x_monotone(sys, cut_top)
    _assert_x_monotone(sys, cut_bottom)
    cut_top = cut_top.restricted(
        cut_top.invert_x(sys, x_minus), cut_top.invert_x(sys, x_plus)
    )
    cut_bottom = cut_bottom.restricted(
        cut_bottom.invert_x(sys, x_minus), cut_bottom.invert_x(sys, x_plus)
    )
    cut_delta = box.delta.extended_word(("phi",))
    cut = Box("parallelogram-like", x_minus, x_plus, cut_top, cut_bottom, cut_delta, k=box.k)

    u = window_exponent(sys, x_plus)
    for v in cut.vertices(sys):
        exit_i = chart_exit_index(sys, v, u)
        if exit_i is not None:
            raise ChartExitError(f"cut vertex orbit leaves U(p) at step {exit_i} of {u}")

    lin = ("linear", u)
    next_xs = sorted((_scale_power(x_minus, sys.mu, u), _scale_power(x_plus, sys.mu, u)))
    nxt = Box(
        "rectangle-like",
        next_xs[0],
        next_xs[1],
        cut_top.extended_word(lin),
        cut_bottom.extended_word(lin),
        cut_delta.extended_word(lin),
        k=box.k + 1,
    )

    target = return_rectangle(sys.epsilon)
    tol = 1e-12
    if not (target.x_lo - tol <= nxt.x_lo and nxt.x_hi <= target.x_hi + tol):
        raise CascadeEnd(
            f"B_{nxt.k} spans [{nxt.x_lo:.6g}, {nxt.x_hi:.6g}], outside R_eps "
            f"[{target.x_lo:.6g}, {target.x_hi:.6g}] (u_{box.k}={u})"
        )
    for handle in (nxt.top, nxt.bottom):
        for s in _lobatto(handle.s_lo, handle.s_hi, 33):
            y = handle.eval(sys, float(s))[1]
            if y < target.y_lo - tol or y > target.y_hi + tol:
                raise CascadeEnd(f"B_{nxt.k} escapes R_eps vertically (y={y:.6g}, u_{box.k}={u})")
    return cut, u, nxt


@dataclass(frozen=True)
class CascadeResult:
    """Boxes actually built plus their metrics; k0 = len(boxes).  The
    ``violations`` list records any failed depth-ratio inequality
    (W up 10x, H and L down 10x per step) instead of raising."""

    n: int
    boxes: tuple[Box, ...]
    widths: tuple[float, ...]
    heights: tuple[float, ...]
    dists: tuple[float, ...]
    u_exponents: tuple[int, ...]
    k0: int
    violations: tuple[str, ...]


def _empty_result(n: int) -> CascadeResult:
    return CascadeResult(n, (), (), (), (), (), 0, ())


_MAX_DEPTH = 32
_ARC_SAMPLES = 33
_ARC_MAX_REFINE = 4


def run_cascade(sys: ModelSystem, n: int) -> CascadeResult:
    """Full cascade at level n.

    Gated twice: the sign case must be adaptable with the fold on the
    standard (positive-abscissa, mu > 0) side, and the small-expansion
    requirements must hold; when the expansion is too strong the result is
    the empty cascade (k0 = 0) rather than an error.
    """
    case, adapt = classify_system(sys)
    if not adapt.adaptable:
        raise DomainError(f"case {case.label} is not adaptable; no cascade exists")
    if adapt.region != "R_eps":
        raise WrongQuadrantError(
            f"case {case.label} needs the mirrored rectangle; only the standard side is supported"
        )
    eps = sys.epsilon
    if abs(sys.mu) ** 1.5 * abs(sys.lam) >= 1.0:
        return _empty_result(n)
    _, tau1 = tau_bounds(sys)
    if tau1 * eps >= 1.0:
        return _empty_result(n)

    sn = build_sn(sys, n)
    boxes = [build_b1(sys, sn)]
    exponents: list[int] = []
    while len(boxes) < _MAX_DEPTH:
        try:
            _, u, nxt = cascade_step(sys, boxes[-1])
        except CascadeEnd:
            break
        exponents.append(u)
        boxes.append(nxt)

    metrics = [box_metrics(sys, b) for b in boxes]
    widths = tuple(m[0] for m in metrics)
    heights = tuple(m[1] for m in metrics)
    dists = tuple(m[2] for m in metrics)
    violations: list[str] = []
    slope_bound = eps**2.5
    for b in boxes:
        slope = max_edge_slope(sys, b)
        if slope > slope_bound:
            violations.append(f"edge slope {slope:.3g} > eps^(5/2) at k={b.k}")
    for k in range(len(boxes) - 1):
        if not widths[k + 1] >= 10.0 * widths[k]:
            violations.append(f"W_{k + 2} < 10*W_{k + 1} ({widths[k + 1]:.3g} vs {widths[k]:.3g})")
        if not heights[k + 1] <= 0.1 * heights[k]:
            violations.append(f"H_{k + 2} > H_{k + 1}/10 ({heights[k + 1]:.3g} vs {heights[k]:.3g})")
        if not dists[k + 1] <= 0.1 * dists[k]:
            violations.append(f"L_{k + 2} > L_{k + 1}/10 ({dists[k + 1]:.3g} vs {dists[k]:.3g})")
    return CascadeResult(
        n=n,
        boxes=tuple(boxes),
        widths=widths,
        heights=heights,
        dists=dists,
        u_exponents=tuple(exponents),
        k0=len(boxes),
        violations=tuple(violations),
    )


def count_crossing_arcs(sys: ModelSystem, n: int, box: Box) -> int:
    """Number of fold branches whose image under the box's word crosses the
    box from one vertical side to the other.

    The fold has three x-monotone branches (left tail, middle, right tail of
    the hook); each is tracked through the word and counted when its image
    abscissas span the box width.  Thresholds sit 1% inside the sides so
    exact-touch at the tangency parameters cannot flip the count, and
    counted branches must also pass through the box's vertical band.
    """
    S = build_sn(sys, n)
    word = box.word
    width = box.x_hi - box.x_lo
    if width <= 0.0:
        raise DomainError("box has no width")
    xa = box.x_lo + 0.01 * width
    xb = box.x_hi - 0.01 * width

    top_lo, top_hi = _edge_extreme_ys(sys, box.top)
    bot_lo, bot_hi = _edge_extreme_ys(sys, box.bottom)
    band_lo = min(top_lo, bot_lo)
    band_hi = max(top_hi, bot_hi)
    band_tol = max(1e-12, 10.0 * (band_hi - band_lo))

    def track(t: float) -> Point:
        return word.apply(sys, fold_point(sys, n, t))

    def monotone_samples(t0: float, t1: float, depth: int) -> list[Point]:
        """Samples of the tracked branch, recursively split until every
        piece reads as x-monotone (the geometry guarantees it; sampling can
        alias near the fold)."""
        ts = _lobatto(t0, t1, _ARC_SAMPLES)
        pts = [track(float(t)) for t in ts]
        xs = [p[0] for p in pts]
        span = xs[-1] - xs[0]
        direction = math.copysign(1.0, span) if span != 0.0 else 1.0
        tol = 1e-12 * max(abs(span), 1e-300)
        if all((b - a) * direction >= -tol for a, b in zip(xs, xs[1:])):
            return pts
        if depth >= _ARC_MAX_REFINE:
            raise InconclusiveError(
                f"branch not resolved as monotone after {_ARC_MAX_REFINE} refinements; "
                f"raise the sampling density"
            )
        mid = 0.5 * (t0 + t1)
        return monotone_samples(t0, mid, depth + 1) + monotone_samples(mid, t1, depth + 1)

    def branch_crosses(t0: float, t1: float) -> bool:
        pts = monotone_samples(t0, t1, 0)
        xs = [p[0] for p in pts]
        if not (min(xs) <= xa and max(xs) >= xb):
            return False
        # The traversal must happen inside the box vertically, not above or
        # below it.
        for (x, y) in pts:
            if xa <= x <= xb and not (band_lo - band_tol <= y <= band_hi + band_tol):
                return False
        return True

    branches = (
        (S.t_ext_minus, S.t_minus),
        (S.t_minus, S.t_plus),
        (S.t_plus, S.t_ext_plus),
    )
    return sum(1 for t0, t1 in branches if branch_crosses(t0, t1))
