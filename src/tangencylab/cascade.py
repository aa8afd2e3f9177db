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
    _MEMBERSHIP_TOL,
    ModelSystem,
    Point,
    _phi_parts,
    _scale_power,
    _scale_powers,
    _short_recurrence,
    _small_expansion,
    apply_linear,
    apply_phi,
    chart_exit_index,
    return_rectangle,
    tau_bounds,
)
from .numerics import _bisect, _NoSignChange
from .rects import SnRectangle, build_sn, fold_point
from .returns import _slope_cone, i_n, window_exponent

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
    left to right.  Kept symbolic so a curve can be re-sampled at full
    precision at any depth."""

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
    _points: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def _point(self, sys: ModelSystem, s: float) -> Point:
        """``eval`` at s, kept on the handle per (system, s): the cascade's edge samplers read here."""
        s = float(s)
        point = self._points.get((sys, s))
        if point is None:
            point = self._points[sys, s] = self.eval(sys, s)
        return point

    def level_y(self, sys: ModelSystem) -> float | None:
        """The one ordinate of a horizontal base segment under linear atoms
        only, taken from a base point as ``eval`` takes it; else None."""
        if self.start[1] != self.end[1] or any(atom[0] != "linear" for atom in self.word.atoms):
            return None
        return self.word.apply(sys, self.base_point(self.s_lo))[1]

    def endpoints(self, sys: ModelSystem) -> tuple[Point, Point]:
        return self._point(sys, self.s_lo), self._point(sys, self.s_hi)

    def restricted(self, s_a: float, s_b: float) -> "CurveHandle":
        """The handle on [s_a, s_b]; itself, with its points, when that is its own range."""
        lo, hi = (s_a, s_b) if s_a <= s_b else (s_b, s_a)
        return self if (lo, hi) == (self.s_lo, self.s_hi) else CurveHandle(self.start, self.end, self.word, lo, hi)

    def extended_word(self, *atoms: tuple) -> "CurveHandle":
        return CurveHandle(self.start, self.end, self.word.extended(*atoms), self.s_lo, self.s_hi)

    def invert_x(self, sys: ModelSystem, x_target: float) -> float:
        """Parameter s with image abscissa x_target.  The handle must be an
        x-monotone graph (checked by the callers on samples); raises
        NumericError when the target is not bracketed.

        The search is ``numerics._bisect`` run until the bracket is two
        neighbouring doubles, with ITP steps.  Near the root many
        neighbouring s round to one base point, so the images of this call
        are kept by base point and each word is applied once per point.
        That is exact: ``eval`` depends on s only through ``base_point(s)``,
        and along one segment a zero coordinate of the base point keeps one
        sign, so equal keys are equal bits.  The memo lives for one call;
        kept on the handle it would hold thousands of points per box.
        """
        images: dict[Point, Point] = {}

        def offset(s: float) -> float:
            base = self.base_point(s)
            image = images.get(base)
            if image is None:
                image = images[base] = self.eval(sys, s)
            return image[0] - x_target

        try:
            return _bisect(offset, self.s_lo, self.s_hi)
        except _NoSignChange:
            raise NumericError(f"abscissa {x_target:g} outside the handle's image range") from None


def _lobatto(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [lo, hi]: endpoint-including, clustered at
    the ends where the cascade curves bend."""
    js = np.arange(count)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * js / (count - 1)))


# Lobatto count of every cascade sampler: the monotonicity check, the box
# fibers, the vertical-escape check and the crossing arcs.  The edge scans
# take 2 * _SAMPLES - 1 points, whose even half is the _SAMPLES-point set.
_SAMPLES = 33


def _around(ss: np.ndarray, idx: int) -> tuple[float, float]:
    """The samples either side of ss[idx], clamped to the ends: the span a refinement re-samples."""
    return float(ss[max(idx - 1, 0)]), float(ss[min(idx + 1, len(ss) - 1)])


def _x_monotone(xs: list[float]) -> bool:
    """Whether sampled abscissas run one way, no step back by more than 1e-12 of the span."""
    span = xs[-1] - xs[0]
    direction = math.copysign(1.0, span) if span != 0.0 else 1.0
    tol = 1e-12 * max(abs(span), 1e-300)
    return all((b - a) * direction >= -tol for a, b in zip(xs, xs[1:]))


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
        return [*self.top.endpoints(sys), *self.bottom.endpoints(sys)]


def build_b1(sys: ModelSystem, sn: SnRectangle) -> Box:
    """B_1 = f^(i_n)(S_n) as a rectangle-like box with exact corner images.

    Edge handles are anchored on the S_n edges with the word [linear(i_n)],
    so deeper boxes can always be traced back to the fold.  The delta curve
    starts as the y = 0 segment under S_n, padded by 25% of the width on
    each side so later cuts always stay inside its image.  The word maps x
    to mu^(i_n) x, so a horizontal edge is x-monotone without a check.
    """
    i = i_n(sys, sn.n)
    r = sn.rect
    word = MapWord((("linear", i),))
    top = CurveHandle((r.x_lo, r.y_hi), (r.x_hi, r.y_hi), word)
    bottom = CurveHandle((r.x_lo, r.y_lo), (r.x_hi, r.y_lo), word)
    pad = 0.25 * r.width
    delta = CurveHandle((r.x_lo - pad, 0.0), (r.x_hi + pad, 0.0), word)
    xs = sorted((_scale_power(r.x_lo, sys.mu, i), _scale_power(r.x_hi, sys.mu, i)))
    return Box("rectangle-like", xs[0], xs[1], top, bottom, delta, k=1)


def _edge_samples(sys: ModelSystem, handle: CurveHandle, count: int = 2 * _SAMPLES - 1) -> list[Point]:
    """The handle's images at ``count`` Lobatto parameters of its range (the default scan holds the _SAMPLES set)."""
    return [handle._point(sys, s) for s in _lobatto(handle.s_lo, handle.s_hi, count)]


def _edge_ys(sys: ModelSystem, handle: CurveHandle) -> list[float]:
    """The handle's one level ordinate, else the ordinates of the edge samples ``max_edge_slope`` reads."""
    if (y := handle.level_y(sys)) is not None:
        return [y]
    return [p[1] for p in _edge_samples(sys, handle)]


# Curves with different parameterizations recover the abscissa of a fiber
# with a relative error of a few hundred ulps, so y differences that small
# are inversion noise, not geometry.  Anything meaningful is a macroscopic
# fraction of the local y scale; clamp everything under this ratio to zero.
_FIBER_RESOLUTION = 1e-9


def _fiber(y_t: float, y_b: float, y_d: float) -> tuple[float, float]:
    """(length, gap) of a fiber from its top, bottom and delta ordinates."""
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


# Margin of the fiber screen, relative to the values it compares: numpy's log
# and exp round unlike libm's and the screen's roots are not ITP's, so a fiber
# is settled only where each screened value is this far from its decision.
# It is _FIBER_SCREEN_FACTOR times a ceiling of 1e-12 on the relative gap of
# screened and scalar ordinates (tests/test_closed_forms.py measures 1.1e-13).
# A settled length or gap is at most (_FIBER_RESOLUTION - 5 margins) * max|y|,
# half the floor, so the scalar one stays under the scalar floor.
_FIBER_SCREEN_FACTOR = 100
_FIBER_SCREEN_MARGIN = 1e-10
_FIBER_SCREEN_STEPS = 64  # cap on the steps of the screen's root search


def _word_images(sys: ModelSystem, atoms: tuple[tuple, ...], x: np.ndarray, y: np.ndarray, clear: np.ndarray | None = None):
    """``MapWord.apply`` on arrays of points, without phi's U(q) check.  A ``clear``
    mask keeps the rows whose powers keep the margin off saturation (``_scale_powers``)."""
    for atom in atoms:
        if atom[0] == "phi":
            x, y = _phi_parts(sys, x - 1.0, y)
        else:
            x, y = (_scale_powers(v, base, atom[1], clear, _FIBER_SCREEN_MARGIN) for v, base in ((x, sys.mu), (y, sys.lam)))
    return x, y


def _screen_fibers(sys: ModelSystem, box: Box, xs: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """(settled, ys): which fibers at the abscissas ``xs`` are certainly
    (0.0, 0.0), and their screened top, bottom and delta ordinates as rows.
    One lockstep root search on arrays finds them on all three edges.  A
    fiber is settled when its screened length and gap are at most half its
    floor, its ordinates are normal doubles, and, by the margin, every edge's
    image range holds its abscissa, every log-space power keeps off saturation,
    and every phi atom's input over the whole edge stays in U(q).  That
    input is certified from its ends, so it must be a straight segment: a
    phi atom after another, or edges with different words, settle nothing."""
    edges = (box.top, box.bottom, box.delta)
    atoms = box.word.atoms
    phis = [i for i, atom in enumerate(atoms) if atom[0] == "phi"]
    count = len(xs)
    if phis[1:] or any(handle.word != box.word for handle in edges):
        return np.zeros(count, dtype=bool), np.full((3, count), np.nan)
    margin = _FIBER_SCREEN_MARGIN
    target = np.tile(xs, 3)
    (sx, sy), (ex, ey) = (np.repeat(np.array([getattr(h, end) for h in edges]).T, count, axis=1) for end in ("start", "end"))
    s_lo, s_hi = (np.repeat([getattr(h, end) for h in edges], count) for end in ("s_lo", "s_hi"))

    def image(s: np.ndarray, word: tuple[tuple, ...] = atoms, clear: np.ndarray | None = None):
        return _word_images(sys, word, sx + s * (ex - sx), sy + s * (ey - sy), clear)

    with np.errstate(all="ignore"):
        ok = np.ones(target.shape, dtype=bool)
        if phis:
            for s in (s_lo, s_hi):
                ok &= sys.in_uq(image(s, atoms[: phis[0]], ok), margin)
        x_lo, x_hi = image(s_lo)[0], image(s_hi)[0]
        reach = margin * np.abs(target)
        ok &= (np.minimum(x_lo, x_hi) + reach < target) & (target < np.maximum(x_lo, x_hi) - reach)
        # Illinois regula falsi (b the latest point, a the kept end) until a
        # root is exact or the bracket spans one step of the base point's doubles
        spacing = [np.spacing(np.maximum(np.abs(u), np.abs(v))) / np.abs(v - u) for u, v in ((sx, ex), (sy, ey))]
        step = np.maximum(np.minimum(*spacing), 2.0 * np.spacing(1.0))
        a, b, f_a, f_b = s_lo, s_hi, x_lo - target, x_hi - target
        done = ~ok
        for _ in range(_FIBER_SCREEN_STEPS):
            done |= (f_b == 0.0) | (np.abs(b - a) <= step)
            if done.all():
                break
            c = b - f_b * (b - a) / (f_b - f_a)
            inside = (np.minimum(a, b) < c) & (c < np.maximum(a, b)) & ~done
            c = np.where(inside, c, np.where(done, b, 0.5 * (a + b)))
            f_c = image(c)[0] - target
            kept = np.sign(f_c) == np.sign(f_b)
            a, f_a = np.where(kept, a, b), np.where(kept, 0.5 * f_a, f_b)
            b, f_b = c, f_c
        ok &= done
        _, y = image(b, clear=ok)
        ok &= np.abs(y) >= np.finfo(float).tiny * (1.0 + margin)
        ys = y.reshape(3, count)
        low, high = np.minimum(ys[0], ys[1]), np.maximum(ys[0], ys[1])
        worst = np.maximum(high - low, np.maximum(low - ys[2], ys[2] - high))
        floor = (_FIBER_RESOLUTION - 5.0 * margin) * np.abs(ys).max(axis=0)
        return ok.reshape(3, count).all(axis=0) & (worst <= floor), ys


def _fiber_metrics(sys: ModelSystem, box: Box) -> tuple[float, float]:
    """(max fiber length, max fiber gap) over the box abscissas.

    A fiber is the intersection of the box with a vertical line: its length
    is the top-to-bottom edge separation at that x, and its gap is the
    shortest vertical segment connecting it to the delta curve.  If all three
    curves have a ``level_y`` (every B_1), all fibers are that one.  Else both
    maxima get one refinement pass around the sampled argmax.  Values below
    the x-inversion resolution of the fiber's own y scale are reported as 0.

    Arrays screen, scalars decide.  Each pass of abscissas (the Lobatto
    samples, then each refinement window) is screened at once by
    ``_screen_fibers``, which settles a fiber as exactly (0.0, 0.0) only
    when its screened length and gap are at most half the floor and every
    other check holds by its margin.  Every other fiber is inverted in
    scalars, in abscissa order, so the values, the argmax, the windows and
    the first error are those of the scalar loop over every fiber.
    """
    edges = (box.top, box.bottom, box.delta)
    levels = [handle.level_y(sys) for handle in edges]
    if None not in levels:
        return _fiber(*levels)
    inset = 1e-6 * max(box.x_hi - box.x_lo, 1e-300)
    # The refinement passes re-sample abscissas the first pass already has
    # (both maxima often sit at the same sample), so each fiber is kept.
    fibers: dict[float, tuple[float, float]] = {}

    def sample(xs: np.ndarray) -> list[tuple[float, float]]:
        new = [x for x in dict.fromkeys(map(float, xs)) if x not in fibers]
        for x, settled in zip(new, _screen_fibers(sys, box, new)[0] if new else ()):
            fibers[x] = (0.0, 0.0) if settled else _fiber(*(h.eval(sys, h.invert_x(sys, x))[1] for h in edges))
        return [fibers[float(x)] for x in xs]

    xs = _lobatto(box.x_lo + inset, box.x_hi - inset, _SAMPLES)
    data = sample(xs)

    def refined(select) -> float:
        values = [select(d) for d in data]
        span = _around(xs, int(np.argmax(values)))
        sub = [select(d) for d in sample(_lobatto(*span, _SAMPLES))]
        return max(max(values), max(sub))

    return refined(lambda d: d[0]), refined(lambda d: d[1])


def box_metrics(sys: ModelSystem, box: Box) -> tuple[float, float, float]:
    """(W_k, H_k, L_k): horizontal width, largest vertical fiber length, and
    largest vertical clearance between the box and the delta curve.  A B_1
    takes them in closed form from its level edges; a deeper box screens its
    fibers in arrays and inverts in scalars only those the screen cannot
    settle as (0.0, 0.0), whose screened length and gap exceed half the
    floor or which miss a margin.  Heights at deep words underflow to an
    honest 0.0; the comparisons downstream remain valid."""
    height, gap = _fiber_metrics(sys, box)
    return box.x_hi - box.x_lo, height, gap


def max_edge_slope(sys: ModelSystem, box: Box) -> float:
    """Largest |dy/dx| between consecutive samples of the long edges; 0.0 on a level edge."""
    worst = 0.0
    for handle in (box.top, box.bottom):
        if handle.level_y(sys) is not None:
            continue
        pts = _edge_samples(sys, handle)
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
    vertices = box.vertices(sys)
    for v in vertices:
        if not sys.in_uq(v):
            raise ChartExitError(f"box vertex ({v[0]:.6g}, {v[1]:.6g}) left U(q)")
    images = [apply_phi(sys, v) for v in vertices]
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

    cuts = [handle.extended_word(("phi",)) for handle in (box.top, box.bottom)]
    for handle in cuts:
        edge_xs = [p[0] for p in _edge_samples(sys, handle, _SAMPLES)]
        if edge_xs[-1] - edge_xs[0] == 0.0:
            raise NumericError("edge image collapsed to a single abscissa")
        if not _x_monotone(edge_xs):
            raise NumericError("edge is not an x-monotone graph at this sampling")
    cut_top, cut_bottom = (h.restricted(h.invert_x(sys, x_minus), h.invert_x(sys, x_plus)) for h in cuts)
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
    tol = _MEMBERSHIP_TOL
    if not (target.x_lo - tol <= nxt.x_lo and nxt.x_hi <= target.x_hi + tol):
        raise CascadeEnd(
            f"B_{nxt.k} spans [{nxt.x_lo:.6g}, {nxt.x_hi:.6g}], outside R_eps "
            f"[{target.x_lo:.6g}, {target.x_hi:.6g}] (u_{box.k}={u})"
        )
    for handle in (nxt.top, nxt.bottom):
        for s in _lobatto(handle.s_lo, handle.s_hi, _SAMPLES):
            y = handle._point(sys, s)[1]
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


_MAX_DEPTH = 32
_ARC_MAX_REFINE = 4


def run_cascade(sys: ModelSystem, n: int) -> CascadeResult:
    """Full cascade at level n.

    Gated twice: the sign case must be adaptable with the fold on the
    standard (positive-abscissa, mu > 0) side, and the expansion and
    recurrence gates of ``validate`` must hold; when either fails the result
    is the empty cascade (k0 = 0) rather than an error.
    """
    case, adapt = classify_system(sys)
    if not adapt.adaptable:
        raise DomainError(f"case {case.label} is not adaptable; no cascade exists")
    if adapt.region != "R_eps":
        raise WrongQuadrantError(
            f"case {case.label} needs the mirrored rectangle; only the standard side is supported"
        )
    if not (_small_expansion(sys) and _short_recurrence(sys, tau_bounds(sys)[1])):
        return CascadeResult(n, (), (), (), (), (), 0, ())

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

    widths, heights, dists = zip(*(box_metrics(sys, b) for b in boxes))
    violations: list[str] = []
    slope_bound = _slope_cone(sys)[0]
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

    ys = _edge_ys(sys, box.top) + _edge_ys(sys, box.bottom)
    band_lo, band_hi = min(ys), max(ys)
    band_tol = max(1e-12, 10.0 * (band_hi - band_lo))

    def monotone_samples(t0: float, t1: float, depth: int) -> list[Point]:
        """Samples of the tracked branch, recursively split until every
        piece reads as x-monotone (the geometry guarantees it; sampling can
        alias near the fold)."""
        ts = _lobatto(t0, t1, _SAMPLES)
        pts = [word.apply(sys, fold_point(sys, n, float(t))) for t in ts]
        if _x_monotone([p[0] for p in pts]):
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

    return sum(1 for t0, t1 in S.branches if branch_crosses(t0, t1))
