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
metric can be re-sampled at full precision at any depth.  Samples that feed
only decisions (the monotonicity and escape scans, the edge slopes, the
crossing arcs) are evaluated on arrays (``MapWord.images``); every number
that is reported is evaluated in scalars (``MapWord.apply``).

The vertical measures live in log space.  A box sits at about |lam|^(i_n)
above the unstable axis (1e-401 at reference level 12), so its top, bottom
and delta edges are the same doubles, and its height H_k and clearance L_k
would read 0.0.  ``box_metrics`` instead transports the offsets of the base
segments along the word to first order, as logs, and the decade checks of
``run_cascade`` compare those logs; ``heights`` and ``dists`` are their
saturated exponentials.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

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
from .leaves import _in_window, _pullback, arc_height
from .model import (
    _MEMBERSHIP_TOL,
    ModelSystem,
    Point,
    _phi_jacobian,
    _phi_parts,
    _saturated_exp,
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


class MapWord(NamedTuple):
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

    def images(self, sys: ModelSystem, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """``apply`` on arrays of points, or None where ``apply`` would raise:
        a phi atom's input leaves U(q) somewhere, or an atom is unknown.
        numpy's exp and power do not round like libm's, so an image may
        differ from ``apply``'s in its last bits, and each phi atom amplifies
        that by its condition number: the samplers take their decisions on
        these, and every number that is reported comes from ``apply``."""
        for atom in self.atoms:
            if atom[0] == "linear":
                x, y = _scale_powers(x, sys.mu, atom[1]), _scale_powers(y, sys.lam, atom[1])
            elif atom[0] == "phi" and np.all(sys.in_uq((x, y))):
                x, y = _phi_parts(sys, x - 1.0, y)
            else:
                return None
        return x, y


class CurveHandle:
    """A curve = MapWord applied to a straight base segment.

    The global parameter s in [0, 1] runs along the base segment; the handle
    itself may be restricted to [s_lo, s_hi] (cascade cuts shrink edges
    without losing the original geometry).  A plain class with slots, not
    a tuple; handles compare by identity.  ``eval`` gives the points that
    are reported, the box vertices and the cuts; the cascade's samplers
    evaluate the word on arrays (``_edge_points``).
    """

    __slots__ = ("start", "end", "word", "s_lo", "s_hi")

    def __init__(self, start: Point, end: Point, word: MapWord = MapWord(), s_lo: float = 0.0, s_hi: float = 1.0):
        if not (0.0 <= s_lo < s_hi <= 1.0):
            raise DomainError(f"handle parameter range [{s_lo}, {s_hi}] invalid")
        self.start, self.end, self.word, self.s_lo, self.s_hi = start, end, word, s_lo, s_hi

    def base_point(self, s: float) -> Point:
        """The base segment's point at s; ``s`` may be a numpy array."""
        return (
            self.start[0] + s * (self.end[0] - self.start[0]),
            self.start[1] + s * (self.end[1] - self.start[1]),
        )

    def eval(self, sys: ModelSystem, s: float) -> Point:
        if not (self.s_lo - 1e-12 <= s <= self.s_hi + 1e-12):
            raise DomainError(f"s={s:g} outside handle range [{self.s_lo:g}, {self.s_hi:g}]")
        return self.word.apply(sys, self.base_point(s))

    def level_y(self, sys: ModelSystem) -> float | None:
        """The one ordinate of a horizontal base segment under linear atoms
        only, taken from a base point as ``eval`` takes it; else None."""
        if self.start[1] != self.end[1] or any(atom[0] != "linear" for atom in self.word.atoms):
            return None
        return self.word.apply(sys, self.base_point(self.s_lo))[1]

    def endpoints(self, sys: ModelSystem) -> tuple[Point, Point]:
        return self.eval(sys, self.s_lo), self.eval(sys, self.s_hi)

    def restricted(self, s_a: float, s_b: float) -> "CurveHandle":
        """The handle on [s_a, s_b]; itself when that is its own range."""
        lo, hi = (s_a, s_b) if s_a <= s_b else (s_b, s_a)
        return self if (lo, hi) == (self.s_lo, self.s_hi) else CurveHandle(self.start, self.end, self.word, lo, hi)

    def extended_word(self, *atoms: tuple) -> "CurveHandle":
        return CurveHandle(self.start, self.end, self.word.extended(*atoms), self.s_lo, self.s_hi)

    def invert_x(self, sys: ModelSystem, x_target: float) -> float:
        """Parameter s with image abscissa x_target.  The handle must be an
        x-monotone graph (checked by the callers on samples); raises
        NumericError when the target is not bracketed.

        The search is ``numerics._bisect`` run until the bracket is two
        neighbouring doubles, with ITP steps.
        """
        try:
            return _bisect(lambda s: self.eval(sys, s)[0] - x_target, self.s_lo, self.s_hi)
        except _NoSignChange:
            raise NumericError(f"abscissa {x_target:g} outside the handle's image range") from None


def _lobatto(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [lo, hi]: endpoint-including, clustered at
    the ends where the cascade curves bend."""
    js = np.arange(count)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * js / (count - 1)))


# Lobatto count of every cascade sampler: the monotonicity check, the
# transport of the box heights, the vertical-escape check and the crossing
# arcs.  The edge scans take 2 * _SAMPLES - 1 points, whose even half is the
# _SAMPLES-point set.
_SAMPLES = 33


def _x_monotone(xs) -> bool:
    """Whether sampled abscissas (a sequence or an array) run one way, no step back by more than 1e-12 of the span."""
    span = xs[-1] - xs[0]
    direction = math.copysign(1.0, span) if span != 0.0 else 1.0
    tol = 1e-12 * max(abs(span), 1e-300)
    return bool(np.all(np.diff(xs) * direction >= -tol))


class Box(namedtuple("Box", "kind x_lo x_hi top bottom delta k")):
    """One cascade box.  Vertical sides at x_lo/x_hi; top and bottom are
    curve handles over that abscissa range; delta is the unstable reference
    curve below the box (the image of a padded y = 0 segment under the same
    word), used for the distance metric L_k."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("rectangle-like", "parallelogram-like"):
            raise DomainError(f"unknown box kind {self.kind!r}")
        if not self.x_lo <= self.x_hi:
            raise DomainError("box abscissas out of order")
        if self.k < 1:
            raise DomainError("cascade index starts at 1")
        return self

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


def _edge_points(sys: ModelSystem, handle: CurveHandle, count: int = 2 * _SAMPLES - 1) -> np.ndarray:
    """(xs, ys): the handle's images at ``count`` Lobatto parameters of its
    range, by ``MapWord.images``, for decisions only.  Where ``images``
    gives up, the samples take the scalar path, which raises its error."""
    ss = _lobatto(handle.s_lo, handle.s_hi, count)
    images = handle.word.images(sys, *handle.base_point(ss))
    return np.array([handle.eval(sys, float(s)) for s in ss]).T if images is None else np.array(images)


def _branch_points(sys: ModelSystem, n: int, word: MapWord, ts: np.ndarray) -> np.ndarray:
    """(xs, ys): the word's images of the n-th fold's points at the
    parameters ts, on arrays like ``_edge_points``.  When a sample leaves
    the arc window, the seed domain or U(q), the samples take the scalar
    path, ``fold_point`` and ``MapWord.apply``, which raises its error."""
    if np.all(_in_window(sys, ts) & sys.seed.contains(_pullback(sys, n, ts))):
        images = word.images(sys, *_phi_parts(sys, ts, arc_height(sys, n, ts)))
        if images is not None:
            return np.array(images)
    return np.array([word.apply(sys, fold_point(sys, n, float(t))) for t in ts]).T


def _offset_gain(sys: ModelSystem, atoms: tuple[tuple, ...], point: Point) -> float:
    """ln of the factor by which ``atoms`` scale a small vertical offset
    above ``point`` on a horizontal curve, read at the image abscissa.

    The curve's slope is carried along: a linear atom f^k scales the offset
    by |lam|^k and the slope by (lam/mu)^k, and a phi atom at p = (1 + x, y)
    scales the offset by |det Dphi(p)| / |F_x + F_y * slope|, phi = (F, G),
    and turns the slope into (G_x + G_y * slope) / (F_x + F_y * slope).  The
    points are the ones ``MapWord.apply`` takes to the bit.  The point and
    slope are transported up to the last phi atom only: the linear atoms
    after it add k ln|lam| each, in order, and read neither.
    """
    log_lam = math.log(abs(sys.lam))
    last_phi = max((i for i, atom in enumerate(atoms) if atom[0] != "linear"), default=-1)
    gain, slope = 0.0, 0.0
    for i, atom in enumerate(atoms):
        if atom[0] == "linear":
            gain += atom[1] * log_lam
            if i < last_phi:
                point, slope = apply_linear(sys, point, atom[1]), _scale_power(slope, sys.lam / sys.mu, atom[1])
        else:
            (fx, fy), (gx, gy) = _phi_jacobian(sys, point[0] - 1.0, point[1])
            run = fx + fy * slope
            gain += math.log(abs(fx * gy - fy * gx)) - math.log(abs(run))
            point, slope = apply_phi(sys, point), (gx + gy * slope) / run
    return gain


def box_metrics(sys: ModelSystem, box: Box) -> tuple[float, float, float]:
    """(W_k, ln H_k, ln L_k): horizontal width, and the logs of the largest
    vertical fiber length and of the largest vertical clearance between the
    box and the delta curve below it.

    Both vertical measures are transported to first order along the box's
    word from its base segments, which are horizontal (``build_b1``): H
    starts as top minus bottom and L as bottom minus delta, and each atom
    adds the same log factor to both (``_offset_gain``) at the bottom
    edge's images of its _SAMPLES Lobatto parameters; the largest sum is
    taken.  A word of linear atoms only has one gain, whatever the sample,
    and it is computed once.  A B_1 gets i_n ln|lam| plus the logs of its
    S_n's height and bottom ordinate, exactly.

    The premise is that the offsets are far below the curvature scale of
    every atom, so the second-order term is negligible.  The expansion and
    recurrence gates of ``run_cascade`` keep mu near 1, so i_n is in the
    hundreds and the offsets, about |lam|^(i_n), lie hundreds of decades
    below the O(1) scale of the maps; the second-order term is smaller than
    the first by as much.  No edge is inverted and no handle evaluated.
    """
    bottom, atoms = box.bottom, box.word.atoms
    ss = _lobatto(bottom.s_lo, bottom.s_hi, _SAMPLES) if any(atom[0] != "linear" for atom in atoms) else (bottom.s_lo,)
    gain = max(_offset_gain(sys, atoms, bottom.base_point(float(s))) for s in ss)
    y = bottom.start[1]
    return box.x_hi - box.x_lo, math.log(abs(box.top.start[1] - y)) + gain, math.log(abs(y - box.delta.start[1])) + gain


def max_edge_slope(sys: ModelSystem, box: Box) -> float:
    """Largest |dy/dx| between consecutive samples of the long edges (NaNs
    skipped); 0.0 on a level edge, inf on a vertical step."""
    worst = 0.0
    for handle in (box.top, box.bottom):
        if handle.level_y(sys) is not None:
            continue
        dx, dy = np.diff(_edge_points(sys, handle))
        run = dx != 0.0
        if np.any(~run & (dy != 0.0)):
            return math.inf
        worst = float(np.fmax.reduce(np.abs(dy[run] / dx[run]), initial=worst))
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
        edge_xs = _edge_points(sys, handle, _SAMPLES)[0]
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
        ys = _edge_points(sys, handle, _SAMPLES)[1]
        escaped = (ys < target.y_lo - tol) | (ys > target.y_hi + tol)
        if escaped.any():
            raise CascadeEnd(f"B_{nxt.k} escapes R_eps vertically (y={ys[escaped.argmax()]:.6g}, u_{box.k}={u})")
    return cut, u, nxt


class CascadeResult(NamedTuple):
    """Boxes actually built plus their metrics; k0 = len(boxes).  The
    ``violations`` list records any failed depth-ratio inequality
    (W up 10x, H and L down 10x per step) instead of raising.  H and L are
    kept as natural logs (``log_heights``, ``log_dists``); ``heights`` and
    ``dists`` are their exponentials, 0.0 below the double range."""

    n: int
    boxes: tuple[Box, ...]
    widths: tuple[float, ...]
    heights: tuple[float, ...]
    dists: tuple[float, ...]
    u_exponents: tuple[int, ...]
    k0: int
    violations: tuple[str, ...]
    log_heights: tuple[float, ...]
    log_dists: tuple[float, ...]


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
        return CascadeResult(n, (), (), (), (), (), 0, (), (), ())

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

    widths, log_heights, log_dists = zip(*(box_metrics(sys, b) for b in boxes))
    violations: list[str] = []
    slope_bound = _slope_cone(sys)[0]
    for b in boxes:
        slope = max_edge_slope(sys, b)
        if slope > slope_bound:
            violations.append(f"edge slope {slope:.3g} > eps^(5/2) at k={b.k}")
    decade = math.log(10.0)
    for k in range(len(boxes) - 1):
        if not widths[k + 1] >= 10.0 * widths[k]:
            violations.append(f"W_{k + 2} < 10*W_{k + 1} ({widths[k + 1]:.3g} vs {widths[k]:.3g})")
        for name, logs in (("H", log_heights), ("L", log_dists)):
            if not logs[k + 1] <= logs[k] - decade:
                violations.append(
                    f"{name}_{k + 2} > {name}_{k + 1}/10 (log10 {logs[k + 1] / decade:.6g} vs {logs[k] / decade:.6g})"
                )
    return CascadeResult(
        n=n,
        boxes=tuple(boxes),
        widths=widths,
        heights=tuple(map(_saturated_exp, log_heights)),
        dists=tuple(map(_saturated_exp, log_dists)),
        u_exponents=tuple(exponents),
        k0=len(boxes),
        violations=tuple(violations),
        log_heights=log_heights,
        log_dists=log_dists,
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

    # each edge's one level ordinate, else the samples max_edge_slope reads
    ys = np.concatenate([[y] if (y := h.level_y(sys)) is not None else _edge_points(sys, h)[1] for h in (box.top, box.bottom)])
    band_lo, band_hi = float(ys.min()), float(ys.max())
    band_tol = max(1e-12, 10.0 * (band_hi - band_lo))

    def monotone_samples(t0: float, t1: float, depth: int) -> np.ndarray:
        """Samples of the tracked branch, recursively split until every
        piece reads as x-monotone (the geometry guarantees it; sampling can
        alias near the fold)."""
        pts = _branch_points(sys, n, word, _lobatto(t0, t1, _SAMPLES))
        if _x_monotone(pts[0]):
            return pts
        if depth >= _ARC_MAX_REFINE:
            raise InconclusiveError(
                f"branch not resolved as monotone after {_ARC_MAX_REFINE} refinements; "
                f"raise the sampling density"
            )
        mid = 0.5 * (t0 + t1)
        return np.hstack((monotone_samples(t0, mid, depth + 1), monotone_samples(mid, t1, depth + 1)))

    def branch_crosses(t0: float, t1: float) -> bool:
        xs, ys = monotone_samples(t0, t1, 0)
        if not (xs.min() <= xa and xs.max() >= xb):
            return False
        # The traversal must happen inside the box vertically, not above or
        # below it.
        inside = (xa <= xs) & (xs <= xb)
        return not np.any(inside & ~((band_lo - band_tol <= ys) & (ys <= band_hi + band_tol)))

    return sum(1 for t0, t1 in S.branches if branch_crosses(t0, t1))
