"""Return exponents along the arc family and the modulus they encode.

Each arc image r_n = phi(alpha_n(0)) lands near r with a tiny positive
abscissa, and the saddle map pushes that abscissa back into the fundamental
domain (|mu|^-1, 1] of x -> mu*x after a unique number m(n) of steps.  The
growth rate of m(n) in n is the modulus rho = -log|lam| / log|mu|: two such
models can only be smoothly conjugate if their rho agree, and the chart
rescalings implemented here are the conjugacies that realize equal moduli.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .cases import classify_system
from .errors import DomainError, NotFoundError, NumericError, WrongQuadrantError
from .model import ModelSystem, Point, _window_power, apply_linear, apply_phi, signed_power
from .numerics import Polynomial, _crosses, _polish, line_fit
from .rects import SnRectangle, build_sn, fold_point

__all__ = [
    "ReturnRecord",
    "pick_rn",
    "return_exponent",
    "return_record",
    "modulus_fit",
    "sn_cn_series",
    "eigenvalue_estimates",
    "power_fit",
    "ConjugacyPair",
    "conjugate_system",
    "identity_pair",
    "rescale_pair",
    "mismatched_pair",
    "conjugation_residual",
    "correspondence_points",
    "lemma_constant",
    "intersection_check",
    "OrderProbeReport",
    "order_probe",
]


class ReturnRecord(NamedTuple):
    """One level of the return bookkeeping.

    ``r_n`` is the arc image phi(alpha_n(0)), ``m_n`` the number of saddle
    steps that brings its abscissa into (|mu|^-1, 1], ``x_n`` the landed
    point, and (s_n, c_n) the continuous version: |mu|^-s_n = x(r_n) and
    c_n = |a z0 lam^n| * |mu|^s_n, which tends to 1 when the seed flattens.
    The arc tip reads the seed at abscissa mu^-n, so with no pure-y terms in
    H1, 1/c_n - 1 = (y0(mu^-n) - z0) / z0, which decays like |mu|^-n.
    """

    n: int
    r_n: Point
    m_n: int
    x_n: Point
    s_n: float
    c_n: float


_RN_CACHE: dict[tuple[ModelSystem, int], Point] = {}
_RECORD_CACHE: dict[tuple[ModelSystem, int], ReturnRecord] = {}


def pick_rn(sys: ModelSystem, n: int) -> Point:
    """The distinguished point of gamma'_n: the phi-image of the arc tip, kept
    per (system, n) like ``rects.build_sn``'s S_n; a failed call is not stored."""
    r_n = _RN_CACHE.get((sys, n))
    if r_n is not None:
        return r_n
    if n < 1 or n > sys.n_max:
        raise DomainError(f"n={n} outside the workable range 1..{sys.n_max}")
    case, adapt = classify_system(sys)
    if not adapt.adaptable:
        raise DomainError(f"case {case.label} does not admit the return construction")
    r_n = _RN_CACHE[sys, n] = fold_point(sys, n, 0.0)
    return r_n


def _fundamental_exponent(sys: ModelSystem, x: float) -> int:
    """Unique m >= 0 with x * mu^m in (|mu|^-1, 1], for x in (0, 1]."""
    lo = 1.0 / abs(sys.mu)
    m = _window_power(x, sys.mu, lo, 1.0, 0)
    if m is not None:
        return m
    raise NotFoundError(
        f"no exponent brought x={x:.17g} into ({lo:.6f}, 1]; "
        "sign alternation of mu < 0 can leave the domain unreachable"
    )


def return_exponent(sys: ModelSystem, r_n: Point) -> tuple[int, Point]:
    """Return exponent and landed point for a point just right of W^s(p).

    The abscissa must lie in (0, 1]; an abscissa of exactly 1 is already in
    the fundamental domain, so m = 0.
    """
    x = float(r_n[0])
    if not (0.0 < x <= 1.0):
        if x <= 0.0:
            raise WrongQuadrantError(f"return point abscissa {x:.6g} is not positive")
        raise DomainError(f"return point abscissa {x:.6g} exceeds 1")
    m = _fundamental_exponent(sys, x)
    return m, apply_linear(sys, r_n, m)


def return_record(sys: ModelSystem, n: int) -> ReturnRecord:
    """Level n's ``ReturnRecord``, kept per (system, n) like ``pick_rn``'s point."""
    rec = _RECORD_CACHE.get((sys, n))
    if rec is not None:
        return rec
    r_n = pick_rn(sys, n)
    m_n, x_n = return_exponent(sys, r_n)
    log_mu = math.log(abs(sys.mu))
    s_n = -math.log(r_n[0]) / log_mu
    t = sys.transition
    log_c = math.log(abs(t.a) * sys.seed.z0) + n * math.log(abs(sys.lam)) + s_n * log_mu
    rec = _RECORD_CACHE[sys, n] = ReturnRecord(n, r_n, m_n, x_n, s_n, math.exp(log_c))
    return rec


def _levels(n_range, minimum: int, error: str) -> list[int]:
    ns = sorted(set(int(n) for n in n_range))
    if len(ns) < minimum:
        raise DomainError(error)
    return ns


def _slope_with_stderr(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = line_fit(xs, ys)
    resid = ys - (slope * xs + intercept)
    dof = len(xs) - 2
    if dof <= 0:
        return slope, math.inf
    var = float(resid @ resid) / dof / float(((xs - xs.mean()) ** 2).sum())
    return slope, math.sqrt(var)


def modulus_fit(sys: ModelSystem, n_range) -> tuple[float, float]:
    """Slope of m(n) against n by :func:`numerics.line_fit`, with its stderr.

    The staircase m(n) has unit jitter around the line rho*n + const, so the
    fit needs at least six levels before the slope settles.
    """
    ns = _levels(n_range, 6, "modulus fit needs at least six distinct levels")
    ms = [return_record(sys, n).m_n for n in ns]
    return _slope_with_stderr(np.array(ns, dtype=float), np.array(ms, dtype=float))


def sn_cn_series(sys: ModelSystem, n_range) -> list[tuple[int, float, float]]:
    """Continuous return data (n, s_n, c_n) along the arc family.

    s_{n+1} - s_n tends to -log|lam|/log|mu| and c_n tends to 1 as the seed
    arc is squeezed onto the unstable axis.  With no pure-y terms in H1,
    1/c_n - 1 = (y0(mu^-n) - z0) / z0, so a tilted seed leaves a gap that
    decays only like |mu|^-n (see ``ReturnRecord``).
    """
    ns = _levels(n_range, 1, "empty level range")
    out = []
    for n in ns:
        rec = return_record(sys, n)
        out.append((n, rec.s_n, rec.c_n))
    return out


def eigenvalue_estimates(sys: ModelSystem, n_range) -> tuple[float, float]:
    """(|lam|, |mu|) recovered from the return data alone.

    |lam| from the decay of the tip abscissas, |mu| from the modulus slope;
    conjugate systems must agree on both.
    """
    ns = _levels(n_range, 6, "eigenvalue estimate needs at least six distinct levels")
    logs = [math.log(pick_rn(sys, n)[0]) for n in ns]
    steps = [(logs[i + 1] - logs[i]) / (ns[i + 1] - ns[i]) for i in range(len(ns) - 1)]
    lam_hat = math.exp(sum(steps) / len(steps))
    rho, _ = modulus_fit(sys, ns)
    if rho <= 0.0:
        raise NumericError("modulus slope came out nonpositive", residual=rho)
    return lam_hat, lam_hat ** (-1.0 / rho)


def power_fit(points) -> tuple[float, float]:
    """Fit (C, tau) with h = C * x^tau through positive data pairs (x, h).

    Requires at least four pairs spanning at least one decade in x; the fit
    is :func:`numerics.line_fit` of log h against log x.
    """
    xs = np.array([float(p[0]) for p in points], dtype=float)
    hs = np.array([float(p[1]) for p in points], dtype=float)
    if len(xs) < 4:
        raise DomainError("power fit needs at least four points")
    if (xs <= 0.0).any() or (hs <= 0.0).any():
        raise DomainError("power fit needs strictly positive coordinates")
    if xs.max() / xs.min() < 10.0:
        raise DomainError("power fit needs at least one decade of x spread")
    tau, log_c = line_fit(np.log(xs), np.log(hs))
    return math.exp(log_c), tau


class ConjugacyPair(namedtuple("ConjugacyPair", "sys_0 sys_1 h_scale m0_shift")):
    """Two systems tied by the diagonal chart map h(x, y) = (hx*x, hy*y).

    ``m0_shift`` is the difference of transition step counts; the defining
    identity phi_1 o h = h o f^m0_shift o phi_0 is asserted numerically by
    the constructors :func:`identity_pair` and :func:`rescale_pair`.
    :func:`mismatched_pair` deliberately skips it to feed the diagnostics a
    non-example.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        hx, hy = self.h_scale
        if hx == 0.0 or hy == 0.0 or not (math.isfinite(hx) and math.isfinite(hy)):
            raise DomainError("conjugacy scales must be finite and nonzero")
        return self

    def h(self, point: Point) -> Point:
        return (self.h_scale[0] * point[0], self.h_scale[1] * point[1])


_CONJUGACY_GRID = 7


def conjugation_residual(pair: ConjugacyPair) -> float:
    """Max defect of phi_1(h(p)) = h(f^shift(phi_0(p))) over a grid in U(q).

    Sample offsets shrink with the scales so both sides stay inside their
    chart neighbourhoods.
    """
    sys0, sys1 = pair.sys_0, pair.sys_1
    hx, hy = pair.h_scale
    x_bound = 0.8 * sys0.uq_half_width * min(1.0, 1.0 / abs(hx))
    y_bound = 0.8 * sys0.uq_half_width * min(1.0, 1.0 / abs(hy))
    worst = 0.0
    for dx in np.linspace(-x_bound, x_bound, _CONJUGACY_GRID):
        for dy in np.linspace(-y_bound, y_bound, _CONJUGACY_GRID):
            p = (1.0 + float(dx), float(dy))
            left = apply_phi(sys1, pair.h(p))
            right = pair.h(apply_linear(sys0, apply_phi(sys0, p), pair.m0_shift))
            worst = max(worst, abs(left[0] - right[0]), abs(left[1] - right[1]))
    return worst


def conjugate_system(sys: ModelSystem, shift: int) -> ModelSystem:
    """Recharted copy of ``sys`` under h(x, y) = (x, lam^-shift * y).

    h commutes with the saddle map, so the eigenvalues are untouched; the
    transition is re-read as a chart map for m0 + shift saddle steps, which
    rescales its coefficients and lifts the seed arc by lam^-shift.
    """
    t = sys.transition
    if t.m0 + shift < 1:
        raise DomainError(f"shift {shift} would drop the transition step count below 1")
    lam, mu = sys.lam, sys.mu
    lm = signed_power(lam, shift) * signed_power(mu, shift)
    mu_k = signed_power(mu, shift)
    h1 = tuple((i, j, coef * mu_k * signed_power(lam, j * shift)) for i, j, coef in t.h1_terms)
    h2 = tuple((i, j, coef * signed_power(lam, j * shift)) for i, j, coef in t.h2_terms)
    transition = replace(
        t,
        a=t.a * lm,
        b=t.b * lm,
        c=t.c * mu_k,
        e=t.e * signed_power(lam, shift),
        m0=t.m0 + shift,
        h1_terms=h1,
        h2_terms=h2,
    )
    lift = signed_power(lam, -shift)
    seed = replace(sys.seed, coeffs=tuple(coef * lift for coef in sys.seed.coeffs))
    return replace(sys, transition=transition, seed=seed)


_CONJUGACY_TOL = 1e-12


def _checked_pair(sys0: ModelSystem, sys1: ModelSystem, h_scale: tuple[float, float], shift: int) -> ConjugacyPair:
    pair = ConjugacyPair(sys0, sys1, h_scale, shift)
    resid = conjugation_residual(pair)
    if resid > _CONJUGACY_TOL:
        raise NumericError("conjugation identity fails on the sample grid", residual=resid)
    return pair


def identity_pair(sys: ModelSystem) -> ConjugacyPair:
    """The system paired with itself under the identity chart map."""
    return _checked_pair(sys, sys, (1.0, 1.0), 0)


def rescale_pair(sys: ModelSystem, shift: int) -> ConjugacyPair:
    """``sys`` paired with its lam^-shift vertical rescaling.

    For lam < 0 an odd shift would flip the seed below the axis, which the
    seed constructor rejects; the sign case's ``Adaptability.f_power`` is a
    shift that keeps every sign.
    """
    return _checked_pair(sys, conjugate_system(sys, shift), (1.0, signed_power(sys.lam, -shift)), shift)


def mismatched_pair(sys: ModelSystem, lam_other: float) -> ConjugacyPair:
    """A deliberately non-conjugate pair: same data, different contraction.

    No identity is asserted; this exists so the intersection and modulus
    diagnostics have something to reject.
    """
    if abs(lam_other) >= 1.0 or lam_other == 0.0:
        raise DomainError("replacement contraction must satisfy 0 < |lam| < 1")
    other = replace(sys, saddle=replace(sys.saddle, lam=lam_other))
    return ConjugacyPair(sys, other, (1.0, 1.0), 0)


def correspondence_points(pair: ConjugacyPair, n_range) -> list[tuple[float, float]]:
    """Graph points of the boundary conjugacy along the unstable axis.

    Level n contributes (mu_0^shift * pr_x(r_n of sys_0), pr_x(r_n of sys_1)):
    the first abscissa is where the shifted arc of sys_0 lands, the second is
    where the matching arc of sys_1 already sits.  For a genuine conjugacy
    these sample the power law h(x) = C x^tau; the abscissas decay like
    lam_0^n, so a handful of levels spans several decades.
    """
    ns = _levels(n_range, 1, "empty level range")
    shift_factor = signed_power(pair.sys_0.mu, pair.m0_shift)
    out = []
    for n in ns:
        r0 = pick_rn(pair.sys_0, n)
        r1 = pick_rn(pair.sys_1, n)
        out.append((shift_factor * r0[0], r1[0]))
    return out


def lemma_constant(pair: ConjugacyPair, tau: float) -> float:
    """Predicted coefficient of the boundary power law h(x) = C x^tau.

    C = a1*z1 / ((a0*z0)^tau * mu1^m0_shift), using each system's transition
    coefficient a and seed height z0.
    """
    t0, t1 = pair.sys_0.transition, pair.sys_1.transition
    base = t0.a * pair.sys_0.seed.z0
    if base <= 0.0 and tau != int(tau):
        raise DomainError("fractional boundary exponent needs a positive a*z0")
    num = t1.a * pair.sys_1.seed.z0
    return num / (base**tau * signed_power(pair.sys_1.mu, pair.m0_shift))


def _branches(S: SnRectangle, factors: Point) -> list[tuple[float, float, Polynomial, Polynomial]]:
    """The three x-monotone branches of the fold under the diagonal map
    (x, y) -> (fx*x, fy*y): (s_lo, s_hi, X, Y) in s = t / scale."""
    scale, x, y = S.fold
    return [(lo / scale, hi / scale, x * factors[0], y * factors[1]) for lo, hi in S.branches]


def _branch_y_at(branch, x: float) -> float:
    """Height of an x-monotone branch over abscissa x.  The branch ends are
    zeros of px', so the branch is one of ``real_roots``' pieces for
    px - x: its one root in (lo, hi] is taken as ``real_roots`` takes a
    piece's, and no zero of px' is searched for again."""
    lo, hi, px, py = branch
    p = px + -x
    f_lo, f_hi = p(lo), p(hi)
    if not _crosses(f_lo, f_hi):
        raise NumericError(f"abscissa {x:.6g} not reached on the branch")
    if f_hi == 0.0:
        return py(hi)
    return py(_polish(p, lo, hi, f_lo, f_hi))


_INTERSECTION_TOL = 1e-9


def intersection_check(pair: ConjugacyPair, n: int) -> bool:
    """Does h(f^shift(gamma'_n of sys_0)) meet gamma'_n of sys_1?

    Both curves are split into their three x-monotone branches (left tail,
    hook, right tail); h o f^shift is diagonal, so each branch is a pair of
    fold polynomials.  Every branch pair with overlapping abscissa ranges is
    compared through the vertical offset, counting a sign change or an
    offset within ``_INTERSECTION_TOL`` as an intersection.  The sampling is
    refined twice before giving up.  Disjoint abscissa ranges throughout mean
    the curves live at different depths and the answer is False.
    """
    branches0 = _branches(build_sn(pair.sys_0, n), pair.h(apply_linear(pair.sys_0, (1.0, 1.0), pair.m0_shift)))
    branches1 = _branches(build_sn(pair.sys_1, n), (1.0, 1.0))
    for count in (65, 129, 257):
        for b0, b1 in itertools.product(branches0, branches1):
            (xa0, xb0), (xa1, xb1) = (sorted((px(lo), px(hi))) for lo, hi, px, _ in (b0, b1))
            x_lo, x_hi = max(xa0, xa1), min(xb0, xb1)
            if x_hi <= x_lo:
                continue
            inset = 1e-9 * (x_hi - x_lo)
            prev = None
            for x in np.linspace(x_lo + inset, x_hi - inset, count):
                off = _branch_y_at(b0, float(x)) - _branch_y_at(b1, float(x))
                if abs(off) <= _INTERSECTION_TOL:
                    return True
                if prev is not None and math.copysign(1.0, off) != math.copysign(1.0, prev):
                    return True
                prev = off
    return False


class OrderProbeReport(NamedTuple):
    """Return exponents probed along a dyadic approach to q on W^u(p).

    ``ratios`` are |mu|^-l_j / x_j^3; for a cubic tangency they stay inside
    one fundamental band [band_lo, band_hi] whose width is at most a factor
    |mu|, and the band must not move when the probe is extended two levels
    deeper (``stable``).  ``slope`` is the log-log regression slope of
    |mu|^-l_j against x_j, i.e. the measured tangency order.
    """

    j_values: tuple[int, ...]
    x_values: tuple[float, ...]
    l_values: tuple[int, ...]
    ratios: tuple[float, ...]
    band_lo: float
    band_hi: float
    band_factor: float
    slope: float
    stable: bool


def _probe_level(sys: ModelSystem, j: int) -> tuple[float, int, float]:
    x_j = 0.1 * 2.0**-j
    t_j = apply_phi(sys, (1.0 + x_j, 0.0))
    if t_j[0] <= 0.0:
        raise WrongQuadrantError(f"probe image abscissa {t_j[0]:.6g} at j={j} is not positive")
    l_j = _fundamental_exponent(sys, t_j[0])
    ratio = math.exp(-l_j * math.log(abs(sys.mu)) - 3.0 * math.log(x_j))
    return x_j, l_j, ratio


_PROBE_LEVELS = tuple(range(0, 11))


def order_probe(sys: ModelSystem) -> OrderProbeReport:
    """Measure the tangency order from return exponents alone.

    Probes q from the positive unstable side at x_j = 0.1 * 2^-j, records
    the exponent l_j returning phi(q + x_j e_1) to the fundamental domain,
    and checks that |mu|^-l_j scales like x_j^3 (slope by ``line_fit``).
    """
    js = _PROBE_LEVELS
    levels = [_probe_level(sys, j) for j in js]
    ratios = [r for _, _, r in levels]
    band_lo, band_hi = min(ratios), max(ratios)
    slope, _ = line_fit(np.log([x for x, _, _ in levels]), [-l * math.log(abs(sys.mu)) for _, l, _ in levels])
    extended = [_probe_level(sys, js[-1] + 1), _probe_level(sys, js[-1] + 2)]
    ext_ratios = ratios + [r for _, _, r in extended]
    slack = 1.0 + 1e-9
    stable = max(ext_ratios) / min(ext_ratios) <= abs(sys.mu) * slack
    return OrderProbeReport(
        j_values=js,
        x_values=tuple(x for x, _, _ in levels),
        l_values=tuple(l for _, l, _ in levels),
        ratios=tuple(ratios),
        band_lo=band_lo,
        band_hi=band_hi,
        band_factor=band_hi / band_lo,
        slope=slope,
        stable=stable,
    )
